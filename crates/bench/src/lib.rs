//! Shared harness utilities for the paper-reproduction experiment
//! binaries (`src/bin/table*.rs`, `src/bin/fig*.rs`, `src/bin/exp_*.rs`).
//!
//! Every table and figure of the paper's evaluation has a binary that
//! regenerates its rows/series; `DESIGN.md` §3 is the index, and
//! `EXPERIMENTS.md` records paper-vs-measured values. Binaries print a
//! human-readable table and write CSV under `results/`.

#![warn(missing_docs)]

use rlnoc_core::explorer::ExplorerConfig;
use rlnoc_core::parallel::explore_parallel;
use rlnoc_core::routerless::RouterlessEnv;
use rlnoc_topology::{Grid, Topology};
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// How much compute to spend producing each DRL design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Pure Algorithm-1 rollout (the framework with ε = 1 and no
    /// training): deterministic and fast. Used for large grids and quick
    /// runs.
    Greedy,
    /// Greedy rollout plus a number of learning cycles of DNN+MCTS
    /// exploration, keeping the best design found.
    Learn {
        /// Exploration cycles.
        cycles: usize,
        /// Parallel search threads (§4.6).
        threads: usize,
    },
}

impl Effort {
    /// Reads effort from the `RLNOC_EFFORT` environment variable:
    /// `greedy` (default) or `learn[:cycles[:threads]]`.
    pub fn from_env() -> Effort {
        match std::env::var("RLNOC_EFFORT") {
            Ok(v) if v.starts_with("learn") => {
                let mut parts = v.split(':').skip(1);
                let cycles = parts.next().and_then(|s| s.parse().ok()).unwrap_or(8);
                let threads = parts.next().and_then(|s| s.parse().ok()).unwrap_or(4);
                Effort::Learn { cycles, threads }
            }
            _ => Effort::Greedy,
        }
    }
}

/// Produces a DRL routerless design for `grid` under the node-overlapping
/// `cap`.
///
/// With [`Effort::Greedy`] this runs the framework's deterministic
/// Algorithm-1 rollout to completion, falling back to the budget-aware
/// random-restart rollout (`rlnoc_core::rollout::best_connected`) when the
/// cap is too tight for plain greedy. With [`Effort::Learn`] it
/// additionally runs multi-threaded DNN+MCTS exploration and returns the
/// best design seen.
///
/// The result may be disconnected when `cap` sits below this search
/// budget's reach (the paper's fully trained agent reaches cap 8 on 8x8;
/// laptop-scale search bottoms out around 13).
pub fn drl_topology(grid: Grid, cap: u32, effort: Effort, seed: u64) -> Topology {
    let mut best = greedy_rollout(grid, cap);
    if !best.is_fully_connected() {
        // Tight caps: the cap-N skeleton construction plus greedy filling.
        if let Some(t) = rlnoc_core::rollout::skeleton_rollout(grid, cap) {
            best = t;
        }
    }
    if !best.is_fully_connected() && grid.len() <= 100 {
        // Last resort on small grids: randomized-restart frugal search.
        if let Some(t) = rlnoc_core::rollout::best_connected(grid, cap, 24, seed) {
            best = t;
        }
    }
    if let Effort::Learn { cycles, threads } = effort {
        let env = RouterlessEnv::new(grid, cap);
        let config = ExplorerConfig::fast();
        let report = explore_parallel(&env, &config, threads, cycles, seed);
        if let Some(b) = report.best() {
            if b.env.is_fully_connected()
                && (!best.is_fully_connected() || b.env.average_hops() < best.average_hops())
            {
                best = b.env.topology().clone();
            }
        }
    }
    best
}

/// The framework's ε = 1 deterministic rollout: repeat Algorithm 1 until
/// no legal loop remains. Re-exported from `rlnoc_core::rollout`.
pub fn greedy_rollout(grid: Grid, cap: u32) -> Topology {
    rlnoc_core::rollout::greedy_rollout(grid, cap)
}

/// Prints an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes rows as CSV under `results/<name>.csv`, returning the path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    if let Err(e) = fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(wrote {})", path.display());
    }
    path
}

/// Writes a live sink's events as JSONL under
/// `results/<name>.telemetry.jsonl` and prints the per-phase summary
/// tables (the same rendering as the `telemetry_report` binary). Returns
/// the path written, or `None` for a disabled sink or write failure.
pub fn write_telemetry(name: &str, sink: &rlnoc_telemetry::TelemetrySink) -> Option<PathBuf> {
    if !sink.is_enabled() {
        return None;
    }
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.telemetry.jsonl"));
    if let Err(e) = sink.write_jsonl(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
        return None;
    }
    println!("(wrote {})", path.display());
    let summaries = rlnoc_telemetry::report::summarize(&sink.events());
    println!("{}", rlnoc_telemetry::report::render(&summaries));
    Some(path)
}

/// Formats a float with 3 decimals (the tables' usual precision).
pub fn f3(x: impl Into<f64>) -> String {
    format!("{:.3}", x.into())
}

/// Formats any displayable value.
pub fn s(x: impl Display) -> String {
    x.to_string()
}

/// The measuring host as a JSON object, for the `BENCH_*.json` records:
/// CPU model, logical CPUs, the compiler that built this binary, and the
/// git revision of the working directory (`-dirty` when tracked files
/// differ from it, `"unknown"` where unreadable).
pub fn host_json() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    // Tracked files that differ from HEAD mark the revision `-dirty`.
    let git_rev = match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(rev), Some(changes)) if !changes.is_empty() => format!("{rev}-dirty"),
        (Some(rev), _) => rev,
        (None, _) => "unknown".into(),
    };
    let quote = |s: &str| serde_json::to_string(&s.to_string()).expect("strings serialize");
    format!(
        "{{ \"cpu_model\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {} }}",
        quote(&cpu),
        quote(env!("RLNOC_BENCH_RUSTC_VERSION")),
        quote(&git_rev),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_rollout_connects_4x4() {
        let t = greedy_rollout(Grid::square(4).unwrap(), 6);
        assert!(t.is_fully_connected());
        assert!(t.max_overlap() <= 6);
    }

    #[test]
    fn drl_topology_greedy_effort_is_deterministic() {
        let g = Grid::square(4).unwrap();
        let a = drl_topology(g, 6, Effort::Greedy, 1);
        let b = drl_topology(g, 6, Effort::Greedy, 2);
        assert_eq!(a.loops(), b.loops());
    }

    #[test]
    fn effort_from_env_parses() {
        // Not setting the variable yields greedy.
        std::env::remove_var("RLNOC_EFFORT");
        assert_eq!(Effort::from_env(), Effort::Greedy);
    }
}
