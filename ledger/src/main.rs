//! Runs one benchmark workload and prints its record.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload learn-4x4 --seed 1 [--trace 0|1] [--seconds N]
//! ```
//!
//! The work is fixed by the workload and the seed; `--seconds` is
//! accepted and recorded in the manifest, but never changes how much
//! work is done. Standard output
//! ends with two lines: the full record (manifest, digest, quality
//! figures, every metric measured) and the summary
//! `{"correct", "attempted", "failed", "metrics"}`, whose metrics are
//! exactly the listed ones (`END_TO_END`, or `PER_LAYER` when traced).

use rlnoc_ledger::host::{self, StealMeter};
use rlnoc_ledger::learn::LearnSpec;
use rlnoc_ledger::parsec::ParsecSpec;
use rlnoc_ledger::sweep::SweepSpec;
use rlnoc_ledger::{learn, parsec, sweep, Metric, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: rlnoc-ledger --workload <learn-4x4|sweep-10x10|parsec-8x8> \
--seed <u64> [--trace 0|1] [--seconds <n>]";

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    seconds: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
        seconds,
    })
}

/// Worker, GEMM and sweep thread counts of a workload.
fn threads(workload: &str) -> (usize, String, usize) {
    let gemm = match rlnoc_nn::kernels::matmul_threads() {
        0 => format!("auto (<= {})", host::nproc()),
        n => n.to_string(),
    };
    match workload {
        "learn-4x4" => (1, gemm, 0),
        _ => (0, "unused".into(), 1),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal = StealMeter::start();
    let mut outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("learn-4x4", false) => learn::run(&LearnSpec::full(), args.seed),
        ("learn-4x4", true) => learn::trace(&LearnSpec::full(), args.seed),
        ("sweep-10x10", false) => sweep::run(&SweepSpec::full(), args.seed),
        ("sweep-10x10", true) => sweep::trace(&SweepSpec::full(), args.seed),
        ("parsec-8x8", false) => parsec::run(&ParsecSpec::full(), args.seed),
        ("parsec-8x8", true) => parsec::trace(&ParsecSpec::full(), args.seed),
        (w, _) => {
            eprintln!("unknown workload {w}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal_share = steal.share();
    if args.trace {
        if let Some(s) = steal_share {
            outcome.push("host.steal_share", s, "ratio");
        }
    } else if let Some(mib) = host::peak_rss_mib() {
        outcome.push("peak_rss_mb", mib, "MiB");
    }
    let listed = match outcome.listed(args.trace) {
        Ok(listed) => listed,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let (workers, gemm, sweep_threads) = threads(&args.workload);
    let manifest = [
        ("git_rev", json_str(&host::git_rev())),
        ("cpu_model", json_str(&host::cpu_model())),
        ("nproc", host::nproc().to_string()),
        ("rustc", json_str(host::RUSTC_VERSION)),
        ("target_features", json_str(host::TARGET_FEATURES)),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        (
            "seconds_arg",
            args.seconds.map_or("null".into(), |s| s.to_string()),
        ),
        ("learner_workers", workers.to_string()),
        ("gemm_threads", json_str(&gemm)),
        ("sweep_threads", sweep_threads.to_string()),
        (
            "host_steal_share",
            json_num(steal_share.unwrap_or(f64::NAN)),
        ),
    ];
    let manifest: Vec<String> = manifest
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let quality: Vec<String> = outcome
        .quality
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    println!(
        "{{\"manifest\": {{{}}}, \"digest\": \"{:016x}\", \"quality\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        manifest.join(", "),
        outcome.digest,
        quality.join(", "),
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json_metrics(&listed),
    );
    ExitCode::SUCCESS
}
