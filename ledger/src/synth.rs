//! DRL design synthesis with the experiment harness's default arm
//! (`rlnoc_bench::drl_topology` at `Effort::Greedy`), the Algorithm-1
//! env/topology path behind every committed figure.

use crate::Outcome;
use rlnoc_bench::{drl_topology, Effort};
use rlnoc_core::rollout::{best_connected, greedy_rollout, skeleton_rollout};
use rlnoc_topology::{Grid, Topology};
use std::time::Instant;

/// The default-arm DRL design for `grid` under `cap`.
pub fn synthesize(grid: Grid, cap: u32, seed: u64) -> Topology {
    drl_topology(grid, cap, Effort::Greedy, seed)
}

/// Calls each rollout arm of the default synthesis directly, in the
/// order and under the conditions `drl_topology` uses them, and reports
/// each arm's time, the arm whose design was kept (1 greedy, 2 skeleton,
/// 3 frugal restarts) and its loop count. Returns whether the design
/// equals `expected`.
pub fn trace_arms(grid: Grid, cap: u32, seed: u64, expected: &Topology, out: &mut Outcome) -> bool {
    let t = Instant::now();
    let mut best = greedy_rollout(grid, cap);
    out.push("synth.greedy_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let mut arm = 1.0;
    if !best.is_fully_connected() {
        let t = Instant::now();
        if let Some(topo) = skeleton_rollout(grid, cap) {
            best = topo;
            arm = 2.0;
        }
        out.push("synth.skeleton_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    }
    if !best.is_fully_connected() && grid.len() <= 100 {
        let t = Instant::now();
        if let Some(topo) = best_connected(grid, cap, 24, seed) {
            best = topo;
            arm = 3.0;
        }
        out.push("synth.frugal_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    }
    out.push("synth.arm", arm, "index");
    out.push("synth.loops", best.loops().len() as f64, "count");
    best.loops() == expected.loops()
}
