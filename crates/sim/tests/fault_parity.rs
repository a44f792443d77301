//! The two headline fault-injection contracts:
//!
//! 1. **Zero-fault bit-identity** — a sim built `with_faults` on an empty
//!    [`FaultPlan`] must produce `Metrics` bit-identical to the plain
//!    construction on both fabrics (the fault hooks are behavioural
//!    no-ops until an event fires).
//! 2. **Faulted sweep determinism** — a sweep whose factory builds
//!    faulted sims is bit-identical between the serial reference and the
//!    parallel engine at 1, 2, and 8 threads.
//!
//! Faulted meshes have no reference oracle, so [`faulted_mesh_goldens`]
//! pins their `Metrics` and drop counters to recorded values instead.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::sweep::{latency_sweep, SweepEngine, SweepParams};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, FaultPlan, MeshSim, Metrics, Network, RouterlessSim, SimConfig};
use rlnoc_topology::Grid;

fn quick_cfg(data_flits: usize) -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 900,
        drain: 700,
        data_flits,
        ..SimConfig::default()
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_on_routerless() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let cfg = quick_cfg(5);
    for (pattern, rate, seed) in [
        (Pattern::UniformRandom, 0.05, 3u64),
        (Pattern::Tornado, 0.15, 9),
        (Pattern::Transpose, 0.30, 42),
    ] {
        let plain = run_synthetic(&mut RouterlessSim::new(&topo), pattern, rate, &cfg, seed);
        let faulted = run_synthetic(
            &mut RouterlessSim::with_faults(&topo, FaultPlan::new()),
            pattern,
            rate,
            &cfg,
            seed,
        );
        assert_eq!(
            plain, faulted,
            "empty fault plan diverged ({pattern:?} @ {rate})"
        );
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_on_mesh() {
    let g = Grid::square(4).unwrap();
    let cfg = quick_cfg(3);
    for (delay, rate, seed) in [(0u64, 0.05, 1u64), (1, 0.20, 7), (2, 0.35, 13)] {
        let plain = run_synthetic(
            &mut MeshSim::new(g, delay, 8),
            Pattern::UniformRandom,
            rate,
            &cfg,
            seed,
        );
        let faulted = run_synthetic(
            &mut MeshSim::with_faults(g, delay, 8, FaultPlan::new()),
            Pattern::UniformRandom,
            rate,
            &cfg,
            seed,
        );
        assert_eq!(plain, faulted, "empty fault plan diverged (delay {delay})");
    }
}

/// The CI `fault-smoke` determinism check: a *faulted* routerless sweep
/// (two loops killed mid-warm-up) is bit-identical between the serial
/// reference and the parallel engine at 1, 2, and 8 worker threads.
#[test]
fn faulted_sweep_is_deterministic_across_thread_counts() {
    let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
    let num_loops = topo.loops().len();
    let plan = FaultPlan::random_loop_kills(50, 2, num_loops, 77);
    let cfg = SimConfig {
        warmup: 100,
        measure: 500,
        drain: 400,
        data_flits: 5,
        ..SimConfig::default()
    };
    let params = SweepParams {
        start: 0.05,
        step: 0.1,
        max_rate: 0.65,
        latency_factor: 4.0,
        seed: 21,
    };
    let factory = || RouterlessSim::with_faults(&topo, plan.clone());
    let serial = latency_sweep(
        factory,
        Pattern::UniformRandom,
        &cfg,
        params.start,
        params.step,
        params.max_rate,
        params.latency_factor,
        params.seed,
    );
    assert!(!serial.points.is_empty());
    for threads in [1, 2, 8] {
        let parallel =
            SweepEngine::new(threads).sweep(factory, Pattern::UniformRandom, &cfg, params);
        assert_eq!(
            parallel, serial,
            "faulted sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn faulted_mesh_sweep_is_deterministic_across_thread_counts() {
    let g = Grid::square(4).unwrap();
    let mut plan = FaultPlan::new();
    plan.kill_mesh_link(60, g.node_at(1, 1), g.node_at(2, 1));
    plan.stall_injection(g.node_at(0, 0), 100, 160);
    let cfg = SimConfig {
        warmup: 100,
        measure: 500,
        drain: 400,
        data_flits: 3,
        ..SimConfig::default()
    };
    let params = SweepParams {
        start: 0.05,
        step: 0.15,
        max_rate: 0.5,
        latency_factor: 4.0,
        seed: 5,
    };
    let factory = || MeshSim::with_faults(g, 1, 8, plan.clone());
    let serial = latency_sweep(
        factory,
        Pattern::UniformRandom,
        &cfg,
        params.start,
        params.step,
        params.max_rate,
        params.latency_factor,
        params.seed,
    );
    for threads in [1, 2, 8] {
        let parallel =
            SweepEngine::new(threads).sweep(factory, Pattern::UniformRandom, &cfg, params);
        assert_eq!(
            parallel, serial,
            "faulted mesh sweep diverged at {threads} threads"
        );
    }
}

/// FNV-1a over the latency histogram, so a golden can pin all of it.
fn hist_digest(hist: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in hist.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a faulted mesh run reports: `Metrics` (histogram as a
/// digest), `dropped_by_fault`, `dropped_fault_flits`, and `in_flight`.
type Observed = ([u64; 8], u64, u64, u64, usize);

fn observe(m: &Metrics, sim: &MeshSim) -> Observed {
    (
        [
            m.packets,
            m.latency_sum,
            m.hop_sum,
            m.flits_delivered,
            m.flit_hop_sum,
            m.packets_offered,
            m.flits_offered,
            m.max_latency,
        ],
        hist_digest(&m.latency_hist),
        sim.dropped_by_fault(),
        sim.dropped_fault_flits(),
        sim.in_flight(),
    )
}

/// Faulted-mesh behaviour pinned to values recorded before the mesh
/// kernel's hot path was rewritten, on a 4x4 mesh at router delays 0, 1
/// and 2:
///
/// - `mid_wormhole`: link (1,1)→(2,1) dies at cycle 260 while an 8-flit
///   packet holds its wormhole lock, under uniform load;
/// - `two_kills`: links (1,1)→(2,1) and (2,2)→(2,1) die at cycles 300
///   and 450 under uniform load;
/// - `stall`: nodes (0,0) and (3,3) stop injecting over [200, 500) and
///   [100, 400).
#[test]
fn faulted_mesh_goldens() {
    let g = Grid::square(4).unwrap();
    #[rustfmt::skip]
    let goldens: [(&str, u64, Observed); 9] = [
        ("mid_wormhole", 0, ([903, 12597, 2457, 4123, 11088, 910, 4151, 70], 0x80ac_2b0d_a70f_0a24, 7, 10, 0)),
        ("mid_wormhole", 1, ([903, 16247, 2457, 4123, 11088, 910, 4151, 83], 0x8a0b_0fa2_b187_c834, 7, 17, 0)),
        ("mid_wormhole", 2, ([903, 19347, 2457, 4123, 11088, 910, 4151, 77], 0x4fe0_3460_6044_3c58, 7, 17, 0)),
        ("two_kills", 0, ([1376, 7746, 3633, 2824, 7469, 1440, 2946, 19], 0xea84_0b5d_cba8_11b9, 64, 96, 0)),
        ("two_kills", 1, ([1376, 12808, 3633, 2824, 7469, 1440, 2946, 25], 0xf279_db34_5386_7f2e, 64, 103, 0)),
        ("two_kills", 2, ([1376, 17814, 3633, 2824, 7469, 1440, 2946, 30], 0x1911_76f8_c331_0631, 64, 103, 0)),
        ("stall", 0, ([1063, 39324, 2828, 2113, 5598, 1063, 2113, 358], 0x1b06_eb83_d5b5_7d60, 0, 0, 0)),
        ("stall", 1, ([1063, 43611, 2828, 2113, 5598, 1063, 2113, 368], 0xe570_5ffa_e18d_4f22, 0, 0, 0)),
        ("stall", 2, ([1063, 47910, 2828, 2113, 5598, 1063, 2113, 374], 0x66db_e4c5_b652_dea4, 0, 0, 0)),
    ];
    for (name, delay, golden) in goldens {
        let mut plan = FaultPlan::new();
        let (rate, data_flits, seed) = match name {
            "mid_wormhole" => {
                plan.kill_mesh_link(260, g.node_at(1, 1), g.node_at(2, 1));
                (0.3, 8, 31)
            }
            "two_kills" => {
                plan.kill_mesh_link(300, g.node_at(1, 1), g.node_at(2, 1));
                plan.kill_mesh_link(450, g.node_at(2, 2), g.node_at(2, 1));
                (0.2, 3, 11)
            }
            _ => {
                plan.stall_injection(g.node_at(0, 0), 200, 500);
                plan.stall_injection(g.node_at(3, 3), 100, 400);
                (0.15, 3, 5)
            }
        };
        let cfg = SimConfig {
            warmup: 150,
            measure: 900,
            drain: 700,
            data_flits,
            ..SimConfig::default()
        };
        let mut sim = MeshSim::with_faults(g, delay, 8, plan);
        let m = run_synthetic(&mut sim, Pattern::UniformRandom, rate, &cfg, seed);
        assert_eq!(
            observe(&m, &sim),
            golden,
            "faulted mesh {name} diverged at delay {delay}"
        );
    }
}
