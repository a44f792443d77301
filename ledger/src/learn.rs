//! `learn-4x4`: the README quickstart learner path,
//! `Explorer::new(RouterlessEnv::new(4×4, cap 8), ExplorerConfig::fast(),
//! seed).run_cycles(n)`, on one worker, for four explorer seeds in turn.
//!
//! A learner cycle is almost all `rlnoc-nn` (GEMM, forwards) with the
//! evaluation cache and MCTS around it; the routerless environment is a
//! fraction of a percent and `rlnoc-sim` is not touched. Cap 8 leaves
//! about half of the cycles valid: at cap 6 one worker found 0–4 valid
//! designs in 40 cycles (seeds 1–3), and at cap 10 every cycle succeeds,
//! so quality would no longer tell runs apart.
//!
//! The valid-design fraction is exact for a seed but moves from seed to
//! seed (0.37–0.64 over seeds 1–5), so it and the wall-clock per valid
//! design are reported with the traced run, which has no bound, and not
//! as end-to-end metrics.

use crate::{fastest, fastest_s, fastest_units, host, ms, percentile, rounds, Digest, Outcome};
use rlnoc_core::explorer::{DesignResult, Explorer, ExplorerConfig};
use rlnoc_core::policy::TrainStats;
use rlnoc_core::routerless::{LoopAction, RouterlessEnv};
use rlnoc_core::CacheStats;
use rlnoc_core::Environment;
use rlnoc_nn::Tensor;
use rlnoc_sim::sweep::splitmix64;
use rlnoc_telemetry::TelemetrySink;
use rlnoc_topology::{Grid, Topology};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Grid side of the learner's design space.
const SIDE: usize = 4;
/// Node-overlap cap of the learner's designs.
const CAP: u32 = 8;
/// Independent explorers per run, each from its own seed. One explorer's
/// cost follows its trajectory: 100 cycles took 9.9–11.3 s over seeds
/// 21–25, while repeats of one seed agreed within about 1%. Several
/// shorter trajectories per run average much of that out.
const EXPLORERS: usize = 4;

/// The explorer seeds of a run: the run's seed, then seeds derived from it.
fn explorer_seeds(seed: u64) -> [u64; EXPLORERS] {
    std::array::from_fn(|k| match k {
        0 => seed,
        k => splitmix64(seed ^ k as u64),
    })
}

/// The fixed amount of learner work one run does.
#[derive(Debug, Clone, Copy)]
pub struct LearnSpec {
    /// Exploration cycles per pass; the fixed work is this many cycles
    /// of each explorer.
    pub cycles: usize,
    /// Timed passes of `cycles` cycles per explorer, each from a fresh
    /// explorer; `work_s` sums each cycle's fastest time across passes.
    pub rounds: usize,
    /// Explorer constructions timed before each cycle; `setup_s` is the
    /// fastest.
    pub setup_reps: usize,
}

impl LearnSpec {
    /// The `learn-4x4` workload.
    pub fn full() -> Self {
        LearnSpec {
            cycles: 50,
            rounds: 2,
            setup_reps: 3,
        }
    }
}

fn grid() -> Grid {
    Grid::square(SIDE).expect("benchmark grid sides are valid")
}

/// One cycle's design, seen through whichever environment type ran it.
struct CycleView<'a> {
    successful: bool,
    steps: usize,
    final_return: f64,
    topology: &'a Topology,
}

/// Independent checks over a run's designs.
#[derive(Default)]
struct Checked {
    valid: usize,
    failed: u64,
    best_hops: Option<f64>,
    /// Digest of each cycle's design and training statistics.
    per_cycle: Vec<u64>,
}

impl Checked {
    /// Adds another explorer's designs after this one's.
    fn append(&mut self, other: Checked) {
        self.valid += other.valid;
        self.failed += other.failed;
        self.best_hops = match (self.best_hops, other.best_hops) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.per_cycle.extend(other.per_cycle);
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        self.per_cycle.iter().for_each(|&c| d.word(c));
        d.value()
    }
}

/// Rebuilds every design from its loops and checks connectivity and the
/// overlap cap independently of the environment's incremental state. A
/// cycle fails when its reported success disagrees with the rebuilt
/// design, or when the design breaks the cap.
fn check(cycles: &[CycleView<'_>], train: &[TrainStats]) -> Checked {
    let mut out = Checked {
        valid: 0,
        failed: 0,
        best_hops: None,
        per_cycle: Vec::with_capacity(cycles.len()),
    };
    for (c, t) in cycles.iter().zip(train) {
        let rebuilt = Topology::from_loops(grid(), c.topology.loops().iter().copied());
        let ok = match &rebuilt {
            Ok(topo) => {
                let within_cap = topo.max_overlap() <= CAP;
                let connected = topo.is_fully_connected();
                if connected && within_cap {
                    out.valid += 1;
                    let hops = topo.average_hops();
                    out.best_hops = Some(out.best_hops.map_or(hops, |b: f64| b.min(hops)));
                }
                within_cap && c.successful == connected
            }
            Err(_) => false,
        };
        if !ok {
            out.failed += 1;
        }
        let mut d = Digest::default();
        d.word(u64::from(c.successful));
        d.word(c.steps as u64);
        d.float(c.final_return);
        for l in c.topology.loops() {
            let (x1, y1, x2, y2, dir) = l.encode();
            for w in [x1, y1, x2, y2, usize::from(dir)] {
                d.word(w as u64);
            }
        }
        for x in [t.policy_loss, t.value_loss, t.grad_norm, t.entropy] {
            d.word(u64::from(x.to_bits()));
        }
        d.word(t.steps as u64);
        out.per_cycle.push(d.value());
    }
    if cycles.len() != train.len() {
        out.failed += cycles.len().abs_diff(train.len()) as u64;
    }
    out
}

/// Cycles whose digests differ between two runs of the same seed.
fn mismatches(a: &[u64], b: &[u64]) -> u64 {
    (a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())) as u64
}

fn views(designs: &[DesignResult<RouterlessEnv>]) -> Vec<CycleView<'_>> {
    designs
        .iter()
        .map(|d| CycleView {
            successful: d.successful,
            steps: d.steps,
            final_return: d.final_return,
            topology: d.env.topology(),
        })
        .collect()
}

/// What the untraced run produced, kept for the traced run's comparison.
struct Untraced {
    outcome: Outcome,
    /// Every explorer's first pass, in seed order.
    checked: Checked,
    /// Every explorer's fastest pass, taken together.
    window: host::Window,
    /// The sum of each cycle's fastest time.
    cycles_s: f64,
}

/// One untraced pass: a fresh explorer's designs, training statistics
/// and the timing window of each cycle.
#[derive(Default)]
struct UntracedPass {
    cycles: Vec<host::Window>,
    designs: Vec<DesignResult<RouterlessEnv>>,
    train: Vec<TrainStats>,
}

fn new_explorer(seed: u64) -> Explorer<RouterlessEnv> {
    Explorer::new(
        RouterlessEnv::new(grid(), CAP),
        ExplorerConfig::fast(),
        seed,
    )
}

fn run_untraced(spec: &LearnSpec, seed: u64) -> Untraced {
    let seeds = explorer_seeds(seed);
    // One unit per cycle of each pass, each after its set-up repetitions,
    // so those samples spread evenly over the run; consecutive passes
    // take the explorers in turn. A pass calls `run_cycles(1)` once per
    // cycle on a fresh explorer, which gives the same designs as one
    // `run_cycles(cycles)` call.
    let mut explorer = None;
    let mut started = 0;
    let samples = rounds(
        spec.rounds * EXPLORERS * spec.cycles,
        (spec.setup_reps, &mut || {
            black_box(new_explorer(seed));
        }),
        (0, &mut || {}),
        &mut || {
            if started % spec.cycles == 0 {
                let pass = started / spec.cycles;
                explorer = Some(new_explorer(seeds[pass % EXPLORERS]));
            }
            started += 1;
            let explorer = explorer.as_mut().expect("every pass builds its explorer");
            host::window(|| explorer.run_cycles(1))
        },
    );
    let mut passes: Vec<Vec<UntracedPass>> = (0..EXPLORERS).map(|_| Vec::new()).collect();
    for (i, (report, window)) in samples.passes.into_iter().enumerate() {
        let pass = i / spec.cycles;
        let own = &mut passes[pass % EXPLORERS];
        if i % spec.cycles == 0 {
            own.push(UntracedPass::default());
        }
        let pass = own.last_mut().expect("a pass was started");
        pass.cycles.push(window);
        pass.designs.extend(report.designs);
        pass.train.extend(report.train_history);
    }
    let mut cycles_s = 0.0;
    let mut windows = Vec::with_capacity(EXPLORERS);
    let mut checked = Checked::default();
    for mut own in passes {
        let cycle_s: Vec<Vec<f64>> = own
            .iter()
            .map(|p| p.cycles.iter().map(|w| w.wall_s).collect())
            .collect();
        cycles_s += fastest_units(cycle_s.iter().map(Vec::as_slice));
        windows.push(fastest(
            own.iter().map(|p| host::Window::total(&p.cycles)),
            |w| w.wall_s,
        ));
        let first = own.swap_remove(0);
        let mut one = check(&views(&first.designs), &first.train);
        // Every pass of an explorer must repeat its first exactly.
        for other in &own {
            let again = check(&views(&other.designs), &other.train);
            one.failed += mismatches(&again.per_cycle, &one.per_cycle);
        }
        checked.append(one);
    }
    let n = (EXPLORERS * spec.cycles) as f64;
    let mut outcome = Outcome {
        attempted: (spec.rounds * EXPLORERS * spec.cycles) as u64,
        failed: checked.failed,
        digest: checked.digest(),
        ..Outcome::default()
    };
    outcome
        .quality
        .push(("valid_design_fraction", checked.valid as f64 / n));
    outcome.push("setup_s", fastest_s(&samples.setup_s), "s");
    outcome.push("work_s", cycles_s, "s");
    if let Some(best) = checked.best_hops {
        outcome.quality.push(("best_avg_hops", best));
        outcome.push("best_avg_hops", best, "hops");
    }
    Untraced {
        outcome,
        checked,
        window: host::Window::total(&windows),
        cycles_s,
    }
}

/// Runs `learn-4x4` untraced and reports its end-to-end metrics.
pub fn run(spec: &LearnSpec, seed: u64) -> Outcome {
    run_untraced(spec, seed).outcome
}

/// Environment operations timed by [`TracedEnv`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Apply,
    StateTensor,
    LegalActions,
    GreedyAction,
    CompletionAction,
    /// `reset`, `state_key`, `is_terminal`, `final_return`, `is_successful`.
    Other,
}

/// Nanoseconds per [`Op`], shared by an environment and its clones.
#[derive(Debug, Default)]
struct EnvProbe {
    ns: [Cell<u64>; 6],
    applies: Cell<u64>,
    penalized: Cell<u64>,
}

impl EnvProbe {
    fn time<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let cell = &self.ns[op as usize];
        cell.set(cell.get() + t.elapsed().as_nanos() as u64);
        r
    }

    fn ns(&self, op: Op) -> u64 {
        self.ns[op as usize].get()
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum()
    }
}

/// A [`RouterlessEnv`] behind the public [`Environment`] trait, timing
/// each call. Pure accessors (`state_side`, `head_cardinality`, action
/// encoding) are passed through untimed.
#[derive(Debug, Clone)]
struct TracedEnv {
    inner: RouterlessEnv,
    probe: Rc<EnvProbe>,
}

impl Environment for TracedEnv {
    type Action = LoopAction;

    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.probe.time(Op::Other, || inner.reset())
    }
    fn state_key(&self) -> u64 {
        self.probe.time(Op::Other, || self.inner.state_key())
    }
    fn state_tensor(&self) -> Tensor {
        self.probe
            .time(Op::StateTensor, || self.inner.state_tensor())
    }
    fn state_side(&self) -> usize {
        self.inner.state_side()
    }
    fn apply(&mut self, action: LoopAction) -> f64 {
        let inner = &mut self.inner;
        let reward = self.probe.time(Op::Apply, || inner.apply(action));
        self.probe.applies.set(self.probe.applies.get() + 1);
        if reward < 0.0 {
            self.probe.penalized.set(self.probe.penalized.get() + 1);
        }
        reward
    }
    fn is_terminal(&self) -> bool {
        self.probe.time(Op::Other, || self.inner.is_terminal())
    }
    fn final_return(&self) -> f64 {
        self.probe.time(Op::Other, || self.inner.final_return())
    }
    fn legal_actions(&self) -> Vec<LoopAction> {
        self.probe
            .time(Op::LegalActions, || self.inner.legal_actions())
    }
    fn head_cardinality(&self) -> usize {
        self.inner.head_cardinality()
    }
    fn encode_action(&self, action: LoopAction) -> ([usize; 4], bool) {
        self.inner.encode_action(action)
    }
    fn decode_action(&self, coords: [usize; 4], flag: bool) -> LoopAction {
        self.inner.decode_action(coords, flag)
    }
    fn is_successful(&self) -> bool {
        self.probe.time(Op::Other, || self.inner.is_successful())
    }
    fn greedy_action(&self) -> Option<LoopAction> {
        self.probe
            .time(Op::GreedyAction, || self.inner.greedy_action())
    }
    fn completion_action(&self) -> Option<LoopAction> {
        self.probe
            .time(Op::CompletionAction, || self.inner.completion_action())
    }
}

/// The traced passes, one per explorer, taken together: fresh explorers
/// over [`TracedEnv`] with the program's telemetry on, each driven one
/// `run_cycles(1)` call per cycle.
struct Traced {
    cycle_ms: Vec<f64>,
    designs: Vec<DesignResult<TracedEnv>>,
    train: Vec<TrainStats>,
    /// Summed over the explorers.
    cache: CacheStats,
    /// The largest explorer's search tree.
    tree_nodes: usize,
    probe: Rc<EnvProbe>,
    sink: TelemetrySink,
    window: host::Window,
}

impl Traced {
    fn views(&self) -> Vec<CycleView<'_>> {
        self.designs
            .iter()
            .map(|d| CycleView {
                successful: d.successful,
                steps: d.steps,
                final_return: d.final_return,
                topology: d.env.inner.topology(),
            })
            .collect()
    }
}

fn traced_passes(spec: &LearnSpec, seed: u64) -> Traced {
    let probe = Rc::new(EnvProbe::default());
    let sink = TelemetrySink::enabled();
    let mut cycle_ms = Vec::with_capacity(EXPLORERS * spec.cycles);
    let mut designs = Vec::with_capacity(EXPLORERS * spec.cycles);
    let mut train = Vec::with_capacity(EXPLORERS * spec.cycles);
    let mut cache = CacheStats { hits: 0, misses: 0 };
    let mut tree_nodes = 0;
    let mut windows = Vec::with_capacity(EXPLORERS);
    for seed in explorer_seeds(seed) {
        let mut config = ExplorerConfig::fast();
        config.telemetry = sink.clone();
        let env = TracedEnv {
            inner: RouterlessEnv::new(grid(), CAP),
            probe: Rc::clone(&probe),
        };
        let mut explorer = Explorer::new(env, config, seed);
        let (_, window) = host::window(|| {
            for _ in 0..spec.cycles {
                let t = Instant::now();
                let report = explorer.run_cycles(1);
                cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                designs.extend(report.designs);
                train.extend(report.train_history);
            }
        });
        windows.push(window);
        let stats = explorer.cache_stats();
        cache.hits += stats.hits;
        cache.misses += stats.misses;
        tree_nodes = tree_nodes.max(explorer.tree().len());
    }
    Traced {
        cycle_ms,
        designs,
        train,
        cache,
        tree_nodes,
        probe,
        sink,
        window: host::Window::total(&windows),
    }
}

/// Runs `learn-4x4` untraced, then one pass per explorer traced; reports
/// the per-layer metrics of the traced passes. A traced pass runs within
/// a few percent of an untraced one and per-layer figures carry no
/// bound, so one pass per explorer is enough. Every cycle of both is an
/// operation; a traced cycle whose design or training statistics differ
/// from the untraced run's counts as failed.
pub fn trace(spec: &LearnSpec, seed: u64) -> Outcome {
    let untraced = run_untraced(spec, seed);
    let traced = traced_passes(spec, seed);
    let checked = check(&traced.views(), &traced.train);
    let failed = untraced.outcome.failed
        + checked.failed
        + mismatches(&checked.per_cycle, &untraced.checked.per_cycle);
    let digest = checked.digest();
    let Traced {
        cycle_ms,
        designs,
        train,
        cache,
        tree_nodes,
        probe,
        sink,
        window,
    } = traced;
    let clip_norm = ExplorerConfig::fast().train.clip_norm;

    let n = (EXPLORERS * spec.cycles) as f64;
    let mut out = Outcome {
        attempted: untraced.outcome.attempted + n as u64,
        failed,
        digest,
        quality: untraced.outcome.quality.clone(),
        ..Outcome::default()
    };
    let totals = sink.totals();
    let hist_ms = |name: &str| totals.hist(name).map_or(0.0, |h| h.sum() as f64 / 1e3);
    let forward_calls = totals.hist("nn.forward_us").map_or(0, |h| h.count());
    let forward_ms = hist_ms("nn.forward_us");
    let cycle_total_ms: f64 = cycle_ms.iter().sum();
    let env_ms = ms(probe.total_ns());
    let unattributed_ms = cycle_total_ms - forward_ms - env_ms;

    out.push("learn.explore_cycles_per_s", n / untraced.cycles_s, "1/s");
    let valid = untraced.checked.valid;
    out.push("learn.valid_design_fraction", valid as f64 / n, "ratio");
    if valid > 0 {
        out.push(
            "learn.s_per_valid_design",
            untraced.window.wall_s / valid as f64,
            "s",
        );
    }
    out.push("learn.cycle_ms.p50", percentile(&cycle_ms, 50.0), "ms");
    out.push("learn.cycle_ms.p95", percentile(&cycle_ms, 95.0), "ms");
    let steps: usize = designs.iter().map(|d| d.steps).sum();
    out.push("learn.steps_per_cycle", steps as f64 / n, "count");
    out.push("nn.forward_ms_per_cycle", forward_ms / n, "ms");
    out.push(
        "nn.forward_calls_per_cycle",
        forward_calls as f64 / n,
        "count",
    );
    if let Some(h) = totals.hist("nn.forward_batch") {
        out.push("nn.forward_batch_mean", h.mean(), "count");
    }
    out.push("nn.gemm_ms_per_cycle", hist_ms("nn.gemm_us") / n, "ms");
    out.push("nn.conv_ms_per_cycle", hist_ms("nn.conv_us") / n, "ms");
    out.push("env.ms_per_cycle", env_ms / n, "ms");
    out.push("env.apply_ms", ms(probe.ns(Op::Apply)) / n, "ms");
    out.push(
        "env.state_tensor_ms",
        ms(probe.ns(Op::StateTensor)) / n,
        "ms",
    );
    out.push(
        "env.legal_actions_ms",
        ms(probe.ns(Op::LegalActions)) / n,
        "ms",
    );
    out.push(
        "env.greedy_action_ms",
        ms(probe.ns(Op::GreedyAction)) / n,
        "ms",
    );
    out.push(
        "env.completion_action_ms",
        ms(probe.ns(Op::CompletionAction)) / n,
        "ms",
    );
    let applies = probe.applies.get().max(1) as f64;
    out.push(
        "env.apply.penalized_ratio",
        probe.penalized.get() as f64 / applies,
        "ratio",
    );
    out.push("cache.hit_ratio", cache.hit_rate(), "ratio");
    out.push(
        "cache.lookups_per_cycle",
        (cache.hits + cache.misses) as f64 / n,
        "count",
    );
    out.push("mcts.nodes", tree_nodes as f64, "count");
    out.push("learn.unattributed_ms_per_cycle", unattributed_ms / n, "ms");
    out.push(
        "learn.unattributed_share",
        unattributed_ms / cycle_total_ms,
        "ratio",
    );
    let grad_mean = train.iter().map(|t| f64::from(t.grad_norm)).sum::<f64>() / n;
    let clipped = train.iter().filter(|t| t.grad_norm > clip_norm).count();
    out.push("train.grad_norm_mean", grad_mean, "norm");
    out.push("train.clip_ratio_mean", clipped as f64 / n, "ratio");
    if let Some(u) = untraced.window.cpu_util() {
        out.push("proc.cpu_util", u, "cores");
    }
    if let Some(s) = untraced.window.sys_share() {
        out.push("proc.sys_share", s, "ratio");
    }
    out.push(
        "trace.overhead_pct",
        100.0 * (window.wall_s - untraced.window.wall_s) / untraced.window.wall_s,
        "%",
    );
    out.push(
        "trace.unattributed_pct",
        100.0 * unattributed_ms / cycle_total_ms,
        "%",
    );
    out
}
