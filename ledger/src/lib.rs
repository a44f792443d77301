//! Fixed-work benchmark of the rlnoc learner and simulator.
//!
//! Three closed-loop batch workloads ([`learn`], [`sweep`], [`parsec`])
//! each run a fixed, seeded amount of work, check their outputs, and
//! report end-to-end metrics; a traced run of the same workload and seed
//! reports per-layer metrics from wrappers the benchmark owns. See
//! `README.md` in this directory for the workloads, the metric → layer
//! table and how to run it.

pub mod fabric;
pub mod host;
pub mod learn;
pub mod parsec;
pub mod sweep;
pub mod synth;

use std::time::Instant;

/// The end-to-end metrics, as `(name, unit)`: every untraced run
/// reports each of them, in this order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("best_avg_hops", "hops"),
    ("work_s", "s"),
];

/// The per-layer metrics, as `(name, unit)`: every traced run reports
/// each of them, in this order, with 0 for a layer its workload does
/// not run.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("learn.explore_cycles_per_s", "1/s"),
    ("learn.valid_design_fraction", "ratio"),
    ("learn.s_per_valid_design", "s"),
    ("learn.cycle_ms.p50", "ms"),
    ("learn.cycle_ms.p95", "ms"),
    ("learn.steps_per_cycle", "count"),
    ("nn.forward_ms_per_cycle", "ms"),
    ("nn.forward_calls_per_cycle", "count"),
    ("nn.forward_batch_mean", "count"),
    ("nn.gemm_ms_per_cycle", "ms"),
    ("nn.conv_ms_per_cycle", "ms"),
    ("env.ms_per_cycle", "ms"),
    ("env.apply_ms", "ms"),
    ("env.state_tensor_ms", "ms"),
    ("env.legal_actions_ms", "ms"),
    ("env.greedy_action_ms", "ms"),
    ("env.completion_action_ms", "ms"),
    ("env.apply.penalized_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups_per_cycle", "count"),
    ("mcts.nodes", "count"),
    ("learn.unattributed_ms_per_cycle", "ms"),
    ("learn.unattributed_share", "ratio"),
    ("train.grad_norm_mean", "norm"),
    ("train.clip_ratio_mean", "ratio"),
    ("proc.cpu_util", "cores"),
    ("proc.sys_share", "ratio"),
    ("synth.wall_s", "s"),
    ("synth.greedy_ms", "ms"),
    ("synth.skeleton_ms", "ms"),
    ("synth.arm", "index"),
    ("synth.loops", "count"),
    ("sim.wall_s", "s"),
    ("sim.mesh2.ns_per_node_cycle", "ns"),
    ("sim.mesh2.tick_ms", "ms"),
    ("sim.mesh2.offer_ms", "ms"),
    ("sim.mesh2.drain_ms", "ms"),
    ("sim.mesh2.build_ms", "ms"),
    ("sim.mesh2.node_cycles", "count"),
    ("sim.mesh2.packets_delivered", "count"),
    ("sim.rec.ns_per_node_cycle", "ns"),
    ("sim.rec.tick_ms", "ms"),
    ("sim.rec.offer_ms", "ms"),
    ("sim.rec.drain_ms", "ms"),
    ("sim.rec.build_ms", "ms"),
    ("sim.rec.node_cycles", "count"),
    ("sim.rec.packets_delivered", "count"),
    ("sim.drl.ns_per_node_cycle", "ns"),
    ("sim.drl.tick_ms", "ms"),
    ("sim.drl.offer_ms", "ms"),
    ("sim.drl.drain_ms", "ms"),
    ("sim.drl.build_ms", "ms"),
    ("sim.drl.node_cycles", "count"),
    ("sim.drl.packets_delivered", "count"),
    ("app.generate_ms", "ms"),
    ("app.packets_offered", "count"),
    ("sweep.points_evaluated", "count"),
    ("sweep.useful_ratio", "ratio"),
    ("sim.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("host.steal_share", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: learner cycles, sweep points or app runs.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Digest of every deterministic output: designs, training
    /// statistics and simulated statistics. Equal seeds give equal
    /// digests.
    pub digest: u64,
    /// The run's exactly repeatable quality figures.
    pub quality: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The listed metrics of this run, in list order: [`PER_LAYER`] for
    /// a traced run, [`END_TO_END`] otherwise. A per-layer metric the run
    /// did not measure reads 0; a missing end-to-end metric, or a unit
    /// that differs from the list's, is an error.
    pub fn listed(&self, traced: bool) -> Result<Vec<Metric>, String> {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(
                |&(name, unit)| match self.metrics.iter().find(|m| m.name == name) {
                    Some(m) if m.unit != unit => {
                        Err(format!("{name} is in {}, not {unit}", m.unit))
                    }
                    Some(m) => Ok(m.clone()),
                    None if traced => Ok(Metric {
                        name: name.into(),
                        value: 0.0,
                        unit,
                    }),
                    None => Err(format!("{name} was not measured")),
                },
            )
            .collect()
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The `p`-th percentile (0–100) of `values`, nearest-rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Timing samples of one run, taken in rounds.
#[derive(Debug)]
pub struct Rounds<R> {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per synthesis repetition (empty when there is none).
    pub synth_s: Vec<f64>,
    /// Each timed unit's result and window.
    pub passes: Vec<(R, host::Window)>,
}

/// Runs `rounds` rounds, each timing the given number of set-ups and
/// syntheses (either may be zero) and then one timed unit of the fixed
/// work: a whole pass, or one part of a pass.
///
/// Interleaving spreads every statistic over the whole run: on a shared
/// host, neighbours slow a core in phases lasting seconds, and samples
/// taken back to back would all land in one phase.
pub fn rounds<R>(
    rounds: usize,
    setup: (usize, &mut dyn FnMut()),
    synth: (usize, &mut dyn FnMut()),
    pass: &mut dyn FnMut() -> (R, host::Window),
) -> Rounds<R> {
    let (setup_reps, setup) = setup;
    let (synth_reps, synth) = synth;
    assert!(rounds >= 1, "at least one timed unit");
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut out = Rounds {
        setup_s: Vec::with_capacity(rounds * setup_reps),
        synth_s: Vec::with_capacity(rounds * synth_reps),
        passes: Vec::with_capacity(rounds),
    };
    for _ in 0..rounds {
        for _ in 0..setup_reps {
            out.setup_s.push(time(setup));
        }
        for _ in 0..synth_reps {
            out.synth_s.push(time(synth));
        }
        out.passes.push(pass());
    }
    out
}

/// The fastest of several repetitions of identical work, `secs` giving
/// each one's time.
///
/// On a shared host a repetition runs slower whenever a neighbour loads
/// the same cores, in phases lasting seconds, and never faster than the
/// work allows; the fastest one is the least disturbed, and it repeats
/// from run to run where a median of repetitions does not.
pub fn fastest<T>(reps: impl IntoIterator<Item = T>, secs: impl Fn(&T) -> f64) -> T {
    reps.into_iter()
        .min_by(|a, b| secs(a).total_cmp(&secs(b)))
        .expect("at least one repetition")
}

/// The fastest of `samples`, in seconds (see [`fastest`]).
pub fn fastest_s(samples: &[f64]) -> f64 {
    fastest(samples.iter().copied(), |&s| s)
}

/// The sum over the units of a pass (a sweep job, a learner
/// cycle) of each unit's fastest time across passes.
///
/// Every pass repeats each unit exactly, so a unit's fastest time is its
/// least disturbed one; summing per unit lets short undisturbed stretches
/// count even when no whole pass was undisturbed.
pub fn fastest_units<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for units in passes {
        if best.is_empty() {
            best = units.to_vec();
        }
        for (b, &u) in best.iter_mut().zip(units) {
            *b = b.min(u);
        }
    }
    best.iter().sum()
}

/// FNV-1a over 64-bit words: a stable digest of a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a float's exact bit pattern into the digest.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes a string into the digest.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Milliseconds in a duration measured in nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
