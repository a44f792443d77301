//! `parsec-8x8`: all seven PARSEC application models through
//! `run_benchmark` with figure 11's warm-up and drain, on the REC and DRL
//! routerless fabrics only.
//!
//! Traffic here is light (0.003–0.019 flits/node/cycle) and bursty
//! request/reply from application-model sources, with no mesh, so the
//! routerless kernel does most of the work — unlike `sweep-10x10`, where
//! Mesh-2 dominates and a routerless slowdown could hide behind a mesh
//! gain.

use crate::fabric::{FabricProbe, TracedSource};
use crate::{fastest, fastest_s, fastest_units, host, ms, rounds, synth, Digest, Outcome};
use rlnoc_baselines::rec_topology;
use rlnoc_sim::reference::ReferenceRouterlessSim;
use rlnoc_sim::sweep::splitmix64;
use rlnoc_sim::{run_with_source, Metrics, RouterlessSim, SimConfig};
use rlnoc_topology::{Grid, Topology};
use rlnoc_workloads::{run_benchmark, AppTrafficGen, Benchmark};
use std::hint::black_box;
use std::time::Instant;

/// The fixed amount of application-traffic work one run does.
#[derive(Debug, Clone, Copy)]
pub struct ParsecSpec {
    /// Grid side.
    pub side: usize,
    /// Node-overlap cap of the DRL design.
    pub cap: u32,
    /// Warm-up, measured and drain cycles of every app run.
    pub cycles: (u64, u64, u64),
    /// Rounds of set-ups, syntheses and one timed pass over all app
    /// runs; `sim.wall_s` sums each app run's fastest time across passes.
    pub rounds: usize,
    /// Fabric constructions timed per round; `setup_s` is the fastest.
    pub setup_reps: usize,
    /// Syntheses timed per round; `synth.wall_s` is the fastest.
    pub synth_reps: usize,
}

impl ParsecSpec {
    /// The `parsec-8x8` workload: figure 11's 8x8 configuration.
    pub fn full() -> Self {
        ParsecSpec {
            side: 8,
            cap: 14,
            cycles: (1_000, 15_000, 4_000),
            rounds: 60,
            setup_reps: 2,
            synth_reps: 1,
        }
    }

    fn grid(&self) -> Grid {
        Grid::square(self.side).expect("benchmark grid sides are valid")
    }

    fn config(&self) -> SimConfig {
        let (warmup, measure, drain) = self.cycles;
        SimConfig {
            warmup,
            measure,
            drain,
            ..SimConfig::routerless()
        }
    }
}

/// The traffic seed of app `i` in a run seeded `seed`.
fn app_seed(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every (app, fabric) run in a fixed order: per app, REC then DRL.
fn runs<'t>(rec: &'t Topology, drl: &'t Topology) -> Vec<(usize, Benchmark, &'t Topology)> {
    Benchmark::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| [(i, b, rec), (i, b, drl)])
        .collect()
}

fn digest(drl: &Topology, metrics: &[Metrics]) -> u64 {
    let mut d = Digest::default();
    for l in drl.loops() {
        d.text(&l.to_string());
    }
    for m in metrics {
        d.text(&format!("{m:?}"));
    }
    d.value()
}

struct Untraced {
    outcome: Outcome,
    rec: Topology,
    drl: Topology,
    metrics: Vec<Metrics>,
    /// The fastest synthesis.
    synth_s: f64,
    /// The sum of each app run's fastest time.
    sim_s: f64,
    /// The fastest whole pass, for the tracing overhead.
    pass_s: f64,
}

fn run_untraced(spec: &ParsecSpec, seed: u64) -> Untraced {
    let grid = spec.grid();
    let cfg = spec.config();
    let drl = synth::synthesize(grid, spec.cap, seed);
    let rec = rec_topology(grid).expect("REC exists for every grid of side >= 2");
    let runs = runs(&rec, &drl);
    // The first pass's results are kept; later passes must repeat them.
    let mut first: Option<Vec<Metrics>> = None;
    let mut failed = 0;
    let samples = rounds(
        spec.rounds,
        (spec.setup_reps, &mut || {
            let rec = rec_topology(grid).expect("REC exists for every grid of side >= 2");
            black_box((RouterlessSim::new(&rec), RouterlessSim::new(&drl)));
        }),
        (spec.synth_reps, &mut || {
            black_box(synth::synthesize(grid, spec.cap, seed));
        }),
        &mut || {
            let mut run_s = Vec::with_capacity(runs.len());
            let (metrics, window) = host::window(|| {
                runs.iter()
                    .map(|&(i, bench, topo)| {
                        let t = Instant::now();
                        let mut net = RouterlessSim::new(topo);
                        let m = run_benchmark(&mut net, bench, &cfg, app_seed(seed, i));
                        run_s.push(t.elapsed().as_secs_f64());
                        m
                    })
                    .collect::<Vec<_>>()
            });
            match &first {
                None => first = Some(metrics),
                Some(f) => failed += f.iter().zip(&metrics).filter(|(a, b)| a != b).count() as u64,
            }
            (run_s, window)
        },
    );
    // Each app run's fastest time, summed (see `fastest_units`).
    let sim_s = fastest_units(samples.passes.iter().map(|p| p.0.as_slice()));
    let pass_s = fastest(samples.passes.iter().map(|p| p.1.wall_s), |&s| s);
    let metrics = first.expect("at least one pass");
    // Every app run again on the seed reference kernel.
    failed += runs
        .iter()
        .zip(&metrics)
        .filter(|(&(i, bench, topo), m)| {
            let reference = run_benchmark(
                &mut ReferenceRouterlessSim::new(topo),
                bench,
                &cfg,
                app_seed(seed, i),
            );
            reference != **m || m.packets == 0
        })
        .count() as u64;

    let best_hops = drl.average_hops();
    let mut outcome = Outcome {
        attempted: (runs.len() * spec.rounds) as u64,
        failed,
        digest: digest(&drl, &metrics),
        ..Outcome::default()
    };
    outcome.quality.push(("best_avg_hops", best_hops));
    let synth_s = fastest_s(&samples.synth_s);
    outcome.push("setup_s", fastest_s(&samples.setup_s), "s");
    outcome.push("best_avg_hops", best_hops, "hops");
    outcome.push("work_s", synth_s + sim_s, "s");
    Untraced {
        outcome,
        rec,
        drl,
        metrics,
        synth_s,
        sim_s,
        pass_s,
    }
}

/// Runs `parsec-8x8` untraced and reports its end-to-end metrics.
pub fn run(spec: &ParsecSpec, seed: u64) -> Outcome {
    run_untraced(spec, seed).outcome
}

/// Runs `parsec-8x8` untraced, then again through `run_with_source` with
/// wrapped fabrics and wrapped `AppTrafficGen` sources; reports the
/// per-layer metrics of the fastest traced pass. The per-arm synthesis
/// and every traced app run are operations too; a design or app run that
/// differs from the untraced run's fails.
pub fn trace(spec: &ParsecSpec, seed: u64) -> Outcome {
    let grid = spec.grid();
    let cfg = spec.config();
    let untraced = run_untraced(spec, seed);
    let mut out = Outcome {
        attempted: untraced.outcome.attempted + 1,
        failed: untraced.outcome.failed,
        digest: 0,
        quality: untraced.outcome.quality.clone(),
        ..Outcome::default()
    };
    out.push("synth.wall_s", untraced.synth_s, "s");
    out.push("sim.wall_s", untraced.sim_s, "s");
    if !synth::trace_arms(grid, spec.cap, seed, &untraced.drl, &mut out) {
        out.failed += 1;
    }

    let runs = runs(&untraced.rec, &untraced.drl);
    let mut pass = || {
        host::window(|| {
            let probes = [FabricProbe::new("sim.rec"), FabricProbe::new("sim.drl")];
            let mut generate_ns = 0;
            let mut packets = 0;
            let metrics: Vec<Metrics> = runs
                .iter()
                .map(|&(i, bench, topo)| {
                    let probe = &probes[usize::from(!std::ptr::eq(topo, &untraced.rec))];
                    let mut net = probe.build(|| RouterlessSim::new(topo));
                    let gen = AppTrafficGen::new(grid, bench.model(), app_seed(seed, i));
                    let mut source = TracedSource::new(gen);
                    let m = run_with_source(&mut net, &mut source, &cfg);
                    generate_ns += source.generate_ns;
                    packets += source.packets;
                    m
                })
                .collect();
            (metrics, probes, generate_ns, packets)
        })
    };
    let passes = rounds(spec.rounds, (0, &mut || {}), (0, &mut || {}), &mut pass).passes;
    for ((metrics, ..), _) in &passes {
        out.attempted += metrics.len() as u64;
        out.failed += metrics
            .iter()
            .zip(&untraced.metrics)
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    let ((metrics, probes, generate_ns, packets), window) = fastest(passes, |p| p.1.wall_s);

    out.digest = digest(&untraced.drl, &metrics);
    for p in &probes {
        p.report(&mut out);
    }
    out.push("app.generate_ms", ms(generate_ns), "ms");
    out.push("app.packets_offered", packets as f64, "count");
    let busy_ms = ms(probes.iter().map(FabricProbe::busy_ns).sum::<u64>() + generate_ns);
    let unattributed_ms = window.wall_s * 1e3 - busy_ms;
    out.push("sim.unattributed_ms", unattributed_ms, "ms");
    out.push(
        "trace.overhead_pct",
        100.0 * (window.wall_s - untraced.pass_s) / untraced.pass_s,
        "%",
    );
    out.push(
        "trace.unattributed_pct",
        100.0 * unattributed_ms / (window.wall_s * 1e3),
        "%",
    );
    out
}
