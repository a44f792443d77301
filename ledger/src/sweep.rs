//! `sweep-10x10`: the figure-10 pipeline at the paper's size.
//!
//! Synthesizes the DRL design with the harness's default arm, builds REC,
//! then sweeps Mesh-2, REC and DRL over uniform-random and tornado
//! traffic with figure 10's `SimConfig` and `SweepParams`, on the serial
//! sweep engine. Mesh-2 takes most of the sweep and the points run from
//! low load to saturation; no neural network runs.

use crate::fabric::FabricProbe;
use crate::{fastest, fastest_s, fastest_units, host, ms, rounds, synth, Digest, Outcome};
use rlnoc_baselines::rec_topology;
use rlnoc_sim::reference::{ReferenceMeshSim, ReferenceRouterlessSim};
use rlnoc_sim::sweep::{point_seed, SweepEngine, SweepJob, SweepParams, SweepPoint, SweepResult};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, MeshSim, Metrics, Network, RouterlessSim, SimConfig};
use rlnoc_topology::{Grid, Topology};
use std::hint::black_box;

/// The fixed amount of sweep work one run does.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Grid side.
    pub side: usize,
    /// Node-overlap cap of the DRL design.
    pub cap: u32,
    /// Warm-up, measured and drain cycles of every point.
    pub cycles: (u64, u64, u64),
    /// Injection-rate step (flits/node/cycle).
    pub step: f64,
    /// Timed passes of the whole sweep; `sim.wall_s` sums each job's fastest
    /// time across passes.
    pub rounds: usize,
    /// Fabric constructions timed before each job; `setup_s` is the
    /// fastest.
    pub setup_reps: usize,
    /// Syntheses timed before each job; `synth.wall_s` is the fastest.
    pub synth_reps: usize,
}

impl SweepSpec {
    /// The `sweep-10x10` workload: figure 10's configuration.
    pub fn full() -> Self {
        SweepSpec {
            side: 10,
            cap: 18,
            cycles: (500, 3_000, 2_000),
            step: 0.02,
            rounds: 3,
            setup_reps: 3,
            synth_reps: 1,
        }
    }

    fn grid(&self) -> Grid {
        Grid::square(self.side).expect("benchmark grid sides are valid")
    }

    fn config(&self, base: SimConfig) -> SimConfig {
        let (warmup, measure, drain) = self.cycles;
        SimConfig {
            warmup,
            measure,
            drain,
            ..base
        }
    }

    fn params(&self, seed: u64) -> SweepParams {
        SweepParams {
            start: 0.005,
            step: self.step,
            max_rate: 1.0,
            latency_factor: 4.0,
            seed,
        }
    }
}

/// Traffic patterns swept, as in figure 10.
const PATTERNS: [Pattern; 2] = [Pattern::UniformRandom, Pattern::Tornado];

/// Point indices of every curve re-run on the reference kernels.
const VERIFY: [usize; 2] = [0, 2];

/// The fabrics swept, in job order within each pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    Mesh2,
    Rec,
    Drl,
}

const FABRICS: [Fabric; 3] = [Fabric::Mesh2, Fabric::Rec, Fabric::Drl];

/// One sweep job per (pattern, fabric), built from the three factories.
fn jobs<'a, A, B, C>(
    spec: &SweepSpec,
    seed: u64,
    mesh2: impl Fn() -> A + Clone + Send + Sync + 'a,
    rec: impl Fn() -> B + Clone + Send + Sync + 'a,
    drl: impl Fn() -> C + Clone + Send + Sync + 'a,
) -> Vec<SweepJob<'a>>
where
    A: Network + 'a,
    B: Network + 'a,
    C: Network + 'a,
{
    let mesh_cfg = spec.config(SimConfig::mesh());
    let rl_cfg = spec.config(SimConfig::routerless());
    let params = spec.params(seed);
    let mut out = Vec::new();
    for pattern in PATTERNS {
        let label = |f: &str| format!("{pattern:?}/{f}");
        out.push(SweepJob::new(
            label("Mesh-2"),
            pattern,
            mesh_cfg.clone(),
            params,
            mesh2.clone(),
        ));
        out.push(SweepJob::new(
            label("REC"),
            pattern,
            rl_cfg.clone(),
            params,
            rec.clone(),
        ));
        out.push(SweepJob::new(
            label("DRL"),
            pattern,
            rl_cfg.clone(),
            params,
            drl.clone(),
        ));
    }
    out
}

/// What `evaluate_point` in the sweep engine derives from a run.
fn point_of(rate: f64, m: &Metrics) -> SweepPoint {
    SweepPoint {
        rate,
        latency: m.avg_packet_latency(),
        accepted: m.accepted_throughput(),
        delivery_ratio: m.delivery_ratio(),
        p50: m.p50_latency(),
        p95: m.p95_latency(),
        p99: m.p99_latency(),
    }
}

/// One sweep point of `job`, as the sweep engine runs it.
fn rerun<N: Network>(mut net: N, job: &SweepJob<'_>, rate: f64) -> Metrics {
    let seed = point_seed(job.params.seed, job.pattern, rate);
    run_synthetic(&mut net, job.pattern, rate, &job.cfg, seed)
}

/// Re-runs the fixed subset of every curve's points on the
/// optimized kernel and on the seed reference kernel; a point fails
/// unless both give bit-identical `Metrics` matching the swept point.
fn verify(
    spec: &SweepSpec,
    rec: &Topology,
    drl: &Topology,
    jobs: &[SweepJob<'_>],
    results: &[SweepResult],
) -> u64 {
    let grid = spec.grid();
    let mut failed = 0;
    for (j, (job, result)) in jobs.iter().zip(results).enumerate() {
        let fabric = FABRICS[j % FABRICS.len()];
        for i in VERIFY {
            let Some(point) = result.points.get(i) else {
                continue;
            };
            let rate = point.rate;
            let (optimized, reference) = match fabric {
                Fabric::Mesh2 => (
                    rerun(MeshSim::mesh2(grid), job, rate),
                    rerun(ReferenceMeshSim::mesh2(grid), job, rate),
                ),
                Fabric::Rec => (
                    rerun(RouterlessSim::new(rec), job, rate),
                    rerun(ReferenceRouterlessSim::new(rec), job, rate),
                ),
                Fabric::Drl => (
                    rerun(RouterlessSim::new(drl), job, rate),
                    rerun(ReferenceRouterlessSim::new(drl), job, rate),
                ),
            };
            if optimized != reference || point_of(rate, &optimized) != *point {
                failed += 1;
            }
        }
    }
    failed
}

/// Points that differ between two sweeps of the same jobs.
fn differing_points(a: &[SweepResult], b: &[SweepResult]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let differing = x
                .points
                .iter()
                .zip(&y.points)
                .filter(|(p, q)| p != q)
                .count();
            (differing + x.points.len().abs_diff(y.points.len())) as u64
        })
        .sum()
}

fn digest(drl: &Topology, results: &[SweepResult]) -> u64 {
    let mut d = Digest::default();
    for l in drl.loops() {
        let (x1, y1, x2, y2, dir) = l.encode();
        for w in [x1, y1, x2, y2, usize::from(dir)] {
            d.word(w as u64);
        }
    }
    for r in results {
        d.word(r.points.len() as u64);
        for p in &r.points {
            for x in [p.rate, p.latency, p.accepted, p.delivery_ratio] {
                d.float(x);
            }
            for x in [p.p50, p.p95, p.p99] {
                d.word(x);
            }
        }
        d.float(r.saturation);
        d.float(r.zero_load_latency);
    }
    d.value()
}

struct Untraced {
    outcome: Outcome,
    rec: Topology,
    drl: Topology,
    results: Vec<SweepResult>,
    /// The fastest whole pass, for the tracing overhead.
    pass_s: f64,
    /// The fastest synthesis.
    synth_s: f64,
    /// The sum of each job's fastest time.
    sim_s: f64,
}

fn run_untraced(spec: &SweepSpec, seed: u64) -> Untraced {
    let grid = spec.grid();
    let drl = synth::synthesize(grid, spec.cap, seed);
    let rec = rec_topology(grid).expect("REC exists for every grid of side >= 2");
    let jobs = jobs(
        spec,
        seed,
        move || MeshSim::mesh2(grid),
        || RouterlessSim::new(&rec),
        || RouterlessSim::new(&drl),
    );
    // One unit per job of each pass, each after its set-up and synthesis
    // repetitions, so those samples spread evenly over the run.
    let mut next = 0;
    let samples = rounds(
        spec.rounds * jobs.len(),
        (spec.setup_reps, &mut || {
            let rec = rec_topology(grid).expect("REC exists for every grid of side >= 2");
            black_box((
                MeshSim::mesh2(grid),
                RouterlessSim::new(&rec),
                RouterlessSim::new(&drl),
            ));
        }),
        (spec.synth_reps, &mut || {
            black_box(synth::synthesize(grid, spec.cap, seed));
        }),
        &mut || {
            let job = &jobs[next % jobs.len()];
            next += 1;
            host::window(|| SweepEngine::serial().sweep_many(std::slice::from_ref(job)))
        },
    );
    // Consecutive runs of `jobs.len()` units make up one pass.
    let job_s: Vec<f64> = samples.passes.iter().map(|(_, w)| w.wall_s).collect();
    let pass_job_s = || job_s.chunks(jobs.len());
    let sim_s = fastest_units(pass_job_s());
    let pass_s = fastest(pass_job_s().map(|p| p.iter().sum::<f64>()), |&s| s);
    let mut passes: Vec<Vec<SweepResult>> = samples
        .passes
        .chunks(jobs.len())
        .map(|pass| pass.iter().flat_map(|(r, _)| r.iter().cloned()).collect())
        .collect();
    let results = passes.swap_remove(0);
    let mut failed = verify(spec, &rec, &drl, &jobs, &results);
    drop(jobs);
    // Every pass must repeat the first exactly.
    for other in &passes {
        failed += differing_points(other, &results);
    }

    let best_hops = drl.average_hops();
    let mut outcome = Outcome {
        attempted: spec.rounds as u64 * results.iter().map(|r| r.points.len() as u64).sum::<u64>(),
        failed,
        digest: digest(&drl, &results),
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
        results,
        pass_s,
        synth_s,
        sim_s,
    }
}

/// Runs `sweep-10x10` untraced and reports its end-to-end metrics.
pub fn run(spec: &SweepSpec, seed: u64) -> Outcome {
    run_untraced(spec, seed).outcome
}

/// Runs `sweep-10x10` untraced, then calls each synthesis arm directly
/// and repeats the sweep passes with every fabric wrapped in a
/// [`FabricProbe`]; reports the per-layer metrics of the fastest traced
/// pass. The per-arm synthesis and every traced point are operations too;
/// a design or point that differs from the untraced run's fails.
pub fn trace(spec: &SweepSpec, seed: u64) -> Outcome {
    let grid = spec.grid();
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

    let (rec, drl) = (&untraced.rec, &untraced.drl);
    let mut pass = || {
        host::window(|| {
            let probes = [
                FabricProbe::new("sim.mesh2"),
                FabricProbe::new("sim.rec"),
                FabricProbe::new("sim.drl"),
            ];
            let [p_mesh, p_rec, p_drl] = &probes;
            let jobs = jobs(
                spec,
                seed,
                move || p_mesh.build(|| MeshSim::mesh2(grid)),
                move || p_rec.build(|| RouterlessSim::new(rec)),
                move || p_drl.build(|| RouterlessSim::new(drl)),
            );
            let results = SweepEngine::serial().sweep_many(&jobs);
            drop(jobs);
            (results, probes)
        })
    };
    let passes = rounds(spec.rounds, (0, &mut || {}), (0, &mut || {}), &mut pass).passes;
    for ((results, _), _) in &passes {
        out.attempted += results.iter().map(|r| r.points.len() as u64).sum::<u64>();
        out.failed += differing_points(results, &untraced.results);
    }
    let ((results, probes), window) = fastest(passes, |p| p.1.wall_s);

    out.digest = digest(drl, &results);
    for p in &probes {
        p.report(&mut out);
    }
    let evaluated: u64 = probes.iter().map(FabricProbe::builds).sum();
    let consumed: u64 = results.iter().map(|r| r.points.len() as u64).sum();
    out.push("sweep.points_evaluated", evaluated as f64, "count");
    out.push(
        "sweep.useful_ratio",
        consumed as f64 / evaluated.max(1) as f64,
        "ratio",
    );
    let busy_ms: f64 = probes.iter().map(|p| ms(p.busy_ns())).sum();
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
