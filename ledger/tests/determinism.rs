//! Short runs of every workload: the same seed repeats every output
//! exactly, another seed changes the trajectory, and the traced run
//! produces the untraced run's results. The metric lists match
//! `BENCHMARK.json`.

use rlnoc_ledger::learn::{self, LearnSpec};
use rlnoc_ledger::parsec::{self, ParsecSpec};
use rlnoc_ledger::sweep::{self, SweepSpec};
use rlnoc_ledger::{Outcome, END_TO_END, PER_LAYER};

/// A seed whose short learner run finds a valid design.
const LEARN_SEED: u64 = 7;

fn learn_spec() -> LearnSpec {
    LearnSpec {
        cycles: 4,
        rounds: 2,
        setup_reps: 1,
    }
}

fn sweep_spec() -> SweepSpec {
    SweepSpec {
        side: 4,
        cap: 6,
        cycles: (100, 300, 300),
        step: 0.1,
        rounds: 2,
        setup_reps: 1,
        synth_reps: 1,
    }
}

fn parsec_spec() -> ParsecSpec {
    ParsecSpec {
        side: 4,
        cap: 6,
        cycles: (100, 600, 300),
        rounds: 2,
        setup_reps: 1,
        synth_reps: 1,
    }
}

/// Asserts that two runs of one seed agree on everything but timings.
fn assert_same_results(a: &Outcome, b: &Outcome) {
    assert_eq!(a.digest, b.digest, "trajectory digest");
    assert_eq!(a.quality, b.quality, "quality figures");
}

fn assert_clean(o: &Outcome) {
    assert!(o.attempted > 0);
    assert_eq!(o.failed, 0, "failed operations in {o:?}");
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

/// The end-to-end metrics a workload measures itself: all but the
/// process's peak RSS, which the binary reads at exit.
fn own_end_to_end() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .map(|&(name, _)| name)
        .filter(|&name| name != "peak_rss_mb")
}

fn check_workload(run: impl Fn(u64) -> Outcome, trace: impl Fn(u64) -> Outcome, seed: u64) {
    let first = run(seed);
    assert_clean(&first);
    let again = run(seed);
    assert_same_results(&first, &again);
    assert_eq!(first.attempted, again.attempted);
    assert_ne!(
        first.digest,
        run(seed + 1).digest,
        "another seed, same trajectory"
    );
    for name in own_end_to_end() {
        let v = first
            .metric(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(v > 0.0, "{name} = {v}");
    }

    let traced = trace(seed);
    assert_clean(&traced);
    assert_same_results(&first, &traced);
    assert!(
        traced.attempted > first.attempted,
        "a traced run counts its untraced and its traced operations"
    );
    for name in ["trace.overhead_pct", "trace.unattributed_pct"] {
        assert!(traced.metric(name).is_some(), "{name} missing");
    }
    assert!(
        own_end_to_end().all(|name| traced.metric(name).is_none()),
        "a traced run reports per-layer metrics only"
    );
    let listed = traced.listed(true).expect("units match the list");
    assert_eq!(listed.len(), PER_LAYER.len());
}

#[test]
fn learn_repeats_per_seed_and_traced_run_matches() {
    let spec = learn_spec();
    check_workload(
        |seed| learn::run(&spec, seed),
        |seed| learn::trace(&spec, seed),
        LEARN_SEED,
    );
}

#[test]
fn sweep_repeats_per_seed_and_traced_run_matches() {
    let spec = sweep_spec();
    check_workload(
        |seed| sweep::run(&spec, seed),
        |seed| sweep::trace(&spec, seed),
        7,
    );
}

#[test]
fn parsec_repeats_per_seed_and_traced_run_matches() {
    let spec = parsec_spec();
    check_workload(
        |seed| parsec::run(&spec, seed),
        |seed| parsec::trace(&spec, seed),
        7,
    );
}

/// `BENCHMARK.json` lists exactly the metrics the benchmark prints, with
/// the same units.
#[test]
fn manifest_lists_the_printed_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits next to the benchmark's directory");
    let compact: String = manifest.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "{name} ({unit}) not listed");
    }
    let units = compact.matches("\"unit\":").count();
    assert_eq!(
        units,
        END_TO_END.len() + PER_LAYER.len(),
        "unlisted metric in BENCHMARK.json"
    );
}
