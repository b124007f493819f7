//! The parallel validation engine must be a pure performance knob: at any
//! worker count the pipeline produces the same transformed modules, the
//! same step records, and the same measurement metrics. Scheduling may
//! only show up in wall-clock timers and the schedule-scoped worker count
//! (`pipeline.jobs`), which `Snapshot::deterministic` excludes.

use crellvm::gen::{corpus, generate_module, FeatureMix, GenConfig};
use crellvm::ir::printer::print_module;
use crellvm::ir::Module;
use crellvm::passes::{
    run_pipeline_parallel, ParallelOptions, PassConfig, PipelineReport, ProofFormat,
};
use crellvm::telemetry::{Snapshot, Telemetry};

/// A small slice of the paper-shaped generated corpus plus a few
/// free-standing modules with CSmith-style feature mix.
fn test_corpus() -> Vec<Module> {
    let mut modules: Vec<Module> = corpus(0.002, 9)
        .into_iter()
        .take(6)
        .flat_map(|(_, ms)| ms)
        .collect();
    for seed in [11, 12, 13] {
        modules.push(generate_module(&GenConfig {
            seed,
            functions: 5,
            feature_mix: FeatureMix::Csmith,
            ..GenConfig::default()
        }));
    }
    modules
}

fn run_with(
    modules: &[Module],
    jobs: usize,
    format: ProofFormat,
) -> (Vec<String>, PipelineReport, Snapshot) {
    let tel = Telemetry::disabled();
    let opts = ParallelOptions {
        jobs,
        format,
        ..ParallelOptions::default()
    };
    let mut merged = PipelineReport::default();
    let mut outputs = Vec::with_capacity(modules.len());
    for m in modules {
        let (out, report) = run_pipeline_parallel(m, &PassConfig::default(), &opts, &tel);
        merged.merge(report);
        outputs.push(print_module(&out));
    }
    (outputs, merged, tel.registry().snapshot())
}

fn run_at(modules: &[Module], jobs: usize) -> (Vec<String>, PipelineReport, Snapshot) {
    run_with(modules, jobs, ProofFormat::Json)
}

#[test]
fn pipeline_observables_identical_at_1_2_and_8_threads() {
    let modules = test_corpus();
    let (out1, rep1, snap1) = run_at(&modules, 1);
    assert!(rep1.validations() > 0, "corpus produced no validations");

    for jobs in [2, 8] {
        let (out, rep, snap) = run_at(&modules, jobs);

        // Output modules are byte-identical.
        assert_eq!(out1, out, "transformed modules differ at jobs={jobs}");

        // Pipeline reports agree step for step, in function order.
        assert_eq!(rep1.steps.len(), rep.steps.len());
        for (a, b) in rep1.steps.iter().zip(&rep.steps) {
            assert_eq!(a.pass, b.pass, "pass order differs at jobs={jobs}");
            assert_eq!(a.func, b.func, "function order differs at jobs={jobs}");
            assert_eq!(a.outcome, b.outcome, "verdict differs at jobs={jobs}");
            assert_eq!(a.proof_bytes, b.proof_bytes);
        }
        assert_eq!(rep1.validations(), rep.validations());
        assert_eq!(rep1.failures(), rep.failures());
        assert_eq!(rep1.not_supported(), rep.not_supported());

        // Metrics snapshots agree on every measurement metric.
        assert_eq!(
            snap1.deterministic(),
            snap.deterministic(),
            "measurement metrics differ at jobs={jobs}"
        );
    }
}

#[test]
fn schedule_scoped_metrics_are_the_only_difference() {
    // One module: `pipeline.jobs` accumulates once per pipeline run, so a
    // single run keeps the counter equal to the requested worker count.
    let modules = &test_corpus()[..1];
    let (_, _, snap1) = run_at(modules, 1);
    let (_, _, snap8) = run_at(modules, 8);

    // The raw snapshots DO differ in the schedule-scoped worker count.
    assert_eq!(snap1.counters.get("pipeline.jobs"), Some(&1));
    assert_eq!(snap8.counters.get("pipeline.jobs"), Some(&8));

    // Scrubbing exactly those plus the timers makes them equal.
    assert_eq!(snap1.deterministic(), snap8.deterministic());
}

#[test]
fn determinism_holds_with_the_default_v2_wire_format() {
    // The default on-the-wire format is binary v2 (dictionary-coded
    // string table); the engine must stay a pure performance knob there
    // too, and v2 must report strictly smaller proofs than JSON. The
    // byte totals of both formats are pinned exactly.
    let modules = &test_corpus()[..3];
    let (out1, rep1, snap1) = run_with(modules, 1, ProofFormat::default());
    let (out8, rep8, snap8) = run_with(modules, 8, ProofFormat::default());
    assert_eq!(out1, out8);
    assert_eq!(snap1.deterministic(), snap8.deterministic());
    assert!(snap1.counters.get("io.bytes.v2").copied().unwrap_or(0) > 0);

    let (_, repj, _) = run_with(modules, 1, ProofFormat::Json);
    let v2_bytes: usize = rep1.steps.iter().map(|s| s.proof_bytes).sum();
    let json_bytes: usize = repj.steps.iter().map(|s| s.proof_bytes).sum();
    assert!(
        v2_bytes < json_bytes,
        "v2 ({v2_bytes}) not smaller than JSON ({json_bytes})"
    );
    assert_eq!(rep1.steps.len(), rep8.steps.len());
    assert_eq!(
        (rep1.steps.len(), json_bytes, v2_bytes),
        (36, 310_690, 24_954),
        "(steps, JSON bytes, v2 bytes) moved: a change that moves them \
         re-pins them here and says so in CHANGES.md"
    );
}
