//! Randomized end-to-end testing: generated programs go through the full
//! validated pipeline; every proof must check, and the optimized program
//! must refine the original under the reference interpreter.
//!
//! This is the CSmith-style experiment of the paper's §7 in miniature
//! (the full 1000-program run lives in the benchmark harness).

use crellvm::gen::{generate_module, FeatureMix, GenConfig};
use crellvm::interp::{check_refinement, run_main, RunConfig, UndefPolicy};
use crellvm::ir::{verify_module, Module};
use crellvm::passes::{
    run_pipeline_parallel, ParallelOptions, PassConfig, PipelineReport, ProofFormat, StepOutcome,
};
use crellvm::telemetry::Telemetry;

/// The validated pipeline on one worker, with the paper's JSON proofs.
fn one_worker(m: &Module) -> (Module, PipelineReport) {
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        ..ParallelOptions::default()
    };
    run_pipeline_parallel(m, &PassConfig::default(), &opts, &Telemetry::disabled())
}

fn exercise(seed: u64, unsupported_rate: f64, mix: FeatureMix) {
    let cfg = GenConfig {
        seed,
        functions: 4,
        unsupported_rate,
        feature_mix: mix,
        ..GenConfig::default()
    };
    let m = generate_module(&cfg);
    verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: generated module invalid: {e}"));

    let (out, report) = one_worker(&m);
    verify_module(&out)
        .unwrap_or_else(|e| panic!("seed {seed}: optimized module invalid: {e}\n{out}"));

    for step in &report.steps {
        if let StepOutcome::Failed(reason) = &step.outcome {
            panic!(
                "seed {seed}: validation failed for @{} in {}: {reason}\n--- source ---\n{}\n--- optimized ---\n{}",
                step.func,
                step.pass,
                m,
                out
            );
        }
    }

    // Differential execution under two undef policies.
    for policy in [UndefPolicy::Zero, UndefPolicy::Seeded(seed ^ 0xABCD)] {
        let rc = RunConfig {
            undef: policy,
            ..RunConfig::default()
        };
        let src_run = run_main(&m, &rc);
        let tgt_run = run_main(&out, &rc);
        check_refinement(&src_run, &tgt_run).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: behaviour NOT preserved ({e})\n--- source ---\n{m}\n--- optimized ---\n{out}"
            )
        });
    }
}

#[test]
fn random_programs_validate_and_refine() {
    for seed in 0..40 {
        exercise(seed, 0.0, FeatureMix::Benchmarks);
    }
}

#[test]
fn random_programs_with_unsupported_features() {
    for seed in 100..120 {
        exercise(seed, 0.3, FeatureMix::Benchmarks);
    }
}

#[test]
fn random_programs_csmith_mix() {
    for seed in 200..215 {
        exercise(seed, 0.28, FeatureMix::Csmith);
    }
}

#[test]
fn unsupported_rate_produces_ns_only_in_affected_passes() {
    // CSmith mix (lifetime intrinsics): NS must show up for mem2reg only.
    let cfg = GenConfig {
        seed: 9,
        functions: 20,
        unsupported_rate: 1.0,
        feature_mix: FeatureMix::Csmith,
        ..GenConfig::default()
    };
    let m = generate_module(&cfg);
    let (_, report) = one_worker(&m);
    let ns_passes: std::collections::HashSet<&str> = report
        .steps
        .iter()
        .filter(|s| matches!(s.outcome, StepOutcome::NotSupported(_)))
        .map(|s| s.pass.as_str())
        .collect();
    assert!(ns_passes.contains("mem2reg"));
    assert!(
        !ns_passes.contains("gvn"),
        "lifetime intrinsics only block mem2reg"
    );
    assert_eq!(report.failures(), 0);
}
