//! Wide randomized sweeps of the full validated pipeline.
//!
//! Every generated program must (a) validate at every pass and (b) refine
//! its source under the reference interpreter. A larger sweep is behind
//! `--ignored` (run with `cargo test --release --test stress -- --ignored`).

use crellvm::gen::{generate_module, FeatureMix, GenConfig};
use crellvm::interp::{check_refinement, run_main, RunConfig, UndefPolicy};
use crellvm::passes::{
    run_pipeline_parallel, ParallelOptions, PassConfig, ProofFormat, StepOutcome,
};
use crellvm::telemetry::Telemetry;

fn sweep(range: std::ops::Range<u64>) {
    // One worker, with the paper's JSON proofs.
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        ..ParallelOptions::default()
    };
    let mut fails = Vec::new();
    for seed in range {
        let rate = if seed % 3 == 0 { 0.2 } else { 0.0 };
        let mix = if seed % 2 == 0 {
            FeatureMix::Benchmarks
        } else {
            FeatureMix::Csmith
        };
        let cfg = GenConfig {
            seed,
            functions: 3,
            max_depth: 3,
            chunks: 4,
            unsupported_rate: rate,
            feature_mix: mix,
            ..GenConfig::default()
        };
        let m = generate_module(&cfg);
        let (out, report) =
            run_pipeline_parallel(&m, &PassConfig::default(), &opts, &Telemetry::disabled());
        for step in &report.steps {
            if let StepOutcome::Failed(reason) = &step.outcome {
                fails.push(format!(
                    "seed {seed}: {} @{}: {reason}",
                    step.pass, step.func
                ));
            }
        }
        let rc = RunConfig {
            undef: UndefPolicy::Seeded(seed),
            ..RunConfig::default()
        };
        let (a, b) = (run_main(&m, &rc), run_main(&out, &rc));
        if let Err(e) = check_refinement(&a, &b) {
            fails.push(format!("seed {seed}: refinement violated: {e}"));
        }
    }
    assert!(fails.is_empty(), "{}", fails.join("\n"));
}

#[test]
fn sweep_300_seeds() {
    sweep(1000..1300);
}

#[test]
#[ignore = "long: 2000 seeds; run with --release -- --ignored"]
fn sweep_2000_seeds() {
    sweep(1000..3000);
}
