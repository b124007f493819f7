//! Validate a whole `-O2`-style pipeline over a randomly generated module
//! (the per-program slice of the paper's §7 experiment).
//!
//! ```text
//! cargo run --example pipeline_validate          # seed 42
//! cargo run --example pipeline_validate -- 1234  # custom seed
//! ```

use crellvm::gen::{generate_module, GenConfig};
use crellvm::interp::{check_refinement, run_main, RunConfig};
use crellvm::passes::{
    run_pipeline_parallel, ParallelOptions, PassConfig, ProofFormat, StepOutcome,
};
use crellvm::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(42);
    let cfg = GenConfig {
        seed,
        functions: 4,
        unsupported_rate: 0.15,
        ..GenConfig::default()
    };
    let module = generate_module(&cfg);
    println!(
        "generated module (seed {seed}): {} functions",
        module.functions.len()
    );

    // One worker with JSON proofs, the paper's wire format, and the Orig
    // run the time line below prints.
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        orig: true,
        ..ParallelOptions::default()
    };
    let (optimized, report) = run_pipeline_parallel(
        &module,
        &PassConfig::default(),
        &opts,
        &Telemetry::disabled(),
    );

    println!(
        "\n{:<14} {:<10} {:<14} {:>10}",
        "pass", "function", "outcome", "proof (B)"
    );
    for step in &report.steps {
        let outcome = match &step.outcome {
            StepOutcome::Valid => "valid".to_string(),
            StepOutcome::Failed(_) => "FAILED".to_string(),
            StepOutcome::NotSupported(_) => "not-supported".to_string(),
        };
        println!(
            "{:<14} {:<10} {:<14} {:>10}",
            step.pass, step.func, outcome, step.proof_bytes
        );
    }
    println!(
        "\n#V = {}   #F = {}   #NS = {}",
        report.validations(),
        report.failures(),
        report.not_supported()
    );
    println!(
        "Orig = {:?}   PCal = {:?}   I/O = {:?}   PCheck = {:?}",
        report.time_orig, report.time_pcal, report.time_io, report.time_pcheck
    );

    let before = module.function("main").unwrap().stmt_count();
    let after = optimized.function("main").unwrap().stmt_count();
    println!("main: {before} statements before, {after} after");

    let rc = RunConfig::default();
    let a = run_main(&module, &rc);
    let b = run_main(&optimized, &rc);
    check_refinement(&a, &b)?;
    println!(
        "differential run: {} observable events, behaviour preserved",
        b.events.len()
    );
    Ok(())
}
