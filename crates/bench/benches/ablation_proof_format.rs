//! Ablation: JSON vs binary proof wire format, end-to-end through the
//! validated pipeline.
//!
//! The paper ships JSON proofs and reports I/O as a dominant cost column
//! (Fig 6/8); its §7 notes the overhead "will be much smaller if we … use
//! binary instead of JSON format for proofs". This bench runs the same
//! corpus through both formats and reports the I/O time and wire size
//! each produces — every verdict must be identical.

use crellvm_gen::{generate_module, GenConfig};
use crellvm_passes::{
    run_pipeline_parallel, ParallelOptions, PassConfig, PipelineReport, ProofFormat,
};
use crellvm_telemetry::Telemetry;

fn run(format: ProofFormat, seeds: u64) -> PipelineReport {
    let opts = ParallelOptions {
        jobs: 1,
        format,
        ..ParallelOptions::default()
    };
    let mut report = PipelineReport::default();
    for seed in 0..seeds {
        let m = generate_module(&GenConfig {
            seed,
            functions: 3,
            ..GenConfig::default()
        });
        let (_, r) =
            run_pipeline_parallel(&m, &PassConfig::default(), &opts, &Telemetry::disabled());
        report.merge(r);
    }
    report
}

fn main() {
    let seeds: u64 = std::env::var("CRELLVM_CSMITH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let json = run(ProofFormat::Json, seeds);
    let bin = run(ProofFormat::Binary, seeds);

    // Outcomes must be bit-for-bit identical — the format carries the
    // same proof.
    assert_eq!(json.steps.len(), bin.steps.len(), "step counts differ");
    for (a, b) in json.steps.iter().zip(&bin.steps) {
        assert_eq!(
            a.outcome, b.outcome,
            "verdict differs at @{} ({})",
            a.func, a.pass
        );
    }

    let jbytes: usize = json.steps.iter().map(|s| s.proof_bytes).sum();
    let bbytes: usize = bin.steps.iter().map(|s| s.proof_bytes).sum();
    println!(
        "Ablation — proof wire format ({} modules, {} validations)\n",
        seeds,
        json.steps.len()
    );
    println!(
        "{:<10}{:>14}{:>16}",
        "format", "I/O time (ms)", "wire bytes"
    );
    println!(
        "{:<10}{:>14.2}{:>16}",
        "json",
        json.time_io.as_secs_f64() * 1e3,
        jbytes
    );
    println!(
        "{:<10}{:>14.2}{:>16}",
        "binary",
        bin.time_io.as_secs_f64() * 1e3,
        bbytes
    );
    println!(
        "\nbinary is {:.1}x smaller and {:.1}x faster on the I/O column (verdicts identical)",
        jbytes as f64 / bbytes as f64,
        json.time_io.as_secs_f64() / bin.time_io.as_secs_f64(),
    );
}
