//! The §7 experiment driver: the corpus and CSmith experiments, validated
//! by the engine behind `crellvm opt` on one worker with the paper's JSON
//! proofs.

use crellvm_core::CheckerConfig;
use crellvm_gen::{corpus, Benchmark, FeatureMix, GenConfig};
use crellvm_ir::Module;
use crellvm_passes::{ParallelOptions, PassConfig, PipelineReport, ProofFormat, ValidationRun};
use crellvm_telemetry::Telemetry;
use std::collections::BTreeMap;

/// The instrumented passes, in the order the experiment validates them.
///
/// Not `crellvm_passes::PASS_ORDER` (which runs instcombine second): each
/// pass sees the previous passes' output, so changing the order would
/// change every figure's counts.
pub const PASSES: [&str; 4] = ["mem2reg", "gvn", "licm", "instcombine"];

/// One report per pass: its steps and four time columns.
pub type PassReports = BTreeMap<&'static str, PipelineReport>;

/// The whole corpus experiment.
#[derive(Debug, Clone, Default)]
pub struct CorpusResult {
    /// Per-benchmark reports, in corpus order. Every benchmark has at
    /// least one module, so every pass has a report.
    pub benchmarks: Vec<(Benchmark, PassReports)>,
}

impl CorpusResult {
    /// Aggregate a pass's report over all benchmarks (the Fig 6 summary).
    pub fn total(&self, pass: &str) -> PipelineReport {
        let mut out = PipelineReport::default();
        for (_, reports) in &self.benchmarks {
            out.merge(reports[pass].clone());
        }
        out
    }
}

/// Validate one module under [`PASSES`], adding each pass's steps and
/// four time columns to its report in `reports`.
///
/// # Panics
///
/// If a pass without proof generation (Orig) builds a different function
/// than with it (PCal): the paper's Fig 1 `llvm-diff` step, which the
/// figure benches thereby gate.
fn validate_module(m: &Module, config: &PassConfig, reports: &mut PassReports) {
    let checker = CheckerConfig::sound();
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        orig: true,
        ..ParallelOptions::default()
    };
    let tel = Telemetry::disabled();
    let mut run = ValidationRun::new(m, config, &checker, &opts, &tel);
    for pass in PASSES {
        let report = reports.entry(pass).or_default();
        run.run_pass(pass, report);
        assert_eq!(
            report.orig_mismatches, 0,
            "{pass}: Orig and PCal built different functions"
        );
    }
}

/// Run the full corpus experiment at the given scale (functions per KLoC
/// of the original benchmark) under a bug population.
pub fn run_corpus_experiment(scale: f64, seed: u64, config: &PassConfig) -> CorpusResult {
    let mut result = CorpusResult::default();
    for (bench, modules) in corpus(scale, seed) {
        let mut reports = PassReports::new();
        for m in &modules {
            validate_module(m, config, &mut reports);
        }
        result.benchmarks.push((bench, reports));
    }
    result
}

/// The §7 CSmith experiment: `n` random programs, validated per pass.
pub fn run_csmith_experiment(n: usize, seed: u64, config: &PassConfig) -> PassReports {
    let mut reports = PassReports::new();
    for k in 0..n {
        let cfg = GenConfig {
            seed: seed.wrapping_add(k as u64),
            functions: 3,
            // Calibrated so ~27.7% of mem2reg validations hit lifetime
            // intrinsics (the paper's CSmith figure; `main` functions
            // never carry them, hence the correction factor).
            unsupported_rate: 0.37,
            feature_mix: FeatureMix::Csmith,
            // CSmith-style programs almost never triggered the bugs in
            // the paper (1 gvn failure in 55 008 validations).
            bug_bait_rate: 0.002,
            ..GenConfig::default()
        };
        validate_module(&crellvm_gen::generate_module(&cfg), config, &mut reports);
    }
    reports
}

/// The default experiment scale: functions generated per KLoC of the
/// original benchmark (override with `CRELLVM_SCALE`).
pub fn default_scale() -> f64 {
    std::env::var("CRELLVM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_passes::BugSet;

    /// `(#V, #F, #NS)` of every pass, in [`PASSES`] order.
    type Counts = [(usize, usize, usize); 4];

    /// The counts of the reduced corpus the shape tests run: scale 0.01
    /// fn/KLoC with the figure benches' corpus seed 4.
    fn shape_counts(bugs: BugSet) -> Counts {
        let r = run_corpus_experiment(0.01, 4, &PassConfig::with_bugs(bugs));
        assert_eq!(r.benchmarks.len(), 18);
        PASSES.map(|pass| {
            let t = r.total(pass);
            (t.validations(), t.failures(), t.not_supported())
        })
    }

    /// The pre-patch LLVM 5.0.1 counts (mem2reg, gvn, licm, instcombine).
    const PREPATCH: Counts = [(98, 0, 6), (98, 2, 6), (98, 0, 6), (98, 0, 6)];

    #[test]
    fn tiny_corpus_run_is_clean() {
        // Figs 12-14: after the patch nothing fails, and #NS is the
        // pre-patch #NS (unsupported features do not depend on the bugs).
        let post = shape_counts(BugSet::llvm_5_0_1_postpatch());
        for ((pass, post), pre) in PASSES.iter().zip(post).zip(PREPATCH) {
            assert_eq!(post.1, 0, "{pass} had failures");
            assert_eq!(post.2, pre.2, "{pass} #NS differs from pre-patch");
        }
        assert_eq!(post, [(98, 0, 6); 4]);
    }

    #[test]
    fn buggy_corpus_shows_failures_in_the_right_pass() {
        // Fig 6: under 3.7.1, gvn carries most failures, mem2reg some,
        // licm and instcombine none.
        let old = shape_counts(BugSet::llvm_3_7_1());
        let [m2r, g, l, ic] = old;
        assert!(
            g.1 > m2r.1 && m2r.1 > 0,
            "3.7.1 #F: mem2reg {} gvn {}",
            m2r.1,
            g.1
        );
        assert_eq!((l.1, ic.1), (0, 0), "licm / instcombine #F");
        assert_eq!(old, [(98, 1, 6), (98, 3, 6), (98, 0, 6), (98, 0, 6)]);

        // Figs 9-11: the 5.0.1 port fixes mem2reg; gvn keeps the PRE bug.
        let pre = shape_counts(BugSet::llvm_5_0_1_prepatch());
        assert_eq!(pre[0].1, 0, "5.0.1-pre mem2reg #F");
        assert!(pre[1].1 > 0, "5.0.1-pre gvn #F");
        assert_eq!(pre, PREPATCH);
    }

    #[test]
    fn csmith_mem2reg_ns_rate_matches_paper_shape() {
        let reports = run_csmith_experiment(30, 11, &PassConfig::default());
        let m2r = &reports["mem2reg"];
        let rate = m2r.not_supported() as f64 / m2r.validations() as f64;
        assert!(
            rate > 0.1 && rate < 0.45,
            "mem2reg NS rate {rate} out of shape"
        );
        // gvn is unaffected by lifetime intrinsics (paper: 0 NS for gvn).
        assert_eq!(reports["gvn"].not_supported(), 0);
    }
}
