//! The §7 experiment driver.

use crellvm_core::{proof_from_json, proof_to_json, validate, Verdict};
use crellvm_gen::{corpus, Benchmark, FeatureMix, GenConfig};
use crellvm_ir::Module;
use crellvm_passes::{gvn, instcombine, licm, mem2reg, PassConfig, PassOutcome};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The instrumented passes, in the order the experiment validates them.
pub const PASSES: [&str; 4] = ["mem2reg", "gvn", "licm", "instcombine"];

/// One row of Fig 6/7: a pass's aggregated counts and times.
#[derive(Debug, Clone, Default)]
pub struct PassRow {
    /// Validations performed (#V).
    pub validations: usize,
    /// Failed validations (#F).
    pub failures: usize,
    /// Not-supported translations (#NS).
    pub not_supported: usize,
    /// Time running the original pass.
    pub time_orig: Duration,
    /// Time running the pass with proof generation.
    pub time_pcal: Duration,
    /// Proof (de)serialization time.
    pub time_io: Duration,
    /// Proof-checking time.
    pub time_pcheck: Duration,
    /// Total serialized proof bytes.
    pub proof_bytes: usize,
}

impl PassRow {
    /// Merge another row into this one.
    pub fn merge(&mut self, other: &PassRow) {
        self.validations += other.validations;
        self.failures += other.failures;
        self.not_supported += other.not_supported;
        self.time_orig += other.time_orig;
        self.time_pcal += other.time_pcal;
        self.time_io += other.time_io;
        self.time_pcheck += other.time_pcheck;
        self.proof_bytes += other.proof_bytes;
    }
}

/// Results for one benchmark: per-pass rows.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Pass name → aggregated row.
    pub rows: BTreeMap<&'static str, PassRow>,
}

/// The whole corpus experiment.
#[derive(Debug, Clone, Default)]
pub struct CorpusResult {
    /// Per-benchmark results, in corpus order.
    pub benchmarks: Vec<(Benchmark, BenchResult)>,
}

impl CorpusResult {
    /// Aggregate a pass's row over all benchmarks (the Fig 6 summary).
    pub fn total(&self, pass: &str) -> PassRow {
        let mut out = PassRow::default();
        for (_, b) in &self.benchmarks {
            if let Some(r) = b.rows.get(pass) {
                out.merge(r);
            }
        }
        out
    }
}

fn run_pass(name: &str, m: &Module, config: &PassConfig) -> PassOutcome {
    match name {
        "mem2reg" => mem2reg(m, config),
        "gvn" => gvn(m, config),
        "licm" => licm(m, config),
        "instcombine" => instcombine(m, config),
        other => panic!("unknown pass {other}"),
    }
}

/// Run one pass over one module with the paper's four-way timing, merging
/// counts into `row`. Returns the transformed module.
pub fn measure_pass(name: &str, m: &Module, config: &PassConfig, row: &mut PassRow) -> Module {
    // Orig: the translation alone, with proof generation switched off as
    // the validation pipeline times it; PCal: the proof-generating pass.
    let t0 = Instant::now();
    let _orig = run_pass(name, m, &config.without_proofs());
    row.time_orig += t0.elapsed();

    let t1 = Instant::now();
    let out = run_pass(name, m, config);
    row.time_pcal += t1.elapsed();

    for unit in &out.proofs {
        let t2 = Instant::now();
        let json = proof_to_json(unit).expect("serialize");
        let unit2 = proof_from_json(&json).expect("deserialize");
        row.time_io += t2.elapsed();
        row.proof_bytes += json.len();

        let t3 = Instant::now();
        let verdict = validate(&unit2);
        row.time_pcheck += t3.elapsed();

        row.validations += 1;
        match verdict {
            Ok(Verdict::Valid) => {}
            Ok(Verdict::NotSupported(_)) => row.not_supported += 1,
            Err(_) => row.failures += 1,
        }
    }
    out.module
}

/// Run the full corpus experiment at the given scale (functions per KLoC
/// of the original benchmark) under a bug population.
pub fn run_corpus_experiment(scale: f64, seed: u64, config: &PassConfig) -> CorpusResult {
    let mut result = CorpusResult::default();
    for (bench, modules) in corpus(scale, seed) {
        let mut br = BenchResult::default();
        for m in &modules {
            let mut cur = m.clone();
            for pass in PASSES {
                let row = br.rows.entry(pass).or_default();
                cur = measure_pass(pass, &cur, config, row);
            }
        }
        result.benchmarks.push((bench, br));
    }
    result
}

/// The §7 CSmith experiment: `n` random programs, validated per pass.
pub fn run_csmith_experiment(
    n: usize,
    seed: u64,
    config: &PassConfig,
) -> BTreeMap<&'static str, PassRow> {
    let mut rows: BTreeMap<&'static str, PassRow> = BTreeMap::new();
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
        let m = crellvm_gen::generate_module(&cfg);
        let mut cur = m;
        for pass in PASSES {
            let row = rows.entry(pass).or_default();
            cur = measure_pass(pass, &cur, config, row);
        }
    }
    rows
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

    #[test]
    fn tiny_corpus_run_is_clean() {
        let r = run_corpus_experiment(0.002, 3, &PassConfig::default());
        assert_eq!(r.benchmarks.len(), 18);
        for pass in PASSES {
            let t = r.total(pass);
            assert!(t.validations > 0);
            assert_eq!(t.failures, 0, "{pass} had failures");
        }
    }

    #[test]
    fn buggy_corpus_shows_failures_in_the_right_pass() {
        let config = PassConfig::with_bugs(BugSet::llvm_3_7_1());
        let r = run_corpus_experiment(0.004, 5, &config);
        let m2r = r.total("mem2reg");
        let g = r.total("gvn");
        // The 3.7.1 bugs surface in mem2reg and/or gvn but never in licm.
        assert_eq!(r.total("licm").failures, 0);
        assert!(
            m2r.failures + g.failures > 0,
            "expected 3.7.1 bugs to fire: m2r={} gvn={}",
            m2r.failures,
            g.failures
        );
    }

    #[test]
    fn csmith_mem2reg_ns_rate_matches_paper_shape() {
        let rows = run_csmith_experiment(30, 11, &PassConfig::default());
        let m2r = &rows["mem2reg"];
        let rate = m2r.not_supported as f64 / m2r.validations as f64;
        assert!(
            rate > 0.1 && rate < 0.45,
            "mem2reg NS rate {rate} out of shape"
        );
        // gvn is unaffected by lifetime intrinsics (paper: 0 NS for gvn).
        assert_eq!(rows["gvn"].not_supported, 0);
    }
}
