//! Figs 12–14 — LLVM 5.0.1 *after* the GVN patch: no failures remain.

use crellvm_bench::experiment::{default_scale, run_corpus_experiment, PASSES};
use crellvm_bench::tables;
use crellvm_passes::{BugSet, PassConfig};

fn main() {
    let scale = default_scale();
    let config = PassConfig::with_bugs(BugSet::llvm_5_0_1_postpatch());
    let r = run_corpus_experiment(scale, 4, &config);
    print!(
        "{}",
        tables::summary(
            &format!("Fig 12 — LLVM 5.0.1 after the GVN patch (scale {scale} fn/KLoC)"),
            &r
        )
    );
    println!();
    print!(
        "{}",
        tables::per_benchmark_results("Fig 13 — per-benchmark results", &r)
    );
    println!();
    print!(
        "{}",
        tables::per_benchmark_times("Fig 14 — per-benchmark times", &r)
    );
    let total_f: usize = PASSES.iter().map(|p| r.total(p).failures()).sum();
    println!("\ntotal #F = {total_f} (paper: 0 after the patch)");
    assert_eq!(total_f, 0, "the fixed compiler must produce no failures");
}
