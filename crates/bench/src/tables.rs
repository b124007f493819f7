//! Rendering the results in the paper's table layouts.

use crate::experiment::{CorpusResult, PassReports, PASSES};
use crate::sloc::SlocRow;
use crellvm_passes::PipelineReport;
use std::fmt::Write;
use std::time::Duration;

fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

fn millis(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Fig 5: SLOC of proof-generation code.
pub fn fig5(rows: &[SlocRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 5 — SLOC of proof-generation code (measured from this repo)"
    );
    let _ = write!(out, "{:<22}", "");
    for r in rows {
        let _ = write!(out, "{:>14}", r.pass);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<22}", "Compiler (covered)");
    for r in rows {
        let _ = write!(out, "{:>14}", r.compiler);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<22}", "Proof generation");
    for r in rows {
        let _ = write!(out, "{:>14}", r.proofgen);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<22}", "Ratio");
    for r in rows {
        let _ = write!(out, "{:>13.1}%", 100.0 * r.ratio());
    }
    let _ = writeln!(out);
    out
}

/// Fig 6 / 9 / 12 — the per-pass summary.
pub fn summary(title: &str, result: &CorpusResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<13} {:>8} {:>6} {:>8} | {:>9} {:>9} {:>9} {:>9}",
        "", "#V", "#F", "#NS", "Orig(s)", "PCal(s)", "I/O(s)", "PCheck(s)"
    );
    for pass in PASSES {
        let r = result.total(pass);
        let _ = writeln!(
            out,
            "{:<13} {:>8} {:>6} {:>8} | {:>9} {:>9} {:>9} {:>9}",
            pass,
            r.validations(),
            r.failures(),
            r.not_supported(),
            secs(r.time_orig),
            secs(r.time_pcal),
            secs(r.time_io),
            secs(r.time_pcheck)
        );
    }
    out
}

/// One pass's `#V #F #NS` cell of a per-benchmark row.
fn counts(out: &mut String, r: &PipelineReport) {
    let _ = write!(
        out,
        " | {:>6} {:>4} {:>5}",
        r.validations(),
        r.failures(),
        r.not_supported()
    );
}

/// Fig 7 / 10 / 13 — validation results per benchmark.
pub fn per_benchmark_results(title: &str, result: &CorpusResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<20} {:>8}", "benchmark", "LOC(k)");
    for pass in PASSES {
        let _ = write!(out, " | {:>6} {:>4} {:>5}", format!("{pass}"), "#F", "#NS");
    }
    let _ = writeln!(out);
    for (bench, reports) in &result.benchmarks {
        let _ = write!(out, "{:<20} {:>8.2}", bench.name, bench.loc_k);
        for pass in PASSES {
            counts(&mut out, &reports[pass]);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<20} {:>8}", "Total", "");
    for pass in PASSES {
        counts(&mut out, &result.total(pass));
    }
    let _ = writeln!(out);
    out
}

/// Fig 8 / 11 / 14 — time breakdown per benchmark.
pub fn per_benchmark_times(title: &str, result: &CorpusResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<20}", "benchmark");
    for pass in PASSES {
        let _ = write!(out, " | {:^31}", pass);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<20}", "(milliseconds)");
    for _ in PASSES {
        let _ = write!(
            out,
            " | {:>7}{:>8}{:>8}{:>8}",
            "Orig", "PCal", "I/O", "PChk"
        );
    }
    let _ = writeln!(out);
    for (bench, reports) in &result.benchmarks {
        let _ = write!(out, "{:<20}", bench.name);
        for pass in PASSES {
            let r = &reports[pass];
            let _ = write!(
                out,
                " | {:>7}{:>8}{:>8}{:>8}",
                millis(r.time_orig),
                millis(r.time_pcal),
                millis(r.time_io),
                millis(r.time_pcheck)
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// The CSmith experiment table (§7, "Validating Randomly Generated
/// Programs").
pub fn csmith(title: &str, reports: &PassReports) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<13} {:>8} {:>6} {:>8} {:>10}",
        "", "#V", "#F", "#NS", "NS-rate"
    );
    for (pass, r) in reports {
        let rate = if r.validations() > 0 {
            100.0 * r.not_supported() as f64 / r.validations() as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<13} {:>8} {:>6} {:>8} {:>9.1}%",
            pass,
            r.validations(),
            r.failures(),
            r.not_supported(),
            rate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_passes::PassConfig;

    #[test]
    fn tables_render() {
        let r = crate::experiment::run_corpus_experiment(0.001, 1, &PassConfig::default());
        let s = summary("Fig 6 (test)", &r);
        assert!(s.contains("mem2reg") && s.contains("#V"));
        let s = per_benchmark_results("Fig 7 (test)", &r);
        assert!(s.contains("403.gcc") && s.contains("Total"));
        let s = per_benchmark_times("Fig 8 (test)", &r);
        assert!(s.contains("PCal"));
        let s = fig5(&crate::sloc::measure_sloc());
        assert!(s.contains("Ratio"));
    }
}
