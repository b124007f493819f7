//! Fig 5: SLOC of the proof-generation code relative to the pass code.
//!
//! The original Crellvm inserts boxed proof-generation lines into LLVM's
//! C++ passes and reports their SLOC per pass. Our passes interleave
//! transformation and proof generation in the same Rust files, so we
//! classify each significant line by whether it drives the proof builder
//! (`pb.`/`range_pred`/`infrule`/`IntroGhost`/… — the boxed lines of
//! Algorithms 1–3) or the transformation itself.

use std::path::PathBuf;

/// One Fig 5 column.
#[derive(Debug, Clone)]
pub struct SlocRow {
    /// Pass name.
    pub pass: &'static str,
    /// Significant lines implementing the transformation.
    pub compiler: usize,
    /// Significant lines implementing proof generation.
    pub proofgen: usize,
}

impl SlocRow {
    /// The paper's ratio (proof-generation SLOC / compiler SLOC).
    pub fn ratio(&self) -> f64 {
        self.proofgen as f64 / self.compiler.max(1) as f64
    }
}

fn is_significant(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && !t.starts_with("//") && !t.starts_with("#[") && t != "}" && t != "{"
}

/// Markers identifying proof-generation lines (the "boxed" lines).
const PROOF_MARKERS: [&str; 16] = [
    "pb.",
    "g.pb",
    "p.pb",
    "self.pb",
    "ProofBuilder",
    "range_pred",
    "infrule",
    "IntroGhost",
    "InfRule",
    "ArithRule",
    "global_maydiff",
    "global_pred",
    "mark_not_supported",
    "AutoKind",
    "Pred::",
    "Expr::",
];

fn classify(source: &str) -> (usize, usize) {
    let mut compiler = 0;
    let mut proofgen = 0;
    let mut in_tests = false;
    for line in source.lines() {
        if line.trim_start().starts_with("mod tests") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        if !is_significant(line) {
            continue;
        }
        if PROOF_MARKERS.iter().any(|m| line.contains(m)) {
            proofgen += 1;
        } else {
            compiler += 1;
        }
    }
    (compiler, proofgen)
}

/// Measure the Fig 5 table from this repository's own sources.
///
/// # Panics
///
/// Panics if the pass sources cannot be found relative to the workspace
/// (the benches run from the workspace root).
pub fn measure_sloc() -> Vec<SlocRow> {
    let base: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "passes", "src"]
        .iter()
        .collect();
    let mut rows = Vec::new();
    for pass in ["mem2reg", "gvn", "licm", "instcombine"] {
        let path = base.join(format!("{pass}.rs"));
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let (compiler, proofgen) = classify(&src);
        rows.push(SlocRow {
            pass,
            compiler,
            proofgen,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_four_passes() {
        let rows = measure_sloc();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.compiler > 50, "{}: compiler {}", r.pass, r.compiler);
            assert!(r.proofgen > 10, "{}: proofgen {}", r.pass, r.proofgen);
            // The paper's ratios range from 0.375 (mem2reg) to 1.93
            // (instcombine); ours should be in the same order of
            // magnitude.
            assert!(
                r.ratio() > 0.05 && r.ratio() < 5.0,
                "{}: ratio {}",
                r.pass,
                r.ratio()
            );
        }
    }

    #[test]
    fn classifier_basics() {
        let (c, p) = classify("let x = 1;\npb.range_pred(a, b);\n// comment\n");
        assert_eq!((c, p), (1, 1));
    }
}
