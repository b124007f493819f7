//! The synthetic benchmark corpus: 18 "projects" named and size-weighted
//! after the paper's Fig 7 (SPEC CINT2006, five open-source projects, and
//! the LLVM nightly test suite — 5.3 MLoC of C in the original).
//!
//! Each benchmark turns into a deterministic set of generated modules; the
//! per-benchmark unsupported-feature rate is calibrated to Fig 7's
//! mem2reg #NS/#V column, so the #NS *shape* of the experiment carries
//! over (e.g. ghostscript and libquantum dominate #NS, gcc contributes
//! almost none).

use crate::rand_prog::{generate_module, FeatureMix, GenConfig};
use crellvm_ir::Module;

/// One corpus benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Benchmark name (Fig 7's row label).
    pub name: &'static str,
    /// Lines of C code in the paper's original (in thousands).
    pub loc_k: f64,
    /// Fraction of functions using validator-unsupported features
    /// (calibrated to Fig 7's mem2reg #NS / #V).
    pub unsupported_rate: f64,
}

/// The 18 benchmarks of Fig 7.
pub const BENCHMARKS: [Benchmark; 18] = [
    Benchmark {
        name: "400.perlbench",
        loc_k: 168.16,
        unsupported_rate: 0.001,
    },
    Benchmark {
        name: "401.bzip2",
        loc_k: 8.29,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "403.gcc",
        loc_k: 517.52,
        unsupported_rate: 0.001,
    },
    Benchmark {
        name: "429.mcf",
        loc_k: 2.69,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "433.milc",
        loc_k: 15.04,
        unsupported_rate: 0.009,
    },
    Benchmark {
        name: "445.gobmk",
        loc_k: 196.24,
        unsupported_rate: 0.0004,
    },
    Benchmark {
        name: "456.hmmer",
        loc_k: 35.99,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "458.sjeng",
        loc_k: 13.85,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "462.libquantum",
        loc_k: 4.36,
        unsupported_rate: 0.64,
    },
    Benchmark {
        name: "464.h264ref",
        loc_k: 51.58,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "470.lbm",
        loc_k: 1.16,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "482.sphinx3",
        loc_k: 25.09,
        unsupported_rate: 0.0,
    },
    Benchmark {
        name: "sendmail-8.15.2",
        loc_k: 138.68,
        unsupported_rate: 0.43,
    },
    Benchmark {
        name: "emacs-25.1",
        loc_k: 463.54,
        unsupported_rate: 0.001,
    },
    Benchmark {
        name: "python-3.4.1",
        loc_k: 486.38,
        unsupported_rate: 0.01,
    },
    Benchmark {
        name: "gimp-2.8.18",
        loc_k: 1004.20,
        unsupported_rate: 0.027,
    },
    Benchmark {
        name: "ghostscript-9.14.0",
        loc_k: 797.65,
        unsupported_rate: 0.70,
    },
    Benchmark {
        name: "LLVM nightly test",
        loc_k: 1358.76,
        unsupported_rate: 0.016,
    },
];

impl Benchmark {
    /// Number of generated functions at the given scale (functions per
    /// KLoC of the original).
    pub fn function_count(&self, functions_per_kloc: f64) -> usize {
        ((self.loc_k * functions_per_kloc).round() as usize).max(2)
    }

    /// Generate this benchmark's modules deterministically.
    ///
    /// `functions_per_kloc` scales the corpus (the experiments default to
    /// a laptop-friendly scale); `base_seed` varies the whole corpus.
    pub fn modules(&self, functions_per_kloc: f64, base_seed: u64) -> Vec<Module> {
        let total = self.function_count(functions_per_kloc);
        let per_module = 4usize;
        let n_modules = total.div_ceil(per_module);
        let name_seed: u64 = self.name.bytes().fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        (0..n_modules)
            .map(|i| {
                let cfg = GenConfig {
                    seed: base_seed
                        ^ name_seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                    functions: per_module.min(total - i * per_module),
                    unsupported_rate: self.unsupported_rate,
                    feature_mix: FeatureMix::Benchmarks,
                    ..GenConfig::default()
                };
                generate_module(&cfg)
            })
            .collect()
    }
}

/// The full corpus at a given scale: `(benchmark, its modules)` pairs.
pub fn corpus(functions_per_kloc: f64, base_seed: u64) -> Vec<(Benchmark, Vec<Module>)> {
    BENCHMARKS
        .iter()
        .map(|b| (*b, b.modules(functions_per_kloc, base_seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::verify_module;

    #[test]
    fn corpus_covers_all_benchmarks_and_verifies() {
        let c = corpus(0.005, 1);
        assert_eq!(c.len(), 18);
        for (b, modules) in &c {
            assert!(!modules.is_empty(), "{} has no modules", b.name);
            for m in modules {
                verify_module(m).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            }
        }
    }

    #[test]
    fn sizes_scale_with_loc() {
        let gcc = BENCHMARKS.iter().find(|b| b.name == "403.gcc").unwrap();
        let mcf = BENCHMARKS.iter().find(|b| b.name == "429.mcf").unwrap();
        assert!(gcc.function_count(0.05) > mcf.function_count(0.05));
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(0.002, 7);
        let b = corpus(0.002, 7);
        for ((_, ma), (_, mb)) in a.iter().zip(&b) {
            for (x, y) in ma.iter().zip(mb) {
                assert_eq!(
                    crellvm_ir::printer::print_module(x),
                    crellvm_ir::printer::print_module(y)
                );
            }
        }
    }
}
