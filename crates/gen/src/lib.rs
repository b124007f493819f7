//! # crellvm-gen
//!
//! Seeded random IR program generation (the CSmith analogue of the paper's
//! §7 experiment) and the synthetic benchmark corpus standing in for
//! SPEC CINT2006 + five open-source projects + the LLVM nightly suite
//! (Fig 7).
//!
//! Generated modules are **well-formed by construction** (structured
//! control flow with explicit phi merges), always pass the SSA verifier,
//! and have terminating `main` functions (loops are bounded by constant
//! trip counts), so they can be executed differentially by
//! `crellvm-interp`.
//!
//! # Example
//!
//! ```
//! use crellvm_gen::{generate_module, GenConfig};
//!
//! let m = generate_module(&GenConfig { seed: 42, ..GenConfig::default() });
//! crellvm_ir::verify_module(&m).expect("generated modules verify");
//! assert!(m.function("main").is_some());
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod mutate;
pub mod prng;
pub mod rand_prog;

pub use corpus::{corpus, Benchmark, BENCHMARKS};
pub use mutate::{
    apply_mutation, mutate_function, mutation_sites, BugClass, Mutation, MutationPlan,
};
pub use prng::{SplitMix64, GEN_PRNG_VERSION};
pub use rand_prog::{generate_module, FeatureMix, GenConfig};
