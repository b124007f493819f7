//! # crellvm-interp
//!
//! A reference interpreter for [`crellvm_ir`] with a CompCert-flavoured
//! block/offset memory model, observable events, and a behaviour-refinement
//! checker.
//!
//! This crate is the *test-time substitute* for the Coq soundness proof of
//! the original Crellvm development: inference rules and whole validated
//! translations are checked against these semantics by property tests
//! rather than by a machine-checked proof (see `DESIGN.md` §2).
//!
//! ## Semantics highlights (matching the paper's Vellvm-based model)
//!
//! * `undef` is a first-class value; arithmetic resolves it through a
//!   deterministic [`UndefPolicy`] so differential runs are reproducible.
//! * `gep inbounds` yields **poison** when the computed address leaves the
//!   underlying allocation (the PR28562/PR29057 behaviour).
//! * Trapping constant expressions (e.g. `1 / ((i32)G - (i32)G)`) are kept
//!   *symbolic* through stores and loads and only trap when an executing
//!   instruction consumes them (the PR33673 behaviour).
//! * External calls emit [`Event`]s; their return values are a
//!   deterministic function of a seed and the call index, so source and
//!   target runs see the same environment.
//!
//! # Example
//!
//! ```
//! use crellvm_ir::parse_module;
//! use crellvm_interp::{run_main, RunConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     r#"
//!     declare @print(i32)
//!     define @main() {
//!     entry:
//!       %x = add i32 40, 2
//!       call void @print(i32 %x)
//!       ret void
//!     }
//!     "#,
//! )?;
//! let run = run_main(&m, &RunConfig::default());
//! assert_eq!(run.events.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bytecode;
pub mod compile;
pub mod event;
pub mod exec;
pub mod exec_bc;
mod machine;
pub mod mem;
pub mod refine;
pub mod tier;
pub mod value;

pub use bytecode::CompiledModule;
pub use compile::{compile_module, compile_module_with, module_fingerprint, CompileOptions};
pub use event::Event;
pub use exec::{run_function, run_main, End, RunConfig, RunResult, UbReason, UndefPolicy};
pub use mem::{MemBlockId, Memory};
pub use refine::{check_refinement, RefineError};
pub use tier::{
    divergence, run_function_tiered, run_main_tiered, BcCache, Tier, TierDivergence, TieredRun,
};
pub use value::Val;
