//! # crellvm-passes
//!
//! Proof-generating optimization passes over [`crellvm_ir`], mirroring the
//! LLVM passes the Crellvm paper instruments:
//!
//! * [`mem2reg`](fn@mem2reg) — register promotion, with the general
//!   dominance-frontier algorithm and the two specialized fast paths
//!   (single-store, single-block) of LLVM's `PromoteMemoryToRegister.cpp`;
//! * [`gvn`](fn@gvn) — hash-based global value numbering with scalar PRE
//!   insertion;
//! * [`licm`](fn@licm) — loop-invariant code motion;
//! * [`instcombine`](fn@instcombine) — the peephole micro-optimization engine with the
//!   paper's named rewrites.
//!
//! Every pass returns a [`PassOutcome`]: the transformed module together
//! with one [`crellvm_core::ProofUnit`] per function, ready for
//! [`crellvm_core::validate`].
//!
//! ## Historical bugs
//!
//! [`BugSet`] re-introduces the four miscompilation bugs the paper found
//! (PR24179, PR33673, PR28562/PR29057, and the D38619 PRE bug), so the
//! validation experiments can demonstrate detection. The default
//! [`PassConfig`] has every bug switched off.
//!
//! # Example
//!
//! ```
//! use crellvm_ir::parse_module;
//! use crellvm_passes::{mem2reg, PassConfig};
//! use crellvm_core::{validate, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     r#"
//!     declare @print(i32)
//!     define @main() {
//!     entry:
//!       %p = alloca i32
//!       store i32 42, ptr %p
//!       %a = load i32, ptr %p
//!       call void @print(i32 %a)
//!       ret void
//!     }
//!     "#,
//! )?;
//! let out = mem2reg(&m, &PassConfig::default());
//! // Only the call remains: alloca, store, and load were promoted away.
//! assert_eq!(out.module.function("main").unwrap().blocks[0].stmts.len(), 1);
//! for unit in &out.proofs {
//!     assert_eq!(validate(unit)?, Verdict::Valid);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod gvn;
pub mod instcombine;
pub mod licm;
pub mod mem2reg;
pub mod parallel;
pub mod pipeline;
pub mod schedule;
pub(crate) mod util;

pub use config::{BugSet, PassConfig, PassOutcome};
pub use gvn::gvn;
pub use instcombine::instcombine;
pub use licm::licm;
pub use mem2reg::mem2reg;
pub use parallel::{default_jobs, run_pipeline_parallel, ParallelOptions, ValidationRun};
pub use pipeline::{
    format_step_line, run_pass, run_pass_function, CodecScratch, PipelineReport, ProofFormat,
    SpanItem, StepOutcome, StepRecord, PASS_ORDER,
};
