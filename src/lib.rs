//! # crellvm
//!
//! A verified-credible-compilation framework for an LLVM-like SSA IR —
//! a from-scratch Rust reproduction of *"Crellvm: Verified Credible
//! Compilation for LLVM"* (PLDI 2018).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ir`] — the SSA intermediate representation (parser, printer, CFG,
//!   dominators, verifier).
//! * [`interp`] — the reference interpreter (semantics, memory model,
//!   behaviour refinement).
//! * [`erhl`] — the Extensible Relational Hoare Logic: assertions,
//!   inference rules, the post-assertion calculus, and the proof checker.
//! * [`passes`] — proof-generating optimizations: mem2reg, gvn (+PRE),
//!   licm, instcombine, with injectable historical LLVM bugs.
//! * [`diff`] — alpha-equivalence checking (the `llvm-diff` analogue).
//! * [`gen`] — random program generation, the synthetic benchmark
//!   corpus, and the seeded miscompilation injector.
//! * [`fuzz`] — the soundness fuzzing engine: a three-way
//!   checker/interpreter/diff oracle and reproducible parallel
//!   campaigns with `ddmin`-minimized, replayable findings.
//! * [`telemetry`] — metrics registry, span timers, and the structured
//!   JSON-lines proof-audit trace (zero external dependencies).
//! * [`bench`] — the experiment driver regenerating the paper's tables,
//!   plus bench history and the noise-aware regression sentinel.
//! * [`serve`] — validation-as-a-service: the loopback daemon with a
//!   bounded admission queue, tenant-namespaced verdict cache, and a
//!   live observability plane (`crellvm serve`, `crellvm top`).
//!
//! # Quickstart
//!
//! ```
//! use crellvm::ir::parse_module;
//! use crellvm::passes::{mem2reg, PassConfig};
//! use crellvm::erhl::validate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = parse_module(
//!     r#"
//!     declare @print(i32)
//!     define @main() {
//!     entry:
//!       %p = alloca i32
//!       store i32 42, ptr %p
//!       %a = load i32, ptr %p
//!       call void @print(i32 %a)
//!       ret
//!     }
//!     "#
//!     .replace("ret\n", "ret void\n")
//!     .as_str(),
//! )?;
//! let outcome = mem2reg(&src, &PassConfig::default());
//! for unit in &outcome.proofs {
//!     validate(unit)?;
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use crellvm_bench as bench;
pub use crellvm_core as erhl;
pub use crellvm_diff as diff;
pub use crellvm_fuzz as fuzz;
pub use crellvm_gen as gen;
pub use crellvm_interp as interp;
pub use crellvm_ir as ir;
pub use crellvm_passes as passes;
pub use crellvm_serve as serve;
pub use crellvm_telemetry as telemetry;
