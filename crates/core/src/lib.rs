//! # crellvm-core
//!
//! ERHL — the **E**xtensible **R**elational **H**oare **L**ogic of the
//! Crellvm framework (PLDI 2018) — and its translation-validation proof
//! checker.
//!
//! The crate provides:
//!
//! * [`expr`] / [`assertion`] — tagged expressions, lessdef / `Uniq` /
//!   `Priv` / `⊥` predicates, maydiff sets, and the relational
//!   [`Assertion`] triple;
//! * [`infrule`] / [`rules_arith`] — the inference-rule vocabulary and its
//!   checked application (`ApplyInf`);
//! * [`postcond`] — strong post-assertion computation for command rows and
//!   phi bundles (with *old registers* for cyclic control flow);
//! * [`equivbeh`] — the observable-behaviour equivalence check;
//! * [`auto`] — untrusted automation functions that propose rules;
//! * [`proof`] — proof objects and the [`ProofBuilder`] proof-generation
//!   API (with the §E program-point computation);
//! * [`checker`] — the top-level validator [`validate`];
//! * [`serialize`] — JSON (de)serialization of proof units (the paper's
//!   I/O pipeline).
//!
//! # Example: validating a hand-built translation
//!
//! ```
//! use crellvm_ir::parse_module;
//! use crellvm_core::{ProofBuilder, validate, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     "define @f(i32 %n) -> i32 {\nentry:\n  %x = add i32 %n, 0\n  ret i32 %x\n}\n",
//! )?;
//! // The identity translation needs no rules at all.
//! let unit = ProofBuilder::new("identity", &m.functions[0]).finish();
//! assert_eq!(validate(&unit)?, Verdict::Valid);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod assertion;
pub mod auto;
pub mod cache;
pub mod checker;
pub mod equivbeh;
pub mod expr;
pub mod forensics;
pub mod infrule;
pub mod postcond;
pub mod proof;
pub mod rules_arith;
pub mod rules_composite;
pub mod serialize;
pub mod serialize_bin;

pub use assertion::{Assertion, Pred, RegSet, Unary};
pub use auto::AutoKind;
pub use cache::{CacheEntry, CacheKey, ValidationCache, CHECKER_VERSION};
pub use checker::{
    validate, validate_with_config, validate_with_telemetry, ValidationError, Verdict,
};
pub use equivbeh::check_equiv_beh;
pub use expr::{Expr, Side, TReg, TValue};
pub use forensics::{forensic_bundle, replay, ReplayReport};
pub use infrule::{all_rule_names, apply_inf, apply_inf_owned, CheckerConfig, InfError, InfRule};
pub use postcond::{calc_post_cmd, calc_post_phi};
pub use proof::{Loc, ProofBuilder, ProofUnit, RowShape, RulePos, SlotId};
pub use rules_arith::ArithRule;
pub use rules_composite::CompositeRule;
pub use serialize::{
    proof_from_bytes, proof_from_json, proof_to_bytes_v2, proof_to_bytes_v2_into, proof_to_json,
};
