//! Soundness fuzzing engine for the Crellvm toolchain.
//!
//! The checker's job is to never say *Valid* for a miscompilation; the
//! test suite can only show it does so on the translations we thought to
//! write down. This crate closes the loop with an adversary:
//!
//! * [`crellvm_gen::mutate`] injects seeded semantic mutations into pass
//!   *outputs* (dropped stores, undef'd loads, `inbounds` perturbations,
//!   flipped predicates, swapped non-commutative operands, perturbed phi
//!   incomings), each tagged with the paper bug class it models;
//! * [`oracle`] cross-checks three independent verdicts per
//!   `(program, pass)` unit — the ERHL checker, interpreter-based
//!   `Beh(src) ⊇ Beh(tgt)` refinement on concrete inputs, and the
//!   structural diff — and classifies disagreements as **soundness
//!   alarms** (checker accepts, refinement refutes) or **completeness
//!   gaps** (checker rejects, refinement holds conclusively);
//! * [`campaign`] runs reproducible parallel campaigns over seed ranges
//!   on the shared scheduler, `ddmin`-minimizes every finding
//!   into a replayable bundle, and accounts per-inference-rule coverage
//!   through telemetry.
//!
//! `OutOfFuel` interpreter runs are *inconclusive*, never a pass: a
//! refinement leg that ran out of fuel cannot promote a rejection into a
//! completeness gap, and cannot clear an acceptance.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod oracle;

pub use campaign::{
    run_campaign, run_campaign_with_progress, write_findings, CampaignConfig, CampaignReport,
    Finding, FindingKind,
};
pub use oracle::{
    classify, observe_step, observe_step_cached, refinement_leg, refinement_leg_cached,
    CheckerSummary, DiffSummary, DivergenceObservation, Observation, OracleConfig, OracleVerdict,
    RefinementSummary,
};
