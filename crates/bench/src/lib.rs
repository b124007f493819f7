//! # crellvm-bench
//!
//! The experiment driver regenerating the paper's tables and figures:
//!
//! * [`experiment`] — run the validated pipeline over the synthetic corpus
//!   and aggregate the paper's `#V` / `#F` / `#NS` counts and the four
//!   time columns (`Orig` / `PCal` / `I/O` / `PCheck`) per benchmark and
//!   per pass (Figs 6–14);
//! * [`sloc`] — measure the proof-generation code size relative to the
//!   pass code size from this repository's own sources (Fig 5);
//! * [`tables`] — render the results in the paper's table layouts.
//!
//! The `benches/` directory contains one target per figure; run them all
//! with `cargo bench`.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod sloc;
pub mod tables;

pub use experiment::{run_corpus_experiment, run_csmith_experiment, CorpusResult, PassReports};
pub use sloc::{measure_sloc, SlocRow};
