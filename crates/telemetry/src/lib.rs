//! Telemetry for the validated-compilation pipeline: a thread-safe metrics
//! registry and a structured JSON-lines trace sink, with no external crate
//! dependencies.
//!
//! The paper's credibility claim (Fig 6/8: #V/#F/#NS and the
//! Orig/PCal/I-O/PCheck time columns) is only as strong as the evidence
//! trail behind it. This crate is that trail's substrate:
//!
//! - [`Registry`] — atomic counters, log-bucketed histograms, and span
//!   timers. `Arc`-shareable and contention-safe, so a future parallel or
//!   sharded pipeline can record into one registry from many threads.
//! - [`Trace`] — an append-only JSON-lines event sink: one [`Event`] per
//!   validation step (the proof-audit log), plus pass-level and failure
//!   events.
//! - [`Telemetry`] — the handle threaded through checker, passes, and
//!   pipeline. A disabled handle ([`Telemetry::disabled`]) skips trace
//!   emission but still records metrics.
//! - [`json`] — the minimal JSON value model used by snapshots and events
//!   (kept internal so this crate stays dependency-free).
//!
//! Metric name conventions used across the workspace:
//!
//! | prefix              | meaning                                           |
//! |---------------------|---------------------------------------------------|
//! | `checker.rule.*`    | inference-rule applications (Fig 7's rule axis)   |
//! | `checker.*`         | checker totals: rows, failures, assertion sizes   |
//! | `pass.<name>.*`     | per-pass domain counters (allocas promoted, ...)  |
//! | `pipeline.*`        | step verdict totals: validated/failed/unsupported |
//! | `time.*`            | span timers: orig/pcal/io/pcheck (Fig 8 columns)  |

#![forbid(unsafe_code)]

pub mod export;
pub mod forensics;
pub mod json;
pub mod profile;
pub mod progress;
mod registry;
mod span;
mod trace;

pub use profile::{Profile, ProfileEntry, ProfileWeight};
pub use progress::{Progress, ProgressMode};
pub use registry::{HistogramSnapshot, Registry, Snapshot, Span, TimerSnapshot};
pub use span::{CausalSpan, SpanCollector, SpanNode, SpanRecord, SpanTree};
pub use trace::{Event, Trace};

use std::sync::Arc;

/// The handle threaded through the stack: a shared [`Registry`], an
/// optional [`Trace`] sink, and an optional causal [`SpanCollector`].
///
/// Cloning is cheap (a few `Arc`s) and every clone records into the same
/// registry and trace, so the handle can be handed to worker threads as-is.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    trace: Option<Arc<Trace>>,
    spans: Option<Arc<SpanCollector>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// Metrics-only telemetry: counters/histograms/timers record, trace
    /// events are dropped.
    pub fn disabled() -> Self {
        Telemetry {
            registry: Arc::new(Registry::new()),
            trace: None,
            spans: None,
        }
    }

    /// Telemetry recording into the given registry, without a trace sink.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Telemetry {
            registry,
            trace: None,
            spans: None,
        }
    }

    /// Attach a trace sink.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a causal span collector. The parallel engine hands every
    /// work item a *fresh* collector, so recording needs no cross-thread
    /// coordination and the per-item subtrees can be merged
    /// deterministically afterwards.
    pub fn with_spans(mut self, spans: Arc<SpanCollector>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Increment counter `name` by `n`.
    pub fn count(&self, name: &str, n: u64) {
        self.registry.add(name, n);
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.registry.observe(name, value);
    }

    /// Record every value of `values` into histogram `name`.
    pub fn observe_all(&self, name: &str, values: &[u64]) {
        self.registry.observe_all(name, values);
    }

    /// Start a span timer; the elapsed time is recorded into timer `name`
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.registry.span(name)
    }

    /// Emit a trace event (no-op when no sink is attached). A failed sink
    /// write is surfaced as a `trace.dropped` counter bump rather than
    /// swallowed.
    pub fn emit(&self, event: Event) {
        if let Some(trace) = &self.trace {
            if !trace.emit(&event) {
                self.registry.add("trace.dropped", 1);
            }
        }
    }

    /// Whether a trace sink is attached (lets callers skip building
    /// expensive events).
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether a causal span collector is attached (lets callers skip
    /// formatting span names).
    pub fn spanning(&self) -> bool {
        self.spans.is_some()
    }

    /// Open a causal span; it closes (recording its duration) when the
    /// returned guard drops. A no-op guard when no collector is attached.
    pub fn causal(&self, name: &str, cat: &str) -> CausalSpan {
        CausalSpan::open(self.spans.clone(), name, cat)
    }

    /// The attached trace sink, if any. The scheduler behind the parallel
    /// validation engine uses this to give each worker a private registry
    /// while all workers keep emitting into the session's one trace file.
    pub fn trace_handle(&self) -> Option<Arc<Trace>> {
        self.trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<Registry>();
        assert_send_sync::<Trace>();
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::disabled();
        let t2 = t.clone();
        t.count("a", 2);
        t2.count("a", 3);
        assert_eq!(t.registry().counter_value("a"), 5);
    }
}
