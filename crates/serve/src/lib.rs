//! # crellvm-serve
//!
//! Validation-as-a-service: a long-running daemon that accepts
//! translation-unit validation requests over a loopback HTTP/1.1 socket
//! and runs them on the work-stealing validation engine, behind a bounded
//! admission queue with backpressure and in front of the shared
//! content-addressed verdict cache (tenant-namespaced keys).
//!
//! The headline is the **observability plane**, which lives entirely
//! outside the validated core:
//!
//! * `GET /metrics` — live OpenMetrics: queue depth / inflight / pool
//!   gauges, per-tenant request and verdict counters, cumulative
//!   validation-engine families, and latency histograms.
//! * `GET /healthz`, `GET /readyz` — liveness vs. admission readiness
//!   (readiness drops while draining or saturated).
//! * Per-request **trace ids** minted at admission, returned in
//!   `X-Crellvm-Trace-Id`, written to the structured JSON-lines access
//!   log, and stamped onto the root span of the request's causal tree so
//!   `crellvm report --format chrome-trace` can reconstruct any request
//!   end to end from the span log.
//! * [`top`] — the `crellvm top` fleet view, fed by nothing but a
//!   `/metrics` scrape.
//!
//! The serving layer never re-implements validation: requests run
//! through the exact engine `crellvm opt` uses and verdict lines render
//! through the same formatter, so a `text/plain` response is
//! byte-identical to offline output at any parallelism, warm or cold
//! cache.

#![forbid(unsafe_code)]

pub mod http;
pub mod server;
pub mod top;

pub use server::{start, ServeConfig, ServerHandle};
