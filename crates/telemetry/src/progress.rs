//! Live heartbeats for long validation and fuzzing runs.
//!
//! A [`Progress`] is a bundle of atomic counters (items done/total, cache
//! hits/misses, soundness alarms) plus an optional ticker thread that
//! renders them to **stderr** at a fixed period — human one-liners or
//! JSON-lines, selected by [`ProgressMode`]. Keeping the heartbeat on
//! stderr and entirely outside the metrics [`Registry`](crate::Registry)
//! means a `--progress` run produces byte-identical stdout, metrics
//! snapshots, and span trees to a silent one: the deterministic view is
//! never perturbed by observability of the run itself.
//!
//! The engine taps are push-only and lock-free ([`Progress::add_done`]
//! etc. are relaxed atomic adds), so workers never contend on the
//! reporter.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How heartbeat lines are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// One human-readable line per tick.
    Human,
    /// One JSON object per tick (machine-consumable JSON lines).
    Json,
}

impl ProgressMode {
    /// Parse a `--progress` flag value.
    pub fn parse(name: &str) -> Option<ProgressMode> {
        match name {
            "human" => Some(ProgressMode::Human),
            "json" => Some(ProgressMode::Json),
            _ => None,
        }
    }
}

/// Shared progress state: counters the engines push into and a ticker
/// that periodically renders them.
pub struct Progress {
    mode: ProgressMode,
    label: String,
    show_alarms: bool,
    start: Instant,
    total: AtomicU64,
    done: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    alarms: AtomicU64,
    stop: AtomicBool,
    ticker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Progress")
            .field("mode", &self.mode)
            .field("label", &self.label)
            .field("done", &self.done.load(Ordering::Relaxed))
            .field("total", &self.total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Progress {
    /// A fresh reporter. `total` is the expected item count (0 when
    /// unknown; the percentage and ETA columns are omitted then).
    pub fn new(mode: ProgressMode, label: impl Into<String>, total: u64) -> Arc<Progress> {
        Arc::new(Progress {
            mode,
            label: label.into(),
            show_alarms: false,
            start: Instant::now(),
            total: AtomicU64::new(total),
            done: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            ticker: Mutex::new(None),
        })
    }

    /// A reporter that renders the soundness-alarm column (fuzz runs).
    pub fn new_with_alarms(
        mode: ProgressMode,
        label: impl Into<String>,
        total: u64,
    ) -> Arc<Progress> {
        Arc::new(Progress {
            mode,
            label: label.into(),
            show_alarms: true,
            start: Instant::now(),
            total: AtomicU64::new(total),
            done: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            ticker: Mutex::new(None),
        })
    }

    /// Record `n` finished items.
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a validation-cache hit.
    pub fn add_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a validation-cache miss.
    pub fn add_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` soundness alarms.
    pub fn add_alarms(&self, n: u64) {
        self.alarms.fetch_add(n, Ordering::Relaxed);
    }

    /// Spawn the ticker thread, emitting one heartbeat line to stderr
    /// every `period` until [`Progress::finish`]. Idempotent: a second
    /// call is a no-op.
    pub fn start_ticker(self: &Arc<Self>, period: Duration) {
        let mut guard = self.ticker.lock().expect("progress ticker lock");
        if guard.is_some() {
            return;
        }
        let me = Arc::clone(self);
        *guard = Some(std::thread::spawn(move || {
            while !me.stop.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                if me.stop.load(Ordering::Relaxed) {
                    break;
                }
                eprintln!("{}", me.line());
            }
        }));
    }

    /// Stop the ticker (joining it) and emit one final heartbeat line, so
    /// even a run shorter than the tick period reports once.
    pub fn finish(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.ticker.lock().expect("progress ticker lock").take() {
            let _ = handle.join();
        }
        eprintln!("{}", self.line());
    }

    /// The current heartbeat line.
    pub fn line(&self) -> String {
        self.line_at(self.start.elapsed())
    }

    /// The heartbeat line for an explicit elapsed time (tests).
    pub fn line_at(&self, elapsed: Duration) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let alarms = self.alarms.load(Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta_s = if total > done && rate > 0.0 {
            Some((total - done) as f64 / rate)
        } else {
            None
        };
        match self.mode {
            ProgressMode::Human => {
                let mut out = format!("[{}] {done}", self.label);
                if total > 0 {
                    let pct = 100.0 * done as f64 / total as f64;
                    out.push_str(&format!("/{total} ({pct:.0}%)"));
                }
                out.push_str(&format!(" | {rate:.1}/s"));
                match eta_s {
                    Some(eta) => out.push_str(&format!(" | eta {eta:.0}s")),
                    None => out.push_str(" | eta -"),
                }
                if hits + misses > 0 {
                    let cache = 100.0 * hits as f64 / (hits + misses) as f64;
                    out.push_str(&format!(" | cache {cache:.0}%"));
                }
                if self.show_alarms {
                    out.push_str(&format!(" | alarms {alarms}"));
                }
                out
            }
            ProgressMode::Json => {
                use crate::json::Value;
                use std::collections::BTreeMap;
                let mut obj = BTreeMap::new();
                obj.insert("label".to_string(), Value::Str(self.label.clone()));
                obj.insert("done".to_string(), Value::UInt(done));
                obj.insert("total".to_string(), Value::UInt(total));
                obj.insert("rate_per_s".to_string(), Value::Float(rate));
                obj.insert(
                    "eta_s".to_string(),
                    match eta_s {
                        Some(eta) => Value::Float(eta),
                        None => Value::Null,
                    },
                );
                obj.insert(
                    "elapsed_ms".to_string(),
                    Value::UInt(elapsed.as_millis().min(u64::MAX as u128) as u64),
                );
                obj.insert("cache_hits".to_string(), Value::UInt(hits));
                obj.insert("cache_misses".to_string(), Value::UInt(misses));
                if self.show_alarms {
                    obj.insert("alarms".to_string(), Value::UInt(alarms));
                }
                Value::Obj(obj).to_json()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_line_renders_rate_eta_and_cache() {
        let p = Progress::new(ProgressMode::Human, "validate", 100);
        p.add_done(25);
        p.add_cache_hit();
        p.add_cache_hit();
        p.add_cache_hit();
        p.add_cache_miss();
        let line = p.line_at(Duration::from_secs(5));
        assert!(line.starts_with("[validate] 25/100 (25%)"), "{line}");
        assert!(line.contains("5.0/s"), "{line}");
        assert!(line.contains("eta 15s"), "{line}");
        assert!(line.contains("cache 75%"), "{line}");
        assert!(!line.contains("alarms"), "{line}");
    }

    #[test]
    fn json_line_is_parseable_and_carries_alarms() {
        let p = Progress::new_with_alarms(ProgressMode::Json, "fuzz", 64);
        p.add_done(32);
        p.add_alarms(2);
        let line = p.line_at(Duration::from_secs(2));
        let v = crate::json::parse(&line).expect("heartbeat is valid JSON");
        assert_eq!(v.get("done").and_then(crate::json::Value::as_u64), Some(32));
        assert_eq!(
            v.get("alarms").and_then(crate::json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("label").and_then(crate::json::Value::as_str),
            Some("fuzz")
        );
    }

    #[test]
    fn unknown_total_omits_percentage_and_eta() {
        let p = Progress::new(ProgressMode::Human, "check", 0);
        p.add_done(3);
        let line = p.line_at(Duration::from_secs(1));
        assert!(line.starts_with("[check] 3 |"), "{line}");
        assert!(line.contains("eta -"), "{line}");
    }

    #[test]
    fn ticker_finishes_with_a_final_line() {
        let p = Progress::new(ProgressMode::Human, "t", 1);
        p.start_ticker(Duration::from_millis(5));
        p.add_done(1);
        p.finish(); // must join without deadlock and emit the final line
        assert!(p.line().contains("1/1"));
    }
}
