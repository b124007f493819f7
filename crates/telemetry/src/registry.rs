//! The metrics registry: atomic counters, log-bucketed histograms, and span
//! timers behind one `Arc`-shareable, contention-safe structure.
//!
//! Hot-path recording takes a read lock to find the metric's atomic cell and
//! then operates lock-free; only first-time registration of a name takes the
//! write lock. This keeps concurrent recording cheap for the future
//! parallel/sharded pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Number of log₂ histogram buckets: bucket `i` holds values whose bit
/// length is `i` (bucket 0 is exactly zero).
const BUCKETS: usize = 65;

struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistogramCell {
    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct TimerCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
}

/// Thread-safe metrics registry.
///
/// All recording methods take `&self`; share the registry with
/// `Arc<Registry>` (or through [`crate::Telemetry`], which clones one).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCell>>>,
    timers: RwLock<BTreeMap<String, Arc<TimerCell>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "counters",
                &self.counters.read().expect("registry lock poisoned").len(),
            )
            .field(
                "gauges",
                &self.gauges.read().expect("registry lock poisoned").len(),
            )
            .field(
                "histograms",
                &self
                    .histograms
                    .read()
                    .expect("registry lock poisoned")
                    .len(),
            )
            .field(
                "timers",
                &self.timers.read().expect("registry lock poisoned").len(),
            )
            .finish()
    }
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(cell) = map.read().expect("registry lock poisoned").get(name) {
        return Arc::clone(cell);
    }
    let mut write = map.write().expect("registry lock poisoned");
    Arc::clone(write.entry(name.to_string()).or_default())
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // -- counters ----------------------------------------------------------

    /// Add `n` to counter `name` (creating it at zero on first use).
    pub fn add(&self, name: &str, n: u64) {
        intern(&self.counters, name).fetch_add(n, Ordering::Relaxed);
    }

    /// Increment counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero when never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    // -- gauges ------------------------------------------------------------

    /// Set gauge `name` to an absolute value (creating it on first use).
    ///
    /// Gauges are *live-state* metrics — queue depth, inflight units,
    /// worker occupancy — sampled at snapshot time rather than accumulated
    /// over the run. They are therefore excluded from the deterministic
    /// snapshot view, like wall-clock timers.
    pub fn gauge_set(&self, name: &str, value: i64) {
        intern(&self.gauges, name).store(value, Ordering::Relaxed);
    }

    /// Add `n` (possibly negative) to gauge `name`.
    pub fn gauge_add(&self, name: &str, n: i64) {
        intern(&self.gauges, name).fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from gauge `name`.
    pub fn gauge_sub(&self, name: &str, n: i64) {
        self.gauge_add(name, -n);
    }

    /// Current value of gauge `name` (zero when never set).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauges
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .map(|g| g.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    // -- histograms --------------------------------------------------------

    /// Record `value` into the log-bucketed histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        intern(&self.histograms, name).record(value);
    }

    /// Record every value of `values` into histogram `name` with one
    /// lookup; an empty slice registers nothing.
    pub fn observe_all(&self, name: &str, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let cell = intern(&self.histograms, name);
        for &v in values {
            cell.record(v);
        }
    }

    // -- timers ------------------------------------------------------------

    /// Record an already-measured duration into timer `name`.
    pub fn record_duration(&self, name: &str, elapsed: Duration) {
        let cell = intern(&self.timers, name);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_nanos.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Start a span over timer `name`; elapsed time is recorded when the
    /// guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            registry: self,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Time `f` under timer `name` and return its result.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record_duration(name, start.elapsed());
        out
    }

    /// Total accumulated duration of timer `name` (zero when never
    /// recorded).
    pub fn timer_total(&self, name: &str) -> Duration {
        self.timers
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .map(|t| Duration::from_nanos(t.total_nanos.load(Ordering::Relaxed)))
            .unwrap_or(Duration::ZERO)
    }

    // -- merging -----------------------------------------------------------

    /// Fold a snapshot into this registry additively: counters and timer
    /// totals add, histogram counts/sums/buckets add. Used by the parallel
    /// validation engine to merge per-worker registries into the main one;
    /// because every operation is a commutative add, the merged result is
    /// independent of worker count and merge order.
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        for (name, v) in &snap.counters {
            self.add(name, *v);
        }
        // Gauges merge additively too: a worker's snapshot carries its
        // *contribution* to the live value (e.g. its inflight units), so
        // summing contributions is the order-independent combination.
        for (name, v) in &snap.gauges {
            self.gauge_add(name, *v);
        }
        for (name, h) in &snap.histograms {
            let cell = intern(&self.histograms, name);
            cell.count.fetch_add(h.count, Ordering::Relaxed);
            cell.sum.fetch_add(h.sum, Ordering::Relaxed);
            for (i, n) in &h.buckets {
                cell.buckets[*i as usize].fetch_add(*n, Ordering::Relaxed);
            }
        }
        for (name, t) in &snap.timers {
            let cell = intern(&self.timers, name);
            cell.count.fetch_add(t.count, Ordering::Relaxed);
            cell.total_nanos.fetch_add(t.total_nanos, Ordering::Relaxed);
        }
    }

    // -- snapshots ---------------------------------------------------------

    /// Consistent-enough point-in-time copy of every metric. ("Enough":
    /// individual atomics are read without a global pause, which is the
    /// standard tradeoff for always-on metrics.)
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i as u32, b.load(Ordering::Relaxed)))
                    .filter(|(_, n)| *n > 0)
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        let timers = self
            .timers
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, t)| {
                (
                    k.clone(),
                    TimerSnapshot {
                        count: t.count.load(Ordering::Relaxed),
                        total_nanos: t.total_nanos.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            timers,
        }
    }
}

/// Span guard; see [`Registry::span`].
pub struct Span<'a> {
    registry: &'a Registry,
    name: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.registry
            .record_duration(&self.name, self.start.elapsed());
    }
}

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs; bucket `i` covers values of
    /// bit length `i`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (zero when empty).
    ///
    /// Resolution is bounded by the log₂ buckets: the target rank's bucket
    /// is located exactly, then the value is linearly interpolated across
    /// that bucket's `[2^(i-1), 2^i - 1]` range by rank position.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in &self.buckets {
            if seen + n >= rank {
                let (lo, hi) = bucket_range(*i);
                let frac = if *n == 0 {
                    0.0
                } else {
                    (rank - seen) as f64 / *n as f64
                };
                return lo + (hi - lo) * frac;
            }
            seen += n;
        }
        bucket_range(self.buckets.last().map(|(i, _)| *i).unwrap_or(0)).1
    }

    /// Approximate median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Approximate 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Inclusive value range `[lo, hi]` covered by log₂ bucket `i` (bucket 0 is
/// exactly zero, bucket `i` holds values of bit length `i`).
fn bucket_range(i: u32) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        ((1u128 << (i - 1)) as f64, ((1u128 << i) - 1) as f64)
    }
}

/// Point-in-time copy of a timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Number of recorded spans.
    pub count: u64,
    /// Total time across spans, in nanoseconds.
    pub total_nanos: u64,
}

/// Point-in-time copy of the whole registry; serializes to the metrics-file
/// JSON consumed by `crellvm report`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge last-values by name (live state at snapshot time).
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Timers by name.
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl Snapshot {
    /// Serialize to the metrics-file JSON document.
    pub fn to_json(&self) -> String {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Value::Arr(
                        h.buckets
                            .iter()
                            .map(|(i, n)| Value::Arr(vec![Value::UInt(*i as u64), Value::UInt(*n)]))
                            .collect(),
                    );
                    let mut obj = BTreeMap::new();
                    obj.insert("count".to_string(), Value::UInt(h.count));
                    obj.insert("sum".to_string(), Value::UInt(h.sum));
                    obj.insert("buckets".to_string(), buckets);
                    (k.clone(), Value::Obj(obj))
                })
                .collect(),
        );
        let timers = Value::Obj(
            self.timers
                .iter()
                .map(|(k, t)| {
                    let mut obj = BTreeMap::new();
                    obj.insert("count".to_string(), Value::UInt(t.count));
                    obj.insert("total_nanos".to_string(), Value::UInt(t.total_nanos));
                    (k.clone(), Value::Obj(obj))
                })
                .collect(),
        );
        let mut root = BTreeMap::new();
        root.insert("counters".to_string(), counters);
        if !self.gauges.is_empty() {
            root.insert("gauges".to_string(), gauges);
        }
        root.insert("histograms".to_string(), histograms);
        root.insert("timers".to_string(), timers);
        Value::Obj(root).to_json()
    }

    /// The scheduling-independent restriction of the snapshot: drops every
    /// timer (wall-clock measurements vary run to run), every gauge (live
    /// state — queue depth, inflight units — is a property of *when* the
    /// snapshot was taken, not of the work), and the counters that
    /// describe the *schedule* or *history* rather than the *work* —
    /// `pipeline.jobs` and the `cache.*` hit/miss/eviction counters (which
    /// depend on what previous runs left in the validation cache). Everything that remains is a
    /// commutative sum over per-function work items, so it is
    /// byte-identical at any `--jobs` value and with any cache state; the
    /// determinism and cache-correctness tests compare exactly this view.
    pub fn deterministic(&self) -> Snapshot {
        let schedule_scoped = |name: &str| name == "pipeline.jobs" || name.starts_with("cache.");
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| !schedule_scoped(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: BTreeMap::new(),
            histograms: self.histograms.clone(),
            timers: BTreeMap::new(),
        }
    }

    /// Parse a metrics-file JSON document.
    pub fn from_json(input: &str) -> Result<Snapshot, String> {
        let root = crate::json::parse(input).map_err(|e| e.to_string())?;
        let mut snap = Snapshot::default();
        if let Some(counters) = root.get("counters").and_then(Value::as_obj) {
            for (k, v) in counters {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("counter `{k}` is not a u64"))?;
                snap.counters.insert(k.clone(), v);
            }
        }
        if let Some(gauges) = root.get("gauges").and_then(Value::as_obj) {
            for (k, v) in gauges {
                let v = v
                    .as_i64()
                    .ok_or_else(|| format!("gauge `{k}` is not an i64"))?;
                snap.gauges.insert(k.clone(), v);
            }
        }
        if let Some(histograms) = root.get("histograms").and_then(Value::as_obj) {
            for (k, h) in histograms {
                let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
                let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
                let mut buckets = Vec::new();
                if let Some(pairs) = h.get("buckets").and_then(Value::as_arr) {
                    for pair in pairs {
                        let pair = pair
                            .as_arr()
                            .ok_or_else(|| format!("histogram `{k}` bucket is not a pair"))?;
                        if let [i, n] = pair {
                            buckets.push((i.as_u64().unwrap_or(0) as u32, n.as_u64().unwrap_or(0)));
                        }
                    }
                }
                snap.histograms.insert(
                    k.clone(),
                    HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    },
                );
            }
        }
        if let Some(timers) = root.get("timers").and_then(Value::as_obj) {
            for (k, t) in timers {
                snap.timers.insert(
                    k.clone(),
                    TimerSnapshot {
                        count: t.get("count").and_then(Value::as_u64).unwrap_or(0),
                        total_nanos: t.get("total_nanos").and_then(Value::as_u64).unwrap_or(0),
                    },
                );
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_recording_is_lossless() {
        let registry = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        registry.incr("shared.counter");
                        registry.observe("shared.histogram", i % 97);
                        if i % 1000 == 0 {
                            // Exercise the registration path concurrently too.
                            registry.add(&format!("thread.{t}.marker"), 1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            registry.counter_value("shared.counter"),
            threads * per_thread
        );
        let snap = registry.snapshot();
        let hist = &snap.histograms["shared.histogram"];
        assert_eq!(hist.count, threads * per_thread);
        let bucket_total: u64 = hist.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(bucket_total, hist.count);
    }

    #[test]
    fn gauges_set_add_sub_and_snapshot() {
        let r = Registry::new();
        r.gauge_set("serve.queue_depth", 5);
        r.gauge_add("serve.queue_depth", 3);
        r.gauge_sub("serve.queue_depth", 6);
        assert_eq!(r.gauge_value("serve.queue_depth"), 2);
        r.gauge_sub("serve.inflight", 1);
        assert_eq!(r.gauge_value("serve.inflight"), -1);
        assert_eq!(r.gauge_value("never.touched"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.gauges.get("serve.queue_depth"), Some(&2));
        assert_eq!(snap.gauges.get("serve.inflight"), Some(&-1));
        // JSON roundtrip carries gauges (including negative values).
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // The deterministic view drops live state.
        assert!(snap.deterministic().gauges.is_empty());
    }

    #[test]
    fn gauge_merge_is_additive() {
        let mk = |v: i64| {
            let r = Registry::new();
            r.gauge_set("pool.inflight", v);
            r.snapshot()
        };
        let merged = Registry::new();
        merged.merge_snapshot(&mk(3));
        merged.merge_snapshot(&mk(-1));
        merged.merge_snapshot(&mk(4));
        assert_eq!(merged.gauge_value("pool.inflight"), 6);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let registry = Registry::new();
        registry.add("a.b", 7);
        registry.observe("sizes", 0);
        registry.observe("sizes", 3);
        registry.observe("sizes", 1024);
        registry.record_duration("time.pcheck", Duration::from_micros(1500));
        let snap = registry.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let registry = Registry::new();
        {
            let _span = registry.span("time.block");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(registry.timer_total("time.block") >= Duration::from_millis(1));
        assert_eq!(registry.snapshot().timers["time.block"].count, 1);
    }

    #[test]
    fn merge_snapshot_is_additive_and_order_independent() {
        // Three "workers" record disjoint and overlapping metrics…
        let mk = |base: u64| {
            let r = Registry::new();
            r.add("pipeline.validated", base);
            r.add("checker.rule.transitivity", base * 2);
            r.observe("checker.assertion_preds", base);
            r.observe("checker.assertion_preds", base + 1);
            r.record_duration("time.pcheck", Duration::from_nanos(base * 100));
            r.snapshot()
        };
        let snaps = [mk(1), mk(2), mk(3)];

        let forward = Registry::new();
        for s in &snaps {
            forward.merge_snapshot(s);
        }
        let backward = Registry::new();
        for s in snaps.iter().rev() {
            backward.merge_snapshot(s);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
        assert_eq!(forward.counter_value("pipeline.validated"), 6);
        assert_eq!(forward.counter_value("checker.rule.transitivity"), 12);
        let merged = forward.snapshot();
        assert_eq!(merged.histograms["checker.assertion_preds"].count, 6);
        assert_eq!(
            merged.histograms["checker.assertion_preds"].sum,
            1 + 2 + 2 + 3 + 3 + 4
        );
        assert_eq!(merged.timers["time.pcheck"].count, 3);
        assert_eq!(merged.timers["time.pcheck"].total_nanos, 600);
    }

    #[test]
    fn deterministic_view_drops_schedule_scoped_metrics() {
        let r = Registry::new();
        r.add("pipeline.validated", 4);
        r.add("pipeline.jobs", 8);
        r.add("cache.hits", 11);
        r.add("cache.misses", 2);
        r.observe("checker.assertion_preds", 5);
        r.record_duration("time.orig", Duration::from_millis(2));
        let det = r.snapshot().deterministic();
        assert_eq!(det.counters.get("pipeline.validated"), Some(&4));
        assert!(!det.counters.contains_key("pipeline.jobs"));
        assert!(!det.counters.keys().any(|k| k.starts_with("cache.")));
        assert!(det.timers.is_empty());
        assert!(det.histograms.contains_key("checker.assertion_preds"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let registry = Registry::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            registry.observe("h", v);
        }
        let snap = registry.snapshot();
        let buckets: BTreeMap<u32, u64> = snap.histograms["h"].buckets.iter().copied().collect();
        assert_eq!(buckets[&0], 1); // 0
        assert_eq!(buckets[&1], 1); // 1
        assert_eq!(buckets[&2], 2); // 2, 3
        assert_eq!(buckets[&3], 2); // 4, 7
        assert_eq!(buckets[&4], 1); // 8
        assert_eq!(buckets[&10], 1); // 512..1023
        assert_eq!(buckets[&11], 1); // 1024..2047
    }
}
