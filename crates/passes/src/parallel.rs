//! The parallel validation engine: per-function (pass → proof → check)
//! fan-out over the std-only scoped scheduler of [`crate::schedule`].
//!
//! The paper's validation unit is one function under one pass, and units
//! are independent — embarrassingly parallel. This module exploits that:
//!
//! * **Work items** are function indices, handed out largest first:
//!   functions are ranked by statement count and every worker takes the
//!   next rank from one shared cursor, so the expensive functions start
//!   early and no worker idles while units remain.
//! * **No shared mutable state on the hot path.** Each worker records into
//!   its own private [`Registry`] and reuses its own
//!   [`CodecScratch`](crate::pipeline::CodecScratch) buffers for the io
//!   phase. Workers share only the immutable input module, the optional
//!   [`ValidationCache`], and, when tracing, the append-only trace sink.
//! * **Incremental validation.** With [`ParallelOptions::cache`] set, the
//!   scheduler consults a content-addressed [`ValidationCache`] before
//!   dispatching a unit: a hit replays the stored verdict and the unit's
//!   deterministic metrics snapshot instead of running
//!   PCal / I-O / PCheck, and decodes nothing. A [`ValidationRun`] carries
//!   the function on to the next pass as the hit's entry, whose stored
//!   target digest keys that pass; the body is decoded from the entry
//!   only when something needs it. Misses run with a per-item registry so
//!   the unit's metric delta can be captured into the new cache entry —
//!   which is what makes a warm run's `Snapshot::deterministic` view
//!   byte-identical to a cold one. Only the `cache.*` counters (hits,
//!   misses, evictions, materializations: schedule- and history-scoped,
//!   excluded from the deterministic view) differ.
//! * **Deterministic merging.** Results are scattered back by function
//!   index, so [`PipelineReport`] step order is the module's function
//!   order at any thread count. Worker registries are merged in worker
//!   order with [`Registry::merge_snapshot`]; every measurement metric is
//!   a commutative per-item sum, so the merged values are independent of
//!   scheduling. The only schedule-dependent metrics are wall-clock
//!   timers and `pipeline.jobs` — exactly the set
//!   [`Snapshot::deterministic`] excludes.
//!
//! [`Snapshot::deterministic`]: crellvm_telemetry::Snapshot::deterministic

use crate::config::PassConfig;
use crate::pipeline::{
    run_pass_function, CodecScratch, PipelineReport, ProofFormat, SpanItem, StepOutcome,
    StepRecord, PASS_ORDER,
};
use crellvm_core::cache::{OUTCOME_FAILED, OUTCOME_NOT_SUPPORTED, OUTCOME_VALID};
use crellvm_core::{
    proof_from_bytes, proof_to_bytes_v2, serialize_bin, validate_with_telemetry, CacheEntry,
    CacheKey, CheckerConfig, ProofUnit, ValidationCache, ValidationError, Verdict,
};
use crellvm_ir::{Function, Module};
use crellvm_telemetry::forensics::ForensicBundle;
use crellvm_telemetry::json::Value;
use crellvm_telemetry::{Progress, Registry, Snapshot, SpanCollector, SpanNode, Telemetry};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options of the parallel validation engine.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Number of workers to fan validation out over; the calling thread
    /// is worker 0, so `1` validates inline without spawning. The engine
    /// never uses more workers than there are functions.
    pub jobs: usize,
    /// Proof wire format for the I/O phase (wire format v2 by default).
    pub format: ProofFormat,
    /// Collect causal spans (module → function → pass → phase →
    /// proof-command) into [`PipelineReport::span_items`].
    pub spans: bool,
    /// Build a replayable [`ForensicBundle`] for every failed step into
    /// [`PipelineReport::bundles`].
    pub forensics: bool,
    /// Content-addressed validation cache consulted before dispatching a
    /// unit. Ignored while `spans` or `forensics` are on — those need the
    /// unit to actually run.
    pub cache: Option<Arc<ValidationCache>>,
    /// Tenant namespace layered over every cache key (see
    /// [`CacheKey::namespaced`]). Empty (the default) keeps the offline
    /// single-tenant keys; the serving daemon sets it per request so
    /// tenants sharing one cache store never observe each other's
    /// verdicts.
    pub cache_namespace: String,
    /// Live-state gauge tap: when set, the engine maintains
    /// `pool.workers` (the fan-out width) and `pool.inflight` (units
    /// being validated right now) gauges in this registry. This is a
    /// *shared external* registry — typically the serving daemon's — not
    /// the per-worker measurement registries, so live observability never
    /// perturbs the deterministic metric view.
    pub pool_gauges: Option<Arc<Registry>>,
    /// Live heartbeat reporter (`--progress`). Workers push item and
    /// cache-outcome counts into it lock-free; it renders to stderr only,
    /// so the deterministic metrics/span view is untouched.
    pub progress: Option<Arc<Progress>>,
    /// Also run each pass without proof generation (the paper's Orig)
    /// and time it into [`PipelineReport::time_orig`] and `time.orig`.
    /// Only the figure benches ask for this column; `crellvm opt`, the
    /// daemon and the benchmark leave it off and run each pass once per
    /// unit. Where it runs, its function is compared with PCal's target
    /// (the paper's Fig 1 `llvm-diff` step) into
    /// [`PipelineReport::orig_mismatches`].
    pub orig: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: default_jobs(),
            format: ProofFormat::default(),
            spans: false,
            forensics: false,
            cache: None,
            cache_namespace: String::new(),
            pool_gauges: None,
            progress: None,
            orig: false,
        }
    }
}

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// One function as a [`ValidationRun`] carries it from pass to pass.
// A run holds one short vector of slots per pass; boxing the unit would
// add an allocation per validated unit to save that vector's space.
#[allow(clippy::large_enum_variant)]
enum Slot {
    /// The run's input function: no pass has run on it yet.
    Input,
    /// The unit of the pass that last ran on the function: `unit.tgt` is
    /// the body, and with a cache on, `tgt_digest` its
    /// [`CacheKey::function_digest`].
    Ran {
        unit: ProofUnit,
        tgt_digest: Option<u64>,
    },
    /// The last pass hit the cache: the body stays encoded in the entry's
    /// proof until something needs it, and the entry's target digest keys
    /// the next pass.
    Hit { proof: Vec<u8>, tgt_digest: u64 },
}

/// Everything one work item produces: how the function moves on to the
/// next pass, the step record, the four Fig 6/8 time columns, and — when
/// enabled — whether Orig's function differed from PCal's target, the
/// item's causal span subtree and the forensic bundle of a failed check.
struct ItemResult {
    slot: Slot,
    record: StepRecord,
    orig: Duration,
    orig_mismatch: bool,
    pcal: Duration,
    io: Duration,
    pcheck: Duration,
    span: Option<SpanNode>,
    bundle: Option<ForensicBundle>,
}

/// One work item: the PCal / I-O / PCheck protocol for one function under
/// one pass, preceded by Orig when [`ParallelOptions::orig`] asks for it,
/// recording into the worker's telemetry.
///
/// When span collection is on, the item gets a *fresh* [`SpanCollector`]
/// — never shared with another thread — so recording stays lock-free and
/// the finished subtree can travel back with the result for deterministic
/// assembly.
fn process_item(
    pass: &str,
    f: &Function,
    config: &PassConfig,
    checker: &CheckerConfig,
    opts: &ParallelOptions,
    tel: &Telemetry,
    scratch: &mut CodecScratch,
) -> ItemResult {
    let collector = if opts.spans {
        Some(Arc::new(SpanCollector::new()))
    } else {
        None
    };
    let tel = &match &collector {
        Some(c) => tel.clone().with_spans(Arc::clone(c)),
        None => tel.clone(),
    };
    let pass_span = tel.causal(pass, "pass");
    pass_span.field("func", Value::Str(f.name.clone()));

    // Orig: the bare pass, proof generation genuinely disabled, telemetry
    // disabled so domain counters are not double-counted.
    let orig_run = opts.orig.then(|| {
        let t0 = Instant::now();
        let _g = tel.causal("orig", "phase");
        let tgt = run_pass_function(pass, f, &config.without_proofs(), &Telemetry::disabled()).tgt;
        let orig = t0.elapsed();
        tel.registry().record_duration("time.orig", orig);
        (tgt, orig)
    });

    let t1 = Instant::now();
    let unit = {
        let _g = tel.causal("pcal", "phase");
        run_pass_function(pass, f, config, tel)
    };
    let pcal = t1.elapsed();
    tel.registry().record_duration("time.pcal", pcal);
    let (orig, orig_mismatch) = match orig_run {
        Some((tgt, orig)) => (orig, tgt != unit.tgt),
        None => (Duration::ZERO, false),
    };

    tel.count("pipeline.steps", 1);
    let t2 = Instant::now();
    let (unit2, wire_len) = {
        let _g = tel.causal("io", "phase");
        let wire_len = opts.format.encode_into(&unit, scratch);
        tel.registry()
            .record_duration("time.io.encode", t2.elapsed());
        let td = Instant::now();
        let unit2 = opts.format.decode_scratch(scratch);
        tel.registry()
            .record_duration("time.io.decode", td.elapsed());
        (unit2, wire_len)
    };
    let io = t2.elapsed();
    tel.registry().record_duration("time.io", io);
    tel.observe("pipeline.proof_bytes", wire_len as u64);
    tel.count(opts.format.bytes_counter(), wire_len as u64);

    let t3 = Instant::now();
    let mut failure: Option<ValidationError> = None;
    let outcome = {
        let _g = tel.causal("pcheck", "phase");
        match validate_with_telemetry(&unit2, checker, tel) {
            Ok(Verdict::Valid) => {
                tel.count("pipeline.validated", 1);
                StepOutcome::Valid
            }
            Ok(Verdict::NotSupported(r)) => {
                tel.count("pipeline.not_supported", 1);
                StepOutcome::NotSupported(r)
            }
            Err(e) => {
                tel.count("pipeline.failed", 1);
                let msg = e.to_string();
                failure = Some(e);
                StepOutcome::Failed(msg)
            }
        }
    };
    let pcheck = t3.elapsed();
    tel.registry().record_duration("time.pcheck", pcheck);

    // Forensics run outside the PCheck timing window (minimization
    // re-validates the proof many times) with disabled telemetry inside
    // `forensic_bundle`, so the Fig 6/8 columns and the deterministic
    // metric view stay untouched apart from the bundle counter.
    let bundle = match &failure {
        Some(e) if opts.forensics => {
            tel.count("forensics.bundles", 1);
            let mut b = crellvm_core::forensics::forensic_bundle(&unit2, e, checker);
            b.wire_format = opts.format.name().to_string();
            Some(b)
        }
        _ => None,
    };

    pass_span.field("proof_bytes", Value::UInt(wire_len as u64));
    pass_span.field("verdict", Value::Str(outcome.tag().to_string()));
    drop(pass_span);
    let span = collector.as_ref().and_then(|c| c.take_roots().pop());

    let record = StepRecord {
        pass: pass.to_string(),
        func: unit.src.name.clone(),
        outcome,
        proof_bytes: wire_len,
    };
    ItemResult {
        slot: Slot::Ran {
            unit,
            tgt_digest: None,
        },
        record,
        orig,
        orig_mismatch,
        pcal,
        io,
        pcheck,
        span,
        bundle,
    }
}

/// The cache-entry verdict encoding of a step outcome.
fn outcome_to_entry(outcome: &StepOutcome) -> (u8, String) {
    match outcome {
        StepOutcome::Valid => (OUTCOME_VALID, String::new()),
        StepOutcome::Failed(r) => (OUTCOME_FAILED, r.clone()),
        StepOutcome::NotSupported(r) => (OUTCOME_NOT_SUPPORTED, r.clone()),
    }
}

/// Decode a cache entry's verdict tag back into a step outcome (`None`
/// for a tag from a future version — treated as a miss).
fn entry_to_outcome(entry: &CacheEntry) -> Option<StepOutcome> {
    match entry.outcome {
        OUTCOME_VALID => Some(StepOutcome::Valid),
        OUTCOME_FAILED => Some(StepOutcome::Failed(entry.reason.clone())),
        OUTCOME_NOT_SUPPORTED => Some(StepOutcome::NotSupported(entry.reason.clone())),
        _ => None,
    }
}

/// [`CacheKey::function_digest`] of a function's key bytes.
fn digest_of(f: &Function) -> u64 {
    CacheKey::function_digest(&serialize_bin::to_bytes(f).expect("function serializes"))
}

/// Replay a cache hit: restore the verdict and fold the unit's stored
/// deterministic metric delta into the worker registry — which is what
/// makes a warm run's `Snapshot::deterministic` view byte-identical to a
/// cold one's. Nothing is decoded: the function moves on as the entry's
/// proof and target digest. Returns `None` when the verdict or the
/// metrics do not parse (version skew), in which case the caller falls
/// through to a miss.
fn replay_cache_hit(
    pass: &str,
    func: &str,
    entry: CacheEntry,
    tel: &Telemetry,
) -> Option<ItemResult> {
    let t = Instant::now();
    let outcome = entry_to_outcome(&entry)?;
    let stored = Snapshot::from_json(&entry.metrics_json).ok()?;
    tel.count("cache.hits", 1);
    tel.registry().merge_snapshot(&stored);
    let io = t.elapsed();
    tel.registry().record_duration("time.io", io);
    let record = StepRecord {
        pass: pass.to_string(),
        func: func.to_string(),
        outcome,
        proof_bytes: entry.proof_bytes as usize,
    };
    Some(ItemResult {
        slot: Slot::Hit {
            proof: entry.proof,
            tgt_digest: entry.tgt_digest,
        },
        record,
        orig: Duration::ZERO,
        orig_mismatch: false,
        pcal: Duration::ZERO,
        io,
        pcheck: Duration::ZERO,
        span: None,
        bundle: None,
    })
}

/// A validation run over one module, one pass at a time: the engine behind
/// `crellvm opt`, the serving daemon and [`run_pipeline_parallel`].
///
/// [`ValidationRun::run_pass`] validates every function under one pass,
/// fanned out over `opts.jobs` workers, and carries each function on to
/// the next pass as either its body or, after a cache hit, the hit's
/// entry. The key of the next pass starts from the entry's target digest,
/// so a function that stays warm is never decoded. A body is decoded from
/// its entry ("materialized", counted as `cache.materialized`) only when
/// something needs it: a later pass that misses,
/// [`ValidationRun::proof`], or [`ValidationRun::into_module`].
///
/// Every deterministic observable is independent of the worker count:
/// the transformed functions, the step records in function order, and the
/// measurement counters and histograms. Per-worker registries are merged
/// into `tel`'s registry after each pass's workers join.
pub struct ValidationRun<'a> {
    input: &'a Module,
    config: &'a PassConfig,
    checker: &'a CheckerConfig,
    opts: &'a ParallelOptions,
    tel: &'a Telemetry,
    /// `opts.cache`, unless spans or forensics keep it aside.
    cache: Option<&'a ValidationCache>,
    /// The passes run so far, in order.
    passes: Vec<String>,
    /// One slot per input function, in module order.
    slots: Vec<Slot>,
}

impl<'a> ValidationRun<'a> {
    /// A run over `input` that has not run any pass yet.
    pub fn new(
        input: &'a Module,
        config: &'a PassConfig,
        checker: &'a CheckerConfig,
        opts: &'a ParallelOptions,
        tel: &'a Telemetry,
    ) -> ValidationRun<'a> {
        // Spans and forensics need the unit to actually run (they capture
        // its live execution), so the cache stands aside while either is
        // on.
        let cache = opts
            .cache
            .as_deref()
            .filter(|_| !opts.spans && !opts.forensics);
        if cache.is_some() {
            // Present even at zero: a warm run shows it decoded nothing.
            tel.count("cache.materialized", 0);
        }
        ValidationRun {
            input,
            config,
            checker,
            opts,
            tel,
            cache,
            passes: Vec::new(),
            slots: input.functions.iter().map(|_| Slot::Input).collect(),
        }
    }

    /// Run one pass over every function with full validation
    /// instrumentation, appending the step records (in function order,
    /// at any worker count) and time columns to `report`.
    pub fn run_pass(&mut self, pass: &str, report: &mut PipelineReport) {
        let n = self.input.functions.len();
        let workers = self.opts.jobs.max(1).min(n.max(1));

        // Live pool gauges for an external observer (the serving daemon's
        // /metrics): fan-out width while the pass runs and inflight units
        // per item. Recorded into the shared gauge registry only — never
        // into the per-worker measurement registries — so the
        // deterministic view is untouched.
        if let Some(g) = &self.opts.pool_gauges {
            g.gauge_set("pool.workers", workers as i64);
        }

        // Fan out over the shared scheduler (see `crate::schedule`):
        // functions are handed out largest first, each worker records into
        // its own registry (merged into `tel`'s on return) and reuses its
        // own codec scratch, and results come back in function order. The
        // calling thread is worker 0, so at one worker every item runs
        // inline on it.
        let prev = std::mem::take(&mut self.slots);
        let run = &*self;
        let results = crate::schedule::fan_out(
            n,
            workers,
            self.tel,
            |i| match &prev[i] {
                Slot::Ran { unit, .. } => unit.tgt.stmt_count(),
                Slot::Input | Slot::Hit { .. } => run.input.functions[i].stmt_count(),
            },
            |tel, scratch: &mut CodecScratch, i| {
                if let Some(g) = &run.opts.pool_gauges {
                    g.gauge_add("pool.inflight", 1);
                }
                let result = run.process_slot(pass, i, &prev[i], tel, scratch);
                if let Some(g) = &run.opts.pool_gauges {
                    g.gauge_sub("pool.inflight", 1);
                }
                if let Some(p) = &run.opts.progress {
                    p.add_done(1);
                }
                result
            },
        );

        // Fold the results in function order: a deterministic report
        // regardless of which worker ran what.
        let mut slots = Vec::with_capacity(n);
        for (f, result) in self.input.functions.iter().zip(results) {
            report.time_orig += result.orig;
            report.orig_mismatches += usize::from(result.orig_mismatch);
            report.time_pcal += result.pcal;
            report.time_io += result.io;
            report.time_pcheck += result.pcheck;
            if let Some(root) = result.span {
                report.span_items.push(SpanItem {
                    pass: pass.to_string(),
                    func: f.name.clone(),
                    root,
                });
            }
            if let Some(bundle) = result.bundle {
                report.bundles.push(bundle);
            }
            report.steps.push(result.record);
            slots.push(result.slot);
        }
        self.slots = slots;
        self.passes.push(pass.to_string());
    }

    /// Validate function `i` under `pass`, given the slot the previous
    /// pass left. With a cache on, the key starts from the function's
    /// digest, which only an input function needs encoding for; a hit
    /// replays its entry without decoding anything, and a miss decodes the
    /// body a previous hit left encoded.
    fn process_slot(
        &self,
        pass: &str,
        i: usize,
        prev: &Slot,
        tel: &Telemetry,
        scratch: &mut CodecScratch,
    ) -> ItemResult {
        let input = &self.input.functions[i];
        let lookup = self.cache.map(|cache| {
            let digest = match prev {
                Slot::Input => digest_of(input),
                Slot::Ran { unit, tgt_digest } => {
                    tgt_digest.unwrap_or_else(|| digest_of(&unit.tgt))
                }
                Slot::Hit { tgt_digest, .. } => *tgt_digest,
            };
            let key = CacheKey::for_function(
                digest,
                pass,
                self.config.cache_token(),
                self.checker.cache_token(),
                self.opts.format.wire_token(),
            )
            .namespaced(&self.opts.cache_namespace);
            (cache, key)
        });
        if let Some((cache, key)) = lookup {
            let hit = cache
                .get(key)
                .and_then(|entry| replay_cache_hit(pass, &input.name, entry, tel));
            if let Some(hit) = hit {
                if let Some(p) = &self.opts.progress {
                    p.add_cache_hit();
                }
                return hit;
            }
            tel.count("cache.misses", 1);
            if let Some(p) = &self.opts.progress {
                p.add_cache_miss();
            }
        }
        let decoded;
        let f = match prev {
            Slot::Input => input,
            Slot::Ran { unit, .. } => &unit.tgt,
            Slot::Hit { proof, .. } => {
                decoded = self.materialize(i, proof, tel);
                &decoded.tgt
            }
        };
        match lookup {
            Some((cache, key)) => self.process_miss(pass, f, tel, scratch, cache, key),
            None => process_item(pass, f, self.config, self.checker, self.opts, tel, scratch),
        }
    }

    /// [`process_item`] for a unit the cache missed: it runs against a
    /// fresh per-item registry so the unit's deterministic metric delta
    /// can be captured verbatim into the new entry, then folds that delta
    /// into the worker registry — a cold cached run records exactly what
    /// an uncached run does. The entry also records the digest of the
    /// unit's target function, which the next pass's key starts from.
    fn process_miss(
        &self,
        pass: &str,
        f: &Function,
        tel: &Telemetry,
        scratch: &mut CodecScratch,
        cache: &ValidationCache,
        key: CacheKey,
    ) -> ItemResult {
        let item_registry = Arc::new(Registry::new());
        let mut itel = Telemetry::with_registry(Arc::clone(&item_registry));
        if let Some(trace) = tel.trace_handle() {
            itel = itel.with_trace(trace);
        }
        let mut result = process_item(
            pass,
            f,
            self.config,
            self.checker,
            self.opts,
            &itel,
            scratch,
        );
        let snapshot = item_registry.snapshot();
        tel.registry().merge_snapshot(&snapshot);
        let Slot::Ran { unit, tgt_digest } = &mut result.slot else {
            unreachable!("process_item always runs the unit")
        };
        let (tag, reason) = outcome_to_entry(&result.record.outcome);
        let mut entry = CacheEntry::new(tag, reason);
        entry.proof = match self.opts.format {
            // The I/O phase left this unit's v2 bytes in the scratch buffer.
            ProofFormat::Binary => scratch.buf.clone(),
            ProofFormat::Json => proof_to_bytes_v2(unit).unwrap_or_default(),
        };
        entry.tgt_digest = digest_of(&unit.tgt);
        *tgt_digest = Some(entry.tgt_digest);
        entry.proof_bytes = result.record.proof_bytes as u64;
        entry.metrics_json = snapshot.deterministic().to_json();
        if cache.insert(key, entry) {
            tel.count("cache.evictions", 1);
        }
        result
    }

    /// Decode the unit a hit left encoded for function `i` (the last pass
    /// run on it), booking `cache.materialized` and `time.io.decode`.
    ///
    /// The cache container and its checksum already passed, so a proof
    /// that still does not decode is a hostile or version-skewed entry.
    /// Like any bad entry it must not be an error: the unit is re-derived
    /// from the run's own input instead, by running the passes so far
    /// with no cache (and no telemetry — their metrics were merged from
    /// the entries).
    fn materialize(&self, i: usize, proof: &[u8], tel: &Telemetry) -> ProofUnit {
        let t = Instant::now();
        if let Ok(unit) = proof_from_bytes(proof) {
            tel.count("cache.materialized", 1);
            let decode = t.elapsed();
            tel.registry().record_duration("time.io", decode);
            tel.registry().record_duration("time.io.decode", decode);
            return unit;
        }
        let quiet = Telemetry::disabled();
        let mut passes = self.passes.iter();
        let first = passes.next().expect("a hit follows a pass");
        let mut unit = run_pass_function(first, &self.input.functions[i], self.config, &quiet);
        for pass in passes {
            unit = run_pass_function(pass, &unit.tgt, self.config, &quiet);
        }
        unit
    }

    /// The proof unit of function `i` under the last pass run, decoded
    /// (and its body kept) if that pass hit the cache.
    ///
    /// # Panics
    ///
    /// If no pass has run yet.
    pub fn proof(&mut self, i: usize) -> &ProofUnit {
        if let Slot::Hit { proof, tgt_digest } = &self.slots[i] {
            let tgt_digest = Some(*tgt_digest);
            let unit = self.materialize(i, proof, self.tel);
            self.slots[i] = Slot::Ran { unit, tgt_digest };
        }
        match &self.slots[i] {
            Slot::Ran { unit, .. } => unit,
            _ => panic!("no pass has run"),
        }
    }

    /// The proof of function `i` under the last pass run, in wire format
    /// v2: a hit's entry bytes as stored, any other unit encoded afresh.
    ///
    /// # Errors
    ///
    /// Effectively unreachable (see `proof_to_bytes_v2`).
    ///
    /// # Panics
    ///
    /// If no pass has run yet.
    pub fn proof_bytes_v2(&self, i: usize) -> Result<Cow<'_, [u8]>, serialize_bin::Error> {
        match &self.slots[i] {
            Slot::Hit { proof, .. } => Ok(Cow::Borrowed(proof)),
            Slot::Ran { unit, .. } => proof_to_bytes_v2(unit).map(Cow::Owned),
            Slot::Input => panic!("no pass has run"),
        }
    }

    /// The transformed module after the passes run so far, decoding every
    /// body a hit left encoded.
    pub fn into_module(mut self) -> Module {
        let functions = std::mem::take(&mut self.slots)
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Slot::Input => self.input.functions[i].clone(),
                Slot::Ran { unit, .. } => unit.tgt,
                Slot::Hit { proof, .. } => self.materialize(i, &proof, self.tel).tgt,
            })
            .collect();
        Module {
            globals: self.input.globals.clone(),
            declares: self.input.declares.clone(),
            functions,
        }
    }
}

/// Run the full `-O2`-like pipeline in parallel, validating every step.
///
/// Records the engine width under `pipeline.jobs` (a schedule-scoped
/// metric, excluded from the deterministic snapshot view).
pub fn run_pipeline_parallel(
    m: &Module,
    config: &PassConfig,
    opts: &ParallelOptions,
    tel: &Telemetry,
) -> (Module, PipelineReport) {
    tel.count("pipeline.jobs", opts.jobs.max(1) as u64);
    let mut report = PipelineReport::default();
    let checker = CheckerConfig::sound();
    let mut run = ValidationRun::new(m, config, &checker, opts, tel);
    for pass in PASS_ORDER {
        run.run_pass(pass, &mut report);
    }
    (run.into_module(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::parse_module;

    const PROGRAM: &str = r#"
        declare @print(i32)
        define @f(i32 %n) -> i32 {
        entry:
          %p = alloca i32
          store i32 0, ptr %p
          %a = load i32, ptr %p
          %b = add i32 %a, %n
          ret i32 %b
        }
        define @g(i32 %n) -> i32 {
        entry:
          %x = mul i32 %n, 1
          %y = add i32 %x, 0
          ret i32 %y
        }
        define @main() {
        entry:
          %r = call i32 @f(i32 3)
          %s = call i32 @g(i32 %r)
          call void @print(i32 %s)
          ret void
        }
    "#;

    fn run_at(jobs: usize) -> (String, PipelineReport, crellvm_telemetry::Snapshot) {
        let m = parse_module(PROGRAM).unwrap();
        let tel = Telemetry::disabled();
        let opts = ParallelOptions {
            jobs,
            format: ProofFormat::Json,
            ..ParallelOptions::default()
        };
        let (out, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
        (
            crellvm_ir::printer::print_module(&out),
            report,
            tel.registry().snapshot(),
        )
    }

    #[test]
    fn parallel_matches_sequential_pipeline() {
        // The sequential reference, built here: each pass over the whole
        // module with `run_pass`, each unit's proof round-tripped through
        // JSON and checked. The engine runs at 4 workers.
        let config = PassConfig::default();
        let mut cur = parse_module(PROGRAM).unwrap();
        let mut reference = Vec::new();
        for pass in PASS_ORDER {
            let out = crate::pipeline::run_pass(pass, &cur, &config);
            for unit in &out.proofs {
                let json = crellvm_core::proof_to_json(unit).unwrap();
                let decoded = crellvm_core::proof_from_json(&json).unwrap();
                let outcome = match crellvm_core::validate(&decoded) {
                    Ok(Verdict::Valid) => StepOutcome::Valid,
                    Ok(Verdict::NotSupported(r)) => StepOutcome::NotSupported(r),
                    Err(e) => StepOutcome::Failed(e.to_string()),
                };
                reference.push((pass.to_string(), unit.src.name.clone(), outcome, json.len()));
            }
            cur = out.module;
        }
        let (out, report, _) = run_at(4);
        assert_eq!(crellvm_ir::printer::print_module(&cur), out);
        let steps: Vec<_> = report
            .steps
            .into_iter()
            .map(|s| (s.pass, s.func, s.outcome, s.proof_bytes))
            .collect();
        assert_eq!(reference, steps);
    }

    #[test]
    fn thread_count_does_not_change_observables() {
        let (out1, rep1, snap1) = run_at(1);
        for jobs in [2, 3, 8] {
            let (out, rep, snap) = run_at(jobs);
            assert_eq!(out1, out, "module differs at jobs={jobs}");
            assert_eq!(rep1.steps.len(), rep.steps.len());
            for (a, b) in rep1.steps.iter().zip(&rep.steps) {
                assert_eq!(
                    (&a.pass, &a.func, &a.outcome),
                    (&b.pass, &b.func, &b.outcome)
                );
                assert_eq!(a.proof_bytes, b.proof_bytes);
            }
            assert_eq!(
                snap1.deterministic(),
                snap.deterministic(),
                "metrics differ at jobs={jobs}"
            );
        }
    }

    #[test]
    fn span_trees_are_identical_at_any_jobs_count() {
        let run = |jobs: usize| {
            let m = parse_module(PROGRAM).unwrap();
            let tel = Telemetry::disabled();
            let opts = ParallelOptions {
                jobs,
                spans: true,
                ..ParallelOptions::default()
            };
            let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
            report.span_tree("m").deterministic().to_json()
        };
        let base = run(1);
        assert_eq!(base, run(2), "span tree differs at jobs=2");
        assert_eq!(base, run(8), "span tree differs at jobs=8");
        // The tree reaches all the way down to proof commands.
        assert!(base.contains("\"cat\":\"proof\""));
        assert!(base.contains("CheckCFG"));
        assert!(base.contains("\"cat\":\"phase\""));
    }

    #[test]
    fn forensics_off_means_no_bundles() {
        let (_, rep, _) = run_at(2);
        assert!(rep.bundles.is_empty());
        assert!(rep.span_items.is_empty());
    }

    #[test]
    fn a_cache_miss_stores_the_v2_bytes_of_its_unit() {
        let m = parse_module(PROGRAM).unwrap();
        let config = PassConfig::default();
        let checker = CheckerConfig::sound();
        let key_bytes = |f: &Function| serialize_bin::to_bytes(f).unwrap();
        for format in [ProofFormat::Binary, ProofFormat::Json] {
            let cache = Arc::new(ValidationCache::new());
            let opts = ParallelOptions {
                jobs: 1,
                format,
                cache: Some(Arc::clone(&cache)),
                ..ParallelOptions::default()
            };
            // Every step's v2 proof bytes (what a `.cpb` dump writes), on
            // request every step's decoded unit, the step records, and the
            // run's counters.
            let run = |decode: bool| {
                let tel = Telemetry::disabled();
                let mut report = PipelineReport::default();
                let mut run = ValidationRun::new(&m, &config, &checker, &opts, &tel);
                let (mut dumps, mut units) = (Vec::new(), Vec::new());
                for pass in PASS_ORDER {
                    run.run_pass(pass, &mut report);
                    for i in 0..m.functions.len() {
                        dumps.push(run.proof_bytes_v2(i).unwrap().into_owned());
                        if decode {
                            units.push((pass, run.proof(i).clone()));
                        }
                    }
                }
                let steps: Vec<_> = report
                    .steps
                    .into_iter()
                    .map(|s| (s.pass, s.func, s.outcome, s.proof_bytes))
                    .collect();
                (dumps, units, steps, tel.registry().snapshot().counters)
            };

            let (cold_dumps, units, cold_steps, cold) = run(true);
            let n = cold_steps.len() as u64;
            assert_eq!(cold.get("cache.misses"), Some(&n), "{format:?}");
            assert_eq!(cold.get("cache.materialized"), Some(&0), "{format:?}");
            for ((pass, unit), dump) in units.iter().zip(&cold_dumps) {
                let key = CacheKey::for_unit(
                    &key_bytes(&unit.src),
                    pass,
                    config.cache_token(),
                    checker.cache_token(),
                    format.wire_token(),
                );
                let entry = cache.get(key).expect("a miss stores its entry");
                let v2 = proof_to_bytes_v2(unit).unwrap();
                let at = format!("{format:?} {pass} @{}", unit.src.name);
                assert_eq!(entry.proof, v2, "{at}");
                assert_eq!(*dump, v2, "{at}");
                assert_eq!(
                    entry.tgt_digest,
                    CacheKey::function_digest(&key_bytes(&unit.tgt)),
                    "{at}"
                );
            }

            // A warm run dumps the entries' bytes as stored: the same
            // bytes, with nothing decoded.
            let (warm_dumps, _, warm_steps, warm) = run(false);
            assert_eq!(warm.get("cache.hits"), Some(&n), "{format:?}");
            assert_eq!(warm.get("cache.misses"), None, "{format:?}");
            assert_eq!(warm.get("cache.materialized"), Some(&0), "{format:?}");
            assert_eq!(cold_steps, warm_steps, "{format:?}");
            assert_eq!(cold_dumps, warm_dumps, "{format:?}");
        }
    }
}
