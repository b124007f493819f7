//! The validation daemon: translation-unit requests in, verdicts out,
//! with a live observability plane on the side.
//!
//! # Request path
//!
//! ```text
//! accept → parse → admit (bounded queue, 429 on overflow) → executor
//!        → ValidationRun::run_pass per pass (work-stealing pool, shared
//!          content-addressed cache, tenant-namespaced keys)
//!        → respond (text = offline `crellvm opt` bytes, or JSON)
//! ```
//!
//! A request asks for verdicts only, so a function whose units all hit
//! the cache is never decoded: each hit's entry carries the digest that
//! keys the function's next pass.
//!
//! Every admitted request is minted a **trace id** (`t-<seq>`). The id
//! rides the response header (`X-Crellvm-Trace-Id`), the access-log line,
//! and — when span logging is on — the root span of the request's causal
//! tree, from which the Chrome-trace exporter stamps it onto every event.
//! One id therefore joins the HTTP edge to the innermost proof command.
//!
//! # Determinism contract
//!
//! The daemon runs the *same* engine as `crellvm opt` — one
//! [`ValidationRun`] per request, same default passes (`PASS_ORDER`), same
//! `PassConfig`/`CheckerConfig`, same deterministic
//! scatter-by-function-index step order — and renders verdict lines
//! through the same [`format_step_line`] formatter. A `text/plain`
//! response is therefore byte-identical to offline `opt` stdout at any
//! `--jobs`, warm or cold cache; CI's serve-smoke job diffs the two.
//!
//! # Observability is out-of-band
//!
//! The serve plane records into its own [`Registry`] (`stats`): live
//! gauges (queue depth, inflight, pool width), HTTP counters, per-tenant
//! verdict counters, and latency histograms. Validation runs against
//! per-request registries whose snapshots are merged in afterwards, so
//! the validated core never observes the serving plane — the same TCB
//! boundary the paper draws between compiler and checker.

use crate::http::{read_request, Request, Response};
use crellvm_core::{CheckerConfig, ValidationCache};
use crellvm_ir::{parse_module, verify_module, Module};
use crellvm_passes::{
    format_step_line, ParallelOptions, PassConfig, PipelineReport, ProofFormat, StepOutcome,
    ValidationRun, PASS_ORDER,
};
use crellvm_telemetry::json::Value;
use crellvm_telemetry::{export::openmetrics, Registry, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (the chosen address is
    /// reported by [`ServerHandle::addr`] and on stdout).
    pub addr: String,
    /// Work-stealing pool width per request (0 = available parallelism).
    pub jobs: usize,
    /// Validation executors — how many admitted requests run
    /// concurrently. Each executor drives its own `jobs`-wide pool.
    pub executors: usize,
    /// Bounded admission queue capacity. A request arriving while the
    /// queue holds this many gets `429` + `Retry-After` instead of a
    /// slot; capacity 0 therefore rejects every validation request.
    pub queue_capacity: usize,
    /// Persistent cache directory (in-memory cache when `None`).
    pub cache_dir: Option<String>,
    /// Structured JSON-lines access log path.
    pub access_log: Option<String>,
    /// Span log path: one request-scoped `SpanTree` JSON line per
    /// validation, root span stamped with the request's trace id.
    pub span_log: Option<String>,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            executors: 1,
            queue_capacity: 64,
            cache_dir: None,
            access_log: None,
            span_log: None,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// One admitted validation request.
struct ValidateRequest {
    module: Module,
    module_name: String,
    passes: Vec<String>,
    tenant: String,
    trace_id: String,
}

/// What an executor hands back to the connection handler.
struct ValidateResult {
    /// Verdict lines, exactly as offline `opt` prints them.
    lines: Vec<String>,
    /// Structured step verdicts `(pass, func, tag, reason, proof_bytes)`.
    steps: Vec<(String, String, &'static str, String, usize)>,
    failures: usize,
    cache_hits: u64,
    cache_misses: u64,
    queue_wait: Duration,
    run_time: Duration,
}

struct Job {
    req: ValidateRequest,
    enqueued: Instant,
    reply: mpsc::Sender<ValidateResult>,
}

struct ServerState {
    cfg: ServeConfig,
    /// The live observability registry: gauges, HTTP/tenant counters,
    /// latency histograms, plus the merged per-request validation
    /// snapshots. `/metrics` renders this.
    stats: Arc<Registry>,
    cache: Arc<ValidationCache>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    trace_seq: AtomicU64,
    access_log: Option<Mutex<std::fs::File>>,
    span_log: Option<Mutex<std::fs::File>>,
}

impl ServerState {
    fn mint_trace_id(&self) -> String {
        format!("t-{:06}", self.trace_seq.fetch_add(1, Ordering::Relaxed))
    }

    fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock poisoned").len()
    }
}

/// A running daemon: its bound address plus the shutdown/join handle.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and join the listener and executors. In-flight
    /// requests finish; queued ones are drained and answered; one that
    /// reaches admission after this is answered 503.
    pub fn shutdown(mut self) {
        // Set under the queue lock, so no executor can read the flag
        // clear and then miss this notify, and no job is queued after
        // the executors may have gone.
        {
            let _queue = self.state.queue.lock().expect("queue lock poisoned");
            self.state.shutdown.store(true, Ordering::SeqCst);
        }
        self.state.queue_cv.notify_all();
        // The listener is blocked in `accept`; one connection wakes it to
        // see the flag.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Where `shutdown` connects to wake the listener: the bound address,
/// with loopback in place of an unspecified IP (`0.0.0.0`, `::`).
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Start the daemon: bind, spawn the listener and executor threads, and
/// return immediately.
pub fn start(cfg: ServeConfig) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("{}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let cache = match &cfg.cache_dir {
        Some(dir) => ValidationCache::with_dir(dir).map_err(|e| format!("{dir}: {e}"))?,
        None => ValidationCache::new(),
    };
    let open_log = |path: &Option<String>| -> Result<Option<Mutex<std::fs::File>>, String> {
        match path {
            Some(p) => std::fs::File::create(p)
                .map(|f| Some(Mutex::new(f)))
                .map_err(|e| format!("{p}: {e}")),
            None => Ok(None),
        }
    };
    let access_log = open_log(&cfg.access_log)?;
    let span_log = open_log(&cfg.span_log)?;

    let executors = cfg.executors.max(1);
    let state = Arc::new(ServerState {
        cfg,
        stats: Arc::new(Registry::new()),
        cache: Arc::new(cache),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        trace_seq: AtomicU64::new(1),
        access_log,
        span_log,
    });
    state.stats.gauge_set("serve.ready", 1);
    state.stats.gauge_set("serve.queue_depth", 0);
    state.stats.gauge_set("serve.inflight", 0);

    let mut threads = Vec::new();
    for _ in 0..executors {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || executor_loop(&st)));
    }
    {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || listener_loop(&st, &listener)));
    }
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

/// Accept loop: blocks in `accept` and checks the shutdown flag after
/// each return, so a request is taken the moment it arrives and shutdown
/// wakes it with one connection (which is dropped). Each connection gets
/// its own handler thread (one request per connection, loopback-scale
/// traffic).
fn listener_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let st = Arc::clone(state);
                std::thread::spawn(move || handle_connection(&st, stream));
            }
            // An accept error such as EMFILE would repeat at once; back
            // off so it cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    state.stats.gauge_set("serve.ready", 0);
}

/// Executor loop: pop admitted jobs and run them through the engine.
fn executor_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state.queue_cv.wait(queue).expect("queue lock poisoned");
            }
        };
        let Some(job) = job else { return };
        state
            .stats
            .gauge_set("serve.queue_depth", state.queue_depth() as i64);
        state.stats.gauge_add("serve.inflight", 1);
        let queue_wait = job.enqueued.elapsed();
        let result = run_validation(state, &job.req, queue_wait);
        state.stats.gauge_sub("serve.inflight", 1);
        let _ = job.reply.send(result);
    }
}

/// Run one request through the parallel validation engine.
fn run_validation(
    state: &Arc<ServerState>,
    req: &ValidateRequest,
    queue_wait: Duration,
) -> ValidateResult {
    let started = Instant::now();
    let registry = Arc::new(Registry::new());
    let tel = Telemetry::with_registry(Arc::clone(&registry));
    let spans_on = state.span_log.is_some();
    let opts = ParallelOptions {
        jobs: if state.cfg.jobs == 0 {
            crellvm_passes::default_jobs()
        } else {
            state.cfg.jobs
        },
        format: ProofFormat::default(),
        spans: spans_on,
        // The engine disables the cache while spans are collected (a hit
        // would skip the execution the spans record), so a span-logging
        // daemon trades cache speedups for complete causal trees.
        cache: Some(Arc::clone(&state.cache)),
        cache_namespace: req.tenant.clone(),
        pool_gauges: Some(Arc::clone(&state.stats)),
        ..ParallelOptions::default()
    };
    let config = PassConfig::default();
    let checker = CheckerConfig::sound();
    let mut report = PipelineReport::default();
    let mut lines = Vec::new();
    let mut steps = Vec::new();
    let mut failures = 0usize;
    // Verdicts only: a function that stays warm is never decoded.
    let mut run = ValidationRun::new(&req.module, &config, &checker, &opts, &tel);
    for pass in &req.passes {
        let steps_before = report.steps.len();
        run.run_pass(pass, &mut report);
        for step in &report.steps[steps_before..] {
            if matches!(step.outcome, StepOutcome::Failed(_)) {
                failures += 1;
            }
            lines.push(format_step_line(pass, &step.func, &step.outcome));
            let reason = match &step.outcome {
                StepOutcome::Valid => String::new(),
                StepOutcome::Failed(r) | StepOutcome::NotSupported(r) => r.clone(),
            };
            steps.push((
                pass.clone(),
                step.func.clone(),
                step.outcome.tag(),
                reason,
                step.proof_bytes,
            ));
        }
    }
    if spans_on {
        write_span_log(state, req, &report);
    }
    let snapshot = registry.snapshot();
    let cache_hits = snapshot.counters.get("cache.hits").copied().unwrap_or(0);
    let cache_misses = snapshot.counters.get("cache.misses").copied().unwrap_or(0);
    // Fold the request's validation metrics into the live plane so
    // /metrics shows cumulative pipeline/checker/cache families.
    state.stats.merge_snapshot(&snapshot);
    ValidateResult {
        lines,
        steps,
        failures,
        cache_hits,
        cache_misses,
        queue_wait,
        run_time: started.elapsed(),
    }
}

/// Append the request's causal tree to the span log: one `SpanTree` JSON
/// line, root span stamped with the trace id so `crellvm report --format
/// chrome-trace` reconstructs the request's tree with correlatable ids.
fn write_span_log(state: &ServerState, req: &ValidateRequest, report: &PipelineReport) {
    let Some(log) = &state.span_log else { return };
    let mut tree = report.span_tree(&req.module_name);
    if let Some(root) = tree.records.iter_mut().find(|r| r.parent.is_none()) {
        root.fields
            .insert("trace_id".to_string(), Value::Str(req.trace_id.clone()));
        root.fields
            .insert("tenant".to_string(), Value::Str(req.tenant.clone()));
    }
    let mut file = log.lock().expect("span log lock poisoned");
    let _ = writeln!(file, "{}", tree.to_json());
    let _ = file.flush();
}

/// Append one structured JSON line to the access log.
#[allow(clippy::too_many_arguments)]
fn write_access_log(
    state: &ServerState,
    trace_id: &str,
    tenant: &str,
    path: &str,
    status: u16,
    bytes_in: usize,
    bytes_out: usize,
    queue_wait: Duration,
    total: Duration,
    result: Option<&ValidateResult>,
) {
    let Some(log) = &state.access_log else { return };
    let mut obj = BTreeMap::new();
    obj.insert("trace_id".to_string(), Value::Str(trace_id.to_string()));
    obj.insert("tenant".to_string(), Value::Str(tenant.to_string()));
    obj.insert("path".to_string(), Value::Str(path.to_string()));
    obj.insert("status".to_string(), Value::UInt(status as u64));
    obj.insert("bytes_in".to_string(), Value::UInt(bytes_in as u64));
    obj.insert("bytes_out".to_string(), Value::UInt(bytes_out as u64));
    obj.insert(
        "queue_wait_us".to_string(),
        Value::UInt(queue_wait.as_micros() as u64),
    );
    obj.insert(
        "latency_us".to_string(),
        Value::UInt(total.as_micros() as u64),
    );
    if let Some(r) = result {
        let valid = r.steps.iter().filter(|s| s.2 == "valid").count();
        let ns = r.steps.iter().filter(|s| s.2 == "not_supported").count();
        obj.insert("valid".to_string(), Value::UInt(valid as u64));
        obj.insert("failed".to_string(), Value::UInt(r.failures as u64));
        obj.insert("not_supported".to_string(), Value::UInt(ns as u64));
        obj.insert("cache_hits".to_string(), Value::UInt(r.cache_hits));
        obj.insert("cache_misses".to_string(), Value::UInt(r.cache_misses));
    }
    let mut file = log.lock().expect("access log lock poisoned");
    let _ = writeln!(file, "{}", Value::Obj(obj).to_json());
    let _ = file.flush();
}

/// OpenMetrics-safe tenant label segment.
fn tenant_label(tenant: &str) -> String {
    if tenant.is_empty() {
        "default".to_string()
    } else {
        tenant
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
}

/// Decode a validation request body by content type.
fn parse_validate_request(state: &ServerState, req: &Request) -> Result<ValidateRequest, String> {
    let content_type = req.header("content-type").unwrap_or("text/plain");
    let mut tenant = req
        .header("x-crellvm-tenant")
        .unwrap_or_default()
        .to_string();
    let mut passes: Vec<String> = req
        .header("x-crellvm-passes")
        .map(|v| {
            v.split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let mut module_name = req
        .header("x-crellvm-module")
        .unwrap_or("module")
        .to_string();

    let module = if content_type.starts_with("application/x-crellvm-module-v2") {
        // v2-wire Module body: the same dictionary-coded binary format
        // the proof pipeline uses, decoded generically.
        crellvm_core::serialize_bin::from_bytes_v2::<Module>(&req.body)
            .map_err(|e| format!("v2 module body: {e}"))?
    } else if content_type.starts_with("application/json") {
        let text = std::str::from_utf8(&req.body).map_err(|e| format!("body: {e}"))?;
        let doc = crellvm_telemetry::json::parse(text).map_err(|e| format!("body: {e}"))?;
        let ir = doc
            .get("module")
            .and_then(Value::as_str)
            .ok_or("body: missing \"module\" (IR text)")?;
        if let Some(t) = doc.get("tenant").and_then(Value::as_str) {
            tenant = t.to_string();
        }
        if let Some(name) = doc.get("name").and_then(Value::as_str) {
            module_name = name.to_string();
        }
        if let Some(arr) = doc.get("passes").and_then(Value::as_arr) {
            passes = arr
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect();
        }
        parse_module(ir).map_err(|e| e.to_string())?
    } else {
        let text = std::str::from_utf8(&req.body).map_err(|e| format!("body: {e}"))?;
        parse_module(text).map_err(|e| e.to_string())?
    };
    verify_module(&module).map_err(|e| e.to_string())?;
    if passes.is_empty() {
        passes = PASS_ORDER.map(String::from).to_vec();
    }
    if let Some(bad) = passes.iter().find(|p| !PASS_ORDER.contains(&p.as_str())) {
        return Err(format!("unknown pass {bad}"));
    }
    Ok(ValidateRequest {
        module,
        module_name,
        passes,
        tenant,
        trace_id: state.mint_trace_id(),
    })
}

/// Render a validation result per the request's `Accept` preference.
fn render_validate_response(
    req: &Request,
    trace_id: &str,
    tenant: &str,
    result: &ValidateResult,
) -> Response {
    let wants_text = req
        .header("accept")
        .is_some_and(|a| a.starts_with("text/plain"));
    if wants_text {
        // Byte-identical to offline `crellvm opt` stdout.
        let mut body = result.lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        return Response::text(200, body);
    }
    let steps: Vec<Value> = result
        .steps
        .iter()
        .map(|(pass, func, tag, reason, proof_bytes)| {
            let mut s = BTreeMap::new();
            s.insert("pass".to_string(), Value::Str(pass.clone()));
            s.insert("func".to_string(), Value::Str(func.clone()));
            s.insert("outcome".to_string(), Value::Str((*tag).to_string()));
            if !reason.is_empty() {
                s.insert("reason".to_string(), Value::Str(reason.clone()));
            }
            s.insert("proof_bytes".to_string(), Value::UInt(*proof_bytes as u64));
            Value::Obj(s)
        })
        .collect();
    let mut cache = BTreeMap::new();
    cache.insert("hits".to_string(), Value::UInt(result.cache_hits));
    cache.insert("misses".to_string(), Value::UInt(result.cache_misses));
    let mut obj = BTreeMap::new();
    obj.insert("trace_id".to_string(), Value::Str(trace_id.to_string()));
    obj.insert("tenant".to_string(), Value::Str(tenant.to_string()));
    obj.insert("failures".to_string(), Value::UInt(result.failures as u64));
    obj.insert(
        "lines".to_string(),
        Value::Arr(result.lines.iter().cloned().map(Value::Str).collect()),
    );
    obj.insert("steps".to_string(), Value::Arr(steps));
    obj.insert("cache".to_string(), Value::Obj(cache));
    obj.insert(
        "queue_wait_us".to_string(),
        Value::UInt(result.queue_wait.as_micros() as u64),
    );
    obj.insert(
        "run_us".to_string(),
        Value::UInt(result.run_time.as_micros() as u64),
    );
    Response::json(200, &Value::Obj(obj))
}

/// Handle `POST /v1/validate`: admit, execute, respond.
fn handle_validate(state: &Arc<ServerState>, req: &Request) -> Response {
    let t0 = Instant::now();
    let bytes_in = req.body.len();
    state.stats.add("serve.bytes_in", bytes_in as u64);
    let vreq = match parse_validate_request(state, req) {
        Ok(v) => v,
        Err(e) => {
            state.stats.add("serve.responses.400", 1);
            return Response::text(400, format!("error: {e}\n"));
        }
    };
    state.stats.add("serve.requests", 1);
    state.stats.add(
        &format!("serve.tenant.{}.requests", tenant_label(&vreq.tenant)),
        1,
    );
    // The request moves into the job; the response needs only these.
    let trace_id = vreq.trace_id.clone();
    let tenant = vreq.tenant.clone();

    // Admission: a bounded queue with backpressure, never an unbounded
    // pile-up. Over capacity the client is told when to come back.
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = state.queue.lock().expect("queue lock poisoned");
        // `shutdown` sets its flag under this lock, so a job pushed while
        // the flag is clear is drained by an executor before it exits.
        if state.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            state.stats.add("serve.responses.503", 1);
            return Response::text(503, "draining\n").header("X-Crellvm-Trace-Id", trace_id);
        }
        if queue.len() >= state.cfg.queue_capacity {
            drop(queue);
            state.stats.add("serve.responses.429", 1);
            state.stats.add("serve.rejected", 1);
            return Response::text(429, "queue full, retry later\n")
                .header("Retry-After", "1")
                .header("X-Crellvm-Trace-Id", trace_id);
        }
        queue.push_back(Job {
            req: vreq,
            enqueued: Instant::now(),
            reply: tx,
        });
        state
            .stats
            .gauge_set("serve.queue_depth", queue.len() as i64);
    }
    state.queue_cv.notify_one();

    let Ok(result) = rx.recv() else {
        state.stats.add("serve.responses.500", 1);
        return Response::text(500, "executor dropped the request\n");
    };

    // Verdict and latency accounting for the live plane.
    let tlabel = tenant_label(&tenant);
    for (_, _, tag, _, _) in &result.steps {
        state.stats.add(&format!("serve.verdict.{tag}"), 1);
        state.stats.add(&format!("serve.tenant.{tlabel}.{tag}"), 1);
    }
    state
        .stats
        .observe("serve.queue_wait_us", result.queue_wait.as_micros() as u64);
    state
        .stats
        .observe("serve.latency_us", t0.elapsed().as_micros() as u64);
    state.stats.add("serve.responses.200", 1);

    let resp = render_validate_response(req, &trace_id, &tenant, &result)
        .header("X-Crellvm-Trace-Id", trace_id.clone())
        .header("X-Crellvm-Failures", result.failures.to_string());
    state.stats.add("serve.bytes_out", resp.body.len() as u64);
    write_access_log(
        state,
        &trace_id,
        &tenant,
        "/v1/validate",
        resp.status,
        bytes_in,
        resp.body.len(),
        result.queue_wait,
        t0.elapsed(),
        Some(&result),
    );
    resp
}

fn route(state: &Arc<ServerState>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/validate") => handle_validate(state, req),
        ("GET", "/metrics") => {
            state
                .stats
                .gauge_set("serve.queue_depth", state.queue_depth() as i64);
            Response::new(
                200,
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                openmetrics(&state.stats.snapshot()).into_bytes(),
            )
        }
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.shutdown.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else if state.queue_depth() >= state.cfg.queue_capacity {
                Response::text(503, "saturated\n").header("Retry-After", "1")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", _) | ("POST", _) => Response::text(404, "no such endpoint\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let resp = match read_request(&mut stream, state.cfg.max_body) {
        Ok(req) => route(state, &req),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            state.stats.add("serve.responses.400", 1);
            Response::text(400, format!("error: {e}\n"))
        }
        Err(_) => return,
    };
    let _ = resp.write_to(&mut stream);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::call;

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
        define @main() {
        entry:
          %r = call i32 @f(i32 3)
          call void @print(i32 %r)
          ret void
        }
    "#;

    fn start_test_server(cfg: ServeConfig) -> (ServerHandle, String) {
        let handle = start(cfg).expect("server starts");
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    #[test]
    fn validates_ir_text_and_reports_verdicts() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, headers, body) = call(
            &addr,
            "POST",
            "/v1/validate",
            &[("Content-Type", "text/plain")],
            PROGRAM.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .get("x-crellvm-trace-id")
            .is_some_and(|t| t.starts_with("t-")));
        let doc = crellvm_telemetry::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("failures").and_then(Value::as_u64), Some(0));
        let lines = doc.get("lines").and_then(Value::as_arr).unwrap();
        // 4 passes x 2 functions.
        assert_eq!(lines.len(), 8);
        handle.shutdown();
    }

    #[test]
    fn text_accept_returns_offline_format_lines() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, body) = call(
            &addr,
            "POST",
            "/v1/validate",
            &[("Accept", "text/plain")],
            PROGRAM.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        let text = std::str::from_utf8(&body).unwrap();
        let expected = format_step_line("mem2reg", "f", &StepOutcome::Valid);
        assert!(text.contains(&format!("{expected}\n")), "got: {text:?}");
        assert!(text.ends_with('\n'));
        handle.shutdown();
    }

    #[test]
    fn zero_capacity_queue_rejects_with_429_and_retry_after() {
        let (handle, addr) = start_test_server(ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        let (status, headers, _) =
            call(&addr, "POST", "/v1/validate", &[], PROGRAM.as_bytes()).unwrap();
        assert_eq!(status, 429);
        assert_eq!(headers.get("retry-after").map(String::as_str), Some("1"));
        // /readyz reports saturation while /healthz stays alive.
        let (h, _, _) = call(&addr, "GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(h, 200);
        let (r, _, _) = call(&addr, "GET", "/readyz", &[], &[]).unwrap();
        assert_eq!(r, 503);
        handle.shutdown();
    }

    #[test]
    fn bad_module_is_a_400_not_a_crash() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, body) =
            call(&addr, "POST", "/v1/validate", &[], b"define garbage {").unwrap();
        assert_eq!(status, 400);
        assert!(std::str::from_utf8(&body).unwrap().starts_with("error:"));
        let (status, _, _) = call(&addr, "GET", "/nope", &[], &[]).unwrap();
        assert_eq!(status, 404);
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_constant_is_a_400_and_the_daemon_lives() {
        let depth = 200_000;
        let module = format!(
            "define @f() -> i32 {{\nentry:\n  %x = add i32 {}1{}, 0\n  ret i32 %x\n}}\n",
            "sub(i32 ".repeat(depth),
            ", 1)".repeat(depth)
        );
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, body) =
            call(&addr, "POST", "/v1/validate", &[], module.as_bytes()).unwrap();
        assert_eq!(status, 400);
        assert!(std::str::from_utf8(&body).unwrap().starts_with("error:"));
        let (status, _, _) = call(&addr, "GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
    }

    #[test]
    fn v2_wire_module_body_round_trips() {
        let m = parse_module(PROGRAM).unwrap();
        let bytes = crellvm_core::serialize_bin::to_bytes_v2(&m).unwrap();
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, body) = call(
            &addr,
            "POST",
            "/v1/validate",
            &[
                ("Content-Type", "application/x-crellvm-module-v2"),
                ("Accept", "text/plain"),
            ],
            &bytes,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(std::str::from_utf8(&body).unwrap().contains("valid"));
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_v2_module_body_is_a_400_and_the_daemon_lives() {
        use crellvm_ir::{BinOp, Const, ConstExpr, Inst, Type};
        // A constant nested 20 000 levels deep. Building, encoding and
        // dropping it recurse once per level, so that happens on a thread
        // with a large stack; the daemon decodes on its ordinary ones.
        let bytes = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut m = parse_module(
                    "define @f() -> i32 {\nentry:\n  %x = add i32 1, 0\n  ret i32 %x\n}\n",
                )
                .unwrap();
                let mut c = Const::int(Type::I32, 1);
                for _ in 0..20_000 {
                    let one = Const::int(Type::I32, 1);
                    c = Const::Expr(Box::new(ConstExpr::Bin(BinOp::Sub, Type::I32, c, one)));
                }
                let Inst::Bin { lhs, .. } = &mut m.functions[0].blocks[0].stmts[0].inst else {
                    panic!("the fixture's first statement is an add");
                };
                *lhs = crellvm_ir::Value::Const(c);
                crellvm_core::serialize_bin::to_bytes_v2(&m).unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, body) = call(
            &addr,
            "POST",
            "/v1/validate",
            &[("Content-Type", "application/x-crellvm-module-v2")],
            &bytes,
        )
        .unwrap();
        assert_eq!(status, 400);
        let body = std::str::from_utf8(&body).unwrap();
        assert!(body.contains("nesting deeper than"), "{body}");
        let (status, _, _) = call(&addr, "GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
    }

    #[test]
    fn tenants_do_not_share_cache_entries_but_one_tenant_hits_warm() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let post = |tenant: &str| {
            let (status, _, body) = call(
                &addr,
                "POST",
                "/v1/validate",
                &[("X-Crellvm-Tenant", tenant)],
                PROGRAM.as_bytes(),
            )
            .unwrap();
            assert_eq!(status, 200);
            let doc = crellvm_telemetry::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let cache = doc.get("cache").unwrap();
            (
                cache.get("hits").and_then(Value::as_u64).unwrap(),
                cache.get("misses").and_then(Value::as_u64).unwrap(),
            )
        };
        let (h1, m1) = post("acme");
        assert_eq!(h1, 0, "cold tenant cannot hit");
        assert!(m1 > 0);
        let (h2, m2) = post("acme");
        assert_eq!(m2, 0, "warm same-tenant run must be all hits");
        assert!(h2 > 0);
        let (h3, m3) = post("rival");
        assert_eq!(h3, 0, "another tenant must not see acme's entries");
        assert!(m3 > 0);
        handle.shutdown();
    }

    #[test]
    fn metrics_endpoint_is_valid_openmetrics_with_serve_families() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let (status, _, _) = call(&addr, "POST", "/v1/validate", &[], PROGRAM.as_bytes()).unwrap();
        assert_eq!(status, 200);
        let (status, headers, body) = call(&addr, "GET", "/metrics", &[], &[]).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .get("content-type")
            .is_some_and(|c| c.contains("openmetrics")));
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\n"));
        assert!(text.contains("serve_requests_total 1\n"));
        assert!(text.contains("serve_verdict_valid_total"));
        assert!(text.contains("# TYPE serve_latency_us histogram\n"));
        assert!(text.contains("pipeline_validated_total"));
        handle.shutdown();
    }

    #[test]
    fn shutdown_closes_the_port() {
        // The unspecified address has the wake connect go to loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let handle = start(ServeConfig {
                addr: bind.to_string(),
                ..ServeConfig::default()
            })
            .expect("server starts");
            let port = handle.addr().port();
            let (status, _, _) =
                call(&format!("127.0.0.1:{port}"), "GET", "/healthz", &[], &[]).unwrap();
            assert_eq!(status, 200);
            handle.shutdown();
            let refused = TcpStream::connect(("127.0.0.1", port)).expect_err(bind);
            assert_eq!(
                refused.kind(),
                std::io::ErrorKind::ConnectionRefused,
                "{bind}"
            );
        }
    }

    #[test]
    fn a_silent_connection_does_not_stall_the_daemon() {
        let (handle, addr) = start_test_server(ServeConfig::default());
        let silent = TcpStream::connect(&addr).unwrap();
        let (status, _, _) = call(&addr, "GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(status, 200);
        let (status, _, _) = call(&addr, "POST", "/v1/validate", &[], PROGRAM.as_bytes()).unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
        drop(silent);
    }

    #[test]
    fn a_request_completed_after_shutdown_is_refused_not_stranded() {
        use std::io::Read as _;
        let (handle, addr) = start_test_server(ServeConfig::default());
        let mut late = TcpStream::connect(&addr).unwrap();
        let head = format!(
            "POST /v1/validate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            PROGRAM.len()
        );
        late.write_all(head.as_bytes()).unwrap();
        // Connections are accepted in arrival order, so once a later one is
        // answered, `late` has a handler waiting for its body.
        let (status, _, _) = call(&addr, "GET", "/healthz", &[], &[]).unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
        late.write_all(PROGRAM.as_bytes()).unwrap();
        let mut raw = String::new();
        late.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    }

    #[test]
    fn span_log_lines_carry_the_request_trace_id() {
        let dir = std::env::temp_dir().join(format!("crellvm-serve-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let span_path = dir.join("spans.jsonl");
        let (handle, addr) = start_test_server(ServeConfig {
            span_log: Some(span_path.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let (status, headers, _) =
            call(&addr, "POST", "/v1/validate", &[], PROGRAM.as_bytes()).unwrap();
        assert_eq!(status, 200);
        let trace_id = headers.get("x-crellvm-trace-id").unwrap().clone();
        handle.shutdown();
        let log = std::fs::read_to_string(&span_path).unwrap();
        let line = log.lines().next().expect("one span line");
        let tree = crellvm_telemetry::SpanTree::from_json(line).unwrap();
        let root = tree.records.iter().find(|r| r.parent.is_none()).unwrap();
        assert_eq!(
            root.fields.get("trace_id").and_then(Value::as_str),
            Some(trace_id.as_str())
        );
        // The chrome-trace exporter propagates it to every event.
        let chrome = crellvm_telemetry::export::chrome_trace(&tree);
        assert!(chrome.contains(&format!("\"id\":\"{trace_id}.0\"")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
