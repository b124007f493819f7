//! The `crellvm` command-line tool: the framework's workflows from the
//! shell.
//!
//! ```text
//! crellvm opt <file.cll> [--pass NAME]... [--bugs 3.7.1|5.0.1-pre|none]
//!     Optimize with proof generation and validate every translation.
//! crellvm run <file.cll> [--seed N]
//!     Interpret @main and print the observable trace.
//! crellvm diff <a.cll> <b.cll>
//!     Alpha-equivalence check (the llvm-diff analogue).
//! crellvm gen --seed N [--functions K] [--out FILE]
//!     Generate a random program.
//! crellvm check [--trace FILE] <proof-file>...
//!     Validate saved proofs (the separate checker process of Fig 1).
//! crellvm report [--format text|openmetrics|chrome-trace|profile|folded]
//!                [--top N] [--weight time|cost] <file>
//!     Render a metrics snapshot (or, for the span-file formats, a cost
//!     profile table / collapsed-stack flamegraph lines).
//! crellvm forensics <bundle.forensic.json>
//!     Inspect and replay a failure forensic bundle.
//! crellvm fuzz [--seeds A..B] [--jobs N] [--mutate-rate R]
//!              [--compiler 3.7.1|5.0.1-pre|none]
//!              [--tier bytecode|tree|differential] [--out DIR]
//!     Run a reproducible soundness fuzzing campaign: generate programs,
//!     optimize, inject seeded miscompilations, and cross-check the
//!     checker against interpreter refinement (on the bytecode tier
//!     unless --tier says otherwise); exits non-zero iff a soundness
//!     alarm (checker accepts, refinement refutes) survives minimization.
//! crellvm serve [--addr HOST:PORT] [--queue N] [--cache-dir DIR]
//!               [--access-log FILE] [--span-log FILE]
//!     Run the validation daemon: POST /v1/validate (IR text, JSON, or
//!     v2-wire module bodies) with a bounded admission queue (429 +
//!     Retry-After on overflow), tenant-namespaced verdict cache, live
//!     /metrics (OpenMetrics), /healthz + /readyz probes, per-request
//!     trace ids, and structured JSON-lines access/span logs.
//! crellvm top --addr HOST:PORT [--once] [--interval-ms N]
//!     A refreshing one-screen fleet view of a running daemon, fed
//!     entirely by scraping its /metrics endpoint.
//! ```
//!
//! `opt --proof-dir DIR [--binary]` writes each translation's proof to
//! `DIR/<pass>.<function>.{json,cpb}`; `check` validates such files
//! independently of the compiler — the trust story of the paper, where
//! the checker never has to share a process with the optimizer.
//!
//! `opt --metrics FILE` snapshots the telemetry registry (counters,
//! histograms, span timers) to a JSON file after the run; `--trace FILE`
//! streams the proof-audit log — one JSON-lines event per validation
//! step — as it happens. `report <metrics.json>` renders a snapshot as
//! the paper's Fig 6/8-style tables.
//!
//! `opt --spans FILE` records the causal span tree — one hierarchical
//! trace per module → function → pass → proof command — which
//! `report --format chrome-trace` converts to Chrome `trace_event` JSON
//! for `chrome://tracing` / Perfetto. `opt --forensics-dir DIR` writes a
//! replayable forensic bundle for every checker rejection (failure class,
//! rule history, IR slice, ddmin-minimized proof-command core); the
//! `forensics` subcommand inspects a bundle and replays it, exiting
//! non-zero unless both the full and the minimized proof still fail in
//! the recorded class. `report --format openmetrics` renders a metrics
//! snapshot in OpenMetrics text exposition format.
//!
//! `opt --jobs N` and `check --jobs N` fan the per-function validation
//! work across N workers — the main thread plus N-1 spawned ones
//! (default: the machine's available parallelism). Validation units are
//! independent, so the transformed module, the per-step output lines, and
//! every measurement metric are identical at any thread count; only
//! wall-clock timers and the scheduling counters (`pipeline.jobs`,
//! `validate.steal.*`) vary.
//!
//! `opt`, `check`, and `fuzz` accept `--progress human|json`: a live
//! heartbeat line (items done/total, rate, ETA, cache hit rate, alarms)
//! on stderr every 200 ms. Heartbeats never touch stdout or the
//! deterministic metrics/span views, so piped output and recorded
//! snapshots are byte-identical with or without them.

#![forbid(unsafe_code)]

use crellvm::diff::diff_modules;
use crellvm::erhl::{
    proof_from_bytes, proof_from_json, proof_to_json, replay, validate_with_telemetry, CacheEntry,
    CacheKey, CheckerConfig, ValidationCache, Verdict,
};
use crellvm::fuzz::{run_campaign_with_progress, write_findings, CampaignConfig};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::interp::{run_main, RunConfig, UndefPolicy};
use crellvm::ir::{parse_module, printer::print_module, verify_module, Module};
use crellvm::passes::{
    default_jobs, run_work_stealing, BugSet, ParallelOptions, PassConfig, PipelineReport,
    ProofFormat, StepOutcome, ValidationRun, PASS_ORDER,
};
use crellvm::telemetry::export::{chrome_trace, openmetrics};
use crellvm::telemetry::forensics::ForensicBundle;
use crellvm::telemetry::{
    Profile, ProfileWeight, Progress, ProgressMode, Registry, Snapshot, SpanTree, Telemetry, Trace,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Heartbeat period for `--progress`.
const PROGRESS_PERIOD: Duration = Duration::from_millis(200);

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  crellvm opt <file.cll> [--pass mem2reg|gvn|licm|instcombine]... [--bugs 3.7.1|5.0.1-pre|none] [--emit] [--proof-dir DIR] [--binary] [--format json|binary-v2] [--jobs N] [--cache-dir DIR] [--metrics FILE] [--trace FILE] [--spans FILE] [--forensics-dir DIR] [--progress human|json]\n  crellvm run <file.cll> [--seed N]\n  crellvm diff <a.cll> <b.cll>\n  crellvm gen --seed N [--functions K] [--out FILE]\n  crellvm check [--trace FILE] [--jobs N] [--cache-dir DIR] [--progress human|json] <proof-file>...\n  crellvm report [--format text|openmetrics|chrome-trace|profile|folded] [--top N] [--weight time|cost] <file>\n  crellvm forensics <bundle.forensic.json>\n  crellvm fuzz [--seeds A..B] [--jobs N] [--mutate-rate R] [--compiler 3.7.1|5.0.1-pre|none] [--tier bytecode(default)|tree|differential] [--out DIR] [--metrics FILE] [--progress human|json]\n  crellvm serve [--addr HOST:PORT] [--jobs N] [--executors N] [--queue N] [--cache-dir DIR] [--access-log FILE] [--span-log FILE]\n  crellvm top --addr HOST:PORT [--once] [--interval-ms N]"
    );
    ExitCode::from(2)
}

/// A live registry plus a [`Telemetry`] handle over it, optionally
/// streaming trace events to `trace_path` (created eagerly so flag typos
/// fail before any work happens).
fn make_telemetry(trace_path: Option<&str>) -> Result<(Arc<Registry>, Telemetry), String> {
    let registry = Arc::new(Registry::new());
    let mut tel = Telemetry::with_registry(registry.clone());
    if let Some(path) = trace_path {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        tel = tel.with_trace(Arc::new(Trace::new(Box::new(file))));
    }
    Ok((registry, tel))
}

fn load(path: &str) -> Result<Module, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let m = parse_module(&text).map_err(|e| format!("{path}: {e}"))?;
    verify_module(&m).map_err(|e| format!("{path}: {e}"))?;
    Ok(m)
}

fn parse_jobs(arg: Option<&String>) -> Result<usize, String> {
    let n: usize = arg
        .ok_or("--jobs needs a count")?
        .parse()
        .map_err(|e| format!("bad job count: {e}"))?;
    Ok(if n == 0 { default_jobs() } else { n })
}

fn parse_format(arg: Option<&String>) -> Result<ProofFormat, String> {
    match arg.ok_or("--format needs a name")?.as_str() {
        "json" => Ok(ProofFormat::Json),
        "binary-v2" | "binary" => Ok(ProofFormat::Binary),
        other => Err(format!("unknown proof format {other} (json|binary-v2)")),
    }
}

fn parse_progress(arg: Option<&String>) -> Result<ProgressMode, String> {
    let name = arg.ok_or("--progress needs a mode (human|json)")?;
    ProgressMode::parse(name).ok_or_else(|| format!("unknown progress mode {name} (human|json)"))
}

fn open_cache(dir: &str) -> Result<Arc<ValidationCache>, String> {
    let cache = ValidationCache::with_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    Ok(Arc::new(cache))
}

fn cmd_opt(args: &[String]) -> Result<ExitCode, String> {
    let file = args.first().ok_or("opt: missing input file")?;
    let mut passes: Vec<String> = Vec::new();
    let mut bugs = BugSet::none();
    let mut emit = false;
    let mut proof_dir: Option<String> = None;
    let mut binary = false;
    let mut format = ProofFormat::default();
    let mut jobs = default_jobs();
    let mut cache_dir: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut spans: Option<String> = None;
    let mut forensics_dir: Option<String> = None;
    let mut progress_mode: Option<ProgressMode> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pass" => passes.push(it.next().ok_or("--pass needs a name")?.clone()),
            "--bugs" => {
                bugs = match it.next().ok_or("--bugs needs a population")?.as_str() {
                    "3.7.1" => BugSet::llvm_3_7_1(),
                    "5.0.1-pre" => BugSet::llvm_5_0_1_prepatch(),
                    "none" => BugSet::none(),
                    other => return Err(format!("unknown bug population {other}")),
                }
            }
            "--emit" => emit = true,
            "--proof-dir" => proof_dir = Some(it.next().ok_or("--proof-dir needs a path")?.clone()),
            "--binary" => binary = true,
            "--format" => {
                format = parse_format(it.next())?;
                // An explicit binary format selects binary proof dumps
                // too; plain `--proof-dir` keeps the JSON default.
                binary = !matches!(format, ProofFormat::Json);
            }
            "--jobs" => jobs = parse_jobs(it.next())?,
            "--cache-dir" => cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone()),
            "--metrics" => metrics = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--trace" => trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--spans" => spans = Some(it.next().ok_or("--spans needs a path")?.clone()),
            "--forensics-dir" => {
                forensics_dir = Some(it.next().ok_or("--forensics-dir needs a path")?.clone())
            }
            "--progress" => progress_mode = Some(parse_progress(it.next())?),
            other => return Err(format!("opt: unknown flag {other}")),
        }
    }
    for dir in [&proof_dir, &forensics_dir].into_iter().flatten() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    if passes.is_empty() {
        passes = PASS_ORDER.map(String::from).to_vec();
    }
    if let Some(bad) = passes.iter().find(|p| !PASS_ORDER.contains(&p.as_str())) {
        return Err(format!("unknown pass {bad}"));
    }
    let cache = cache_dir.as_deref().map(open_cache).transpose()?;
    let config = PassConfig::with_bugs(bugs);
    let (registry, tel) = make_telemetry(trace.as_deref())?;
    let checker = CheckerConfig::sound();
    let input = load(file)?;
    // One progress unit per (pass, function) validation step.
    let progress = progress_mode.map(|mode| {
        let total = (passes.len() * input.functions.len()) as u64;
        let p = Progress::new(mode, "opt", total);
        p.start_ticker(PROGRESS_PERIOD);
        p
    });
    let opts = ParallelOptions {
        jobs,
        format,
        spans: spans.is_some(),
        forensics: forensics_dir.is_some(),
        cache,
        progress: progress.clone(),
        ..ParallelOptions::default()
    };
    tel.count("pipeline.jobs", jobs as u64);
    let mut report = PipelineReport::default();
    let mut failures = 0usize;
    let mut run = ValidationRun::new(&input, &config, &checker, &opts, &tel);
    for pass in &passes {
        let steps_before = report.steps.len();
        run.run_pass(pass, &mut report);
        if let Some(dir) = &proof_dir {
            for (i, f) in input.functions.iter().enumerate() {
                // A `.cpb` dump of a cache hit is the entry's bytes as
                // stored; a JSON dump decodes it.
                let (path, bytes) = if binary {
                    (
                        format!("{dir}/{pass}.{}.cpb", f.name),
                        run.proof_bytes_v2(i).map_err(|e| e.to_string())?,
                    )
                } else {
                    (
                        format!("{dir}/{pass}.{}.json", f.name),
                        proof_to_json(run.proof(i))
                            .map_err(|e| e.to_string())?
                            .into_bytes()
                            .into(),
                    )
                };
                std::fs::write(&path, bytes).map_err(|e| format!("{path}: {e}"))?;
            }
        }
        // Step records come back in function order regardless of which
        // worker validated what, so this output is thread-count stable.
        for step in &report.steps[steps_before..] {
            if matches!(step.outcome, StepOutcome::Failed(_)) {
                failures += 1;
            }
            println!(
                "{}",
                crellvm::passes::format_step_line(pass, &step.func, &step.outcome)
            );
        }
    }
    if let Some(p) = &progress {
        p.finish();
    }
    if emit {
        print!("{}", print_module(&run.into_module()));
    }
    if let Some(path) = &metrics {
        std::fs::write(path, registry.snapshot().to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &spans {
        let module_name = std::path::Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("module");
        let tree = report.span_tree(module_name);
        std::fs::write(path, tree.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(dir) = &forensics_dir {
        for bundle in &report.bundles {
            let path = format!("{dir}/{}.{}.forensic.json", bundle.pass, bundle.func);
            std::fs::write(&path, bundle.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "forensics: wrote {path} ({}, {} -> {} commands)",
                bundle.class,
                bundle.commands.len(),
                bundle.minimized.len()
            );
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let file = args.first().ok_or("run: missing input file")?;
    let mut cfg = RunConfig::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let s: u64 = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
                cfg.env_seed = s;
                cfg.undef = UndefPolicy::Seeded(s);
            }
            other => return Err(format!("run: unknown flag {other}")),
        }
    }
    let m = load(file)?;
    let r = run_main(&m, &cfg);
    for e in &r.events {
        println!("{e}");
    }
    println!("-- end: {:?} ({} steps)", r.end, r.steps);
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let (a, b) = match args {
        [a, b] => (load(a)?, load(b)?),
        _ => return Err("diff: need exactly two files".into()),
    };
    match diff_modules(&a, &b) {
        Ok(()) => {
            println!("modules are alpha-equivalent");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("{e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = GenConfig::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cfg.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--functions" => {
                cfg.functions = it
                    .next()
                    .ok_or("--functions needs a value")?
                    .parse()
                    .map_err(|e| format!("bad count: {e}"))?
            }
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            other => return Err(format!("gen: unknown flag {other}")),
        }
    }
    let m = generate_module(&cfg);
    let text = print_module(&m);
    match out {
        Some(path) => std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Reconstruct `check`'s output line from a cached verdict; `None` for a
/// verdict tag from a future version (treated as a miss).
fn check_line_from_entry(
    path: &str,
    unit: &crellvm::erhl::ProofUnit,
    entry: &CacheEntry,
) -> Option<(String, bool)> {
    use crellvm::erhl::cache::{OUTCOME_FAILED, OUTCOME_NOT_SUPPORTED, OUTCOME_VALID};
    match entry.outcome {
        OUTCOME_VALID => Some((
            format!("{path}: valid ({} @{})", unit.pass, unit.src.name),
            false,
        )),
        OUTCOME_NOT_SUPPORTED => Some((format!("{path}: not-supported ({})", entry.reason), false)),
        OUTCOME_FAILED => {
            let (at, reason) = entry.reason.split_once('\n')?;
            Some((
                format!("{path}: FAILED at {at}\n    reason: {reason}"),
                true,
            ))
        }
        _ => None,
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut trace: Option<String> = None;
    let mut jobs = default_jobs();
    let mut cache_dir: Option<String> = None;
    let mut progress_mode: Option<ProgressMode> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--jobs" => jobs = parse_jobs(it.next())?,
            "--cache-dir" => cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone()),
            "--progress" => progress_mode = Some(parse_progress(it.next())?),
            other if other.starts_with("--") => return Err(format!("check: unknown flag {other}")),
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        return Err("check: need at least one proof file".into());
    }
    let cache = cache_dir.as_deref().map(open_cache).transpose()?;
    let progress = progress_mode.map(|mode| {
        let p = Progress::new(mode, "check", files.len() as u64);
        p.start_ticker(PROGRESS_PERIOD);
        p
    });
    let (registry, tel) = make_telemetry(trace.as_deref())?;
    tel.count("pipeline.jobs", jobs as u64);
    let checker = CheckerConfig::sound();
    let mut units = Vec::with_capacity(files.len());
    for path in files {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        // The cache key is the proof's exact bytes plus the checker
        // token: re-checking an unchanged proof file with an unchanged
        // checker replays the stored verdict.
        let key = CacheKey::for_proof(&bytes, checker.cache_token());
        let unit = if path.ends_with(".cpb") {
            proof_from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?
        } else {
            let text = std::str::from_utf8(&bytes).map_err(|e| format!("{path}: {e}"))?;
            proof_from_json(text).map_err(|e| format!("{path}: {e}"))?
        };
        units.push((path, key, unit));
    }
    // Fan validation over the shared work-stealing pool. Results come back
    // by file index, so the output order matches the command line at any
    // -j; equal weights deal files in command-line order, and at --jobs 1
    // every file is checked on this thread.
    let cache = cache.as_deref();
    let pool = run_work_stealing(
        units.len(),
        jobs,
        |_| 0,
        |_w| {
            let wreg = Arc::new(Registry::new());
            let mut wtel = Telemetry::with_registry(Arc::clone(&wreg));
            if let Some(t) = tel.trace_handle() {
                wtel = wtel.with_trace(t);
            }
            (wreg, wtel)
        },
        |_w, (_, wtel), i| {
            let (path, key, unit) = &units[i];
            let cached = cache.and_then(|c| c.get(*key)).and_then(|e| {
                let item = check_line_from_entry(path.as_str(), unit, &e)?;
                wtel.count("cache.hits", 1);
                if let Some(p) = &progress {
                    p.add_cache_hit();
                }
                Some(item)
            });
            let item = cached.unwrap_or_else(|| {
                if cache.is_some() {
                    wtel.count("cache.misses", 1);
                    if let Some(p) = &progress {
                        p.add_cache_miss();
                    }
                }
                let (item, entry) = match validate_with_telemetry(unit, &checker, wtel) {
                    Ok(Verdict::Valid) => (
                        (
                            format!("{path}: valid ({} @{})", unit.pass, unit.src.name),
                            false,
                        ),
                        CacheEntry::new(crellvm::erhl::cache::OUTCOME_VALID, String::new()),
                    ),
                    Ok(Verdict::NotSupported(r)) => (
                        (format!("{path}: not-supported ({r})"), false),
                        CacheEntry::new(crellvm::erhl::cache::OUTCOME_NOT_SUPPORTED, r),
                    ),
                    Err(e) => (
                        (
                            format!("{path}: FAILED at {}\n    reason: {}", e.at, e.reason),
                            true,
                        ),
                        CacheEntry::new(
                            crellvm::erhl::cache::OUTCOME_FAILED,
                            format!("{}\n{}", e.at, e.reason),
                        ),
                    ),
                };
                if let Some(c) = cache {
                    if c.insert(*key, entry) {
                        wtel.count("cache.evictions", 1);
                    }
                }
                item
            });
            if let Some(p) = &progress {
                p.add_done(1);
            }
            item
        },
        |_w, (wreg, _), _steals| wreg.snapshot(),
    );
    if let Some(p) = &progress {
        p.finish();
    }
    for snapshot in &pool.worker_summaries {
        registry.merge_snapshot(snapshot);
    }
    let mut failures = 0usize;
    for (line, failed) in pool.results {
        println!("{line}");
        failures += usize::from(failed);
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Render a metrics snapshot as the paper's Fig 6/8-style tables (for a
/// pipeline snapshot) or a campaign table (for a fuzz snapshot). The
/// inference-rule table shows the `top` most-applied rules.
fn render_report(snap: &Snapshot, top: usize) -> String {
    use std::fmt::Write;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let ms = |name: &str| {
        snap.timers
            .get(name)
            .map_or(0.0, |t| t.total_nanos as f64 / 1_000_000.0)
    };
    let mut out = String::new();

    // Fig 6/8: validation outcomes and the four time columns — only for a
    // snapshot of the validation pipeline, so a fuzz campaign's metrics
    // never render as a table of zeros.
    if snap.counters.contains_key("pipeline.steps") {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8}",
            "validation", "#V", "#F", "#NS"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8}",
            "",
            counter("pipeline.steps"),
            counter("pipeline.failed"),
            counter("pipeline.not_supported"),
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8} {:>8}",
            "time (ms)", "Orig", "PCal", "I-O", "PCheck"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            "",
            ms("time.orig"),
            ms("time.pcal"),
            ms("time.io"),
            ms("time.pcheck"),
        );
    }

    // Fuzz campaign: oracle verdicts, how much refinement work the oracle
    // did (and skipped), and where its interpreter time went.
    let verdicts: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("fuzz.verdict.").map(|name| (name, *v)))
        .collect();
    if !verdicts.is_empty() {
        if !out.is_empty() {
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "{:<34} {:>12}", "fuzz campaign", "value");
        for (name, n) in verdicts {
            let _ = writeln!(out, "  {:<32} {n:>12}", format!("verdict.{name}"));
        }
        for (row, name) in [
            ("refinement.skipped", "fuzz.refinement.skipped"),
            ("interp.runs", "interp.runs"),
            ("interp.steps", "interp.steps"),
        ] {
            if let Some(n) = snap.counters.get(name) {
                let _ = writeln!(out, "  {row:<32} {n:>12}");
            }
        }
        for name in ["interp.tier.compile", "interp.tier.exec"] {
            if snap.timers.contains_key(name) {
                let _ = writeln!(out, "  {:<32} {:>12.2}", format!("{name} (ms)"), ms(name));
            }
        }
        let bc_hits = counter("interp.bc.cache.hits");
        let bc_misses = counter("interp.bc.cache.misses");
        if bc_hits + bc_misses > 0 {
            let _ = writeln!(out, "  {:<32} {bc_hits:>12}", "interp.bc.cache.hits");
            let _ = writeln!(out, "  {:<32} {bc_misses:>12}", "interp.bc.cache.misses");
            let rate = 100.0 * bc_hits as f64 / (bc_hits + bc_misses) as f64;
            let _ = writeln!(out, "  {:<32} {:>11.1}%", "interp.bc.cache.hit_rate", rate);
        }
    }

    // Validation-engine health: worker count, cache effectiveness, proof
    // bytes per wire format, steal balance.
    let mut steals: Vec<(&String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("validate.steal."))
        .map(|(k, v)| (k, *v))
        .collect();
    steals.sort_by_key(|(k, _)| {
        k.strip_prefix("validate.steal.w")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(u64::MAX)
    });
    let cache_hits = counter("cache.hits");
    let cache_misses = counter("cache.misses");
    let io_rows = ["io.bytes.json", "io.bytes.v2"];
    let io_total: u64 = io_rows.iter().map(|r| counter(r)).sum();
    if counter("pipeline.jobs") > 0
        || !steals.is_empty()
        || cache_hits + cache_misses > 0
        || io_total > 0
    {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<34} {:>12}", "engine", "value");
        if counter("pipeline.jobs") > 0 {
            let _ = writeln!(out, "  {:<32} {:>12}", "jobs", counter("pipeline.jobs"));
        }
        if cache_hits + cache_misses > 0 {
            let _ = writeln!(out, "  {:<32} {cache_hits:>12}", "cache.hits");
            let _ = writeln!(out, "  {:<32} {cache_misses:>12}", "cache.misses");
            let rate = 100.0 * cache_hits as f64 / (cache_hits + cache_misses) as f64;
            let _ = writeln!(out, "  {:<32} {:>11.1}%", "cache.hit_rate", rate);
            if counter("cache.evictions") > 0 {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12}",
                    "cache.evictions",
                    counter("cache.evictions")
                );
            }
            // Entries decoded back into a function body; the engine
            // records it, even at zero, whenever the cache is on.
            if let Some(n) = snap.counters.get("cache.materialized") {
                let _ = writeln!(out, "  {:<32} {n:>12}", "cache.materialized");
            }
        }
        for row in io_rows {
            if counter(row) > 0 {
                let _ = writeln!(out, "  {:<32} {:>12}", row, counter(row));
            }
        }
        for (name, n) in steals {
            let _ = writeln!(out, "  {:<32} {n:>12}", &name["validate.".len()..]);
        }
    }

    // Fig 7 axis: inference-rule applications, most-used first.
    let mut rules: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("checker.rule.").map(|r| (r, *v)))
        .collect();
    rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    if !rules.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<34} {:>12}", "inference rule", "applications");
        let shown = rules.len().min(top.max(1));
        for (rule, n) in &rules[..shown] {
            let _ = writeln!(out, "  {rule:<32} {n:>12}");
        }
        if rules.len() > shown {
            let _ = writeln!(
                out,
                "  ... ({} more rules; raise --top)",
                rules.len() - shown
            );
        }
    }

    // Histogram distributions with the log₂-bucket quantile estimates.
    if !snap.histograms.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>10} {:>8} {:>8} {:>8}",
            "histogram", "count", "mean", "p50", "p95", "p99"
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<22} {:>8} {:>10.1} {:>8.0} {:>8.0} {:>8.0}",
                name,
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }

    // Per-pass domain counters (allocas promoted, GVN replacements, ...).
    let pass_counters: Vec<(&String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("pass."))
        .map(|(k, v)| (k, *v))
        .collect();
    if !pass_counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<34} {:>12}", "pass counter", "value");
        for (name, n) in pass_counters {
            let _ = writeln!(out, "  {:<32} {n:>12}", &name["pass.".len()..]);
        }
    }
    out
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let mut format = "text".to_string();
    let mut top = 20usize;
    let mut weight = ProfileWeight::Time;
    let mut file: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a name")?.clone(),
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --top count: {e}"))?;
                if top == 0 {
                    return Err("--top must be at least 1".into());
                }
            }
            "--weight" => {
                weight = match it.next().ok_or("--weight needs a name")?.as_str() {
                    "time" => ProfileWeight::Time,
                    "cost" => ProfileWeight::Cost,
                    other => return Err(format!("unknown weight {other} (time|cost)")),
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("report: unknown flag {other}"))
            }
            _ => {
                if file.replace(a).is_some() {
                    return Err("report: need exactly one input file".into());
                }
            }
        }
    }
    let path = file.ok_or("report: need an input file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match format.as_str() {
        "text" => {
            let snap = Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", render_report(&snap, top));
        }
        "openmetrics" => {
            let snap = Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", openmetrics(&snap));
        }
        "chrome-trace" => {
            let tree = SpanTree::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", chrome_trace(&tree));
        }
        "profile" => {
            let tree = SpanTree::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", Profile::from_tree(&tree).top_table(weight, top));
        }
        "folded" => {
            let tree = SpanTree::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", Profile::from_tree(&tree).folded(weight));
        }
        other => {
            return Err(format!(
                "report: unknown format {other} (text|openmetrics|chrome-trace|profile|folded)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Inspect a forensic bundle and replay its proof — full and minimized —
/// against the current checker, confirming the recorded failure class.
fn cmd_forensics(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("forensics: need exactly one bundle file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bundle = ForensicBundle::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("bundle:    {path} (v{})", bundle.version);
    println!("pass:      {}", bundle.pass);
    println!("function:  @{}", bundle.func);
    println!("class:     {}", bundle.class);
    println!("at:        {}", bundle.at);
    println!("reason:    {}", bundle.reason);
    if let Some(assertion) = &bundle.failing_assertion {
        println!("assertion:");
        for line in assertion.lines() {
            println!("    {line}");
        }
    }
    if !bundle.rule_history.is_empty() {
        println!("rule history (last {} applied):", bundle.rule_history.len());
        for rule in &bundle.rule_history {
            println!("    {rule}");
        }
    }
    println!(
        "commands:  {} total, {} in minimized core",
        bundle.commands.len(),
        bundle.minimized.len()
    );
    for (i, cmd) in bundle.commands.iter().enumerate() {
        let mark = if bundle.minimized.contains(&i) {
            "*"
        } else {
            " "
        };
        println!("  {mark} [{i}] {cmd}");
    }

    let report = replay(&bundle, &CheckerConfig::sound())?;
    let show = |class: Option<crellvm::telemetry::forensics::FailureClass>| match class {
        Some(c) => format!("fails ({c})"),
        None => "validates".to_string(),
    };
    println!();
    println!("replay (full proof):      {}", show(report.full_class));
    if let Some((at, reason)) = &report.full_failure {
        println!("    at {at}: {reason}");
    }
    println!("replay (minimized core):  {}", show(report.minimized_class));
    if report.confirms() {
        println!(
            "verdict: CONFIRMED — both replays fail in class {}",
            bundle.class
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "verdict: DIVERGED — recorded class {} not reproduced",
            bundle.class
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = CampaignConfig {
        seed_start: 0,
        seed_end: 100,
        jobs: default_jobs(),
        mutate_rate: 0.25,
        ..CampaignConfig::default()
    };
    let mut out: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut progress_mode: Option<ProgressMode> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let spec = it.next().ok_or("--seeds needs a range A..B")?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| format!("bad seed range {spec} (want A..B)"))?;
                cfg.seed_start = a.parse().map_err(|e| format!("bad seed start: {e}"))?;
                cfg.seed_end = b.parse().map_err(|e| format!("bad seed end: {e}"))?;
                if cfg.seed_end <= cfg.seed_start {
                    return Err(format!("empty seed range {spec}"));
                }
            }
            "--jobs" => cfg.jobs = parse_jobs(it.next())?,
            "--mutate-rate" => {
                let r: f64 = it
                    .next()
                    .ok_or("--mutate-rate needs a probability")?
                    .parse()
                    .map_err(|e| format!("bad mutate rate: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("mutate rate {r} outside [0, 1]"));
                }
                cfg.mutate_rate = r;
            }
            "--compiler" => {
                let name = it.next().ok_or("--compiler needs a population")?;
                cfg.bugs = CampaignConfig::bugs_for_compiler(name).ok_or_else(|| {
                    format!("unknown compiler {name} (3.7.1|5.0.1-pre|none, or a single bug id like pr24179)")
                })?;
                cfg.compiler = name.clone();
            }
            "--tier" => {
                let name = it.next().ok_or("--tier needs tree|bytecode|differential")?;
                cfg.oracle.tier = crellvm::interp::Tier::parse(name)
                    .ok_or_else(|| format!("unknown tier {name} (tree|bytecode|differential)"))?;
            }
            "--out" => out = Some(it.next().ok_or("--out needs a directory")?.clone()),
            "--metrics" => metrics = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--progress" => progress_mode = Some(parse_progress(it.next())?),
            other => return Err(format!("fuzz: unknown flag {other}")),
        }
    }

    let (registry, tel) = make_telemetry(None)?;
    // One progress unit per oracle step: seeds × passes, so the rate
    // column is the fuzzer's exec/s.
    let progress = progress_mode.map(|mode| {
        let steps = (cfg.seed_end - cfg.seed_start) * PASS_ORDER.len() as u64;
        let p = Progress::new_with_alarms(mode, "fuzz", steps);
        p.start_ticker(PROGRESS_PERIOD);
        p
    });
    let report = run_campaign_with_progress(&cfg, &tel, progress.clone());
    if let Some(p) = &progress {
        p.finish();
    }

    println!(
        "campaign: seeds {}..{} compiler {} mutate-rate {} tier {} ({} steps)",
        report.seed_start,
        report.seed_end,
        report.compiler,
        report.mutate_rate,
        cfg.oracle.tier.name(),
        report.steps
    );
    for (verdict, n) in &report.verdicts {
        println!("  {verdict:<17} {n}");
    }
    if !report.attributed.is_empty() {
        println!("historical bugs caught:");
        for (bug, n) in &report.attributed {
            println!("  {bug:<17} {n}");
        }
    }
    let fired = report.rule_coverage.len();
    println!(
        "rule coverage: {fired}/{} rules fired",
        crellvm::erhl::all_rule_names().len()
    );
    for finding in &report.findings {
        println!();
        println!(
            "[{:?}] seed {} pass {} @{}",
            finding.kind, finding.seed, finding.pass, finding.func
        );
        println!("  reason: {}", finding.reason);
        for m in &finding.mutations {
            println!("  mutation: {} ({})", m.describe(), m.bug_class().name());
        }
        for bug in &finding.attributed_bugs {
            println!("  attributed: {bug}");
        }
        println!("  repro: {}", finding.repro);
    }

    if let Some(dir) = &out {
        let written = write_findings(&report, std::path::Path::new(dir))
            .map_err(|e| format!("{dir}: {e}"))?;
        println!();
        println!("wrote {} files to {dir}/", written.len());
    }
    if let Some(path) = &metrics {
        let json = registry.snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }

    let divergences = report
        .findings_of(crellvm::fuzz::FindingKind::TierDivergence)
        .count();
    if divergences > 0 {
        eprintln!(
            "TIER DIVERGENCE: the interpreter tiers disagreed on an observable ({divergences} finding(s))"
        );
    }
    if report.has_soundness_alarm() {
        eprintln!(
            "SOUNDNESS ALARM: checker accepted a refinement-violating translation ({} finding(s))",
            report
                .findings_of(crellvm::fuzz::FindingKind::SoundnessAlarm)
                .count()
        );
        Ok(ExitCode::FAILURE)
    } else if divergences > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use crellvm::serve::ServeConfig;
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--jobs" => cfg.jobs = parse_jobs(it.next())?,
            "--executors" => {
                cfg.executors = it
                    .next()
                    .ok_or("--executors needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --executors: {e}"))?
            }
            "--queue" => {
                cfg.queue_capacity = it
                    .next()
                    .ok_or("--queue needs a capacity")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?
            }
            "--cache-dir" => {
                let dir = it.next().ok_or("--cache-dir needs a path")?;
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                cfg.cache_dir = Some(dir.clone());
            }
            "--access-log" => {
                cfg.access_log = Some(it.next().ok_or("--access-log needs a path")?.clone())
            }
            "--span-log" => {
                cfg.span_log = Some(it.next().ok_or("--span-log needs a path")?.clone())
            }
            other => return Err(format!("serve: unknown flag {other}")),
        }
    }
    let handle = crellvm::serve::start(cfg)?;
    println!("listening on http://{}", handle.addr());
    // Tests and scripts scrape the line above to find the port.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // The daemon's threads do the work; this one waits, untimed, to be
    // killed (`park` may return spuriously, hence the loop).
    loop {
        std::thread::park();
    }
}

fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    use crellvm::serve::top;
    let mut addr: Option<String> = None;
    let mut once = false;
    let mut interval = Duration::from_millis(1000);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs host:port")?.clone()),
            "--once" => once = true,
            "--interval-ms" => {
                interval = Duration::from_millis(
                    it.next()
                        .ok_or("--interval-ms needs a count")?
                        .parse()
                        .map_err(|e| format!("bad --interval-ms: {e}"))?,
                )
            }
            other => return Err(format!("top: unknown flag {other}")),
        }
    }
    let addr = addr.ok_or("top: --addr host:port is required")?;
    if once {
        print!("{}", top::frame(&addr)?);
        return Ok(ExitCode::SUCCESS);
    }
    loop {
        let frame = top::frame(&addr)?;
        // Clear screen + home, then one coherent frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "opt" => cmd_opt(rest),
        "run" => cmd_run(rest),
        "diff" => cmd_diff(rest),
        "gen" => cmd_gen(rest),
        "check" => cmd_check(rest),
        "report" => cmd_report(rest),
        "forensics" => cmd_forensics(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
