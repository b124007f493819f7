//! The parallel-validation-engine benchmark: full-pipeline wall time at
//! several worker counts over a generated corpus, emitting
//! `BENCH_validate.json` (override the path with `CRELLVM_BENCH_OUT`).
//!
//! Reported per worker count: wall time, the four Fig 6/8 phase columns
//! (Orig/PCal/I-O/PCheck) with the I-O phase split into encode and decode,
//! speedup versus one worker, and steal totals. The `proof_io` section
//! compares the two wire formats (JSON, binary v2) on the
//! same proof corpus — total bytes plus encode/decode time — and the
//! `cache` section times a cold versus a warm `--cache-dir`-style run.
//!
//! The ≥2× speedup target assumes ≥4 available cores; the JSON records
//! `available_parallelism` so results from throttled CI runners (often a
//! single core, where speedup is necessarily ~1×) read correctly.
//!
//! Every timed section runs `CRELLVM_BENCH_REPS` times (default 3) and
//! reports the median rep, shrinking scheduler-jitter noise before the
//! regression sentinel sees it. Besides `BENCH_validate.json` the run
//! appends a flat [`HistoryRecord`] to `BENCH_history.jsonl` (override
//! with `CRELLVM_BENCH_HISTORY`; provenance from `CRELLVM_GIT_SHA` /
//! `CRELLVM_BENCH_TIMESTAMP`) and times a small fuzz campaign into
//! `BENCH_fuzz.json` for the oracle-throughput (exec/s) axis, once on
//! each interpreter tier (`fuzz.campaign_exec_per_s.tree` /
//! `fuzz.campaign_exec_per_s.bc`); the two reports must be identical.

use crellvm_bench::history::{self, HistoryRecord};
use crellvm_core::{
    proof_from_bytes, proof_from_json, proof_to_bytes_v2, proof_to_json, ProofUnit,
};
use crellvm_core::{CheckerConfig, ValidationCache};
use crellvm_fuzz::{run_campaign, CampaignConfig, OracleConfig};
use crellvm_gen::{generate_module, GenConfig};
use crellvm_interp::Tier;
use crellvm_passes::{
    default_jobs, run_pipeline_parallel, run_validated_pass_parallel, CodecScratch,
    ParallelOptions, PassConfig, PipelineReport, ProofFormat,
};
use crellvm_telemetry::{Snapshot, Telemetry};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct PhasesMs {
    orig: f64,
    pcal: f64,
    io: f64,
    io_encode: f64,
    io_decode: f64,
    pcheck: f64,
}

#[derive(Serialize)]
struct JobsResult {
    jobs: usize,
    wall_ms: f64,
    speedup_vs_1: f64,
    phases_ms: PhasesMs,
    steals: u64,
    validations: usize,
    failures: usize,
}

#[derive(Serialize)]
struct FormatStats {
    format: String,
    bytes: u64,
    bytes_vs_json: f64,
    encode_ms: f64,
    decode_ms: f64,
}

#[derive(Serialize)]
struct CacheRun {
    wall_ms: f64,
    hits: u64,
    misses: u64,
}

#[derive(Serialize)]
struct CacheBench {
    jobs: usize,
    cold: CacheRun,
    warm: CacheRun,
    warm_over_cold_wall: f64,
}

/// The bench's fuzz campaign on one interpreter tier.
#[derive(Serialize)]
struct TierExec {
    tier: String,
    /// Oracle steps; identical across tiers, as is the whole report.
    steps: u64,
    wall_ms: f64,
    /// Time inside the refinement leg's interpreter runs.
    interp_exec_ms: f64,
    /// Oracle steps per second of campaign wall time.
    exec_per_s: f64,
}

#[derive(Serialize)]
struct FuzzBench {
    seeds: u64,
    steps: u64,
    wall_ms: f64,
    exec_per_s: f64,
    verdicts: std::collections::BTreeMap<String, u64>,
    /// The same campaign per tier (tree, then bytecode), compilation
    /// included.
    interp_tiers: Vec<TierExec>,
    /// Bytecode campaign exec/s over tree campaign exec/s — the tiering
    /// win as the fuzzer sees it.
    interp_bc_over_tree: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    available_parallelism: usize,
    corpus_modules: usize,
    corpus_functions: usize,
    reps: usize,
    wire_format: String,
    results: Vec<JobsResult>,
    proof_io: Vec<FormatStats>,
    cache: CacheBench,
    fuzz: FuzzBench,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Output path for an artifact: the env override verbatim, else
/// `default_name` at the workspace root (cargo runs benches with the
/// package directory as cwd, which is not where the committed artifacts
/// live).
fn out_path(env_name: &str, default_name: &str) -> std::path::PathBuf {
    match std::env::var(env_name) {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(default_name),
    }
}

/// Run `f` `reps` times and keep the rep with the median wall time, so
/// one descheduled rep cannot masquerade as a regression. The first
/// element of `f`'s result must be the wall time in ms.
fn median_rep<T>(reps: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut runs: Vec<(f64, T)> = (0..reps.max(1)).map(|_| f()).collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

fn timer_ms(snap: &Snapshot, name: &str) -> f64 {
    snap.timers
        .get(name)
        .map_or(0.0, |t| t.total_nanos as f64 / 1e6)
}

fn corpus() -> Vec<crellvm_ir::Module> {
    let modules: usize = std::env::var("CRELLVM_BENCH_MODULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    (0..modules)
        .map(|k| {
            generate_module(&GenConfig {
                seed: 0xbe9c + k as u64,
                functions: 16,
                ..GenConfig::default()
            })
        })
        .collect()
}

fn run_once(
    modules: &[crellvm_ir::Module],
    jobs: usize,
    cache: Option<&Arc<ValidationCache>>,
) -> (f64, PipelineReport, Snapshot) {
    let tel = Telemetry::disabled();
    let opts = ParallelOptions {
        jobs,
        cache: cache.map(Arc::clone),
        ..ParallelOptions::default()
    };
    let config = PassConfig::default();
    let mut merged = PipelineReport::default();
    let t = Instant::now();
    for m in modules {
        let (_, report) = run_pipeline_parallel(m, &config, &opts, &tel);
        merged.merge(report);
    }
    let wall = ms(t.elapsed());
    (wall, merged, tel.registry().snapshot())
}

/// Every proof unit the pipeline produces over the corpus, for the
/// format-comparison section.
fn collect_proofs(modules: &[crellvm_ir::Module]) -> Vec<ProofUnit> {
    let tel = Telemetry::disabled();
    let opts = ParallelOptions::with_jobs(default_jobs());
    let config = PassConfig::default();
    let checker = CheckerConfig::sound();
    let mut proofs = Vec::new();
    for m in modules {
        let mut cur = m.clone();
        for pass in ["mem2reg", "instcombine", "gvn", "licm"] {
            let mut report = PipelineReport::default();
            let out = run_validated_pass_parallel(
                pass,
                &cur,
                &config,
                &checker,
                &opts,
                &tel,
                &mut report,
            );
            proofs.extend(out.proofs);
            cur = out.module;
        }
    }
    proofs
}

fn format_stats(proofs: &[ProofUnit], json_bytes: u64, format: ProofFormat) -> FormatStats {
    let mut scratch = CodecScratch::default();
    let mut bytes = 0u64;
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(proofs.len());
    let t = Instant::now();
    for unit in proofs {
        let n = format.encode_into(unit, &mut scratch);
        bytes += n as u64;
        blobs.push(scratch.buf.clone());
    }
    let encode_ms = ms(t.elapsed());
    let t = Instant::now();
    for blob in &blobs {
        let unit = match format {
            ProofFormat::Json => {
                proof_from_json(std::str::from_utf8(blob).expect("json is utf-8")).expect("decodes")
            }
            _ => proof_from_bytes(blob).expect("decodes"),
        };
        std::hint::black_box(&unit);
    }
    let decode_ms = ms(t.elapsed());
    FormatStats {
        format: format.name().to_string(),
        bytes,
        bytes_vs_json: bytes as f64 / json_bytes.max(1) as f64,
        encode_ms,
        decode_ms,
    }
}

fn main() {
    let modules = corpus();
    let n_functions: usize = modules.iter().map(|m| m.functions.len()).sum();
    let reps = env_usize("CRELLVM_BENCH_REPS", 3);

    // Warm-up: touch every code path once so the first timed run does not
    // pay one-time costs (lazy page-ins, allocator growth).
    let _ = run_once(&modules, default_jobs(), None);

    let mut thread_counts = vec![1, 2, 4, default_jobs()];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut results: Vec<JobsResult> = Vec::new();
    let mut wall_1 = f64::NAN;
    println!(
        "{:>5} {:>10} {:>8}   {:>8} {:>8} {:>8} {:>8} {:>7}",
        "jobs", "wall(ms)", "speedup", "Orig", "PCal", "I-O", "PCheck", "steals"
    );
    for &jobs in &thread_counts {
        let (wall, (report, snap)) = median_rep(reps, || {
            let (wall, report, snap) = run_once(&modules, jobs, None);
            (wall, (report, snap))
        });
        if jobs == 1 {
            wall_1 = wall;
        }
        let steals: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("validate.steal."))
            .map(|(_, v)| *v)
            .sum();
        let speedup = wall_1 / wall;
        println!(
            "{jobs:>5} {wall:>10.2} {speedup:>7.2}x   {:>8.2} {:>8.2} {:>8.2} {:>8.2} {steals:>7}",
            ms(report.time_orig),
            ms(report.time_pcal),
            ms(report.time_io),
            ms(report.time_pcheck),
        );
        results.push(JobsResult {
            jobs,
            wall_ms: wall,
            speedup_vs_1: speedup,
            phases_ms: PhasesMs {
                orig: ms(report.time_orig),
                pcal: ms(report.time_pcal),
                io: ms(report.time_io),
                io_encode: timer_ms(&snap, "time.io.encode"),
                io_decode: timer_ms(&snap, "time.io.decode"),
                pcheck: ms(report.time_pcheck),
            },
            steals,
            validations: report.validations(),
            failures: report.failures(),
        });
    }

    // Wire-format comparison on the same proof corpus.
    let proofs = collect_proofs(&modules);
    let json_bytes: u64 = proofs
        .iter()
        .map(|u| proof_to_json(u).expect("encodes").len() as u64)
        .sum();
    let proof_io: Vec<FormatStats> = [ProofFormat::Json, ProofFormat::Binary]
        .into_iter()
        .map(|f| format_stats(&proofs, json_bytes, f))
        .collect();
    // Sanity anchor: v2 measured through the direct API must agree.
    let v2_direct: u64 = proofs
        .iter()
        .map(|u| proof_to_bytes_v2(u).expect("encodes").len() as u64)
        .sum();
    assert_eq!(proof_io[1].bytes, v2_direct);
    println!(
        "\n{:>10} {:>10} {:>9} {:>11} {:>11}",
        "format", "bytes", "vs json", "encode(ms)", "decode(ms)"
    );
    for f in &proof_io {
        println!(
            "{:>10} {:>10} {:>8.1}% {:>11.2} {:>11.2}",
            f.format,
            f.bytes,
            100.0 * f.bytes_vs_json,
            f.encode_ms,
            f.decode_ms
        );
    }

    // Cold-versus-warm cached run over a fresh on-disk cache directory.
    // The cold leg is inherently once-only (the first run fills the
    // cache); the warm leg takes the median rep.
    let cache_dir =
        std::env::temp_dir().join(format!("crellvm_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let jobs = default_jobs();
    let cache_stats = {
        let cache = Arc::new(ValidationCache::with_dir(&cache_dir).expect("cache dir"));
        let (cold_wall, _, cold_snap) = run_once(&modules, jobs, Some(&cache));
        let (warm_wall, warm_snap) = median_rep(reps, || {
            let (wall, _, snap) = run_once(&modules, jobs, Some(&cache));
            (wall, snap)
        });
        let counter = |s: &Snapshot, n: &str| s.counters.get(n).copied().unwrap_or(0);
        CacheBench {
            jobs,
            cold: CacheRun {
                wall_ms: cold_wall,
                hits: counter(&cold_snap, "cache.hits"),
                misses: counter(&cold_snap, "cache.misses"),
            },
            warm: CacheRun {
                wall_ms: warm_wall,
                hits: counter(&warm_snap, "cache.hits"),
                misses: counter(&warm_snap, "cache.misses"),
            },
            warm_over_cold_wall: warm_wall / cold_wall,
        }
    };
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "\ncache: cold {:.2} ms ({} misses) -> warm {:.2} ms ({} hits), warm/cold = {:.2}",
        cache_stats.cold.wall_ms,
        cache_stats.cold.misses,
        cache_stats.warm.wall_ms,
        cache_stats.warm.hits,
        cache_stats.warm_over_cold_wall
    );

    // Small fuzz campaign for the oracle-throughput axis, run once on
    // each interpreter tier. One oracle step is one (program, pass)
    // three-way comparison, so steps/second is the fuzzer's exec/s.
    let fuzz_seeds = env_usize("CRELLVM_BENCH_FUZZ_SEEDS", 16) as u64;
    let fuzz_cfg = CampaignConfig {
        seed_start: 0,
        seed_end: fuzz_seeds,
        mutate_rate: 0.25,
        ..CampaignConfig::default()
    };
    let run_tier = |tier: Tier| {
        let cfg = CampaignConfig {
            oracle: OracleConfig {
                tier,
                ..fuzz_cfg.oracle.clone()
            },
            ..fuzz_cfg.clone()
        };
        let (wall, (report, snap)) = median_rep(reps, || {
            let tel = Telemetry::disabled();
            let t = Instant::now();
            let report = run_campaign(&cfg, &tel);
            (ms(t.elapsed()), (report, tel.registry().snapshot()))
        });
        let exec = TierExec {
            tier: tier.name().to_string(),
            steps: report.steps,
            wall_ms: wall,
            interp_exec_ms: timer_ms(&snap, "interp.tier.exec"),
            exec_per_s: report.steps as f64 / (wall / 1e3).max(1e-9),
        };
        (exec, report)
    };
    let (tier_tree, tree_report) = run_tier(Tier::Tree);
    let (tier_bc, fuzz_report) = run_tier(Tier::Bytecode);
    assert_eq!(
        tree_report.to_json(),
        fuzz_report.to_json(),
        "tier parity: the campaign report must not depend on the tier"
    );
    let interp_bc_over_tree = tier_bc.exec_per_s / tier_tree.exec_per_s.max(1e-9);
    println!(
        "\ninterp: campaign on tree {:.0} exec/s ({:.2} ms interp), bytecode {:.0} exec/s ({:.2} ms interp): {:.2}x",
        tier_tree.exec_per_s,
        tier_tree.interp_exec_ms,
        tier_bc.exec_per_s,
        tier_bc.interp_exec_ms,
        interp_bc_over_tree
    );

    // The headline numbers are the campaign on its default tier,
    // bytecode.
    let fuzz = FuzzBench {
        seeds: fuzz_seeds,
        steps: fuzz_report.steps,
        wall_ms: tier_bc.wall_ms,
        exec_per_s: tier_bc.exec_per_s,
        verdicts: fuzz_report.verdicts.clone(),
        interp_tiers: vec![tier_tree, tier_bc],
        interp_bc_over_tree,
    };
    println!(
        "fuzz: {} seeds, {} steps in {:.2} ms -> {:.0} exec/s",
        fuzz.seeds, fuzz.steps, fuzz.wall_ms, fuzz.exec_per_s
    );

    let output = BenchOutput {
        available_parallelism: default_jobs(),
        corpus_modules: modules.len(),
        corpus_functions: n_functions,
        reps,
        wire_format: ProofFormat::default().name().to_string(),
        results,
        proof_io,
        cache: cache_stats,
        fuzz,
    };
    let path = out_path("CRELLVM_BENCH_OUT", "BENCH_validate.json");
    write_pretty(&path, &output);
    println!("wrote {}", path.display());

    let fuzz_path = out_path("CRELLVM_BENCH_FUZZ_OUT", "BENCH_fuzz.json");
    write_pretty(&fuzz_path, &output.fuzz);
    println!("wrote {}", fuzz_path.display());

    // Append this run to the bench history for the regression sentinel.
    let history_path = out_path("CRELLVM_BENCH_HISTORY", "BENCH_history.jsonl");
    let record = history_record(&output);
    history::append(&history_path, &record).expect("append bench history");
    println!(
        "appended {} ({} metrics)",
        history_path.display(),
        record.metrics.len()
    );
}

/// Serialize pretty and write atomically.
fn write_pretty<T: Serialize>(path: &Path, value: &T) {
    let compact = serde_json::to_string(value).expect("serialize bench output");
    history::write_atomic(path, &history::pretty(&compact)).expect("write bench output");
}

/// Flatten the structured output into the sentinel's `metric → value`
/// record. Provenance comes from the harness via `CRELLVM_GIT_SHA` and
/// `CRELLVM_BENCH_TIMESTAMP` (the bench itself stays clock-free for
/// provenance so reruns at one commit produce comparable records).
fn history_record(out: &BenchOutput) -> HistoryRecord {
    let sha = std::env::var("CRELLVM_GIT_SHA").unwrap_or_else(|_| "unknown".to_string());
    let ts = std::env::var("CRELLVM_BENCH_TIMESTAMP").unwrap_or_else(|_| "unknown".to_string());
    let mut rec = HistoryRecord::new(&sha, &ts, out.available_parallelism, &out.wire_format);
    for r in &out.results {
        let j = format!("j{}", r.jobs);
        rec.metric(&format!("wall_ms.{j}"), r.wall_ms);
        // Phase times are summed CPU time across workers; at jobs > 1 on
        // an oversubscribed host they measure scheduling luck, not the
        // checker. Only the single-worker phases are stable enough to
        // gate on.
        if r.jobs == 1 {
            rec.metric(&format!("orig_ms.{j}"), r.phases_ms.orig);
            rec.metric(&format!("pcal_ms.{j}"), r.phases_ms.pcal);
            rec.metric(&format!("io_ms.{j}"), r.phases_ms.io);
            rec.metric(&format!("io_encode_ms.{j}"), r.phases_ms.io_encode);
            rec.metric(&format!("io_decode_ms.{j}"), r.phases_ms.io_decode);
            rec.metric(&format!("pcheck_ms.{j}"), r.phases_ms.pcheck);
        }
    }
    if let Some(best) = out.results.last() {
        rec.metric("speedup.jmax", best.speedup_vs_1);
    }
    for f in &out.proof_io {
        rec.metric(&format!("proof_bytes.{}", f.format), f.bytes as f64);
    }
    rec.metric("cache.warm_over_cold", out.cache.warm_over_cold_wall);
    let warm = &out.cache.warm;
    rec.metric(
        "cache.warm_hit_rate",
        warm.hits as f64 / (warm.hits + warm.misses).max(1) as f64,
    );
    rec.metric("fuzz.exec_per_s", out.fuzz.exec_per_s);
    // Per-tier campaign throughput; "exec_per_s" in the name makes the
    // sentinel treat both as higher-is-better.
    for t in &out.fuzz.interp_tiers {
        let key = match t.tier.as_str() {
            "bytecode" => "bc",
            other => other,
        };
        rec.metric(&format!("fuzz.campaign_exec_per_s.{key}"), t.exec_per_s);
    }
    rec
}
