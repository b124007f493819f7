//! Correctness of the content-addressed validation cache: a warm run must
//! be observably identical to a cold one at any worker count, and the key
//! must fold every input the verdict depends on — so mutating one
//! function, the pass configuration, or the checker version invalidates
//! exactly the affected entries.

use crellvm::erhl::{
    serialize_bin, CacheEntry, CacheKey, CheckerConfig, ValidationCache, CHECKER_VERSION,
};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::ir::printer::print_module;
use crellvm::ir::{parse_module, Module};
use crellvm::passes::pipeline::PASS_ORDER;
use crellvm::passes::{
    run_pipeline_parallel, BugSet, ParallelOptions, PassConfig, PipelineReport, ValidationRun,
};
use crellvm::telemetry::{Snapshot, Telemetry};
use std::sync::Arc;

const BASE: &str = r#"
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
    define @h(i32 %n) -> i32 {
    entry:
      %q = alloca i32
      store i32 %n, ptr %q
      %v = load i32, ptr %q
      ret i32 %v
    }
    define @main() {
    entry:
      %r = call i32 @f(i32 3)
      %s = call i32 @g(i32 %r)
      call void @print(i32 %s)
      ret void
    }
"#;

/// `BASE` with one edited constant in `@g` — every other function is
/// byte-identical.
const MUTATED: &str = r#"
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
      %y = add i32 %x, 7
      ret i32 %y
    }
    define @h(i32 %n) -> i32 {
    entry:
      %q = alloca i32
      store i32 %n, ptr %q
      %v = load i32, ptr %q
      ret i32 %v
    }
    define @main() {
    entry:
      %r = call i32 @f(i32 3)
      %s = call i32 @g(i32 %r)
      call void @print(i32 %s)
      ret void
    }
"#;

fn run(
    m: &Module,
    cache: Option<&Arc<ValidationCache>>,
    jobs: usize,
    config: &PassConfig,
) -> (String, PipelineReport, Snapshot) {
    let tel = Telemetry::disabled();
    let opts = ParallelOptions {
        jobs,
        cache: cache.map(Arc::clone),
        ..ParallelOptions::default()
    };
    let (out, report) = run_pipeline_parallel(m, config, &opts, &tel);
    (print_module(&out), report, tel.registry().snapshot())
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Every default pass through the engine's own API, asking only for
/// verdicts: the report and the registry, before any body is returned.
fn run_verdicts<'a>(
    m: &'a Module,
    config: &'a PassConfig,
    checker: &'a CheckerConfig,
    opts: &'a ParallelOptions,
    tel: &'a Telemetry,
) -> (ValidationRun<'a>, PipelineReport, Snapshot) {
    let mut report = PipelineReport::default();
    let mut run = ValidationRun::new(m, config, checker, opts, tel);
    for pass in PASS_ORDER {
        run.run_pass(pass, &mut report);
    }
    (run, report, tel.registry().snapshot())
}

/// The observables a warm run must share with a cold one.
fn assert_same_run(
    (cold_out, cold_rep, cold_snap): (&str, &PipelineReport, &Snapshot),
    (warm_out, warm_rep, warm_snap): (&str, &PipelineReport, &Snapshot),
    what: &str,
) {
    assert_eq!(cold_out, warm_out, "module differs: {what}");
    assert_eq!(cold_rep.steps.len(), warm_rep.steps.len(), "{what}");
    for (a, b) in cold_rep.steps.iter().zip(&warm_rep.steps) {
        assert_eq!((&a.pass, &a.func), (&b.pass, &b.func), "{what}");
        assert_eq!(a.outcome, b.outcome, "verdict differs: {what}");
        assert_eq!(a.proof_bytes, b.proof_bytes, "{what}");
    }
    assert_eq!(
        cold_snap.deterministic().to_json(),
        warm_snap.deterministic().to_json(),
        "deterministic metrics differ: {what}"
    );
}

fn cache_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cpe"))
        .collect();
    files.sort();
    files
}

#[test]
fn warm_runs_are_byte_identical_to_cold_at_any_jobs_count() {
    let m = parse_module(BASE).unwrap();
    let config = PassConfig::default();

    // Baseline without any cache, then a cold run that populates one.
    let (plain_out, _plain_rep, plain_snap) = run(&m, None, 1, &config);
    let cache = Arc::new(ValidationCache::new());
    let (cold_out, cold_rep, cold_snap) = run(&m, Some(&cache), 1, &config);

    assert_eq!(plain_out, cold_out);
    assert_eq!(
        plain_snap.deterministic().to_json(),
        cold_snap.deterministic().to_json(),
        "a cold cached run must record exactly what an uncached run does"
    );
    let steps = cold_rep.steps.len() as u64;
    assert!(steps > 0);
    assert_eq!(counter(&cold_snap, "cache.misses"), steps);
    assert_eq!(counter(&cold_snap, "cache.hits"), 0);

    for jobs in [1, 2, 8] {
        let (warm_out, warm_rep, warm_snap) = run(&m, Some(&cache), jobs, &config);
        assert_eq!(cold_out, warm_out, "module differs at jobs={jobs}");
        assert_eq!(counter(&warm_snap, "cache.hits"), steps);
        assert_eq!(counter(&warm_snap, "cache.misses"), 0);
        assert_eq!(
            cold_snap.deterministic().to_json(),
            warm_snap.deterministic().to_json(),
            "deterministic metrics differ on a warm run at jobs={jobs}"
        );
        assert_eq!(cold_rep.steps.len(), warm_rep.steps.len());
        for (a, b) in cold_rep.steps.iter().zip(&warm_rep.steps) {
            assert_eq!((&a.pass, &a.func), (&b.pass, &b.func));
            assert_eq!(a.outcome, b.outcome, "verdict differs at jobs={jobs}");
            assert_eq!(a.proof_bytes, b.proof_bytes);
        }
    }
}

#[test]
fn mutating_one_function_invalidates_exactly_its_entries() {
    let config = PassConfig::default();
    let cache = Arc::new(ValidationCache::new());
    let base = parse_module(BASE).unwrap();
    let (_, _, cold) = run(&base, Some(&cache), 1, &config);
    let steps = counter(&cold, "cache.misses");

    // Only @g changed: its four per-pass units miss, everything else hits.
    let mutated = parse_module(MUTATED).unwrap();
    let (_, rep, snap) = run(&mutated, Some(&cache), 2, &config);
    assert_eq!(
        counter(&snap, "cache.misses"),
        4,
        "one function, four passes"
    );
    assert_eq!(counter(&snap, "cache.hits"), steps - 4);
    assert!(rep
        .steps
        .iter()
        .all(|s| matches!(s.outcome, crellvm::passes::StepOutcome::Valid)));
}

#[test]
fn pass_configuration_invalidates_the_whole_cache() {
    let m = parse_module(BASE).unwrap();
    let cache = Arc::new(ValidationCache::new());
    let (_, _, cold) = run(&m, Some(&cache), 1, &PassConfig::default());
    let steps = counter(&cold, "cache.misses");

    // A different bug population transforms (and proves) differently, so
    // every key changes — no stale verdict can leak across configurations.
    let buggy = PassConfig::with_bugs(BugSet::llvm_3_7_1());
    let (_, _, snap) = run(&m, Some(&cache), 1, &buggy);
    assert_eq!(counter(&snap, "cache.misses"), steps);
    assert_eq!(counter(&snap, "cache.hits"), 0);

    // Re-running the original configuration still hits its own entries.
    let (_, _, again) = run(&m, Some(&cache), 1, &PassConfig::default());
    assert_eq!(counter(&again, "cache.hits"), steps);
}

#[test]
fn checker_configuration_and_version_change_the_key() {
    let m = parse_module(BASE).unwrap();
    let config = PassConfig::default();
    let cache = Arc::new(ValidationCache::new());
    let tel = Telemetry::disabled();
    let mk_opts = |cache: &Arc<ValidationCache>| ParallelOptions {
        jobs: 1,
        cache: Some(Arc::clone(cache)),
        ..ParallelOptions::default()
    };

    let opts = mk_opts(&cache);
    let sound = CheckerConfig::sound();
    ValidationRun::new(&m, &config, &sound, &opts, &tel)
        .run_pass("mem2reg", &mut PipelineReport::default());
    let cold = tel.registry().snapshot();
    let steps = counter(&cold, "cache.misses");
    assert!(steps > 0);

    // A checker with a different trust switch must miss everywhere.
    let tel2 = Telemetry::disabled();
    let trusting = CheckerConfig::with_unsound_constexpr_rule();
    ValidationRun::new(&m, &config, &trusting, &opts, &tel2)
        .run_pass("mem2reg", &mut PipelineReport::default());
    let snap2 = tel2.registry().snapshot();
    assert_eq!(counter(&snap2, "cache.misses"), steps);
    assert_eq!(counter(&snap2, "cache.hits"), 0);

    // Bumping the checker version changes every unit key even when the
    // configuration bits are identical.
    let fb = vec![1u8, 2, 3];
    let now = sound.cache_token_versioned(CHECKER_VERSION);
    let next = sound.cache_token_versioned(CHECKER_VERSION + 1);
    assert_ne!(now, next);
    assert_ne!(
        CacheKey::for_unit(&fb, "mem2reg", config.cache_token(), now, 2),
        CacheKey::for_unit(&fb, "mem2reg", config.cache_token(), next, 2),
    );
}

#[test]
fn disk_backed_cache_hits_across_processes() {
    let dir = std::env::temp_dir().join(format!("crellvm_cache_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = parse_module(BASE).unwrap();
    let config = PassConfig::default();

    let cold_cache = Arc::new(ValidationCache::with_dir(&dir).unwrap());
    let (cold_out, _, cold_snap) = run(&m, Some(&cold_cache), 2, &config);
    let steps = counter(&cold_snap, "cache.misses");
    drop(cold_cache);

    // A brand-new cache over the same directory (a fresh process, in
    // effect) serves every unit from disk.
    let warm_cache = Arc::new(ValidationCache::with_dir(&dir).unwrap());
    let (warm_out, _, warm_snap) = run(&m, Some(&warm_cache), 2, &config);
    assert_eq!(cold_out, warm_out);
    assert_eq!(counter(&warm_snap, "cache.hits"), steps);
    assert_eq!(counter(&warm_snap, "cache.misses"), 0);
    assert_eq!(
        cold_snap.deterministic().to_json(),
        warm_snap.deterministic().to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spans_and_forensics_bypass_the_cache() {
    let m = parse_module(BASE).unwrap();
    let cache = Arc::new(ValidationCache::new());
    let (_, _, _) = run(&m, Some(&cache), 1, &PassConfig::default());

    // With span collection on, the units must actually run: no hits, and
    // the span tree still reaches the proof level.
    let tel = Telemetry::disabled();
    let opts = ParallelOptions {
        jobs: 2,
        spans: true,
        cache: Some(Arc::clone(&cache)),
        ..ParallelOptions::default()
    };
    let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
    let snap = tel.registry().snapshot();
    assert_eq!(counter(&snap, "cache.hits"), 0);
    assert_eq!(counter(&snap, "cache.misses"), 0);
    assert!(!report.span_items.is_empty());
}

#[test]
fn the_digest_split_leaves_unit_keys_unchanged() {
    // The value the single-pass hash gave before keys were split into a
    // function digest and a finish step.
    let key = CacheKey::for_unit(b"func", "gvn", 0, 0, 2);
    assert_eq!(key, CacheKey(0x22bf_a476_f516_0567));
    let digest = CacheKey::function_digest(b"func");
    assert_eq!(CacheKey::for_function(digest, "gvn", 0, 0, 2), key);
}

#[test]
fn eviction_in_the_middle_of_a_chain_rebuilds_functions_from_earlier_hits() {
    let m = generate_module(&GenConfig {
        seed: 7,
        functions: 12,
        ..GenConfig::default()
    });
    let config = PassConfig::default();
    let checker = CheckerConfig::sound();
    let (cold_out, cold_rep, cold_snap) = run(&m, None, 1, &config);
    let units = cold_rep.steps.len();

    for jobs in [1, 2, 8] {
        // A cold run fills a cache too small to hold every unit, so some
        // functions hit an early pass and miss a later one.
        let cache = Arc::new(ValidationCache::new().capacity(units * 2 / 3));
        run(&m, Some(&cache), 1, &config);
        let tel = Telemetry::disabled();
        let opts = ParallelOptions {
            jobs,
            cache: Some(Arc::clone(&cache)),
            ..ParallelOptions::default()
        };
        let (vrun, warm_rep, verdicts) = run_verdicts(&m, &config, &checker, &opts, &tel);
        let warm_out = print_module(&vrun.into_module());
        assert_same_run(
            (&cold_out, &cold_rep, &cold_snap),
            (&warm_out, &warm_rep, &tel.registry().snapshot()),
            &format!("jobs={jobs}"),
        );
        if jobs == 1 {
            // Deterministic at one worker: bodies were decoded between
            // passes, before any was returned.
            assert!(counter(&verdicts, "cache.hits") > 0);
            assert!(counter(&verdicts, "cache.misses") > 0);
            assert!(counter(&verdicts, "cache.materialized") > 0);
        }
    }
}

#[test]
fn a_warm_run_decodes_only_the_bodies_it_returns() {
    let m = parse_module(BASE).unwrap();
    let config = PassConfig::default();
    let checker = CheckerConfig::sound();
    let cache = Arc::new(ValidationCache::new());
    let (_, cold_rep, _) = run(&m, Some(&cache), 1, &config);
    let units = cold_rep.steps.len() as u64;
    let opts = ParallelOptions {
        jobs: 2,
        cache: Some(Arc::clone(&cache)),
        ..ParallelOptions::default()
    };

    // Verdicts only: every unit hits and nothing is decoded.
    let tel = Telemetry::disabled();
    let (_, _, snap) = run_verdicts(&m, &config, &checker, &opts, &tel);
    assert_eq!(counter(&snap, "cache.hits"), units);
    assert_eq!(snap.counters.get("cache.materialized"), Some(&0));
    assert!(!snap.timers.contains_key("time.io.decode"));

    // The pipeline returns the module: one body decoded per function.
    let tel = Telemetry::disabled();
    run_pipeline_parallel(&m, &config, &opts, &tel);
    let snap = tel.registry().snapshot();
    assert_eq!(counter(&snap, "cache.hits"), units);
    assert_eq!(
        counter(&snap, "cache.materialized"),
        m.functions.len() as u64
    );
    assert!(snap.timers.contains_key("time.io.decode"));
}

#[test]
fn an_entry_in_the_version_1_layout_is_a_miss_and_is_overwritten() {
    let dir = std::env::temp_dir().join(format!("crellvm_cache_v1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = parse_module(BASE).unwrap();
    let config = PassConfig::default();
    let open = || Arc::new(ValidationCache::with_dir(&dir).unwrap());
    let (cold_out, _, cold_snap) = run(&m, Some(&open()), 1, &config);
    let steps = counter(&cold_snap, "cache.misses");

    // Rewrite every entry in the layout of entry version 1: the same
    // fields in the same order, without the target digest.
    let files = cache_files(&dir);
    assert_eq!(files.len() as u64, steps);
    for path in &files {
        let e: CacheEntry = serialize_bin::from_bytes_v2(&std::fs::read(path).unwrap()).unwrap();
        let v1 = (
            (1u32, e.wire_format, e.outcome, e.reason),
            (e.proof, e.proof_bytes, e.metrics_json),
        );
        std::fs::write(path, serialize_bin::to_bytes_v2(&v1).unwrap()).unwrap();
    }

    let (warm_out, _, warm_snap) = run(&m, Some(&open()), 1, &config);
    assert_eq!(cold_out, warm_out);
    assert_eq!(counter(&warm_snap, "cache.hits"), 0);
    assert_eq!(counter(&warm_snap, "cache.misses"), steps);
    // The run wrote every entry back in the current layout.
    let current = CacheEntry::new(0, String::new()).entry_version;
    for path in &cache_files(&dir) {
        let e: CacheEntry = serialize_bin::from_bytes_v2(&std::fs::read(path).unwrap()).unwrap();
        assert_eq!(e.entry_version, current, "{}", path.display());
    }
    let (_, _, again) = run(&m, Some(&open()), 1, &config);
    assert_eq!(counter(&again, "cache.hits"), steps);
    let _ = std::fs::remove_dir_all(&dir);
}
