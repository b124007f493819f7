//! End-to-end tests of the `crellvm` command-line tool.

use crellvm::erhl::serialize_bin::fnv64;
use std::path::PathBuf;
use std::process::{Command, Output};

mod hostile_ir;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_crellvm")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpfile(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crellvm_cli_{name}"))
}

#[test]
fn gen_run_opt_diff_roundtrip() {
    let prog = tmpfile("a.cll");
    let out = run(&[
        "gen",
        "--seed",
        "11",
        "--functions",
        "2",
        "--out",
        prog.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // run: prints a trace and a normal end.
    let out = run(&["run", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- end: Ret"), "{stdout}");

    // opt: every translation validates; --emit produces parseable IR.
    let out = run(&["opt", prog.to_str().unwrap(), "--emit"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid"));
    assert!(!stdout.contains("FAILED"));
    let ir_start = stdout
        .find("define")
        .or_else(|| stdout.find("declare"))
        .unwrap();
    let optimized = tmpfile("a_opt.cll");
    std::fs::write(&optimized, &stdout[ir_start..]).unwrap();

    // diff: a module equals itself; differs from another seed.
    let out = run(&["diff", prog.to_str().unwrap(), prog.to_str().unwrap()]);
    assert!(out.status.success());
    let other = tmpfile("b.cll");
    let out = run(&[
        "gen",
        "--seed",
        "12",
        "--functions",
        "2",
        "--out",
        other.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&["diff", prog.to_str().unwrap(), other.to_str().unwrap()]);
    assert!(!out.status.success());
}

#[test]
fn opt_with_bugs_reports_failures_and_exits_nonzero() {
    let prog = tmpfile("buggy.cll");
    std::fs::write(
        &prog,
        r#"
        declare @bar(ptr, ptr)
        define @main(ptr %p) {
        entry:
          %q1 = gep inbounds ptr %p, i64 10
          %q2 = gep ptr %p, i64 10
          call void @bar(ptr %q1, ptr %q2)
          ret void
        }
        "#,
    )
    .unwrap();
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--pass",
        "gvn",
        "--bugs",
        "3.7.1",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("reason:"), "{stdout}");

    // The fixed compiler on the same program validates and exits zero.
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--pass",
        "gvn",
        "--bugs",
        "none",
    ]);
    assert!(out.status.success());
}

#[test]
fn proof_dump_and_independent_check() {
    let dir = std::env::temp_dir().join("crellvm_cli_proofs");
    let _ = std::fs::remove_dir_all(&dir);
    let prog = tmpfile("chk.cll");
    let out = run(&[
        "gen",
        "--seed",
        "21",
        "--functions",
        "2",
        "--out",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Dump proofs in both formats while optimizing.
    for (flag, ext) in [(None, "json"), (Some("--binary"), "cpb")] {
        let sub = dir.join(ext);
        let mut args = vec![
            "opt",
            prog.to_str().unwrap(),
            "--pass",
            "mem2reg",
            "--proof-dir",
            sub.to_str().unwrap(),
        ];
        if let Some(f) = flag {
            args.push(f);
        }
        assert!(run(&args).status.success());
        let proofs: Vec<_> = std::fs::read_dir(&sub)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        assert!(!proofs.is_empty(), "no .{ext} proofs written");

        // The separate checker process validates each file.
        let args: Vec<&str> = std::iter::once("check")
            .chain(proofs.iter().map(|p| p.to_str().unwrap()))
            .collect();
        let out = run(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("valid"));
    }

    // Binary proofs are smaller than their JSON counterparts.
    let jlen: u64 = std::fs::read_dir(dir.join("json"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let blen: u64 = std::fs::read_dir(dir.join("cpb"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(blen < jlen, "binary {blen} not smaller than json {jlen}");

    // Attack the checker at the proof-file fence: a damaged proof file
    // is exit 2 naming the file, never a panic.
    let good = std::fs::read_dir(dir.join("cpb"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .next()
        .unwrap();
    let bytes = std::fs::read(good).unwrap();
    // Recompute the checksum (bytes 2..10 hash everything after them), so
    // the damage reaches the decoder's own checks.
    let reseal = |mut b: Vec<u8>| {
        let sum = fnv64(&b[10..]);
        b[2..10].copy_from_slice(&sum.to_le_bytes());
        b
    };
    let mid = bytes.len() / 2;
    let mut flipped = bytes.clone();
    flipped[mid] ^= 0x10;
    let mut trailing = bytes.clone();
    trailing.push(0);
    // A v1 dump from an older build starts with its pass name's length.
    let mut v1 = bytes.clone();
    v1[0] = b"mem2reg".len() as u8;
    let cases = [
        ("empty", Vec::new(), "missing v2 magic"),
        ("half", bytes[..mid].to_vec(), "v2 checksum mismatch"),
        ("flipped", flipped.clone(), "v2 checksum mismatch"),
        ("trailing", reseal(trailing), "1 trailing bytes"),
        ("v1", v1, "missing v2 magic"),
        ("garbage", vec![0xff, 0xff, 0xff], "missing v2 magic"),
    ];
    for (name, content, why) in cases {
        let path = dir.join(format!("{name}.cpb"));
        std::fs::write(&path, content).unwrap();
        let out = run(&["check", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(path.to_str().unwrap()), "{name}: {stderr}");
        assert!(stderr.contains(why), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    // Re-sealed, the same flip reaches the body decoder and perhaps the
    // checker: any verdict or clean error will do, a panic will not.
    let path = dir.join("resealed.cpb");
    std::fs::write(&path, reseal(flipped)).unwrap();
    let out = run(&["check", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0..=2)), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn metrics_trace_and_report() {
    let prog = tmpfile("tel.cll");
    let out = run(&[
        "gen",
        "--seed",
        "31",
        "--functions",
        "2",
        "--out",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let metrics = tmpfile("tel_metrics.json");
    let trace = tmpfile("tel_trace.jsonl");
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // The metrics file is a parseable registry snapshot with live data.
    let snap_json = std::fs::read_to_string(&metrics).unwrap();
    let snap = crellvm::telemetry::Snapshot::from_json(&snap_json).expect("metrics file parses");
    assert!(snap.counters.get("pipeline.steps").copied().unwrap_or(0) > 0);
    assert!(snap.timers.contains_key("time.pcheck"));

    // The trace is JSON-lines with one validation.step event per step.
    let steps = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .map(|l| crellvm::telemetry::Event::from_json_line(l).expect("trace line parses"))
        .filter(|e| e.kind == "validation.step")
        .count();
    assert_eq!(steps as u64, snap.counters["pipeline.steps"]);

    // `report` renders the tables with a non-zero #V.
    let out = run(&["report", metrics.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("#V"), "{stdout}");
    assert!(stdout.contains("PCheck"), "{stdout}");
    assert!(stdout.contains("inference rule"), "{stdout}");
    let v_row = stdout.lines().nth(1).expect("counts row");
    let v: u64 = v_row
        .split_whitespace()
        .next()
        .expect("#V value")
        .parse()
        .expect("#V is a number");
    assert!(v > 0, "#V must be non-zero: {stdout}");

    // A missing or malformed metrics file is a clean error.
    let out = run(&["report", "/nonexistent.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn report_of_fuzz_metrics_shows_the_campaign_not_pipeline_zeros() {
    let metrics = tmpfile("fuzz_metrics.json");
    let out = run(&[
        "fuzz",
        "--seeds",
        "0..8",
        "--jobs",
        "1",
        "--compiler",
        "3.7.1",
        "--mutate-rate",
        "0.25",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" tier bytecode "), "{stdout}");

    let out = run(&["report", metrics.to_str().unwrap()]);
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(!report.contains("Orig"), "{report}");
    assert!(!report.contains("#V"), "{report}");
    assert!(report.starts_with("fuzz campaign"), "{report}");
    assert!(report.contains("verdict.agree"), "{report}");
    // The oracle's work counts: skipped refinement legs and the
    // interpreter runs and steps it did do.
    for row in ["refinement.skipped", "interp.runs", "interp.steps"] {
        let n: u64 = report
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(row))
            .unwrap_or_else(|| panic!("no {row} row: {report}"))
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{row} is not a count ({e}): {report}"));
        assert!(n > 0, "{row} is zero: {report}");
    }
    assert!(report.contains("interp.tier.exec (ms)"), "{report}");
    assert!(report.contains("interp.bc.cache.hit_rate"), "{report}");

    // An `opt` snapshot keeps the Fig 6/8 tables and gets no campaign table.
    let prog = tmpfile("fuzz_report_opt.cll");
    let out = run(&["gen", "--seed", "5", "--out", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let opt_metrics = tmpfile("fuzz_report_opt.json");
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--metrics",
        opt_metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&["report", opt_metrics.to_str().unwrap()]);
    let report = String::from_utf8_lossy(&out.stdout);
    let header: Vec<&str> = report.lines().take(5).collect();
    assert!(header[0].starts_with("validation") && header[0].contains("#V"));
    assert!(header[3].starts_with("time (ms)") && header[3].contains("Orig"));
    // `opt` runs each pass once: Orig is not measured, and says so.
    let times: Vec<&str> = header[4].split_whitespace().collect();
    assert_eq!(times.len(), 4, "{report}");
    assert_eq!(times[0], "-", "{report}");
    assert!(
        times[1..].iter().all(|t| t.parse::<f64>().is_ok()),
        "{report}"
    );
    assert!(!report.contains("fuzz campaign"), "{report}");
}

#[test]
fn cache_dir_serves_warm_runs_with_identical_verdicts() {
    let prog = tmpfile("cache.cll");
    let out = run(&[
        "gen",
        "--seed",
        "41",
        "--functions",
        "3",
        "--out",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let dir = std::env::temp_dir().join("crellvm_cli_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics_cold = tmpfile("cache_cold.json");
    let metrics_warm = tmpfile("cache_warm.json");

    let run_cached = |metrics: &PathBuf| {
        run(&[
            "opt",
            prog.to_str().unwrap(),
            "--cache-dir",
            dir.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
    };
    let cold = run_cached(&metrics_cold);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stdout)
    );
    let warm = run_cached(&metrics_warm);
    assert!(warm.status.success());

    // Same verdict lines, cold and warm.
    assert_eq!(cold.stdout, warm.stdout, "verdicts differ on a warm run");

    let snap = |p: &PathBuf| {
        crellvm::telemetry::Snapshot::from_json(&std::fs::read_to_string(p).unwrap()).unwrap()
    };
    let (cold_snap, warm_snap) = (snap(&metrics_cold), snap(&metrics_warm));
    let steps = cold_snap.counters["pipeline.steps"];
    assert!(steps > 0);
    assert_eq!(cold_snap.counters.get("cache.misses"), Some(&steps));
    assert_eq!(warm_snap.counters.get("cache.hits"), Some(&steps));
    assert_eq!(
        cold_snap.deterministic().to_json(),
        warm_snap.deterministic().to_json(),
        "deterministic metrics differ between cold and warm --cache-dir runs"
    );

    // The report renders the cache and io byte columns.
    let out = run(&["report", metrics_warm.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache.hits"), "{stdout}");
    assert!(stdout.contains("cache.hit_rate"), "{stdout}");
    assert!(stdout.contains("io.bytes.v2"), "{stdout}");

    // `check --cache-dir`: every proof misses on the first run and hits on
    // the second, as the runs' `--metrics` snapshots record.
    let pdir = std::env::temp_dir().join("crellvm_cli_cache_proofs");
    let _ = std::fs::remove_dir_all(&pdir);
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--pass",
        "mem2reg",
        "--proof-dir",
        pdir.to_str().unwrap(),
        "--binary",
    ]);
    assert!(out.status.success());
    let proofs: Vec<String> = std::fs::read_dir(&pdir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    assert!(!proofs.is_empty());
    let cdir = std::env::temp_dir().join("crellvm_cli_cache_check");
    let _ = std::fs::remove_dir_all(&cdir);
    let check_cached = |metrics: &PathBuf| {
        let mut args: Vec<&str> = vec![
            "check",
            "--cache-dir",
            cdir.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ];
        args.extend(proofs.iter().map(String::as_str));
        run(&args)
    };
    let (check_cold, check_warm) = (tmpfile("check_cold.json"), tmpfile("check_warm.json"));
    let first = check_cached(&check_cold);
    assert!(first.status.success());
    let second = check_cached(&check_warm);
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout);
    let n = proofs.len() as u64;
    let (cold_snap, warm_snap) = (snap(&check_cold), snap(&check_warm));
    assert_eq!(cold_snap.counters.get("cache.misses"), Some(&n));
    assert_eq!(cold_snap.counters.get("cache.hits"), None);
    assert_eq!(warm_snap.counters.get("cache.hits"), Some(&n));
    assert_eq!(warm_snap.counters.get("cache.misses"), None);
}

#[test]
fn a_cached_proof_that_does_not_decode_is_rebuilt_from_the_input() {
    use crellvm::erhl::{serialize_bin, CacheEntry, CacheKey, CheckerConfig};
    use crellvm::passes::{BugSet, PassConfig, ProofFormat};

    let prog = tmpfile("hostile_cache.cll");
    let out = run(&[
        "gen",
        "--seed",
        "7",
        "--functions",
        "6",
        "--out",
        prog.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let dir = tmpfile("hostile_cache_store");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = tmpfile("hostile_cache_metrics.json");
    let opt = |extra: &[&str]| {
        let mut args = vec![
            "opt",
            prog.to_str().unwrap(),
            "--bugs",
            "3.7.1",
            "--emit",
            "--cache-dir",
            dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let cold = opt(&[]);
    // Two gvn steps fail under the 3.7.1 bugs: the verdicts that must
    // survive include failure reasons and the exit status.
    assert_eq!(cold.status.code(), Some(1));

    // Re-seal the first function's mem2reg entry around proof bytes that
    // do not decode, and delete its instcombine entry, so the next pass
    // misses and the function must be rebuilt from the planted entry.
    let m = crellvm::ir::parse_module(&std::fs::read_to_string(&prog).unwrap()).unwrap();
    let key = |digest: u64, pass: &str| {
        let key = CacheKey::for_function(
            digest,
            pass,
            PassConfig::with_bugs(BugSet::llvm_3_7_1()).cache_token(),
            CheckerConfig::sound().cache_token(),
            ProofFormat::Binary.wire_token(),
        );
        dir.join(format!("{:016x}.cpe", key.0))
    };
    let f_bytes = serialize_bin::to_bytes(&m.functions[0]).unwrap();
    let planted = key(CacheKey::function_digest(&f_bytes), "mem2reg");
    let mut entry: CacheEntry =
        serialize_bin::from_bytes_v2(&std::fs::read(&planted).unwrap()).unwrap();
    std::fs::remove_file(key(entry.tgt_digest, "instcombine")).unwrap();
    entry.proof.truncate(entry.proof.len() / 2);
    std::fs::write(&planted, serialize_bin::to_bytes_v2(&entry).unwrap()).unwrap();

    let warm = opt(&["--metrics", metrics.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(warm.status.code(), cold.status.code(), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        String::from_utf8_lossy(&cold.stdout)
    );
    // The planted entry hit, and the one unit after it missed.
    let snap = crellvm::telemetry::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap())
        .unwrap();
    let units = snap.counters["pipeline.steps"];
    assert_eq!(snap.counters.get("cache.misses"), Some(&1));
    assert_eq!(snap.counters.get("cache.hits"), Some(&(units - 1)));
}

#[test]
fn bad_usage_is_reported() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["opt"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["opt", "/nonexistent.cll"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    // Retired flags and formats are refused by name, not taken for files;
    // `serve` refuses them before it binds a port or prints an address.
    for (args, flag) in [
        (&["opt", "/nonexistent.cll", "--mmap"][..], "--mmap"),
        (&["check", "--mmap", "x.cpb"], "--mmap"),
        (&["serve", "--mmap"], "--mmap"),
        (&["serve", "--bench"], "--bench"),
        (&["serve", "--requests", "3"], "--requests"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    // The retired `bench` subcommand is unknown, and usage no longer
    // lists it.
    let out = run(&["bench", "compare"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage:"), "{stderr}");
    assert!(!stderr.contains("crellvm bench"), "{stderr}");
    let out = run(&["opt", "/nonexistent.cll", "--format", "binary-v1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown proof format binary-v1"),
        "{stderr}"
    );
}

#[test]
fn parse_errors_carry_line_numbers() {
    let prog = tmpfile("broken.cll");
    std::fs::write(&prog, "define @f() {\nentry:\n  %x = bogus i32 1\n}\n").unwrap();
    let out = run(&["run", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn hostile_modules_exit_2_without_output() {
    let prog = tmpfile("hostile.cll");
    let dumps = tmpfile("hostile_proofs");
    for (text, refusal) in hostile_ir::MODULES {
        std::fs::write(&prog, text).unwrap();
        let _ = std::fs::remove_dir_all(&dumps);
        let out = run(&[
            "opt",
            prog.to_str().unwrap(),
            "--proof-dir",
            dumps.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{text:?}: {stderr}");
        assert!(stderr.contains(refusal), "{text:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{text:?} printed to stdout");
        let written = std::fs::read_dir(&dumps).map_or(0, |d| d.count());
        assert_eq!(written, 0, "{text:?} wrote proofs");
    }
}

/// A proof that gives a rule a non-integer type fails its unit, as any
/// rule that does not apply does: `check` exits 1 instead of panicking.
#[test]
fn check_fails_a_rule_at_a_non_integer_width() {
    use crellvm::erhl::TValue;
    use crellvm::erhl::{proof_to_json, ArithRule, CompositeRule, InfRule, ProofBuilder, Side};
    use crellvm::ir::{parse_module, Const, Type};
    let m =
        parse_module("define @f(i32 %x) -> i32 {\nentry:\n  %y = add i32 %x, 0\n  ret i32 %y\n}\n")
            .unwrap();
    let f = &m.functions[0];
    let x = TValue::phy(f.params[0].1);
    let mut pb = ProofBuilder::new("instcombine", f);
    let rule = CompositeRule::ShlShl {
        side: Side::Src,
        ty: Type::Ptr,
        t: x.clone(),
        y: x.clone(),
        a: x,
        c1: Const::Int {
            ty: Type::Ptr,
            bits: 1,
        },
        c2: Const::Int {
            ty: Type::Ptr,
            bits: 2,
        },
    };
    pb.infrule_after_row(0, 0, InfRule::Arith(ArithRule::Composite(rule)));
    let path = tmpfile("ptr_width_proof.json");
    std::fs::write(&path, proof_to_json(&pb.finish()).unwrap()).unwrap();
    let out = run(&["check", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("non-integer type ptr"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn runs_past_the_memory_budget_end_out_of_fuel() {
    let prog = tmpfile("memory_hog.cll");
    for text in hostile_ir::MEMORY_HOGS {
        std::fs::write(&prog, text).unwrap();
        let out = run(&["run", prog.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{text:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.starts_with("-- end: OutOfFuel ("),
            "{text:?}: {stdout}"
        );
    }
}

#[test]
fn forensics_flow_bundles_replay_and_export() {
    // A program that trips PR28562 under the 3.7.1 bug population.
    let prog = tmpfile("pr28562.cll");
    std::fs::write(
        &prog,
        "declare @bar(ptr, ptr)\n\
         define @main(ptr %p) {\n\
         entry:\n\
         \x20 %q1 = gep inbounds ptr %p, i64 10\n\
         \x20 %q2 = gep ptr %p, i64 10\n\
         \x20 call void @bar(ptr %q1, ptr %q2)\n\
         \x20 ret void\n\
         }\n",
    )
    .unwrap();
    let fdir = tmpfile("forensic_out");
    let _ = std::fs::remove_dir_all(&fdir);
    let spans = tmpfile("spans.json");
    let metrics = tmpfile("forensic_metrics.json");

    // opt exits 1 (validation failure) and writes a bundle + span file.
    let out = run(&[
        "opt",
        prog.to_str().unwrap(),
        "--pass",
        "gvn",
        "--bugs",
        "3.7.1",
        "--forensics-dir",
        fdir.to_str().unwrap(),
        "--spans",
        spans.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "the miscompilation is caught");
    let bundle_path = fdir.join("gvn.main.forensic.json");
    assert!(bundle_path.exists(), "bundle file written");

    // The bundle is well-formed and its minimized core is strictly smaller.
    let bundle = crellvm::telemetry::forensics::ForensicBundle::from_json(
        &std::fs::read_to_string(&bundle_path).unwrap(),
    )
    .expect("bundle parses");
    assert!(bundle.minimized.len() < bundle.commands.len());

    // `forensics` replays it to the same failure class and exits 0.
    let out = run(&["forensics", bundle_path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("CONFIRMED"), "{stdout}");
    assert!(stdout.contains(bundle.class.as_str()), "{stdout}");

    // The span file renders as Chrome trace_event JSON.
    let out = run(&[
        "report",
        "--format",
        "chrome-trace",
        spans.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"traceEvents\""), "{stdout}");
    assert!(stdout.contains("\"ph\":\"X\""), "{stdout}");

    // The metrics snapshot renders as OpenMetrics text.
    let out = run(&[
        "report",
        "--format",
        "openmetrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.ends_with("# EOF\n"), "{stdout}");
    assert!(
        stdout.contains("# TYPE pipeline_failed counter"),
        "{stdout}"
    );
    assert!(stdout.contains("pipeline_failed_total 1"), "{stdout}");

    // Text report now carries the histogram quantile table.
    let out = run(&["report", metrics.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p95"), "{stdout}");
    assert!(stdout.contains("histogram"), "{stdout}");

    // Unknown format is a clean usage error.
    let out = run(&["report", "--format", "yaml", metrics.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    // A malformed bundle is a clean error too.
    let out = run(&["forensics", prog.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}
