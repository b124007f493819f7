//! End-to-end tests of the regression sentinel: synthetic bench
//! histories through the library API and through `crellvm bench compare`
//! exit codes.

use crellvm::bench::history::{self, compare, CompareConfig, HistoryRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

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
    std::env::temp_dir().join(format!("crellvm_sentinel_{name}"))
}

fn record(sha: &str, metrics: &[(&str, f64)]) -> HistoryRecord {
    let mut r = HistoryRecord::new(sha, "2026-01-01T00:00:00Z", 4, "binary-v2");
    for (k, v) in metrics {
        r.metric(k, *v);
    }
    r
}

/// A history of `n` runs with deterministic MAD-scale jitter around the
/// given phase medians.
fn noisy_history(n: usize, pcheck: f64, wall: f64) -> Vec<HistoryRecord> {
    (0..n)
        .map(|i| {
            // ±4% triangle-ish wobble, deterministic per index.
            let wobble = 1.0 + 0.04 * (((i * 7 + 3) % 9) as f64 - 4.0) / 4.0;
            record(
                &format!("sha{i}"),
                &[
                    ("pcheck_ms.j1", pcheck * wobble),
                    ("wall_ms.j1", wall * wobble),
                    ("fuzz.exec_per_s", 5000.0 / wobble),
                ],
            )
        })
        .collect()
}

#[test]
fn sentinel_flags_a_2x_pcheck_regression() {
    let baseline = noisy_history(10, 100.0, 400.0);
    let current = record(
        "bad",
        &[
            ("pcheck_ms.j1", 200.0),
            ("wall_ms.j1", 404.0),
            ("fuzz.exec_per_s", 5010.0),
        ],
    );
    let report = compare(&current, &baseline, &CompareConfig::default());
    assert!(report.has_regression());
    let pcheck = report
        .deltas
        .iter()
        .find(|d| d.metric == "pcheck_ms.j1")
        .expect("pcheck judged");
    assert!(pcheck.regressed, "2x pcheck must regress: {pcheck:?}");
    // The co-reported healthy metrics stay clean.
    assert!(report
        .deltas
        .iter()
        .filter(|d| d.metric != "pcheck_ms.j1")
        .all(|d| !d.regressed));
    // And the rendered table names the culprit.
    let rendered = report.render();
    assert!(rendered.contains("REGRESSED"), "{rendered}");
    assert!(rendered.contains("pcheck_ms.j1"), "{rendered}");
}

#[test]
fn sentinel_tolerates_mad_level_noise() {
    let baseline = noisy_history(10, 100.0, 400.0);
    // A run at the noisy edge of the historical distribution.
    let current = record(
        "ok",
        &[
            ("pcheck_ms.j1", 104.0),
            ("wall_ms.j1", 416.0),
            ("fuzz.exec_per_s", 4800.0),
        ],
    );
    let report = compare(&current, &baseline, &CompareConfig::default());
    assert!(
        !report.has_regression(),
        "noise flagged as regression: {}",
        report.render()
    );
}

#[test]
fn sentinel_handles_first_run_and_unseen_metrics() {
    let cfg = CompareConfig::default();
    // Empty history: nothing to compare, nothing to flag.
    let report = compare(&record("first", &[("wall_ms.j1", 100.0)]), &[], &cfg);
    assert!(!report.has_regression());
    assert_eq!(report.baseline_runs, 0);
    // A brand-new metric rides along without being judged.
    let baseline = noisy_history(5, 100.0, 400.0);
    let current = record("new", &[("pcheck_ms.j1", 101.0), ("shiny.new_ms", 123.0)]);
    let report = compare(&current, &baseline, &cfg);
    assert!(!report.has_regression());
    assert_eq!(report.new_metrics, vec!["shiny.new_ms".to_string()]);
    assert!(report.render().contains("no baseline yet"));
}

/// A metric the baseline window recorded but the current run no longer
/// emits is listed as retired, never judged and never a regression.
#[test]
fn sentinel_lists_retired_metrics() {
    let mut baseline = noisy_history(5, 100.0, 400.0);
    baseline[3].metric("intern_hit_rate", 0.85);
    let current = record(
        "retire",
        &[
            ("pcheck_ms.j1", 100.0),
            ("wall_ms.j1", 400.0),
            ("fuzz.exec_per_s", 5000.0),
        ],
    );
    let report = compare(&current, &baseline, &CompareConfig::default());
    assert!(!report.has_regression());
    assert_eq!(report.retired, vec!["intern_hit_rate".to_string()]);
    assert!(report.deltas.iter().all(|d| d.metric != "intern_hit_rate"));
    let rendered = report.render();
    assert!(
        rendered.contains("intern_hit_rate") && rendered.contains("retired"),
        "{rendered}"
    );
    // Outside the window it is forgotten.
    let narrow = CompareConfig {
        window: 1,
        ..CompareConfig::default()
    };
    assert!(compare(&current, &baseline, &narrow).retired.is_empty());
}

/// Lower-is-better vs higher-is-better: a throughput collapse regresses
/// even though the number went down.
#[test]
fn sentinel_judges_rates_in_the_right_direction() {
    let baseline = noisy_history(8, 100.0, 400.0);
    let current = record(
        "slowfuzz",
        &[
            ("pcheck_ms.j1", 100.0),
            ("wall_ms.j1", 400.0),
            ("fuzz.exec_per_s", 2000.0),
        ],
    );
    let report = compare(&current, &baseline, &CompareConfig::default());
    let fuzz = report
        .deltas
        .iter()
        .find(|d| d.metric == "fuzz.exec_per_s")
        .expect("fuzz judged");
    assert!(fuzz.regressed, "halved exec/s must regress: {fuzz:?}");
}

fn write_history(name: &str, records: &[HistoryRecord]) -> PathBuf {
    let path = tmpfile(name);
    let _ = std::fs::remove_file(&path);
    for r in records {
        history::append(&path, r).expect("append");
    }
    path
}

#[test]
fn bench_compare_cli_exits_nonzero_on_injected_regression() {
    let mut records = noisy_history(10, 100.0, 400.0);
    records.push(record(
        "bad",
        &[
            ("pcheck_ms.j1", 200.0),
            ("wall_ms.j1", 404.0),
            ("fuzz.exec_per_s", 5010.0),
        ],
    ));
    let path = write_history("regressed.jsonl", &records);
    let out = run(&["bench", "compare", "--history", path.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "regression not flagged: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSION"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_compare_cli_exits_zero_on_healthy_history() {
    let records = noisy_history(10, 100.0, 400.0);
    let path = write_history("healthy.jsonl", &records);
    let out = run(&["bench", "compare", "--history", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "healthy history flagged: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("regression sentinel"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_compare_cli_passes_on_empty_and_single_record_history() {
    let missing = tmpfile("missing.jsonl");
    let _ = std::fs::remove_file(&missing);
    let out = run(&["bench", "compare", "--history", missing.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no baseline yet"));

    let single = write_history("single.jsonl", &[record("only", &[("wall_ms.j1", 100.0)])]);
    let out = run(&["bench", "compare", "--history", single.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("first record"));
    let _ = std::fs::remove_file(&single);
}

/// `--baseline FILE`: judge this branch's newest run against a separate
/// (e.g. main-branch) history file.
#[test]
fn bench_compare_cli_against_external_baseline_file() {
    let main_history = write_history("main.jsonl", &noisy_history(10, 100.0, 400.0));
    let branch = write_history(
        "branch.jsonl",
        &[record(
            "branch",
            &[
                ("pcheck_ms.j1", 205.0),
                ("wall_ms.j1", 401.0),
                ("fuzz.exec_per_s", 4990.0),
            ],
        )],
    );
    let out = run(&[
        "bench",
        "compare",
        "--history",
        branch.to_str().unwrap(),
        "--baseline",
        main_history.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "cross-file regression not flagged: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    for p in [&main_history, &branch] {
        let _ = std::fs::remove_file(p);
    }
}
