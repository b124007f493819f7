//! Bench history and the regression sentinel.
//!
//! Every bench run appends one [`HistoryRecord`] — a flat `metric name →
//! value` map plus provenance (git sha, timestamp, core count, wire
//! format) — as a single JSON line to `BENCH_history.jsonl`. The sentinel
//! ([`compare`]) then judges a fresh record against the recent history
//! window using noise bands derived from the median absolute deviation
//! (MAD), so a genuinely 2× slower PCheck fails CI while ordinary
//! scheduler jitter does not.
//!
//! Design choices:
//!
//! * **JSONL, append-only.** One record per line keeps the file
//!   git-mergeable and lets `tail -n1` answer "what was the last run".
//!   Writes go through [`write_atomic`] (tmp-then-rename in the same
//!   directory) so a crash mid-write never truncates the history.
//! * **MAD, not stddev.** Bench history is small (tens of records) and
//!   contaminated by outliers (cold caches, noisy CI hosts). The median
//!   absolute deviation is robust to both; the band is
//!   `max(rel_tol · |median|, mad_k · MAD)`, so a perfectly stable metric
//!   still gets a floor of relative tolerance.
//! * **Direction from the metric name.** Metrics whose name mentions a
//!   rate/speedup/hit count are better when larger; everything else
//!   (times, byte sizes) is better when smaller. Encoding this in the
//!   name keeps records self-describing.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Current schema version for [`HistoryRecord`]; bump on breaking changes
/// so the sentinel can skip records it does not understand.
pub const HISTORY_SCHEMA: u32 = 1;

/// One bench run: provenance plus a flat map of scalar metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Schema version ([`HISTORY_SCHEMA`]).
    pub schema: u32,
    /// Git commit the run measured, or `"unknown"` outside a checkout.
    pub git_sha: String,
    /// Wall-clock timestamp supplied by the harness (the bench itself
    /// never reads the clock for provenance, keeping runs reproducible).
    pub timestamp: String,
    /// Core count of the host.
    pub cores: usize,
    /// Proof wire format the run used (e.g. `"binary-v2"`).
    pub wire_format: String,
    /// Scalar metrics, e.g. `pcheck_ms.j1` or `fuzz.exec_per_s`.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// A record with provenance filled in and no metrics yet.
    pub fn new(git_sha: &str, timestamp: &str, cores: usize, wire_format: &str) -> HistoryRecord {
        HistoryRecord {
            schema: HISTORY_SCHEMA,
            git_sha: git_sha.to_string(),
            timestamp: timestamp.to_string(),
            cores,
            wire_format: wire_format.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Insert a metric, skipping non-finite values (a NaN in the history
    /// would poison every later median).
    pub fn metric(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        }
    }
}

/// Write `contents` to `path` atomically: write a `.tmp` sibling in the
/// same directory, then rename over the target. Readers never observe a
/// half-written file.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = match (path.parent(), path.file_name()) {
        (Some(dir), Some(name)) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            dir.join(n)
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot derive tmp path for {}", path.display()),
            ))
        }
    };
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Re-indent a compact JSON document with two-space indentation.
///
/// The vendored `serde_json` exposes only `to_string`; this walks the
/// compact output with a string-escape-aware scanner and inserts the
/// whitespace a human (and a git diff) wants. Output ends with a newline.
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth: usize = 0;
    let mut in_str = false;
    let mut escape = false;
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // Keep empty containers on one line.
                if chars.peek() == Some(&'}') || chars.peek() == Some(&']') {
                    out.push(chars.next().unwrap());
                } else {
                    depth += 1;
                    indent(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                indent(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                indent(&mut out, depth);
            }
            ':' => {
                out.push_str(": ");
            }
            // Compact JSON has no insignificant whitespace outside strings.
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// Append one record as a JSON line, creating the file if needed.
pub fn append(path: &Path, record: &HistoryRecord) -> io::Result<String> {
    let line = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut contents = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    if !contents.is_empty() && !contents.ends_with('\n') {
        contents.push('\n');
    }
    contents.push_str(&line);
    contents.push('\n');
    write_atomic(path, &contents)?;
    Ok(line)
}

/// Load all parseable records from a JSONL history file. Blank lines and
/// records from a different schema are skipped (forward compatibility);
/// a malformed line is an error so corruption is noticed, not silently
/// shrunk out of the baseline window.
pub fn load(path: &Path) -> io::Result<Vec<HistoryRecord>> {
    let contents = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    for (i, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: HistoryRecord = serde_json::from_str(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {}", path.display(), i + 1, e),
            )
        })?;
        if rec.schema == HISTORY_SCHEMA {
            records.push(rec);
        }
    }
    Ok(records)
}

/// Which way is "better" for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Times, sizes: a higher value is a regression.
    LowerIsBetter,
    /// Rates, speedups, hit counts: a lower value is a regression.
    HigherIsBetter,
}

/// Infer the direction from the metric name.
pub fn direction_of(metric: &str) -> Direction {
    const HIGHER: &[&str] = &[
        "rate",
        "speedup",
        "exec_per_s",
        "exec_s",
        "hits",
        "per_s",
        "rps",
        "qps",
        "throughput",
    ];
    if HIGHER.iter().any(|k| metric.contains(k)) {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

/// Is this metric meaningful only on a multi-core host? Speedup ratios
/// and any per-jobs series above one worker (`wall_ms.j4`, …) measure
/// parallel scaling; on a single-core runner they collapse to ~1× and to
/// time-sliced wall times, so comparing them across hosts with different
/// core counts judges the hardware, not the code.
pub fn parallelism_sensitive(metric: &str) -> bool {
    if metric.contains("speedup") {
        return true;
    }
    // A trailing `.jN` with N > 1 marks a multi-worker measurement.
    match metric.rfind(".j") {
        Some(pos) => matches!(metric[pos + 2..].parse::<u64>(), Ok(n) if n > 1),
        None => false,
    }
}

/// Sentinel tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// How many most-recent baseline records to consider.
    pub window: usize,
    /// Relative tolerance floor on the noise band.
    pub rel_tol: f64,
    /// MAD multiplier on the noise band.
    pub mad_k: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        // rel_tol 0.35 sounds loose, but CI hosts really do jitter by a
        // third on ms-scale phases; the MAD term tightens the band as the
        // history demonstrates stability.
        CompareConfig {
            window: 20,
            rel_tol: 0.35,
            mad_k: 5.0,
        }
    }
}

/// Verdict for one metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub metric: String,
    pub current: f64,
    pub baseline_median: f64,
    /// Median absolute deviation of the baseline window.
    pub mad: f64,
    /// Allowed deviation before flagging: `max(rel_tol·|median|, mad_k·MAD)`.
    pub band: f64,
    /// `current - baseline_median`, signed.
    pub delta: f64,
    pub direction: Direction,
    pub regressed: bool,
    pub improved: bool,
}

/// Sentinel verdict across all shared metrics.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    pub deltas: Vec<MetricDelta>,
    /// Metrics present in the current record with no baseline history.
    pub new_metrics: Vec<String>,
    /// Metrics recorded somewhere in the baseline window but absent from
    /// the current record — retired by the code under test, not judged.
    pub retired: Vec<String>,
    /// Parallelism-sensitive metrics left unjudged because the current
    /// run or part of its baseline window ran on a single core.
    pub skipped: Vec<String>,
    /// How many baseline records were considered.
    pub baseline_runs: usize,
}

impl CompareReport {
    pub fn has_regression(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// Human-readable table: one line per metric, regressions marked.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "regression sentinel: {} metric(s) vs median of {} run(s)",
            self.deltas.len(),
            self.baseline_runs
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>10} {:>9}  verdict",
            "metric", "current", "baseline", "band", "delta%"
        );
        for d in &self.deltas {
            let verdict = if d.regressed {
                "REGRESSED"
            } else if d.improved {
                "improved"
            } else {
                "ok"
            };
            let pct = if d.baseline_median.abs() > f64::EPSILON {
                100.0 * d.delta / d.baseline_median.abs()
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12.3} {:>12.3} {:>10.3} {:>+8.1}%  {}",
                d.metric, d.current, d.baseline_median, d.band, pct, verdict
            );
        }
        for m in &self.new_metrics {
            let _ = writeln!(out, "{m:<28} (new metric; no baseline yet)");
        }
        for m in &self.retired {
            let _ = writeln!(out, "{m:<28} (retired: in baseline, absent from this run)");
        }
        for m in &self.skipped {
            let _ = writeln!(
                out,
                "{m:<28} (skipped: single-core run; scaling not comparable)"
            );
        }
        out
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Judge `current` against the trailing `cfg.window` records of
/// `baseline`. Metrics absent from the baseline are listed as new and
/// baseline metrics absent from `current` as retired, neither flagged; an
/// empty baseline yields an all-clear report (first run).
pub fn compare(
    current: &HistoryRecord,
    baseline: &[HistoryRecord],
    cfg: &CompareConfig,
) -> CompareReport {
    let window_start = baseline.len().saturating_sub(cfg.window);
    let window = &baseline[window_start..];
    let mut report = CompareReport {
        baseline_runs: window.len(),
        retired: window
            .iter()
            .flat_map(|r| r.metrics.keys())
            .filter(|name| !current.metrics.contains_key(*name))
            .cloned()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
        ..CompareReport::default()
    };
    for (name, &value) in &current.metrics {
        let contributors: Vec<&HistoryRecord> = window
            .iter()
            .filter(|r| r.metrics.get(name).is_some_and(|v| v.is_finite()))
            .collect();
        if contributors.is_empty() {
            report.new_metrics.push(name.clone());
            continue;
        }
        // Scaling metrics are only comparable between multi-core runs: a
        // 1-core leg (current or baseline) would judge host throttling,
        // not the code under test.
        if parallelism_sensitive(name)
            && (current.cores == 1 || contributors.iter().any(|r| r.cores == 1))
        {
            report.skipped.push(name.clone());
            continue;
        }
        let mut values: Vec<f64> = contributors.iter().map(|r| r.metrics[name]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = median(&values);
        let mut devs: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mad = median(&devs);
        let band = (cfg.rel_tol * med.abs()).max(cfg.mad_k * mad);
        let delta = value - med;
        let direction = direction_of(name);
        let (regressed, improved) = match direction {
            Direction::LowerIsBetter => (delta > band, delta < -band),
            Direction::HigherIsBetter => (delta < -band, delta > band),
        };
        report.deltas.push(MetricDelta {
            metric: name.clone(),
            current: value,
            baseline_median: med,
            mad,
            band,
            delta,
            direction,
            regressed,
            improved,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(metrics: &[(&str, f64)]) -> HistoryRecord {
        let mut r = HistoryRecord::new("abc123", "2026-01-01T00:00:00Z", 4, "binary-v2");
        for (k, v) in metrics {
            r.metric(k, *v);
        }
        r
    }

    #[test]
    fn doubled_time_is_a_regression_but_noise_is_not() {
        // ±5% jitter around 100ms.
        let baseline: Vec<HistoryRecord> = [100.0, 104.0, 97.0, 101.0, 99.0]
            .iter()
            .map(|&v| rec(&[("pcheck_ms.j1", v)]))
            .collect();
        let cfg = CompareConfig::default();

        let bad = compare(&rec(&[("pcheck_ms.j1", 200.0)]), &baseline, &cfg);
        assert!(bad.has_regression(), "2x slowdown must be flagged");

        let ok = compare(&rec(&[("pcheck_ms.j1", 106.0)]), &baseline, &cfg);
        assert!(!ok.has_regression(), "in-band noise must pass");
    }

    #[test]
    fn direction_flips_for_rates() {
        let baseline: Vec<HistoryRecord> = [1000.0, 1010.0, 990.0]
            .iter()
            .map(|&v| rec(&[("fuzz.exec_per_s", v)]))
            .collect();
        let cfg = CompareConfig::default();
        // Halved throughput regresses; doubled throughput improves.
        let bad = compare(&rec(&[("fuzz.exec_per_s", 400.0)]), &baseline, &cfg);
        assert!(bad.has_regression());
        let good = compare(&rec(&[("fuzz.exec_per_s", 2000.0)]), &baseline, &cfg);
        assert!(!good.has_regression());
        assert!(good.deltas[0].improved);
    }

    #[test]
    fn empty_baseline_and_new_metrics_pass() {
        let cfg = CompareConfig::default();
        let report = compare(&rec(&[("wall_ms.j1", 50.0)]), &[], &cfg);
        assert!(!report.has_regression());
        assert_eq!(report.new_metrics, vec!["wall_ms.j1".to_string()]);
        assert_eq!(report.baseline_runs, 0);
    }

    #[test]
    fn jsonl_roundtrip_and_window() {
        let dir = std::env::temp_dir().join(format!("crellvm-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.jsonl");
        let _ = std::fs::remove_file(&path);
        for i in 0..25 {
            append(&path, &rec(&[("wall_ms.j1", 100.0 + i as f64)])).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 25);
        // Window keeps only the trailing `window` records.
        let report = compare(
            &rec(&[("wall_ms.j1", 120.0)]),
            &loaded,
            &CompareConfig {
                window: 5,
                ..CompareConfig::default()
            },
        );
        assert_eq!(report.baseline_runs, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pretty_printer_handles_nesting_and_escapes() {
        let compact = r#"{"a":[1,2],"b":{"c":"x\"y{,}","d":[]},"e":{}}"#;
        let p = pretty(compact);
        assert!(p.ends_with('\n'));
        assert!(p.contains("\"a\": [\n"));
        assert!(p.contains("\"d\": []"));
        assert!(p.contains("\"e\": {}"));
        // Escaped quote and braces inside the string survive untouched.
        assert!(p.contains(r#""x\"y{,}""#));
        // Stripping the inserted whitespace (outside strings) recovers the
        // compact input exactly — nothing was added, dropped, or reordered.
        let mut stripped = String::new();
        let (mut in_str, mut escape) = (false, false);
        for c in p.chars() {
            if in_str {
                stripped.push(c);
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
            } else if c == '"' {
                in_str = true;
                stripped.push(c);
            } else if !c.is_whitespace() {
                stripped.push(c);
            }
        }
        assert_eq!(stripped, compact);
    }

    fn rec_cores(cores: usize, metrics: &[(&str, f64)]) -> HistoryRecord {
        let mut r = HistoryRecord::new("abc123", "2026-01-01T00:00:00Z", cores, "binary-v2");
        for (k, v) in metrics {
            r.metric(k, *v);
        }
        r
    }

    #[test]
    fn parallelism_sensitive_classification() {
        assert!(parallelism_sensitive("speedup.jmax"));
        assert!(parallelism_sensitive("wall_ms.j4"));
        assert!(parallelism_sensitive("wall_ms.j2"));
        assert!(!parallelism_sensitive("wall_ms.j1"));
        assert!(!parallelism_sensitive("pcheck_ms.j1"));
        assert!(!parallelism_sensitive("fuzz.exec_per_s"));
        assert!(!parallelism_sensitive("cache.warm_over_cold"));
    }

    #[test]
    fn single_core_current_skips_scaling_metrics() {
        // Baseline from a 4-core host; the current run was throttled to
        // one core, so its ~1x speedup must not read as a regression.
        let baseline: Vec<HistoryRecord> = [3.1, 3.0, 3.2]
            .iter()
            .map(|&v| rec_cores(4, &[("speedup.jmax", v), ("pcheck_ms.j1", 100.0)]))
            .collect();
        let cfg = CompareConfig::default();
        let current = rec_cores(1, &[("speedup.jmax", 1.0), ("pcheck_ms.j1", 101.0)]);
        let report = compare(&current, &baseline, &cfg);
        assert!(!report.has_regression(), "skipped metric must not flag");
        assert_eq!(report.skipped, vec!["speedup.jmax".to_string()]);
        // The single-worker phase is still judged normally.
        assert!(report.deltas.iter().any(|d| d.metric == "pcheck_ms.j1"));
        assert!(report.render().contains("scaling not comparable"));
    }

    #[test]
    fn single_core_baseline_skips_scaling_metrics() {
        // The converse: history written on a 1-core CI runner cannot
        // anchor a multi-core run's wall_ms.j4.
        let baseline = vec![rec_cores(1, &[("wall_ms.j4", 400.0)])];
        let cfg = CompareConfig::default();
        let current = rec_cores(8, &[("wall_ms.j4", 120.0)]);
        let report = compare(&current, &baseline, &cfg);
        assert!(report.deltas.is_empty());
        assert_eq!(report.skipped, vec!["wall_ms.j4".to_string()]);
    }

    #[test]
    fn multi_core_runs_still_judge_scaling_metrics() {
        let baseline: Vec<HistoryRecord> = [3.0, 3.1, 2.9]
            .iter()
            .map(|&v| rec_cores(4, &[("speedup.jmax", v)]))
            .collect();
        let cfg = CompareConfig::default();
        let report = compare(&rec_cores(4, &[("speedup.jmax", 1.1)]), &baseline, &cfg);
        assert!(report.skipped.is_empty());
        assert!(
            report.has_regression(),
            "a real scaling collapse still flags"
        );
    }

    #[test]
    fn direction_inference() {
        assert_eq!(direction_of("serve.rps"), Direction::HigherIsBetter);
        assert_eq!(direction_of("serve.qps_target"), Direction::HigherIsBetter);
        assert_eq!(direction_of("serve.throughput"), Direction::HigherIsBetter);
        assert_eq!(direction_of("serve.p99_ms"), Direction::LowerIsBetter);
        assert_eq!(direction_of("pcheck_ms.j1"), Direction::LowerIsBetter);
        assert_eq!(direction_of("proof_bytes.v2"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("cache.warm_hit_rate"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_of("fuzz.exec_per_s"), Direction::HigherIsBetter);
        // Per-tier campaign throughput: a bytecode-tier slowdown must
        // read as a regression, and neither key is parallelism-gated.
        assert_eq!(
            direction_of("fuzz.campaign_exec_per_s.tree"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("fuzz.campaign_exec_per_s.bc"),
            Direction::HigherIsBetter
        );
        assert!(!parallelism_sensitive("fuzz.campaign_exec_per_s.bc"));
        assert_eq!(direction_of("speedup.jmax"), Direction::HigherIsBetter);
    }
}
