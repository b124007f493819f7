//! Metric names, the result line, and the facts printed beside it.

use crate::replay::Counts;
use crate::stats::{median, percentile};
use crate::trace::{self_by_name, traced_wall, Tracer};
use crate::RunArgs;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["opt", "fuzz", "serve"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p95", "ms"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit. Every traced run
/// prints all of them; a layer the workload bypasses reads 0 because the
/// replay makes no call into it (README.md lists which).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("ir.parse_ms", "ms"),
    ("passes.orig_ms", "ms"),
    ("passes.pcal_ms", "ms"),
    ("passes.steps", "count"),
    ("passes.stmts_out", "count"),
    ("core.encode_ms", "ms"),
    ("core.decode_ms", "ms"),
    ("core.proof_bytes", "bytes"),
    ("core.check_ms", "ms"),
    ("core.proof_cmds", "count"),
    ("core.check.failed", "count"),
    ("core.check.not_supported", "count"),
    ("core.forensics_ms", "ms"),
    ("core.cache_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("gen.generate_ms", "ms"),
    ("gen.mutate_ms", "ms"),
    ("interp.compile_ms", "ms"),
    ("interp.exec_ms", "ms"),
    ("interp.refine_ms", "ms"),
    ("interp.steps", "count"),
    ("interp.runs", "count"),
    ("interp.conclusive_ratio", "ratio"),
    ("interp.bc_cache_hit_ratio", "ratio"),
    ("diff.diff_ms", "ms"),
    ("fuzz.findings", "count"),
    ("serve.front_ms", "ms"),
    ("serve.run_ms.warm", "ms"),
    ("serve.run_ms.cold", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.refused", "count"),
    ("serve.requests.warm", "count"),
    ("serve.requests.cold", "count"),
    ("unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.gap_ms", "ms"),
    ("trace.units", "count"),
];

/// Span name → per-layer metric it reports its self time under. Spans
/// not listed here (the per-unit roots) are glue: `unattributed_ms`.
const SPAN_METRIC: [(&str, &str); 20] = [
    ("ir.parse", "ir.parse_ms"),
    ("passes.orig", "passes.orig_ms"),
    ("passes.pcal", "passes.pcal_ms"),
    ("core.encode", "core.encode_ms"),
    ("core.decode", "core.decode_ms"),
    ("core.check", "core.check_ms"),
    ("core.forensics", "core.forensics_ms"),
    ("core.cache", "core.cache_ms"),
    ("gen.generate", "gen.generate_ms"),
    ("gen.mutate", "gen.mutate_ms"),
    ("interp.compile", "interp.compile_ms"),
    ("interp.exec", "interp.exec_ms"),
    ("interp.refine", "interp.refine_ms"),
    ("diff.diff", "diff.diff_ms"),
    ("serve.request", "serve.front_ms"),
    ("serve.run.warm", "serve.run_ms.warm"),
    ("serve.run.cold", "serve.run_ms.cold"),
    ("serve.queue_wait", "serve.queue_wait_ms"),
    ("unit", "unattributed_ms"),
    ("serve.replay", "unattributed_ms"),
];

#[cfg(test)]
/// Is `name` a valid metric name: starts with a letter or digit, at most
/// 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every known-answer check held (including those made during
    /// set-up, which are not units).
    pub correct: bool,
    /// Metric name → value (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts a reader needs to interpret the result.
    pub facts: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a failed known-answer check.
    pub fn fail(&mut self, what: impl AsRef<str>) {
        if self.correct {
            eprintln!("perfbench: known-answer check failed: {}", what.as_ref());
        }
        self.correct = false;
    }
}

/// Set-up samples per run, spread evenly over the measured time; the
/// median is reported.
pub const SETUP_REPS: usize = 7;
/// Shortest time one set-up sample covers. The machine's noise comes in
/// bursts of a fraction of a second, which would decide a single set-up
/// of a few tens of milliseconds alone; a shorter set-up is repeated back
/// to back within the sample, and the sample is their mean.
const SETUP_SAMPLE_S: f64 = 0.25;

/// One block of a closed-loop run: every unit of the workload once, in
/// the same order and from the same state as every other block, so
/// blocks differ only by what the machine did meanwhile.
#[derive(Debug, Default)]
pub struct Block {
    pub elapsed: Duration,
    /// Latency of the unit at each position (infinite if it failed).
    pub latencies_ms: Vec<f64>,
    /// Work units the unit at each position completed (0 if it failed).
    pub units: Vec<u64>,
    /// Peak resident memory while the block ran.
    pub peak_rss_mib: f64,
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub blocks: Vec<Block>,
    pub setup_s: Vec<f64>,
}

/// Take one set-up sample (see [`SETUP_SAMPLE_S`]); returns the last
/// state. Within a sample each repeated state is dropped as the next one
/// replaces it, so the sample includes dropping all but the last (a few
/// freed buffers: only set-ups that take under `SETUP_SAMPLE_S`
/// repeat), and no more than one extra state is ever alive, which would
/// otherwise inflate the heap the blocks' memory peak starts from.
fn timed_setup<S>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let mut last = None;
    let mut n = 0;
    let t = Instant::now();
    while n == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        last = Some(setup()?);
        n += 1;
    }
    times.push(t.elapsed().as_secs_f64() / f64::from(n));
    Ok(last.expect("at least one set-up"))
}

/// Measure a workload closed-loop: set it up, then run blocks of
/// `block_len` units until `seconds` have passed (the last block is
/// finished). `reset` runs untimed before every block, so every block
/// starts from the same state; `unit(state, j)` runs the unit at position
/// `j` of a block and returns its latency and completed work units. A
/// failed unit is counted in `out` and as missing every latency limit.
///
/// The set-up is sampled `SETUP_REPS` times, spread evenly over the run
/// so the samples cover the machine's quiet and slow spells alike; each
/// new state replaces the old one once it is timed.
pub fn measure<S>(
    seconds: f64,
    block_len: usize,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> Result<S, String>,
    mut reset: impl FnMut(&mut S, &mut Outcome),
    mut unit: impl FnMut(&S, usize) -> Result<(f64, u64), String>,
) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut m = Measured::default();
    let mut state = timed_setup(&mut m.setup_s, || setup(out))?;
    while start.elapsed() < budget {
        let due = budget.mul_f64(m.setup_s.len() as f64 / SETUP_REPS as f64);
        if m.setup_s.len() < SETUP_REPS && start.elapsed() >= due {
            state = timed_setup(&mut m.setup_s, || setup(out))?;
        }
        reset(&mut state, out);
        reset_peak_rss();
        let t = Instant::now();
        let mut b = Block::default();
        for j in 0..block_len {
            out.attempted += 1;
            let (ms, units) = unit(&state, j).unwrap_or_else(|e| {
                out.failed += 1;
                out.fail(format!("block {} unit {j}: {e}", m.blocks.len()));
                (f64::INFINITY, 0)
            });
            b.latencies_ms.push(ms);
            b.units.push(units);
        }
        b.elapsed = t.elapsed();
        b.peak_rss_mib = peak_rss_mib();
        m.blocks.push(b);
    }
    while m.setup_s.len() < SETUP_REPS {
        state = timed_setup(&mut m.setup_s, || setup(out))?;
    }
    drop(state);
    Ok(m)
}

/// The quiet block: per position, the fastest latency any block
/// measured, with that position's work units. Every block does the same
/// work, and a shared machine's neighbours only ever add time, in spells
/// of seconds that leave some blocks slow at each position; the fastest
/// of a position's repetitions is its cost on a quiet machine.
pub fn quiet_block(blocks: &[Block]) -> Vec<(f64, u64)> {
    let len = blocks
        .iter()
        .map(|b| b.latencies_ms.len())
        .max()
        .unwrap_or(0);
    (0..len)
        .map(|j| {
            let at = |b: &Block| (b.latencies_ms[j], b.units[j]);
            blocks
                .iter()
                .filter(|b| j < b.latencies_ms.len())
                .map(at)
                .fold(
                    (f64::INFINITY, 0),
                    |best, x| if x.0 < best.0 { x } else { best },
                )
        })
        .collect()
}

/// Fill the end-to-end metrics of an untraced run from its quiet block
/// (see [`quiet_block`]): `units_per_s` is the block's work units over
/// the sum of its latencies, and the latency percentiles are taken over
/// its positions (nearest rank). `setup_s` is the median set-up time,
/// and memory the median of the blocks' peaks.
pub fn end_to_end(out: &mut Outcome, m: &Measured, latency_unit: &str) {
    let quiet = quiet_block(&m.blocks);
    let latencies: Vec<f64> = quiet.iter().map(|q| q.0).collect();
    let units: u64 = quiet.iter().map(|q| q.1).sum();
    let seconds: f64 = latencies.iter().sum::<f64>() / 1e3;
    out.metrics
        .insert("setup_s", median(&m.setup_s).unwrap_or(f64::NAN));
    out.metrics.insert("units_per_s", units as f64 / seconds);
    for (name, p) in [("latency_ms.p50", 50.0), ("latency_ms.p95", 95.0)] {
        out.metrics
            .insert(name, percentile(&latencies, p).unwrap_or(f64::NAN));
    }
    let peaks: Vec<f64> = m.blocks.iter().map(|b| b.peak_rss_mib).collect();
    out.metrics
        .insert("peak_rss_mib", median(&peaks).unwrap_or(f64::NAN));
    let success = if out.attempted == 0 {
        0.0
    } else {
        (out.attempted - out.failed) as f64 / out.attempted as f64
    };
    out.metrics.insert("success_rate", success);
    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(",")
    };
    out.facts.insert(
        "block_s",
        list(&mut m.blocks.iter().map(|b| b.elapsed.as_secs_f64())),
    );
    out.facts
        .insert("setup_s", list(&mut m.setup_s.iter().copied()));
    out.facts
        .insert("latency_samples_per_block", quiet.len().to_string());
    out.facts.insert("latency_unit", latency_unit.to_string());
    let measured: Duration = m.blocks.iter().map(|b| b.elapsed).sum();
    out.facts
        .insert("measured_s", format!("{:.3}", measured.as_secs_f64()));
}

/// Fill the per-layer metrics of a traced run from its spans and counts.
/// `untraced_wall` is the wall time of the same units run untraced in
/// the same process; `comparable_wall_ns` is the part of the traced wall
/// that repeats that untraced work (the serve replay has no untraced
/// counterpart).
pub fn per_layer(
    out: &mut Outcome,
    tr: &Tracer,
    counts: &Counts,
    units: u64,
    untraced_wall: Duration,
    comparable_wall_ns: u64,
) {
    for (name, _) in PER_LAYER {
        out.metrics.insert(name, 0.0);
    }
    let spans = tr.spans();
    let mut attributed = 0u64;
    for (span, ns) in self_by_name(spans) {
        let metric = SPAN_METRIC
            .iter()
            .find(|(s, _)| *s == span)
            .map(|(_, m)| *m)
            .unwrap_or_else(|| panic!("span {span} has no metric"));
        *out.metrics.get_mut(metric).expect("listed metric") += ns as f64 / 1e6;
        attributed += ns;
    }
    let wall = traced_wall(spans);
    // The breakdown closes by construction; keep the check loud.
    assert_eq!(
        attributed, wall,
        "layer self times must add up to the traced wall"
    );
    out.metrics.insert("trace.wall_ms", wall as f64 / 1e6);
    let untraced_ms = untraced_wall.as_secs_f64() * 1e3;
    out.metrics.insert("trace.untraced_wall_ms", untraced_ms);
    out.metrics.insert(
        "trace.gap_ms",
        untraced_ms - comparable_wall_ns as f64 / 1e6,
    );
    out.metrics.insert("trace.units", units as f64);

    let get = |k: &str| counts.get(k).copied().unwrap_or(0);
    for (name, unit) in PER_LAYER {
        if unit == "count" || unit == "bytes" {
            if let Some(v) = counts.get(name) {
                out.metrics.insert(name, *v as f64);
            }
        }
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.metrics.insert(
        "core.cache_hit_ratio",
        ratio(get("cache.hits"), get("cache.lookups")),
    );
    out.metrics.insert(
        "interp.conclusive_ratio",
        ratio(get("interp.conclusive"), get("interp.runs")),
    );
    out.metrics.insert(
        "interp.bc_cache_hit_ratio",
        ratio(
            get("interp.bc.hits"),
            get("interp.bc.hits") + get("interp.bc.misses"),
        ),
    );
}

/// Restart the peak-resident-memory mark at the current resident size
/// (Linux `clear_refs` value 5). Without it the peak covers the whole
/// process lifetime.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Effective cores: the same fixed CPU burn on one thread, then on two
/// threads at once; `2 × t1 / t2` is 2 on two free cores and 1 on one.
pub fn effective_cores() -> f64 {
    fn burn() -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40_000_000u64 {
            x = std::hint::black_box(
                x.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407),
            );
        }
        x
    }
    let t = Instant::now();
    std::hint::black_box(burn());
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(burn);
        let b = s.spawn(burn);
        std::hint::black_box(a.join().expect("burn thread"));
        std::hint::black_box(b.join().expect("burn thread"));
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// The commit the checkout was built from, when it is a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print the human-readable lines, the facts line, and the result line
/// (last line of stdout).
pub fn print_outcome(args: &RunArgs, out: &Outcome) {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let value = |name: &str| out.metrics.get(name).copied().unwrap_or(f64::NAN);
    for (name, unit) in table {
        println!("{name:<28} {:>16} {unit}", json_num(value(name)));
    }
    let mut facts = out.facts.clone();
    facts.insert("workload", args.workload.clone());
    facts.insert("seed", args.seed.to_string());
    facts.insert("trace", u8::from(args.trace).to_string());
    facts.insert("nproc", crellvm_passes::default_jobs().to_string());
    facts.insert("effective_cores", format!("{:.2}", effective_cores()));
    facts.insert("git_sha", git_sha());
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"facts\": {{{}}}}}", facts.join(", "));
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value(name)),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(latencies_ms: &[f64], units: &[u64]) -> Block {
        Block {
            latencies_ms: latencies_ms.to_vec(),
            units: units.to_vec(),
            ..Block::default()
        }
    }

    #[test]
    fn quiet_block_takes_each_positions_fastest_repetition() {
        let blocks = [
            block(&[5.0, 2.0, 9.0], &[3, 1, 2]),
            block(&[4.0, f64::INFINITY, 12.0], &[3, 0, 2]),
            block(&[6.0, 3.0, 8.0], &[3, 1, 2]),
        ];
        assert_eq!(quiet_block(&blocks), vec![(4.0, 3), (2.0, 1), (8.0, 2)]);
        // A position that failed in every block stays failed.
        let failed = [block(&[f64::INFINITY], &[0])];
        assert_eq!(quiet_block(&failed), vec![(f64::INFINITY, 0)]);
        assert!(quiet_block(&[]).is_empty());
    }

    #[test]
    fn end_to_end_reads_the_quiet_block() {
        let mut out = Outcome::new();
        out.attempted = 40;
        out.failed = 1;
        let m = Measured {
            blocks: (0..2)
                .map(|b| {
                    let slow = if b == 0 { 2.0 } else { 1.0 };
                    let lat: Vec<f64> = (1..=20).map(|x| f64::from(x) * slow).collect();
                    block(&lat, &[2; 20])
                })
                .collect(),
            setup_s: vec![0.3, 0.1, 0.2],
        };
        end_to_end(&mut out, &m, "unit");
        let get = |k: &str| out.metrics[k];
        assert_eq!(get("setup_s"), 0.2);
        // 40 units over 1 + 2 + ... + 20 = 210 ms.
        assert!((get("units_per_s") - 40.0 / 0.21).abs() < 1e-9);
        assert_eq!(get("latency_ms.p50"), 10.0);
        assert_eq!(get("latency_ms.p95"), 19.0);
        assert_eq!(get("success_rate"), 39.0 / 40.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for (_, metric) in SPAN_METRIC {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
        assert!(valid_name("latency_ms.p95"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_name(""));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crellvm_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
