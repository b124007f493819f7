//! The A/A steadiness check: two sets of runs of one build, compared
//! metric by metric against the bounds in BENCHMARK.json.
//!
//! ```text
//! perfbench aa [--workloads opt,fuzz,serve] [--runs N] [--sets 1|2]
//! ```
//!
//! Run from the repository root. Every run lasts `run_seconds` of
//! BENCHMARK.json, and run `r` of each set uses seed `1000 + r`; the two
//! sets alternate which goes first. Per end-to-end metric × workload it
//! prints each set's median and spread (interquartile distance ÷
//! median), and checks that each spread is within the metric's bound and
//! that the two medians differ by no more than the bound, in either
//! direction. The spread of `setup_s` is printed but not checked, as the
//! benchmark's contract leaves it out. Exits 1 if any check fails.

use crate::stats::{median, relative_spread};
use crellvm_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Bound {
    name: String,
    bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn read_benchmark() -> Result<(Vec<Bound>, f64), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(number)
        .ok_or("BENCHMARK.json: run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound").and_then(number)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok((bounds, seconds))
}

/// Run one workload once; returns its metric values.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() || doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: run failed or incorrect: {last}"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result without metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value").and_then(number)?)))
        .collect())
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (bounds, seconds) = read_benchmark()?;
    let mut workloads: Vec<String> = crate::metrics::WORKLOADS.map(String::from).to_vec();
    let mut runs = 10u64;
    let mut sets = 2usize;
    const SEED_BASE: u64 = 1000;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workloads" => workloads = value.split(',').map(String::from).collect(),
            "--runs" => runs = value.parse().map_err(|e| bad(&e))?,
            "--sets" => sets = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("aa: unknown flag {other}")),
        }
    }
    if !(1..=2).contains(&sets) || runs < 2 {
        return Err("aa: --sets is 1 or 2 and --runs at least 2".into());
    }
    let mut all_ok = true;
    for w in &workloads {
        // samples[set][metric] = values over runs
        let mut samples: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
        for r in 0..runs {
            let order: Vec<usize> = if r % 2 == 0 {
                (0..sets).collect()
            } else {
                (0..sets).rev().collect()
            };
            for set in order {
                let values = run_once(w, SEED_BASE + r, seconds)?;
                for (k, v) in values {
                    samples[set].entry(k).or_default().push(v);
                }
            }
            eprintln!("aa: {w} run {}/{runs} done", r + 1);
        }
        println!("{w}: {runs} runs × {sets} set(s), {seconds} s each");
        for b in &bounds {
            let stat = |set: usize| {
                let v = samples[set].get(&b.name).cloned().unwrap_or_default();
                (
                    median(&v).unwrap_or(f64::NAN),
                    relative_spread(&v).unwrap_or(f64::NAN),
                )
            };
            let (m1, s1) = stat(0);
            let spread_checked = b.name != "setup_s";
            let spread_ok = |s: f64| !spread_checked || s <= b.bound;
            let mut line = format!(
                "  {:<16} bound {:>5.3}  median {:>12.4}  spread {:>6.3}",
                b.name, b.bound, m1, s1
            );
            let mut ok = spread_ok(s1);
            if sets == 2 {
                let (m2, s2) = stat(1);
                let differ = (m2 / m1 - 1.0).abs();
                ok &= spread_ok(s2) && differ <= b.bound;
                line += &format!(
                    " | median {:>12.4}  spread {:>6.3}  medians differ by {:>6.3}",
                    m2, s2, differ
                );
            }
            if !spread_checked {
                line += "  (spread unchecked)";
            }
            line += if ok { "  ok" } else { "  NOT OK" };
            for (set, values) in samples.iter().enumerate() {
                let v = values.get(&b.name).cloned().unwrap_or_default();
                let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                line += &format!("\n      set {}: {}", set + 1, v.join(" "));
            }
            all_ok &= ok;
            println!("{line}");
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
