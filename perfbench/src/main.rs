//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload opt|fuzz|serve --seed N --seconds S --trace 0|1
//! perfbench aa [--workloads opt,fuzz,serve] [--runs N] [--sets 1|2]
//! perfbench pin
//! ```
//!
//! A run sets its workload up from `--seed` (several times, reporting the
//! median set-up time), measures it closed-loop for `--seconds`, checks
//! every output against a known answer, and prints one JSON result as
//! the last line of stdout. `--trace 1` instead replays a fixed slice of
//! the workload through the layers' public functions with one span per
//! call, and reports the per-layer breakdown. See README.md.

// The program's `ValidationError` is large; spans pass its results through.
#![allow(clippy::result_large_err)]

mod aa;
mod fuzz;
mod metrics;
mod opt;
mod pinned;
mod replay;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed run arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("aa") => aa::main(&args[1..]),
        Some("pin") => pinned::regenerate(),
        _ => parse_run_args(&args).and_then(|a| {
            let outcome = match a.workload.as_str() {
                "opt" => opt::run(&a),
                "fuzz" => fuzz::run(&a),
                _ => serve::run(&a),
            }?;
            metrics::print_outcome(&a, &outcome);
            Ok(ExitCode::SUCCESS)
        }),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
