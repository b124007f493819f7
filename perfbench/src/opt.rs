//! `opt`: cold offline validation of the Fig 7 corpus, one module per
//! unit, exactly as `crellvm opt` runs it at `--jobs 1`.
//!
//! Every seed validates the same modules, `crellvm_gen::corpus(SCALE,
//! 0)`, in an order the seed sets. Modules differ in validation cost by
//! more than an order of magnitude, so a corpus drawn per seed would make
//! runs on different seeds do different amounts of work.

use crate::metrics::{end_to_end, measure, per_layer, Outcome};
use crate::replay::{replay_pipeline, Counts};
use crate::stats::shuffled;
use crate::trace::{traced_wall, Tracer};
use crate::{pinned, RunArgs};
use crellvm_ir::{parse_module, printer::print_module, verify_module};
use crellvm_passes::{format_step_line, run_pipeline_parallel, ParallelOptions, PassConfig};
use crellvm_telemetry::{Registry, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale of the corpus, in generated functions per KLoC of the paper's
/// sources.
pub const SCALE: f64 = 0.05;
/// Base seed of the corpus.
const CORPUS_SEED: u64 = 0;

/// The corpus, printed to IR text in corpus order.
pub fn corpus_texts() -> Vec<String> {
    crellvm_gen::corpus(SCALE, CORPUS_SEED)
        .iter()
        .flat_map(|(_, modules)| modules.iter().map(print_module))
        .collect()
}

/// A live registry, as the CLI records into.
pub fn live_telemetry() -> Telemetry {
    Telemetry::with_registry(Arc::new(Registry::new()))
}

/// One unit as the CLI runs it: parse, verify, the validated pipeline,
/// and the printed step lines. Returns the lines and the failed steps.
pub fn validate_module(text: &str) -> Result<(Vec<String>, usize), String> {
    let m = parse_module(text).map_err(|e| e.to_string())?;
    verify_module(&m).map_err(|e| e.to_string())?;
    let opts = ParallelOptions {
        jobs: 1,
        ..ParallelOptions::default()
    };
    let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &live_telemetry());
    let lines = report
        .steps
        .iter()
        .map(|s| format_step_line(&s.pass, &s.func, &s.outcome))
        .collect();
    Ok((lines, report.failures()))
}

/// Judge one module's step lines against its pinned digest.
pub fn judge(lines: &[String], failed: usize, pinned: Option<u64>) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("{failed} failed steps from the honest compiler"));
    }
    match pinned {
        Some(d) if d == pinned::digest(lines) => Ok(()),
        Some(_) => Err("step lines differ from the pinned digest".into()),
        None => Err("no pinned digest".into()),
    }
}

/// Pin every corpus module from the program itself (for `perfbench
/// pin`): the digest of its step lines, which the replay must print too.
pub fn pin_modules() -> Result<Vec<u64>, String> {
    let mut pinned = Vec::new();
    for (i, text) in corpus_texts().iter().enumerate() {
        let (lines, failed) = validate_module(text)?;
        if failed > 0 {
            return Err(format!(
                "module {i}: {failed} failed steps from the honest compiler"
            ));
        }
        let m = parse_module(text).map_err(|e| e.to_string())?;
        let (replayed, _) = replay_pipeline(
            &m,
            &live_telemetry(),
            None,
            &mut Tracer::default(),
            &mut Counts::new(),
        );
        if replayed != lines {
            return Err(format!(
                "module {i}: replayed step lines differ from the engine's"
            ));
        }
        pinned.push(pinned::digest(&lines));
    }
    Ok(pinned)
}

/// Run one untraced unit; returns its step count.
fn unit(text: &str, pinned: Option<u64>) -> Result<usize, String> {
    let (lines, failed) = catch_unwind(AssertUnwindSafe(|| validate_module(text)))
        .map_err(|_| "panicked".to_string())??;
    judge(&lines, failed, pinned)?;
    Ok(lines.len())
}

struct Setup {
    texts: Vec<String>,
    digests: Vec<u64>,
    order: Vec<usize>,
}

fn setup(seed: u64, out: &mut Outcome) -> Result<Setup, String> {
    let texts = corpus_texts();
    let digests = pinned::opt_table();
    if digests.len() != texts.len() {
        return Err("the pinned opt table does not match the corpus".into());
    }
    let s = Setup {
        order: shuffled(texts.len(), seed),
        texts,
        digests,
    };
    // Warm-up: one module, so lazy one-time work is not timed.
    if let Err(e) = unit(&s.texts[0], Some(s.digests[0])) {
        out.fail(format!("warm-up unit: {e}"));
    }
    Ok(s)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    if args.trace {
        let s = setup(args.seed, &mut out)?;
        out.facts.insert("modules", s.order.len().to_string());
        traced(&s, &mut out);
        return Ok(out);
    }
    // One block is one pass over the corpus, in the seeded order.
    let modules = pinned::opt_table().len();
    out.facts.insert("modules", modules.to_string());
    let m = measure(
        args.seconds,
        modules,
        &mut out,
        |out| setup(args.seed, out),
        |_, _| {},
        |s, j| {
            let idx = s.order[j];
            let t = Instant::now();
            let steps = unit(&s.texts[idx], Some(s.digests[idx]))
                .map_err(|e| format!("module {idx}: {e}"))?;
            Ok((t.elapsed().as_secs_f64() * 1e3, steps as u64))
        },
    )?;
    end_to_end(&mut out, &m, "module");
    Ok(out)
}

/// One pass over the corpus: each module untraced, then replayed with
/// spans, alternating so drift affects both sides alike.
fn traced(s: &Setup, out: &mut Outcome) {
    let mut tr = Tracer::default();
    let mut counts = Counts::new();
    let mut untraced = Duration::ZERO;
    for &idx in &s.order {
        let pinned = s.digests.get(idx).copied();
        out.attempted += 1;
        let t = Instant::now();
        let plain = unit(&s.texts[idx], pinned);
        untraced += t.elapsed();

        let tel = live_telemetry();
        let root = tr.enter("unit");
        let m = tr.time("ir.parse", || {
            let m = parse_module(&s.texts[idx]).expect("corpus module parses");
            verify_module(&m).expect("corpus module verifies");
            m
        });
        let (lines, failed) = replay_pipeline(&m, &tel, None, &mut tr, &mut counts);
        tr.exit(root);
        if let Err(e) = plain.and(judge(&lines, failed, pinned)) {
            out.failed += 1;
            out.fail(format!("module {idx}: {e}"));
        }
    }
    let wall = traced_wall(tr.spans());
    per_layer(out, &tr, &counts, s.order.len() as u64, untraced, wall);
}
