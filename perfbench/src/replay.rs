//! The per-item validation protocol, replayed call by call through the
//! layers' public functions so that each call gets its own span.
//!
//! This mirrors one work item of `crellvm_passes::parallel` (the engine
//! behind `crellvm opt` and the daemon): optional cache consult, Orig,
//! PCal, encode, decode, PCheck, optional cache insert. The replay runs
//! the decode inline, as the engine does with `decode_ahead: 0`.

use crate::trace::Tracer;
use crellvm_core::cache::{OUTCOME_FAILED, OUTCOME_NOT_SUPPORTED, OUTCOME_VALID};
use crellvm_core::{
    proof_from_bytes, proof_to_bytes_v2, serialize_bin, validate_with_telemetry, CacheEntry,
    CacheKey, CheckerConfig, ProofUnit, ValidationCache, Verdict,
};
use crellvm_ir::{Function, Module};
use crellvm_passes::{
    format_step_line, gvn, instcombine, licm, mem2reg, CodecScratch, PassConfig, ProofFormat,
    StepOutcome,
};
use crellvm_telemetry::{Registry, Snapshot, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic work counters gathered alongside the spans.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn bump(counts: &mut Counts, name: &'static str, n: u64) {
    *counts.entry(name).or_insert(0) += n;
}

/// One pass over one function, by pipeline name.
fn run_pass_function(pass: &str, f: &Function, config: &PassConfig, tel: &Telemetry) -> ProofUnit {
    match pass {
        "mem2reg" => mem2reg::promote_function_traced(f, config, tel),
        "instcombine" => instcombine::instcombine_function_traced(f, config, tel),
        "gvn" => gvn::gvn_function_traced(f, config, tel),
        "licm" => licm::licm_function_traced(f, config, tel),
        other => panic!("unknown pass {other}"),
    }
}

/// The validation cache a replay consults, with the tenant namespace the
/// daemon layers over every key.
pub struct CacheCtx<'a> {
    pub cache: &'a ValidationCache,
    pub namespace: &'a str,
}

/// Replay one (pass, function) item; returns the step outcome and the
/// transformed function.
#[allow(clippy::too_many_arguments)]
fn replay_item(
    pass: &str,
    f: &Function,
    config: &PassConfig,
    checker: &CheckerConfig,
    tel: &Telemetry,
    scratch: &mut CodecScratch,
    cache: Option<&CacheCtx<'_>>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (StepOutcome, Function) {
    let format = ProofFormat::default();
    let mut key = None;
    if let Some(ctx) = cache {
        bump(counts, "cache.lookups", 1);
        let k = tr.time("core.cache", || {
            let bytes = serialize_bin::to_bytes(f).expect("function serializes");
            CacheKey::for_unit(
                &bytes,
                pass,
                config.cache_token(),
                checker.cache_token(),
                format.wire_token(),
            )
            .namespaced(ctx.namespace)
        });
        if let Some(entry) = tr.time("core.cache", || ctx.cache.get(k)) {
            bump(counts, "cache.hits", 1);
            let unit = tr
                .time("core.decode", || proof_from_bytes(&entry.proof))
                .expect("cached proof decodes");
            let stored = tr
                .time("core.cache", || Snapshot::from_json(&entry.metrics_json))
                .expect("cached metrics parse");
            tel.registry().merge_snapshot(&stored);
            let outcome = match entry.outcome {
                OUTCOME_VALID => StepOutcome::Valid,
                OUTCOME_FAILED => StepOutcome::Failed(entry.reason.clone()),
                OUTCOME_NOT_SUPPORTED => StepOutcome::NotSupported(entry.reason.clone()),
                other => panic!("unknown cached outcome {other}"),
            };
            return (outcome, unit.tgt);
        }
        key = Some(k);
    }

    // A miss records into its own registry, whose deterministic delta goes
    // into the new cache entry (as the engine does).
    let item_registry = Arc::new(Registry::new());
    let itel = match key {
        Some(_) => Telemetry::with_registry(Arc::clone(&item_registry)),
        None => tel.clone(),
    };
    tr.time("passes.orig", || {
        run_pass_function(pass, f, &config.without_proofs(), &Telemetry::disabled())
    });
    let unit = tr.time("passes.pcal", || run_pass_function(pass, f, config, &itel));
    bump(counts, "passes.steps", 1);
    bump(counts, "passes.stmts_out", unit.tgt.stmt_count() as u64);
    let wire_len = tr.time("core.encode", || format.encode_into(&unit, scratch));
    bump(counts, "core.proof_bytes", wire_len as u64);
    let decoded = tr.time("core.decode", || format.decode_scratch(scratch));
    let rows = itel.registry().counter_value("checker.rows");
    let verdict = tr.time("core.check", || {
        validate_with_telemetry(&decoded, checker, &itel)
    });
    bump(
        counts,
        "core.proof_cmds",
        itel.registry().counter_value("checker.rows") - rows,
    );
    let outcome = match verdict {
        Ok(Verdict::Valid) => StepOutcome::Valid,
        Ok(Verdict::NotSupported(r)) => {
            bump(counts, "core.check.not_supported", 1);
            StepOutcome::NotSupported(r)
        }
        Err(e) => {
            bump(counts, "core.check.failed", 1);
            StepOutcome::Failed(e.to_string())
        }
    };

    if let (Some(ctx), Some(k)) = (cache, key) {
        let proof = tr
            .time("core.encode", || proof_to_bytes_v2(&unit))
            .unwrap_or_default();
        tr.time("core.cache", || {
            let snapshot = item_registry.snapshot();
            tel.registry().merge_snapshot(&snapshot);
            let (tag, reason) = match &outcome {
                StepOutcome::Valid => (OUTCOME_VALID, String::new()),
                StepOutcome::Failed(r) => (OUTCOME_FAILED, r.clone()),
                StepOutcome::NotSupported(r) => (OUTCOME_NOT_SUPPORTED, r.clone()),
            };
            let mut entry = CacheEntry::new(tag, reason);
            entry.proof = proof;
            entry.proof_bytes = wire_len as u64;
            entry.metrics_json = snapshot.deterministic().to_json();
            ctx.cache.insert(k, entry);
        });
    }
    (outcome, unit.tgt)
}

/// Replay the default pipeline over a module: every pass over every
/// function in module order. Returns the step lines `crellvm opt`
/// prints, plus the number of failed steps.
pub fn replay_pipeline(
    m: &Module,
    tel: &Telemetry,
    cache: Option<&CacheCtx<'_>>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<String>, usize) {
    let config = PassConfig::default();
    let checker = CheckerConfig::sound();
    let mut scratch = CodecScratch::default();
    let mut cur = m.clone();
    let mut lines = Vec::new();
    let mut failed = 0;
    for pass in crellvm_passes::pipeline::PASS_ORDER {
        let mut next = cur.clone();
        for (i, f) in cur.functions.iter().enumerate() {
            let (outcome, tgt) = replay_item(
                pass,
                f,
                &config,
                &checker,
                tel,
                &mut scratch,
                cache,
                tr,
                counts,
            );
            if matches!(outcome, StepOutcome::Failed(_)) {
                failed += 1;
            }
            lines.push(format_step_line(pass, &f.name, &outcome));
            next.functions[i] = tgt;
        }
        cur = next;
    }
    (lines, failed)
}
