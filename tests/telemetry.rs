//! Integration tests for the telemetry layer: deterministic metrics,
//! trace round-trips, the proof-audit log on failing validations, and the
//! `gen_proofs = false` (`Orig`) mode.

use crellvm::ir::{parse_module, printer::print_module};
use crellvm::passes::{
    mem2reg, run_pipeline_parallel, BugSet, ParallelOptions, PassConfig, ProofFormat,
};
use crellvm::telemetry::{Event, Registry, Snapshot, Telemetry, Trace};
use std::sync::Arc;

const PROGRAM: &str = r#"
    declare @print(i32)
    define @main(i32 %n) {
    entry:
      %p = alloca i32
      store i32 0, ptr %p
      br label loop
    loop:
      %i = phi i32 [ 0, entry ], [ %i2, loop ]
      %acc = load i32, ptr %p
      %inv = mul i32 %n, 4
      %t = add i32 %inv, 0
      %acc2 = add i32 %acc, %t
      store i32 %acc2, ptr %p
      %i2 = add i32 %i, 1
      %c = icmp slt i32 %i2, 5
      br i1 %c, label loop, label exit
    exit:
      %r = load i32, ptr %p
      call void @print(i32 %r)
      ret void
    }
"#;

/// The gep program that trips PR28562 when the bug is switched on.
const GEP_PROGRAM: &str = r#"
    declare @bar(ptr, ptr)
    define @main(ptr %p) {
    entry:
      %q1 = gep inbounds ptr %p, i64 10
      %q2 = gep ptr %p, i64 10
      call void @bar(ptr %q1, ptr %q2)
      ret void
    }
"#;

fn traced_run(src: &str, config: &PassConfig) -> (Snapshot, String, usize) {
    let m = parse_module(src).expect("parse");
    let registry = Arc::new(Registry::new());
    let (trace, buffer) = Trace::in_memory();
    let tel = Telemetry::with_registry(registry.clone()).with_trace(trace);
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        ..ParallelOptions::default()
    };
    let (_, report) = run_pipeline_parallel(&m, config, &opts, &tel);
    (registry.snapshot(), buffer.contents(), report.validations())
}

#[test]
fn pipeline_counters_are_deterministic_across_runs() {
    let (a, _, _) = traced_run(PROGRAM, &PassConfig::default());
    let (b, _, _) = traced_run(PROGRAM, &PassConfig::default());
    // Counters and histograms are pure functions of the input program;
    // only the wall-clock timers may differ between runs.
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.histograms, b.histograms);

    // And they are non-trivial: the pipeline ran, the checker applied
    // rules, and the passes did domain work.
    assert!(a.counters["pipeline.steps"] >= 4);
    assert_eq!(
        a.counters["pipeline.steps"],
        a.counters["checker.validations"]
    );
    assert!(a.counters["pass.mem2reg.allocas_promoted"] >= 1);
    assert!(a.counters.keys().any(|k| k.starts_with("checker.rule.")));
    assert!(a.histograms["pipeline.proof_bytes"].count >= 4);
    // Orig runs only when asked for (the figure benches).
    assert!(!a.timers.contains_key("time.orig") && a.timers.contains_key("time.pcheck"));
}

#[test]
fn orig_is_timed_and_compared_only_when_asked_for() {
    let m = parse_module(PROGRAM).expect("parse");
    let registry = Arc::new(Registry::new());
    let tel = Telemetry::with_registry(registry.clone());
    let opts = ParallelOptions {
        jobs: 1,
        format: ProofFormat::Json,
        orig: true,
        ..ParallelOptions::default()
    };
    let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
    let with_orig = registry.snapshot();
    assert!(with_orig.timers.contains_key("time.orig"));
    assert!(report.time_orig > std::time::Duration::ZERO);
    // The plain pass builds the function the proof-generating pass does.
    assert_eq!(report.orig_mismatches, 0);
    // Orig records nothing but its timer.
    let (without, _, _) = traced_run(PROGRAM, &PassConfig::default());
    assert_eq!(with_orig.counters, without.counters);
    assert_eq!(with_orig.histograms, without.histograms);
}

#[test]
fn metrics_snapshot_roundtrips_through_json() {
    let (snap, _, _) = traced_run(PROGRAM, &PassConfig::default());
    let json = snap.to_json();
    assert_eq!(Snapshot::from_json(&json).expect("parse snapshot"), snap);
}

#[test]
fn trace_has_one_event_per_validation_step_and_roundtrips() {
    let (_, trace, validations) = traced_run(PROGRAM, &PassConfig::default());
    let events: Vec<Event> = trace
        .lines()
        .map(|line| {
            let e = Event::from_json_line(line).expect("every trace line parses");
            // JSON-lines round-trip: re-serializing reproduces the line.
            assert_eq!(e.to_json_line(), line);
            e
        })
        .collect();
    let steps: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == "validation.step")
        .collect();
    assert_eq!(
        steps.len(),
        validations,
        "one validation.step event per step"
    );
    for e in steps {
        assert!(e.field_str("pass").is_some());
        assert!(e.field_str("func").is_some());
        assert!(matches!(
            e.field_str("verdict"),
            Some("valid" | "failed" | "not_supported")
        ));
    }
}

#[test]
fn failing_validation_emits_failure_event() {
    let config = PassConfig::with_bugs(BugSet {
        pr28562: true,
        ..BugSet::default()
    });
    let (snap, trace, _) = traced_run(GEP_PROGRAM, &config);
    assert!(snap.counters["pipeline.failed"] >= 1);
    assert_eq!(
        snap.counters["pipeline.failed"],
        snap.counters["checker.failures"]
    );

    let failure = trace
        .lines()
        .map(|l| Event::from_json_line(l).expect("trace line parses"))
        .find(|e| e.kind == "validation.failure")
        .expect("a validation.failure event is in the audit log");
    assert_eq!(failure.field_str("pass"), Some("gvn"));
    assert_eq!(failure.field_str("func"), Some("main"));
    assert!(!failure.field_str("at").unwrap_or("").is_empty());
    assert!(!failure.field_str("reason").unwrap_or("").is_empty());
}

#[test]
fn disabling_proofs_transforms_identically_but_skips_proof_work() {
    let m = parse_module(PROGRAM).expect("parse");
    let with = mem2reg(&m, &PassConfig::default());
    let without = mem2reg(&m, &PassConfig::default().without_proofs());
    // The transformation itself is unchanged...
    assert_eq!(print_module(&with.module), print_module(&without.module));
    // ...but no proof obligations are produced (the honest `Orig` run).
    assert!(with.proofs.iter().any(|u| u.not_supported.is_none()));
    assert!(without.proofs.iter().all(|u| u.not_supported.is_some()));
    assert!(without
        .proofs
        .iter()
        .all(|u| u.assertions.is_empty() && u.infrules.is_empty()));
}

#[test]
fn event_from_json_line_rejects_malformed_input() {
    let malformed = [
        "",                      // empty
        "{",                     // truncated object
        "[1]",                   // not an object
        "\"x\"",                 // bare string
        "42",                    // bare number
        "{}",                    // no `kind`
        "{\"kind\": 3}",         // `kind` is not a string
        "{\"kind\": null}",      // `kind` is null
        "{\"kind\":\"k\"} junk", // trailing garbage
        "{\"kind\":\"k\",}",     // trailing comma
    ];
    for line in malformed {
        assert!(
            Event::from_json_line(line).is_err(),
            "malformed line accepted: {line:?}"
        );
    }
    // The minimal well-formed line still parses, extra fields intact.
    let ok = Event::from_json_line("{\"kind\":\"k\",\"n\":7}").expect("well-formed line");
    assert_eq!(ok.kind, "k");
    assert_eq!(ok.field_u64("n"), Some(7));
}

#[test]
fn merge_snapshot_is_commutative_on_the_deterministic_view() {
    let make = |seed: u64| {
        let r = Registry::new();
        r.add("shared.counter", seed * 3 + 1);
        r.add(&format!("only.{seed}"), seed + 10);
        for v in 0..seed * 5 + 2 {
            r.observe("shared.hist", v * v);
            r.observe(&format!("hist.{seed}"), v + seed);
        }
        r.record_duration("shared.timer", std::time::Duration::from_micros(seed + 1));
        r.snapshot()
    };
    let (a, b) = (make(2), make(7));

    let ab = Registry::new();
    ab.merge_snapshot(&a);
    ab.merge_snapshot(&b);
    let ba = Registry::new();
    ba.merge_snapshot(&b);
    ba.merge_snapshot(&a);

    // Merge order must not be observable in the deterministic view (the
    // raw view legitimately differs in wall-clock timer totals only when
    // the inputs do; here even those match, but the guarantee we rely on
    // everywhere is the deterministic one).
    assert_eq!(ab.snapshot().deterministic(), ba.snapshot().deterministic());
    // Merging is also additive: both orders see the sum of both inputs.
    assert_eq!(ab.counter_value("shared.counter"), 2 * 3 + 1 + 7 * 3 + 1);
    assert_eq!(ba.counter_value("only.2"), 12);
    assert_eq!(ba.counter_value("only.7"), 17);
}

/// A writer whose every write fails, for exercising the drop counter.
struct BrokenPipe;

impl std::io::Write for BrokenPipe {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "broken pipe",
        ))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn failed_trace_writes_surface_as_the_dropped_counter() {
    // At the sink: emit reports the failure and counts it.
    let trace = Trace::new(Box::new(BrokenPipe));
    assert!(!trace.emit(&Event::new("x")));
    assert!(!trace.emit(&Event::new("y")));
    assert_eq!(trace.dropped(), 2);

    // Through Telemetry: every dropped event lands in `trace.dropped`, so
    // a metrics snapshot reveals an audit log with holes in it.
    let registry = Arc::new(Registry::new());
    let tel = Telemetry::with_registry(registry.clone())
        .with_trace(Arc::new(Trace::new(Box::new(BrokenPipe))));
    tel.emit(Event::new("validation.step"));
    tel.emit(Event::new("validation.step"));
    tel.emit(Event::new("validation.failure"));
    assert_eq!(registry.counter_value("trace.dropped"), 3);

    // A healthy in-memory sink drops nothing.
    let (trace, _buffer) = Trace::in_memory();
    assert!(trace.emit(&Event::new("x")));
    assert_eq!(trace.dropped(), 0);
}
