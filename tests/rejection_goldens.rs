//! Golden rejections: the exact `ValidationError` text and deterministic
//! metric snapshot of three rejected units. Users read these fields in
//! `crellvm opt` output, forensic bundles and `--metrics` files, and the
//! validation cache stores the snapshots, so a change to how the checker
//! stores or walks assertions must leave every byte as it is.
//!
//! The units cover a real miscompilation (PR28562 through gvn, as CI's
//! forensics job runs it), a rule-history ring that wraps, and a
//! rejection before any row is checked.

use crellvm::erhl::checker::RULE_HISTORY_CAP;
use crellvm::erhl::{
    validate_with_telemetry, CheckerConfig, Expr, InfRule, ProofBuilder, ProofUnit, RowShape, Side,
    TValue, ValidationError,
};
use crellvm::ir::{parse_module, BinOp, Inst, Type, Value};
use crellvm::passes::{gvn, BugSet, PassConfig};
use crellvm::telemetry::{Registry, Telemetry};
use std::sync::Arc;

/// Validate `unit` into a fresh registry; the rejection and the
/// deterministic snapshot JSON.
fn reject(unit: &ProofUnit) -> (ValidationError, String) {
    let tel = Telemetry::with_registry(Arc::new(Registry::new()));
    let err = validate_with_telemetry(unit, &CheckerConfig::sound(), &tel)
        .expect_err("the unit is rejected");
    (err, tel.registry().snapshot().deterministic().to_json())
}

#[test]
fn pr28562_rejection_is_pinned() {
    let m = parse_module(
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
    let outcome = gvn(&m, &PassConfig::with_bugs(BugSet::llvm_3_7_1()));
    let unit = outcome
        .proofs
        .iter()
        .find(|u| u.src.name == "main")
        .unwrap();
    let (err, snapshot) = reject(unit);
    assert_eq!(err.at, "block entry, row 1");
    assert_eq!(err.reason, "source predicate not derivable: %r2 >= %r1");
    assert!(err.rule_history.is_empty());
    assert_eq!(
        err.failing_assertion.as_deref(),
        Some(
            "have: src { %r1 >= gep inbounds %r0, 10, %r2 >= gep %r0, 10, \
             gep %r0, 10 >= %r2, gep inbounds %r0, 10 >= %r1 } | tgt {  } | MD(%r2)\n\
             want: src { %r2 >= %r1 } | tgt {  } | MD(%r2)"
        )
    );
    assert_eq!(
        snapshot,
        r#"{"counters":{"checker.failures":1,"checker.rows":2,"checker.validations":1},"histograms":{"checker.assertion_preds":{"buckets":[[1,1],[2,1]],"count":2,"sum":4}},"timers":{}}"#
    );
}

/// Fig 2's assoc-add translation without its rule: ten `intro_eq`
/// applications after each of rows 0 and 1, then a `transitivity` whose
/// premise is missing — 21 applications, so the ring keeps the last 16.
#[test]
fn wrapped_rule_history_is_pinned() {
    let m = parse_module(
        "declare @foo(i32)\n\
         define @f(i32 %a) {\n\
         entry:\n\
         \x20 %x = add i32 %a, 1\n\
         \x20 %y = add i32 %x, 2\n\
         \x20 call void @foo(i32 %y)\n\
         \x20 ret void\n\
         }\n",
    )
    .unwrap();
    let f = &m.functions[0];
    let a = f.params[0].1;
    let mut pb = ProofBuilder::new("instcombine.assoc-add", f);
    pb.replace_tgt(
        0,
        1,
        Inst::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Value::Reg(a),
            rhs: Value::int(Type::I32, 3),
        },
    );
    let c = |v: i64| Expr::value(TValue::int(Type::I32, v));
    for row in 0..2 {
        for k in 0..10 {
            let side = if k % 2 == 0 { Side::Src } else { Side::Tgt };
            let e = c((row * 10 + k) as i64);
            pb.infrule_after_row(0, row, InfRule::IntroEq { side, e });
        }
    }
    pb.infrule_after_row(
        0,
        1,
        InfRule::Transitivity {
            side: Side::Src,
            e1: c(1),
            e2: c(2),
            e3: c(3),
        },
    );
    let (err, snapshot) = reject(&pb.finish());
    assert_eq!(err.at, "block entry, row 1");
    assert_eq!(
        err.reason,
        "inference rule Transitivity { side: Src, e1: Value(Const(Int { ty: I32, bits: 1 })), \
         e2: Value(Const(Int { ty: I32, bits: 2 })), e3: Value(Const(Int { ty: I32, bits: 3 })) } \
         failed: missing premise 1 >= 2"
    );
    let mut history = vec!["intro_eq @ block entry, row 0"; 5];
    history.extend(["intro_eq @ block entry, row 1"; 10]);
    history.push("transitivity @ block entry, row 1");
    assert_eq!(history.len(), RULE_HISTORY_CAP);
    assert_eq!(err.rule_history, history);
    assert_eq!(
        err.failing_assertion.as_deref(),
        Some(
            "have: src { %r2 >= add i32 %r1, 2, 10 >= 10, 12 >= 12, 14 >= 14, 16 >= 16, \
             18 >= 18, add i32 %r1, 2 >= %r2 } | tgt { %r2 >= add i32 %r0, 3, 11 >= 11, \
             13 >= 13, 15 >= 15, 17 >= 17, 19 >= 19, add i32 %r0, 3 >= %r2 } | MD(%r2)\n\
             want: src {  } | tgt {  } | MD()"
        )
    );
    assert_eq!(
        snapshot,
        r#"{"counters":{"checker.failures":1,"checker.rows":2,"checker.rule.intro_eq":20,"checker.rule.transitivity":1,"checker.rule_failures":1,"checker.validations":1},"histograms":{"checker.assertion_preds":{"buckets":[[0,2]],"count":2,"sum":0}},"timers":{}}"#
    );
}

/// Rejected at `CheckCFG`, before any row: no row, rule or assertion-size
/// metric may be registered, not even at zero.
#[test]
fn cfg_rejection_registers_no_row_metrics() {
    let m = parse_module("define @f() {\nentry:\n  %x = add i32 1, 2\n  ret void\n}\n").unwrap();
    let mut unit = ProofBuilder::new("x", &m.functions[0]).finish();
    unit.alignment[0][0] = RowShape::TgtOnly;
    let (err, snapshot) = reject(&unit);
    assert_eq!(err.at, "CheckCFG");
    assert_eq!(
        err.reason,
        "alignment of block entry is inconsistent with the code"
    );
    assert!(err.rule_history.is_empty());
    assert_eq!(err.failing_assertion, None);
    assert_eq!(
        snapshot,
        r#"{"counters":{"checker.failures":1,"checker.validations":1},"histograms":{},"timers":{}}"#
    );
    assert!(!snapshot.contains("checker.rows"));
}
