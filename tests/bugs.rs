//! The four miscompilation bugs of the paper, reproduced end-to-end:
//! each bug switch makes the corresponding pass miscompile a triggering
//! program, the reference interpreter *observes* the miscompilation
//! (where it is observable), and validation pinpoints it — while the
//! fixed pass both validates and preserves behaviour.
//!
//! Also reproduces §8.2's maintainability matrix: the LLVM 3.7.1 /
//! 5.0.1-prepatch / 5.0.1-postpatch bug populations.

use crellvm::erhl::{validate, Verdict};
use crellvm::interp::{check_refinement, run_main, End, RunConfig, UbReason, Val};
use crellvm::ir::{parse_module, verify_module, Module, Type};
use crellvm::passes::{gvn, mem2reg, BugSet, PassConfig};

fn ints(run: &crellvm::interp::RunResult) -> Vec<Option<i64>> {
    run.events
        .iter()
        .filter(|e| e.callee == "print")
        .map(|e| match &e.args[0] {
            Val::Int {
                ty,
                bits,
                tainted: false,
            } => Some(ty.sext(*bits)),
            _ => None, // undef-ish
        })
        .collect()
}

/// §B: the diffsqr program. `prev = cur` reads `cur` before the block's
/// store to `cur`, but a store from the *previous iteration* reaches it —
/// the exact PR24179 single-block pattern.
fn diffsqr_program() -> Module {
    parse_module(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          %arr = alloca i32, 3
          %a1 = gep ptr %arr, i64 1
          %a2 = gep ptr %arr, i64 2
          store i32 1, ptr %arr
          store i32 2, ptr %a1
          store i32 5, ptr %a2
          %prev = alloca i32
          %cur = alloca i32
          %sqrsum = alloca i32
          %diffsqrsum = alloca i32
          store i32 0, ptr %sqrsum
          store i32 0, ptr %diffsqrsum
          br label loop
        loop:
          %i = phi i32 [ 0, entry ], [ %i2, loop ]
          ; prev = cur  (loads cur BEFORE this block's store to cur)
          %cur_old = load i32, ptr %cur
          store i32 %cur_old, ptr %prev
          ; cur = arr[i]
          %i64v = zext i32 %i to i64
          %ai = gep ptr %arr, i64 %i64v
          %av = load i32, ptr %ai
          store i32 %av, ptr %cur
          ; sqrsum += cur * cur
          %c = load i32, ptr %cur
          %sq = mul i32 %c, %c
          %ss = load i32, ptr %sqrsum
          %ss2 = add i32 %ss, %sq
          store i32 %ss2, ptr %sqrsum
          ; diffsqrsum += (i == 0) ? 0 : (cur - prev)^2
          %p = load i32, ptr %prev
          %d = sub i32 %c, %p
          %dsq = mul i32 %d, %d
          %z = icmp eq i32 %i, 0
          %contrib = select i1 %z, i32 0, i32 %dsq
          %ds = load i32, ptr %diffsqrsum
          %ds2 = add i32 %ds, %contrib
          store i32 %ds2, ptr %diffsqrsum
          %i2 = add i32 %i, 1
          %cc = icmp slt i32 %i2, 3
          br i1 %cc, label loop, label exit
        exit:
          %r1 = load i32, ptr %sqrsum
          %r2 = load i32, ptr %diffsqrsum
          call void @print(i32 %r1)
          call void @print(i32 %r2)
          ret void
        }
        "#,
    )
    .unwrap()
}

#[test]
fn diffsqr_source_behaviour() {
    // 30 = 1² + 2² + 5²; 10 = (2-1)² + (5-2)².
    let m = diffsqr_program();
    verify_module(&m).unwrap();
    let r = run_main(&m, &RunConfig::default());
    assert_eq!(r.end, End::Ret(None));
    assert_eq!(ints(&r), vec![Some(30), Some(10)]);
}

#[test]
fn pr24179_end_to_end() {
    let m = diffsqr_program();
    let rc = RunConfig::default();
    let src_run = run_main(&m, &rc);

    // Fixed mem2reg: promotes correctly, validates, preserves behaviour.
    let fixed = mem2reg(&m, &PassConfig::default());
    verify_module(&fixed.module).unwrap();
    for unit in &fixed.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
    }
    let fixed_run = run_main(&fixed.module, &rc);
    check_refinement(&src_run, &fixed_run).unwrap();
    assert_eq!(ints(&fixed_run), vec![Some(30), Some(10)]);

    // Buggy mem2reg (LLVM 3.7.1): promotes `cur` through the single-block
    // fast path, feeding undef to every `prev = cur`.
    let config = PassConfig::with_bugs(BugSet {
        pr24179: true,
        ..BugSet::default()
    });
    let buggy = mem2reg(&m, &config);
    verify_module(&buggy.module).unwrap();
    // (a) Validation catches the bug with a loop-located reason.
    let err = buggy
        .proofs
        .iter()
        .find_map(|u| validate(u).err())
        .expect("the miscompilation must fail validation");
    assert!(err.at.contains("loop"), "failure at {}", err.at);
    // (b) The interpreter observes the wrong output: diffsqrsum is
    // derived from undef (the paper's "prints 30 and 0").
    let buggy_run = run_main(&buggy.module, &rc);
    let printed = ints(&buggy_run);
    assert_eq!(printed[0], Some(30), "sqrsum is unaffected");
    assert_ne!(printed[1], Some(10), "diffsqrsum is corrupted: {printed:?}");
    // (c) And the refinement checker flags it.
    assert!(check_refinement(&src_run, &buggy_run).is_err());
}

/// §1.2's gvn example: `bar(q1, q2)` with an inbounds and a plain gep.
#[test]
fn pr28562_end_to_end() {
    let m = parse_module(
        r#"
        declare @bar(ptr, ptr)
        define @main() {
        entry:
          %p = alloca i32, 4
          %q1 = gep inbounds ptr %p, i64 10
          %q2 = gep ptr %p, i64 10
          call void @bar(ptr %q1, ptr %q2)
          ret void
        }
        "#,
    )
    .unwrap();
    let rc = RunConfig::default();
    let src_run = run_main(&m, &rc);

    // Fixed gvn: flags differ → no merge; validates.
    let fixed = gvn(&m, &PassConfig::default());
    for unit in &fixed.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
    }
    check_refinement(&src_run, &run_main(&fixed.module, &rc)).unwrap();

    // Buggy gvn: q2 := q1 — the target passes poison where the source
    // passed a concrete (if out-of-bounds) address.
    let config = PassConfig::with_bugs(BugSet {
        pr28562: true,
        ..BugSet::default()
    });
    let buggy = gvn(&m, &config);
    verify_module(&buggy.module).unwrap();
    assert!(
        buggy.proofs.iter().any(|u| validate(u).is_err()),
        "validation must fail"
    );
    let buggy_run = run_main(&buggy.module, &rc);
    // Source: arg 1 is a concrete pointer; target: poison.
    assert!(matches!(src_run.events[0].args[1], Val::Ptr { .. }));
    assert!(matches!(buggy_run.events[0].args[1], Val::Poison(_)));
    assert!(check_refinement(&src_run, &buggy_run).is_err());
}

/// §1.1's mem2reg example: the trapping constant expression
/// `1 / ((i32)G - (i32)G)` propagated to a load the store does not
/// dominate.
#[test]
fn pr33673_end_to_end() {
    let m = parse_module(
        r#"
        global @G : i32[1]
        declare @foo(i32)
        define @main(i1 %c) {
        entry:
          %p = alloca i32
          br i1 %c, label uses, label stores
        uses:
          %r = load i32, ptr %p
          call void @foo(i32 %r)
          ret void
        stores:
          store i32 sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32))), ptr %p
          ret void
        }
        "#,
    )
    .unwrap();
    // The fixed compiler replaces the load with undef — fine.
    let fixed = mem2reg(&m, &PassConfig::default());
    for unit in &fixed.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
    }

    // The buggy compiler propagates the trapping constant.
    let config = PassConfig::with_bugs(BugSet {
        pr33673: true,
        ..BugSet::default()
    });
    let buggy = mem2reg(&m, &config);
    verify_module(&buggy.module).unwrap();
    let err = buggy
        .proofs
        .iter()
        .find_map(|u| validate(u).err())
        .expect("must fail validation");
    assert!(
        err.reason.contains("trapping") || err.reason.contains("undefined behaviour"),
        "reason: {}",
        err.reason
    );

    // End-to-end: with %c = true the source never executes the division
    // (foo receives undef); the target traps evaluating the call argument.
    let mut src_true = m.clone();
    // Drive main(true) by wrapping: replace parameter use with a constant.
    let main = src_true.function_mut("main").unwrap();
    let c = main.params[0].1;
    main.params.clear();
    main.replace_all_uses(c, &crellvm::ir::Value::int(Type::I1, 1));
    let mut buggy_true = buggy.module.clone();
    let main = buggy_true.function_mut("main").unwrap();
    let c = main.params[0].1;
    main.params.clear();
    main.replace_all_uses(c, &crellvm::ir::Value::int(Type::I1, 1));

    let rc = RunConfig::default();
    let src_run = run_main(&src_true, &rc);
    assert_eq!(src_run.end, End::Ret(None), "source is well-defined");
    let buggy_run = run_main(&buggy_true, &rc);
    assert!(
        matches!(buggy_run.end, End::Ub(_)),
        "target raises UB evaluating the trapping constexpr: {:?}",
        buggy_run.end
    );
    assert!(check_refinement(&src_run, &buggy_run).is_err());
}

/// PR33673 with a constant that traps by overflow instead of by zero:
/// `sdiv(i32 MIN, -1)`, whose divisor is a non-zero literal.
#[test]
fn pr33673_min_by_minus_one_end_to_end() {
    let m = parse_module(
        r#"
        declare @foo(i32)
        define @main() {
        entry:
          %p = alloca i32
          br i1 1, label uses, label stores
        uses:
          %r = load i32, ptr %p
          call void @foo(i32 %r)
          ret void
        stores:
          store i32 sdiv(i32 -2147483648, -1), ptr %p
          ret void
        }
        "#,
    )
    .unwrap();
    let fixed = mem2reg(&m, &PassConfig::default());
    for unit in &fixed.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
    }

    let config = PassConfig::with_bugs(BugSet {
        pr33673: true,
        ..BugSet::default()
    });
    let buggy = mem2reg(&m, &config);
    verify_module(&buggy.module).unwrap();
    let err = buggy
        .proofs
        .iter()
        .find_map(|u| validate(u).err())
        .expect("must fail validation");
    assert!(
        err.reason.contains("trapping") || err.reason.contains("undefined behaviour"),
        "reason: {}",
        err.reason
    );

    // The source never divides (foo receives undef); the target traps
    // evaluating the call argument.
    let rc = RunConfig::default();
    let src_run = run_main(&m, &rc);
    assert_eq!(src_run.end, End::Ret(None), "source is well-defined");
    let buggy_run = run_main(&buggy.module, &rc);
    assert_eq!(buggy_run.end, End::Ub(UbReason::TrappingConstant));
    assert!(check_refinement(&src_run, &buggy_run).is_err());
}

/// The D38619-style PRE bug: the branch-implied constant leaks onto the
/// wrong edge.
#[test]
fn d38619_end_to_end() {
    let m = parse_module(
        r#"
        declare @print(i32)
        define @main(i32 %n, i1 %c1) {
        entry:
          br i1 %c1, label left, label right
        left:
          %w = mul i32 %n, 3
          %cmp = icmp eq i32 %w, 12
          br i1 %cmp, label other, label exit
        other:
          call void @print(i32 1)
          ret void
        right:
          %l = mul i32 %n, 3
          call void @print(i32 %l)
          br label exit
        exit:
          %x = mul i32 %n, 3
          call void @print(i32 %x)
          ret void
        }
        "#,
    )
    .unwrap();
    // Fixed: validates.
    let fixed = gvn(&m, &PassConfig::default());
    for unit in &fixed.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
    }
    // Buggy: the false edge left→exit wrongly carries "w == 12".
    let config = PassConfig::with_bugs(BugSet {
        d38619: true,
        ..BugSet::default()
    });
    let buggy = gvn(&m, &config);
    verify_module(&buggy.module).unwrap();
    assert!(buggy.proofs.iter().any(|u| validate(u).is_err()));
    // End-to-end: drive main(5, true): w = 15 ≠ 12, so the false edge is
    // taken and the correct print is 15 — the buggy phi feeds 12.
    let drive = |m: &Module| {
        let mut m = m.clone();
        let f = m.function_mut("main").unwrap();
        let (n, c) = (f.params[0].1, f.params[1].1);
        f.params.clear();
        f.replace_all_uses(n, &crellvm::ir::Value::int(Type::I32, 5));
        f.replace_all_uses(c, &crellvm::ir::Value::int(Type::I1, 1));
        m
    };
    let rc = RunConfig::default();
    let src_run = run_main(&drive(&m), &rc);
    let buggy_run = run_main(&drive(&buggy.module), &rc);
    assert_eq!(ints(&src_run), vec![Some(15)]);
    assert_eq!(ints(&buggy_run), vec![Some(12)], "the miscompiled constant");
    assert!(check_refinement(&src_run, &buggy_run).is_err());
}

/// §8.2: the per-LLVM-version bug matrices. The same corpus-triggering
/// programs fail under 3.7.1, partially under 5.0.1-prepatch, and not at
/// all after the patch.
#[test]
fn llvm_version_matrix() {
    let trigger_gvn = parse_module(
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
    let fails_gvn = |bugs: BugSet| {
        let out = gvn(&trigger_gvn, &PassConfig::with_bugs(bugs));
        out.proofs.iter().any(|u| validate(u).is_err())
    };
    assert!(fails_gvn(BugSet::llvm_3_7_1()), "3.7.1 has PR28562");
    assert!(
        !fails_gvn(BugSet::llvm_5_0_1_prepatch()),
        "5.0.1 fixed PR28562"
    );
    assert!(!fails_gvn(BugSet::llvm_5_0_1_postpatch()));

    let trigger_m2r = diffsqr_program();
    let fails_m2r = |bugs: BugSet| {
        let out = mem2reg(&trigger_m2r, &PassConfig::with_bugs(bugs));
        out.proofs.iter().any(|u| validate(u).is_err())
    };
    assert!(fails_m2r(BugSet::llvm_3_7_1()), "3.7.1 has PR24179");
    assert!(
        !fails_m2r(BugSet::llvm_5_0_1_prepatch()),
        "5.0.1 fixed PR24179"
    );
    assert!(!fails_m2r(BugSet::llvm_5_0_1_postpatch()));
}
