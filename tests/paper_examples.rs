//! The worked examples of the paper, reproduced end-to-end: each example's
//! translation is produced by the instrumented pass (or built by hand),
//! its ERHL proof is validated, and the behaviour is checked
//! differentially where applicable.

use crellvm::diff::diff_modules;
use crellvm::erhl::{
    validate, AutoKind, Expr, InfRule, Loc, Pred, ProofBuilder, Side, TValue, Verdict,
};
use crellvm::interp::{check_refinement, run_main, RunConfig};
use crellvm::ir::{parse_module, verify_module, BinOp, Inst, Type, Value};
use crellvm::passes::{gvn, instcombine, mem2reg, PassConfig};

/// Paper Fig 2: the assoc-add translation, produced by instcombine and
/// validated with the generated proof (`assoc_add` + `reduce_maydiff`).
#[test]
fn fig2_assoc_add() {
    let src = parse_module(
        r#"
        declare @foo(i32)
        define @main(i32 %a) {
        entry:
          %x = add i32 %a, 1
          %y = add i32 %x, 2
          call void @foo(i32 %y)
          ret void
        }
        "#,
    )
    .unwrap();
    let out = instcombine(&src, &PassConfig::default());
    let f = out.module.function("main").unwrap();
    // 20: y := add x 2 became y := add a 3, and the dead x := add a 1 was
    // removed by instcombine's dead-code elimination.
    assert_eq!(
        f.blocks[0].stmts[0].inst,
        Inst::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Value::Reg(f.params[0].1),
            rhs: Value::int(Type::I32, 3)
        }
    );
    for unit in &out.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
        // The generated proof uses the paper's rules.
        let has_assoc = unit
            .infrules
            .values()
            .flatten()
            .any(|r| matches!(r, InfRule::Arith(crellvm::erhl::ArithRule::AddAssoc { .. })));
        assert!(has_assoc, "proof should contain the assoc_add rule");
    }
    let rc = RunConfig::default();
    check_refinement(&run_main(&src, &rc), &run_main(&out.module, &rc)).unwrap();
}

/// Paper Fig 3: register promotion through a diamond with a phi-merge of
/// the stored values, validated with the intro_ghost/transitivity proof.
#[test]
fn fig3_mem2reg() {
    let src = parse_module(
        r#"
        declare @foo(i32)
        define @main(i1 %c, i32 %x, ptr %q) {
        entry:
          %p = alloca i32
          store i32 42, ptr %p
          br i1 %c, label left, label right
        left:
          %a = load i32, ptr %p
          call void @foo(i32 %a)
          br label exit
        right:
          store i32 %x, ptr %p
          store i32 %x, ptr %q
          br label exit
        exit:
          %b = load i32, ptr %p
          store i32 %b, ptr %q
          ret void
        }
        "#,
    )
    .unwrap();
    let out = mem2reg(&src, &PassConfig::default());
    let f = out.module.function("main").unwrap();
    // p1 := φ(42, x) inserted at exit; all accesses to %p gone.
    let exit = f.block_by_name("exit").unwrap();
    let (_, phi) = &f.block(exit).phis[0];
    let left = f.block_by_name("left").unwrap();
    let right = f.block_by_name("right").unwrap();
    assert_eq!(phi.value_from(left), Some(&Value::int(Type::I32, 42)));
    assert_eq!(phi.value_from(right), Some(&Value::Reg(f.params[1].1)));
    for unit in &out.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid));
        let has_ghost = unit
            .infrules
            .values()
            .flatten()
            .any(|r| matches!(r, InfRule::IntroGhost { .. }));
        assert!(has_ghost, "proof should introduce ghost registers");
        assert!(unit.autos.contains(&AutoKind::Transitivity));
    }
}

/// Paper §4: the fold-φ translation with its hand-built ERHL proof,
/// exercising old registers on a cyclic control flow.
#[test]
fn fold_phi_sec4() {
    // Source:                         Target:
    //   B1: x := a+1                    B1: x := a+1
    //   B2: z := φ(x, y)                B2: t := φ(a, z)
    //       w := φ(42, z)                   w := φ(42, z)
    //                                       z := t + 1          (new)
    //       print(w)                        print(w)
    //       y := z + 1                      y := z + 1
    //       c := y < n; br c B2 exit        …
    let m = parse_module(
        r#"
        declare @print(i32)
        define @main(i32 %a, i32 %n) {
        entry:
          %x = add i32 %a, 1
          br label b2
        b2:
          %z = phi i32 [ %x, entry ], [ %y, b2 ]
          %w = phi i32 [ 42, entry ], [ %z, b2 ]
          call void @print(i32 %w)
          %y = add i32 %z, 1
          %c = icmp slt i32 %y, %n
          br i1 %c, label b2, label exit
        exit:
          ret void
        }
        "#,
    )
    .unwrap();
    let f = m.functions[0].clone();
    let a = f.params[0].1;
    let x = f.blocks[0].stmts[0].result.unwrap();
    let b2 = f.block_by_name("b2").unwrap().index();
    let entry = f.block_by_name("entry").unwrap().index();
    let (z, _) = f.blocks[b2].phis[0];
    let y = f.blocks[b2].stmts[1].result.unwrap();

    let mut pb = ProofBuilder::new("instcombine.fold-phi", &f);
    // Build the target: replace the z-phi with t := φ(a, z) + z := t+1.
    let t = pb.fresh_reg("t");
    {
        let tgt = pb.tgt_mut();
        let pos = tgt.blocks[b2]
            .phis
            .iter()
            .position(|(r, _)| *r == z)
            .unwrap();
        let mut phi = tgt.blocks[b2].phis.remove(pos).1;
        phi.set_incoming(crellvm::ir::BlockId::from_index(entry), Value::Reg(a));
        phi.set_incoming(crellvm::ir::BlockId::from_index(b2), Value::Reg(z));
        tgt.blocks[b2].phis.insert(pos, (t, phi));
        tgt.blocks[b2].stmts.insert(
            0,
            crellvm::ir::Stmt {
                result: Some(z),
                inst: Inst::Bin {
                    op: BinOp::Add,
                    ty: Type::I32,
                    lhs: Value::Reg(t),
                    rhs: Value::int(Type::I32, 1),
                },
            },
        );
    }
    // Keep the alignment in sync: the inserted z := t+1 is a TgtOnly row
    // at the *start* of b2 — our builder only appends rows, so we instead
    // record the alignment directly.
    // (Row layout in b2: [TgtOnly z:=t+1, Both print, Both y, Both c].)
    let mut unit = {
        pb.auto(AutoKind::Transitivity);
        pb.auto(AutoKind::ReduceMaydiff);
        pb.global_maydiff(crellvm::erhl::TReg::Phy(t));

        // Assertions. ẑ mediates "the value z must have".
        let zhat = Expr::value(TValue::ghost("z"));
        let zv = Expr::Value(TValue::phy(z));
        let tv = TValue::phy(t);
        let t_plus_1 = Expr::bin(BinOp::Add, Type::I32, tv, TValue::int(Type::I32, 1));
        // {x ⊒ add(a,1), add(a,1) ⊒ x} to the end of entry (both sides).
        let xdef = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::phy(a),
            TValue::int(Type::I32, 1),
        );
        for side in [Side::Src, Side::Tgt] {
            pb.range_pred(
                side,
                Pred::Lessdef(Expr::Value(TValue::phy(x)), xdef.clone()),
                Loc::AfterRow(entry, 0),
                Loc::End(entry),
            );
            pb.range_pred(
                side,
                Pred::Lessdef(xdef.clone(), Expr::Value(TValue::phy(x))),
                Loc::AfterRow(entry, 0),
                Loc::End(entry),
            );
        }
        // At the start of B2: z_src ⊒ ẑ and ẑ ⊒ t+1 (tgt); z still differs.
        pb.range_pred(
            Side::Src,
            Pred::Lessdef(zv.clone(), zhat.clone()),
            Loc::Start(b2),
            Loc::Start(b2),
        );
        pb.range_pred(
            Side::Tgt,
            Pred::Lessdef(zhat.clone(), t_plus_1.clone()),
            Loc::Start(b2),
            Loc::Start(b2),
        );
        // {y ⊒ add(z,1)} to the end of B2 in the source (feeds the back edge).
        let ydef = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::phy(z),
            TValue::int(Type::I32, 1),
        );
        pb.range_pred(
            Side::Src,
            Pred::Lessdef(Expr::Value(TValue::phy(y)), ydef.clone()),
            Loc::AfterRow(b2, 2),
            Loc::End(b2),
        );

        // Edge entry → b2: ghost anchored on the old x.
        pb.infrule_edge(
            entry,
            b2,
            InfRule::IntroGhost {
                g: "z".into(),
                e: Expr::Value(TValue::old(x)),
            },
        );
        // ẑ ⊒ x̄ ⊒ add(ā,1) ⊒ add(t,1): substitute ā ↦ t (premise ā ⊒ t from the φ).
        pb.infrule_edge(
            entry,
            b2,
            InfRule::Substitute {
                side: Side::Tgt,
                from: TValue::old(a),
                to: TValue::phy(t),
                e: Expr::bin(
                    BinOp::Add,
                    Type::I32,
                    TValue::old(a),
                    TValue::int(Type::I32, 1),
                ),
            },
        );

        // Back edge b2 → b2: the paper's intro_ghost(ẑ, z̄+1).
        let zbar_plus_1 = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::old(z),
            TValue::int(Type::I32, 1),
        );
        pb.infrule_edge(
            b2,
            b2,
            InfRule::IntroGhost {
                g: "z".into(),
                e: zbar_plus_1.clone(),
            },
        );
        pb.infrule_edge(
            b2,
            b2,
            InfRule::Substitute {
                side: Side::Tgt,
                from: TValue::old(z),
                to: TValue::phy(t),
                e: zbar_plus_1,
            },
        );
        pb.finish()
    };
    // Fix up the alignment for the inserted first row of b2.
    unit.alignment[b2].insert(0, crellvm::erhl::RowShape::TgtOnly);
    // Re-slot the assertions of b2 (everything shifts by one row; the map
    // was built before the insert, so rebuild the affected slots).
    let base = unit
        .assertions
        .get(&crellvm::erhl::SlotId::new(b2, 0))
        .map(|a| crellvm::erhl::Assertion::clone(a))
        .unwrap();
    let nrows = unit.alignment[b2].len();
    let mut reslotted = std::collections::BTreeMap::new();
    for (k, v) in std::mem::take(&mut unit.assertions) {
        if k.block as usize == b2 {
            continue;
        }
        reslotted.insert(k, v);
    }
    // Slot 0 keeps the edge goal; slots ≥ 1 get the base (facts after the
    // z-definition are re-derived by the checker's posts + autos); the y
    // range must persist, so re-add it to slots 4..=nrows.
    for s in 0..=nrows {
        let mut a = base.clone();
        if s >= 1 {
            // z is pinned from the z-row on; drop nothing, but allow the
            // maydiff to keep only t (z equal after its definition).
        }
        if s >= 3 {
            let (z_, y_) = (z, y);
            a.src.insert_lessdef(
                Expr::Value(TValue::phy(y_)),
                Expr::bin(
                    BinOp::Add,
                    Type::I32,
                    TValue::phy(z_),
                    TValue::int(Type::I32, 1),
                ),
            );
        }
        if s >= 1 {
            a.add_maydiff(crellvm::erhl::TReg::Phy(z));
            a.remove_maydiff(&crellvm::erhl::TReg::Phy(z));
        }
        if s == 0 {
            a.add_maydiff(crellvm::erhl::TReg::Phy(z));
        }
        reslotted.insert(crellvm::erhl::SlotId::new(b2, s), std::sync::Arc::new(a));
    }
    unit.assertions = reslotted;
    // Move the row-anchored infrules of b2 one row down (they were placed
    // by src-row coordinates before the insert — none were, so nothing to
    // shift), and keep the edge rules as-is.

    assert_eq!(
        validate(&unit),
        Ok(Verdict::Valid),
        "fold-phi proof: {:?}",
        validate(&unit)
    );

    // Differential check.
    let mut tgt_mod = m.clone();
    *tgt_mod.function_mut("main").unwrap() = unit.tgt.clone();
    verify_module(&tgt_mod).unwrap();
    let rc = RunConfig::default();
    check_refinement(&run_main(&m, &rc), &run_main(&tgt_mod, &rc)).unwrap();
}

/// Paper Fig 15 (§C): PRE with a leader edge and a branch-constant (BCT)
/// edge, produced by the gvn pass.
#[test]
fn fig15_gvn_pre() {
    let src = parse_module(
        r#"
        declare @print(i32)
        define @main(i32 %n, i1 %c1) {
        entry:
          %x1 = sub i32 %n, 2
          br i1 %c1, label left, label right
        left:
          %y1 = add i32 %x1, 1
          %c2 = icmp eq i32 %y1, 10
          br i1 %c2, label empty, label other
        empty:
          br label exit
        other:
          call void @print(i32 1)
          br label exit
        right:
          %x2 = sub i32 %n, 2
          %y2 = add i32 %x2, 1
          call void @print(i32 %y2)
          br label exit
        exit:
          %y3 = add i32 %x1, 1
          call void @print(i32 %y3)
          ret void
        }
        "#,
    )
    .unwrap();
    let out = gvn(&src, &PassConfig::default());
    for unit in &out.proofs {
        assert_eq!(validate(unit), Ok(Verdict::Valid), "tgt:\n{}", unit.tgt);
    }
    // The icmp_to_eq rule (BCT reasoning) appears in the proof iff the
    // empty-edge used a branch constant.
    let main_unit = out.proofs.iter().find(|u| u.src.name == "main").unwrap();
    let uses_icmp_to_eq = main_unit
        .infrules
        .values()
        .flatten()
        .any(|r| matches!(r, InfRule::IcmpToEq { .. }));
    assert!(
        uses_icmp_to_eq,
        "Fig 15's branching assertion should be exercised"
    );
    let rc = RunConfig::default();
    check_refinement(&run_main(&src, &rc), &run_main(&out.module, &rc)).unwrap();
}

/// Paper §1.1's framework: the proof-generating compiler's output agrees
/// with the "original" compiler's output up to alpha-equivalence
/// (`llvm-diff`). Our passes are deterministic, so running twice and
/// diffing reproduces that check.
#[test]
fn framework_llvm_diff_check() {
    let src = parse_module(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          %p = alloca i32
          store i32 7, ptr %p
          %a = load i32, ptr %p
          %b = add i32 %a, 0
          call void @print(i32 %b)
          ret void
        }
        "#,
    )
    .unwrap();
    let run1 = mem2reg(&src, &PassConfig::default());
    let run2 = mem2reg(&src, &PassConfig::default());
    diff_modules(&run1.module, &run2.module).expect("tgt and tgt' are alpha-equivalent");
}
