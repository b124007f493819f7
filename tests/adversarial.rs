//! Adversarial soundness canaries: take *valid* translations with their
//! generated proofs, then corrupt the target program in
//! behaviour-changing ways while keeping the proof — the checker must
//! reject every corruption. A checker that accepts any of these would be
//! unsound (the paper's whole point is that the proof checker, not the
//! proof generator, is trusted).

use crellvm::erhl::{validate, ProofUnit, Verdict};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::ir::{Const, Inst, Value};
use crellvm::passes::{gvn, instcombine, mem2reg, PassConfig};

/// Collect validated units from a few generated modules.
fn valid_units() -> Vec<ProofUnit> {
    let mut units = Vec::new();
    for seed in [5u64, 17, 23, 31, 49, 66, 92] {
        let m = generate_module(&GenConfig {
            seed,
            functions: 3,
            ..GenConfig::default()
        });
        for out in [
            mem2reg(&m, &PassConfig::default()),
            gvn(&m, &PassConfig::default()),
            instcombine(&m, &PassConfig::default()),
        ] {
            for u in out.proofs {
                if validate(&u) == Ok(Verdict::Valid) {
                    units.push(u);
                }
            }
        }
    }
    assert!(units.len() >= 20, "need a corpus of valid units");
    units
}

/// Apply `mutate` to the first matching spot of each unit's target; count
/// how many mutated units the checker accepts. Must be zero.
fn assert_all_rejected(name: &str, mutate: impl Fn(&mut ProofUnit) -> bool) {
    let mut mutated = 0;
    let mut accepted = Vec::new();
    for mut unit in valid_units() {
        if !mutate(&mut unit) {
            continue;
        }
        mutated += 1;
        if validate(&unit) == Ok(Verdict::Valid) {
            accepted.push(unit.src.name.clone());
        }
    }
    assert!(mutated > 0, "{name}: mutation never applied");
    assert!(
        accepted.is_empty(),
        "{name}: checker accepted corrupted targets for {accepted:?}"
    );
}

/// Changing a constant argument of an observable call must be caught.
#[test]
fn mutated_call_argument_rejected() {
    assert_all_rejected("call-arg", |unit| {
        for b in &mut unit.tgt.blocks {
            for s in &mut b.stmts {
                if let Inst::Call { callee, args, .. } = &mut s.inst {
                    if callee == "print" {
                        for (_, v) in args.iter_mut() {
                            if let Value::Const(Const::Int { ty, bits }) = v {
                                *v = Value::Const(Const::Int {
                                    ty: *ty,
                                    bits: ty.truncate(bits.wrapping_add(1)),
                                });
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    });
}

/// Swapping a conditional branch's targets must be caught (CheckCFG).
#[test]
fn swapped_branch_targets_rejected() {
    assert_all_rejected("cond-br-swap", |unit| {
        for b in &mut unit.tgt.blocks {
            if let crellvm::ir::Term::CondBr {
                if_true, if_false, ..
            } = &mut b.term
            {
                if if_true != if_false {
                    std::mem::swap(if_true, if_false);
                    return true;
                }
            }
        }
        false
    });
}

/// Adding `inbounds` to a plain gep introduces poison: must be caught.
#[test]
fn added_inbounds_flag_rejected() {
    assert_all_rejected("gep-inbounds", |unit| {
        for b in &mut unit.tgt.blocks {
            for s in &mut b.stmts {
                if let Inst::Gep {
                    inbounds: inbounds @ false,
                    ..
                } = &mut s.inst
                {
                    *inbounds = true;
                    return true;
                }
            }
        }
        false
    });
}

/// Flipping a binary operator on a value that flows onwards must be
/// caught.
#[test]
fn flipped_operator_rejected() {
    assert_all_rejected("binop-flip", |unit| {
        // Only flip instructions whose result is actually used (a dead
        // flipped instruction could legitimately still validate).
        let used = unit.tgt.use_counts();
        for b in &mut unit.tgt.blocks {
            for s in &mut b.stmts {
                let Some(r) = s.result else { continue };
                if used.get(&r).copied().unwrap_or(0) == 0 {
                    continue;
                }
                if let Inst::Bin {
                    op: op @ crellvm::ir::BinOp::Add,
                    ..
                } = &mut s.inst
                {
                    *op = crellvm::ir::BinOp::Sub;
                    return true;
                }
            }
        }
        false
    });
}

/// Rewiring a phi's incoming value to a different constant must be caught.
#[test]
fn mutated_phi_incoming_rejected() {
    assert_all_rejected("phi-incoming", |unit| {
        // Only live phis: mutating a dead phi (mem2reg inserts some at the
        // dominance frontier even when no load consumes them) is a sound
        // no-op and may legitimately validate.
        let used = unit.tgt.use_counts();
        for b in &mut unit.tgt.blocks {
            for (r, phi) in &mut b.phis {
                if used.get(r).copied().unwrap_or(0) == 0 {
                    continue;
                }
                for (_, slot) in &mut phi.incoming {
                    if let Some(Value::Const(Const::Int { ty, bits })) = slot {
                        *slot = Some(Value::Const(Const::Int {
                            ty: *ty,
                            bits: ty.truncate(bits.wrapping_add(3)),
                        }));
                        return true;
                    }
                }
            }
        }
        false
    });
}

/// Deleting a store from the target (without privacy evidence) must be
/// caught.
#[test]
fn deleted_store_rejected() {
    assert_all_rejected("store-drop", |unit| {
        // Find a Both row whose instruction is a store to a NON-private
        // location (escaping allocas survive mem2reg) and delete it from
        // the target, marking the row SrcOnly.
        for (bi, b) in unit.tgt.blocks.iter().enumerate() {
            for (ti, s) in b.stmts.iter().enumerate() {
                if matches!(s.inst, Inst::Store { .. }) {
                    // Locate the corresponding row.
                    let mut t = 0usize;
                    for (row, shape) in unit.alignment[bi].iter().enumerate() {
                        let has_tgt = !matches!(shape, crellvm::erhl::RowShape::SrcOnly);
                        if has_tgt {
                            if t == ti {
                                if matches!(shape, crellvm::erhl::RowShape::Both) {
                                    unit.alignment[bi][row] = crellvm::erhl::RowShape::SrcOnly;
                                    unit.tgt.blocks[bi].stmts.remove(ti);
                                    return true;
                                }
                                return false;
                            }
                            t += 1;
                        }
                    }
                }
            }
        }
        false
    });
}

/// A completely empty proof for a *changed* program must never validate
/// (while it must validate for the identity translation) — the base case.
#[test]
fn empty_proof_only_validates_identity() {
    use crellvm::erhl::ProofBuilder;
    let m = generate_module(&GenConfig {
        seed: 3,
        functions: 2,
        ..GenConfig::default()
    });
    for f in &m.functions {
        let unit = ProofBuilder::new("identity", f).finish();
        assert_eq!(validate(&unit), Ok(Verdict::Valid), "@{}", f.name);
    }
    // Now the same with one instruction deleted from the target.
    for f in &m.functions {
        let mut pb = ProofBuilder::new("bogus", f);
        let mut deleted = false;
        'outer: for (bi, b) in f.blocks.iter().enumerate() {
            for (i, s) in b.stmts.iter().enumerate() {
                let Some(r) = s.result else { continue };
                if s.inst.is_pure() && f.use_counts().get(&r).copied().unwrap_or(0) > 0 {
                    pb.delete_tgt(bi, i);
                    deleted = true;
                    break 'outer;
                }
            }
        }
        if deleted {
            let unit = pb.finish();
            assert!(
                validate(&unit).is_err(),
                "@{}: deleting a used instruction with no proof must fail",
                f.name
            );
        }
    }
}

/// `@f(i32 %x)`, whose one row `%y = add i32 %x, 0` is returned, and its
/// `%x`.
fn one_row_function() -> (crellvm::ir::Function, crellvm::ir::RegId) {
    let m = crellvm::ir::parse_module(
        "define @f(i32 %x) -> i32 {\nentry:\n  %y = add i32 %x, 0\n  ret i32 %y\n}\n",
    )
    .unwrap();
    let f = m.functions[0].clone();
    let x = f.params[0].1;
    (f, x)
}

/// A target-only division the source never executes is fine only when
/// its literal divisor traps for no dividend: `sdiv`/`srem` by −1 traps
/// on MIN, as by 0 for every operator.
#[test]
fn target_only_division_by_minus_one_rejected() {
    use crellvm::erhl::ProofBuilder;
    use crellvm::ir::{BinOp, Stmt, Type};
    let (f, x) = one_row_function();
    for (op, divisor, accepted) in [
        (BinOp::SDiv, -1, false),
        (BinOp::SRem, -1, false),
        (BinOp::SDiv, 0, false),
        (BinOp::UDiv, 0, false),
        (BinOp::SDiv, 2, true),
        (BinOp::SRem, 2, true),
        (BinOp::UDiv, -1, true),
        (BinOp::URem, -1, true),
    ] {
        let mut pb = ProofBuilder::new("adversary", &f);
        let z = pb.fresh_reg("z");
        let inst = Inst::Bin {
            op,
            ty: Type::I32,
            lhs: Value::Reg(x),
            rhs: Value::int(Type::I32, divisor),
        };
        pb.append_tgt(
            0,
            Stmt {
                result: Some(z),
                inst,
            },
        );
        pb.global_maydiff(z);
        let verdict = validate(&pb.finish());
        assert_eq!(verdict.is_ok(), accepted, "{op} by {divisor}: {verdict:?}");
    }
}

/// A target division on a source division's divisor is fine unless it
/// can trap where the source cannot: a signed target overflows at
/// `MIN / -1`, so it needs a signed source on the same dividend.
#[test]
fn signed_target_division_needs_a_signed_source_on_the_same_dividend() {
    use crellvm::erhl::ProofBuilder;
    use crellvm::ir::{parse_module, BinOp, Type};
    let m = parse_module(
        "define @f(i32 %x, i32 %y, i32 %d) -> i32 {\nentry:\n  \
         %u = udiv i32 %x, %d\n  %s = sdiv i32 %x, %d\n  ret i32 %x\n}\n",
    )
    .unwrap();
    let f = &m.functions[0];
    let [x, y, d] = [0, 1, 2].map(|i| f.params[i].1);
    // (row replaced: 0 is `udiv %x, %d`, 1 is `sdiv %x, %d`; new target)
    for (row, op, lhs, accepted) in [
        (0, BinOp::SDiv, x, false),
        (0, BinOp::SRem, x, false),
        (1, BinOp::SDiv, y, false),
        (0, BinOp::UDiv, y, true),
        (0, BinOp::URem, x, true),
        (1, BinOp::SRem, x, true),
        (1, BinOp::UDiv, y, true),
    ] {
        let mut pb = ProofBuilder::new("adversary", f);
        let inst = Inst::Bin {
            op,
            ty: Type::I32,
            lhs: Value::Reg(lhs),
            rhs: Value::Reg(d),
        };
        pb.replace_tgt(0, row, inst);
        pb.global_maydiff(f.blocks[0].stmts[row].result.unwrap());
        let verdict = validate(&pb.finish());
        assert_eq!(verdict.is_ok(), accepted, "row {row} -> {op}: {verdict:?}");
    }
}

/// Proofs that give an arithmetic rule or a division a non-integer type
/// fail with a reason, like any rule that does not apply; none reaches
/// `Type::bits` and panics.
#[test]
fn non_integer_widths_fail_cleanly() {
    use crellvm::erhl::{ArithRule, CompositeRule, Expr, InfRule, ProofBuilder, Side, TValue};
    use crellvm::ir::{BinOp, CastOp, IcmpPred, Stmt, Type};
    let (f, x) = one_row_function();
    let ptr = |bits| Const::Int {
        ty: Type::Ptr,
        bits,
    };
    let lit = |bits| TValue::Const(ptr(bits));
    let identity = |from: Expr, to: Expr| {
        InfRule::Arith(ArithRule::Identity {
            side: Side::Src,
            anchor: Expr::Value(TValue::phy(x)),
            from,
            to,
        })
    };
    let rules = [
        identity(
            Expr::bin(BinOp::Add, Type::Ptr, lit(1), lit(2)),
            Expr::Value(lit(3)),
        ),
        identity(
            Expr::bin(BinOp::Add, Type::Void, lit(1), lit(2)),
            Expr::Value(lit(3)),
        ),
        identity(
            Expr::Icmp {
                pred: IcmpPred::Eq,
                ty: Type::Ptr,
                a: lit(1),
                b: lit(1),
            },
            Expr::Value(TValue::Const(Const::bool(true))),
        ),
        identity(
            Expr::Cast {
                op: CastOp::Trunc,
                from: Type::Ptr,
                a: lit(1),
                to: Type::I32,
            },
            Expr::Value(TValue::int(Type::I32, 1)),
        ),
        InfRule::Arith(ArithRule::Composite(CompositeRule::ShlShl {
            side: Side::Src,
            ty: Type::Ptr,
            t: TValue::phy(x),
            y: TValue::phy(x),
            a: TValue::phy(x),
            c1: ptr(1),
            c2: ptr(2),
        })),
    ];
    let mut units = Vec::new();
    for rule in rules {
        let mut pb = ProofBuilder::new("adversary", &f);
        pb.infrule_after_row(0, 0, rule);
        units.push(pb.finish());
    }
    // A target-only `udiv` typed `ptr` with a literal divisor.
    let mut pb = ProofBuilder::new("adversary", &f);
    let z = pb.fresh_reg("z");
    let inst = Inst::Bin {
        op: BinOp::UDiv,
        ty: Type::Ptr,
        lhs: Value::Reg(x),
        rhs: Value::Const(ptr(5)),
    };
    pb.append_tgt(
        0,
        Stmt {
            result: Some(z),
            inst,
        },
    );
    pb.global_maydiff(z);
    units.push(pb.finish());
    for unit in &units {
        let err = validate(unit).expect_err("a non-integer width must fail");
        assert!(!err.reason.is_empty());
    }
}
