//! Property-based *semantic* testing of the inference rules — the
//! test-time substitute for the paper's Coq verification (§5, §I).
//!
//! For every rule family we generate random extended states, build an
//! assertion the states satisfy, apply the rule, and check that the
//! strengthened assertion still holds. The deliberately unsound PR33673
//! configuration is refuted the same way the paper's Coq proof attempt
//! refuted the original rule.

mod semantics;

use crellvm::erhl::{
    apply_inf, rules_arith, ArithRule, Assertion, CheckerConfig, Expr, InfRule, Pred, Side, TReg,
    TValue,
};
use crellvm::ir::{BinOp, CastOp, Const, IcmpPred, RegId, Type};
use proptest::prelude::*;
use semantics::{eval_expr, eval_lessdef, eval_pred, lessdef_vals, ExtState, SemVal};

fn reg(i: usize) -> RegId {
    RegId::from_index(i)
}

/// A random semantic value of a random integer type.
fn arb_semval() -> impl Strategy<Value = SemVal> {
    prop_oneof![
        3 => (any::<u64>(), 0usize..4).prop_map(|(bits, tix)| {
            let ty = [Type::I8, Type::I16, Type::I32, Type::I64][tix];
            SemVal::Int { ty, bits: ty.truncate(bits) }
        }),
        1 => Just(SemVal::Undef),
    ]
}

/// A random i32 semantic value (for typed arithmetic properties).
fn arb_i32() -> impl Strategy<Value = SemVal> {
    prop_oneof![
        4 => any::<u64>().prop_map(|b| SemVal::Int { ty: Type::I32, bits: Type::I32.truncate(b) }),
        1 => Just(SemVal::Undef),
    ]
}

fn v32(x: i64) -> TValue {
    TValue::int(Type::I32, x)
}

proptest! {
    /// Every entry of the verified identity table is semantically sound:
    /// `eval(from) ⊒ eval(to)` under every valuation.
    #[test]
    fn identity_table_is_sound(
        a in arb_i32(),
        b in arb_i32(),
        c1 in -20i64..20,
        c2 in -20i64..20,
        k in 0i64..6,
    ) {
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), a);
        st.set(TReg::Phy(reg(1)), b);
        let ra = TValue::phy(reg(0));
        let rb = TValue::phy(reg(1));

        // Candidate (from, to) pairs spanning the table's families.
        let mk = |op: BinOp, x: &TValue, y: &TValue| Expr::bin(op, Type::I32, x.clone(), y.clone());
        let candidates: Vec<(Expr, Expr)> = vec![
            (mk(BinOp::Add, &ra, &v32(0)), Expr::Value(ra.clone())),
            (mk(BinOp::Add, &v32(0), &ra), Expr::Value(ra.clone())),
            (mk(BinOp::Sub, &ra, &v32(0)), Expr::Value(ra.clone())),
            (mk(BinOp::Sub, &ra, &ra), Expr::Value(v32(0))),
            (mk(BinOp::Mul, &ra, &v32(1)), Expr::Value(ra.clone())),
            (mk(BinOp::Mul, &ra, &v32(0)), Expr::Value(v32(0))),
            (mk(BinOp::And, &ra, &ra), Expr::Value(ra.clone())),
            (mk(BinOp::And, &ra, &v32(0)), Expr::Value(v32(0))),
            (mk(BinOp::And, &ra, &v32(-1)), Expr::Value(ra.clone())),
            (mk(BinOp::Or, &ra, &ra), Expr::Value(ra.clone())),
            (mk(BinOp::Or, &ra, &v32(0)), Expr::Value(ra.clone())),
            (mk(BinOp::Or, &ra, &v32(-1)), Expr::Value(v32(-1))),
            (mk(BinOp::Xor, &ra, &ra), Expr::Value(v32(0))),
            (mk(BinOp::Xor, &ra, &v32(0)), Expr::Value(ra.clone())),
            (mk(BinOp::Shl, &ra, &v32(0)), Expr::Value(ra.clone())),
            (mk(BinOp::Add, &ra, &rb), mk(BinOp::Add, &rb, &ra)),
            (mk(BinOp::Mul, &ra, &rb), mk(BinOp::Mul, &rb, &ra)),
            (mk(BinOp::Mul, &ra, &v32(1 << k)), mk(BinOp::Shl, &ra, &v32(k))),
            (mk(BinOp::Mul, &ra, &v32(-1)), mk(BinOp::Sub, &v32(0), &ra)),
            (mk(BinOp::Add, &ra, &ra), mk(BinOp::Shl, &ra, &v32(1))),
            (mk(BinOp::Add, &v32(c1), &v32(c2)), Expr::Value(v32((c1 as i32).wrapping_add(c2 as i32) as i64))),
            (
                Expr::Icmp { pred: IcmpPred::Eq, ty: Type::I32, a: ra.clone(), b: ra.clone() },
                Expr::Value(TValue::Const(Const::bool(true))),
            ),
            (
                Expr::Icmp { pred: IcmpPred::Slt, ty: Type::I32, a: ra.clone(), b: rb.clone() },
                Expr::Icmp { pred: IcmpPred::Sgt, ty: Type::I32, a: rb.clone(), b: ra.clone() },
            ),
            (
                Expr::Select { ty: Type::I32, cond: TValue::Const(Const::bool(true)), t: ra.clone(), f: rb.clone() },
                Expr::Value(ra.clone()),
            ),
            (
                Expr::Select { ty: Type::I32, cond: rb.clone(), t: ra.clone(), f: ra.clone() },
                Expr::Value(ra.clone()),
            ),
        ];
        for (from, to) in candidates {
            if !rules_arith::identity_holds(&from, &to) {
                continue; // not claimed (e.g. 1<<k not a valid shift form)
            }
            // A trapping source is vacuous; a defined one needs a defined,
            // refining target.
            let (vf, vt) = (eval_expr(&from, &st), eval_expr(&to, &st));
            prop_assert_ne!(
                eval_lessdef(&from, &to, &st),
                Some(false),
                "identity {} -> {} violated: {:?} vs {:?} (a={:?}, b={:?})", from, to, vf, vt, a, b
            );
        }
    }

    /// The table rejects bogus identities (sampled negatives).
    #[test]
    fn identity_table_rejects_wrong_constants(c in 1i64..50, d in 1i64..50) {
        prop_assume!(c != d);
        let ra = TValue::phy(reg(0));
        let from = Expr::bin(BinOp::Add, Type::I32, ra.clone(), v32(c));
        // Claiming add c is the identity (or folds to a wrong constant).
        prop_assert!(!rules_arith::identity_holds(&from, &Expr::Value(ra.clone())));
        let from2 = Expr::bin(BinOp::Add, Type::I32, v32(c), v32(d));
        prop_assert!(!rules_arith::identity_holds(
            &from2,
            &Expr::Value(v32((c as i32).wrapping_add(d as i32) as i64 + 1))
        ));
    }

    /// assoc_add (the paper's §2 rule): if the premises hold semantically,
    /// so does the conclusion.
    #[test]
    fn assoc_add_is_sound(a in arb_i32(), c1 in -100i64..100, c2 in -100i64..100) {
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), a); // a
        let inner = Expr::bin(BinOp::Add, Type::I32, TValue::phy(reg(0)), v32(c1));
        let x = eval_expr(&inner, &st).unwrap();
        st.set(TReg::Phy(reg(1)), x); // x := add a c1
        let outer = Expr::bin(BinOp::Add, Type::I32, TValue::phy(reg(1)), v32(c2));
        let y = eval_expr(&outer, &st).unwrap();
        st.set(TReg::Phy(reg(2)), y); // y := add x c2

        let mut q = Assertion::new();
        q.src.insert_lessdef(Expr::Value(TValue::phy(reg(1))), inner);
        q.src.insert_lessdef(Expr::Value(TValue::phy(reg(2))), outer);
        let rule = InfRule::Arith(ArithRule::AddAssoc {
            side: Side::Src,
            op: BinOp::Add,
            ty: Type::I32,
            x: TValue::phy(reg(1)),
            y: TValue::phy(reg(2)),
            a: TValue::phy(reg(0)),
            c1: Const::int(Type::I32, c1),
            c2: Const::int(Type::I32, c2),
        });
        let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
        // Every source predicate of the strengthened assertion holds.
        for p in q2.src.iter() {
            prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
        }
    }

    /// Substitution: from `v ⊒ m`, `e ⊒ e[v↦m]` holds semantically.
    #[test]
    fn substitute_is_sound(a in arb_semval(), op_ix in 0usize..13, c in -50i64..50) {
        let ops = BinOp::all();
        let op = ops[op_ix];
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), a);
        // m := copy of a (or, when a is undef, any value refines).
        let m = match a {
            SemVal::Undef => SemVal::int(Type::I32, c),
            other => other,
        };
        st.set(TReg::Ghost("m".into()), m);
        // Premise v ⊒ m holds by construction.
        let prem = Pred::Lessdef(
            Expr::value(TValue::phy(reg(0))),
            Expr::value(TValue::ghost("m")),
        );
        prop_assume!(eval_pred(&prem, &st) == Some(true));

        let e = Expr::bin(op, Type::I32, TValue::phy(reg(0)), v32(c));
        let mut q = Assertion::new();
        q.src.insert(prem);
        let rule = InfRule::Substitute {
            side: Side::Src,
            from: TValue::phy(reg(0)),
            to: TValue::ghost("m"),
            e: e.clone(),
        };
        let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
        for p in q2.src.iter() {
            prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
        }
    }

    /// icmp_to_eq: when the comparison is (semantically) true, the derived
    /// equalities hold.
    #[test]
    fn icmp_to_eq_is_sound(x in any::<u32>()) {
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), SemVal::Int { ty: Type::I32, bits: x as u64 });
        st.set(TReg::Phy(reg(1)), SemVal::int(Type::I1, 1));
        let cmp = Expr::Icmp {
            pred: IcmpPred::Eq,
            ty: Type::I32,
            a: TValue::phy(reg(0)),
            b: TValue::int(Type::I32, x as i64),
        };
        // c := icmp eq x X, and the premise true ⊒ cmp.
        let mut q = Assertion::new();
        q.src.insert_lessdef(Expr::Value(TValue::Const(Const::bool(true))), cmp);
        let rule = InfRule::IcmpToEq {
            side: Side::Src,
            flag: true,
            ty: Type::I32,
            a: TValue::phy(reg(0)),
            b: TValue::int(Type::I32, x as i64),
        };
        let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
        for p in q2.src.iter() {
            prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
        }
    }

    /// Transitivity over random chains.
    #[test]
    fn transitivity_is_sound(a in arb_semval(), undef_mid in any::<bool>()) {
        let mut st = ExtState::new();
        // r0 ⊒ r1 ⊒ r2 by construction: either all equal, or prefix undef.
        let (v0, v1, v2) = if undef_mid {
            (SemVal::Undef, SemVal::Undef, a)
        } else {
            (a, a, a)
        };
        st.set(TReg::Phy(reg(0)), v0);
        st.set(TReg::Phy(reg(1)), v1);
        st.set(TReg::Phy(reg(2)), v2);
        let e = |i: usize| Expr::value(TValue::phy(reg(i)));
        let mut q = Assertion::new();
        q.src.insert_lessdef(e(0), e(1));
        q.src.insert_lessdef(e(1), e(2));
        prop_assume!(q.src.iter().all(|p| eval_pred(&p, &st) == Some(true)));
        let rule = InfRule::Transitivity { side: Side::Src, e1: e(0), e2: e(1), e3: e(2) };
        let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
        for p in q2.src.iter() {
            prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
        }
    }

    /// Cast compositions are semantically sound.
    #[test]
    fn cast_composition_is_sound(bits in any::<u64>()) {
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), SemVal::Int { ty: Type::I8, bits: Type::I8.truncate(bits) });
        let a = TValue::phy(reg(0));
        for (op1, ty0, ty1, op2, ty2) in [
            (CastOp::Zext, Type::I8, Type::I16, CastOp::Zext, Type::I32),
            (CastOp::Sext, Type::I8, Type::I32, CastOp::Sext, Type::I64),
            (CastOp::Zext, Type::I8, Type::I32, CastOp::Trunc, Type::I8),
            (CastOp::Zext, Type::I8, Type::I64, CastOp::Trunc, Type::I16),
        ] {
            let Some(composed) = rules_arith::compose_casts(op1, ty0, ty1, op2, ty2, &a) else {
                continue;
            };
            let two_step = {
                let inner = Expr::Cast { op: op1, from: ty0, a: a.clone(), to: ty1 };
                let mid = eval_expr(&inner, &st).unwrap();
                let mut st2 = st.clone();
                st2.set(TReg::Phy(reg(1)), mid);
                eval_expr(
                    &Expr::Cast { op: op2, from: ty1, a: TValue::phy(reg(1)), to: ty2 },
                    &st2,
                )
                .unwrap()
            };
            let one_step = eval_expr(&composed, &st).unwrap();
            prop_assert!(lessdef_vals(two_step, one_step), "{op1:?}+{op2:?}: {two_step:?} vs {one_step:?}");
        }
    }
}

/// The paper's PR33673 discovery, replayed: under the *unsound*
/// configuration the checker accepts the buggy translation, but executing
/// both programs refutes refinement — the "rule" is semantically wrong.
#[test]
fn unsound_constexpr_rule_is_refuted_semantically() {
    use crellvm::erhl::validate_with_config;
    use crellvm::interp::{check_refinement, run_main, End, RunConfig};
    use crellvm::ir::parse_module;
    use crellvm::passes::{mem2reg, BugSet, PassConfig};

    let m = parse_module(
        r#"
        global @G : i32[1]
        declare @foo(i32)
        define @main() {
        entry:
          %p = alloca i32
          br i1 -1, label uses, label stores
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
    let config = PassConfig::with_bugs(BugSet {
        pr33673: true,
        ..BugSet::default()
    });
    let out = mem2reg(&m, &config);

    // The sound checker rejects the translation…
    assert!(out
        .proofs
        .iter()
        .any(|u| crellvm::erhl::validate(u).is_err()));
    // …the checker with the unsound rule accepts it…
    let trusting = CheckerConfig::with_unsound_constexpr_rule();
    for unit in &out.proofs {
        assert!(
            validate_with_config(unit, &trusting).is_ok(),
            "the unsound configuration believes the proof"
        );
    }
    // …and the semantics refutes the combination: the target traps where
    // the source returns normally.
    let rc = RunConfig::default();
    let src_run = run_main(&m, &rc);
    let tgt_run = run_main(&out.module, &rc);
    assert_eq!(src_run.end, End::Ret(None));
    assert!(matches!(tgt_run.end, End::Ub(_)));
    assert!(check_refinement(&src_run, &tgt_run).is_err());
}

/// Semantic soundness of the composite rule conclusions, tested by direct
/// evaluation: construct states satisfying the premises and check each
/// conclusion expression.
mod composite_soundness {
    use super::*;
    use crellvm::erhl::CompositeRule;

    fn st2(a: SemVal, b: SemVal) -> ExtState {
        let mut st = ExtState::new();
        st.set(TReg::Phy(reg(0)), a);
        st.set(TReg::Phy(reg(1)), b);
        st
    }

    /// Evaluate `e` after binding intermediates by evaluating their
    /// defining expressions; check `y ⊒ conclusion`.
    fn check(
        st: &mut ExtState,
        defs: &[(usize, Expr)],
        y_def: Expr,
        rule: CompositeRule,
    ) -> Result<(), String> {
        for (r, e) in defs {
            let v = eval_expr(e, st).map_err(|_| "premise traps")?;
            st.set(TReg::Phy(reg(*r)), v);
        }
        let yv = eval_expr(&y_def, st).map_err(|_| "y traps")?;
        let y = 9usize;
        st.set(TReg::Phy(reg(y)), yv);

        let mut q = Assertion::new();
        for (r, e) in defs {
            q.src
                .insert_lessdef(Expr::value(TValue::phy(reg(*r))), e.clone());
        }
        q.src
            .insert_lessdef(Expr::value(TValue::phy(reg(y))), y_def);
        let q2 = apply_inf(
            &InfRule::Arith(ArithRule::Composite(rule)),
            &q,
            &CheckerConfig::sound(),
        )
        .map_err(|e| e.to_string())?;
        for p in q2.src.iter() {
            if eval_pred(&p, st) == Some(false) {
                return Err(format!("violated: {p}"));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn sub_or_xor_sound(a in arb_i32(), b in arb_i32()) {
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let defs = [
                (2, Expr::bin(BinOp::Or, Type::I32, ra.clone(), rb.clone())),
                (3, Expr::bin(BinOp::Xor, Type::I32, ra.clone(), rb.clone())),
            ];
            let ydef = Expr::bin(BinOp::Sub, Type::I32, TValue::phy(reg(2)), TValue::phy(reg(3)));
            let rule = CompositeRule::SubOrXor {
                side: Side::Src, ty: Type::I32,
                t1: TValue::phy(reg(2)), t2: TValue::phy(reg(3)), y: TValue::phy(reg(9)),
                a: ra, b: rb,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn add_xor_and_and_or_sound(a in arb_i32(), b in arb_i32(), which in any::<bool>()) {
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let inner_op = if which { BinOp::Xor } else { BinOp::Or };
            let defs = [
                (2, Expr::bin(inner_op, Type::I32, ra.clone(), rb.clone())),
                (3, Expr::bin(BinOp::And, Type::I32, ra.clone(), rb.clone())),
            ];
            let ydef = Expr::bin(BinOp::Add, Type::I32, TValue::phy(reg(2)), TValue::phy(reg(3)));
            let rule = if which {
                CompositeRule::AddXorAnd {
                    side: Side::Src, ty: Type::I32,
                    t1: TValue::phy(reg(2)), t2: TValue::phy(reg(3)), y: TValue::phy(reg(9)),
                    a: ra, b: rb,
                }
            } else {
                CompositeRule::AddOrAnd {
                    side: Side::Src, ty: Type::I32,
                    t1: TValue::phy(reg(2)), t2: TValue::phy(reg(3)), y: TValue::phy(reg(9)),
                    a: ra, b: rb,
                }
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn absorption_sound(a in arb_i32(), b in arb_i32(), which in any::<bool>()) {
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let inner_op = if which { BinOp::Or } else { BinOp::And };
            let outer_op = if which { BinOp::And } else { BinOp::Or };
            let defs = [(2, Expr::bin(inner_op, Type::I32, ra.clone(), rb.clone()))];
            let ydef = Expr::bin(outer_op, Type::I32, ra.clone(), TValue::phy(reg(2)));
            let rule = if which {
                CompositeRule::AndOrAbsorb {
                    side: Side::Src, ty: Type::I32,
                    t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra, b: rb,
                }
            } else {
                CompositeRule::OrAndAbsorb {
                    side: Side::Src, ty: Type::I32,
                    t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra, b: rb,
                }
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn const_not_rules_sound(a in arb_i32(), c in -100i64..100) {
            let mut st = st2(a, SemVal::Undef);
            let ra = TValue::phy(reg(0));
            let not = Expr::bin(BinOp::Xor, Type::I32, ra.clone(), v32(-1));
            // add-const-not.
            let defs = [(2, not.clone())];
            let ydef = Expr::bin(BinOp::Add, Type::I32, TValue::phy(reg(2)), v32(c));
            let rule = CompositeRule::AddConstNot {
                side: Side::Src, ty: Type::I32,
                t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra.clone(),
                c: Const::int(Type::I32, c),
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
            // sub-const-not.
            let mut st = st2(a, SemVal::Undef);
            let defs = [(2, not)];
            let ydef = Expr::bin(BinOp::Sub, Type::I32, v32(c), TValue::phy(reg(2)));
            let rule = CompositeRule::SubConstNot {
                side: Side::Src, ty: Type::I32,
                t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra,
                c: Const::int(Type::I32, c),
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn mul_neg_sound(a in arb_i32(), b in arb_i32()) {
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let defs = [
                (2, Expr::bin(BinOp::Sub, Type::I32, v32(0), ra.clone())),
                (3, Expr::bin(BinOp::Sub, Type::I32, v32(0), rb.clone())),
            ];
            let ydef = Expr::bin(BinOp::Mul, Type::I32, TValue::phy(reg(2)), TValue::phy(reg(3)));
            let rule = CompositeRule::MulNeg {
                side: Side::Src, ty: Type::I32,
                t1: TValue::phy(reg(2)), t2: TValue::phy(reg(3)), y: TValue::phy(reg(9)),
                a: ra, b: rb,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn icmp_families_sound(a in arb_i32(), b in arb_i32(), c in -50i64..50, ne in any::<bool>()) {
            // icmp-eq-sub.
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let pred = if ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let defs = [(2, Expr::bin(BinOp::Sub, Type::I32, ra.clone(), rb.clone()))];
            let ydef = Expr::Icmp { pred, ty: Type::I32, a: TValue::phy(reg(2)), b: v32(0) };
            let rule = CompositeRule::IcmpEqSub {
                side: Side::Src, ty: Type::I32,
                t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra.clone(), b: rb.clone(), ne,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
            // icmp-eq-add-add.
            let mut st = st2(a, b);
            let defs = [
                (2, Expr::bin(BinOp::Add, Type::I32, ra.clone(), v32(c))),
                (3, Expr::bin(BinOp::Add, Type::I32, rb.clone(), v32(c))),
            ];
            let ydef = Expr::Icmp { pred, ty: Type::I32, a: TValue::phy(reg(2)), b: TValue::phy(reg(3)) };
            let rule = CompositeRule::IcmpEqAddAdd {
                side: Side::Src, ty: Type::I32,
                t1: TValue::phy(reg(2)), t2: TValue::phy(reg(3)), y: TValue::phy(reg(9)),
                a: ra, b: rb, c: v32(c), ne,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn select_icmp_sound(a in arb_i32(), b in arb_i32(), ne in any::<bool>()) {
            let mut st = st2(a, b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let pred = if ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let defs = [(2, Expr::Icmp { pred, ty: Type::I32, a: ra.clone(), b: rb.clone() })];
            let ydef = Expr::Select { ty: Type::I32, cond: TValue::phy(reg(2)), t: ra.clone(), f: rb.clone() };
            let rule = CompositeRule::SelectIcmpEq {
                side: Side::Src, ty: Type::I32,
                c: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra, b: rb, ne,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn zext_trunc_and_sound(bits in any::<u64>()) {
            let mut st = ExtState::new();
            st.set(TReg::Phy(reg(0)), SemVal::Int { ty: Type::I64, bits });
            let ra = TValue::phy(reg(0));
            let defs = [(2, Expr::Cast { op: crellvm::ir::CastOp::Trunc, from: Type::I64, a: ra.clone(), to: Type::I8 })];
            let ydef = Expr::Cast { op: crellvm::ir::CastOp::Zext, from: Type::I8, a: TValue::phy(reg(2)), to: Type::I64 };
            let rule = CompositeRule::ZextTruncAnd {
                side: Side::Src, big: Type::I64, small: Type::I8,
                t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra,
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }

        #[test]
        fn shl_shl_sound(a in arb_i32(), c1 in 0i64..16, c2 in 0i64..15) {
            prop_assume!(c1 + c2 < 32);
            let mut st = st2(a, SemVal::Undef);
            let ra = TValue::phy(reg(0));
            let defs = [(2, Expr::bin(BinOp::Shl, Type::I32, ra.clone(), v32(c1)))];
            let ydef = Expr::bin(BinOp::Shl, Type::I32, TValue::phy(reg(2)), v32(c2));
            let rule = CompositeRule::ShlShl {
                side: Side::Src, ty: Type::I32,
                t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra,
                c1: Const::int(Type::I32, c1), c2: Const::int(Type::I32, c2),
            };
            prop_assert!(check(&mut st, &defs, ydef, rule).is_ok());
        }
    }
}

/// Soundness of the strong post-assertion computation (`CalcPostAssn`,
/// the largest trusted component): execute a random pure statement pair
/// on states satisfying a pre-assertion, and check the computed
/// post-assertion against the post-states.
mod postcond_soundness {
    use super::*;
    use crellvm::erhl::calc_post_cmd;
    use crellvm::ir::{Inst, Stmt, Value};

    fn arb_op() -> impl Strategy<Value = BinOp> {
        // Trap-free operators only (the semantics of division is covered
        // by the equivalence checks, not the post calculus).
        prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::Xor),
        ]
    }

    proptest! {
        #[test]
        fn identical_pure_rows_preserve_assertions(
            a in arb_i32(),
            b in arb_i32(),
            op in arb_op(),
            use_const in any::<bool>(),
            c in -50i64..50,
        ) {
            // Pre-states: r0, r1 equal across sides (not in maydiff).
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            src.set(TReg::Phy(reg(1)), b);
            let tgt = src.clone();

            // The executed row: r2 := op r0, (r1 | c) on both sides.
            let rhs = if use_const { Value::int(Type::I32, c) } else { Value::Reg(reg(1)) };
            let stmt = Stmt {
                result: Some(reg(2)),
                inst: Inst::Bin { op, ty: Type::I32, lhs: Value::Reg(reg(0)), rhs },
            };

            // Pre-assertion: empty (the states trivially satisfy it).
            let pre = Assertion::new();
            let post = calc_post_cmd(&pre, Some(&stmt), Some(&stmt));

            // Execute semantically on both sides.
            let e = Expr::of_inst(&stmt.inst).unwrap();
            let (mut src2, mut tgt2) = (src.clone(), tgt.clone());
            if let Ok(v) = eval_expr(&e, &src) {
                src2.set(TReg::Phy(reg(2)), v);
            } else {
                return Ok(()); // trapping path not modelled here
            }
            if let Ok(v) = eval_expr(&e, &tgt) {
                tgt2.set(TReg::Phy(reg(2)), v);
            }

            // The computed post-assertion must hold in the post-states.
            use crate::semantics::eval_assertion;
            prop_assert_ne!(
                eval_assertion(&post, &src2, &tgt2),
                Some(false),
                "post-assertion violated: {}",
                post
            );
            // And the result register must be OUT of the maydiff set
            // (identical instructions with injected operands).
            prop_assert!(!post.in_maydiff(&TReg::Phy(reg(2))));
        }

        #[test]
        fn differing_rows_put_result_in_maydiff(
            a in arb_i32(),
            op in arb_op(),
            c1 in -50i64..50,
            c2 in -50i64..50,
        ) {
            prop_assume!(c1 != c2);
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            let tgt = src.clone();
            let s = Stmt {
                result: Some(reg(2)),
                inst: Inst::Bin { op, ty: Type::I32, lhs: Value::Reg(reg(0)), rhs: Value::int(Type::I32, c1) },
            };
            let t = Stmt {
                result: Some(reg(2)),
                inst: Inst::Bin { op, ty: Type::I32, lhs: Value::Reg(reg(0)), rhs: Value::int(Type::I32, c2) },
            };
            let post = calc_post_cmd(&Assertion::new(), Some(&s), Some(&t));
            prop_assert!(post.in_maydiff(&TReg::Phy(reg(2))));

            // Semantically: the post-states (which may disagree on r2)
            // satisfy the post-assertion.
            let (mut src2, mut tgt2) = (src.clone(), tgt.clone());
            if let (Ok(vs), Ok(vt)) = (
                eval_expr(&Expr::of_inst(&s.inst).unwrap(), &src),
                eval_expr(&Expr::of_inst(&t.inst).unwrap(), &tgt),
            ) {
                src2.set(TReg::Phy(reg(2)), vs);
                tgt2.set(TReg::Phy(reg(2)), vt);
                use crate::semantics::eval_assertion;
                prop_assert_ne!(eval_assertion(&post, &src2, &tgt2), Some(false));
            }
        }

        #[test]
        fn definition_kills_stale_facts_semantically(
            a in arb_i32(),
            newval in arb_i32(),
        ) {
            // Pre: r2 ⊒ r0 holds (r2 bound to r0's value). Then r2 is
            // redefined: the stale fact must be gone from the post.
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            src.set(TReg::Phy(reg(2)), a);
            let mut pre = Assertion::new();
            pre.src.insert_lessdef(
                Expr::value(TValue::phy(reg(2))),
                Expr::value(TValue::phy(reg(0))),
            );
            let stmt = Stmt {
                result: Some(reg(2)),
                inst: Inst::Bin {
                    op: BinOp::Xor,
                    ty: Type::I32,
                    lhs: Value::Reg(reg(1)),
                    rhs: Value::Reg(reg(1)),
                },
            };
            let post = calc_post_cmd(&pre, Some(&stmt), Some(&stmt));
            let stale = Pred::Lessdef(
                Expr::value(TValue::phy(reg(2))),
                Expr::value(TValue::phy(reg(0))),
            );
            prop_assert!(!post.src.holds(&stale) || a == SemVal::int(Type::I32, 0));
            let _ = newval;
        }
    }
}

/// Soundness of the late-added composites and identities.
mod composite_soundness2 {
    use super::*;
    use crellvm::erhl::CompositeRule;

    proptest! {
        #[test]
        fn or_xor_and_sub_sub_sound(a in arb_i32(), b in arb_i32()) {
            // or-xor: (a^b)|b ⊒ a|b.
            let mut st = ExtState::new();
            st.set(TReg::Phy(reg(0)), a);
            st.set(TReg::Phy(reg(1)), b);
            let (ra, rb) = (TValue::phy(reg(0)), TValue::phy(reg(1)));
            let xor = Expr::bin(BinOp::Xor, Type::I32, ra.clone(), rb.clone());
            if let Ok(t) = eval_expr(&xor, &st) {
                st.set(TReg::Phy(reg(2)), t);
                let outer = Expr::bin(BinOp::Or, Type::I32, TValue::phy(reg(2)), rb.clone());
                if let Ok(y) = eval_expr(&outer, &st) {
                    st.set(TReg::Phy(reg(9)), y);
                    let mut q = Assertion::new();
                    q.src.insert_lessdef(Expr::value(TValue::phy(reg(2))), xor.clone());
                    q.src.insert_lessdef(Expr::value(TValue::phy(reg(9))), outer);
                    let rule = InfRule::Arith(ArithRule::Composite(CompositeRule::OrXor {
                        side: Side::Src, ty: Type::I32,
                        t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra.clone(), b: rb.clone(),
                    }));
                    let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
                    for p in q2.src.iter() {
                        prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
                    }
                }
            }
            // sub-sub: a - (a - b) ⊒ b.
            let mut st = ExtState::new();
            st.set(TReg::Phy(reg(0)), a);
            st.set(TReg::Phy(reg(1)), b);
            let diff = Expr::bin(BinOp::Sub, Type::I32, ra.clone(), rb.clone());
            if let Ok(t) = eval_expr(&diff, &st) {
                st.set(TReg::Phy(reg(2)), t);
                let outer = Expr::bin(BinOp::Sub, Type::I32, ra.clone(), TValue::phy(reg(2)));
                if let Ok(y) = eval_expr(&outer, &st) {
                    st.set(TReg::Phy(reg(9)), y);
                    let mut q = Assertion::new();
                    q.src.insert_lessdef(Expr::value(TValue::phy(reg(2))), diff);
                    q.src.insert_lessdef(Expr::value(TValue::phy(reg(9))), outer);
                    let rule = InfRule::Arith(ArithRule::Composite(CompositeRule::SubSub {
                        side: Side::Src, ty: Type::I32,
                        t: TValue::phy(reg(2)), y: TValue::phy(reg(9)), a: ra, b: rb,
                    }));
                    let q2 = apply_inf(&rule, &q, &CheckerConfig::sound()).unwrap();
                    for p in q2.src.iter() {
                        prop_assert_ne!(eval_pred(&p, &st), Some(false), "violated: {}", p);
                    }
                }
            }
        }

        #[test]
        fn signbit_and_mone_identities_sound(a in arb_i32()) {
            let mut st = ExtState::new();
            st.set(TReg::Phy(reg(0)), a);
            let ra = TValue::phy(reg(0));
            let signbit = v32(i32::MIN as i64);
            let pairs = [
                (
                    Expr::bin(BinOp::Add, Type::I32, ra.clone(), signbit.clone()),
                    Expr::bin(BinOp::Xor, Type::I32, ra.clone(), signbit),
                ),
                (
                    Expr::bin(BinOp::Sub, Type::I32, v32(-1), ra.clone()),
                    Expr::bin(BinOp::Xor, Type::I32, ra.clone(), v32(-1)),
                ),
                (
                    Expr::bin(BinOp::SDiv, Type::I32, ra.clone(), v32(-1)),
                    Expr::bin(BinOp::Sub, Type::I32, v32(0), ra.clone()),
                ),
                (
                    Expr::bin(BinOp::UDiv, Type::I32, ra.clone(), v32(8)),
                    Expr::bin(BinOp::LShr, Type::I32, ra.clone(), v32(3)),
                ),
            ];
            for (from, to) in pairs {
                prop_assert!(rules_arith::identity_holds(&from, &to), "{from} -> {to} not in table");
                let (vf, vt) = (eval_expr(&from, &st), eval_expr(&to, &st));
                prop_assert_ne!(
                    eval_lessdef(&from, &to, &st),
                    Some(false),
                    "{} -> {}: {:?} vs {:?}", from, to, vf, vt
                );
            }
        }
    }
}

/// Soundness of the phi-edge post-assertion computation (`calc_post_phi`):
/// simulate the edge semantics — old registers snapshot the pre-edge
/// physical file, all phis assign *simultaneously* from pre-edge values —
/// and check the computed post-assertion against the stepped states.
mod postcond_phi_soundness {
    use super::*;
    use crate::semantics::eval_assertion;
    use crellvm::erhl::calc_post_phi;
    use crellvm::ir::{BlockId, Phi, Value};

    fn from_block() -> BlockId {
        BlockId::from_index(1)
    }

    /// The interpreter's view of taking the edge `from -> here`.
    fn step_edge(pre: &ExtState, phis: &[(RegId, Phi)], from: BlockId) -> ExtState {
        let mut post = pre.clone();
        post.old = pre.phy.clone();
        let assigned: Vec<(RegId, SemVal)> = phis
            .iter()
            .map(|(r, phi)| {
                let v = phi
                    .incoming
                    .iter()
                    .find(|(b, _)| *b == from)
                    .and_then(|(_, v)| v.clone())
                    .expect("edge has an incoming value");
                let sv = match v {
                    Value::Reg(r2) => pre.get(&TReg::Phy(r2)),
                    Value::Const(crellvm::ir::Const::Int { ty, bits }) => SemVal::Int { ty, bits },
                    other => panic!("test restricted to reg/int incomings, got {other:?}"),
                };
                (*r, sv)
            })
            .collect();
        for (r, v) in assigned {
            post.set(TReg::Phy(r), v);
        }
        post
    }

    fn phi_of(incoming: Value) -> Phi {
        Phi {
            ty: Type::I32,
            incoming: vec![(from_block(), Some(incoming))],
        }
    }

    proptest! {
        /// Identical phis with injected incoming values keep the result
        /// out of maydiff, and the post-assertion holds in the stepped
        /// states.
        #[test]
        fn identical_phis_stay_equal(a in arb_i32(), b in arb_i32(), use_reg in any::<bool>(), c in -50i64..50) {
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            src.set(TReg::Phy(reg(1)), b);
            let tgt = src.clone();

            let incoming = if use_reg { Value::Reg(reg(0)) } else { Value::int(Type::I32, c) };
            let phis = vec![(reg(5), phi_of(incoming))];
            let post = calc_post_phi(&Assertion::new(), &phis, &phis, from_block());

            prop_assert!(!post.in_maydiff(&TReg::Phy(reg(5))), "phi result leaked into maydiff:\n{post}");
            let (s2, t2) = (step_edge(&src, &phis, from_block()), step_edge(&tgt, &phis, from_block()));
            prop_assert_ne!(eval_assertion(&post, &s2, &t2), Some(false), "post violated: {}", post);
        }

        /// Phis that read different constants on the two sides must put
        /// the result into maydiff — and the post-assertion still holds.
        #[test]
        fn differing_phis_enter_maydiff(a in arb_i32(), c1 in -50i64..50, c2 in -50i64..50) {
            prop_assume!(c1 != c2);
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            let tgt = src.clone();

            let sp = vec![(reg(5), phi_of(Value::int(Type::I32, c1)))];
            let tp = vec![(reg(5), phi_of(Value::int(Type::I32, c2)))];
            let post = calc_post_phi(&Assertion::new(), &sp, &tp, from_block());

            prop_assert!(post.in_maydiff(&TReg::Phy(reg(5))), "differing phi not in maydiff:\n{post}");
            let (s2, t2) = (step_edge(&src, &sp, from_block()), step_edge(&tgt, &tp, from_block()));
            prop_assert_ne!(eval_assertion(&post, &s2, &t2), Some(false));
        }

        /// The old-copy step: a pre-edge fact `r2 ⊒ r0` must survive as
        /// its old twin `r̄2 ⊒ r̄0`, and evaluate true in the stepped
        /// states (old registers snapshot the pre-edge values).
        #[test]
        fn old_copy_preserves_pre_edge_facts(a in arb_i32()) {
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            src.set(TReg::Phy(reg(2)), a); // r2 ⊒ r0 holds
            let tgt = src.clone();

            let mut pre = Assertion::new();
            pre.src.insert_lessdef(
                Expr::value(TValue::phy(reg(2))),
                Expr::value(TValue::phy(reg(0))),
            );

            // The phi redefines r2 — the *physical* fact dies, the old
            // twin must live.
            let phis = vec![(reg(2), phi_of(Value::int(Type::I32, 7)))];
            let post = calc_post_phi(&pre, &phis, &phis, from_block());

            let old_fact = crellvm::erhl::Pred::Lessdef(
                Expr::value(TValue::Reg(TReg::Old(reg(2)))),
                Expr::value(TValue::Reg(TReg::Old(reg(0)))),
            );
            prop_assert!(post.src.holds(&old_fact), "old twin missing:\n{post}");

            let (s2, t2) = (step_edge(&src, &phis, from_block()), step_edge(&tgt, &phis, from_block()));
            prop_assert_ne!(eval_assertion(&post, &s2, &t2), Some(false), "post violated: {}", post);
        }

        /// The bridge facts: after the edge, each phi result is related
        /// to its (old-ified) incoming value, so `r5 ⊒ r̄0` both holds
        /// formally and evaluates true when the incoming was `%r0`.
        #[test]
        fn bridges_relate_result_to_old_incoming(a in arb_i32(), b in arb_i32()) {
            let mut src = ExtState::new();
            src.set(TReg::Phy(reg(0)), a);
            src.set(TReg::Phy(reg(1)), b);
            let tgt = src.clone();

            let phis = vec![(reg(5), phi_of(Value::Reg(reg(0))))];
            let post = calc_post_phi(&Assertion::new(), &phis, &phis, from_block());

            let bridge = crellvm::erhl::Pred::Lessdef(
                Expr::value(TValue::phy(reg(5))),
                Expr::value(TValue::Reg(TReg::Old(reg(0)))),
            );
            prop_assert!(post.src.holds(&bridge), "bridge missing:\n{post}");

            let (s2, t2) = (step_edge(&src, &phis, from_block()), step_edge(&tgt, &phis, from_block()));
            prop_assert_ne!(eval_assertion(&post, &s2, &t2), Some(false));
        }
    }
}

/// Lattice properties of the inclusion check `CheckIncl` (`implies`):
/// the order the checker discharges proof goals with must be reflexive,
/// transitive, and monotone in both the predicate sets and the maydiff
/// set — and consistent with `why_not_implies`.
mod implies_lattice {
    use super::*;
    use crellvm::erhl::Pred;
    use proptest::collection::btree_set;

    fn arb_pred() -> impl Strategy<Value = Pred> {
        let val = prop_oneof![
            (0usize..5).prop_map(|i| TValue::phy(reg(i))),
            (-20i64..20).prop_map(|c| TValue::int(Type::I32, c)),
            (0u8..3).prop_map(|g| TValue::ghost(format!("g{g}"))),
        ];
        prop_oneof![
            (val.clone(), val).prop_map(|(a, b)| Pred::Lessdef(Expr::value(a), Expr::value(b))),
            (0usize..5).prop_map(|i| Pred::Uniq(reg(i))),
            (0usize..5).prop_map(|i| Pred::Priv(TReg::Phy(reg(i)))),
        ]
    }

    fn arb_assertion() -> impl Strategy<Value = Assertion> {
        (
            btree_set(arb_pred(), 0..6),
            btree_set(arb_pred(), 0..6),
            btree_set((0usize..5).prop_map(|i| TReg::Phy(reg(i))), 0..4),
        )
            .prop_map(|(src, tgt, maydiff)| {
                let mut a = Assertion::new();
                for p in src {
                    a.src.insert(p);
                }
                for p in tgt {
                    a.tgt.insert(p);
                }
                for r in maydiff {
                    a.add_maydiff(r);
                }
                a
            })
    }

    proptest! {
        #[test]
        fn implies_is_reflexive(a in arb_assertion()) {
            prop_assert!(a.implies(&a));
            prop_assert_eq!(a.why_not_implies(&a), None);
        }

        #[test]
        fn implies_is_transitive(a in arb_assertion(), b in arb_assertion(), c in arb_assertion()) {
            if a.implies(&b) && b.implies(&c) {
                prop_assert!(a.implies(&c));
            }
        }

        #[test]
        fn dropping_goal_predicates_weakens(a in arb_assertion(), keep in any::<u64>()) {
            // Build b from a by keeping a pseudo-random subset of the
            // predicates and all of the maydiff: a must imply b.
            let mut b = Assertion::new();
            for (i, p) in a.src.iter().enumerate() {
                if keep & (1 << (i % 64)) != 0 {
                    b.src.insert(p.clone());
                }
            }
            for (i, p) in a.tgt.iter().enumerate() {
                if keep & (1 << ((i + 13) % 64)) != 0 {
                    b.tgt.insert(p.clone());
                }
            }
            for r in &a.maydiff {
                b.add_maydiff(r.clone());
            }
            prop_assert!(a.implies(&b), "weaker goal not implied");
        }

        #[test]
        fn growing_goal_maydiff_weakens(a in arb_assertion(), extra in 5usize..9) {
            let mut b = a.clone();
            b.add_maydiff(TReg::Phy(reg(extra)));
            prop_assert!(a.implies(&b));
            // …but the reverse direction must fail: b's larger maydiff
            // cannot be shrunk for free.
            prop_assert!(!b.implies(&a));
            prop_assert!(b.why_not_implies(&a).is_some());
        }

        #[test]
        fn underivable_goal_predicate_is_rejected_and_explained(a in arb_assertion()) {
            let mut b = a.clone();
            // A fact about a ghost no strategy ever mentions.
            b.src.insert_lessdef(
                Expr::value(TValue::ghost("never")),
                Expr::value(TValue::int(Type::I32, 42)),
            );
            prop_assert!(!a.implies(&b));
            let why = a.why_not_implies(&b).expect("an explanation");
            prop_assert!(why.contains("never"), "unhelpful explanation: {why}");
        }

        /// `why_not_implies` agrees with `implies` exactly.
        #[test]
        fn explanation_iff_failure(a in arb_assertion(), b in arb_assertion()) {
            prop_assert_eq!(a.implies(&b), a.why_not_implies(&b).is_none());
        }
    }
}

/// The identity table swept over a small i8 grammar. Sources: every `Bin`
/// and `Icmp` over two registers and the boundary constants. Targets:
/// values and the same single operations. Every pair `identity_holds`
/// accepts must refine under every valuation tried.
mod identity_sweep {
    use super::*;

    /// 0, ±1, MIN, MAX and every shift amount, up to the width itself.
    const CONSTS: [i64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, -1, -128, 127];

    fn operands() -> Vec<TValue> {
        let mut v = vec![TValue::phy(reg(0)), TValue::phy(reg(1))];
        v.extend(CONSTS.map(|c| TValue::int(Type::I8, c)));
        v
    }

    /// The accepted pairs, with the number of sources and targets tried.
    fn accepted() -> (Vec<(Expr, Expr)>, usize, usize) {
        let ops = operands();
        let mut sources = Vec::new();
        for a in &ops {
            for b in &ops {
                for op in BinOp::all() {
                    sources.push(Expr::bin(op, Type::I8, a.clone(), b.clone()));
                }
                for pred in IcmpPred::all() {
                    let (a, b) = (a.clone(), b.clone());
                    sources.push(Expr::Icmp {
                        pred,
                        ty: Type::I8,
                        a,
                        b,
                    });
                }
            }
        }
        let mut targets: Vec<Expr> = ops.into_iter().map(Expr::Value).collect();
        targets.extend([false, true].map(|b| Expr::Value(TValue::Const(Const::bool(b)))));
        targets.extend(sources.iter().cloned());
        let mut pairs = Vec::new();
        for from in &sources {
            for to in &targets {
                if rules_arith::identity_holds(from, to) {
                    pairs.push((from.clone(), to.clone()));
                }
            }
        }
        (pairs, sources.len(), targets.len())
    }

    /// Check every accepted pair with both registers ranging over `values`.
    fn sweep(values: &[SemVal]) {
        let (pairs, sources, targets) = accepted();
        eprintln!(
            "identity sweep: {sources} sources x {targets} targets, {} accepted, {} valuations",
            pairs.len(),
            values.len() * values.len()
        );
        assert!(pairs.len() > 1000, "only {} pairs accepted", pairs.len());
        for &a in values {
            for &b in values {
                let mut st = ExtState::new();
                st.set(TReg::Phy(reg(0)), a);
                st.set(TReg::Phy(reg(1)), b);
                for (from, to) in &pairs {
                    assert_ne!(
                        eval_lessdef(from, to, &st),
                        Some(false),
                        "{from} -> {to} at r0={a:?}, r1={b:?}: {:?} vs {:?}",
                        eval_expr(from, &st),
                        eval_expr(to, &st)
                    );
                }
            }
        }
    }

    /// Both registers at the boundary constants and at undef.
    #[test]
    fn identity_table_sound_on_i8_boundaries() {
        let mut values: Vec<SemVal> = CONSTS.iter().map(|&c| SemVal::int(Type::I8, c)).collect();
        values.push(SemVal::Undef);
        sweep(&values);
    }

    /// Both registers over all 256 i8 values and undef (257² valuations);
    /// CI runs it in release with `--ignored`.
    #[test]
    #[ignore]
    fn identity_table_sound_on_every_i8_valuation() {
        let mut values: Vec<SemVal> = (0..256).map(|v| SemVal::int(Type::I8, v)).collect();
        values.push(SemVal::Undef);
        sweep(&values);
    }
}
