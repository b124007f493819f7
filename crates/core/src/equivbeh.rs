//! `CheckEquivBeh` — the observable-behaviour equivalence check (paper
//! Algorithm 4).
//!
//! Before computing a post-assertion, the checker verifies that the two
//! instructions of a row produce the same observable events and that the
//! target cannot raise *more* undefined behaviour than the source:
//!
//! * calls must target equivalent functions with equivalent arguments;
//! * a target store must match a source store (or the source may store to
//!   a private location while the target no-ops — the mem2reg pattern);
//! * a source `alloca` may be dropped, but a target may never *introduce*
//!   an allocation;
//! * a source load may be dropped (its only effect is potential UB, and
//!   the source having more UB is fine for refinement), but a target load
//!   must be matched by an equivalent source load;
//! * a target division must have an integer-literal divisor that traps
//!   for no dividend (non-zero, and not −1 for `sdiv`/`srem`: `MIN / -1`
//!   overflows), or a source division that traps wherever it does;
//! * a target instruction may not consume a trapping constant expression
//!   unless the source instruction is identical (the missing check behind
//!   LLVM's PR33673 — re-enabled by
//!   [`CheckerConfig::trust_trapping_constexprs`]).

use crate::assertion::Assertion;
use crate::expr::TValue;
use crate::infrule::CheckerConfig;
use crellvm_ir::{arith, BinOp, Const, Inst, Stmt, Type, Value};
use std::fmt;

/// Why the equivalence check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "behaviours not equivalent: {}", self.reason)
    }
}

impl std::error::Error for EquivError {}

fn fail(reason: impl Into<String>) -> Result<(), EquivError> {
    Err(EquivError {
        reason: reason.into(),
    })
}

fn tv(v: &Value) -> TValue {
    TValue::of_value(v)
}

/// Does the value syntactically contain a trapping constant expression?
fn value_traps(v: &Value) -> bool {
    matches!(v, Value::Const(c) if c.may_trap())
}

/// The operands of `inst` whose evaluation *forces* constant expressions
/// (matching the interpreter: stores and selects pass values through
/// lazily; address and arithmetic positions force).
fn consumed_operands(inst: &Inst) -> Vec<&Value> {
    match inst {
        Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => vec![lhs, rhs],
        Inst::Select { cond, .. } => vec![cond],
        Inst::Cast { val, .. } => vec![val],
        Inst::Gep { ptr, offset, .. } => vec![ptr, offset],
        Inst::Load { ptr, .. } => vec![ptr],
        Inst::Store { ptr, .. } => vec![ptr],
        Inst::Call { args, .. } => args.iter().map(|(_, a)| a).collect(),
        Inst::Alloca { .. } | Inst::Unsupported { .. } => vec![],
    }
}

/// Check a target division `lhs op rhs`. Its integer-literal divisor traps
/// for no dividend (with two literals, [`arith::bin`] decides), or a source
/// division traps wherever it does: on an equivalent divisor and, when the
/// target is signed (`MIN / -1`), signed too on an equivalent dividend.
fn divisor_ok(
    p: &Assertion,
    src: Option<&Inst>,
    op: BinOp,
    ty: Type,
    lhs: &Value,
    rhs: &Value,
) -> bool {
    let literal = |v: &Value| match v {
        Value::Const(Const::Int { bits, .. }) => Some(*bits),
        _ => None,
    };
    let safe_literal = ty.is_int()
        && match (literal(lhs), literal(rhs)) {
            (Some(a), Some(b)) => arith::bin(op, ty, a, b) != Err(arith::Fault::Trap),
            (None, Some(b)) => !arith::divisor_traps(op, ty, b),
            _ => false,
        };
    let signed = |op: BinOp| matches!(op, BinOp::SDiv | BinOp::SRem);
    let equiv = |s: &Value, t: &Value| p.values_equivalent(&tv(s), &tv(t));
    safe_literal
        || matches!(src, Some(Inst::Bin { op: src_op, lhs: src_lhs, rhs: src_rhs, .. })
            if src_op.may_trap()
                && equiv(src_rhs, rhs)
                && (!signed(op) || (signed(*src_op) && equiv(src_lhs, lhs))))
}

/// `CheckEquivBeh(P, I_src, I_tgt)` — Algorithm 4 plus the
/// trapping-constant-expression side condition.
///
/// # Errors
///
/// Returns an [`EquivError`] describing the first violated condition.
pub fn check_equiv_beh(
    p: &Assertion,
    src: Option<&Stmt>,
    tgt: Option<&Stmt>,
    config: &CheckerConfig,
) -> Result<(), EquivError> {
    let src_inst = src.map(|s| &s.inst);
    let tgt_inst = tgt.map(|t| &t.inst);

    // The PR33673 side condition: a target instruction consuming a
    // trapping constant expression is only safe when the source executes
    // the *identical* instruction (then both trap together).
    if !config.trust_trapping_constexprs {
        if let Some(ti) = tgt_inst {
            let consumes_trap = consumed_operands(ti).into_iter().any(value_traps);
            if consumes_trap && src_inst != Some(ti) {
                return fail(
                    "target consumes a trapping constant expression the source does not evaluate",
                );
            }
        }
    }

    match (src_inst, tgt_inst) {
        // --- calls -------------------------------------------------------
        (
            Some(Inst::Call {
                callee: cs,
                args: ars,
                ret: rs,
            }),
            Some(Inst::Call {
                callee: ct,
                args: art,
                ret: rt,
            }),
        ) => {
            if cs != ct {
                return fail(format!("source calls @{cs} but target calls @{ct}"));
            }
            if rs != rt {
                return fail("call return types differ");
            }
            if ars.len() != art.len() {
                return fail("call argument counts differ");
            }
            for ((tys, a), (tyt, b)) in ars.iter().zip(art) {
                if tys != tyt {
                    return fail("call argument types differ");
                }
                if !p.values_equivalent(&tv(a), &tv(b)) {
                    return fail(format!(
                        "call argument may differ: source passes {}, target passes {}",
                        tv(a),
                        tv(b)
                    ));
                }
            }
            Ok(())
        }
        (Some(Inst::Call { .. }), _) | (_, Some(Inst::Call { .. })) => {
            fail("a call is present on only one side")
        }
        (Some(Inst::Unsupported { feature: f1 }), Some(Inst::Unsupported { feature: f2 })) => {
            if f1 == f2 {
                Ok(())
            } else {
                fail("unsupported operations differ")
            }
        }
        (Some(Inst::Unsupported { .. }), _) | (_, Some(Inst::Unsupported { .. })) => {
            fail("an unsupported operation is present on only one side")
        }

        // --- allocations ---------------------------------------------------
        (Some(Inst::Alloca { ty: t1, count: c1 }), Some(Inst::Alloca { ty: t2, count: c2 })) => {
            if t1 == t2 && c1 == c2 {
                Ok(())
            } else {
                fail("allocation shapes differ")
            }
        }
        (Some(Inst::Alloca { .. }), None) => Ok(()), // dropped by promotion
        (Some(Inst::Alloca { .. }), _) | (_, Some(Inst::Alloca { .. })) => {
            fail("an allocation is present on only one side")
        }

        // --- stores --------------------------------------------------------
        (
            Some(Inst::Store {
                ty: t1,
                val: v1,
                ptr: p1,
            }),
            Some(Inst::Store {
                ty: t2,
                val: v2,
                ptr: p2,
            }),
        ) => {
            if t1 != t2 {
                return fail("store types differ");
            }
            if !p.values_equivalent(&tv(p1), &tv(p2)) {
                return fail("store addresses may differ");
            }
            if !p.values_equivalent(&tv(v1), &tv(v2)) {
                return fail("stored values may differ");
            }
            Ok(())
        }
        (Some(Inst::Store { ptr, .. }), None) => {
            // A store may be dropped only when the location is private.
            match ptr {
                Value::Reg(r) => {
                    if p.src.has_priv(&crate::expr::TReg::Phy(*r)) {
                        Ok(())
                    } else {
                        fail(format!(
                            "source stores through {} which is not known private",
                            tv(ptr)
                        ))
                    }
                }
                Value::Const(_) => fail("source stores to a public (constant) address"),
            }
        }
        (Some(Inst::Store { .. }), _) | (_, Some(Inst::Store { .. })) => {
            fail("a store is present on only one side")
        }

        // --- loads ----------------------------------------------------------
        (Some(Inst::Load { ty: t1, ptr: p1 }), Some(Inst::Load { ty: t2, ptr: p2 })) => {
            if t1 != t2 {
                return fail("load types differ");
            }
            if p.values_equivalent(&tv(p1), &tv(p2)) {
                Ok(())
            } else {
                fail("load addresses may differ")
            }
        }
        (_, Some(Inst::Load { .. })) => fail("target loads where the source does not"),
        // A source load with target lnop is fine (paper §H.2).

        // --- divisions --------------------------------------------------------
        (s, Some(Inst::Bin { op, ty, lhs, rhs })) if op.may_trap() => {
            if divisor_ok(p, s, *op, *ty, lhs, rhs) {
                Ok(())
            } else {
                fail("target division may trap where the source's does not")
            }
        }

        // --- everything else is unobservable ------------------------------
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, TReg};
    use crellvm_ir::{ConstExpr, RegId, Type};

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    fn st(result: Option<RegId>, inst: Inst) -> Stmt {
        Stmt { result, inst }
    }

    fn call_print(arg: Value) -> Stmt {
        st(
            None,
            Inst::Call {
                ret: None,
                callee: "print".into(),
                args: vec![(Type::I32, arg)],
            },
        )
    }

    fn cfg() -> CheckerConfig {
        CheckerConfig::sound()
    }

    #[test]
    fn identical_calls_with_equal_args_pass() {
        let p = Assertion::new();
        let c = call_print(Value::Reg(r(0)));
        assert!(check_equiv_beh(&p, Some(&c), Some(&c), &cfg()).is_ok());
    }

    #[test]
    fn call_args_in_maydiff_fail_without_evidence() {
        let mut p = Assertion::new();
        p.add_maydiff(TReg::Phy(r(0)));
        let c = call_print(Value::Reg(r(0)));
        assert!(check_equiv_beh(&p, Some(&c), Some(&c), &cfg()).is_err());
        // With lessdef evidence (x ⊒ 42 in src, arg 42 in tgt) it passes.
        p.src.insert_lessdef(
            Expr::Value(TValue::phy(r(0))),
            Expr::Value(TValue::int(Type::I32, 42)),
        );
        let t = call_print(Value::int(Type::I32, 42));
        assert!(check_equiv_beh(&p, Some(&c), Some(&t), &cfg()).is_ok());
    }

    #[test]
    fn dropped_store_needs_privacy() {
        let mut p = Assertion::new();
        let s = st(
            None,
            Inst::Store {
                ty: Type::I32,
                val: Value::int(Type::I32, 1),
                ptr: Value::Reg(r(0)),
            },
        );
        assert!(check_equiv_beh(&p, Some(&s), None, &cfg()).is_err());
        p.src.insert(crate::assertion::Pred::Uniq(r(0)));
        assert!(check_equiv_beh(&p, Some(&s), None, &cfg()).is_ok());
    }

    #[test]
    fn target_side_memory_ops_cannot_appear_from_nowhere() {
        let p = Assertion::new();
        let ld = st(
            Some(r(1)),
            Inst::Load {
                ty: Type::I32,
                ptr: Value::Reg(r(0)),
            },
        );
        assert!(check_equiv_beh(&p, None, Some(&ld), &cfg()).is_err());
        // Source load dropped: fine.
        assert!(check_equiv_beh(&p, Some(&ld), None, &cfg()).is_ok());
        let al = st(
            Some(r(1)),
            Inst::Alloca {
                ty: Type::I32,
                count: 1,
            },
        );
        assert!(check_equiv_beh(&p, None, Some(&al), &cfg()).is_err());
        assert!(check_equiv_beh(&p, Some(&al), None, &cfg()).is_ok());
    }

    #[test]
    fn target_division_needs_nonzero_or_matching_divisor() {
        let p = Assertion::new();
        let div_by_reg = st(
            Some(r(2)),
            Inst::Bin {
                op: BinOp::SDiv,
                ty: Type::I32,
                lhs: Value::Reg(r(0)),
                rhs: Value::Reg(r(1)),
            },
        );
        // Introduced out of thin air: rejected.
        assert!(check_equiv_beh(&p, None, Some(&div_by_reg), &cfg()).is_err());
        // Same division on both sides: accepted.
        assert!(check_equiv_beh(&p, Some(&div_by_reg), Some(&div_by_reg), &cfg()).is_ok());
        // Literal non-zero divisor: accepted even target-only.
        let div_lit = st(
            Some(r(2)),
            Inst::Bin {
                op: BinOp::SDiv,
                ty: Type::I32,
                lhs: Value::Reg(r(0)),
                rhs: Value::int(Type::I32, 4),
            },
        );
        assert!(check_equiv_beh(&p, None, Some(&div_lit), &cfg()).is_ok());
        // Literal zero: rejected.
        let div_zero = st(
            Some(r(2)),
            Inst::Bin {
                op: BinOp::SDiv,
                ty: Type::I32,
                lhs: Value::Reg(r(0)),
                rhs: Value::int(Type::I32, 0),
            },
        );
        assert!(check_equiv_beh(&p, None, Some(&div_zero), &cfg()).is_err());
    }

    #[test]
    fn trapping_constexpr_consumption_is_rejected_soundly() {
        let g = Const::Global("G".into());
        let gi: Const = ConstExpr::PtrToInt(g, Type::I32).into();
        let diff: Const = ConstExpr::Bin(BinOp::Sub, Type::I32, gi.clone(), gi).into();
        let div: Const =
            ConstExpr::Bin(BinOp::SDiv, Type::I32, Const::int(Type::I32, 1), diff).into();

        let p = Assertion::new();
        // Target passes the trapping constant to a call; source passes a register.
        let s = call_print(Value::Reg(r(0)));
        let t = call_print(Value::Const(div.clone()));
        let e = check_equiv_beh(&p, Some(&s), Some(&t), &cfg());
        assert!(e.is_err());
        assert!(e.unwrap_err().reason.contains("trapping constant"));
        // The unsound PR33673 configuration lets it through to the
        // argument-equivalence check (which may then pass given lessdefs).
        let mut p2 = Assertion::new();
        p2.add_maydiff(TReg::Phy(r(0)));
        p2.src.insert_lessdef(
            Expr::Value(TValue::phy(r(0))),
            Expr::Value(TValue::Const(div.clone())),
        );
        let trusting = CheckerConfig::with_unsound_constexpr_rule();
        assert!(check_equiv_beh(&p2, Some(&s), Some(&t), &trusting).is_ok());
        // Identical instructions are fine even when trapping (both trap).
        assert!(check_equiv_beh(&p, Some(&t), Some(&t), &cfg()).is_ok());
        // Storing the trapping constant does not consume it.
        let store_trap = st(
            None,
            Inst::Store {
                ty: Type::I32,
                val: Value::Const(div),
                ptr: Value::Reg(r(1)),
            },
        );
        let store_reg = st(
            None,
            Inst::Store {
                ty: Type::I32,
                val: Value::Reg(r(0)),
                ptr: Value::Reg(r(1)),
            },
        );
        let mut p3 = Assertion::new();
        p3.src.insert_lessdef(
            Expr::Value(TValue::phy(r(0))),
            Expr::Value(TValue::Const(match &store_trap.inst {
                Inst::Store {
                    val: Value::Const(c),
                    ..
                } => c.clone(),
                _ => unreachable!(),
            })),
        );
        assert!(check_equiv_beh(&p3, Some(&store_reg), Some(&store_trap), &cfg()).is_ok());
    }

    #[test]
    fn pure_rows_and_lnops_are_unobservable() {
        let p = Assertion::new();
        let add = st(
            Some(r(1)),
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(r(0)),
                rhs: Value::int(Type::I32, 1),
            },
        );
        assert!(check_equiv_beh(&p, Some(&add), None, &cfg()).is_ok());
        assert!(check_equiv_beh(&p, None, Some(&add), &cfg()).is_ok());
        assert!(check_equiv_beh(&p, None, None, &cfg()).is_ok());
    }
}
