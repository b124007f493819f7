//! Composite arithmetic rules: multi-instruction rewrites that chain
//! through intermediate registers (the larger part of the paper's 202
//! arithmetic rules, §D's instcombine families).
//!
//! Every rule has the shape *premises* `tᵢ ⊒ Eᵢ` (the defining equations
//! of intermediate registers) plus `y ⊒ E_y` (the rewritten instruction),
//! and *conclusion* `y ⊒ E'` — the simplified form. Soundness of each is
//! property-tested in `tests/rule_semantics.rs` against the
//! undef-propagating semantics.

use crate::assertion::{Assertion, Unary};
use crate::expr::{Expr, Side, TValue};
use crellvm_ir::{BinOp, CastOp, Const, IcmpPred, Type};
use serde::{Deserialize, Serialize};

/// A composite (multi-instruction) arithmetic rule instance.
///
/// Naming follows the paper's §D micro-optimization list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompositeRule {
    /// `sub-const-add`: `t = a + C1; y = t - C2  ⊢  y ⊒ a + (C1 - C2)`.
    SubConstAdd {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// Intermediate.
        t: TValue,
        /// Result.
        y: TValue,
        /// Kept operand.
        a: TValue,
        /// Inner constant.
        c1: Const,
        /// Outer constant.
        c2: Const,
    },
    /// `add-const-not`: `t = a ^ -1; y = t + C  ⊢  y ⊒ (C-1) - a`.
    AddConstNot {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The not.
        t: TValue,
        /// Result.
        y: TValue,
        /// Negated operand.
        a: TValue,
        /// Added constant.
        c: Const,
    },
    /// `sub-const-not`: `t = a ^ -1; y = C - t  ⊢  y ⊒ a + (C+1)`.
    SubConstNot {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The not.
        t: TValue,
        /// Result.
        y: TValue,
        /// Negated operand.
        a: TValue,
        /// Subtracted-from constant.
        c: Const,
    },
    /// `sub-or-xor`: `t1 = a | b; t2 = a ^ b; y = t1 - t2  ⊢  y ⊒ a & b`.
    SubOrXor {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The or.
        t1: TValue,
        /// The xor.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `add-xor-and`: `t1 = a ^ b; t2 = a & b; y = t1 + t2  ⊢  y ⊒ a | b`.
    AddXorAnd {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The xor.
        t1: TValue,
        /// The and.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `add-or-and`: `t1 = a | b; t2 = a & b; y = t1 + t2  ⊢  y ⊒ a + b`.
    AddOrAnd {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The or.
        t1: TValue,
        /// The and.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `and-or` (absorption): `t = a | b; y = a & t  ⊢  y ⊒ a`.
    AndOrAbsorb {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The or.
        t: TValue,
        /// Result.
        y: TValue,
        /// Absorbing operand.
        a: TValue,
        /// Other operand.
        b: TValue,
    },
    /// `or-and` (absorption): `t = a & b; y = a | t  ⊢  y ⊒ a`.
    OrAndAbsorb {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The and.
        t: TValue,
        /// Result.
        y: TValue,
        /// Absorbing operand.
        a: TValue,
        /// Other operand.
        b: TValue,
    },
    /// `mul-neg`: `t1 = 0 - a; t2 = 0 - b; y = t1 * t2  ⊢  y ⊒ a * b`.
    MulNeg {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// First negation.
        t1: TValue,
        /// Second negation.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `shl-shl`: `t = a << C1; y = t << C2  ⊢  y ⊒ a << (C1+C2)` when
    /// `C1 + C2 < bits`.
    ShlShl {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// Intermediate.
        t: TValue,
        /// Result.
        y: TValue,
        /// Shifted operand.
        a: TValue,
        /// Inner shift amount.
        c1: Const,
        /// Outer shift amount.
        c2: Const,
    },
    /// `icmp-eq-sub` / `icmp-ne-sub`:
    /// `t = a - b; y = icmp eq/ne t, 0  ⊢  y ⊒ icmp eq/ne a, b`.
    IcmpEqSub {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The difference.
        t: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
        /// `ne` instead of `eq`.
        ne: bool,
    },
    /// `icmp-eq-add-add` / `icmp-ne-add-add`:
    /// `t1 = a + c; t2 = b + c; y = icmp eq/ne t1, t2 ⊢ y ⊒ icmp eq/ne a, b`.
    IcmpEqAddAdd {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// First sum.
        t1: TValue,
        /// Second sum.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
        /// Common addend.
        c: TValue,
        /// `ne` instead of `eq`.
        ne: bool,
    },
    /// `icmp-eq-xor-xor` / `icmp-ne-xor-xor`: the xor-cancelling twin.
    IcmpEqXorXor {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// First xor.
        t1: TValue,
        /// Second xor.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
        /// Common mask.
        c: TValue,
        /// `ne` instead of `eq`.
        ne: bool,
    },
    /// `select-icmp-eq` / `select-icmp-ne`:
    /// `c = icmp eq a, b; y = select c, a, b  ⊢  y ⊒ b` (dually `ne → a`).
    SelectIcmpEq {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The comparison.
        c: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
        /// `ne` instead of `eq`.
        ne: bool,
    },
    /// `or-xor`: `t = a ^ b; y = t | b  ⊢  y ⊒ a | b`.
    OrXor {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The xor.
        t: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `sub-sub`: `t = a - b; y = a - t  ⊢  y ⊒ b`.
    SubSub {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The inner difference.
        t: TValue,
        /// Result.
        y: TValue,
        /// Shared operand.
        a: TValue,
        /// Recovered operand.
        b: TValue,
    },
    /// `or-and-xor`: `t1 = a & b; t2 = a ^ b; y = t1 | t2  ⊢  y ⊒ a | b`.
    OrAndXor {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The and.
        t1: TValue,
        /// The xor.
        t2: TValue,
        /// Result.
        y: TValue,
        /// First operand.
        a: TValue,
        /// Second operand.
        b: TValue,
    },
    /// `zext-trunc-and`: `t = trunc a to S; y = zext t to B  ⊢
    /// y ⊒ a & mask(S)` (when `B` is `a`'s own type).
    ZextTruncAnd {
        /// Which side.
        side: Side,
        /// The big (original) type.
        big: Type,
        /// The small (truncated) type.
        small: Type,
        /// The trunc.
        t: TValue,
        /// Result.
        y: TValue,
        /// Original operand.
        a: TValue,
    },
}

impl CompositeRule {
    /// Stable snake_case rule name, used as the telemetry counter suffix
    /// (`checker.rule.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            CompositeRule::SubConstAdd { .. } => "sub_const_add",
            CompositeRule::AddConstNot { .. } => "add_const_not",
            CompositeRule::SubConstNot { .. } => "sub_const_not",
            CompositeRule::SubOrXor { .. } => "sub_or_xor",
            CompositeRule::AddXorAnd { .. } => "add_xor_and",
            CompositeRule::AddOrAnd { .. } => "add_or_and",
            CompositeRule::AndOrAbsorb { .. } => "and_or_absorb",
            CompositeRule::OrAndAbsorb { .. } => "or_and_absorb",
            CompositeRule::MulNeg { .. } => "mul_neg",
            CompositeRule::ShlShl { .. } => "shl_shl",
            CompositeRule::IcmpEqSub { .. } => "icmp_eq_sub",
            CompositeRule::IcmpEqAddAdd { .. } => "icmp_eq_add_add",
            CompositeRule::IcmpEqXorXor { .. } => "icmp_eq_xor_xor",
            CompositeRule::SelectIcmpEq { .. } => "select_icmp_eq",
            CompositeRule::OrXor { .. } => "or_xor",
            CompositeRule::SubSub { .. } => "sub_sub",
            CompositeRule::OrAndXor { .. } => "or_and_xor",
            CompositeRule::ZextTruncAnd { .. } => "zext_trunc_and",
        }
    }
}

fn vexpr(v: &TValue) -> Expr {
    Expr::Value(v.clone())
}

fn bin(op: BinOp, ty: Type, a: &TValue, b: &TValue) -> Expr {
    Expr::Bin {
        op,
        ty,
        a: a.clone(),
        b: b.clone(),
    }
}

/// The rule's type, which must be an integer: a proof that gives a rule
/// any other type is refused here instead of reaching [`Type::bits`].
fn int_ty(ty: Type) -> Result<Type, String> {
    if ty.is_int() {
        Ok(ty)
    } else {
        Err(format!("composite rule at non-integer type {ty}"))
    }
}

fn cint(ty: Type, c: &Const) -> TValue {
    let _ = ty;
    TValue::Const(c.clone())
}

/// Check a premise `lhs ⊒ rhs`, also accepting the commuted `rhs` for
/// commutative operators.
fn has_def(u: &Unary, lhs: &TValue, rhs: &Expr) -> bool {
    if u.has_lessdef(&vexpr(lhs), rhs) {
        return true;
    }
    if let Expr::Bin { op, ty, a, b } = rhs {
        if op.is_commutative() {
            let sw = Expr::Bin {
                op: *op,
                ty: *ty,
                a: b.clone(),
                b: a.clone(),
            };
            return u.has_lessdef(&vexpr(lhs), &sw);
        }
    }
    if let Expr::Icmp { pred, ty, a, b } = rhs {
        let sw = Expr::Icmp {
            pred: pred.swapped(),
            ty: *ty,
            a: b.clone(),
            b: a.clone(),
        };
        return u.has_lessdef(&vexpr(lhs), &sw);
    }
    false
}

/// Apply a composite rule.
///
/// # Errors
///
/// Returns a human-readable reason when a premise is missing or a side
/// condition fails.
pub fn apply_composite(rule: &CompositeRule, q: &Assertion) -> Result<Assertion, String> {
    let mut out = q.clone();
    let miss = |l: &TValue, r: &Expr| format!("missing premise {l} >= {r}");
    match rule {
        CompositeRule::SubConstAdd {
            side,
            ty,
            t,
            y,
            a,
            c1,
            c2,
        } => {
            let inner = bin(BinOp::Add, *ty, a, &cint(*ty, c1));
            let outer = bin(BinOp::Sub, *ty, t, &cint(*ty, c2));
            let u = out.side_mut(*side);
            if !has_def(u, t, &inner) {
                return Err(miss(t, &inner));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            let c3 = crate::rules_arith::fold_bin(BinOp::Sub, *ty, c1, c2)
                .ok_or("constants do not fold")?;
            u.insert_lessdef(vexpr(y), bin(BinOp::Add, *ty, a, &TValue::Const(c3)));
        }
        CompositeRule::AddConstNot {
            side,
            ty,
            t,
            y,
            a,
            c,
        } => {
            let not = bin(BinOp::Xor, *ty, a, &TValue::int(int_ty(*ty)?, -1));
            let outer = bin(BinOp::Add, *ty, t, &cint(*ty, c));
            let u = out.side_mut(*side);
            if !has_def(u, t, &not) {
                return Err(miss(t, &not));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            let cm1 = crate::rules_arith::fold_bin(BinOp::Sub, *ty, c, &Const::int(*ty, 1))
                .ok_or("constant does not fold")?;
            u.insert_lessdef(vexpr(y), bin(BinOp::Sub, *ty, &TValue::Const(cm1), a));
        }
        CompositeRule::SubConstNot {
            side,
            ty,
            t,
            y,
            a,
            c,
        } => {
            let not = bin(BinOp::Xor, *ty, a, &TValue::int(int_ty(*ty)?, -1));
            let outer = bin(BinOp::Sub, *ty, &cint(*ty, c), t);
            let u = out.side_mut(*side);
            if !has_def(u, t, &not) {
                return Err(miss(t, &not));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            let cp1 = crate::rules_arith::fold_bin(BinOp::Add, *ty, c, &Const::int(*ty, 1))
                .ok_or("constant does not fold")?;
            u.insert_lessdef(vexpr(y), bin(BinOp::Add, *ty, a, &TValue::Const(cp1)));
        }
        CompositeRule::SubOrXor {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
        } => {
            let or = bin(BinOp::Or, *ty, a, b);
            let xor = bin(BinOp::Xor, *ty, a, b);
            let outer = bin(BinOp::Sub, *ty, t1, t2);
            let u = out.side_mut(*side);
            if !has_def(u, t1, &or) {
                return Err(miss(t1, &or));
            }
            if !has_def(u, t2, &xor) {
                return Err(miss(t2, &xor));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::And, *ty, a, b));
        }
        CompositeRule::AddXorAnd {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
        } => {
            let xor = bin(BinOp::Xor, *ty, a, b);
            let and = bin(BinOp::And, *ty, a, b);
            let outer1 = bin(BinOp::Add, *ty, t1, t2);
            let u = out.side_mut(*side);
            if !has_def(u, t1, &xor) {
                return Err(miss(t1, &xor));
            }
            if !has_def(u, t2, &and) {
                return Err(miss(t2, &and));
            }
            if !has_def(u, y, &outer1) {
                return Err(miss(y, &outer1));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::Or, *ty, a, b));
        }
        CompositeRule::AddOrAnd {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
        } => {
            let or = bin(BinOp::Or, *ty, a, b);
            let and = bin(BinOp::And, *ty, a, b);
            let outer = bin(BinOp::Add, *ty, t1, t2);
            let u = out.side_mut(*side);
            if !has_def(u, t1, &or) {
                return Err(miss(t1, &or));
            }
            if !has_def(u, t2, &and) {
                return Err(miss(t2, &and));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::Add, *ty, a, b));
        }
        CompositeRule::AndOrAbsorb {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let or = bin(BinOp::Or, *ty, a, b);
            let outer = bin(BinOp::And, *ty, a, t);
            let u = out.side_mut(*side);
            if !has_def(u, t, &or) {
                return Err(miss(t, &or));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), vexpr(a));
        }
        CompositeRule::OrAndAbsorb {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let and = bin(BinOp::And, *ty, a, b);
            let outer = bin(BinOp::Or, *ty, a, t);
            let u = out.side_mut(*side);
            if !has_def(u, t, &and) {
                return Err(miss(t, &and));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), vexpr(a));
        }
        CompositeRule::MulNeg {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
        } => {
            let zero = TValue::int(int_ty(*ty)?, 0);
            let n1 = bin(BinOp::Sub, *ty, &zero, a);
            let n2 = bin(BinOp::Sub, *ty, &zero, b);
            let outer = bin(BinOp::Mul, *ty, t1, t2);
            let u = out.side_mut(*side);
            if !has_def(u, t1, &n1) {
                return Err(miss(t1, &n1));
            }
            if !has_def(u, t2, &n2) {
                return Err(miss(t2, &n2));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::Mul, *ty, a, b));
        }
        CompositeRule::ShlShl {
            side,
            ty,
            t,
            y,
            a,
            c1,
            c2,
        } => {
            let (Const::Int { bits: b1, .. }, Const::Int { bits: b2, .. }) = (c1, c2) else {
                return Err("shift amounts must be integer literals".into());
            };
            let width = u64::from(int_ty(*ty)?.bits());
            let sum = ty.truncate(*b1).saturating_add(ty.truncate(*b2));
            if sum >= width {
                return Err("combined shift overflows the width".into());
            }
            let inner = bin(BinOp::Shl, *ty, a, &cint(*ty, c1));
            let outer = bin(BinOp::Shl, *ty, t, &cint(*ty, c2));
            let u = out.side_mut(*side);
            if !has_def(u, t, &inner) {
                return Err(miss(t, &inner));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(
                vexpr(y),
                bin(
                    BinOp::Shl,
                    *ty,
                    a,
                    &TValue::Const(Const::Int { ty: *ty, bits: sum }),
                ),
            );
        }
        CompositeRule::IcmpEqSub {
            side,
            ty,
            t,
            y,
            a,
            b,
            ne,
        } => {
            let pred = if *ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let diff = bin(BinOp::Sub, *ty, a, b);
            let outer = Expr::Icmp {
                pred,
                ty: *ty,
                a: t.clone(),
                b: TValue::int(int_ty(*ty)?, 0),
            };
            let u = out.side_mut(*side);
            if !has_def(u, t, &diff) {
                return Err(miss(t, &diff));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(
                vexpr(y),
                Expr::Icmp {
                    pred,
                    ty: *ty,
                    a: a.clone(),
                    b: b.clone(),
                },
            );
        }
        CompositeRule::IcmpEqAddAdd {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
            c,
            ne,
        } => {
            let pred = if *ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let s1 = bin(BinOp::Add, *ty, a, c);
            let s2 = bin(BinOp::Add, *ty, b, c);
            let outer = Expr::Icmp {
                pred,
                ty: *ty,
                a: t1.clone(),
                b: t2.clone(),
            };
            let u = out.side_mut(*side);
            if !has_def(u, t1, &s1) {
                return Err(miss(t1, &s1));
            }
            if !has_def(u, t2, &s2) {
                return Err(miss(t2, &s2));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(
                vexpr(y),
                Expr::Icmp {
                    pred,
                    ty: *ty,
                    a: a.clone(),
                    b: b.clone(),
                },
            );
        }
        CompositeRule::IcmpEqXorXor {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
            c,
            ne,
        } => {
            let pred = if *ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let s1 = bin(BinOp::Xor, *ty, a, c);
            let s2 = bin(BinOp::Xor, *ty, b, c);
            let outer = Expr::Icmp {
                pred,
                ty: *ty,
                a: t1.clone(),
                b: t2.clone(),
            };
            let u = out.side_mut(*side);
            if !has_def(u, t1, &s1) {
                return Err(miss(t1, &s1));
            }
            if !has_def(u, t2, &s2) {
                return Err(miss(t2, &s2));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(
                vexpr(y),
                Expr::Icmp {
                    pred,
                    ty: *ty,
                    a: a.clone(),
                    b: b.clone(),
                },
            );
        }
        CompositeRule::SelectIcmpEq {
            side,
            ty,
            c,
            y,
            a,
            b,
            ne,
        } => {
            let pred = if *ne { IcmpPred::Ne } else { IcmpPred::Eq };
            let cmp = Expr::Icmp {
                pred,
                ty: *ty,
                a: a.clone(),
                b: b.clone(),
            };
            let sel = Expr::Select {
                ty: *ty,
                cond: c.clone(),
                t: a.clone(),
                f: b.clone(),
            };
            let u = out.side_mut(*side);
            if !has_def(u, c, &cmp) {
                return Err(miss(c, &cmp));
            }
            if !u.has_lessdef(&vexpr(y), &sel) {
                return Err(miss(y, &sel));
            }
            // eq: both arms equal b when taken; ne: both arms equal a.
            let kept = if *ne { a } else { b };
            u.insert_lessdef(vexpr(y), vexpr(kept));
        }
        CompositeRule::OrXor {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let xor = bin(BinOp::Xor, *ty, a, b);
            let outer1 = bin(BinOp::Or, *ty, t, b);
            let outer2 = bin(BinOp::Or, *ty, b, t);
            let u = out.side_mut(*side);
            if !has_def(u, t, &xor) {
                return Err(miss(t, &xor));
            }
            if !u.has_lessdef(&vexpr(y), &outer1) && !u.has_lessdef(&vexpr(y), &outer2) {
                return Err(miss(y, &outer1));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::Or, *ty, a, b));
        }
        CompositeRule::SubSub {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let inner = bin(BinOp::Sub, *ty, a, b);
            let outer = bin(BinOp::Sub, *ty, a, t);
            let u = out.side_mut(*side);
            if !u.has_lessdef(&vexpr(t), &inner) {
                return Err(miss(t, &inner));
            }
            if !u.has_lessdef(&vexpr(y), &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), vexpr(b));
        }
        CompositeRule::OrAndXor {
            side,
            ty,
            t1,
            t2,
            y,
            a,
            b,
        } => {
            let and = bin(BinOp::And, *ty, a, b);
            let xor = bin(BinOp::Xor, *ty, a, b);
            let outer = bin(BinOp::Or, *ty, t1, t2);
            let u = out.side_mut(*side);
            if !has_def(u, t1, &and) {
                return Err(miss(t1, &and));
            }
            if !has_def(u, t2, &xor) {
                return Err(miss(t2, &xor));
            }
            if !has_def(u, y, &outer) {
                return Err(miss(y, &outer));
            }
            u.insert_lessdef(vexpr(y), bin(BinOp::Or, *ty, a, b));
        }
        CompositeRule::ZextTruncAnd {
            side,
            big,
            small,
            t,
            y,
            a,
        } => {
            if !big.is_int() || !small.is_int() || small.bits() >= big.bits() {
                return Err("invalid zext-trunc-and types".into());
            }
            let tr = Expr::Cast {
                op: CastOp::Trunc,
                from: *big,
                a: a.clone(),
                to: *small,
            };
            let zx = Expr::Cast {
                op: CastOp::Zext,
                from: *small,
                a: t.clone(),
                to: *big,
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&vexpr(t), &tr) {
                return Err(miss(t, &tr));
            }
            if !u.has_lessdef(&vexpr(y), &zx) {
                return Err(miss(y, &zx));
            }
            let mask = Const::Int {
                ty: *big,
                bits: small.mask(),
            };
            u.insert_lessdef(vexpr(y), bin(BinOp::And, *big, a, &TValue::Const(mask)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::RegId;

    fn r(i: usize) -> TValue {
        TValue::phy(RegId::from_index(i))
    }

    fn apply_src(q: &Assertion, rule: &CompositeRule) -> Result<Assertion, String> {
        apply_composite(rule, q)
    }

    #[test]
    fn sub_or_xor() {
        let mut q = Assertion::new();
        q.src
            .insert_lessdef(vexpr(&r(2)), bin(BinOp::Or, Type::I32, &r(0), &r(1)));
        q.src
            .insert_lessdef(vexpr(&r(3)), bin(BinOp::Xor, Type::I32, &r(0), &r(1)));
        q.src
            .insert_lessdef(vexpr(&r(4)), bin(BinOp::Sub, Type::I32, &r(2), &r(3)));
        let rule = CompositeRule::SubOrXor {
            side: Side::Src,
            ty: Type::I32,
            t1: r(2),
            t2: r(3),
            y: r(4),
            a: r(0),
            b: r(1),
        };
        let q2 = apply_src(&q, &rule).unwrap();
        assert!(q2
            .src
            .has_lessdef(&vexpr(&r(4)), &bin(BinOp::And, Type::I32, &r(0), &r(1))));
    }

    #[test]
    fn commuted_premises_accepted() {
        // t1 defined as or(b, a): still matches.
        let mut q = Assertion::new();
        q.src
            .insert_lessdef(vexpr(&r(2)), bin(BinOp::Or, Type::I32, &r(1), &r(0)));
        q.src
            .insert_lessdef(vexpr(&r(3)), bin(BinOp::And, Type::I32, &r(0), &r(1)));
        q.src
            .insert_lessdef(vexpr(&r(4)), bin(BinOp::Add, Type::I32, &r(2), &r(3)));
        let rule = CompositeRule::AddOrAnd {
            side: Side::Src,
            ty: Type::I32,
            t1: r(2),
            t2: r(3),
            y: r(4),
            a: r(0),
            b: r(1),
        };
        let q2 = apply_src(&q, &rule).unwrap();
        assert!(q2
            .src
            .has_lessdef(&vexpr(&r(4)), &bin(BinOp::Add, Type::I32, &r(0), &r(1))));
    }

    #[test]
    fn shl_shl_overflow_rejected() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            vexpr(&r(1)),
            bin(BinOp::Shl, Type::I8, &r(0), &TValue::int(Type::I8, 5)),
        );
        q.src.insert_lessdef(
            vexpr(&r(2)),
            bin(BinOp::Shl, Type::I8, &r(1), &TValue::int(Type::I8, 4)),
        );
        let rule = CompositeRule::ShlShl {
            side: Side::Src,
            ty: Type::I8,
            t: r(1),
            y: r(2),
            a: r(0),
            c1: Const::int(Type::I8, 5),
            c2: Const::int(Type::I8, 4),
        };
        assert!(apply_src(&q, &rule).unwrap_err().contains("overflows"));
    }

    #[test]
    fn missing_premise_rejected() {
        let q = Assertion::new();
        let rule = CompositeRule::AndOrAbsorb {
            side: Side::Src,
            ty: Type::I32,
            t: r(1),
            y: r(2),
            a: r(0),
            b: r(3),
        };
        assert!(apply_src(&q, &rule).is_err());
    }

    #[test]
    fn select_icmp_eq_and_ne() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            vexpr(&r(2)),
            Expr::Icmp {
                pred: IcmpPred::Eq,
                ty: Type::I32,
                a: r(0),
                b: r(1),
            },
        );
        q.src.insert_lessdef(
            vexpr(&r(3)),
            Expr::Select {
                ty: Type::I32,
                cond: r(2),
                t: r(0),
                f: r(1),
            },
        );
        let rule = CompositeRule::SelectIcmpEq {
            side: Side::Src,
            ty: Type::I32,
            c: r(2),
            y: r(3),
            a: r(0),
            b: r(1),
            ne: false,
        };
        let q2 = apply_src(&q, &rule).unwrap();
        // select(a==b, a, b) always yields b's value.
        assert!(q2.src.has_lessdef(&vexpr(&r(3)), &vexpr(&r(1))));
    }

    #[test]
    fn zext_trunc_and() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            vexpr(&r(1)),
            Expr::Cast {
                op: CastOp::Trunc,
                from: Type::I32,
                a: r(0),
                to: Type::I8,
            },
        );
        q.src.insert_lessdef(
            vexpr(&r(2)),
            Expr::Cast {
                op: CastOp::Zext,
                from: Type::I8,
                a: r(1),
                to: Type::I32,
            },
        );
        let rule = CompositeRule::ZextTruncAnd {
            side: Side::Src,
            big: Type::I32,
            small: Type::I8,
            t: r(1),
            y: r(2),
            a: r(0),
        };
        let q2 = apply_src(&q, &rule).unwrap();
        assert!(q2.src.has_lessdef(
            &vexpr(&r(2)),
            &bin(BinOp::And, Type::I32, &r(0), &TValue::int(Type::I32, 0xff))
        ));
    }
}
