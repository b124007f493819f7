//! The arithmetic inference-rule library (the paper's "202 rules like
//! `assoc_add`").
//!
//! Two kinds of rules live here:
//!
//! * [`ArithRule::Identity`] — a generic single-expression rewrite
//!   `anchor ⊒ from  ⊢  anchor ⊒ to`, guarded by the *verified identity
//!   table* [`identity_holds`]. Every identity `from → to` in the table
//!   satisfies `eval(from) ⊒ eval(to)` pointwise under the
//!   undef-propagating expression semantics of `tests/semantics` (this
//!   is property-tested in `tests/rule_semantics.rs`).
//! * Composite rules (e.g. [`ArithRule::AddAssoc`], the paper's §2
//!   example) that chain through intermediate registers, since
//!   assertion-level expressions are depth-1.

use crate::assertion::Assertion;
use crate::expr::{Expr, Side, TValue};
use crellvm_ir::{arith, BinOp, CastOp, Const, IcmpPred, Type};
use serde::{Deserialize, Serialize};

/// An arithmetic rule instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArithRule {
    /// `anchor ⊒ from`, `from → to` in the identity table
    /// ⊢ `anchor ⊒ to`.
    Identity {
        /// Which side.
        side: Side,
        /// The anchored expression (usually a register value).
        anchor: Expr,
        /// Premise right-hand side.
        from: Expr,
        /// Conclusion right-hand side.
        to: Expr,
    },
    /// The paper's `assoc_add(x, y, a, C1, C2)`:
    /// `x ⊒ add a C1`, `y ⊒ add x C2` ⊢ `y ⊒ add a (C1+C2)`.
    /// Generalized to any associative-commutative operator.
    AddAssoc {
        /// Which side.
        side: Side,
        /// Operator (must be `add`, `mul`, `and`, `or`, or `xor`).
        op: BinOp,
        /// Operand type.
        ty: Type,
        /// The intermediate register.
        x: TValue,
        /// The rewritten register.
        y: TValue,
        /// The hoisted operand.
        a: TValue,
        /// Inner constant.
        c1: Const,
        /// Outer constant.
        c2: Const,
    },
    /// `t ⊒ sub a b`, `y ⊒ add t b` (or `add b t`) ⊢ `y ⊒ a`
    /// (instcombine's add-comm-sub family).
    AddSubFold {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The difference register.
        t: TValue,
        /// The folded register.
        y: TValue,
        /// The surviving operand.
        a: TValue,
        /// The cancelled operand.
        b: TValue,
    },
    /// `t ⊒ add a b`, `y ⊒ sub t b` ⊢ `y ⊒ a` (instcombine's sub-add).
    SubAddFold {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The sum register.
        t: TValue,
        /// The folded register.
        y: TValue,
        /// The surviving operand.
        a: TValue,
        /// The cancelled operand.
        b: TValue,
    },
    /// `t ⊒ xor a b`, `y ⊒ xor t b` ⊢ `y ⊒ a` (xor cancellation).
    XorXorFold {
        /// Which side.
        side: Side,
        /// Operand type.
        ty: Type,
        /// The inner xor register.
        t: TValue,
        /// The folded register.
        y: TValue,
        /// The surviving operand.
        a: TValue,
        /// The cancelled operand.
        b: TValue,
    },
    /// Cast composition: `x ⊒ cast1 a`, `y ⊒ cast2 x` and the pair
    /// composes per [`compose_casts`] ⊢ `y ⊒ composed a` (or `y ⊒ a` when
    /// the pair cancels).
    CastCast {
        /// Which side.
        side: Side,
        /// Inner cast operator.
        op1: CastOp,
        /// Inner source type.
        ty0: Type,
        /// Intermediate type.
        ty1: Type,
        /// Outer cast operator.
        op2: CastOp,
        /// Final type.
        ty2: Type,
        /// Intermediate register.
        x: TValue,
        /// Final register.
        y: TValue,
        /// Original operand.
        a: TValue,
    },
    /// A composite multi-instruction rule (see
    /// [`crate::rules_composite`]).
    Composite(crate::rules_composite::CompositeRule),
    /// `t ⊒ gep[ib1] p, c1`, `y ⊒ gep[ib2] t, c2`
    /// ⊢ `y ⊒ gep[ib1 && ib2] p, (c1+c2)` (constant-offset gep folding;
    /// note the result is only `inbounds` when **both** were).
    GepGepFold {
        /// Which side.
        side: Side,
        /// Inner `inbounds`.
        ib1: bool,
        /// Outer `inbounds`.
        ib2: bool,
        /// Intermediate register.
        t: TValue,
        /// Folded register.
        y: TValue,
        /// Base pointer.
        p: TValue,
        /// Inner constant offset.
        c1: Const,
        /// Outer constant offset.
        c2: Const,
    },
}

impl ArithRule {
    /// Stable snake_case rule name, used as the telemetry counter suffix
    /// (`checker.rule.<name>`). Composite rules report their own name.
    pub fn name(&self) -> &'static str {
        match self {
            ArithRule::Identity { .. } => "identity",
            ArithRule::AddAssoc { .. } => "add_assoc",
            ArithRule::AddSubFold { .. } => "add_sub_fold",
            ArithRule::SubAddFold { .. } => "sub_add_fold",
            ArithRule::XorXorFold { .. } => "xor_xor_fold",
            ArithRule::CastCast { .. } => "cast_cast",
            ArithRule::Composite(c) => c.name(),
            ArithRule::GepGepFold { .. } => "gep_gep_fold",
        }
    }
}

/// Fold a binary operation on two integer literals; `None` when the
/// operation could trap or produce an over-shift, or its type is not an
/// integer.
pub fn fold_bin(op: BinOp, ty: Type, a: &Const, b: &Const) -> Option<Const> {
    match (a, b) {
        (Const::Int { bits: a, .. }, Const::Int { bits: b, .. }) if ty.is_int() => {
            let bits = arith::bin(op, ty, *a, *b).ok()?;
            Some(Const::Int { ty, bits })
        }
        _ => None,
    }
}

/// Fold an integer comparison on two literals.
pub fn fold_icmp(pred: IcmpPred, ty: Type, a: &Const, b: &Const) -> Option<Const> {
    match (a, b) {
        (Const::Int { bits: a, .. }, Const::Int { bits: b, .. }) if ty.is_int() => {
            Some(Const::bool(arith::icmp(pred, ty, *a, *b)))
        }
        _ => None,
    }
}

fn as_int(v: &TValue) -> Option<(Type, u64)> {
    match v {
        TValue::Const(Const::Int { ty, bits }) => Some((*ty, *bits)),
        _ => None,
    }
}

fn is_int_val(v: &TValue, ty: Type, n: i64) -> bool {
    as_int(v) == Some((ty, ty.truncate(n as u64)))
}

/// Fold a cast of an integer literal between integer types.
pub fn fold_cast(op: CastOp, from: Type, c: &Const, to: Type) -> Option<Const> {
    match c {
        Const::Int { bits, .. } if from.is_int() && to.is_int() => {
            let bits = arith::cast(op, from, to, *bits)?;
            Some(Const::Int { ty: to, bits })
        }
        _ => None,
    }
}

/// The verified single-step identity table: does `from → to` hold in the
/// sense `eval(from) ⊒ eval(to)` for every valuation (with
/// undef-propagating evaluation)?
pub fn identity_holds(from: &Expr, to: &Expr) -> bool {
    use Expr::*;
    if from == to {
        return true;
    }
    // The rules below read the width of a `Bin` or `Icmp`; a proof that
    // gives one a non-integer type gets no identity.
    if let Bin { ty, .. } | Icmp { ty, .. } = from {
        if !ty.is_int() {
            return false;
        }
    }
    match (from, to) {
        // --- constant folding -------------------------------------------
        (
            Bin {
                op,
                ty,
                a: TValue::Const(ca),
                b: TValue::Const(cb),
            },
            Value(TValue::Const(c)),
        ) => fold_bin(*op, *ty, ca, cb).as_ref() == Some(c),
        (
            Icmp {
                pred,
                ty,
                a: TValue::Const(ca),
                b: TValue::Const(cb),
            },
            Value(TValue::Const(c)),
        ) => fold_icmp(*pred, *ty, ca, cb).as_ref() == Some(c),
        (
            Cast {
                op,
                from: f,
                a: TValue::Const(ca),
                to: t,
            },
            Value(TValue::Const(c)),
        ) => fold_cast(*op, *f, ca, *t).as_ref() == Some(c),

        // --- commutativity ----------------------------------------------
        (
            Bin { op, ty, a, b },
            Bin {
                op: op2,
                ty: ty2,
                a: a2,
                b: b2,
            },
        ) if op == op2 && ty == ty2 && op.is_commutative() && a == b2 && b == a2 => true,
        (
            Icmp { pred, ty, a, b },
            Icmp {
                pred: p2,
                ty: t2,
                a: a2,
                b: b2,
            },
        ) if *p2 == pred.swapped() && ty == t2 && a == b2 && b == a2 => true,

        // --- unit / absorbing elements ----------------------------------
        (
            Bin {
                op: BinOp::Add,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Add,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == b && is_int_val(a, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Sub,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Sub,
                ty,
                a,
                b,
            },
            Value(v),
        ) if a == b
            && is_int_val(&TValue::Const(Const::int(*ty, 0)), *ty, 0)
            && is_int_val(v, *ty, 0) =>
        {
            true
        }
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 1) => true,
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == b && is_int_val(a, *ty, 1) => true,
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a: _,
                b,
            },
            Value(v),
        ) if is_int_val(b, *ty, 0) && is_int_val(v, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a,
                b: _b,
            },
            Value(v),
        ) if is_int_val(a, *ty, 0) && is_int_val(v, *ty, 0) => true,
        (
            Bin {
                op: BinOp::UDiv,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 1) => true,
        (
            Bin {
                op: BinOp::SDiv,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 1) => true,
        (
            Bin {
                op: BinOp::And,
                a,
                b,
                ..
            },
            Value(v),
        ) if a == b && v == a => true,
        (
            Bin {
                op: BinOp::And,
                ty,
                a: _,
                b,
            },
            Value(v),
        ) if is_int_val(b, *ty, 0) && is_int_val(v, *ty, 0) => true,
        (
            Bin {
                op: BinOp::And,
                ty,
                a,
                b: _,
            },
            Value(v),
        ) if is_int_val(a, *ty, 0) && is_int_val(v, *ty, 0) => true,
        (
            Bin {
                op: BinOp::And,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, -1) => true,
        (
            Bin {
                op: BinOp::And,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == b && is_int_val(a, *ty, -1) => true,
        (
            Bin {
                op: BinOp::Or,
                a,
                b,
                ..
            },
            Value(v),
        ) if a == b && v == a => true,
        (
            Bin {
                op: BinOp::Or,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Or,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == b && is_int_val(a, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Or,
                ty,
                a: _,
                b,
            },
            Value(v),
        ) if is_int_val(b, *ty, -1) && is_int_val(v, *ty, -1) => true,
        (
            Bin {
                op: BinOp::Xor,
                ty,
                a,
                b,
            },
            Value(v),
        ) if a == b && is_int_val(v, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Xor,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Xor,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == b && is_int_val(a, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Shl | BinOp::LShr | BinOp::AShr,
                ty,
                a,
                b,
            },
            Value(v),
        ) if v == a && is_int_val(b, *ty, 0) => true,
        (
            Bin {
                op: BinOp::Sub,
                ty,
                a,
                b,
            },
            Value(v),
        ) if a == b && is_int_val(v, *ty, 0) => true,

        // --- strength reduction ------------------------------------------
        // mul a 2^k → shl a k
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Shl,
                ty: ty2,
                a: a2,
                b: b2,
            },
        ) if ty == ty2 && a == a2 => match (as_int(b), as_int(b2)) {
            (Some((t1, c)), Some((t2, k))) if t1 == *ty && t2 == *ty => {
                c.is_power_of_two() && (k as u32) == c.trailing_zeros() && k < ty.bits() as u64
            }
            _ => false,
        },
        // mul a -1 → sub 0 a
        (
            Bin {
                op: BinOp::Mul,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Sub,
                ty: ty2,
                a: z,
                b: a2,
            },
        ) if ty == ty2 && a == a2 && is_int_val(b, *ty, -1) && is_int_val(z, *ty, 0) => true,
        // add a a → shl a 1
        (
            Bin {
                op: BinOp::Add,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Shl,
                ty: ty2,
                a: a2,
                b: k,
            },
        ) if ty == ty2 && a == b && a == a2 && is_int_val(k, *ty, 1) && ty.bits() > 1 => true,

        // add a SIGNBIT → xor a SIGNBIT (instcombine's add-signbit).
        (
            Bin {
                op: BinOp::Add,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Xor,
                ty: t2,
                a: a2,
                b: b2,
            },
        ) if ty == t2 && a == a2 && b == b2 && ty.bits() > 1 => match as_int(b) {
            Some((tb, c)) => tb == *ty && c == 1u64 << (ty.bits() - 1),
            None => false,
        },
        // sub -1 a → xor a -1 (instcombine's sub-mone: -1 - a = ¬a).
        (
            Bin {
                op: BinOp::Sub,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Xor,
                ty: t2,
                a: b2,
                b: m,
            },
        ) if ty == t2 && b == b2 && is_int_val(a, *ty, -1) && is_int_val(m, *ty, -1) => true,
        // sdiv a -1 → 0 - a (the trapping MIN/-1 case is vacuous: the
        // source expression has no value there).
        (
            Bin {
                op: BinOp::SDiv,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::Sub,
                ty: t2,
                a: z,
                b: a2,
            },
        ) if ty == t2 && a == a2 && is_int_val(b, *ty, -1) && is_int_val(z, *ty, 0) => true,
        // udiv a 2^k → lshr a k.
        (
            Bin {
                op: BinOp::UDiv,
                ty,
                a,
                b,
            },
            Bin {
                op: BinOp::LShr,
                ty: t2,
                a: a2,
                b: k,
            },
        ) if ty == t2 && a == a2 => match (as_int(b), as_int(k)) {
            (Some((tb, c)), Some((tk, kk))) if tb == *ty && tk == *ty => {
                c.is_power_of_two() && kk == c.trailing_zeros() as u64 && kk < ty.bits() as u64
            }
            _ => false,
        },
        // urem/srem a 1 → 0.
        (
            Bin {
                op: BinOp::URem | BinOp::SRem,
                ty,
                a: _,
                b,
            },
            Value(v),
        ) if is_int_val(b, *ty, 1) && is_int_val(v, *ty, 0) => true,

        // --- select ------------------------------------------------------
        (Select { cond, t, .. }, Value(v))
            if v == t && *cond == TValue::Const(Const::bool(true)) =>
        {
            true
        }
        (Select { cond, f, .. }, Value(v))
            if v == f && *cond == TValue::Const(Const::bool(false)) =>
        {
            true
        }
        (Select { t, f, .. }, Value(v)) if t == f && v == t => true,

        // --- reflexive comparisons --------------------------------------
        (Icmp { pred, a, b, .. }, Value(TValue::Const(c))) if a == b => {
            let expected = match pred {
                IcmpPred::Eq | IcmpPred::Uge | IcmpPred::Ule | IcmpPred::Sge | IcmpPred::Sle => {
                    true
                }
                IcmpPred::Ne | IcmpPred::Ugt | IcmpPred::Ult | IcmpPred::Sgt | IcmpPred::Slt => {
                    false
                }
            };
            *c == Const::bool(expected)
        }

        // --- casts --------------------------------------------------------
        (
            Cast {
                op: CastOp::Bitcast,
                a,
                ..
            },
            Value(v),
        ) if v == a => true,

        // --- gep ----------------------------------------------------------
        // gep p, 0 → p (any inbounds flag: an in-bounds base stays in
        // bounds, and an out-of-bounds base makes the gep poison ⊒ p).
        (Gep { ptr, offset, .. }, Value(v)) if v == ptr && is_int_val(offset, Type::I64, 0) => true,
        // gep inbounds p, c → gep p, c (dropping inbounds only *loses*
        // poison, i.e. the inbounds gep is less defined: inbounds ⊒ plain).
        (
            Gep {
                inbounds: true,
                ptr,
                offset,
            },
            Gep {
                inbounds: false,
                ptr: p2,
                offset: o2,
            },
        ) if ptr == p2 && offset == o2 => true,

        _ => false,
    }
}

/// Apply an arithmetic rule.
///
/// # Errors
///
/// Returns a human-readable reason when a premise is missing or the
/// identity is not in the verified table.
pub fn apply_arith(rule: &ArithRule, q: &Assertion) -> Result<Assertion, String> {
    let mut out = q.clone();
    match rule {
        ArithRule::Identity {
            side,
            anchor,
            from,
            to,
        } => {
            if !identity_holds(from, to) {
                return Err(format!("'{from} -> {to}' is not a verified identity"));
            }
            if !out.side(*side).has_lessdef(anchor, from) {
                return Err(format!("missing premise {anchor} >= {from}"));
            }
            out.side_mut(*side)
                .insert_lessdef(anchor.clone(), to.clone());
        }
        ArithRule::AddAssoc {
            side,
            op,
            ty,
            x,
            y,
            a,
            c1,
            c2,
        } => {
            if !matches!(
                op,
                BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
            ) {
                return Err(format!("operator {op} is not associative-commutative"));
            }
            let inner = Expr::Bin {
                op: *op,
                ty: *ty,
                a: a.clone(),
                b: TValue::Const(c1.clone()),
            };
            let outer = Expr::Bin {
                op: *op,
                ty: *ty,
                a: x.clone(),
                b: TValue::Const(c2.clone()),
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(x.clone()), &inner) {
                return Err(format!("missing premise {x} >= {inner}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &outer) {
                return Err(format!("missing premise {y} >= {outer}"));
            }
            let c3 = fold_bin(*op, *ty, c1, c2).ok_or("constants do not fold")?;
            let concl = Expr::Bin {
                op: *op,
                ty: *ty,
                a: a.clone(),
                b: TValue::Const(c3),
            };
            u.insert_lessdef(Expr::Value(y.clone()), concl);
        }
        ArithRule::AddSubFold {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let diff = Expr::Bin {
                op: BinOp::Sub,
                ty: *ty,
                a: a.clone(),
                b: b.clone(),
            };
            let sum1 = Expr::Bin {
                op: BinOp::Add,
                ty: *ty,
                a: t.clone(),
                b: b.clone(),
            };
            let sum2 = Expr::Bin {
                op: BinOp::Add,
                ty: *ty,
                a: b.clone(),
                b: t.clone(),
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(t.clone()), &diff) {
                return Err(format!("missing premise {t} >= {diff}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &sum1)
                && !u.has_lessdef(&Expr::Value(y.clone()), &sum2)
            {
                return Err(format!("missing premise {y} >= {sum1}"));
            }
            u.insert_lessdef(Expr::Value(y.clone()), Expr::Value(a.clone()));
        }
        ArithRule::SubAddFold {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let sum1 = Expr::Bin {
                op: BinOp::Add,
                ty: *ty,
                a: a.clone(),
                b: b.clone(),
            };
            let sum2 = Expr::Bin {
                op: BinOp::Add,
                ty: *ty,
                a: b.clone(),
                b: a.clone(),
            };
            let diff = Expr::Bin {
                op: BinOp::Sub,
                ty: *ty,
                a: t.clone(),
                b: b.clone(),
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(t.clone()), &sum1)
                && !u.has_lessdef(&Expr::Value(t.clone()), &sum2)
            {
                return Err(format!("missing premise {t} >= {sum1}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &diff) {
                return Err(format!("missing premise {y} >= {diff}"));
            }
            u.insert_lessdef(Expr::Value(y.clone()), Expr::Value(a.clone()));
        }
        ArithRule::XorXorFold {
            side,
            ty,
            t,
            y,
            a,
            b,
        } => {
            let inner1 = Expr::Bin {
                op: BinOp::Xor,
                ty: *ty,
                a: a.clone(),
                b: b.clone(),
            };
            let inner2 = Expr::Bin {
                op: BinOp::Xor,
                ty: *ty,
                a: b.clone(),
                b: a.clone(),
            };
            let outer1 = Expr::Bin {
                op: BinOp::Xor,
                ty: *ty,
                a: t.clone(),
                b: b.clone(),
            };
            let outer2 = Expr::Bin {
                op: BinOp::Xor,
                ty: *ty,
                a: b.clone(),
                b: t.clone(),
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(t.clone()), &inner1)
                && !u.has_lessdef(&Expr::Value(t.clone()), &inner2)
            {
                return Err(format!("missing premise {t} >= {inner1}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &outer1)
                && !u.has_lessdef(&Expr::Value(y.clone()), &outer2)
            {
                return Err(format!("missing premise {y} >= {outer1}"));
            }
            u.insert_lessdef(Expr::Value(y.clone()), Expr::Value(a.clone()));
        }
        ArithRule::CastCast {
            side,
            op1,
            ty0,
            ty1,
            op2,
            ty2,
            x,
            y,
            a,
        } => {
            let inner = Expr::Cast {
                op: *op1,
                from: *ty0,
                a: a.clone(),
                to: *ty1,
            };
            let outer = Expr::Cast {
                op: *op2,
                from: *ty1,
                a: x.clone(),
                to: *ty2,
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(x.clone()), &inner) {
                return Err(format!("missing premise {x} >= {inner}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &outer) {
                return Err(format!("missing premise {y} >= {outer}"));
            }
            let concl = compose_casts(*op1, *ty0, *ty1, *op2, *ty2, a)
                .ok_or_else(|| format!("casts {op1}/{op2} do not compose"))?;
            u.insert_lessdef(Expr::Value(y.clone()), concl);
        }
        ArithRule::Composite(c) => {
            return crate::rules_composite::apply_composite(c, q);
        }
        ArithRule::GepGepFold {
            side,
            ib1,
            ib2,
            t,
            y,
            p,
            c1,
            c2,
        } => {
            let inner = Expr::Gep {
                inbounds: *ib1,
                ptr: p.clone(),
                offset: TValue::Const(c1.clone()),
            };
            let outer = Expr::Gep {
                inbounds: *ib2,
                ptr: t.clone(),
                offset: TValue::Const(c2.clone()),
            };
            let u = out.side_mut(*side);
            if !u.has_lessdef(&Expr::Value(t.clone()), &inner) {
                return Err(format!("missing premise {t} >= {inner}"));
            }
            if !u.has_lessdef(&Expr::Value(y.clone()), &outer) {
                return Err(format!("missing premise {y} >= {outer}"));
            }
            let c3 = fold_bin(BinOp::Add, Type::I64, c1, c2).ok_or("offsets do not fold")?;
            let concl = Expr::Gep {
                inbounds: *ib1 && *ib2,
                ptr: p.clone(),
                offset: TValue::Const(c3),
            };
            u.insert_lessdef(Expr::Value(y.clone()), concl);
        }
    }
    Ok(out)
}

/// Compose two integer casts, returning the single-cast (or bare-value)
/// expression equivalent to applying them in sequence.
pub fn compose_casts(
    op1: CastOp,
    ty0: Type,
    ty1: Type,
    op2: CastOp,
    ty2: Type,
    a: &TValue,
) -> Option<Expr> {
    use CastOp::*;
    let same = |op: CastOp| {
        Some(Expr::Cast {
            op,
            from: ty0,
            a: a.clone(),
            to: ty2,
        })
    };
    let id = || Some(Expr::Value(a.clone()));
    match (op1, op2) {
        // zext i_a → i_b, zext i_b → i_c  ≡ zext i_a → i_c (same for sext).
        (Zext, Zext) => same(Zext),
        (Sext, Sext) => same(Sext),
        // zext then sext: the top bit is 0, so the composition zero-extends.
        (Zext, Sext) => same(Zext),
        (Trunc, Trunc) => same(Trunc),
        // zext/sext then trunc back to the original width is the identity;
        // to something *narrower* than the original it is a trunc.
        (Zext | Sext, Trunc) => {
            if ty2 == ty0 {
                id()
            } else if ty2.is_int() && ty0.is_int() && ty2.bits() < ty0.bits() {
                same(Trunc)
            } else {
                None
            }
        }
        (Bitcast, other) => Some(Expr::Cast {
            op: other,
            from: ty0,
            a: a.clone(),
            to: ty2,
        }),
        (other, Bitcast) => Some(Expr::Cast {
            op: other,
            from: ty0,
            a: a.clone(),
            to: ty2,
        }),
        // ptrtoint then inttoptr at full width round-trips in our memory
        // model only at i64 (addresses are 64-bit).
        (PtrToInt, IntToPtr) if ty1 == Type::I64 => id(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::TReg;
    use crellvm_ir::RegId;

    fn r(i: usize) -> TValue {
        TValue::Reg(TReg::Phy(RegId::from_index(i)))
    }

    fn c32(v: i64) -> TValue {
        TValue::int(Type::I32, v)
    }

    #[test]
    fn folding() {
        assert_eq!(
            fold_bin(
                BinOp::Add,
                Type::I8,
                &Const::int(Type::I8, 200),
                &Const::int(Type::I8, 100)
            ),
            Some(Const::int(Type::I8, 44))
        );
        assert_eq!(
            fold_bin(
                BinOp::SDiv,
                Type::I32,
                &Const::int(Type::I32, 1),
                &Const::int(Type::I32, 0)
            ),
            None
        );
        assert_eq!(
            fold_bin(
                BinOp::Shl,
                Type::I32,
                &Const::int(Type::I32, 1),
                &Const::int(Type::I32, 40)
            ),
            None
        );
        assert_eq!(
            fold_icmp(
                IcmpPred::Slt,
                Type::I8,
                &Const::int(Type::I8, -1),
                &Const::int(Type::I8, 1)
            ),
            Some(Const::bool(true))
        );
        assert_eq!(
            fold_icmp(
                IcmpPred::Ult,
                Type::I8,
                &Const::int(Type::I8, -1),
                &Const::int(Type::I8, 1)
            ),
            Some(Const::bool(false))
        );
        assert_eq!(
            fold_cast(CastOp::Sext, Type::I8, &Const::int(Type::I8, -1), Type::I32),
            Some(Const::int(Type::I32, -1))
        );
    }

    #[test]
    fn identity_table_accepts_classics() {
        let add0 = Expr::bin(BinOp::Add, Type::I32, r(0), c32(0));
        assert!(identity_holds(&add0, &Expr::Value(r(0))));
        let xorxx = Expr::bin(BinOp::Xor, Type::I32, r(0), r(0));
        assert!(identity_holds(&xorxx, &Expr::Value(c32(0))));
        let comm = Expr::bin(BinOp::Add, Type::I32, r(0), r(1));
        assert!(identity_holds(
            &comm,
            &Expr::bin(BinOp::Add, Type::I32, r(1), r(0))
        ));
        // Non-commutative operators do not commute.
        let sub = Expr::bin(BinOp::Sub, Type::I32, r(0), r(1));
        assert!(!identity_holds(
            &sub,
            &Expr::bin(BinOp::Sub, Type::I32, r(1), r(0))
        ));
        // mul by 8 → shl by 3.
        let mul8 = Expr::bin(BinOp::Mul, Type::I32, r(0), c32(8));
        assert!(identity_holds(
            &mul8,
            &Expr::bin(BinOp::Shl, Type::I32, r(0), c32(3))
        ));
        assert!(!identity_holds(
            &mul8,
            &Expr::bin(BinOp::Shl, Type::I32, r(0), c32(2))
        ));
        // Dropping inbounds is allowed; adding it is not.
        let gi = Expr::Gep {
            inbounds: true,
            ptr: r(0),
            offset: TValue::int(Type::I64, 4),
        };
        let gp = Expr::Gep {
            inbounds: false,
            ptr: r(0),
            offset: TValue::int(Type::I64, 4),
        };
        assert!(identity_holds(&gi, &gp));
        assert!(!identity_holds(&gp, &gi));
    }

    #[test]
    fn identity_rule_requires_anchor_premise() {
        let q = Assertion::new();
        let rule = ArithRule::Identity {
            side: Side::Src,
            anchor: Expr::Value(r(5)),
            from: Expr::bin(BinOp::Add, Type::I32, r(0), c32(0)),
            to: Expr::Value(r(0)),
        };
        assert!(apply_arith(&rule, &q).is_err());

        let mut q = Assertion::new();
        q.src.insert_lessdef(
            Expr::Value(r(5)),
            Expr::bin(BinOp::Add, Type::I32, r(0), c32(0)),
        );
        let q2 = apply_arith(&rule, &q).unwrap();
        assert!(q2.src.has_lessdef(&Expr::Value(r(5)), &Expr::Value(r(0))));
    }

    #[test]
    fn bogus_identity_rejected() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            Expr::Value(r(5)),
            Expr::bin(BinOp::Add, Type::I32, r(0), c32(1)),
        );
        let rule = ArithRule::Identity {
            side: Side::Src,
            anchor: Expr::Value(r(5)),
            from: Expr::bin(BinOp::Add, Type::I32, r(0), c32(1)),
            to: Expr::Value(r(0)), // add 1 is NOT the identity
        };
        assert!(apply_arith(&rule, &q)
            .unwrap_err()
            .contains("not a verified identity"));
    }

    #[test]
    fn assoc_add_matches_paper_example() {
        // Fig 2: x ⊒ add a 1, y ⊒ add x 2 ⊢ y ⊒ add a 3.
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            Expr::Value(r(1)),
            Expr::bin(BinOp::Add, Type::I32, r(0), c32(1)),
        );
        q.src.insert_lessdef(
            Expr::Value(r(2)),
            Expr::bin(BinOp::Add, Type::I32, r(1), c32(2)),
        );
        let rule = ArithRule::AddAssoc {
            side: Side::Src,
            op: BinOp::Add,
            ty: Type::I32,
            x: r(1),
            y: r(2),
            a: r(0),
            c1: Const::int(Type::I32, 1),
            c2: Const::int(Type::I32, 2),
        };
        let q2 = apply_arith(&rule, &q).unwrap();
        assert!(q2.src.has_lessdef(
            &Expr::Value(r(2)),
            &Expr::bin(BinOp::Add, Type::I32, r(0), c32(3))
        ));
    }

    #[test]
    fn sub_add_and_xor_folds() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            Expr::Value(r(1)),
            Expr::bin(BinOp::Add, Type::I32, r(0), r(9)),
        );
        q.src.insert_lessdef(
            Expr::Value(r(2)),
            Expr::bin(BinOp::Sub, Type::I32, r(1), r(9)),
        );
        let rule = ArithRule::SubAddFold {
            side: Side::Src,
            ty: Type::I32,
            t: r(1),
            y: r(2),
            a: r(0),
            b: r(9),
        };
        let q2 = apply_arith(&rule, &q).unwrap();
        assert!(q2.src.has_lessdef(&Expr::Value(r(2)), &Expr::Value(r(0))));

        let mut q = Assertion::new();
        q.tgt.insert_lessdef(
            Expr::Value(r(1)),
            Expr::bin(BinOp::Xor, Type::I32, r(0), r(9)),
        );
        q.tgt.insert_lessdef(
            Expr::Value(r(2)),
            Expr::bin(BinOp::Xor, Type::I32, r(9), r(1)),
        );
        let rule = ArithRule::XorXorFold {
            side: Side::Tgt,
            ty: Type::I32,
            t: r(1),
            y: r(2),
            a: r(0),
            b: r(9),
        };
        let q2 = apply_arith(&rule, &q).unwrap();
        assert!(q2.tgt.has_lessdef(&Expr::Value(r(2)), &Expr::Value(r(0))));
    }

    #[test]
    fn cast_composition() {
        // zext i8→i16 then zext i16→i32 ≡ zext i8→i32.
        let got = compose_casts(
            CastOp::Zext,
            Type::I8,
            Type::I16,
            CastOp::Zext,
            Type::I32,
            &r(0),
        )
        .unwrap();
        assert_eq!(
            got,
            Expr::Cast {
                op: CastOp::Zext,
                from: Type::I8,
                a: r(0),
                to: Type::I32
            }
        );
        // zext i8→i32 then trunc i32→i8 is the identity.
        let got = compose_casts(
            CastOp::Zext,
            Type::I8,
            Type::I32,
            CastOp::Trunc,
            Type::I8,
            &r(0),
        )
        .unwrap();
        assert_eq!(got, Expr::Value(r(0)));
        // trunc then zext does NOT compose (information lost).
        assert!(compose_casts(
            CastOp::Trunc,
            Type::I32,
            Type::I8,
            CastOp::Zext,
            Type::I32,
            &r(0)
        )
        .is_none());
    }

    #[test]
    fn gep_gep_fold_keeps_inbounds_conjunction() {
        let mut q = Assertion::new();
        let p = r(0);
        q.src.insert_lessdef(
            Expr::Value(r(1)),
            Expr::Gep {
                inbounds: true,
                ptr: p.clone(),
                offset: TValue::int(Type::I64, 2),
            },
        );
        q.src.insert_lessdef(
            Expr::Value(r(2)),
            Expr::Gep {
                inbounds: false,
                ptr: r(1),
                offset: TValue::int(Type::I64, 3),
            },
        );
        let rule = ArithRule::GepGepFold {
            side: Side::Src,
            ib1: true,
            ib2: false,
            t: r(1),
            y: r(2),
            p: p.clone(),
            c1: Const::int(Type::I64, 2),
            c2: Const::int(Type::I64, 3),
        };
        let q2 = apply_arith(&rule, &q).unwrap();
        assert!(q2.src.has_lessdef(
            &Expr::Value(r(2)),
            &Expr::Gep {
                inbounds: false,
                ptr: p,
                offset: TValue::int(Type::I64, 5)
            }
        ));
    }
}
