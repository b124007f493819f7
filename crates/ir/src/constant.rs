//! Constants and constant expressions.
//!
//! Constant expressions can *trap* (e.g. a division by a zero computed from
//! pointer arithmetic on global addresses, `1 / ((int)G - (int)G)`).
//! Following the Vellvm-style semantics the Crellvm paper relies on, a
//! trapping constant expression does **not** trap when merely stored or
//! loaded; it traps when an executing instruction *consumes* its value
//! (arithmetic, call arguments, branch conditions, addresses). This is the
//! semantic subtlety behind LLVM bug PR33673.

use crate::arith;
use crate::inst::BinOp;
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Const {
    /// Typed integer constant; `bits` is truncated to the width of `ty`.
    Int {
        /// Integer type of the constant.
        ty: Type,
        /// Bit pattern (only the low `ty.bits()` bits are significant).
        bits: u64,
    },
    /// The `undef` value of a given type.
    Undef(Type),
    /// The null pointer.
    Null,
    /// The address of a module-level global, identified by name.
    Global(String),
    /// A constant expression (may trap when evaluated).
    Expr(Box<ConstExpr>),
}

/// A constant expression tree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ConstExpr {
    /// `ptrtoint` of a constant pointer to an integer type.
    PtrToInt(Const, Type),
    /// A binary operation on constants (this is where traps can hide:
    /// `sdiv`/`udiv`/`srem`/`urem` by zero).
    Bin(BinOp, Type, Const, Const),
}

impl Const {
    /// Integer constant helper.
    pub fn int(ty: Type, v: i64) -> Const {
        Const::Int {
            ty,
            bits: ty.truncate(v as u64),
        }
    }

    /// Boolean constant (`i1`).
    pub fn bool(b: bool) -> Const {
        Const::int(Type::I1, b as i64)
    }

    /// The type of this constant.
    pub fn ty(&self) -> Type {
        match self {
            Const::Int { ty, .. } => *ty,
            Const::Undef(ty) => *ty,
            Const::Null | Const::Global(_) => Type::Ptr,
            Const::Expr(e) => e.ty(),
        }
    }

    /// Does evaluating this constant potentially raise undefined behaviour?
    ///
    /// A syntactic over-approximation: any division/remainder inside a
    /// constant expression counts as potentially trapping unless its divisor
    /// is an integer literal no dividend traps on ([`arith::divisor_traps`]),
    /// or both operands are literals that [`arith::bin`] divides.
    pub fn may_trap(&self) -> bool {
        match self {
            Const::Int { .. } | Const::Undef(_) | Const::Null | Const::Global(_) => false,
            Const::Expr(e) => e.may_trap(),
        }
    }
}

impl ConstExpr {
    /// The result type of this constant expression.
    pub fn ty(&self) -> Type {
        match self {
            ConstExpr::PtrToInt(_, ty) => *ty,
            ConstExpr::Bin(_, ty, _, _) => *ty,
        }
    }

    /// See [`Const::may_trap`].
    pub fn may_trap(&self) -> bool {
        match self {
            ConstExpr::PtrToInt(c, _) => c.may_trap(),
            ConstExpr::Bin(op, ty, a, b) => {
                let divisor_trap = match (a, b) {
                    _ if !op.may_trap() => false,
                    _ if !ty.is_int() => true,
                    (Const::Int { bits: x, .. }, Const::Int { bits: y, .. }) => {
                        arith::bin(*op, *ty, *x, *y) == Err(arith::Fault::Trap)
                    }
                    (_, Const::Int { bits: y, .. }) => arith::divisor_traps(*op, *ty, *y),
                    _ => true,
                };
                divisor_trap || a.may_trap() || b.may_trap()
            }
        }
    }
}

impl From<ConstExpr> for Const {
    fn from(e: ConstExpr) -> Const {
        Const::Expr(Box::new(e))
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int { ty, bits } if ty.is_int() => write!(f, "{}", ty.sext(*bits)),
            // Only a hostile proof types a literal otherwise: show its bits.
            Const::Int { bits, .. } => write!(f, "{bits}"),
            Const::Undef(_) => f.write_str("undef"),
            Const::Null => f.write_str("null"),
            Const::Global(name) => write!(f, "@{name}"),
            Const::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for ConstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstExpr::PtrToInt(c, ty) => write!(f, "ptrtoint({c} to {ty})"),
            ConstExpr::Bin(op, ty, a, b) => write!(f, "{op}({ty} {a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's PR33673 constant: `1 / ((i32)G - (i32)G)`.
    fn trapping_div() -> Const {
        let g = Const::Global("G".into());
        let gi: Const = ConstExpr::PtrToInt(g, Type::I32).into();
        let diff: Const = ConstExpr::Bin(BinOp::Sub, Type::I32, gi.clone(), gi).into();
        ConstExpr::Bin(BinOp::SDiv, Type::I32, Const::int(Type::I32, 1), diff).into()
    }

    #[test]
    fn trapping_constexpr_detected() {
        assert!(trapping_div().may_trap());
    }

    #[test]
    fn literal_division_by_nonzero_is_safe() {
        let e: Const = ConstExpr::Bin(
            BinOp::SDiv,
            Type::I32,
            Const::int(Type::I32, 10),
            Const::int(Type::I32, 2),
        )
        .into();
        assert!(!e.may_trap());
    }

    #[test]
    fn signed_division_of_min_by_minus_one_traps() {
        let div = |op, a: i64, b: Const| -> Const {
            ConstExpr::Bin(op, Type::I32, Const::int(Type::I32, a), b).into()
        };
        let m1 = Const::int(Type::I32, -1);
        for op in [BinOp::SDiv, BinOp::SRem] {
            assert!(div(op, i32::MIN as i64, m1.clone()).may_trap(), "{op}");
            // A literal dividend other than MIN cannot overflow…
            assert!(!div(op, 7, m1.clone()).may_trap(), "{op}");
            // …but an unknown one can be MIN.
            let g: Const = ConstExpr::PtrToInt(Const::Global("G".into()), Type::I32).into();
            let e: Const = ConstExpr::Bin(op, Type::I32, g, m1.clone()).into();
            assert!(e.may_trap(), "{op}");
        }
        // Unsigned division by all-ones never overflows.
        assert!(!div(BinOp::UDiv, i32::MIN as i64, m1).may_trap());
    }

    #[test]
    fn truncation_in_ctor() {
        assert_eq!(
            Const::int(Type::I8, 257),
            Const::Int {
                ty: Type::I8,
                bits: 1
            }
        );
        assert_eq!(
            Const::int(Type::I8, -1),
            Const::Int {
                ty: Type::I8,
                bits: 0xff
            }
        );
    }

    #[test]
    fn types() {
        assert_eq!(trapping_div().ty(), Type::I32);
        assert_eq!(Const::Null.ty(), Type::Ptr);
        assert_eq!(Const::Global("x".into()).ty(), Type::Ptr);
        assert_eq!(
            Const::bool(true),
            Const::Int {
                ty: Type::I1,
                bits: 1
            }
        );
    }

    #[test]
    fn display() {
        assert_eq!(Const::int(Type::I8, -1).to_string(), "-1");
        assert_eq!(Const::Undef(Type::I32).to_string(), "undef");
        assert_eq!(
            trapping_div().to_string(),
            "sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32)))"
        );
    }
}
