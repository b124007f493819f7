//! Integer arithmetic on bit patterns: the one definition of what `add`,
//! `sdiv`, `icmp slt` and the integer casts compute.
//!
//! The checker's constant folder, both interpreter tiers and the rule
//! semantics of the tests all call these functions, so they cannot
//! disagree. Each reads only the low `ty.bits()` bits of its operands and
//! truncates its result to its width. Callers pass integer types:
//! [`Type::bits`] panics on any other.

use crate::inst::{BinOp, CastOp, IcmpPred};
use crate::types::Type;

/// Why a binary operation has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Undefined behaviour: a division or remainder by 0, or `sdiv`/`srem`
    /// of the minimum value by −1 (the quotient overflows the width).
    Trap,
    /// A shift by the width or more: the result is `undef`.
    OverShift,
}

/// `a op b` at width `ty`.
#[inline]
pub fn bin(op: BinOp, ty: Type, a: u64, b: u64) -> Result<u64, Fault> {
    let width = u64::from(ty.bits());
    let out = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::UDiv | BinOp::URem if ty.truncate(b) == 0 => return Err(Fault::Trap),
        BinOp::UDiv => ty.truncate(a) / ty.truncate(b),
        BinOp::URem => ty.truncate(a) % ty.truncate(b),
        BinOp::SDiv | BinOp::SRem
            if ty.truncate(b) == 0 || (ty.sext(b) == -1 && ty.truncate(a) == 1 << (width - 1)) =>
        {
            return Err(Fault::Trap)
        }
        BinOp::SDiv => (ty.sext(a) / ty.sext(b)) as u64,
        BinOp::SRem => (ty.sext(a) % ty.sext(b)) as u64,
        BinOp::Shl | BinOp::LShr | BinOp::AShr if ty.truncate(b) >= width => {
            return Err(Fault::OverShift)
        }
        BinOp::Shl => a << ty.truncate(b),
        BinOp::LShr => ty.truncate(a) >> ty.truncate(b),
        BinOp::AShr => (ty.sext(a) >> ty.truncate(b)) as u64,
    };
    Ok(ty.truncate(out))
}

/// Can `op` trap on the divisor `b`, whatever the dividend? The minimum
/// value is the one dividend that traps on a divisor other than 0, so
/// [`bin`] decides on it.
#[inline]
pub fn divisor_traps(op: BinOp, ty: Type, b: u64) -> bool {
    bin(op, ty, 1 << (ty.bits() - 1), b) == Err(Fault::Trap)
}

/// `icmp pred a, b` at width `ty`.
#[inline]
pub fn icmp(pred: IcmpPred, ty: Type, a: u64, b: u64) -> bool {
    let (ua, ub) = (ty.truncate(a), ty.truncate(b));
    let (sa, sb) = (ty.sext(a), ty.sext(b));
    match pred {
        IcmpPred::Eq => ua == ub,
        IcmpPred::Ne => ua != ub,
        IcmpPred::Ugt => ua > ub,
        IcmpPred::Uge => ua >= ub,
        IcmpPred::Ult => ua < ub,
        IcmpPred::Ule => ua <= ub,
        IcmpPred::Sgt => sa > sb,
        IcmpPred::Sge => sa >= sb,
        IcmpPred::Slt => sa < sb,
        IcmpPred::Sle => sa <= sb,
    }
}

/// The integer cast `op` of `bits` from `from` to `to`; `None` for
/// `ptrtoint` and `inttoptr`, whose pointer side has no bits here.
#[inline]
pub fn cast(op: CastOp, from: Type, to: Type, bits: u64) -> Option<u64> {
    let bits = match op {
        CastOp::Trunc | CastOp::Zext | CastOp::Bitcast => from.truncate(bits),
        CastOp::Sext => from.sext(bits) as u64,
        CastOp::PtrToInt | CastOp::IntToPtr => return None,
    };
    Some(to.truncate(bits))
}
