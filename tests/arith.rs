//! `crellvm_ir::arith` — the one integer arithmetic of the checker's
//! folder, both interpreter tiers and the rule semantics — checked
//! against Rust's native integer operations: exhaustively at i8, by truth
//! table at i1, and on edge and random operands at i16, i32 and i64.

use crellvm::ir::arith::{self, Fault};
use crellvm::ir::{BinOp, CastOp, IcmpPred, Type};

const PREDS: [IcmpPred; 10] = [
    IcmpPred::Eq,
    IcmpPred::Ne,
    IcmpPred::Ugt,
    IcmpPred::Uge,
    IcmpPred::Ult,
    IcmpPred::Ule,
    IcmpPred::Sgt,
    IcmpPred::Sge,
    IcmpPred::Slt,
    IcmpPred::Sle,
];

/// Bits above the width that every operand may carry: `arith` must read
/// only the low bits.
const JUNK: u64 = 0xdead_beef_0000_0000;

/// The reference for one width: `bin` and `icmp` on the native unsigned
/// type and its signed twin. `checked_div` fails exactly where LLVM traps
/// (by 0, and `MIN / -1`), and `checked_shl` where a shift over-shifts.
macro_rules! native {
    ($bin:ident, $icmp:ident, $u:ty, $i:ty) => {
        fn $bin(op: BinOp, a: u64, b: u64) -> Result<u64, Fault> {
            let (ua, ub) = (a as $u, b as $u);
            let (sa, sb) = (ua as $i, ub as $i);
            let amount = u32::try_from(ub).ok();
            let r = match op {
                BinOp::Add => ua.wrapping_add(ub),
                BinOp::Sub => ua.wrapping_sub(ub),
                BinOp::Mul => ua.wrapping_mul(ub),
                BinOp::UDiv => ua.checked_div(ub).ok_or(Fault::Trap)?,
                BinOp::URem => ua.checked_rem(ub).ok_or(Fault::Trap)?,
                BinOp::SDiv => sa.checked_div(sb).ok_or(Fault::Trap)? as $u,
                BinOp::SRem => sa.checked_rem(sb).ok_or(Fault::Trap)? as $u,
                BinOp::Shl => amount
                    .and_then(|s| ua.checked_shl(s))
                    .ok_or(Fault::OverShift)?,
                BinOp::LShr => amount
                    .and_then(|s| ua.checked_shr(s))
                    .ok_or(Fault::OverShift)?,
                BinOp::AShr => amount
                    .and_then(|s| sa.checked_shr(s))
                    .ok_or(Fault::OverShift)? as $u,
                BinOp::And => ua & ub,
                BinOp::Or => ua | ub,
                BinOp::Xor => ua ^ ub,
            };
            Ok(r as u64)
        }

        fn $icmp(pred: IcmpPred, a: u64, b: u64) -> bool {
            let (ua, ub) = (a as $u, b as $u);
            let (sa, sb) = (ua as $i, ub as $i);
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
    };
}

native!(bin8, icmp8, u8, i8);
native!(bin16, icmp16, u16, i16);
native!(bin32, icmp32, u32, i32);
native!(bin64, icmp64, u64, i64);

type BinRef = fn(BinOp, u64, u64) -> Result<u64, Fault>;
type IcmpRef = fn(IcmpPred, u64, u64) -> bool;

/// Compare `arith` with the reference on one operand pair, with and
/// without junk above the width.
fn check_pair(ty: Type, bin: BinRef, icmp: IcmpRef, a: u64, b: u64) {
    let (a, b) = (ty.truncate(a), ty.truncate(b));
    for (x, y) in [(a, b), (a | (JUNK & !ty.mask()), b | (JUNK & !ty.mask()))] {
        for op in BinOp::all() {
            assert_eq!(
                arith::bin(op, ty, x, y),
                bin(op, a, b),
                "{op} {ty} {a:#x}, {b:#x}"
            );
        }
        for pred in PREDS {
            assert_eq!(
                arith::icmp(pred, ty, x, y),
                icmp(pred, a, b),
                "icmp {pred} {ty} {a:#x}, {b:#x}"
            );
        }
    }
}

#[test]
fn every_i8_pair_matches_native() {
    for a in 0..=0xffu64 {
        for b in 0..=0xffu64 {
            check_pair(Type::I8, bin8, icmp8, a, b);
        }
    }
}

/// Operands that find the corners: 0, ±1, ±2, MIN, MAX and their
/// neighbours, and every shift amount around the width.
fn edges(ty: Type) -> Vec<u64> {
    let w = u64::from(ty.bits());
    let min = 1u64 << (w - 1);
    let mut v = vec![0, 1, 2, 3, 7, min, min + 1, min - 1, min - 2];
    v.extend([1, 2, 3].map(|k| ty.truncate(0u64.wrapping_sub(k))));
    v.extend((w - 2..=w + 1).chain([w * 2, 255, 256]));
    v
}

/// splitmix64: a fixed, dependency-free stream of test operands.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random operand, often small or small-negative so that divisions by
/// −1 and short shifts come up.
fn operand(state: &mut u64) -> u64 {
    let v = next(state);
    let shift = next(state) % 64;
    match v % 4 {
        0 => v >> shift,
        1 => !(v >> shift),
        _ => v,
    }
}

fn sweep(ty: Type, bin: BinRef, icmp: IcmpRef, seed: u64) {
    let e = edges(ty);
    for &a in &e {
        for &b in &e {
            check_pair(ty, bin, icmp, a, b);
        }
    }
    let mut state = seed;
    for _ in 0..100_000 {
        let (a, b) = (operand(&mut state), operand(&mut state));
        check_pair(ty, bin, icmp, a, b);
    }
}

#[test]
fn random_i16_pairs_match_native() {
    sweep(Type::I16, bin16, icmp16, 16);
}

#[test]
fn random_i32_pairs_match_native() {
    sweep(Type::I32, bin32, icmp32, 32);
}

#[test]
fn random_i64_pairs_match_native() {
    sweep(Type::I64, bin64, icmp64, 64);
}

#[test]
fn i1_truth_table() {
    const T: Result<u64, Fault> = Err(Fault::Trap);
    const S: Result<u64, Fault> = Err(Fault::OverShift);
    // Operands (a, b) = (0, 0), (0, 1), (1, 0), (1, 1); signed, 1 is −1
    // and also MIN, so `sdiv 1, 1` overflows.
    let pairs = [(0, 0), (0, 1), (1, 0), (1, 1)];
    let bins: [(BinOp, [Result<u64, Fault>; 4]); 13] = [
        (BinOp::Add, [Ok(0), Ok(1), Ok(1), Ok(0)]),
        (BinOp::Sub, [Ok(0), Ok(1), Ok(1), Ok(0)]),
        (BinOp::Mul, [Ok(0), Ok(0), Ok(0), Ok(1)]),
        (BinOp::UDiv, [T, Ok(0), T, Ok(1)]),
        (BinOp::SDiv, [T, Ok(0), T, T]),
        (BinOp::URem, [T, Ok(0), T, Ok(0)]),
        (BinOp::SRem, [T, Ok(0), T, T]),
        (BinOp::Shl, [Ok(0), S, Ok(1), S]),
        (BinOp::LShr, [Ok(0), S, Ok(1), S]),
        (BinOp::AShr, [Ok(0), S, Ok(1), S]),
        (BinOp::And, [Ok(0), Ok(0), Ok(0), Ok(1)]),
        (BinOp::Or, [Ok(0), Ok(1), Ok(1), Ok(1)]),
        (BinOp::Xor, [Ok(0), Ok(1), Ok(1), Ok(0)]),
    ];
    for (op, want) in bins {
        for ((a, b), w) in pairs.into_iter().zip(want) {
            assert_eq!(arith::bin(op, Type::I1, a, b), w, "{op} i1 {a}, {b}");
        }
    }
    let (t, f) = (true, false);
    let cmps = [
        (IcmpPred::Eq, [t, f, f, t]),
        (IcmpPred::Ne, [f, t, t, f]),
        (IcmpPred::Ugt, [f, f, t, f]),
        (IcmpPred::Uge, [t, f, t, t]),
        (IcmpPred::Ult, [f, t, f, f]),
        (IcmpPred::Ule, [t, t, f, t]),
        (IcmpPred::Sgt, [f, t, f, f]),
        (IcmpPred::Sge, [t, t, f, t]),
        (IcmpPred::Slt, [f, f, t, f]),
        (IcmpPred::Sle, [t, f, t, t]),
    ];
    for (pred, want) in cmps {
        for ((a, b), w) in pairs.into_iter().zip(want) {
            assert_eq!(arith::icmp(pred, Type::I1, a, b), w, "{pred} i1 {a}, {b}");
        }
    }
    // zext and sext of i1 to i8.
    for (bit, z, s) in [(0u64, 0u64, 0u64), (1, 1, 0xff)] {
        assert_eq!(arith::cast(CastOp::Zext, Type::I1, Type::I8, bit), Some(z));
        assert_eq!(arith::cast(CastOp::Sext, Type::I1, Type::I8, bit), Some(s));
    }
}

#[test]
fn i8_casts_match_native() {
    let wider = Type::int_types().into_iter().filter(|t| t.bits() > 8);
    for to in wider {
        for x in 0..=0xffu64 {
            let junk = x | (JUNK & !Type::I8.mask());
            let zext = x as u8 as u64;
            let sext = to.truncate(x as u8 as i8 as i64 as u64);
            assert_eq!(arith::cast(CastOp::Zext, Type::I8, to, junk), Some(zext));
            assert_eq!(arith::cast(CastOp::Sext, Type::I8, to, junk), Some(sext));
            // trunc back: every low byte under zero, all-ones and mixed
            // high parts.
            for high in [0, u64::MAX, JUNK] {
                let v = to.truncate(high & !0xff) | x;
                assert_eq!(
                    arith::cast(CastOp::Trunc, to, Type::I8, v),
                    Some(v as u8 as u64),
                    "trunc {to} {v:#x}"
                );
            }
        }
    }
    // Every i16 truncates to its low byte.
    for v in 0..=0xffffu64 {
        assert_eq!(
            arith::cast(CastOp::Trunc, Type::I16, Type::I8, v),
            Some(v as u8 as u64)
        );
    }
    // The pointer casts have no bits here.
    for op in [CastOp::PtrToInt, CastOp::IntToPtr] {
        assert_eq!(arith::cast(op, Type::I64, Type::I64, 1), None);
    }
}

#[test]
fn divisor_traps_exactly_on_zero_and_signed_minus_one() {
    for ty in Type::int_types() {
        let minus_one = ty.mask();
        for op in [BinOp::UDiv, BinOp::SDiv, BinOp::URem, BinOp::SRem] {
            let signed = matches!(op, BinOp::SDiv | BinOp::SRem);
            assert!(arith::divisor_traps(op, ty, 0), "{op} {ty} by 0");
            assert_eq!(
                arith::divisor_traps(op, ty, minus_one),
                signed,
                "{op} {ty} by -1"
            );
            if ty.bits() > 2 {
                assert!(!arith::divisor_traps(op, ty, 2), "{op} {ty} by 2");
            }
        }
        assert!(!arith::divisor_traps(BinOp::Add, ty, 0));
    }
}
