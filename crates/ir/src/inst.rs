//! Instructions and terminators.

use crate::function::{BlockId, RegId};
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (UB on division by zero).
    UDiv,
    /// Signed division (UB on division by zero or `MIN / -1`).
    SDiv,
    /// Unsigned remainder (UB on zero divisor).
    URem,
    /// Signed remainder (UB on zero divisor or `MIN % -1`).
    SRem,
    /// Left shift (`undef` result on over-shift).
    Shl,
    /// Logical right shift (`undef` result on over-shift).
    LShr,
    /// Arithmetic right shift (`undef` result on over-shift).
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// Is the operator commutative?
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Can executing the operator raise undefined behaviour?
    #[inline]
    pub fn may_trap(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }

    /// All binary operators.
    pub fn all() -> [BinOp; 13] {
        use BinOp::*;
        [
            Add, Sub, Mul, UDiv, SDiv, URem, SRem, Shl, LShr, AShr, And, Or, Xor,
        ]
    }

    /// Mnemonic, as printed in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl std::str::FromStr for BinOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BinOp::all()
            .into_iter()
            .find(|op| op.mnemonic() == s)
            .ok_or(())
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl IcmpPred {
    /// The predicate with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> IcmpPred {
        use IcmpPred::*;
        match self {
            Eq => Eq,
            Ne => Ne,
            Ugt => Ult,
            Uge => Ule,
            Ult => Ugt,
            Ule => Uge,
            Sgt => Slt,
            Sge => Sle,
            Slt => Sgt,
            Sle => Sge,
        }
    }

    /// The logical negation (`a < b` ⇔ `!(a >= b)`).
    pub fn negated(self) -> IcmpPred {
        use IcmpPred::*;
        match self {
            Eq => Ne,
            Ne => Eq,
            Ugt => Ule,
            Uge => Ult,
            Ult => Uge,
            Ule => Ugt,
            Sgt => Sle,
            Sge => Slt,
            Slt => Sge,
            Sle => Sgt,
        }
    }

    /// All predicates.
    pub fn all() -> [IcmpPred; 10] {
        use IcmpPred::*;
        [Eq, Ne, Ugt, Uge, Ult, Ule, Sgt, Sge, Slt, Sle]
    }

    /// Mnemonic, as printed in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
        }
    }
}

impl fmt::Display for IcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl std::str::FromStr for IcmpPred {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IcmpPred::all()
            .into_iter()
            .find(|p| p.mnemonic() == s)
            .ok_or(())
    }
}

/// Cast operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CastOp {
    /// Truncate to a narrower integer type.
    Trunc,
    /// Zero-extend to a wider integer type.
    Zext,
    /// Sign-extend to a wider integer type.
    Sext,
    /// Pointer to integer.
    PtrToInt,
    /// Integer to pointer.
    IntToPtr,
    /// Reinterpret at identical width (here: i64 <-> i64, ptr <-> ptr).
    Bitcast,
}

impl CastOp {
    /// All cast operators.
    pub fn all() -> [CastOp; 6] {
        use CastOp::*;
        [Trunc, Zext, Sext, PtrToInt, IntToPtr, Bitcast]
    }

    /// Mnemonic, as printed in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
            CastOp::Bitcast => "bitcast",
        }
    }
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl std::str::FromStr for CastOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CastOp::all()
            .into_iter()
            .find(|op| op.mnemonic() == s)
            .ok_or(())
    }
}

/// A non-terminator, non-phi instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `op ty lhs, rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `icmp pred ty lhs, rhs` — result has type `i1`.
    Icmp {
        /// Comparison predicate.
        pred: IcmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `select i1 cond, ty on_true, on_false`.
    Select {
        /// Result/branch type.
        ty: Type,
        /// Condition (`i1`).
        cond: Value,
        /// Value when the condition is true.
        on_true: Value,
        /// Value when the condition is false.
        on_false: Value,
    },
    /// A cast between value types.
    Cast {
        /// Cast operator.
        op: CastOp,
        /// Source type.
        from: Type,
        /// Operand.
        val: Value,
        /// Destination type.
        to: Type,
    },
    /// `alloca ty, count` — allocate `count` slots of `ty` in a fresh block.
    Alloca {
        /// Element type.
        ty: Type,
        /// Number of slots (static).
        count: u64,
    },
    /// `load ty, ptr p`.
    Load {
        /// Loaded type.
        ty: Type,
        /// Address.
        ptr: Value,
    },
    /// `store ty v, ptr p` (no result).
    Store {
        /// Stored type.
        ty: Type,
        /// Stored value.
        val: Value,
        /// Address.
        ptr: Value,
    },
    /// `gep [inbounds] ptr p, i64 off` — slot-indexed address arithmetic.
    ///
    /// With `inbounds`, an out-of-bounds result is `undef` (poison in real
    /// LLVM; the distinction does not matter for the bugs we reproduce, per
    /// the paper's footnote 4). Without it, the address is always computed.
    Gep {
        /// Whether the `inbounds` flag is set.
        inbounds: bool,
        /// Base address.
        ptr: Value,
        /// Slot offset (i64).
        offset: Value,
    },
    /// A (possibly external) function call.
    Call {
        /// Return type (`None` = void).
        ret: Option<Type>,
        /// Callee name.
        callee: String,
        /// Typed arguments.
        args: Vec<(Type, Value)>,
    },
    /// Stand-in for IR features the validator does not support (vector ops,
    /// aggregates, atomics, lifetime intrinsics). Translations touching
    /// these are counted as "not supported" (#NS), as in the paper §7.
    Unsupported {
        /// Which unsupported feature family this models.
        feature: String,
    },
}

impl Inst {
    /// The type of the value the instruction produces, if any.
    pub fn result_ty(&self) -> Option<Type> {
        match self {
            Inst::Bin { ty, .. } => Some(*ty),
            Inst::Icmp { .. } => Some(Type::I1),
            Inst::Select { ty, .. } => Some(*ty),
            Inst::Cast { to, .. } => Some(*to),
            Inst::Alloca { .. } | Inst::Gep { .. } => Some(Type::Ptr),
            Inst::Load { ty, .. } => Some(*ty),
            Inst::Store { .. } => None,
            Inst::Call { ret, .. } => *ret,
            Inst::Unsupported { .. } => Some(Type::I64),
        }
    }

    /// Visit every operand.
    pub fn for_each_value(&self, mut f: impl FnMut(&Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Inst::Cast { val, .. } => f(val),
            Inst::Alloca { .. } | Inst::Unsupported { .. } => {}
            Inst::Load { ptr, .. } => f(ptr),
            Inst::Store { val, ptr, .. } => {
                f(val);
                f(ptr);
            }
            Inst::Gep { ptr, offset, .. } => {
                f(ptr);
                f(offset);
            }
            Inst::Call { args, .. } => {
                for (_, a) in args {
                    f(a);
                }
            }
        }
    }

    /// Visit every operand mutably.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Inst::Cast { val, .. } => f(val),
            Inst::Alloca { .. } | Inst::Unsupported { .. } => {}
            Inst::Load { ptr, .. } => f(ptr),
            Inst::Store { val, ptr, .. } => {
                f(val);
                f(ptr);
            }
            Inst::Gep { ptr, offset, .. } => {
                f(ptr);
                f(offset);
            }
            Inst::Call { args, .. } => {
                for (_, a) in args {
                    f(a);
                }
            }
        }
    }

    /// Registers used by the instruction's operands.
    pub fn used_regs(&self) -> Vec<RegId> {
        let mut out = Vec::new();
        self.for_each_value(|v| {
            if let Some(r) = v.as_reg() {
                out.push(r);
            }
        });
        out
    }

    /// Replace every use of register `from` with `to`; returns the number of
    /// replacements.
    pub fn replace_uses(&mut self, from: RegId, to: &Value) -> usize {
        let mut n = 0;
        self.for_each_value_mut(|v| {
            if v.replace(from, to) {
                n += 1;
            }
        });
        n
    }

    /// Is this instruction free of side effects and traps (so that it may be
    /// removed if unused, or hoisted by LICM)?
    ///
    /// Loads are side-effect-free in the ERHL sense (they produce an
    /// expression), but they are *not* pure for hoisting purposes, so they
    /// are excluded here.
    pub fn is_pure(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => !op.may_trap(),
            Inst::Icmp { .. } | Inst::Select { .. } | Inst::Cast { .. } | Inst::Gep { .. } => true,
            Inst::Alloca { .. }
            | Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::Call { .. }
            | Inst::Unsupported { .. } => false,
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// Return, with an optional typed value.
    Ret(Option<(Type, Value)>),
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on an `i1`.
    CondBr {
        /// Condition (`i1`).
        cond: Value,
        /// Target when true.
        if_true: BlockId,
        /// Target when false.
        if_false: BlockId,
    },
    /// Multi-way branch on an integer.
    Switch {
        /// Scrutinee type.
        ty: Type,
        /// Scrutinee.
        val: Value,
        /// Default target.
        default: BlockId,
        /// `(case value, target)` pairs.
        cases: Vec<(u64, BlockId)>,
    },
    /// Unreachable (UB if executed).
    Unreachable,
}

impl Term {
    /// Successor blocks, in branch order (may contain duplicates).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Ret(_) | Term::Unreachable => Vec::new(),
            Term::Br(b) => vec![*b],
            Term::CondBr {
                if_true, if_false, ..
            } => vec![*if_true, *if_false],
            Term::Switch { default, cases, .. } => {
                let mut out = vec![*default];
                out.extend(cases.iter().map(|(_, b)| *b));
                out
            }
        }
    }

    /// Visit every operand.
    pub fn for_each_value(&self, mut f: impl FnMut(&Value)) {
        match self {
            Term::Ret(Some((_, v))) => f(v),
            Term::CondBr { cond, .. } => f(cond),
            Term::Switch { val, .. } => f(val),
            Term::Ret(None) | Term::Br(_) | Term::Unreachable => {}
        }
    }

    /// Visit every operand mutably.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Term::Ret(Some((_, v))) => f(v),
            Term::CondBr { cond, .. } => f(cond),
            Term::Switch { val, .. } => f(val),
            Term::Ret(None) | Term::Br(_) | Term::Unreachable => {}
        }
    }

    /// Replace every use of register `from` with `to`; returns the number of
    /// replacements.
    pub fn replace_uses(&mut self, from: RegId, to: &Value) -> usize {
        let mut n = 0;
        self.for_each_value_mut(|v| {
            if v.replace(from, to) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_and_traps() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::SDiv.may_trap());
        assert!(!BinOp::Xor.may_trap());
    }

    #[test]
    fn pred_involutions() {
        for p in IcmpPred::all() {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.negated().negated(), p);
        }
        assert_eq!(IcmpPred::Slt.swapped(), IcmpPred::Sgt);
        assert_eq!(IcmpPred::Slt.negated(), IcmpPred::Sge);
    }

    #[test]
    fn mnemonic_round_trips() {
        for op in BinOp::all() {
            assert_eq!(op.mnemonic().parse::<BinOp>(), Ok(op));
        }
        for p in IcmpPred::all() {
            assert_eq!(p.mnemonic().parse::<IcmpPred>(), Ok(p));
        }
        for c in CastOp::all() {
            assert_eq!(c.mnemonic().parse::<CastOp>(), Ok(c));
        }
    }

    #[test]
    fn operand_iteration_and_replacement() {
        let r = RegId::from_index(0);
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Value::Reg(r),
            rhs: Value::Reg(r),
        };
        assert_eq!(i.used_regs(), vec![r, r]);
        assert_eq!(i.replace_uses(r, &Value::int(Type::I32, 5)), 2);
        assert_eq!(i.used_regs(), Vec::<RegId>::new());
    }

    #[test]
    fn result_types() {
        assert_eq!(
            Inst::Icmp {
                pred: IcmpPred::Eq,
                ty: Type::I32,
                lhs: Value::int(Type::I32, 0),
                rhs: Value::int(Type::I32, 0)
            }
            .result_ty(),
            Some(Type::I1)
        );
        assert_eq!(
            Inst::Store {
                ty: Type::I32,
                val: Value::int(Type::I32, 0),
                ptr: Value::Const(Const::Null)
            }
            .result_ty(),
            None
        );
        assert_eq!(
            Inst::Alloca {
                ty: Type::I32,
                count: 1
            }
            .result_ty(),
            Some(Type::Ptr)
        );
    }

    #[test]
    fn successors_in_order() {
        let t = Term::Switch {
            ty: Type::I32,
            val: Value::int(Type::I32, 0),
            default: BlockId::from_index(0),
            cases: vec![(1, BlockId::from_index(2)), (2, BlockId::from_index(1))],
        };
        assert_eq!(
            t.successors(),
            vec![
                BlockId::from_index(0),
                BlockId::from_index(2),
                BlockId::from_index(1)
            ]
        );
    }

    use crate::constant::Const;
}
