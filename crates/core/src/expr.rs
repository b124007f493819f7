//! Tagged registers, values, and assertion-level expressions (paper §G).
//!
//! ERHL assertions talk about *tagged* registers: physical registers of the
//! program (`Phy`), logical ghost registers introduced by proofs (`Ghost`,
//! written `p̂` in the paper), and *old* registers representing a register's
//! value before the phi-nodes of the current block executed (`Old`, written
//! `z̄`, §4).
//!
//! An [`Expr`] is the right-hand side of a side-effect-free instruction
//! whose operands are tagged values. Note that `load` *is* an expression
//! (it is side-effect-free apart from UB), while `store` is not.

use crellvm_ir::{BinOp, CastOp, Const, IcmpPred, Inst, RegId, Type, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which side of the relational assertion an expression/rule lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The source program state.
    Src,
    /// The target program state.
    Tgt,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Src => Side::Tgt,
            Side::Tgt => Side::Src,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Src => "src",
            Side::Tgt => "tgt",
        })
    }
}

/// A tagged register.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TReg {
    /// A physical register of the program.
    Phy(RegId),
    /// A ghost register introduced by the proof (named).
    Ghost(String),
    /// The *old* value of a physical register (before the current block's
    /// phi-nodes executed).
    Old(RegId),
}

impl TReg {
    /// Ghost-register shorthand.
    pub fn ghost(name: impl Into<String>) -> TReg {
        TReg::Ghost(name.into())
    }

    /// Is this a physical register?
    pub fn is_phy(&self) -> bool {
        matches!(self, TReg::Phy(_))
    }
}

impl From<RegId> for TReg {
    fn from(r: RegId) -> TReg {
        TReg::Phy(r)
    }
}

impl fmt::Display for TReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TReg::Phy(r) => write!(f, "{r}"),
            TReg::Ghost(g) => write!(f, "^{g}"),
            TReg::Old(r) => write!(f, "~{r}"),
        }
    }
}

/// A tagged value: a tagged register or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TValue {
    /// A tagged register.
    Reg(TReg),
    /// A constant.
    Const(Const),
}

impl TValue {
    /// Physical-register shorthand.
    pub fn phy(r: RegId) -> TValue {
        TValue::Reg(TReg::Phy(r))
    }

    /// Ghost-register shorthand.
    pub fn ghost(name: impl Into<String>) -> TValue {
        TValue::Reg(TReg::ghost(name))
    }

    /// Old-register shorthand.
    pub fn old(r: RegId) -> TValue {
        TValue::Reg(TReg::Old(r))
    }

    /// Integer-constant shorthand.
    pub fn int(ty: Type, v: i64) -> TValue {
        TValue::Const(Const::int(ty, v))
    }

    /// Lift an untagged IR operand, tagging registers with `Phy`.
    pub fn of_value(v: &Value) -> TValue {
        match v {
            Value::Reg(r) => TValue::phy(*r),
            Value::Const(c) => TValue::Const(c.clone()),
        }
    }

    /// The tagged register, if any.
    pub fn as_reg(&self) -> Option<&TReg> {
        match self {
            TValue::Reg(r) => Some(r),
            TValue::Const(_) => None,
        }
    }

    /// Retag every `Phy` register to `Old` (used by the phi-node
    /// post-assertion computation, §4).
    pub fn phy_to_old(&self) -> TValue {
        match self {
            TValue::Reg(TReg::Phy(r)) => TValue::Reg(TReg::Old(*r)),
            other => other.clone(),
        }
    }
}

impl From<TReg> for TValue {
    fn from(r: TReg) -> TValue {
        TValue::Reg(r)
    }
}

impl From<Const> for TValue {
    fn from(c: Const) -> TValue {
        TValue::Const(c)
    }
}

impl fmt::Display for TValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TValue::Reg(r) => write!(f, "{r}"),
            TValue::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An assertion-level expression: the RHS of a side-effect-free
/// instruction over tagged values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A bare value.
    Value(TValue),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: Type,
        /// Left operand.
        a: TValue,
        /// Right operand.
        b: TValue,
    },
    /// Integer comparison.
    Icmp {
        /// Predicate.
        pred: IcmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        a: TValue,
        /// Right operand.
        b: TValue,
    },
    /// Select.
    Select {
        /// Result type.
        ty: Type,
        /// Condition.
        cond: TValue,
        /// Value if true.
        t: TValue,
        /// Value if false.
        f: TValue,
    },
    /// Cast.
    Cast {
        /// Operator.
        op: CastOp,
        /// Source type.
        from: Type,
        /// Operand.
        a: TValue,
        /// Destination type.
        to: Type,
    },
    /// Address arithmetic (the `inbounds` flag is part of the expression:
    /// `gep inbounds` and plain `gep` are *different* expressions — this is
    /// exactly the distinction LLVM's gvn erased in PR28562/PR29057).
    Gep {
        /// Whether `inbounds` is set.
        inbounds: bool,
        /// Base pointer.
        ptr: TValue,
        /// Slot offset.
        offset: TValue,
    },
    /// Memory load (side-effect-free, hence an expression; paper §G).
    Load {
        /// Loaded type.
        ty: Type,
        /// Address.
        ptr: TValue,
    },
}

impl Expr {
    /// A bare-value expression.
    pub fn value(v: impl Into<TValue>) -> Expr {
        Expr::Value(v.into())
    }

    /// `undef` of a type.
    pub fn undef(ty: Type) -> Expr {
        Expr::Value(TValue::Const(Const::Undef(ty)))
    }

    /// Binary-op shorthand.
    pub fn bin(op: BinOp, ty: Type, a: impl Into<TValue>, b: impl Into<TValue>) -> Expr {
        Expr::Bin {
            op,
            ty,
            a: a.into(),
            b: b.into(),
        }
    }

    /// Load shorthand (`*p` in the paper's notation).
    pub fn load(ty: Type, ptr: impl Into<TValue>) -> Expr {
        Expr::Load {
            ty,
            ptr: ptr.into(),
        }
    }

    /// Lift an instruction's RHS into an expression, tagging register
    /// operands as `Phy`. Returns `None` for side-effecting instructions
    /// (`store`, `call`, `alloca`, `unsupported`).
    pub fn of_inst(inst: &Inst) -> Option<Expr> {
        match inst {
            Inst::Bin { op, ty, lhs, rhs } => Some(Expr::Bin {
                op: *op,
                ty: *ty,
                a: TValue::of_value(lhs),
                b: TValue::of_value(rhs),
            }),
            Inst::Icmp { pred, ty, lhs, rhs } => Some(Expr::Icmp {
                pred: *pred,
                ty: *ty,
                a: TValue::of_value(lhs),
                b: TValue::of_value(rhs),
            }),
            Inst::Select {
                ty,
                cond,
                on_true,
                on_false,
            } => Some(Expr::Select {
                ty: *ty,
                cond: TValue::of_value(cond),
                t: TValue::of_value(on_true),
                f: TValue::of_value(on_false),
            }),
            Inst::Cast { op, from, val, to } => Some(Expr::Cast {
                op: *op,
                from: *from,
                a: TValue::of_value(val),
                to: *to,
            }),
            Inst::Gep {
                inbounds,
                ptr,
                offset,
            } => Some(Expr::Gep {
                inbounds: *inbounds,
                ptr: TValue::of_value(ptr),
                offset: TValue::of_value(offset),
            }),
            Inst::Load { ty, ptr } => Some(Expr::Load {
                ty: *ty,
                ptr: TValue::of_value(ptr),
            }),
            Inst::Alloca { .. }
            | Inst::Store { .. }
            | Inst::Call { .. }
            | Inst::Unsupported { .. } => None,
        }
    }

    /// Visit every operand value.
    pub fn for_each_value(&self, mut f: impl FnMut(&TValue)) {
        match self {
            Expr::Value(v) => f(v),
            Expr::Bin { a, b, .. } | Expr::Icmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Expr::Select { cond, t, f: fv, .. } => {
                f(cond);
                f(t);
                f(fv);
            }
            Expr::Cast { a, .. } => f(a),
            Expr::Gep { ptr, offset, .. } => {
                f(ptr);
                f(offset);
            }
            Expr::Load { ptr, .. } => f(ptr),
        }
    }

    /// All tagged registers mentioned.
    pub fn regs(&self) -> Vec<TReg> {
        let mut out = Vec::new();
        self.for_each_value(|v| {
            if let TValue::Reg(r) = v {
                out.push(r.clone());
            }
        });
        out
    }

    /// Does `f` hold for some tagged register of the expression?
    pub(crate) fn any_reg(&self, mut f: impl FnMut(&TReg) -> bool) -> bool {
        let mut found = false;
        self.for_each_value(|v| {
            if let TValue::Reg(r) = v {
                found = found || f(r);
            }
        });
        found
    }

    /// Does the expression mention the tagged register `r`?
    pub fn mentions(&self, r: &TReg) -> bool {
        self.any_reg(|q| q == r)
    }

    /// Is this a load expression?
    pub fn is_load(&self) -> bool {
        matches!(self, Expr::Load { .. })
    }

    /// The pointer of a load expression.
    pub fn load_ptr(&self) -> Option<&TValue> {
        match self {
            Expr::Load { ptr, .. } => Some(ptr),
            _ => None,
        }
    }

    /// Substitute value `from` by `to` in every operand position, returning
    /// the rewritten expression.
    pub fn subst(&self, from: &TValue, to: &TValue) -> Expr {
        let s = |v: &TValue| if v == from { to.clone() } else { v.clone() };
        match self {
            Expr::Value(v) => Expr::Value(s(v)),
            Expr::Bin { op, ty, a, b } => Expr::Bin {
                op: *op,
                ty: *ty,
                a: s(a),
                b: s(b),
            },
            Expr::Icmp { pred, ty, a, b } => Expr::Icmp {
                pred: *pred,
                ty: *ty,
                a: s(a),
                b: s(b),
            },
            Expr::Select { ty, cond, t, f } => Expr::Select {
                ty: *ty,
                cond: s(cond),
                t: s(t),
                f: s(f),
            },
            Expr::Cast {
                op,
                from: fr,
                a,
                to,
            } => Expr::Cast {
                op: *op,
                from: *fr,
                a: s(a),
                to: *to,
            },
            Expr::Gep {
                inbounds,
                ptr,
                offset,
            } => Expr::Gep {
                inbounds: *inbounds,
                ptr: s(ptr),
                offset: s(offset),
            },
            Expr::Load { ty, ptr } => Expr::Load {
                ty: *ty,
                ptr: s(ptr),
            },
        }
    }

    /// Retag every `Phy` operand register to `Old` (§4).
    pub fn phy_to_old(&self) -> Expr {
        let s = |v: &TValue| v.phy_to_old();
        match self {
            Expr::Value(v) => Expr::Value(s(v)),
            Expr::Bin { op, ty, a, b } => Expr::Bin {
                op: *op,
                ty: *ty,
                a: s(a),
                b: s(b),
            },
            Expr::Icmp { pred, ty, a, b } => Expr::Icmp {
                pred: *pred,
                ty: *ty,
                a: s(a),
                b: s(b),
            },
            Expr::Select { ty, cond, t, f } => Expr::Select {
                ty: *ty,
                cond: s(cond),
                t: s(t),
                f: s(f),
            },
            Expr::Cast { op, from, a, to } => Expr::Cast {
                op: *op,
                from: *from,
                a: s(a),
                to: *to,
            },
            Expr::Gep {
                inbounds,
                ptr,
                offset,
            } => Expr::Gep {
                inbounds: *inbounds,
                ptr: s(ptr),
                offset: s(offset),
            },
            Expr::Load { ty, ptr } => Expr::Load {
                ty: *ty,
                ptr: s(ptr),
            },
        }
    }

    /// Are the two expressions of the same "kind" (constructor and
    /// operator), so that operand-wise comparison makes sense
    /// (`e ∼ e'` in Algorithm 4)?
    pub fn same_shape(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Value(_), Expr::Value(_)) => true,
            (Expr::Bin { op: o1, ty: t1, .. }, Expr::Bin { op: o2, ty: t2, .. }) => {
                o1 == o2 && t1 == t2
            }
            (
                Expr::Icmp {
                    pred: p1, ty: t1, ..
                },
                Expr::Icmp {
                    pred: p2, ty: t2, ..
                },
            ) => p1 == p2 && t1 == t2,
            (Expr::Select { ty: t1, .. }, Expr::Select { ty: t2, .. }) => t1 == t2,
            (
                Expr::Cast {
                    op: o1,
                    from: f1,
                    to: to1,
                    ..
                },
                Expr::Cast {
                    op: o2,
                    from: f2,
                    to: to2,
                    ..
                },
            ) => o1 == o2 && f1 == f2 && to1 == to2,
            (Expr::Gep { inbounds: i1, .. }, Expr::Gep { inbounds: i2, .. }) => i1 == i2,
            (Expr::Load { ty: t1, .. }, Expr::Load { ty: t2, .. }) => t1 == t2,
            _ => false,
        }
    }

    /// Operand list (for shape-wise comparison).
    pub fn operands(&self) -> Vec<TValue> {
        let mut out = Vec::new();
        self.for_each_value(|v| out.push(v.clone()));
        out
    }

    /// Does any operand contain a constant expression that may trap?
    pub fn mentions_trapping_const(&self) -> bool {
        let mut found = false;
        self.for_each_value(|v| {
            if let TValue::Const(c) = v {
                if c.may_trap() {
                    found = true;
                }
            }
        });
        found
    }
}

impl From<TValue> for Expr {
    fn from(v: TValue) -> Expr {
        Expr::Value(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Value(v) => write!(f, "{v}"),
            Expr::Bin { op, ty, a, b } => write!(f, "{op} {ty} {a}, {b}"),
            Expr::Icmp { pred, ty, a, b } => write!(f, "icmp {pred} {ty} {a}, {b}"),
            Expr::Select { ty, cond, t, f: fv } => write!(f, "select {cond}, {ty} {t}, {fv}"),
            Expr::Cast { op, from, a, to } => write!(f, "{op} {from} {a} to {to}"),
            Expr::Gep {
                inbounds,
                ptr,
                offset,
            } => {
                write!(
                    f,
                    "gep{} {ptr}, {offset}",
                    if *inbounds { " inbounds" } else { "" }
                )
            }
            Expr::Load { ty, ptr } => write!(f, "load {ty} *{ptr}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    #[test]
    fn of_inst_covers_pure_and_rejects_effects() {
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Value::Reg(r(0)),
            rhs: Value::int(Type::I32, 1),
        };
        let e = Expr::of_inst(&add).unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Type::I32,
                TValue::phy(r(0)),
                TValue::int(Type::I32, 1)
            )
        );
        assert!(Expr::of_inst(&Inst::Alloca {
            ty: Type::I32,
            count: 1
        })
        .is_none());
        assert!(Expr::of_inst(&Inst::Store {
            ty: Type::I32,
            val: Value::int(Type::I32, 0),
            ptr: Value::Reg(r(1))
        })
        .is_none());
        // Load IS an expression.
        assert!(Expr::of_inst(&Inst::Load {
            ty: Type::I32,
            ptr: Value::Reg(r(1))
        })
        .is_some());
    }

    #[test]
    fn gep_inbounds_is_a_distinct_shape() {
        let g1 = Expr::Gep {
            inbounds: true,
            ptr: TValue::phy(r(0)),
            offset: TValue::int(Type::I64, 10),
        };
        let g2 = Expr::Gep {
            inbounds: false,
            ptr: TValue::phy(r(0)),
            offset: TValue::int(Type::I64, 10),
        };
        assert_ne!(g1, g2);
        assert!(!g1.same_shape(&g2));
    }

    #[test]
    fn substitution() {
        let e = Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::phy(r(0)));
        let e2 = e.subst(&TValue::phy(r(0)), &TValue::int(Type::I32, 5));
        assert_eq!(
            e2,
            Expr::bin(
                BinOp::Add,
                Type::I32,
                TValue::int(Type::I32, 5),
                TValue::int(Type::I32, 5)
            )
        );
        assert!(e.mentions(&TReg::Phy(r(0))));
        assert!(!e2.mentions(&TReg::Phy(r(0))));
    }

    #[test]
    fn old_tagging() {
        let e = Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::ghost("g"));
        let o = e.phy_to_old();
        assert_eq!(
            o,
            Expr::bin(BinOp::Add, Type::I32, TValue::old(r(0)), TValue::ghost("g"))
        );
        assert_eq!(o.regs(), vec![TReg::Old(r(0)), TReg::ghost("g")]);
    }

    #[test]
    fn trapping_const_detection() {
        use crellvm_ir::ConstExpr;
        let g = Const::Global("G".into());
        let gi: Const = ConstExpr::PtrToInt(g, Type::I32).into();
        let diff: Const = ConstExpr::Bin(BinOp::Sub, Type::I32, gi.clone(), gi).into();
        let div: Const =
            ConstExpr::Bin(BinOp::SDiv, Type::I32, Const::int(Type::I32, 1), diff).into();
        let e = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::Const(div),
            TValue::int(Type::I32, 0),
        );
        assert!(e.mentions_trapping_const());
    }

    #[test]
    fn display_forms() {
        let e = Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(1)), TValue::ghost("p"));
        assert_eq!(e.to_string(), "add i32 %r1, ^p");
        assert_eq!(
            Expr::load(Type::I32, TValue::old(r(2))).to_string(),
            "load i32 *~%r2"
        );
    }
}
