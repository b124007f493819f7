//! Semantic evaluation of assertions on concrete *extended states*
//! (paper §G), for `tests/rule_semantics.rs`.
//!
//! The original development proves in Coq that every inference rule and
//! post-assertion computation preserves the semantic interpretation of
//! assertions. We cannot port the Coq proof; instead this module makes the
//! semantics *executable* so that property tests can hunt for
//! counterexamples — exactly the method by which the paper's unsound
//! constexpr rule would have been caught.
//!
//! An extended state maps physical, ghost, and old registers to values.
//! Expression evaluation propagates `undef` (an operation with an `undef`
//! operand yields `undef`) and computes with [`crellvm::ir::arith`], the
//! arithmetic the checker's folder and the interpreter share. An
//! expression without a value either traps (⊥: [`NoVal::Trap`]) or is
//! outside this semantics ([`NoVal::Unmodelled`]): memory is not modelled,
//! so `load` and the memory predicates are skipped by the tests.

use crellvm::erhl::{Assertion, Expr, Pred, TReg, TValue};
use crellvm::ir::arith::{self, Fault};
use crellvm::ir::{BinOp, CastOp, Const, ConstExpr, RegId, Type};
use std::collections::HashMap;

/// A semantic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemVal {
    /// A concrete integer.
    Int {
        /// Type.
        ty: Type,
        /// Bit pattern.
        bits: u64,
    },
    /// An abstract pointer (block, offset) — enough for `gep` reasoning.
    Ptr {
        /// Abstract block id.
        block: u32,
        /// Slot offset.
        offset: i64,
    },
    /// The undefined value.
    Undef,
}

impl SemVal {
    /// Integer constructor (truncating).
    pub fn int(ty: Type, v: i64) -> SemVal {
        SemVal::Int {
            ty,
            bits: ty.truncate(v as u64),
        }
    }
}

/// Why an expression has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoVal {
    /// ⊥: the expression traps (a division by 0, `MIN / -1`).
    Trap,
    /// The expression is outside this semantics: a `load`, or operands
    /// of another type than the operation's.
    Unmodelled,
}

/// The value of an expression, or why it has none.
pub type Eval = Result<SemVal, NoVal>;

/// One side's extended register file.
#[derive(Debug, Clone, Default)]
pub struct ExtState {
    /// Physical registers.
    pub phy: HashMap<RegId, SemVal>,
    /// Ghost registers.
    pub ghost: HashMap<String, SemVal>,
    /// Old registers.
    pub old: HashMap<RegId, SemVal>,
}

impl ExtState {
    /// Empty state (all registers `undef`).
    pub fn new() -> ExtState {
        ExtState::default()
    }

    /// Look up a tagged register (absent ⇒ `undef`).
    pub fn get(&self, r: &TReg) -> SemVal {
        match r {
            TReg::Phy(p) => self.phy.get(p).copied().unwrap_or(SemVal::Undef),
            TReg::Ghost(g) => self.ghost.get(g).copied().unwrap_or(SemVal::Undef),
            TReg::Old(p) => self.old.get(p).copied().unwrap_or(SemVal::Undef),
        }
    }

    /// Bind a tagged register.
    pub fn set(&mut self, r: TReg, v: SemVal) {
        match r {
            TReg::Phy(p) => {
                self.phy.insert(p, v);
            }
            TReg::Ghost(g) => {
                self.ghost.insert(g, v);
            }
            TReg::Old(p) => {
                self.old.insert(p, v);
            }
        }
    }
}

fn eval_const(c: &Const) -> Eval {
    match c {
        Const::Int { ty, bits } => Ok(SemVal::Int {
            ty: *ty,
            bits: *bits,
        }),
        Const::Undef(_) => Ok(SemVal::Undef),
        Const::Null => Ok(SemVal::Ptr {
            block: u32::MAX,
            offset: 0,
        }),
        // Globals get a deterministic abstract block from their name.
        Const::Global(name) => {
            let h = name
                .bytes()
                .fold(7u32, |a, b| a.wrapping_mul(31).wrapping_add(b as u32));
            Ok(SemVal::Ptr {
                block: h | 1,
                offset: 0,
            })
        }
        Const::Expr(e) => match &**e {
            ConstExpr::PtrToInt(inner, to) => match eval_const(inner)? {
                SemVal::Ptr { block, offset } => Ok(ptr_to_int(block, offset, *to)),
                SemVal::Undef => Ok(SemVal::Undef),
                SemVal::Int { .. } => Err(NoVal::Unmodelled),
            },
            ConstExpr::Bin(op, ty, a, b) => eval_bin(*op, *ty, eval_const(a)?, eval_const(b)?),
        },
    }
}

/// The address of a slot: block × 2^24 plus 8 bytes per slot.
fn ptr_to_int(block: u32, offset: i64, to: Type) -> SemVal {
    let addr = (block as u64)
        .wrapping_mul(1 << 24)
        .wrapping_add((offset as u64) * 8);
    SemVal::Int {
        ty: to,
        bits: to.truncate(addr),
    }
}

/// Evaluate a tagged value.
pub fn eval_value(v: &TValue, s: &ExtState) -> Eval {
    match v {
        TValue::Reg(r) => Ok(s.get(r)),
        TValue::Const(c) => eval_const(c),
    }
}

/// Two integer operands of the operation's integer type, or why not.
fn int_operands(ty: Type, a: SemVal, b: SemVal) -> Result<Option<(u64, u64)>, NoVal> {
    match (a, b) {
        (SemVal::Undef, _) | (_, SemVal::Undef) => Ok(None),
        (SemVal::Int { ty: t1, bits: a }, SemVal::Int { ty: t2, bits: b })
            if ty.is_int() && t1 == ty && t2 == ty =>
        {
            Ok(Some((a, b)))
        }
        _ => Err(NoVal::Unmodelled),
    }
}

fn eval_bin(op: BinOp, ty: Type, a: SemVal, b: SemVal) -> Eval {
    let Some((a, b)) = int_operands(ty, a, b)? else {
        return Ok(SemVal::Undef);
    };
    match arith::bin(op, ty, a, b) {
        Ok(bits) => Ok(SemVal::Int { ty, bits }),
        Err(Fault::OverShift) => Ok(SemVal::Undef),
        Err(Fault::Trap) => Err(NoVal::Trap),
    }
}

/// Evaluate an expression.
pub fn eval_expr(e: &Expr, s: &ExtState) -> Eval {
    match e {
        Expr::Value(v) => eval_value(v, s),
        Expr::Bin { op, ty, a, b } => eval_bin(*op, *ty, eval_value(a, s)?, eval_value(b, s)?),
        Expr::Icmp { pred, ty, a, b } => {
            match int_operands(*ty, eval_value(a, s)?, eval_value(b, s)?)? {
                None => Ok(SemVal::Undef),
                Some((a, b)) => Ok(SemVal::int(Type::I1, arith::icmp(*pred, *ty, a, b) as i64)),
            }
        }
        Expr::Select { cond, t, f, .. } => match eval_value(cond, s)? {
            SemVal::Undef => Ok(SemVal::Undef),
            SemVal::Int { ty: Type::I1, bits } => {
                if bits != 0 {
                    eval_value(t, s)
                } else {
                    eval_value(f, s)
                }
            }
            _ => Err(NoVal::Unmodelled),
        },
        Expr::Cast { op, from, a, to } => match (op, eval_value(a, s)?) {
            (_, SemVal::Undef) => Ok(SemVal::Undef),
            (CastOp::Bitcast, v) => Ok(v),
            (CastOp::PtrToInt, SemVal::Ptr { block, offset }) => Ok(ptr_to_int(block, offset, *to)),
            (CastOp::IntToPtr, SemVal::Int { bits, .. }) => {
                let block = (bits >> 24) as u32;
                let offset = ((bits & 0xFF_FFFF) / 8) as i64;
                Ok(SemVal::Ptr { block, offset })
            }
            (CastOp::Trunc | CastOp::Zext | CastOp::Sext, SemVal::Int { bits, .. })
                if from.is_int() && to.is_int() =>
            {
                let bits = arith::cast(*op, *from, *to, bits).ok_or(NoVal::Unmodelled)?;
                Ok(SemVal::Int { ty: *to, bits })
            }
            _ => Err(NoVal::Unmodelled),
        },
        Expr::Gep {
            inbounds,
            ptr,
            offset,
        } => match (eval_value(ptr, s)?, eval_value(offset, s)?) {
            (SemVal::Undef, _) | (_, SemVal::Undef) => Ok(SemVal::Undef),
            (
                SemVal::Ptr {
                    block,
                    offset: base,
                },
                SemVal::Int { bits, .. },
            ) => {
                let off = Type::I64.sext(bits);
                let new = base.wrapping_add(off);
                if *inbounds && !(0..=8).contains(&new) {
                    // Abstract bound of 8 slots: inbounds gep past it is
                    // poison, modelled as undef here (footnote 4 of the
                    // paper: the distinction does not matter for us).
                    Ok(SemVal::Undef)
                } else {
                    Ok(SemVal::Ptr { block, offset: new })
                }
            }
            _ => Err(NoVal::Unmodelled),
        },
        // Memory is not modelled at this level.
        Expr::Load { .. } => Err(NoVal::Unmodelled),
    }
}

/// `v1 ⊒ v2` on semantic values.
pub fn lessdef_vals(v1: SemVal, v2: SemVal) -> bool {
    v1 == SemVal::Undef || v1 == v2
}

/// `a ⊒ b` on expressions, following the paper's lessdef: when `a` has a
/// value, `b` has one too and refines it. So a trapping `a` (⊥) satisfies
/// it, and a trapping `b` under a defined `a` violates it. `None` when
/// either side is not modelled.
pub fn eval_lessdef(a: &Expr, b: &Expr, s: &ExtState) -> Option<bool> {
    match (eval_expr(a, s), eval_expr(b, s)) {
        (Err(NoVal::Trap), _) => Some(true),
        (Err(NoVal::Unmodelled), _) | (_, Err(NoVal::Unmodelled)) => None,
        (Ok(_), Err(NoVal::Trap)) => Some(false),
        (Ok(x), Ok(y)) => Some(lessdef_vals(x, y)),
    }
}

/// Evaluate a predicate; `None` means the predicate is not expressible at
/// this level (memory predicates, unmodelled expressions) and should be
/// skipped by tests.
pub fn eval_pred(p: &Pred, s: &ExtState) -> Option<bool> {
    match p {
        Pred::Lessdef(a, b) => eval_lessdef(a, b, s),
        Pred::Uniq(_) | Pred::Priv(_) | Pred::Noalias(_, _) => None,
    }
}

/// Does a pair of extended states satisfy an assertion? (`None` if any
/// component is not expressible.)
pub fn eval_assertion(a: &Assertion, src: &ExtState, tgt: &ExtState) -> Option<bool> {
    for p in a.src.iter() {
        match eval_pred(&p, src) {
            Some(false) => return Some(false),
            Some(true) => {}
            None => return None,
        }
    }
    for p in a.tgt.iter() {
        match eval_pred(&p, tgt) {
            Some(false) => return Some(false),
            Some(true) => {}
            None => return None,
        }
    }
    // Maydiff: everything not in the set must be injected (equal, or
    // source-undef).
    let mut regs: Vec<TReg> = Vec::new();
    for u in [&a.src, &a.tgt] {
        for p in u.iter() {
            if let Pred::Lessdef(x, y) = p {
                regs.extend(x.regs());
                regs.extend(y.regs());
            }
        }
    }
    for r in src.phy.keys() {
        regs.push(TReg::Phy(*r));
    }
    for r in tgt.phy.keys() {
        regs.push(TReg::Phy(*r));
    }
    for g in src.ghost.keys() {
        regs.push(TReg::Ghost(g.clone()));
    }
    for g in tgt.ghost.keys() {
        regs.push(TReg::Ghost(g.clone()));
    }
    regs.sort();
    regs.dedup();
    for r in regs {
        if !a.maydiff.contains(&r) {
            let (vs, vt) = (src.get(&r), tgt.get(&r));
            if !lessdef_vals(vs, vt) {
                return Some(false);
            }
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    #[test]
    fn undef_propagates_through_arithmetic() {
        let s = ExtState::new(); // everything undef
        let e = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::phy(r(0)),
            TValue::int(Type::I32, 1),
        );
        assert_eq!(eval_expr(&e, &s), Ok(SemVal::Undef));
    }

    #[test]
    fn traps_are_bottom() {
        let s = ExtState::new();
        let div = |a: i64, b: i64| {
            Expr::bin(
                BinOp::SDiv,
                Type::I32,
                TValue::int(Type::I32, a),
                TValue::int(Type::I32, b),
            )
        };
        assert_eq!(eval_expr(&div(1, 0), &s), Err(NoVal::Trap));
        assert_eq!(eval_expr(&div(i32::MIN as i64, -1), &s), Err(NoVal::Trap));
        // ⊥ is below everything; nothing defined, not even undef, is
        // below ⊥.
        let x = Expr::value(TValue::phy(r(0)));
        let below = Pred::Lessdef(div(1, 0), x.clone());
        assert_eq!(eval_pred(&below, &s), Some(true));
        let above = Pred::Lessdef(x.clone(), div(1, 0));
        assert_eq!(eval_pred(&above, &s), Some(false));
        // A load is not modelled, so a lessdef with one is skipped.
        let load = Expr::Load {
            ty: Type::I32,
            ptr: TValue::phy(r(1)),
        };
        assert_eq!(eval_pred(&Pred::Lessdef(x, load), &s), None);
    }

    #[test]
    fn lessdef_semantics() {
        let mut s = ExtState::new();
        s.set(TReg::Phy(r(0)), SemVal::int(Type::I32, 5));
        let five = Expr::value(TValue::int(Type::I32, 5));
        let six = Expr::value(TValue::int(Type::I32, 6));
        let x = Expr::value(TValue::phy(r(0)));
        assert_eq!(eval_pred(&Pred::Lessdef(x.clone(), five), &s), Some(true));
        assert_eq!(
            eval_pred(&Pred::Lessdef(x.clone(), six.clone()), &s),
            Some(false)
        );
        // Undef on the left is below everything.
        let u = Expr::value(TValue::phy(r(9)));
        assert_eq!(eval_pred(&Pred::Lessdef(u, six), &s), Some(true));
    }

    #[test]
    fn maydiff_semantics_across_sides() {
        let mut a = Assertion::new();
        let mut src = ExtState::new();
        let mut tgt = ExtState::new();
        src.set(TReg::Phy(r(0)), SemVal::int(Type::I32, 1));
        tgt.set(TReg::Phy(r(0)), SemVal::int(Type::I32, 2));
        // r0 differs and is not in maydiff: assertion fails.
        assert_eq!(eval_assertion(&a, &src, &tgt), Some(false));
        a.add_maydiff(TReg::Phy(r(0)));
        assert_eq!(eval_assertion(&a, &src, &tgt), Some(true));
    }

    #[test]
    fn ghost_registers_mediate_relational_facts() {
        // e_src ⊒ ĝ_src ∧ ĝ_tgt ⊒ e'_tgt ∧ ĝ ∉ MD encodes e_src = e'_tgt.
        let mut a = Assertion::new();
        a.src.insert_lessdef(
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::ghost("g")),
        );
        a.tgt.insert_lessdef(
            Expr::value(TValue::ghost("g")),
            Expr::value(TValue::phy(r(1))),
        );
        a.add_maydiff(TReg::Phy(r(0)));
        a.add_maydiff(TReg::Phy(r(1)));

        let mut src = ExtState::new();
        let mut tgt = ExtState::new();
        src.set(TReg::Phy(r(0)), SemVal::int(Type::I32, 7));
        tgt.set(TReg::Phy(r(1)), SemVal::int(Type::I32, 7));
        // There EXISTS a ghost valuation making it true:
        src.set(TReg::Ghost("g".into()), SemVal::int(Type::I32, 7));
        tgt.set(TReg::Ghost("g".into()), SemVal::int(Type::I32, 7));
        assert_eq!(eval_assertion(&a, &src, &tgt), Some(true));
        // With differing mediated values no ghost valuation works: if the
        // ghost matches src it cannot match tgt.
        tgt.set(TReg::Phy(r(1)), SemVal::int(Type::I32, 8));
        assert_eq!(eval_assertion(&a, &src, &tgt), Some(false));
    }

    #[test]
    fn gep_inbounds_more_undefined_than_plain() {
        let mut s = ExtState::new();
        s.set(
            TReg::Phy(r(0)),
            SemVal::Ptr {
                block: 3,
                offset: 0,
            },
        );
        let gi = Expr::Gep {
            inbounds: true,
            ptr: TValue::phy(r(0)),
            offset: TValue::int(Type::I64, 100),
        };
        let gp = Expr::Gep {
            inbounds: false,
            ptr: TValue::phy(r(0)),
            offset: TValue::int(Type::I64, 100),
        };
        assert_eq!(eval_expr(&gi, &s), Ok(SemVal::Undef));
        assert_eq!(
            eval_expr(&gp, &s),
            Ok(SemVal::Ptr {
                block: 3,
                offset: 100
            })
        );
        // So inbounds ⊒ plain holds, but NOT the converse.
        assert!(lessdef_vals(
            eval_expr(&gi, &s).unwrap(),
            eval_expr(&gp, &s).unwrap()
        ));
        assert!(!lessdef_vals(
            eval_expr(&gp, &s).unwrap(),
            eval_expr(&gi, &s).unwrap()
        ));
    }
}
