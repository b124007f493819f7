//! Peephole micro-optimizations (LLVM's `instcombine` pass) with proof
//! generation.
//!
//! Each micro-optimization is a small matcher over one statement (possibly
//! inspecting its operands' definitions, LLVM's `FindDef`) that produces a
//! replacement together with the inference rules justifying it — the
//! paper's Algorithm 1 pattern. The names follow the paper's §D list
//! (`assoc-add` appears there as the §2 running example).
//!
//! The generated proofs lean on the *verified identity table*
//! ([`crellvm_core::rules_arith::identity_holds`]) for single-instruction
//! rewrites and on the composite arithmetic rules (`AddAssoc`,
//! `SubAddFold`, …) for multi-instruction ones.

use crate::config::{PassConfig, PassOutcome};
use crate::util::{uses_of, UseSite};
use crellvm_core::{
    ArithRule, AutoKind, CompositeRule, Expr, InfRule, Loc, Pred, ProofBuilder, ProofUnit, Side,
    TValue,
};
use crellvm_ir::{
    BinOp, CastOp, Const, DefSite, Function, IcmpPred, Inst, Module, RegId, Stmt, Type, Value,
};
use std::collections::HashMap;

/// Run one instcombine sweep over every function of a module.
pub fn instcombine(module: &Module, config: &PassConfig) -> PassOutcome {
    crate::pipeline::run_pass("instcombine", module, config)
}

/// What a matcher wants done with the matched statement.
#[derive(Debug)]
enum Action {
    /// Replace the instruction (result register unchanged).
    ReplaceInst(Inst),
    /// Delete the instruction and replace every use of its result.
    ReplaceWith(Value),
}

/// One matched micro-optimization.
#[derive(Debug)]
struct Match {
    /// Paper-style optimization name (e.g. `"assoc-add"`).
    name: &'static str,
    action: Action,
    /// Rules placed at the matched row (deriving `x ⊒ simplified` in src).
    rules: Vec<InfRule>,
    /// Premise ranges: `(side, pred, def site)` asserted from the operand's
    /// definition to the matched row.
    premises: Vec<(Side, Pred, (usize, usize))>,
}

/// Definition lookup on the *source* function (LLVM's `FindDef`).
struct Ctx<'a> {
    f: &'a Function,
}

impl Ctx<'_> {
    /// The pure defining instruction of a register, with its site.
    fn def_of(&self, v: &Value) -> Option<(usize, usize, &Inst)> {
        let r = v.as_reg()?;
        match self.f.def_site(r)? {
            DefSite::Stmt(b, i) => {
                let inst = &self.f.block(b).stmts[i].inst;
                inst.is_pure().then_some((b.index(), i, inst))
            }
            _ => None,
        }
    }
}

fn cint(v: &Value) -> Option<(Type, &Const)> {
    match v {
        Value::Const(c @ Const::Int { ty, .. }) => Some((*ty, c)),
        _ => None,
    }
}

fn identity_match(name: &'static str, x: RegId, from: &Expr, to: Expr, action: Action) -> Match {
    Match {
        name,
        action,
        rules: vec![InfRule::Arith(ArithRule::Identity {
            side: Side::Src,
            anchor: Expr::Value(TValue::phy(x)),
            from: from.clone(),
            to,
        })],
        premises: Vec::new(),
    }
}

/// Premise `x ⊒ E_def` for an operand's definition, to be asserted from
/// the def to the matched row.
fn def_premise(v: &Value, def: (usize, usize, &Inst)) -> (Side, Pred, (usize, usize)) {
    let e = Expr::of_inst(def.2).expect("def_of returns pure instructions");
    (
        Side::Src,
        Pred::Lessdef(Expr::Value(TValue::of_value(v)), e),
        (def.0, def.1),
    )
}

/// Try every micro-optimization on one statement.
fn try_match(ctx: &Ctx<'_>, stmt: &Stmt) -> Option<Match> {
    let x = stmt.result?;
    let e = Expr::of_inst(&stmt.inst)?;
    match &stmt.inst {
        Inst::Bin { op, ty, lhs, rhs } => {
            let ty = *ty;
            // --- constant folding ---------------------------------------
            if let (Some((_, ca)), Some((_, cb))) = (cint(lhs), cint(rhs)) {
                if let Some(c) = crellvm_core::rules_arith::fold_bin(*op, ty, ca, cb) {
                    let to = Expr::Value(TValue::Const(c.clone()));
                    return Some(identity_match(
                        "const-fold",
                        x,
                        &e,
                        to,
                        Action::ReplaceWith(Value::Const(c)),
                    ));
                }
            }
            // --- unit / absorbing identities -----------------------------
            let zero = |v: &Value| {
                cint(v)
                    .map(|(t, c)| *c == Const::int(t, 0))
                    .unwrap_or(false)
            };
            let one = |v: &Value| {
                cint(v)
                    .map(|(t, c)| *c == Const::int(t, 1))
                    .unwrap_or(false)
            };
            let mone = |v: &Value| {
                cint(v)
                    .map(|(t, c)| *c == Const::int(t, -1))
                    .unwrap_or(false)
            };
            let simple = |name: &'static str, v: Value| {
                let to = Expr::Value(TValue::of_value(&v));
                identity_match(name, x, &e, to, Action::ReplaceWith(v))
            };
            match op {
                BinOp::Add if zero(rhs) => return Some(simple("add-zero", lhs.clone())),
                BinOp::Add if zero(lhs) => return Some(simple("add-zero", rhs.clone())),
                BinOp::Sub if zero(rhs) => return Some(simple("sub-zero", lhs.clone())),
                BinOp::Sub if lhs == rhs => {
                    return Some(simple("sub-remove", Value::int(ty, 0)));
                }
                BinOp::Mul if one(rhs) => return Some(simple("mul-one", lhs.clone())),
                BinOp::Mul if one(lhs) => return Some(simple("mul-one", rhs.clone())),
                BinOp::Mul if zero(rhs) || zero(lhs) => {
                    return Some(simple("mul-zero", Value::int(ty, 0)));
                }
                BinOp::And if lhs == rhs => return Some(simple("and-same", lhs.clone())),
                BinOp::And if zero(rhs) || zero(lhs) => {
                    return Some(simple("and-zero", Value::int(ty, 0)));
                }
                BinOp::And if mone(rhs) => return Some(simple("and-mone", lhs.clone())),
                BinOp::And if mone(lhs) => return Some(simple("and-mone", rhs.clone())),
                BinOp::Or if lhs == rhs => return Some(simple("or-same", lhs.clone())),
                BinOp::Or if zero(rhs) => return Some(simple("or-zero", lhs.clone())),
                BinOp::Or if zero(lhs) => return Some(simple("or-zero", rhs.clone())),
                BinOp::Or if mone(rhs) => {
                    return Some(simple("or-mone", Value::int(ty, -1)));
                }
                BinOp::Xor if lhs == rhs => return Some(simple("xor-same", Value::int(ty, 0))),
                BinOp::Xor if zero(rhs) => return Some(simple("xor-zero", lhs.clone())),
                BinOp::Xor if zero(lhs) => return Some(simple("xor-zero", rhs.clone())),
                BinOp::UDiv | BinOp::SDiv if one(rhs) => {
                    return Some(simple("sdiv-one", lhs.clone()))
                }
                BinOp::Shl | BinOp::LShr | BinOp::AShr if zero(rhs) => {
                    return Some(simple("shift-zero1", lhs.clone()));
                }
                _ => {}
            }
            // --- strength reduction ---------------------------------------
            if *op == BinOp::SDiv && mone(rhs) {
                let new = Inst::Bin {
                    op: BinOp::Sub,
                    ty,
                    lhs: Value::int(ty, 0),
                    rhs: lhs.clone(),
                };
                let to = Expr::of_inst(&new).expect("pure");
                return Some(identity_match(
                    "sdiv-mone",
                    x,
                    &e,
                    to,
                    Action::ReplaceInst(new),
                ));
            }
            if *op == BinOp::UDiv {
                if let Some((_, Const::Int { bits, .. })) = cint(rhs) {
                    let c = ty.truncate(*bits);
                    if c.is_power_of_two() && c > 1 {
                        let k = c.trailing_zeros() as i64;
                        let new = Inst::Bin {
                            op: BinOp::LShr,
                            ty,
                            lhs: lhs.clone(),
                            rhs: Value::int(ty, k),
                        };
                        let to = Expr::of_inst(&new).expect("pure");
                        return Some(identity_match(
                            "udiv-shift",
                            x,
                            &e,
                            to,
                            Action::ReplaceInst(new),
                        ));
                    }
                }
            }
            if matches!(op, BinOp::URem | BinOp::SRem) && one(rhs) {
                return Some(simple("rem-one", Value::int(ty, 0)));
            }
            if *op == BinOp::Mul {
                if let Some((_, Const::Int { bits, .. })) = cint(rhs) {
                    let c = ty.truncate(*bits);
                    if c.is_power_of_two() && c > 1 {
                        let k = c.trailing_zeros() as i64;
                        let new = Inst::Bin {
                            op: BinOp::Shl,
                            ty,
                            lhs: lhs.clone(),
                            rhs: Value::int(ty, k),
                        };
                        let to = Expr::of_inst(&new).expect("pure");
                        return Some(identity_match(
                            "mul-shl",
                            x,
                            &e,
                            to,
                            Action::ReplaceInst(new),
                        ));
                    }
                }
                if mone(rhs) {
                    let new = Inst::Bin {
                        op: BinOp::Sub,
                        ty,
                        lhs: Value::int(ty, 0),
                        rhs: lhs.clone(),
                    };
                    let to = Expr::of_inst(&new).expect("pure");
                    return Some(identity_match(
                        "mul-mone",
                        x,
                        &e,
                        to,
                        Action::ReplaceInst(new),
                    ));
                }
            }
            // add-signbit: a + SIGNBIT → a ^ SIGNBIT.
            if *op == BinOp::Add && ty.bits() > 1 {
                if let Some((_, Const::Int { bits, .. })) = cint(rhs) {
                    if ty.truncate(*bits) == 1u64 << (ty.bits() - 1) {
                        let new = Inst::Bin {
                            op: BinOp::Xor,
                            ty,
                            lhs: lhs.clone(),
                            rhs: rhs.clone(),
                        };
                        let to = Expr::of_inst(&new).expect("pure");
                        return Some(identity_match(
                            "add-signbit",
                            x,
                            &e,
                            to,
                            Action::ReplaceInst(new),
                        ));
                    }
                }
            }
            // sub-mone: -1 - a → ¬a.
            if *op == BinOp::Sub && mone(lhs) {
                let new = Inst::Bin {
                    op: BinOp::Xor,
                    ty,
                    lhs: rhs.clone(),
                    rhs: Value::int(ty, -1),
                };
                let to = Expr::of_inst(&new).expect("pure");
                return Some(identity_match(
                    "sub-mone",
                    x,
                    &e,
                    to,
                    Action::ReplaceInst(new),
                ));
            }
            if *op == BinOp::Add && lhs == rhs && ty.bits() > 1 {
                let new = Inst::Bin {
                    op: BinOp::Shl,
                    ty,
                    lhs: lhs.clone(),
                    rhs: Value::int(ty, 1),
                };
                let to = Expr::of_inst(&new).expect("pure");
                return Some(identity_match(
                    "add-shift",
                    x,
                    &e,
                    to,
                    Action::ReplaceInst(new),
                ));
            }

            // --- composite patterns (FindDef on an operand) ----------------
            // bop-associativity / assoc-add: (a ⊙ C1) ⊙ C2 → a ⊙ (C1 ⊙ C2).
            if matches!(
                op,
                BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
            ) {
                if let (Some((_, c2)), Some(def)) = (cint(rhs), ctx.def_of(lhs)) {
                    if let Inst::Bin {
                        op: op1,
                        ty: ty1,
                        lhs: a,
                        rhs: c1v,
                    } = def.2
                    {
                        if op1 == op && *ty1 == ty {
                            if let Some((_, c1)) = cint(c1v) {
                                if let Some(c3) =
                                    crellvm_core::rules_arith::fold_bin(*op, ty, c1, c2)
                                {
                                    let new = Inst::Bin {
                                        op: *op,
                                        ty,
                                        lhs: a.clone(),
                                        rhs: Value::Const(c3),
                                    };
                                    let rule = InfRule::Arith(ArithRule::AddAssoc {
                                        side: Side::Src,
                                        op: *op,
                                        ty,
                                        x: TValue::of_value(lhs),
                                        y: TValue::phy(x),
                                        a: TValue::of_value(a),
                                        c1: c1.clone(),
                                        c2: c2.clone(),
                                    });
                                    return Some(Match {
                                        name: "assoc-add",
                                        action: Action::ReplaceInst(new),
                                        rules: vec![rule],
                                        premises: vec![def_premise(lhs, def)],
                                    });
                                }
                            }
                        }
                    }
                }
            }
            // sub-add: (a + b) - b → a.
            if *op == BinOp::Sub {
                if let Some(def) = ctx.def_of(lhs) {
                    if let Inst::Bin {
                        op: BinOp::Add,
                        ty: ty1,
                        lhs: a,
                        rhs: b2,
                    } = def.2
                    {
                        if *ty1 == ty && (b2 == rhs || a == rhs) {
                            let kept = if b2 == rhs { a.clone() } else { b2.clone() };
                            let rule = InfRule::Arith(ArithRule::SubAddFold {
                                side: Side::Src,
                                ty,
                                t: TValue::of_value(lhs),
                                y: TValue::phy(x),
                                a: TValue::of_value(&kept),
                                b: TValue::of_value(rhs),
                            });
                            // When the cancelled operand is on the left of
                            // the add, the rule's commuted premise matches.
                            return Some(Match {
                                name: "sub-add",
                                action: Action::ReplaceWith(kept),
                                rules: vec![rule],
                                premises: vec![def_premise(lhs, def)],
                            });
                        }
                    }
                }
            }
            // add-comm-sub: (a - b) + b → a.
            if *op == BinOp::Add {
                for (diff, other) in [(lhs, rhs), (rhs, lhs)] {
                    if let Some(def) = ctx.def_of(diff) {
                        if let Inst::Bin {
                            op: BinOp::Sub,
                            ty: ty1,
                            lhs: a,
                            rhs: b2,
                        } = def.2
                        {
                            if *ty1 == ty && b2 == other {
                                let rule = InfRule::Arith(ArithRule::AddSubFold {
                                    side: Side::Src,
                                    ty,
                                    t: TValue::of_value(diff),
                                    y: TValue::phy(x),
                                    a: TValue::of_value(a),
                                    b: TValue::of_value(other),
                                });
                                return Some(Match {
                                    name: "add-comm-sub",
                                    action: Action::ReplaceWith(a.clone()),
                                    rules: vec![rule],
                                    premises: vec![def_premise(diff, def)],
                                });
                            }
                        }
                    }
                }
            }
            // xor-xor: (a ^ b) ^ b → a.
            if *op == BinOp::Xor {
                for (inner, other) in [(lhs, rhs), (rhs, lhs)] {
                    if let Some(def) = ctx.def_of(inner) {
                        if let Inst::Bin {
                            op: BinOp::Xor,
                            ty: ty1,
                            lhs: a,
                            rhs: b2,
                        } = def.2
                        {
                            if *ty1 == ty && (b2 == other || a == other) {
                                let kept = if b2 == other { a.clone() } else { b2.clone() };
                                let rule = InfRule::Arith(ArithRule::XorXorFold {
                                    side: Side::Src,
                                    ty,
                                    t: TValue::of_value(inner),
                                    y: TValue::phy(x),
                                    a: TValue::of_value(&kept),
                                    b: TValue::of_value(other),
                                });
                                return Some(Match {
                                    name: "xor-xor",
                                    action: Action::ReplaceWith(kept),
                                    rules: vec![rule],
                                    premises: vec![def_premise(inner, def)],
                                });
                            }
                        }
                    }
                }
            }
            None
        }
        Inst::Icmp { pred, ty, lhs, rhs } => {
            if let (Some((_, ca)), Some((_, cb))) = (cint(lhs), cint(rhs)) {
                if let Some(c) = crellvm_core::rules_arith::fold_icmp(*pred, *ty, ca, cb) {
                    let to = Expr::Value(TValue::Const(c.clone()));
                    return Some(identity_match(
                        "const-fold",
                        x,
                        &e,
                        to,
                        Action::ReplaceWith(Value::Const(c)),
                    ));
                }
            }
            if lhs == rhs {
                let flag = matches!(
                    pred,
                    IcmpPred::Eq | IcmpPred::Uge | IcmpPred::Ule | IcmpPred::Sge | IcmpPred::Sle
                );
                let c = Const::bool(flag);
                let name = if flag { "icmp-eq-same" } else { "icmp-ne-same" };
                return Some(identity_match(
                    name,
                    x,
                    &e,
                    Expr::Value(TValue::Const(c.clone())),
                    Action::ReplaceWith(Value::Const(c)),
                ));
            }
            None
        }
        Inst::Select {
            ty,
            cond,
            on_true,
            on_false,
        } => {
            let _ = ty;
            if let Value::Const(Const::Int { ty: Type::I1, bits }) = cond {
                let v = if *bits != 0 {
                    on_true.clone()
                } else {
                    on_false.clone()
                };
                let name = if *bits != 0 {
                    "select-true"
                } else {
                    "select-false"
                };
                return Some(identity_match(
                    name,
                    x,
                    &e,
                    Expr::Value(TValue::of_value(&v)),
                    Action::ReplaceWith(v),
                ));
            }
            if on_true == on_false {
                return Some(identity_match(
                    "select-same",
                    x,
                    &e,
                    Expr::Value(TValue::of_value(on_true)),
                    Action::ReplaceWith(on_true.clone()),
                ));
            }
            None
        }
        Inst::Cast { op, from, val, to } => {
            if let Value::Const(c) = val {
                if let Some(folded) = crellvm_core::rules_arith::fold_cast(*op, *from, c, *to) {
                    return Some(identity_match(
                        "const-fold",
                        x,
                        &e,
                        Expr::Value(TValue::Const(folded.clone())),
                        Action::ReplaceWith(Value::Const(folded)),
                    ));
                }
            }
            if *op == CastOp::Bitcast {
                return Some(identity_match(
                    "bitcast-sametype",
                    x,
                    &e,
                    Expr::Value(TValue::of_value(val)),
                    Action::ReplaceWith(val.clone()),
                ));
            }
            // Cast-cast composition: zext-zext, sext-sext, trunc-trunc,
            // zext-trunc (the paper's §D cast family).
            if let Some(def) = ctx.def_of(val) {
                if let Inst::Cast {
                    op: op1,
                    from: ty0,
                    val: a,
                    to: ty1,
                } = def.2
                {
                    if ty1 == from {
                        if let Some(composed) = crellvm_core::rules_arith::compose_casts(
                            *op1,
                            *ty0,
                            *ty1,
                            *op,
                            *to,
                            &TValue::of_value(a),
                        ) {
                            let rule = InfRule::Arith(ArithRule::CastCast {
                                side: Side::Src,
                                op1: *op1,
                                ty0: *ty0,
                                ty1: *ty1,
                                op2: *op,
                                ty2: *to,
                                x: TValue::of_value(val),
                                y: TValue::phy(x),
                                a: TValue::of_value(a),
                            });
                            let name = match (op1, op) {
                                (CastOp::Zext, CastOp::Zext) => "zext-zext",
                                (CastOp::Sext, CastOp::Sext) => "sext-sext",
                                (CastOp::Trunc, CastOp::Trunc) => "trunc-trunc",
                                (CastOp::Zext, CastOp::Sext) => "sext-zext",
                                _ => "cast-cast",
                            };
                            let action = match &composed {
                                Expr::Value(TValue::Const(c)) => {
                                    Action::ReplaceWith(Value::Const(c.clone()))
                                }
                                Expr::Value(TValue::Reg(_)) => Action::ReplaceWith(a.clone()),
                                Expr::Cast { op, from, to, .. } => {
                                    Action::ReplaceInst(Inst::Cast {
                                        op: *op,
                                        from: *from,
                                        val: a.clone(),
                                        to: *to,
                                    })
                                }
                                _ => return None,
                            };
                            return Some(Match {
                                name,
                                action,
                                rules: vec![rule],
                                premises: vec![def_premise(val, def)],
                            });
                        }
                    }
                }
            }
            None
        }
        Inst::Gep {
            inbounds,
            ptr,
            offset,
        } => {
            if let Value::Const(Const::Int {
                ty: Type::I64,
                bits: 0,
            }) = offset
            {
                return Some(identity_match(
                    "gep-zero",
                    x,
                    &e,
                    Expr::Value(TValue::of_value(ptr)),
                    Action::ReplaceWith(ptr.clone()),
                ));
            }
            // gep-gep with constant offsets.
            if let Some((_, c2)) = match offset {
                Value::Const(c @ Const::Int { .. }) => Some(((), c)),
                _ => None,
            } {
                if let Some(def) = ctx.def_of(ptr) {
                    if let Inst::Gep {
                        inbounds: ib1,
                        ptr: base,
                        offset: Value::Const(c1 @ Const::Int { .. }),
                    } = def.2
                    {
                        if let Some(c3) =
                            crellvm_core::rules_arith::fold_bin(BinOp::Add, Type::I64, c1, c2)
                        {
                            let new = Inst::Gep {
                                inbounds: *ib1 && *inbounds,
                                ptr: base.clone(),
                                offset: Value::Const(c3),
                            };
                            let rule = InfRule::Arith(ArithRule::GepGepFold {
                                side: Side::Src,
                                ib1: *ib1,
                                ib2: *inbounds,
                                t: TValue::of_value(ptr),
                                y: TValue::phy(x),
                                p: TValue::of_value(base),
                                c1: c1.clone(),
                                c2: c2.clone(),
                            });
                            return Some(Match {
                                name: "gep-gep",
                                action: Action::ReplaceInst(new),
                                rules: vec![rule],
                                premises: vec![def_premise(ptr, def)],
                            });
                        }
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// The second tier of micro-optimizations: multi-instruction composites
/// (the paper's sub-const-add / add-const-not / sub-or-xor /
/// icmp-eq-sub / select-icmp-eq / zext-trunc-and families).
fn try_match_composite(ctx: &Ctx<'_>, stmt: &Stmt) -> Option<Match> {
    let x = stmt.result?;
    let tv = |v: &Value| TValue::of_value(v);
    let comp = |name: &'static str, action: Action, rule: CompositeRule, premises| Match {
        name,
        action,
        rules: vec![InfRule::Arith(ArithRule::Composite(rule))],
        premises,
    };
    match &stmt.inst {
        Inst::Bin { op, ty, lhs, rhs } => {
            let ty = *ty;
            match op {
                // sub-const-add: (a + C1) - C2 → a + (C1 - C2).
                BinOp::Sub => {
                    if let (Some((_, c2)), Some(def)) = (cint(rhs), ctx.def_of(lhs)) {
                        if let Inst::Bin {
                            op: BinOp::Add,
                            ty: t1,
                            lhs: a,
                            rhs: c1v,
                        } = def.2
                        {
                            if *t1 == ty {
                                if let Some((_, c1)) = cint(c1v) {
                                    let c3 = crellvm_core::rules_arith::fold_bin(
                                        BinOp::Sub,
                                        ty,
                                        c1,
                                        c2,
                                    )?;
                                    let rule = CompositeRule::SubConstAdd {
                                        side: Side::Src,
                                        ty,
                                        t: tv(lhs),
                                        y: TValue::phy(x),
                                        a: tv(a),
                                        c1: c1.clone(),
                                        c2: c2.clone(),
                                    };
                                    return Some(comp(
                                        "sub-const-add",
                                        Action::ReplaceInst(Inst::Bin {
                                            op: BinOp::Add,
                                            ty,
                                            lhs: a.clone(),
                                            rhs: Value::Const(c3),
                                        }),
                                        rule,
                                        vec![def_premise(lhs, def)],
                                    ));
                                }
                            }
                        }
                    }
                    // sub-const-not: C - ¬a → a + (C+1).
                    if let (Some((_, c)), Some(def)) = (cint(lhs), ctx.def_of(rhs)) {
                        if let Inst::Bin {
                            op: BinOp::Xor,
                            ty: t1,
                            lhs: a,
                            rhs: m,
                        } = def.2
                        {
                            if *t1 == ty
                                && cint(m)
                                    .map(|(t, k)| *k == Const::int(t, -1))
                                    .unwrap_or(false)
                            {
                                let cp1 = crellvm_core::rules_arith::fold_bin(
                                    BinOp::Add,
                                    ty,
                                    c,
                                    &Const::int(ty, 1),
                                )?;
                                let rule = CompositeRule::SubConstNot {
                                    side: Side::Src,
                                    ty,
                                    t: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a),
                                    c: c.clone(),
                                };
                                return Some(comp(
                                    "sub-const-not",
                                    Action::ReplaceInst(Inst::Bin {
                                        op: BinOp::Add,
                                        ty,
                                        lhs: a.clone(),
                                        rhs: Value::Const(cp1),
                                    }),
                                    rule,
                                    vec![def_premise(rhs, def)],
                                ));
                            }
                        }
                    }
                    // sub-sub: a - (a - b) → b.
                    if let Some(def) = ctx.def_of(rhs) {
                        if let Inst::Bin {
                            op: BinOp::Sub,
                            ty: t1,
                            lhs: a,
                            rhs: b,
                        } = def.2
                        {
                            if *t1 == ty && a == lhs {
                                let rule = CompositeRule::SubSub {
                                    side: Side::Src,
                                    ty,
                                    t: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a),
                                    b: tv(b),
                                };
                                return Some(comp(
                                    "sub-sub",
                                    Action::ReplaceWith(b.clone()),
                                    rule,
                                    vec![def_premise(rhs, def)],
                                ));
                            }
                        }
                    }
                    // sub-or-xor: (a|b) - (a^b) → a & b.
                    if let (Some(d1), Some(d2)) = (ctx.def_of(lhs), ctx.def_of(rhs)) {
                        if let (
                            Inst::Bin {
                                op: BinOp::Or,
                                ty: ta,
                                lhs: a1,
                                rhs: b1,
                            },
                            Inst::Bin {
                                op: BinOp::Xor,
                                ty: tb,
                                lhs: a2,
                                rhs: b2,
                            },
                        ) = (d1.2, d2.2)
                        {
                            if *ta == ty
                                && *tb == ty
                                && ((a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2))
                            {
                                let rule = CompositeRule::SubOrXor {
                                    side: Side::Src,
                                    ty,
                                    t1: tv(lhs),
                                    t2: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a1),
                                    b: tv(b1),
                                };
                                return Some(comp(
                                    "sub-or-xor",
                                    Action::ReplaceInst(Inst::Bin {
                                        op: BinOp::And,
                                        ty,
                                        lhs: a1.clone(),
                                        rhs: b1.clone(),
                                    }),
                                    rule,
                                    vec![def_premise(lhs, d1), def_premise(rhs, d2)],
                                ));
                            }
                        }
                    }
                    None
                }
                // add-const-not: ¬a + C → (C-1) - a; add-xor-and; add-or-and.
                BinOp::Add => {
                    for (t, other) in [(lhs, rhs), (rhs, lhs)] {
                        if let (Some(def), Some((_, c))) = (ctx.def_of(t), cint(other)) {
                            if let Inst::Bin {
                                op: BinOp::Xor,
                                ty: t1,
                                lhs: a,
                                rhs: m,
                            } = def.2
                            {
                                if *t1 == ty
                                    && cint(m)
                                        .map(|(tt, k)| *k == Const::int(tt, -1))
                                        .unwrap_or(false)
                                {
                                    let cm1 = crellvm_core::rules_arith::fold_bin(
                                        BinOp::Sub,
                                        ty,
                                        c,
                                        &Const::int(ty, 1),
                                    )?;
                                    let rule = CompositeRule::AddConstNot {
                                        side: Side::Src,
                                        ty,
                                        t: tv(t),
                                        y: TValue::phy(x),
                                        a: tv(a),
                                        c: c.clone(),
                                    };
                                    return Some(comp(
                                        "add-const-not",
                                        Action::ReplaceInst(Inst::Bin {
                                            op: BinOp::Sub,
                                            ty,
                                            lhs: Value::Const(cm1),
                                            rhs: a.clone(),
                                        }),
                                        rule,
                                        vec![def_premise(t, def)],
                                    ));
                                }
                            }
                        }
                    }
                    if let (Some(d1), Some(d2)) = (ctx.def_of(lhs), ctx.def_of(rhs)) {
                        for (da, db, sw) in [(d1, d2, false), (d2, d1, true)] {
                            let (first, second) = if sw { (rhs, lhs) } else { (lhs, rhs) };
                            if let (
                                Inst::Bin {
                                    op: op1,
                                    ty: ta,
                                    lhs: a1,
                                    rhs: b1,
                                },
                                Inst::Bin {
                                    op: BinOp::And,
                                    ty: tb,
                                    lhs: a2,
                                    rhs: b2,
                                },
                            ) = (da.2, db.2)
                            {
                                let same_ops = (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2);
                                if *ta == ty && *tb == ty && same_ops {
                                    if *op1 == BinOp::Xor {
                                        let rule = CompositeRule::AddXorAnd {
                                            side: Side::Src,
                                            ty,
                                            t1: tv(first),
                                            t2: tv(second),
                                            y: TValue::phy(x),
                                            a: tv(a1),
                                            b: tv(b1),
                                        };
                                        return Some(comp(
                                            "add-xor-and",
                                            Action::ReplaceInst(Inst::Bin {
                                                op: BinOp::Or,
                                                ty,
                                                lhs: a1.clone(),
                                                rhs: b1.clone(),
                                            }),
                                            rule,
                                            vec![def_premise(first, da), def_premise(second, db)],
                                        ));
                                    }
                                    if *op1 == BinOp::Or {
                                        let rule = CompositeRule::AddOrAnd {
                                            side: Side::Src,
                                            ty,
                                            t1: tv(first),
                                            t2: tv(second),
                                            y: TValue::phy(x),
                                            a: tv(a1),
                                            b: tv(b1),
                                        };
                                        return Some(comp(
                                            "add-or-and",
                                            Action::ReplaceInst(Inst::Bin {
                                                op: BinOp::Add,
                                                ty,
                                                lhs: a1.clone(),
                                                rhs: b1.clone(),
                                            }),
                                            rule,
                                            vec![def_premise(first, da), def_premise(second, db)],
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    None
                }
                // or-xor: (a ^ b) | b → a | b; or-and-xor: (a&b)|(a^b) → a|b.
                BinOp::Or
                    if {
                        // quick probe: either operand defined by xor/and.
                        ctx.def_of(lhs).is_some() || ctx.def_of(rhs).is_some()
                    } =>
                {
                    for (t, other) in [(lhs, rhs), (rhs, lhs)] {
                        if let Some(def) = ctx.def_of(t) {
                            if let Inst::Bin {
                                op: BinOp::Xor,
                                ty: t1,
                                lhs: a,
                                rhs: b,
                            } = def.2
                            {
                                if *t1 == ty && (b == other || a == other) {
                                    let kept = if b == other { a } else { b };
                                    let rule = CompositeRule::OrXor {
                                        side: Side::Src,
                                        ty,
                                        t: tv(t),
                                        y: TValue::phy(x),
                                        a: tv(kept),
                                        b: tv(other),
                                    };
                                    return Some(comp(
                                        "or-xor",
                                        Action::ReplaceInst(Inst::Bin {
                                            op: BinOp::Or,
                                            ty,
                                            lhs: kept.clone(),
                                            rhs: other.clone(),
                                        }),
                                        rule,
                                        vec![def_premise(t, def)],
                                    ));
                                }
                            }
                        }
                    }
                    if let (Some(d1), Some(d2)) = (ctx.def_of(lhs), ctx.def_of(rhs)) {
                        if let (
                            Inst::Bin {
                                op: BinOp::And,
                                ty: ta,
                                lhs: a1,
                                rhs: b1,
                            },
                            Inst::Bin {
                                op: BinOp::Xor,
                                ty: tb,
                                lhs: a2,
                                rhs: b2,
                            },
                        ) = (d1.2, d2.2)
                        {
                            if *ta == ty
                                && *tb == ty
                                && ((a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2))
                            {
                                let rule = CompositeRule::OrAndXor {
                                    side: Side::Src,
                                    ty,
                                    t1: tv(lhs),
                                    t2: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a1),
                                    b: tv(b1),
                                };
                                return Some(comp(
                                    "or-and-xor",
                                    Action::ReplaceInst(Inst::Bin {
                                        op: BinOp::Or,
                                        ty,
                                        lhs: a1.clone(),
                                        rhs: b1.clone(),
                                    }),
                                    rule,
                                    vec![def_premise(lhs, d1), def_premise(rhs, d2)],
                                ));
                            }
                        }
                    }
                    // Fall through to absorption by re-running its logic.
                    let inner_op = BinOp::And;
                    for (t, a) in [(rhs, lhs), (lhs, rhs)] {
                        if let Some(def) = ctx.def_of(t) {
                            if let Inst::Bin {
                                op: iop,
                                ty: t1,
                                lhs: ia,
                                rhs: ib,
                            } = def.2
                            {
                                if *iop == inner_op && *t1 == ty && (ia == a || ib == a) {
                                    let b = if ia == a { ib } else { ia };
                                    let rule = CompositeRule::OrAndAbsorb {
                                        side: Side::Src,
                                        ty,
                                        t: tv(t),
                                        y: TValue::phy(x),
                                        a: tv(a),
                                        b: tv(b),
                                    };
                                    return Some(comp(
                                        "or-and",
                                        Action::ReplaceWith(a.clone()),
                                        rule,
                                        vec![def_premise(t, def)],
                                    ));
                                }
                            }
                        }
                    }
                    None
                }
                // and-or / or-and absorption.
                BinOp::And | BinOp::Or => {
                    let inner_op = if *op == BinOp::And {
                        BinOp::Or
                    } else {
                        BinOp::And
                    };
                    for (t, a) in [(rhs, lhs), (lhs, rhs)] {
                        if let Some(def) = ctx.def_of(t) {
                            if let Inst::Bin {
                                op: iop,
                                ty: t1,
                                lhs: ia,
                                rhs: ib,
                            } = def.2
                            {
                                if *iop == inner_op && *t1 == ty && (ia == a || ib == a) {
                                    let b = if ia == a { ib } else { ia };
                                    let (name, rule) = if *op == BinOp::And {
                                        (
                                            "and-or",
                                            CompositeRule::AndOrAbsorb {
                                                side: Side::Src,
                                                ty,
                                                t: tv(t),
                                                y: TValue::phy(x),
                                                a: tv(a),
                                                b: tv(b),
                                            },
                                        )
                                    } else {
                                        (
                                            "or-and",
                                            CompositeRule::OrAndAbsorb {
                                                side: Side::Src,
                                                ty,
                                                t: tv(t),
                                                y: TValue::phy(x),
                                                a: tv(a),
                                                b: tv(b),
                                            },
                                        )
                                    };
                                    return Some(comp(
                                        name,
                                        Action::ReplaceWith(a.clone()),
                                        rule,
                                        vec![def_premise(t, def)],
                                    ));
                                }
                            }
                        }
                    }
                    None
                }
                // mul-neg: (0-a) * (0-b) → a*b.
                BinOp::Mul => {
                    if let (Some(d1), Some(d2)) = (ctx.def_of(lhs), ctx.def_of(rhs)) {
                        if let (
                            Inst::Bin {
                                op: BinOp::Sub,
                                ty: ta,
                                lhs: z1,
                                rhs: a,
                            },
                            Inst::Bin {
                                op: BinOp::Sub,
                                ty: tb,
                                lhs: z2,
                                rhs: b,
                            },
                        ) = (d1.2, d2.2)
                        {
                            let zero = |v: &Value| {
                                cint(v)
                                    .map(|(t, c)| *c == Const::int(t, 0))
                                    .unwrap_or(false)
                            };
                            if *ta == ty && *tb == ty && zero(z1) && zero(z2) {
                                let rule = CompositeRule::MulNeg {
                                    side: Side::Src,
                                    ty,
                                    t1: tv(lhs),
                                    t2: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a),
                                    b: tv(b),
                                };
                                return Some(comp(
                                    "mul-neg",
                                    Action::ReplaceInst(Inst::Bin {
                                        op: BinOp::Mul,
                                        ty,
                                        lhs: a.clone(),
                                        rhs: b.clone(),
                                    }),
                                    rule,
                                    vec![def_premise(lhs, d1), def_premise(rhs, d2)],
                                ));
                            }
                        }
                    }
                    None
                }
                // shl-shl: (a << C1) << C2 → a << (C1+C2).
                BinOp::Shl => {
                    if let (Some((_, c2)), Some(def)) = (cint(rhs), ctx.def_of(lhs)) {
                        if let Inst::Bin {
                            op: BinOp::Shl,
                            ty: t1,
                            lhs: a,
                            rhs: c1v,
                        } = def.2
                        {
                            if *t1 == ty {
                                if let Some((_, c1)) = cint(c1v) {
                                    let (Const::Int { bits: b1, .. }, Const::Int { bits: b2, .. }) =
                                        (c1, c2)
                                    else {
                                        return None;
                                    };
                                    let sum = ty.truncate(*b1) + ty.truncate(*b2);
                                    if sum >= ty.bits() as u64 {
                                        return None;
                                    }
                                    let rule = CompositeRule::ShlShl {
                                        side: Side::Src,
                                        ty,
                                        t: tv(lhs),
                                        y: TValue::phy(x),
                                        a: tv(a),
                                        c1: c1.clone(),
                                        c2: c2.clone(),
                                    };
                                    return Some(comp(
                                        "shl-shl",
                                        Action::ReplaceInst(Inst::Bin {
                                            op: BinOp::Shl,
                                            ty,
                                            lhs: a.clone(),
                                            rhs: Value::Const(Const::Int { ty, bits: sum }),
                                        }),
                                        rule,
                                        vec![def_premise(lhs, def)],
                                    ));
                                }
                            }
                        }
                    }
                    None
                }
                _ => None,
            }
        }
        Inst::Icmp { pred, ty, lhs, rhs } => {
            let ne = match pred {
                IcmpPred::Eq => false,
                IcmpPred::Ne => true,
                _ => return None,
            };
            let ty = *ty;
            // icmp-eq-sub: (a - b) ==/!= 0 → a ==/!= b.
            if cint(rhs)
                .map(|(t, c)| *c == Const::int(t, 0))
                .unwrap_or(false)
            {
                if let Some(def) = ctx.def_of(lhs) {
                    if let Inst::Bin {
                        op: BinOp::Sub,
                        ty: t1,
                        lhs: a,
                        rhs: b,
                    } = def.2
                    {
                        if *t1 == ty {
                            let rule = CompositeRule::IcmpEqSub {
                                side: Side::Src,
                                ty,
                                t: tv(lhs),
                                y: TValue::phy(x),
                                a: tv(a),
                                b: tv(b),
                                ne,
                            };
                            let name = if ne { "icmp-ne-sub" } else { "icmp-eq-sub" };
                            return Some(comp(
                                name,
                                Action::ReplaceInst(Inst::Icmp {
                                    pred: *pred,
                                    ty,
                                    lhs: a.clone(),
                                    rhs: b.clone(),
                                }),
                                rule,
                                vec![def_premise(lhs, def)],
                            ));
                        }
                    }
                }
            }
            // icmp-eq-add-add / icmp-eq-xor-xor: cancel a common operand.
            if let (Some(d1), Some(d2)) = (ctx.def_of(lhs), ctx.def_of(rhs)) {
                if let (
                    Inst::Bin {
                        op: o1,
                        ty: ta,
                        lhs: a1,
                        rhs: c1,
                    },
                    Inst::Bin {
                        op: o2,
                        ty: tb,
                        lhs: a2,
                        rhs: c2,
                    },
                ) = (d1.2, d2.2)
                {
                    if o1 == o2 && *ta == ty && *tb == ty && c1 == c2 {
                        let rule = match o1 {
                            BinOp::Add => Some((
                                if ne {
                                    "icmp-ne-add-add"
                                } else {
                                    "icmp-eq-add-add"
                                },
                                CompositeRule::IcmpEqAddAdd {
                                    side: Side::Src,
                                    ty,
                                    t1: tv(lhs),
                                    t2: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a1),
                                    b: tv(a2),
                                    c: tv(c1),
                                    ne,
                                },
                            )),
                            BinOp::Xor => Some((
                                if ne {
                                    "icmp-ne-xor-xor"
                                } else {
                                    "icmp-eq-xor-xor"
                                },
                                CompositeRule::IcmpEqXorXor {
                                    side: Side::Src,
                                    ty,
                                    t1: tv(lhs),
                                    t2: tv(rhs),
                                    y: TValue::phy(x),
                                    a: tv(a1),
                                    b: tv(a2),
                                    c: tv(c1),
                                    ne,
                                },
                            )),
                            _ => None,
                        };
                        if let Some((name, rule)) = rule {
                            return Some(comp(
                                name,
                                Action::ReplaceInst(Inst::Icmp {
                                    pred: *pred,
                                    ty,
                                    lhs: a1.clone(),
                                    rhs: a2.clone(),
                                }),
                                rule,
                                vec![def_premise(lhs, d1), def_premise(rhs, d2)],
                            ));
                        }
                    }
                }
            }
            None
        }
        Inst::Select {
            ty,
            cond,
            on_true,
            on_false,
        } => {
            let def = ctx.def_of(cond)?;
            if let Inst::Icmp {
                pred,
                ty: cty,
                lhs: a,
                rhs: b,
            } = def.2
            {
                let ne = match pred {
                    IcmpPred::Eq => false,
                    IcmpPred::Ne => true,
                    _ => return None,
                };
                if cty == ty && a == on_true && b == on_false {
                    let rule = CompositeRule::SelectIcmpEq {
                        side: Side::Src,
                        ty: *ty,
                        c: tv(cond),
                        y: TValue::phy(x),
                        a: tv(a),
                        b: tv(b),
                        ne,
                    };
                    let kept = if ne {
                        on_true.clone()
                    } else {
                        on_false.clone()
                    };
                    let name = if ne {
                        "select-icmp-ne"
                    } else {
                        "select-icmp-eq"
                    };
                    return Some(comp(
                        name,
                        Action::ReplaceWith(kept),
                        rule,
                        vec![def_premise(cond, def)],
                    ));
                }
            }
            None
        }
        Inst::Cast {
            op: CastOp::Zext,
            from,
            val,
            to,
        } => {
            // zext-trunc-and: zext(trunc a to S) to B → a & mask, when the
            // original type equals B.
            let def = ctx.def_of(val)?;
            if let Inst::Cast {
                op: CastOp::Trunc,
                from: big,
                val: a,
                to: small,
            } = def.2
            {
                if small == from && big == to {
                    let rule = CompositeRule::ZextTruncAnd {
                        side: Side::Src,
                        big: *big,
                        small: *small,
                        t: tv(val),
                        y: TValue::phy(x),
                        a: tv(a),
                    };
                    let mask = Const::Int {
                        ty: *big,
                        bits: small.mask(),
                    };
                    return Some(comp(
                        "zext-trunc-and",
                        Action::ReplaceInst(Inst::Bin {
                            op: BinOp::And,
                            ty: *big,
                            lhs: a.clone(),
                            rhs: Value::Const(mask),
                        }),
                        rule,
                        vec![def_premise(val, def)],
                    ));
                }
            }
            None
        }
        _ => None,
    }
}

/// One instcombine sweep over a function, producing the proof unit and
/// recording per-micro-rule hit counters (`pass.instcombine.*`) into `tel`.
pub fn instcombine_function_traced(
    f: &Function,
    config: &PassConfig,
    tel: &crellvm_telemetry::Telemetry,
) -> ProofUnit {
    let mut pb = ProofBuilder::new("instcombine", f);
    pb.set_recording(config.gen_proofs);
    if let Some(reason) = crate::util::ns_reason(f, "instcombine") {
        pb.mark_not_supported(reason);
        return pb.finish();
    }
    pb.auto(AutoKind::Transitivity);
    pb.auto(AutoKind::ReduceMaydiff);
    let ctx = Ctx { f };
    // Registers deleted this sweep: replacement value (fully resolved) and
    // the deletion site (for re-asserting the `r ⊒ v` fact where later
    // rewrites mention `r`).
    let mut replaced: HashMap<RegId, (Value, usize, usize)> = HashMap::new();

    let resolve = |v: &Value, replaced: &HashMap<RegId, (Value, usize, usize)>| -> Value {
        match v.as_reg().and_then(|r| replaced.get(&r)) {
            Some((next, _, _)) => next.clone(),
            None => v.clone(),
        }
    };

    for b in 0..f.blocks.len() {
        for (i, stmt) in f.blocks[b].stmts.iter().enumerate() {
            let Some(m) = try_match(&ctx, stmt).or_else(|| try_match_composite(&ctx, stmt)) else {
                continue;
            };
            let x = stmt.result.expect("matched statements have results");
            // Per-micro-rule hit counts: the x-axis of the paper's Fig 7.
            tel.count("pass.instcombine.rewrites", 1);
            tel.count(&format!("pass.instcombine.rule.{}", m.name), 1);

            // Premise ranges from operand definitions to this row.
            let to_loc = {
                let row = pb.row_of_src(b, i);
                if row == 0 {
                    Loc::Start(b)
                } else {
                    Loc::AfterRow(b, row - 1)
                }
            };
            for (side, pred, (db, di)) in &m.premises {
                let from = Loc::AfterRow(*db, pb.row_of_src(*db, *di));
                pb.range_pred(*side, pred.clone(), from, to_loc);
            }
            for rule in m.rules {
                pb.infrule_after_src(b, i, rule);
            }

            // A rewrite may mention registers deleted by earlier rewrites
            // (both in its new instruction and in its rule conclusions);
            // re-assert their resolution facts up to this row so the
            // substitution automation can bridge.
            let mut mentioned: Vec<RegId> = Vec::new();
            match &m.action {
                Action::ReplaceInst(inst) => inst.for_each_value(|v| {
                    if let Some(r) = v.as_reg() {
                        mentioned.push(r);
                    }
                }),
                Action::ReplaceWith(Value::Reg(r)) => mentioned.push(*r),
                Action::ReplaceWith(_) => {}
            }
            for r in mentioned {
                if let Some((v, db, di)) = replaced.get(&r).cloned() {
                    let from = Loc::AfterRow(db, pb.row_of_src(db, di));
                    pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(
                            Expr::Value(TValue::phy(r)),
                            Expr::Value(TValue::of_value(&v)),
                        ),
                        from,
                        to_loc,
                    );
                }
            }

            match m.action {
                Action::ReplaceInst(mut inst) => {
                    // Operands may have been deleted by earlier rewrites.
                    inst.for_each_value_mut(|v| *v = resolve(v, &replaced));
                    pb.replace_tgt(b, i, inst);
                }
                Action::ReplaceWith(v) => {
                    let v = resolve(&v, &replaced);
                    // Assert x ⊒ v to every use, then delete.
                    let xv = Expr::Value(TValue::phy(x));
                    let ve = Expr::Value(TValue::of_value(&v));
                    let after = Loc::AfterRow(b, pb.row_of_src(b, i));
                    let uses = uses_of(pb.tgt(), x);
                    for site in &uses {
                        let to = match site {
                            UseSite::Stmt(ub, ut) => {
                                let row = pb.row_of_tgt(*ub, *ut);
                                if row == 0 {
                                    Loc::Start(*ub)
                                } else {
                                    Loc::AfterRow(*ub, row - 1)
                                }
                            }
                            UseSite::Term(ub) => Loc::End(*ub),
                            UseSite::PhiEdge(_, _, pred) => Loc::End(*pred),
                        };
                        pb.range_pred(Side::Src, Pred::Lessdef(xv.clone(), ve.clone()), after, to);
                    }
                    pb.replace_tgt_uses(x, &v);
                    pb.delete_tgt(b, i);
                    pb.global_maydiff(crellvm_core::TReg::Phy(x));
                    replaced.insert(x, (v, b, i));
                }
            }
        }
    }

    // dead-code-elim (paper §D lists it among the instcombine
    // micro-optimizations): repeatedly drop pure target statements whose
    // results are unused. No assertions are needed — a deleted pure
    // instruction only adds its result to the maydiff set.
    loop {
        let counts = pb.tgt().use_counts();
        let mut victim: Option<(usize, usize, RegId)> = None;
        'scan: for (b, block) in pb.tgt().blocks.iter().enumerate() {
            for s in &block.stmts {
                let Some(r) = s.result else { continue };
                if s.inst.is_pure() && counts.get(&r).copied().unwrap_or(0) == 0 {
                    // Map the target statement back to its source index.
                    let src_idx = f.blocks[b]
                        .stmts
                        .iter()
                        .position(|ss| ss.result == Some(r))
                        .expect("pure results keep their source row");
                    victim = Some((b, src_idx, r));
                    break 'scan;
                }
            }
        }
        match victim {
            Some((b, i, r)) => {
                pb.delete_tgt(b, i);
                pb.global_maydiff(crellvm_core::TReg::Phy(r));
                tel.count("pass.instcombine.rule.dead-code-elim", 1);
            }
            None => break,
        }
    }
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_core::{validate, Verdict};
    use crellvm_ir::{parse_module, verify_module};

    fn run(src: &str) -> PassOutcome {
        let m = parse_module(src).expect("parse");
        verify_module(&m).expect("input verifies");
        let out = instcombine(&m, &PassConfig::default());
        verify_module(&out.module).expect("output verifies");
        out
    }

    fn assert_all_valid(out: &PassOutcome) {
        for unit in &out.proofs {
            assert_eq!(
                validate(unit),
                Ok(Verdict::Valid),
                "unit for @{}\ntgt:\n{}",
                unit.src.name,
                unit.tgt
            );
        }
    }

    fn main_fn(body: &str) -> String {
        format!(
            "declare @print(i32)\ndeclare @print64(i64)\ndefine @main(i32 %a, i32 %b) {{\nentry:\n{body}  ret void\n}}\n"
        )
    }

    #[test]
    fn fig2_assoc_add() {
        let out = run(&main_fn(
            "  %x = add i32 %a, 1\n  %y = add i32 %x, 2\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        // y := add a 3 now, and the dead x := add a 1 was removed by the
        // dead-code-elim micro-optimization.
        assert_eq!(f.blocks[0].stmts.len(), 2, "{f}");
        let y = &f.blocks[0].stmts[0].inst;
        assert_eq!(
            *y,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::int(Type::I32, 3)
            }
        );
        assert_all_valid(&out);
    }

    #[test]
    fn add_zero_removes_instruction() {
        let out = run(&main_fn(
            "  %x = add i32 %a, 0\n  call void @print(i32 %x)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        assert_all_valid(&out);
    }

    #[test]
    fn chained_rewrites_resolve_operands() {
        // x := a + 0 (deleted), y := x ^ x (folds to 0), print(y → 0).
        let out = run(&main_fn(
            "  %x = add i32 %a, 0\n  %y = xor i32 %x, %x\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::int(Type::I32, 0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_all_valid(&out);
    }

    #[test]
    fn constant_folding() {
        let out = run(&main_fn(
            "  %x = add i32 20, 22\n  call void @print(i32 %x)\n",
        ));
        let f = out.module.function("main").unwrap();
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::int(Type::I32, 42)),
            other => panic!("unexpected {other:?}"),
        }
        assert_all_valid(&out);
    }

    #[test]
    fn mul_shl_strength_reduction() {
        let out = run(&main_fn(
            "  %x = mul i32 %a, 8\n  call void @print(i32 %x)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert!(
            matches!(f.blocks[0].stmts[0].inst, Inst::Bin { op: BinOp::Shl, .. }),
            "{f}"
        );
        assert_all_valid(&out);
    }

    #[test]
    fn sub_add_cancellation() {
        let out = run(&main_fn(
            "  %t = add i32 %a, %b\n  %y = sub i32 %t, %b\n  call void @print(i32 %y)\n  call void @print(i32 %t)\n",
        ));
        let f = out.module.function("main").unwrap();
        // y deleted; first print gets %a.
        match &f.blocks[0].stmts[1].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[0].1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_all_valid(&out);
    }

    #[test]
    fn xor_cancellation() {
        let out = run(&main_fn(
            "  %t = xor i32 %a, %b\n  %y = xor i32 %t, %b\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        // y folded to a; t became dead and was removed.
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[0].1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_all_valid(&out);
    }

    #[test]
    fn cast_compositions() {
        let out = run(r#"
            declare @print64(i64)
            define @main(i8 %v) {
            entry:
              %w = zext i8 %v to i16
              %x = zext i16 %w to i64
              call void @print64(i64 %x)
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        // x := zext i8 %v to i64 directly; the intermediate w is dead.
        assert!(
            matches!(
                &f.blocks[0].stmts[0].inst,
                Inst::Cast {
                    op: CastOp::Zext,
                    from: Type::I8,
                    to: Type::I64,
                    ..
                }
            ),
            "{f}"
        );
        assert_all_valid(&out);
    }

    #[test]
    fn zext_trunc_roundtrip_removed() {
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %v) {
            entry:
              %w = zext i32 %v to i64
              %x = trunc i64 %w to i32
              call void @print(i32 %x)
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        // x deleted, w dead-code-eliminated, print uses %v.
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[0].1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_all_valid(&out);
    }

    #[test]
    fn gep_folds() {
        let out = run(r#"
            declare @sink(ptr)
            define @main(ptr %p) {
            entry:
              %q = gep inbounds ptr %p, i64 2
              %r = gep inbounds ptr %q, i64 3
              %z = gep ptr %p, i64 0
              call void @sink(ptr %r)
              call void @sink(ptr %z)
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        // r := gep inbounds p, 5 (q became dead); z deleted (uses p).
        assert!(
            matches!(
                &f.blocks[0].stmts[0].inst,
                Inst::Gep {
                    inbounds: true,
                    offset: Value::Const(Const::Int { bits: 5, .. }),
                    ..
                }
            ),
            "{f}"
        );
        assert_all_valid(&out);
    }

    #[test]
    fn select_and_icmp_simplifications() {
        let out = run(&main_fn(
            "  %c = icmp eq i32 %a, %a\n  %s = select i1 %c, i32 %a, i32 %b\n  call void @print(i32 %s)\n",
        ));
        let f = out.module.function("main").unwrap();
        // icmp eq a a → true; select true … would need a second sweep —
        // at least the icmp folded.
        assert!(f.blocks[0].stmts.len() <= 2, "{f}");
        assert_all_valid(&out);

        // Second sweep finishes the job.
        let out2 = instcombine(&out.module, &PassConfig::default());
        let f = out2.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        for unit in &out2.proofs {
            assert_eq!(validate(unit), Ok(Verdict::Valid));
        }
    }

    #[test]
    fn replaced_register_feeding_phi() {
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %a, i1 %c) {
            entry:
              %x = add i32 %a, 0
              br i1 %c, label t, label e
            t:
              br label j
            e:
              br label j
            j:
              %p = phi i32 [ %x, t ], [ 7, e ]
              call void @print(i32 %p)
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        let j = f.block_by_name("j").unwrap();
        let (_, phi) = &f.block(j).phis[0];
        let t = f.block_by_name("t").unwrap();
        assert_eq!(phi.value_from(t), Some(&Value::Reg(f.params[0].1)));
        assert_all_valid(&out);
    }

    #[test]
    fn unsupported_is_ns() {
        let m = parse_module(
            "define @f() {\nentry:\n  %u = unsupported \"vector.fma\"\n  ret void\n}\n",
        )
        .unwrap();
        let out = instcombine(&m, &PassConfig::default());
        assert!(matches!(
            validate(&out.proofs[0]),
            Ok(Verdict::NotSupported(_))
        ));
    }
}

#[cfg(test)]
mod composite_tests {
    use super::*;
    use crellvm_core::{validate, Verdict};
    use crellvm_ir::{parse_module, verify_module};

    fn run(src: &str) -> PassOutcome {
        let m = parse_module(src).expect("parse");
        verify_module(&m).expect("input verifies");
        let out = instcombine(&m, &PassConfig::default());
        verify_module(&out.module).expect("output verifies");
        for unit in &out.proofs {
            assert_eq!(
                validate(unit),
                Ok(Verdict::Valid),
                "unit for @{}\ntgt:\n{}",
                unit.src.name,
                unit.tgt
            );
        }
        out
    }

    fn body(stmts: &str) -> String {
        format!(
            "declare @print(i32)\ndefine @main(i32 %a, i32 %b) {{\nentry:\n{stmts}  ret void\n}}\n"
        )
    }

    fn first_inst(out: &PassOutcome) -> Inst {
        out.module.function("main").unwrap().blocks[0].stmts[0]
            .inst
            .clone()
    }

    #[test]
    fn sub_const_add() {
        let out = run(&body(
            "  %t = add i32 %a, 10\n  %y = sub i32 %t, 3\n  call void @print(i32 %y)\n",
        ));
        assert_eq!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(out.module.function("main").unwrap().params[0].1),
                rhs: Value::int(Type::I32, 7)
            }
        );
    }

    #[test]
    fn add_const_not_and_sub_const_not() {
        let out = run(&body(
            "  %t = xor i32 %a, -1\n  %y = add i32 %t, 5\n  call void @print(i32 %y)\n",
        ));
        // ¬a + 5 = (5-1) - a = 4 - a.
        assert_eq!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Sub,
                ty: Type::I32,
                lhs: Value::int(Type::I32, 4),
                rhs: Value::Reg(out.module.function("main").unwrap().params[0].1),
            }
        );
        let out = run(&body(
            "  %t = xor i32 %a, -1\n  %y = sub i32 9, %t\n  call void @print(i32 %y)\n",
        ));
        // 9 - ¬a = a + 10.
        assert_eq!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(out.module.function("main").unwrap().params[0].1),
                rhs: Value::int(Type::I32, 10),
            }
        );
    }

    #[test]
    fn sub_or_xor_and_add_variants() {
        let out = run(&body(
            "  %o = or i32 %a, %b\n  %x = xor i32 %a, %b\n  %y = sub i32 %o, %x\n  call void @print(i32 %y)\n",
        ));
        assert!(matches!(first_inst(&out), Inst::Bin { op: BinOp::And, .. }));

        let out = run(&body(
            "  %x = xor i32 %a, %b\n  %n = and i32 %a, %b\n  %y = add i32 %x, %n\n  call void @print(i32 %y)\n",
        ));
        assert!(matches!(first_inst(&out), Inst::Bin { op: BinOp::Or, .. }));

        let out = run(&body(
            "  %o = or i32 %a, %b\n  %n = and i32 %a, %b\n  %y = add i32 %o, %n\n  call void @print(i32 %y)\n",
        ));
        // (a|b) + (a&b) = a + b.
        let f = out.module.function("main").unwrap();
        assert_eq!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::Reg(f.params[1].1)
            }
        );
    }

    #[test]
    fn absorption_laws() {
        let out = run(&body(
            "  %o = or i32 %a, %b\n  %y = and i32 %a, %o\n  call void @print(i32 %y)\n",
        ));
        // Folds to a; the or becomes dead.
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[0].1)),
            other => panic!("unexpected {other:?}"),
        }
        let out = run(&body(
            "  %o = and i32 %b, %a\n  %y = or i32 %a, %o\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
    }

    #[test]
    fn mul_neg_and_shl_shl() {
        let out = run(&body(
            "  %n1 = sub i32 0, %a\n  %n2 = sub i32 0, %b\n  %y = mul i32 %n1, %n2\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert_eq!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Mul,
                ty: Type::I32,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::Reg(f.params[1].1)
            }
        );
        let out = run(&body(
            "  %t = shl i32 %a, 3\n  %y = shl i32 %t, 4\n  call void @print(i32 %y)\n",
        ));
        assert!(matches!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Shl,
                rhs: Value::Const(Const::Int { bits: 7, .. }),
                ..
            }
        ));
        // Overflowing combined shift is NOT folded.
        let out = run(&body(
            "  %t = shl i32 %a, 20\n  %y = shl i32 %t, 15\n  call void @print(i32 %y)\n",
        ));
        assert_eq!(
            out.module.function("main").unwrap().blocks[0].stmts.len(),
            3
        );
    }

    #[test]
    fn icmp_cancellation_family() {
        let out = run(&body("  %t = sub i32 %a, %b\n  %y = icmp eq i32 %t, 0\n  %z = select i1 %y, i32 1, i32 2\n  call void @print(i32 %z)\n"));
        let f = out.module.function("main").unwrap();
        assert!(
            matches!(
                &f.blocks[0].stmts[0].inst,
                Inst::Icmp {
                    pred: IcmpPred::Eq,
                    ..
                }
            ),
            "{f}"
        );

        let out = run(&body(
            "  %t1 = add i32 %a, 7\n  %t2 = add i32 %b, 7\n  %y = icmp ne i32 %t1, %t2\n  %z = select i1 %y, i32 1, i32 2\n  call void @print(i32 %z)\n",
        ));
        let f = out.module.function("main").unwrap();
        assert!(
            matches!(
                &f.blocks[0].stmts[0].inst,
                Inst::Icmp {
                    pred: IcmpPred::Ne,
                    ..
                }
            ),
            "{f}"
        );

        let out = run(&body(
            "  %t1 = xor i32 %a, %b\n  %t2 = xor i32 %b, %b\n  %y = icmp eq i32 %t1, %t2\n  %z = select i1 %y, i32 1, i32 2\n  call void @print(i32 %z)\n",
        ));
        // t2 folds to 0 first (xor-same); the add-add rule needs matching
        // defs, so only check validity + well-formedness here.
        let _ = f;
        let _ = out;
    }

    #[test]
    fn select_icmp_folds() {
        let out = run(&body(
            "  %c = icmp eq i32 %a, %b\n  %y = select i1 %c, i32 %a, i32 %b\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        // select(a==b, a, b) → b (everything else dead).
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[1].1)),
            other => panic!("unexpected {other:?}"),
        }
        let out = run(&body(
            "  %c = icmp ne i32 %a, %b\n  %y = select i1 %c, i32 %a, i32 %b\n  call void @print(i32 %y)\n",
        ));
        let f = out.module.function("main").unwrap();
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[0].1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zext_trunc_and_masks() {
        let out = run(
            "declare @print64(i64)\ndefine @main(i64 %a) {\nentry:\n  %t = trunc i64 %a to i8\n  %y = zext i8 %t to i64\n  call void @print64(i64 %y)\n  ret void\n}\n",
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(
            f.blocks[0].stmts[0].inst,
            Inst::Bin {
                op: BinOp::And,
                ty: Type::I64,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::int(Type::I64, 0xff)
            },
            "{f}"
        );
    }

    #[test]
    fn division_identities() {
        let out = run(&body(
            "  %y = sdiv i32 %a, -1\n  call void @print(i32 %y)\n",
        ));
        assert!(matches!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::Sub,
                lhs: Value::Const(_),
                ..
            }
        ));
        let out = run(&body(
            "  %y = udiv i32 %a, 16\n  call void @print(i32 %y)\n",
        ));
        assert!(matches!(
            first_inst(&out),
            Inst::Bin {
                op: BinOp::LShr,
                rhs: Value::Const(Const::Int { bits: 4, .. }),
                ..
            }
        ));
        let out = run(&body("  %y = srem i32 %a, 1\n  call void @print(i32 %y)\n"));
        let f = out.module.function("main").unwrap();
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::int(Type::I32, 0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dce_keeps_impure_and_used() {
        let out = run(&body(
            "  %dead = mul i32 %a, %b\n  %live = add i32 %a, %b\n  call void @print(i32 %live)\n",
        ));
        let f = out.module.function("main").unwrap();
        // %dead removed, %live kept, the (impure) call kept.
        assert_eq!(f.blocks[0].stmts.len(), 2, "{f}");
        let out = run(&body("  %x = sdiv i32 %a, %b\n  call void @print(i32 7)\n"));
        let f = out.module.function("main").unwrap();
        // A division may trap: never dead-code-eliminated.
        assert_eq!(f.blocks[0].stmts.len(), 2, "{f}");
    }
}

#[cfg(test)]
mod composite_tests2 {
    use super::*;
    use crellvm_core::{validate, Verdict};
    use crellvm_ir::{parse_module, verify_module};

    fn run(body: &str) -> crellvm_ir::Function {
        let src = format!(
            "declare @print(i32)\ndefine @main(i32 %a, i32 %b) {{\nentry:\n{body}  ret void\n}}\n"
        );
        let m = parse_module(&src).expect("parse");
        verify_module(&m).expect("input verifies");
        let out = instcombine(&m, &PassConfig::default());
        verify_module(&out.module).expect("output verifies");
        for unit in &out.proofs {
            assert_eq!(validate(unit), Ok(Verdict::Valid), "tgt:\n{}", unit.tgt);
        }
        out.module.function("main").unwrap().clone()
    }

    #[test]
    fn or_xor_family() {
        let f = run("  %t = xor i32 %a, %b\n  %y = or i32 %t, %b\n  call void @print(i32 %y)\n");
        assert_eq!(
            f.blocks[0].stmts[0].inst,
            Inst::Bin {
                op: BinOp::Or,
                ty: Type::I32,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::Reg(f.params[1].1)
            },
            "{f}"
        );
        let f = run(
            "  %n = and i32 %a, %b\n  %t = xor i32 %a, %b\n  %y = or i32 %n, %t\n  call void @print(i32 %y)\n",
        );
        assert!(
            matches!(f.blocks[0].stmts[0].inst, Inst::Bin { op: BinOp::Or, .. }),
            "{f}"
        );
    }

    #[test]
    fn sub_sub_recovers_operand() {
        let f = run("  %t = sub i32 %a, %b\n  %y = sub i32 %a, %t\n  call void @print(i32 %y)\n");
        // y folds to b; t becomes dead.
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => assert_eq!(args[0].1, Value::Reg(f.params[1].1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn add_signbit_and_sub_mone() {
        let f = run("  %y = add i32 %a, -2147483648\n  call void @print(i32 %y)\n");
        assert!(
            matches!(f.blocks[0].stmts[0].inst, Inst::Bin { op: BinOp::Xor, .. }),
            "{f}"
        );
        let f = run("  %y = sub i32 -1, %a\n  call void @print(i32 %y)\n");
        assert_eq!(
            f.blocks[0].stmts[0].inst,
            Inst::Bin {
                op: BinOp::Xor,
                ty: Type::I32,
                lhs: Value::Reg(f.params[0].1),
                rhs: Value::int(Type::I32, -1)
            },
            "{f}"
        );
    }
}
