//! Global value numbering with scalar PRE (LLVM's `gvn` pass) and proof
//! generation (paper §C).
//!
//! The pass assigns *value numbers* to pure instructions by hashing their
//! operator over their operands' numbers (the paper's `VT`/`ET` tables),
//! keeps per-number *leader* lists, and
//!
//! * replaces a fully redundant instruction with a dominating leader,
//! * inserts phi-merges for partially redundant expressions
//!   (`performScalarPREInsertion`), using per-edge leaders, *branch-
//!   condition-derived constants* (the paper's `BCT` table, §C.3), and
//!   fresh computations inserted into predecessors.
//!
//! Loads are **not** value-numbered (the paper excludes `processLoad`,
//! which needs the alias-analysis module).
//!
//! Historical bugs: with [`crate::BugSet::pr28562`] the hash ignores the
//! `gep inbounds` flag, so a plain `gep` can be "replaced" by a
//! poison-producing inbounds leader; with [`crate::BugSet::d38619`] the
//! PRE edge-leader search ignores branch polarity, feeding a constant from
//! the *wrong* edge into the merge phi.

use crate::config::{PassConfig, PassOutcome};
use crate::util::{uses_of, UseSite};
use crellvm_core::{
    ArithRule, AutoKind, Expr, InfRule, Loc, Pred, ProofBuilder, ProofUnit, Side, TValue,
};
use crellvm_ir::{
    BinOp, BlockId, Cfg, Const, DomTree, Function, IcmpPred, Inst, Module, Phi, RegId, Stmt, Term,
    Type, Value,
};
use std::collections::HashMap;

/// Run GVN-PRE over every function of a module.
pub fn gvn(module: &Module, config: &PassConfig) -> PassOutcome {
    crate::pipeline::run_pass("gvn", module, config)
}

/// A value number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Vn(u32);

/// Hash key for the expression table (`ET`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VnKey {
    Bin(BinOp, Type, Vn, Vn),
    Icmp(IcmpPred, Type, Vn, Vn),
    Select(Type, Vn, Vn, Vn),
    Cast(crellvm_ir::CastOp, Type, Type, Vn),
    Gep(Option<bool>, Vn, Vn),
    Const(Const),
}

/// How a deleted register was replaced, and whether the source-side
/// lessdef facts exist in both directions (needed to justify later
/// substitution bridges).
#[derive(Debug, Clone)]
struct ReplacementInfo {
    value: Value,
    block: usize,
    stmt: usize,
    /// Both `x ⊒ v` and `v ⊒ x` were asserted in the source.
    bidir: bool,
    /// The facts live in the source at all (false for PRE phis, whose
    /// mediation goes through ghosts instead).
    src_fact: bool,
}

#[derive(Debug, Clone)]
struct DefInfo {
    block: usize,
    stmt: usize,
    expr: Expr,
    inst: Inst,
}

struct Gvn<'a> {
    pb: ProofBuilder,
    src: Function,
    cfg: Cfg,
    dom: DomTree,
    config: &'a PassConfig,
    next: u32,
    vt: HashMap<RegId, Vn>,
    et: HashMap<VnKey, Vn>,
    /// Per value number: the registers that still compute it in the target
    /// (i.e. were not deleted), with their definition sites.
    leaders: HashMap<Vn, Vec<(RegId, usize, usize)>>,
    defs: HashMap<RegId, DefInfo>,
    /// Registers deleted by a replacement (their uses now name the leader).
    replaced: HashMap<RegId, ReplacementInfo>,
    /// Registers that have served as replacement leaders: deleting them
    /// later (e.g. by PRE) would orphan earlier proofs.
    used_leaders: std::collections::HashSet<RegId>,
    /// Telemetry: full-redundancy replacements performed.
    stat_replaced: u64,
    /// Telemetry: PRE phi insertions performed.
    stat_pre: u64,
}

impl Gvn<'_> {
    fn fresh_vn(&mut self) -> Vn {
        self.next += 1;
        Vn(self.next)
    }

    fn vn_of_const(&mut self, c: &Const) -> Vn {
        let key = VnKey::Const(c.clone());
        if let Some(&v) = self.et.get(&key) {
            return v;
        }
        let v = self.fresh_vn();
        self.et.insert(key, v);
        v
    }

    fn vn_of_value(&mut self, v: &Value) -> Vn {
        match v {
            Value::Reg(r) => *self
                .vt
                .get(r)
                .expect("operand numbered before use (RPO + dominance)"),
            Value::Const(c) => self.vn_of_const(c),
        }
    }

    /// Key for a pure instruction, canonicalizing commutative operands.
    fn key_of(&mut self, inst: &Inst) -> Option<VnKey> {
        match inst {
            Inst::Bin { op, ty, lhs, rhs } => {
                let (mut a, mut b) = (self.vn_of_value(lhs), self.vn_of_value(rhs));
                if op.is_commutative() && b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                Some(VnKey::Bin(*op, *ty, a, b))
            }
            Inst::Icmp { pred, ty, lhs, rhs } => {
                let (mut p, mut a, mut b) = (*pred, self.vn_of_value(lhs), self.vn_of_value(rhs));
                if b < a {
                    std::mem::swap(&mut a, &mut b);
                    p = p.swapped();
                }
                Some(VnKey::Icmp(p, *ty, a, b))
            }
            Inst::Select {
                ty,
                cond,
                on_true,
                on_false,
            } => Some(VnKey::Select(
                *ty,
                self.vn_of_value(cond),
                self.vn_of_value(on_true),
                self.vn_of_value(on_false),
            )),
            Inst::Cast { op, from, val, to } => {
                Some(VnKey::Cast(*op, *from, *to, self.vn_of_value(val)))
            }
            Inst::Gep {
                inbounds,
                ptr,
                offset,
            } => {
                // PR28562: the buggy hash erases the inbounds flag.
                let flag = if self.config.bugs.pr28562 {
                    None
                } else {
                    Some(*inbounds)
                };
                Some(VnKey::Gep(
                    flag,
                    self.vn_of_value(ptr),
                    self.vn_of_value(offset),
                ))
            }
            // Loads, calls, allocas, stores, unsupported: opaque.
            _ => None,
        }
    }

    fn def_dominates(&self, (db, di): (usize, usize), (ub, ui): (usize, usize)) -> bool {
        if db == ub {
            di < ui
        } else {
            self.dom
                .strictly_dominates(BlockId::from_index(db), BlockId::from_index(ub))
        }
    }

    /// Does def `(db, _)` dominate the END of block `b`?
    fn def_dominates_block_end(&self, (db, _): (usize, usize), b: usize) -> bool {
        db == b
            || self
                .dom
                .strictly_dominates(BlockId::from_index(db), BlockId::from_index(b))
    }

    fn loc_before_src(&self, b: usize, i: usize) -> Loc {
        let row = self.pb.row_of_src(b, i);
        if row == 0 {
            Loc::Start(b)
        } else {
            Loc::AfterRow(b, row - 1)
        }
    }

    fn loc_of_use(&self, site: UseSite) -> Loc {
        match site {
            UseSite::Stmt(b, t) => {
                let row = self.pb.row_of_tgt(b, t);
                if row == 0 {
                    Loc::Start(b)
                } else {
                    Loc::AfterRow(b, row - 1)
                }
            }
            UseSite::Term(b) => Loc::End(b),
            UseSite::PhiEdge(_, _, pred) => Loc::End(pred),
        }
    }

    /// Emit the rules deriving `anchor ⊒ to` from `anchor ⊒ from` at
    /// source row `(b, i)`: operand substitutions through earlier
    /// replacements plus an optional commutativity step. Returns false if
    /// no rewrite path exists (nothing emitted).
    fn emit_expr_bridge(
        &mut self,
        b: usize,
        i: usize,
        anchor: &TValue,
        from: &Expr,
        to: &Expr,
    ) -> bool {
        let Some(mid_chain) = self.bridge_chain(from, to) else {
            return false;
        };
        // Re-assert every substitution's justification fact from its
        // replacement site to this row (the facts were only asserted to
        // the *original* use sites).
        let to_loc = self.loc_before_src(b, i);
        let mut fact_ranges: Vec<(Expr, Expr, usize, usize)> = Vec::new();
        for (rule, _) in &mid_chain {
            if let InfRule::Substitute {
                from: a, to: bb, ..
            }
            | InfRule::SubstituteRev {
                from: a, to: bb, ..
            } = rule
            {
                for (reg, other) in [(a, bb), (bb, a)] {
                    if let Some(crellvm_core::TReg::Phy(r)) = reg.as_reg() {
                        if let Some(ri) = self.replaced.get(r) {
                            if TValue::of_value(&ri.value) == *other && ri.src_fact {
                                fact_ranges.push((
                                    Expr::Value(a.clone()),
                                    Expr::Value(bb.clone()),
                                    ri.block,
                                    ri.stmt,
                                ));
                            }
                        }
                    }
                }
            }
        }
        for (ea, eb, rb, ri_) in fact_ranges {
            let from_loc = Loc::AfterRow(rb, self.pb.row_of_src(rb, ri_));
            self.pb
                .range_pred(Side::Src, Pred::Lessdef(ea, eb), from_loc, to_loc);
        }
        let mut rules: Vec<InfRule> = Vec::new();
        let mut chain = vec![Expr::Value(anchor.clone()), from.clone()];
        for (rule, e) in mid_chain {
            rules.push(rule);
            chain.push(e);
        }
        for k in 2..chain.len() {
            rules.push(InfRule::Transitivity {
                side: Side::Src,
                e1: chain[0].clone(),
                e2: chain[k - 1].clone(),
                e3: chain[k].clone(),
            });
        }
        for rule in rules {
            self.pb.infrule_after_src(b, i, rule);
        }
        true
    }

    /// A chain of rewrites from `from` to `to`: each element is
    /// `(rule establishing prev ⊒ next, next)`.
    ///
    /// Two strategies: *forward* whole-value substitution on `from`
    /// (`Substitute`), and — when repeated operands make that positionally
    /// unsafe — *reverse* substitution on `to` (`SubstituteRev`, which
    /// rewrites the target expression's positions instead).
    fn bridge_chain(&self, from: &Expr, to: &Expr) -> Option<Vec<(InfRule, Expr)>> {
        if from == to {
            return Some(Vec::new());
        }
        for commute in [false, true] {
            let goal = if commute {
                match commuted(to) {
                    Some(g) => g,
                    None => continue,
                }
            } else {
                to.clone()
            };
            if !from.same_shape(&goal) {
                continue;
            }
            let mut found = self.forward_chain(from, &goal);
            if found.is_none() {
                found = self.reverse_chain(from, &goal);
            }
            let Some(mut steps) = found else { continue };
            if commute {
                steps.push((
                    InfRule::IntroEq {
                        side: Side::Src,
                        e: goal.clone(),
                    },
                    goal.clone(),
                ));
                steps.push((
                    InfRule::Arith(ArithRule::Identity {
                        side: Side::Src,
                        anchor: goal.clone(),
                        from: goal.clone(),
                        to: to.clone(),
                    }),
                    to.clone(),
                ));
            }
            return Some(steps);
        }
        None
    }

    /// Is the substitution step `a ↦ b` justified by a recorded
    /// replacement (with the source fact `a ⊒ b` available)?
    fn subst_justified(&self, a: &TValue, b: &TValue) -> bool {
        (match a.as_reg() {
            Some(crellvm_core::TReg::Phy(ar)) => self
                .replaced
                .get(ar)
                .map(|ri| ri.src_fact && TValue::of_value(&ri.value) == *b)
                .unwrap_or(false),
            _ => false,
        }) || (match b.as_reg() {
            Some(crellvm_core::TReg::Phy(br)) => self
                .replaced
                .get(br)
                .map(|ri| ri.src_fact && ri.bidir && TValue::of_value(&ri.value) == *a)
                .unwrap_or(false),
            _ => false,
        })
    }

    fn forward_chain(&self, from: &Expr, goal: &Expr) -> Option<Vec<(InfRule, Expr)>> {
        let (ops_c, ops_g) = (from.operands(), goal.operands());
        if ops_c.len() != ops_g.len() {
            return None;
        }
        let mut steps: Vec<(InfRule, Expr)> = Vec::new();
        let mut cur = from.clone();
        for (a, b) in ops_c.iter().zip(&ops_g) {
            if a == b {
                continue;
            }
            if !self.subst_justified(a, b) {
                return None;
            }
            if !cur.operands().contains(a) {
                continue; // already rewritten by a previous step
            }
            let rule = InfRule::Substitute {
                side: Side::Src,
                from: a.clone(),
                to: b.clone(),
                e: cur.clone(),
            };
            cur = cur.subst(a, b);
            steps.push((rule, cur.clone()));
        }
        (cur == *goal).then_some(steps)
    }

    /// Reverse strategy: rewrite the *goal* backwards with `SubstituteRev`
    /// (`a ⊒ b ⊢ e[b↦a] ⊒ e`), which replaces only the positions where
    /// the target operand occurs.
    fn reverse_chain(&self, from: &Expr, goal: &Expr) -> Option<Vec<(InfRule, Expr)>> {
        let (ops_c, ops_g) = (from.operands(), goal.operands());
        if ops_c.len() != ops_g.len() {
            return None;
        }
        let mut rev_steps: Vec<(InfRule, Expr)> = Vec::new();
        let mut cur = goal.clone();
        for (a, b) in ops_c.iter().zip(&ops_g) {
            if a == b {
                continue;
            }
            if !self.subst_justified(a, b) {
                return None;
            }
            if !cur.operands().contains(b) {
                continue;
            }
            let rule = InfRule::SubstituteRev {
                side: Side::Src,
                from: a.clone(),
                to: b.clone(),
                e: cur.clone(),
            };
            let next = cur.subst(b, a);
            // rule establishes next ⊒ cur.
            rev_steps.push((rule, cur.clone()));
            cur = next;
        }
        if cur != *from {
            return None;
        }
        // Walk forward: from == last `next`; each recorded step's rule
        // proves step_{k} ⊒ step_{k-1}, so emit them in reverse order.
        let mut steps = Vec::with_capacity(rev_steps.len());
        for (rule, expr_after) in rev_steps.into_iter().rev() {
            steps.push((rule, expr_after));
        }
        Some(steps)
    }
}

/// The commuted form of a commutative binary / swapped icmp expression.
fn commuted(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Bin { op, ty, a, b } if op.is_commutative() => Some(Expr::Bin {
            op: *op,
            ty: *ty,
            a: b.clone(),
            b: a.clone(),
        }),
        Expr::Icmp { pred, ty, a, b } => Some(Expr::Icmp {
            pred: pred.swapped(),
            ty: *ty,
            a: b.clone(),
            b: a.clone(),
        }),
        _ => None,
    }
}

/// A snapshot of the value-numbering tables (the paper's §C.1 `VT`):
/// the equivalence classes of registers that share a value number,
/// restricted to classes with more than one member (as in the paper's
/// example, which elides singleton classes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GvnAnalysis {
    /// Register classes, each sorted; classes ordered by first member.
    pub classes: Vec<Vec<RegId>>,
}

/// Number a function without transforming it and return the
/// value-equivalence classes.
pub fn analyze(f: &Function) -> GvnAnalysis {
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let config = PassConfig::default();
    let mut g = Gvn {
        pb: ProofBuilder::new("gvn-analyze", f),
        src: f.clone(),
        cfg,
        dom,
        config: &config,
        next: 0,
        vt: HashMap::new(),
        et: HashMap::new(),
        leaders: HashMap::new(),
        defs: HashMap::new(),
        replaced: HashMap::new(),
        used_leaders: std::collections::HashSet::new(),
        stat_replaced: 0,
        stat_pre: 0,
    };
    let params: Vec<RegId> = g.src.params.iter().map(|(_, p)| *p).collect();
    for p in params {
        let v = g.fresh_vn();
        g.vt.insert(p, v);
    }
    let order: Vec<usize> = g
        .cfg
        .reverse_postorder()
        .iter()
        .map(|b| b.index())
        .collect();
    for &b in &order {
        let phis: Vec<RegId> = g.src.blocks[b].phis.iter().map(|(r, _)| *r).collect();
        for r in phis {
            let v = g.fresh_vn();
            g.vt.insert(r, v);
        }
        let stmts: Vec<Stmt> = g.src.blocks[b].stmts.clone();
        for stmt in &stmts {
            let Some(x) = stmt.result else { continue };
            match g.key_of(&stmt.inst) {
                Some(key) => {
                    let vn = match g.et.get(&key) {
                        Some(&v) => v,
                        None => {
                            let v = g.fresh_vn();
                            g.et.insert(key, v);
                            v
                        }
                    };
                    g.vt.insert(x, vn);
                }
                None => {
                    let v = g.fresh_vn();
                    g.vt.insert(x, v);
                }
            }
        }
    }
    let mut by_vn: std::collections::BTreeMap<Vn, Vec<RegId>> = std::collections::BTreeMap::new();
    for (r, vn) in &g.vt {
        by_vn.entry(*vn).or_default().push(*r);
    }
    let mut classes: Vec<Vec<RegId>> = by_vn
        .into_values()
        .filter(|c| c.len() > 1)
        .map(|mut c| {
            c.sort();
            c
        })
        .collect();
    classes.sort();
    GvnAnalysis { classes }
}

/// Run GVN-PRE on one function, producing the proof unit and recording
/// domain counters (`pass.gvn.*`) into `tel`.
pub fn gvn_function_traced(
    f: &Function,
    config: &PassConfig,
    tel: &crellvm_telemetry::Telemetry,
) -> ProofUnit {
    let mut pb = ProofBuilder::new("gvn", f);
    pb.set_recording(config.gen_proofs);
    if let Some(reason) = crate::util::ns_reason(f, "gvn") {
        pb.mark_not_supported(reason);
        return pb.finish();
    }
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    pb.auto(AutoKind::Transitivity);
    pb.auto(AutoKind::ReduceMaydiff);
    pb.auto(AutoKind::GvnPre);

    let mut g = Gvn {
        pb,
        src: f.clone(),
        cfg,
        dom,
        config,
        next: 0,
        vt: HashMap::new(),
        et: HashMap::new(),
        leaders: HashMap::new(),
        defs: HashMap::new(),
        replaced: HashMap::new(),
        used_leaders: std::collections::HashSet::new(),
        stat_replaced: 0,
        stat_pre: 0,
    };

    // Number parameters.
    let params: Vec<RegId> = g.src.params.iter().map(|(_, p)| *p).collect();
    for p in params {
        let v = g.fresh_vn();
        g.vt.insert(p, v);
    }

    // Main pass: number everything in RPO; replace full redundancies.
    let order: Vec<usize> = g
        .cfg
        .reverse_postorder()
        .iter()
        .map(|b| b.index())
        .collect();
    for &b in &order {
        let phis: Vec<RegId> = g.src.blocks[b].phis.iter().map(|(r, _)| *r).collect();
        for r in phis {
            let v = g.fresh_vn();
            g.vt.insert(r, v);
        }
        let stmts: Vec<Stmt> = g.src.blocks[b].stmts.clone();
        for (i, stmt) in stmts.iter().enumerate() {
            let Some(x) = stmt.result else { continue };
            let Some(key) = g.key_of(&stmt.inst) else {
                let v = g.fresh_vn();
                g.vt.insert(x, v);
                continue;
            };
            let expr = Expr::of_inst(&stmt.inst).expect("keyed instructions are pure");
            g.defs.insert(
                x,
                DefInfo {
                    block: b,
                    stmt: i,
                    expr,
                    inst: stmt.inst.clone(),
                },
            );
            let vn = match g.et.get(&key) {
                Some(&v) => v,
                None => {
                    let v = g.fresh_vn();
                    g.et.insert(key, v);
                    v
                }
            };
            g.vt.insert(x, vn);

            // Full redundancy: a dominating leader?
            let leader = g
                .leaders
                .get(&vn)
                .and_then(|ls| {
                    ls.iter()
                        .find(|(_, lb, li)| g.def_dominates((*lb, *li), (b, i)))
                })
                .copied();
            if let Some((l, lb, li)) = leader {
                if replace_full_redundancy(&mut g, (b, i, x), (lb, li, l)) {
                    g.stat_replaced += 1;
                    continue;
                }
            }
            g.leaders.entry(vn).or_default().push((x, b, i));
        }
    }

    pre_phase(&mut g, &order);

    tel.count("pass.gvn.replacements", g.stat_replaced);
    tel.count("pass.gvn.pre_insertions", g.stat_pre);
    g.pb.finish()
}

/// Replace `x` (defined at `(b, i)`) by the dominating leader `l`,
/// asserting `x ≐ l` in the source from the definition to every use.
/// Returns false (leaving the program unchanged) if no proof bridge
/// exists — unless a bug switch forces the unsound replacement through.
fn replace_full_redundancy(
    g: &mut Gvn<'_>,
    (b, i, x): (usize, usize, RegId),
    (lb, li, l): (usize, usize, RegId),
) -> bool {
    let ex = g.defs[&x].expr.clone();
    let el = g.defs[&l].expr.clone();

    let bridgeable = g.bridge_chain(&ex, &el).is_some() && g.bridge_chain(&el, &ex).is_some();
    // The sound inbounds case: x is `gep inbounds`, the leader plain —
    // replacing a possibly-poison value with a defined one refines.
    let inbounds_drop = matches!(
        (&ex, &el),
        (
            Expr::Gep { inbounds: true, .. },
            Expr::Gep {
                inbounds: false,
                ..
            }
        )
    ) && {
        // Same base and offset.
        let (o1, o2) = (ex.operands(), el.operands());
        o1 == o2
    };
    if !bridgeable && !inbounds_drop && !g.config.bugs.pr28562 {
        return false;
    }

    // Assert the leader's defining equations from its def to x's def.
    let lv = Expr::Value(TValue::phy(l));
    let from_leader = Loc::AfterRow(lb, g.pb.row_of_src(lb, li));
    let to_x_def = g.loc_before_src(b, i);
    g.pb.range_pred(
        Side::Src,
        Pred::Lessdef(el.clone(), lv.clone()),
        from_leader,
        to_x_def,
    );
    g.pb.range_pred(
        Side::Src,
        Pred::Lessdef(lv.clone(), el.clone()),
        from_leader,
        to_x_def,
    );

    // Bridge rules at x's definition row.
    let xv = Expr::Value(TValue::phy(x));
    if bridgeable {
        g.emit_expr_bridge(b, i, &TValue::phy(x), &ex, &el);
        g.emit_expr_bridge(b, i, &TValue::phy(l), &el, &ex);
    } else if inbounds_drop {
        // x ⊒ gep-inbounds ⊒ gep (identity) ⊒ l; and l ⊒ x is NOT claimed
        // (only the one-directional refinement holds) — assert only x ⊒ l.
        g.pb.infrule_after_src(
            b,
            i,
            InfRule::Arith(ArithRule::Identity {
                side: Side::Src,
                anchor: xv.clone(),
                from: ex.clone(),
                to: el.clone(),
            }),
        );
    }
    // (With pr28562 and no bridge, no rules are emitted: the compiler
    // "believes" the equality and validation will fail.)

    // Assert x ⊒ l (and l ⊒ x when fully bridgeable) to every use.
    let after_def = Loc::AfterRow(b, g.pb.row_of_src(b, i));
    let uses = uses_of(g.pb.tgt(), x);
    for site in &uses {
        let to = g.loc_of_use(*site);
        g.pb.range_pred(
            Side::Src,
            Pred::Lessdef(xv.clone(), lv.clone()),
            after_def,
            to,
        );
        if bridgeable {
            g.pb.range_pred(
                Side::Src,
                Pred::Lessdef(lv.clone(), xv.clone()),
                after_def,
                to,
            );
        }
    }
    g.pb.replace_tgt_uses(x, &Value::Reg(l));
    g.pb.delete_tgt(b, i);
    g.pb.global_maydiff(crellvm_core::TReg::Phy(x));
    g.replaced.insert(
        x,
        ReplacementInfo {
            value: Value::Reg(l),
            block: b,
            stmt: i,
            bidir: bridgeable,
            src_fact: true,
        },
    );
    g.used_leaders.insert(l);
    true
}

/// An available value at the end of one predecessor edge.
#[derive(Debug, Clone)]
enum EdgeAvail {
    /// A register leader whose definition dominates the predecessor's end.
    Leader(RegId),
    /// A constant implied by a branch condition tested on the path into
    /// the predecessor (`icmp eq a C` + taken edge; the paper's BCT,
    /// §C.3). The fact is established on the `test_from → test_to` edge
    /// and propagated through intervening single-predecessor blocks
    /// (Fig 15's `B_empty`).
    BranchConst {
        /// The constant.
        konst: Const,
        /// The register compared against the constant.
        witness: RegId,
        /// The branch condition register.
        cond: RegId,
        /// Polarity the edge implies for the comparison.
        flag: bool,
        /// Source block of the edge where the condition was tested.
        test_from: usize,
        /// Destination block of that edge.
        test_to: usize,
    },
    /// The expression must be inserted at the end of the predecessor.
    Insert,
    /// Back edge carrying the merge phi's own previous value (loop-rotated
    /// PRE): the value is the phi itself and the ghost relation persists
    /// around the loop.
    Carry,
}

fn pre_phase(g: &mut Gvn<'_>, order: &[usize]) {
    for &b in order {
        let preds: Vec<usize> = g
            .cfg
            .preds(BlockId::from_index(b))
            .iter()
            .map(|p| p.index())
            .collect();
        if preds.len() < 2 {
            continue;
        }
        let stmts: Vec<Stmt> = g.src.blocks[b].stmts.clone();
        'stmt: for (i, stmt) in stmts.iter().enumerate() {
            let Some(x) = stmt.result else { continue };
            if g.replaced.contains_key(&x) || g.used_leaders.contains(&x) {
                continue;
            }
            let Some(info) = g.defs.get(&x).cloned() else {
                continue;
            };
            if info.block != b || info.stmt != i {
                continue;
            }
            let vn = g.vt[&x];
            // Operands must dominate every predecessor end, not involve
            // replaced registers, and the instruction must be trap-free.
            let mut operand_regs = Vec::new();
            let mut has_trap = false;
            info.inst.for_each_value(|v| match v {
                Value::Reg(r) => operand_regs.push(*r),
                Value::Const(c) => has_trap |= c.may_trap(),
            });
            if has_trap || matches!(info.inst, Inst::Bin { op, .. } if op.may_trap()) {
                continue;
            }
            for r in &operand_regs {
                if g.replaced.contains_key(r) {
                    continue 'stmt;
                }
                let Some(site) = def_site_of(&g.src, *r) else {
                    continue 'stmt;
                };
                for &p in &preds {
                    if !g.def_dominates_block_end_site(site, p) {
                        continue 'stmt;
                    }
                }
            }

            let mut avail: Vec<EdgeAvail> = Vec::new();
            let mut n_avail = 0;
            let mut abort = false;
            for &p in &preds {
                match g.edge_availability(vn, p, b, x) {
                    Some(EdgeAvail::Insert) => {
                        // Unjustifiable replaced leader on this edge.
                        abort = true;
                        break;
                    }
                    Some(a) => {
                        n_avail += 1;
                        avail.push(a);
                    }
                    None => avail.push(EdgeAvail::Insert),
                }
            }
            if abort || n_avail == 0 {
                continue;
            }
            apply_pre(g, (b, i, x), &info, &preds, &avail);
        }
    }
}

/// Definition site of a register; parameters are encoded as
/// `(usize::MAX, 0)` (they dominate everything).
fn def_site_of(f: &Function, r: RegId) -> Option<(usize, usize)> {
    match f.def_site(r)? {
        crellvm_ir::DefSite::Param(_) => Some((usize::MAX, 0)),
        crellvm_ir::DefSite::Phi(b, _) => Some((b.index(), 0)),
        crellvm_ir::DefSite::Stmt(b, i) => Some((b.index(), i)),
    }
}

impl Gvn<'_> {
    fn def_dominates_block_end_site(&self, site: (usize, usize), b: usize) -> bool {
        if site.0 == usize::MAX {
            return true; // parameter
        }
        // A phi def (encoded with stmt 0) dominates its own block's end.
        self.def_dominates_block_end(site, b)
    }

    /// What is available for value number `vn` at the end of `pred → b`?
    /// Branch-implied constants are preferred over register leaders
    /// (LLVM's propagateEquality replaces leaders with constants).
    fn edge_availability(&self, vn: Vn, pred: usize, b: usize, x: RegId) -> Option<EdgeAvail> {
        if let Some(bct) = self.edge_branch_const(vn, pred, b) {
            return Some(bct);
        }
        if let Some(ls) = self.leaders.get(&vn) {
            for &(l, lb, li) in ls {
                if !self.def_dominates_block_end((lb, li), pred) {
                    continue;
                }
                if l == x {
                    // The candidate is its own leader: only usable on a
                    // back edge (the ghost relation persists around the
                    // loop body).
                    if self
                        .dom
                        .dominates(BlockId::from_index(b), BlockId::from_index(pred))
                    {
                        return Some(EdgeAvail::Carry);
                    }
                    continue;
                }
                if self.replaced.contains_key(&l) {
                    // A stale leader (deleted by an earlier PRE): we
                    // cannot anchor proofs on it. Signal abort via the
                    // Insert sentinel (see pre_phase).
                    return Some(EdgeAvail::Insert);
                }
                return Some(EdgeAvail::Leader(l));
            }
        }
        None
    }

    /// The BCT lookup (paper §C.3): a constant implied by the
    /// predecessor's branch condition — possibly tested further up a
    /// chain of single-predecessor blocks (Fig 15's empty block).
    fn edge_branch_const(&self, vn: Vn, pred: usize, b: usize) -> Option<EdgeAvail> {
        self.edge_branch_const_rec(vn, pred, b, 4)
    }

    fn edge_branch_const_rec(
        &self,
        vn: Vn,
        pred: usize,
        b: usize,
        depth: usize,
    ) -> Option<EdgeAvail> {
        if depth == 0 {
            return None;
        }
        if let Some(found) = self.edge_branch_const_direct(vn, pred, b) {
            return Some(found);
        }
        // Propagate through a single-predecessor block: a fact established
        // on the edge into `pred` still holds at its end.
        let preds = self.cfg.preds(BlockId::from_index(pred));
        if preds.len() == 1 {
            let pp = preds[0].index();
            return self.edge_branch_const_rec(vn, pp, pred, depth - 1);
        }
        None
    }

    fn edge_branch_const_direct(&self, vn: Vn, pred: usize, b: usize) -> Option<EdgeAvail> {
        if let Term::CondBr {
            cond: Value::Reg(c),
            if_true,
            if_false,
        } = &self.src.blocks[pred].term
        {
            if if_true != if_false {
                if let Some(info) = self.defs.get(c) {
                    if let Inst::Icmp {
                        pred: ip, lhs, rhs, ..
                    } = &info.inst
                    {
                        let (reg, konst) = match (lhs, rhs) {
                            (Value::Reg(r), Value::Const(k)) => (*r, k.clone()),
                            (Value::Const(k), Value::Reg(r)) => (*r, k.clone()),
                            _ => return None,
                        };
                        if self.vt.get(&reg) != Some(&vn) || konst.may_trap() {
                            return None;
                        }
                        let to = BlockId::from_index(b);
                        if to != *if_true && to != *if_false {
                            return None;
                        }
                        let on_true_edge = to == *if_true;
                        let flag = match ip {
                            IcmpPred::Eq => true,
                            IcmpPred::Ne => false,
                            _ => return None,
                        };
                        // Sound: eq on the true edge / ne on the false
                        // edge. D38619 (as modelled): the edge polarity is
                        // ignored, so the constant leaks onto the wrong
                        // edge.
                        let edge_ok = if self.config.bugs.d38619 {
                            true
                        } else {
                            on_true_edge == flag
                        };
                        if edge_ok
                            && self.def_dominates_block_end((info.block, info.stmt), pred)
                            && def_site_of(&self.src, reg)
                                .map(|s| self.def_dominates_block_end_site(s, pred))
                                .unwrap_or(false)
                        {
                            return Some(EdgeAvail::BranchConst {
                                konst,
                                witness: reg,
                                cond: *c,
                                flag: on_true_edge,
                                test_from: pred,
                                test_to: b,
                            });
                        }
                    }
                }
            }
        }
        None
    }
}

fn apply_pre(
    g: &mut Gvn<'_>,
    (b, i, x): (usize, usize, RegId),
    info: &DefInfo,
    preds: &[usize],
    avail: &[EdgeAvail],
) {
    let ty = info
        .inst
        .result_ty()
        .expect("pure instructions have results");
    let ghost = format!("pre{}", x.index());
    let ghost_e = Expr::value(TValue::ghost(ghost.clone()));
    let ex = info.expr.clone();

    let z = g.pb.fresh_reg(&format!("{}.pre", g.src.reg_name(x)));
    g.pb.global_maydiff(crellvm_core::TReg::Phy(z));
    let mut incoming: Vec<(BlockId, Value)> = Vec::new();

    for (&p, a) in preds.iter().zip(avail) {
        match a {
            EdgeAvail::Leader(l) => {
                let linfo = g.defs[l].clone();
                let lv = Expr::Value(TValue::phy(*l));
                let from = Loc::AfterRow(linfo.block, g.pb.row_of_src(linfo.block, linfo.stmt));
                g.pb.range_pred(
                    Side::Src,
                    Pred::Lessdef(lv.clone(), linfo.expr.clone()),
                    from,
                    Loc::End(p),
                );
                // Assert E_x ⊒ l along the path (bridged at the leader row
                // when the defining expressions differ by substitutions).
                let direct = ex == linfo.expr;
                if !direct
                    && !g.emit_expr_bridge(
                        linfo.block,
                        linfo.stmt,
                        &TValue::phy(*l),
                        &linfo.expr,
                        &ex,
                    )
                {
                    // Cannot justify through this leader; insert instead.
                    let val = insert_computation(g, p, info, x);
                    incoming.push((BlockId::from_index(p), val));
                    g.pb.infrule_edge(
                        p,
                        b,
                        InfRule::IntroGhost {
                            g: ghost.clone(),
                            e: ex.clone(),
                        },
                    );
                    continue;
                }
                if direct {
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(ex.clone(), lv.clone()),
                        from,
                        Loc::End(p),
                    );
                } else {
                    // The bridge derived l ⊒ E_x; invert by asserting the
                    // pair of ranges E_x ⊒ l via the opposite bridge.
                    g.emit_expr_bridge(linfo.block, linfo.stmt, &TValue::phy(*l), &ex, &linfo.expr);
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(ex.clone(), lv.clone()),
                        from,
                        Loc::End(p),
                    );
                    // Derivation at the leader row: E_x ⊒ (subst…) E_l ⊒ l.
                    let mut chain = vec![ex.clone()];
                    if let Some(steps) = g.bridge_chain(&ex, &linfo.expr) {
                        for (rule, e) in steps {
                            g.pb.infrule_after_src(linfo.block, linfo.stmt, rule);
                            chain.push(e);
                        }
                    }
                    chain.push(lv.clone());
                    for k in 2..chain.len() {
                        g.pb.infrule_after_src(
                            linfo.block,
                            linfo.stmt,
                            InfRule::Transitivity {
                                side: Side::Src,
                                e1: chain[0].clone(),
                                e2: chain[k - 1].clone(),
                                e3: chain[k].clone(),
                            },
                        );
                    }
                }
                incoming.push((BlockId::from_index(p), Value::Reg(*l)));
                g.used_leaders.insert(*l);
                g.pb.infrule_edge(
                    p,
                    b,
                    InfRule::IntroGhost {
                        g: ghost.clone(),
                        e: Expr::Value(TValue::phy(*l)),
                    },
                );
            }
            EdgeAvail::BranchConst {
                konst,
                witness,
                cond,
                flag,
                test_from,
                test_to,
            } => {
                let winfo = g.defs[witness].clone();
                let cinfo = g.defs[cond].clone();
                let wv = Expr::Value(TValue::phy(*witness));
                let wfrom = Loc::AfterRow(winfo.block, g.pb.row_of_src(winfo.block, winfo.stmt));
                // E_x ⊒ witness along the path (bridged if needed).
                let direct = ex == winfo.expr;
                let mut ok = true;
                if !direct {
                    ok = g.emit_expr_bridge(
                        winfo.block,
                        winfo.stmt,
                        &TValue::phy(*witness),
                        &ex,
                        &winfo.expr,
                    );
                }
                if !ok {
                    let val = insert_computation(g, p, info, x);
                    incoming.push((BlockId::from_index(p), val));
                    g.pb.infrule_edge(
                        p,
                        b,
                        InfRule::IntroGhost {
                            g: ghost.clone(),
                            e: ex.clone(),
                        },
                    );
                    continue;
                }
                if direct {
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(winfo.expr.clone(), wv.clone()),
                        wfrom,
                        Loc::End(p),
                    );
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(ex.clone(), wv.clone()),
                        wfrom,
                        Loc::End(p),
                    );
                } else {
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(winfo.expr.clone(), wv.clone()),
                        wfrom,
                        Loc::End(p),
                    );
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(ex.clone(), wv.clone()),
                        wfrom,
                        Loc::End(p),
                    );
                    let mut chain = vec![ex.clone()];
                    if let Some(steps) = g.bridge_chain(&ex, &winfo.expr) {
                        for (rule, e) in steps {
                            g.pb.infrule_after_src(winfo.block, winfo.stmt, rule);
                            chain.push(e);
                        }
                    }
                    chain.push(wv.clone());
                    for k in 2..chain.len() {
                        g.pb.infrule_after_src(
                            winfo.block,
                            winfo.stmt,
                            InfRule::Transitivity {
                                side: Side::Src,
                                e1: chain[0].clone(),
                                e2: chain[k - 1].clone(),
                                e3: chain[k].clone(),
                            },
                        );
                    }
                }
                // The condition's defining equation up to the testing
                // edge.
                let cv = Expr::Value(TValue::phy(*cond));
                let cfrom = Loc::AfterRow(cinfo.block, g.pb.row_of_src(cinfo.block, cinfo.stmt));
                g.pb.range_pred(
                    Side::Src,
                    Pred::Lessdef(cv.clone(), cinfo.expr.clone()),
                    cfrom,
                    Loc::End(*test_from),
                );

                // Rules at the testing edge (§C.3): true ⊒ c̄ ⊒
                // icmp(… old …) → icmp_to_eq → witness ≐ C.
                let (wa, wb, wty) = match &cinfo.expr {
                    Expr::Icmp { ty, a, b: b2, .. } => (a.clone(), b2.clone(), *ty),
                    _ => unreachable!("BCT condition is an icmp"),
                };
                let flag_e = Expr::Value(TValue::Const(Const::bool(*flag)));
                let old_cond = Expr::Value(TValue::old(*cond));
                let old_cmp = cinfo.expr.phy_to_old();
                g.pb.infrule_edge(
                    *test_from,
                    *test_to,
                    InfRule::Transitivity {
                        side: Side::Src,
                        e1: flag_e,
                        e2: old_cond,
                        e3: old_cmp,
                    },
                );
                g.pb.infrule_edge(
                    *test_from,
                    *test_to,
                    InfRule::IcmpToEq {
                        side: Side::Src,
                        flag: *flag,
                        ty: wty,
                        a: wa.phy_to_old(),
                        b: wb.phy_to_old(),
                    },
                );
                // In the propagated case (Fig 15's empty block) the
                // equality established at the testing edge must be carried
                // down to the end of the predecessor.
                let ke = Expr::Value(TValue::Const(konst.clone()));
                if !(*test_from == p && *test_to == b) {
                    g.pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(wv.clone(), ke.clone()),
                        Loc::Start(*test_to),
                        Loc::End(p),
                    );
                }
                // The ghost is introduced on the final edge.
                g.pb.infrule_edge(
                    p,
                    b,
                    InfRule::IntroGhost {
                        g: ghost.clone(),
                        e: ke,
                    },
                );
                incoming.push((BlockId::from_index(p), Value::Const(konst.clone())));
            }
            EdgeAvail::Insert => {
                let val = insert_computation(g, p, info, x);
                incoming.push((BlockId::from_index(p), val));
                g.pb.infrule_edge(
                    p,
                    b,
                    InfRule::IntroGhost {
                        g: ghost.clone(),
                        e: ex.clone(),
                    },
                );
            }
            EdgeAvail::Carry => {
                // The loop-carried case: the phi keeps its own value; the
                // ghost facts established at the block start persist to
                // the end of the latch (nothing redefines them inside the
                // loop body: the expression is invariant and the ghost is
                // only freshened on entry edges).
                incoming.push((BlockId::from_index(p), Value::Reg(z)));
                g.pb.range_pred(
                    Side::Src,
                    Pred::Lessdef(ex.clone(), ghost_e.clone()),
                    Loc::Start(b),
                    Loc::End(p),
                );
                g.pb.range_pred(
                    Side::Tgt,
                    Pred::Lessdef(ghost_e.clone(), Expr::Value(TValue::phy(z))),
                    Loc::Start(b),
                    Loc::End(p),
                );
            }
        }
    }

    g.pb.add_tgt_phi(
        b,
        z,
        Phi {
            ty,
            incoming: incoming.into_iter().map(|(p, v)| (p, Some(v))).collect(),
        },
    );

    // Assertions inside b.
    let xv = Expr::Value(TValue::phy(x));
    let zv = Expr::Value(TValue::phy(z));
    let def_loc = g.loc_before_src(b, i);
    g.pb.range_pred(
        Side::Src,
        Pred::Lessdef(ex.clone(), ghost_e.clone()),
        Loc::Start(b),
        def_loc,
    );
    let after_def = Loc::AfterRow(b, g.pb.row_of_src(b, i));
    let uses = uses_of(g.pb.tgt(), x);
    for site in &uses {
        let to = g.loc_of_use(*site);
        g.pb.range_pred(
            Side::Src,
            Pred::Lessdef(xv.clone(), ghost_e.clone()),
            after_def,
            to,
        );
        g.pb.range_pred(
            Side::Tgt,
            Pred::Lessdef(ghost_e.clone(), zv.clone()),
            Loc::Start(b),
            to,
        );
    }
    g.pb.replace_tgt_uses(x, &Value::Reg(z));
    g.pb.delete_tgt(b, i);
    g.pb.global_maydiff(crellvm_core::TReg::Phy(x));
    g.stat_pre += 1;
    g.replaced.insert(
        x,
        ReplacementInfo {
            value: Value::Reg(z),
            block: b,
            stmt: i,
            bidir: false,
            src_fact: false,
        },
    );
}

/// Insert a copy of the candidate computation at the end of `pred`
/// (target only) and return its fresh register as a value.
fn insert_computation(g: &mut Gvn<'_>, pred: usize, info: &DefInfo, x: RegId) -> Value {
    let xi = g.pb.fresh_reg(&format!("{}.ins", g.src.reg_name(x)));
    g.pb.global_maydiff(crellvm_core::TReg::Phy(xi));
    let row = g.pb.append_tgt(
        pred,
        Stmt {
            result: Some(xi),
            inst: info.inst.clone(),
        },
    );
    // The inserted definition's equations must be visible at the block end
    // (the appended row is the last one, so the range is a single slot).
    let xie = Expr::Value(TValue::phy(xi));
    let from = Loc::AfterRow(pred, row);
    g.pb.range_pred(
        Side::Tgt,
        Pred::Lessdef(info.expr.clone(), xie.clone()),
        from,
        Loc::End(pred),
    );
    g.pb.range_pred(
        Side::Tgt,
        Pred::Lessdef(xie, info.expr.clone()),
        from,
        Loc::End(pred),
    );
    Value::Reg(xi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BugSet;
    use crellvm_core::{validate, Verdict};
    use crellvm_ir::{parse_module, verify_module};

    fn run(src: &str, config: &PassConfig) -> PassOutcome {
        let m = parse_module(src).expect("parse");
        verify_module(&m).expect("input verifies");
        let out = gvn(&m, config);
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

    #[test]
    fn straightline_cse() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %y = add i32 %a, %b
              %s = add i32 %x, %y
              call void @print(i32 %s)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 3, "y folded into x: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn commutative_cse() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %y = add i32 %b, %a
              %s = mul i32 %x, %y
              call void @print(i32 %s)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 3, "{f}");
        assert_all_valid(&out);
    }

    #[test]
    fn cse_across_blocks_needs_dominance() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i1 %c) {
            entry:
              %x = mul i32 %a, %a
              br i1 %c, label t, label e
            t:
              %y = mul i32 %a, %a
              call void @print(i32 %y)
              ret void
            e:
              call void @print(i32 %x)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        let t = f.block_by_name("t").unwrap();
        assert_eq!(f.block(t).stmts.len(), 1, "y replaced by x: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn chained_redundancies_via_substitution() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b, i32 %c) {
            entry:
              %x1 = add i32 %a, %b
              %y1 = add i32 %x1, %c
              %x2 = add i32 %a, %b
              %y2 = add i32 %x2, %c
              %s = add i32 %y1, %y2
              call void @print(i32 %s)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 4, "x2 and y2 both eliminated: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn different_expressions_not_merged() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %y = sub i32 %a, %b
              %s = add i32 %x, %y
              call void @print(i32 %s)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 4);
        assert_all_valid(&out);
    }

    const GEP_PAIR: &str = r#"
        declare @bar(ptr, ptr)
        define @main(ptr %p) {
        entry:
          %q1 = gep inbounds ptr %p, i64 10
          %q2 = gep ptr %p, i64 10
          call void @bar(ptr %q1, ptr %q2)
          ret void
        }
    "#;

    #[test]
    fn gep_inbounds_flag_separates_value_numbers() {
        let out = run(GEP_PAIR, &PassConfig::default());
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 3, "no merging: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn pr28562_bug_caught_by_validation() {
        // The paper's §1.2 example: q2 (plain) replaced by q1 (inbounds).
        let config = PassConfig::with_bugs(BugSet {
            pr28562: true,
            ..BugSet::default()
        });
        let m = parse_module(GEP_PAIR).unwrap();
        let out = gvn(&m, &config);
        verify_module(&out.module).unwrap();
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 2, "q2 wrongly merged into q1: {f}");
        let err = validate(&out.proofs[0]).unwrap_err();
        assert!(!err.reason.is_empty());
    }

    #[test]
    fn pr28562_sound_direction_still_validates() {
        // Leader is the PLAIN gep; replacing the inbounds one refines.
        let src = r#"
            declare @bar(ptr, ptr)
            define @main(ptr %p) {
            entry:
              %q1 = gep ptr %p, i64 10
              %q2 = gep inbounds ptr %p, i64 10
              call void @bar(ptr %q1, ptr %q2)
              ret void
            }
        "#;
        let config = PassConfig::with_bugs(BugSet {
            pr28562: true,
            ..BugSet::default()
        });
        let m = parse_module(src).unwrap();
        let out = gvn(&m, &config);
        verify_module(&out.module).unwrap();
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 2, "merged: {f}");
        assert_all_valid(&out);
    }

    /// The paper's Fig 15 shape: PRE with a leader edge and a BCT edge.
    const FIG15: &str = r#"
        declare @print(i32)
        define @main(i32 %n, i1 %c1) {
        entry:
          %x1 = sub i32 %n, 2
          %y1 = add i32 %x1, 1
          br i1 %c1, label mid, label right
        mid:
          %c2 = icmp eq i32 %y1, 10
          br i1 %c2, label empty, label exit
        empty:
          br label exit
        right:
          %x2 = sub i32 %n, 2
          %y2 = add i32 %x2, 1
          call void @print(i32 %y2)
          br label exit
        exit:
          %y3 = add i32 %x1, 1
          call void @print(i32 %y3)
          ret void
        }
    "#;

    #[test]
    fn fig15_pre_shape_validates() {
        let out = run(FIG15, &PassConfig::default());
        assert_all_valid(&out);
    }

    #[test]
    fn pre_insertion_edge() {
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b, i1 %c) {
            entry:
              br i1 %c, label have, label havenot
            have:
              %x = add i32 %a, %b
              call void @print(i32 %x)
              br label exit
            havenot:
              br label exit
            exit:
              %y = add i32 %a, %b
              call void @print(i32 %y)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        let exit = f.block_by_name("exit").unwrap();
        let havenot = f.block_by_name("havenot").unwrap();
        assert_eq!(f.block(exit).phis.len(), 1, "{f}");
        assert_eq!(f.block(havenot).stmts.len(), 1, "inserted computation: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn pre_bct_edge_constant() {
        // Both edges available: one leader, one branch constant.
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %n) {
            entry:
              %w = mul i32 %n, 3
              %cmp = icmp eq i32 %w, 12
              br i1 %cmp, label yes, label no
            yes:
              br label exit
            no:
              %l = mul i32 %n, 3
              call void @print(i32 %l)
              br label exit
            exit:
              %x = mul i32 %n, 3
              call void @print(i32 %x)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        let exit = f.block_by_name("exit").unwrap();
        // %x was PRE'd or fully replaced (entry's %w dominates exit, so the
        // main pass already replaced it — either way it is gone).
        assert!(f.block(exit).stmts.len() <= 1, "{f}");
        assert_all_valid(&out);
    }

    #[test]
    fn d38619_bug_caught_by_validation() {
        // Force a genuine BCT-PRE by making the witness non-dominating of
        // the merge except through the branch.
        let src = r#"
            declare @print(i32)
            define @main(i32 %n, i1 %c1) {
            entry:
              br i1 %c1, label left, label right
            left:
              %w = mul i32 %n, 3
              %cmp = icmp eq i32 %w, 12
              br i1 %cmp, label exit, label other
            other:
              call void @print(i32 1)
              ret void
            right:
              %l = mul i32 %n, 3
              call void @print(i32 %l)
              br label exit
            exit:
              %x = mul i32 %n, 3
              call void @print(i32 %x)
              ret void
            }
        "#;
        // Sound run: validates.
        let out = run(src, &PassConfig::default());
        assert_all_valid(&out);

        // Buggy run: flip the polarity by using the FALSE edge to exit.
        let flipped = src.replace(
            "br i1 %cmp, label exit, label other",
            "br i1 %cmp, label other, label exit",
        );
        let config = PassConfig::with_bugs(BugSet {
            d38619: true,
            ..BugSet::default()
        });
        let m = parse_module(&flipped).unwrap();
        let out = gvn(&m, &config);
        verify_module(&out.module).unwrap();
        // The buggy PRE claims w == 12 on the false edge.
        let has_failure = out.proofs.iter().any(|u| validate(u).is_err());
        assert!(has_failure, "expected a validation failure under D38619");
    }

    #[test]
    fn unsupported_function_is_ns() {
        let m = parse_module(
            "define @f() {\nentry:\n  %u = unsupported \"atomic.rmw\"\n  ret void\n}\n",
        )
        .unwrap();
        let out = gvn(&m, &PassConfig::default());
        assert!(matches!(
            validate(&out.proofs[0]),
            Ok(Verdict::NotSupported(_))
        ));
    }

    #[test]
    fn branch_condition_cse_in_terminator() {
        let out = run(
            r#"
            define @main(i32 %a) -> i32 {
            entry:
              %c1 = icmp slt i32 %a, 10
              %c2 = icmp slt i32 %a, 10
              br i1 %c2, label t, label e
            t:
              ret i32 1
            e:
              ret i32 2
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "{f}");
        assert_all_valid(&out);
    }

    #[test]
    fn division_not_pre_inserted() {
        // Divisions may trap; PRE must not hoist them into predecessors.
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %a, i32 %b, i1 %c) {
            entry:
              br i1 %c, label have, label havenot
            have:
              %x = sdiv i32 %a, %b
              call void @print(i32 %x)
              br label exit
            havenot:
              br label exit
            exit:
              %y = sdiv i32 %a, %b
              call void @print(i32 %y)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        let havenot = f.block_by_name("havenot").unwrap();
        assert_eq!(
            f.block(havenot).stmts.len(),
            0,
            "no speculative division: {f}"
        );
        assert_all_valid(&out);
    }
}

#[cfg(test)]
mod analyze_tests {
    use super::*;
    use crellvm_ir::parse_module;

    /// The paper's §C.1 value table: `VT = [x1,x2 ↦ ①; y1,y2,y3 ↦ ②]`.
    #[test]
    fn fig15_value_classes_match_the_paper() {
        let m = parse_module(
            r#"
            declare @print(i32)
            define @main(i32 %n, i1 %c1) {
            entry:
              %x1 = sub i32 %n, 2
              br i1 %c1, label left, label right
            left:
              %y1 = add i32 %x1, 1
              br label exit
            right:
              %x2 = sub i32 %n, 2
              %y2 = add i32 %x2, 1
              br label exit
            exit:
              %y3 = add i32 %x1, 1
              call void @print(i32 %y3)
              ret void
            }
            "#,
        )
        .unwrap();
        let f = m.function("main").unwrap();
        let a = analyze(f);
        let name = |r: RegId| f.reg_name(r).to_string();
        let classes: Vec<Vec<String>> = a
            .classes
            .iter()
            .map(|c| c.iter().map(|r| name(*r)).collect())
            .collect();
        assert_eq!(classes.len(), 2, "{classes:?}");
        assert!(classes.iter().any(|c| c == &["x1", "x2"]), "{classes:?}");
        assert!(
            classes.iter().any(|c| c == &["y1", "y2", "y3"]),
            "{classes:?}"
        );
    }

    #[test]
    fn analysis_does_not_transform() {
        let m = parse_module(
            "define @f(i32 %a) -> i32 {\nentry:\n  %x = add i32 %a, %a\n  %y = add i32 %a, %a\n  ret i32 %y\n}\n",
        )
        .unwrap();
        let before = m.functions[0].clone();
        let _ = analyze(&before);
        assert_eq!(m.functions[0], before);
    }
}
