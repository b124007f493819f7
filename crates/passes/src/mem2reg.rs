//! Register promotion (LLVM's `mem2reg`) with proof generation.
//!
//! Mirrors `PromoteMemoryToRegister.cpp`: a general dominance-frontier
//! promotion (the paper's Algorithm 2) plus the two specialized fast paths
//! — *single-store* allocas (`rewriteSingleStoreAlloca`) and allocas whose
//! loads and stores all live in a *single block*
//! (`promoteSingleBlockAlloca`). The historical bugs PR24179 and PR33673
//! live in those fast paths and can be re-enabled through
//! [`crate::BugSet`].
//!
//! Proof generation follows the paper exactly: one ghost register `p̂` per
//! promoted location carrying "the current content of `*p`", one ghost
//! `x̂` per rewritten load, `intro_ghost` rules at stores and loads, and
//! ranged assertions `{*p ⊒ p̂}ₛ {p̂ ⊒ v}ₜ` from each def point to each
//! use point (Algorithm 2's boxed lines).

use crate::config::{PassConfig, PassOutcome};
use crate::util::{on_cycle, reaches, uses_of, UseSite};
use crellvm_core::{AutoKind, Expr, InfRule, Loc, Pred, ProofBuilder, ProofUnit, Side, TValue};
use crellvm_ir::{
    BlockId, Cfg, DomTree, DominanceFrontier, Function, Inst, Module, Phi, RegId, Type, Value,
};
use std::collections::{HashMap, HashSet};

/// Run register promotion over every function of a module.
pub fn mem2reg(module: &Module, config: &PassConfig) -> PassOutcome {
    crate::pipeline::run_pass("mem2reg", module, config)
}

/// A promotable stack slot found in the source function.
#[derive(Debug, Clone)]
struct AllocaInfo {
    block: usize,
    stmt: usize,
    reg: RegId,
    ty: Type,
    loads: Vec<(usize, usize, RegId)>,
    stores: Vec<(usize, usize, Value)>,
}

/// How a given alloca will be promoted.
#[derive(Debug, Clone)]
enum Mode {
    /// Full rename with phi insertion at the iterated dominance frontier.
    General {
        /// block index → inserted phi register.
        phis: HashMap<usize, RegId>,
    },
    /// Exactly one store; loads take the stored value (if dominated) or
    /// `undef`.
    SingleStore,
    /// All loads and stores in one block; a linear scan resolves loads.
    SingleBlock,
}

/// What a rewritten load's uses are replaced with, together with the ghost
/// chain anchor.
#[derive(Debug, Clone)]
struct Replacement {
    ghost: String,
    value: Value,
}

struct Promoter<'a> {
    pb: ProofBuilder,
    src: Function,
    dom: DomTree,
    config: &'a PassConfig,
    /// load-result register → its replacement (ghost + target value).
    replaced: HashMap<RegId, Replacement>,
}

fn phat(p: RegId) -> String {
    format!("p{}", p.index())
}

fn xhat(x: RegId) -> String {
    format!("l{}", x.index())
}

fn load_expr(ty: Type, p: RegId) -> Expr {
    Expr::load(ty, TValue::phy(p))
}

fn value_expr(v: &Value) -> Expr {
    Expr::Value(TValue::of_value(v))
}

impl Promoter<'_> {
    fn loc_before_src(&self, b: usize, i: usize) -> Loc {
        let row = self.pb.row_of_src(b, i);
        if row == 0 {
            Loc::Start(b)
        } else {
            Loc::AfterRow(b, row - 1)
        }
    }

    fn loc_after_src(&self, b: usize, i: usize) -> Loc {
        Loc::AfterRow(b, self.pb.row_of_src(b, i))
    }

    fn loc_before_tgt_use(&self, site: UseSite) -> Loc {
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

    /// The `intro_ghost` anchor and target-side value for a source value
    /// `w`: if `w` is a load we already rewrote, anchor through its ghost.
    fn anchor_of(&self, w: &Value) -> (Expr, Value) {
        if let Some(r) = w.as_reg() {
            if let Some(rep) = self.replaced.get(&r) {
                return (
                    Expr::value(TValue::ghost(rep.ghost.clone())),
                    rep.value.clone(),
                );
            }
        }
        (value_expr(w), w.clone())
    }

    /// Rewrite one load: assert the ghost chain, delete the load, replace
    /// its uses. `from_loc` is where the current value was established and
    /// `repl` the target-side replacement value. `extra_rules` are placed
    /// at the load row before the `intro_ghost` (PR33673's
    /// `intro_lessdef_undef` goes here).
    fn rewrite_load(
        &mut self,
        info: &AllocaInfo,
        (b, i, x): (usize, usize, RegId),
        repl: Value,
        from_loc: Loc,
        extra_rules: Vec<InfRule>,
    ) {
        let p = info.reg;
        let to_loc = self.loc_before_src(b, i);
        self.pb.range_pred(
            Side::Src,
            Pred::Lessdef(load_expr(info.ty, p), Expr::value(TValue::ghost(phat(p)))),
            from_loc,
            to_loc,
        );
        self.pb.range_pred(
            Side::Tgt,
            Pred::Lessdef(Expr::value(TValue::ghost(phat(p))), value_expr(&repl)),
            from_loc,
            to_loc,
        );
        for rule in extra_rules {
            self.pb.infrule_after_src(b, i, rule);
        }
        self.pb.infrule_after_src(
            b,
            i,
            InfRule::IntroGhost {
                g: xhat(x),
                e: Expr::value(TValue::ghost(phat(p))),
            },
        );

        // Replace all uses of x in the target, asserting the chain from the
        // load to every use point.
        let uses = uses_of(self.pb.tgt(), x);
        let after_load = self.loc_after_src(b, i);
        for site in &uses {
            let to = self.loc_before_tgt_use(*site);
            self.pb.range_pred(
                Side::Src,
                Pred::Lessdef(
                    Expr::value(TValue::phy(x)),
                    Expr::value(TValue::ghost(xhat(x))),
                ),
                after_load,
                to,
            );
            self.pb.range_pred(
                Side::Tgt,
                Pred::Lessdef(Expr::value(TValue::ghost(xhat(x))), value_expr(&repl)),
                after_load,
                to,
            );
        }
        self.pb.replace_tgt_uses(x, &repl);
        self.pb.delete_tgt(b, i);
        self.pb.global_maydiff(crellvm_core::TReg::Phy(x));
        self.replaced.insert(
            x,
            Replacement {
                ghost: xhat(x),
                value: repl,
            },
        );
    }

    /// Remove one store, introducing the content ghost.
    fn rewrite_store(
        &mut self,
        info: &AllocaInfo,
        (b, i): (usize, usize),
        w: &Value,
    ) -> (Value, Loc) {
        let (anchor, tgt_val) = self.anchor_of(w);
        self.pb.infrule_after_src(
            b,
            i,
            InfRule::IntroGhost {
                g: phat(info.reg),
                e: anchor,
            },
        );
        let loc = self.loc_after_src(b, i);
        self.pb.delete_tgt(b, i);
        (tgt_val, loc)
    }

    /// Assert the content chain from `(from_loc, val)` to the end of block
    /// `b` (the paper's line A23, feeding a successor phi).
    fn assert_to_block_end(&mut self, info: &AllocaInfo, val: &Value, from_loc: Loc, b: usize) {
        let p = info.reg;
        self.pb.range_pred(
            Side::Src,
            Pred::Lessdef(load_expr(info.ty, p), Expr::value(TValue::ghost(phat(p)))),
            from_loc,
            Loc::End(b),
        );
        self.pb.range_pred(
            Side::Tgt,
            Pred::Lessdef(Expr::value(TValue::ghost(phat(p))), value_expr(val)),
            from_loc,
            Loc::End(b),
        );
    }
}

/// Collect the promotable allocas of `f` (used only by typed loads and
/// stores, single slot, all uses reachable).
fn find_promotable(f: &Function, cfg: &Cfg) -> Vec<AllocaInfo> {
    let mut out = Vec::new();
    for (b, block) in f.blocks.iter().enumerate() {
        if !cfg.is_reachable(BlockId::from_index(b)) {
            continue;
        }
        for (i, s) in block.stmts.iter().enumerate() {
            let (Some(p), Inst::Alloca { ty, count }) = (s.result, &s.inst) else {
                continue;
            };
            if *count != 1 {
                continue;
            }
            let mut loads = Vec::new();
            let mut stores = Vec::new();
            let mut promotable = true;
            'scan: for (ub, ublock) in f.blocks.iter().enumerate() {
                for (_, phi) in &ublock.phis {
                    for (_, v) in &phi.incoming {
                        if v.as_ref().and_then(Value::as_reg) == Some(p) {
                            promotable = false;
                            break 'scan;
                        }
                    }
                }
                for (ui, us) in ublock.stmts.iter().enumerate() {
                    match &us.inst {
                        Inst::Load { ty: lty, ptr } if ptr.as_reg() == Some(p) => {
                            if lty != ty || !cfg.is_reachable(BlockId::from_index(ub)) {
                                promotable = false;
                                break 'scan;
                            }
                            loads.push((ub, ui, us.result.expect("load has a result")));
                        }
                        Inst::Store { ty: sty, val, ptr } if ptr.as_reg() == Some(p) => {
                            if sty != ty
                                || val.as_reg() == Some(p)
                                || !cfg.is_reachable(BlockId::from_index(ub))
                            {
                                promotable = false;
                                break 'scan;
                            }
                            stores.push((ub, ui, val.clone()));
                        }
                        other => {
                            if other.used_regs().contains(&p) {
                                promotable = false;
                                break 'scan;
                            }
                        }
                    }
                }
                let mut term_use = false;
                ublock.term.for_each_value(|v| term_use |= v.uses(p));
                if term_use {
                    promotable = false;
                    break;
                }
            }
            if promotable {
                out.push(AllocaInfo {
                    block: b,
                    stmt: i,
                    reg: p,
                    ty: *ty,
                    loads,
                    stores,
                });
            }
        }
    }
    out
}

fn store_dominates_load(dom: &DomTree, (sb, si): (usize, usize), (lb, li): (usize, usize)) -> bool {
    if sb == lb {
        si < li
    } else {
        dom.strictly_dominates(BlockId::from_index(sb), BlockId::from_index(lb))
    }
}

fn store_reaches_load(cfg: &Cfg, (sb, si): (usize, usize), (lb, li): (usize, usize)) -> bool {
    if sb == lb && si < li {
        return true;
    }
    // Through the terminator of the store's block.
    if sb == lb {
        on_cycle(cfg, BlockId::from_index(sb))
    } else {
        reaches(cfg, BlockId::from_index(sb), BlockId::from_index(lb))
    }
}

/// Classify an alloca into a promotion mode (LLVM's dispatch).
fn classify(
    info: &AllocaInfo,
    cfg: &Cfg,
    dom: &DomTree,
    df: &DominanceFrontier,
    config: &PassConfig,
    f: &mut ProofBuilder,
) -> Mode {
    // Single store: safe when every non-dominated load is unreachable from
    // the store (otherwise fall back to the general algorithm).
    if info.stores.len() == 1 {
        let (sb, si, _) = &info.stores[0];
        let safe = info.loads.iter().all(|(lb, li, _)| {
            store_dominates_load(dom, (*sb, *si), (*lb, *li))
                || !store_reaches_load(cfg, (*sb, *si), (*lb, *li))
        });
        if safe {
            return Mode::SingleStore;
        }
    }
    // Single block: all loads and stores in one block. The FIXED version
    // bails out to the general algorithm when the block sits on a cycle
    // and some load precedes the first store (a store from the previous
    // iteration reaches it); with PR24179 enabled the fast path runs
    // anyway and such loads are wrongly resolved to undef.
    let blocks: HashSet<usize> = info
        .loads
        .iter()
        .map(|(b, _, _)| *b)
        .chain(info.stores.iter().map(|(b, _, _)| *b))
        .collect();
    if blocks.len() == 1 && !info.stores.is_empty() {
        let b = *blocks.iter().next().expect("non-empty");
        let first_store = info
            .stores
            .iter()
            .map(|(_, i, _)| *i)
            .min()
            .expect("has stores");
        let load_before_store = info.loads.iter().any(|(_, i, _)| *i < first_store);
        let looping = on_cycle(cfg, BlockId::from_index(b));
        if !(load_before_store && looping) || config.bugs.pr24179 {
            return Mode::SingleBlock;
        }
    } else if blocks.len() <= 1 {
        // Only loads (or nothing): every load reads undef; the general
        // path handles it uniformly.
    }

    // General: insert empty phis at the iterated dominance frontier of the
    // store blocks (paper line A2).
    let mut phis = HashMap::new();
    let seeds: Vec<BlockId> = {
        let mut v: Vec<usize> = info.stores.iter().map(|(b, _, _)| *b).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(BlockId::from_index).collect()
    };
    for b in df.iterated(seeds) {
        let z = f.fresh_reg(&format!("{}.phi", f.src().reg_name(info.reg)));
        phis.insert(b.index(), z);
        f.global_maydiff(crellvm_core::TReg::Phy(z));
    }
    Mode::General { phis }
}

/// Promote every promotable alloca of `f`, producing the proof unit and
/// recording domain counters (`pass.mem2reg.*`) into `tel`.
pub fn promote_function_traced(
    f: &Function,
    config: &PassConfig,
    tel: &crellvm_telemetry::Telemetry,
) -> ProofUnit {
    let mut pb = ProofBuilder::new("mem2reg", f);
    pb.set_recording(config.gen_proofs);
    if let Some(reason) = crate::util::ns_reason(f, "mem2reg") {
        pb.mark_not_supported(reason);
        return pb.finish();
    }
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let df = DominanceFrontier::new(f, &cfg, &dom);

    let allocas = find_promotable(f, &cfg);
    if allocas.is_empty() {
        return pb.finish();
    }
    tel.count("pass.mem2reg.allocas_promoted", allocas.len() as u64);
    pb.auto(AutoKind::Transitivity);
    pb.auto(AutoKind::ReduceMaydiff);

    // Classify and set up per-alloca state.
    let mut modes: Vec<Mode> = Vec::new();
    for info in &allocas {
        let mode = classify(info, &cfg, &dom, &df, config, &mut pb);
        // Global facts (paper line A3): Uniq(p), MD(p), delete the alloca,
        // and seed the content ghost with undef (line A4).
        pb.global_pred(Side::Src, Pred::Uniq(info.reg));
        pb.global_maydiff(crellvm_core::TReg::Phy(info.reg));
        pb.infrule_after_src(
            info.block,
            info.stmt,
            InfRule::IntroGhost {
                g: phat(info.reg),
                e: Expr::undef(info.ty),
            },
        );
        modes.push(mode);
    }
    // Insert the (initially empty) target phis.
    for (info, mode) in allocas.iter().zip(&modes) {
        if let Mode::General { phis } = mode {
            tel.count("pass.mem2reg.phis_inserted", phis.len() as u64);
            for (&b, &z) in phis {
                let preds: Vec<BlockId> = cfg.preds(BlockId::from_index(b)).to_vec();
                pb.add_tgt_phi(
                    b,
                    z,
                    Phi {
                        ty: info.ty,
                        incoming: preds.into_iter().map(|p| (p, None)).collect(),
                    },
                );
            }
        }
    }

    let mut p = Promoter {
        pb,
        src: f.clone(),
        dom,
        config,
        replaced: HashMap::new(),
    };
    rename_pass(&mut p, &allocas, &modes);

    // Delete the allocas themselves and fill any remaining empty phi slot
    // with undef (unvisited predecessors).
    for info in &allocas {
        p.pb.delete_tgt(info.block, info.stmt);
    }
    for (info, mode) in allocas.iter().zip(&modes) {
        if let Mode::General { phis } = mode {
            for (&b, &z) in phis {
                let block = &mut p.pb.tgt_mut().blocks[b];
                if let Some((_, phi)) = block.phis.iter_mut().find(|(r, _)| *r == z) {
                    for (_, slot) in &mut phi.incoming {
                        if slot.is_none() {
                            *slot = Some(Value::undef(info.ty));
                        }
                    }
                }
            }
        }
    }
    p.pb.finish()
}

/// Per-alloca current content during the rename walk.
#[derive(Debug, Clone)]
struct Cur {
    val: Value,
    loc: Loc,
}

/// The unified rename pass (LLVM's `RenamePass`): one DFS over the CFG
/// resolving loads and stores of *all* promoted allocas in program order.
fn rename_pass(p: &mut Promoter<'_>, allocas: &[AllocaInfo], modes: &[Mode]) {
    let _n = allocas.len();
    let src = p.src.clone();
    let entry = src.entry();

    // Initial values: undef established at the alloca site.
    let init: Vec<Cur> = allocas
        .iter()
        .map(|info| Cur {
            val: Value::undef(info.ty),
            loc: p.loc_after_src(info.block, info.stmt),
        })
        .collect();

    // Quick lookup: (block, stmt) → (alloca index, access).
    #[derive(Clone, Copy)]
    enum Access {
        Load(RegId),
        Store,
    }
    let mut accesses: HashMap<(usize, usize), (usize, Access)> = HashMap::new();
    for (a, info) in allocas.iter().enumerate() {
        for &(b, i, x) in &info.loads {
            accesses.insert((b, i), (a, Access::Load(x)));
        }
        for (b, i, _) in &info.stores {
            accesses.insert((*b, *i), (a, Access::Store));
        }
    }

    let mut visited: HashSet<usize> = HashSet::new();
    let mut stack: Vec<(usize, Vec<Cur>)> = vec![(entry.index(), init)];
    visited.insert(entry.index());

    while let Some((b, mut cur)) = stack.pop() {
        for (i, stmt) in src.blocks[b].stmts.iter().enumerate() {
            let Some(&(a, access)) = accesses.get(&(b, i)) else {
                continue;
            };
            let info = &allocas[a];
            match (access, &modes[a]) {
                (Access::Store, _) => {
                    let w = match &stmt.inst {
                        Inst::Store { val, .. } => val.clone(),
                        _ => unreachable!("classified as store"),
                    };
                    let (val, loc) = p.rewrite_store(info, (b, i), &w);
                    cur[a] = Cur { val, loc };
                }
                (Access::Load(x), Mode::General { .. }) | (Access::Load(x), Mode::SingleBlock) => {
                    let c = cur[a].clone();
                    p.rewrite_load(info, (b, i, x), c.val, c.loc, Vec::new());
                }
                (Access::Load(x), Mode::SingleStore) => {
                    let (sb, si, w) = info.stores[0].clone();
                    let dominated = store_dominates_load(&p.dom, (sb, si), (b, i));
                    if dominated {
                        let c = cur[a].clone();
                        p.rewrite_load(info, (b, i, x), c.val, c.loc, Vec::new());
                    } else {
                        // The load reads uninitialized memory. The fixed
                        // path replaces it with undef; PR33673 propagates
                        // a constant stored value anyway, "because
                        // constant expressions never trap".
                        let from = p.loc_after_src(info.block, info.stmt);
                        if p.config.bugs.pr33673 {
                            if let Value::Const(c) = &w {
                                let rule = InfRule::IntroLessdefUndef {
                                    side: Side::Tgt,
                                    ty: info.ty,
                                    e: Expr::Value(TValue::Const(c.clone())),
                                };
                                // The asserted range {p̂ ⊒ c} starts at the
                                // alloca, so the (possibly unsound) rule
                                // must be available there.
                                p.pb.infrule_after_src(info.block, info.stmt, rule.clone());
                                p.rewrite_load(info, (b, i, x), w.clone(), from, vec![rule]);
                                continue;
                            }
                        }
                        p.rewrite_load(info, (b, i, x), Value::undef(info.ty), from, Vec::new());
                    }
                }
            }
        }

        // Successors: feed phis and enqueue.
        let mut handled: HashSet<usize> = HashSet::new();
        for succ in src.blocks[b].term.successors() {
            let sb = succ.index();
            if !handled.insert(sb) {
                continue;
            }
            let mut succ_cur = cur.clone();
            for (a, (info, mode)) in allocas.iter().zip(modes).enumerate() {
                if let Mode::General { phis } = mode {
                    if let Some(&z) = phis.get(&sb) {
                        // Fill this edge's incoming value (line A23).
                        let c = cur[a].clone();
                        {
                            let block = &mut p.pb.tgt_mut().blocks[sb];
                            if let Some((_, phi)) = block.phis.iter_mut().find(|(r, _)| *r == z) {
                                phi.set_incoming(BlockId::from_index(b), c.val.clone());
                            }
                        }
                        p.assert_to_block_end(info, &c.val, c.loc, b);
                        succ_cur[a] = Cur {
                            val: Value::Reg(z),
                            loc: Loc::Start(sb),
                        };
                    }
                }
            }
            if visited.insert(sb) {
                stack.push((sb, succ_cur));
            }
        }
    }
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
        let out = mem2reg(&m, config);
        verify_module(&out.module).expect("output verifies");
        out
    }

    fn assert_all_valid(out: &PassOutcome) {
        for unit in &out.proofs {
            assert_eq!(
                validate(unit),
                Ok(Verdict::Valid),
                "unit for @{}",
                unit.src.name
            );
        }
    }

    /// The paper's Fig 3 example: straight-line store/load in a diamond.
    const FIG3: &str = r#"
        declare @foo(i32)
        define @f(i1 %c, i32 %x, ptr %q) {
        entry:
          %p = alloca i32
          store i32 42, ptr %p
          br i1 %c, label left, label right
        left:
          %a = load i32, ptr %p
          call void @foo(i32 %a)
          br label exit
        right:
          store i32 %x, ptr %p
          store i32 %x, ptr %q
          br label exit
        exit:
          %b = load i32, ptr %p
          store i32 %b, ptr %q
          ret void
        }
    "#;

    #[test]
    fn fig3_promotes_and_validates() {
        let out = run(FIG3, &PassConfig::default());
        let f = out.module.function("f").unwrap();
        // All loads/stores to %p and the alloca are gone.
        for b in &f.blocks {
            for s in &b.stmts {
                assert!(!matches!(s.inst, Inst::Alloca { .. }));
            }
        }
        // A phi was inserted in exit.
        let exit = f.block_by_name("exit").unwrap();
        assert_eq!(f.block(exit).phis.len(), 1);
        assert_all_valid(&out);
    }

    #[test]
    fn straightline_single_store() {
        let out = run(
            r#"
            declare @print(i32)
            define @main() {
            entry:
              %p = alloca i32
              store i32 42, ptr %p
              %a = load i32, ptr %p
              call void @print(i32 %a)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "only the call remains: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn loop_carried_value_gets_phi() {
        // *p accumulates across iterations: needs a loop-header phi.
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %n) {
            entry:
              %p = alloca i32
              store i32 0, ptr %p
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              %acc = load i32, ptr %p
              %acc2 = add i32 %acc, %i
              store i32 %acc2, ptr %p
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              %r = load i32, ptr %p
              call void @print(i32 %r)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        let lp = f.block_by_name("loop").unwrap();
        assert_eq!(f.block(lp).phis.len(), 2, "i plus the promoted accumulator");
        assert_all_valid(&out);
    }

    #[test]
    fn load_of_uninitialized_becomes_undef() {
        let out = run(
            r#"
            declare @print(i32)
            define @main() {
            entry:
              %p = alloca i32
              %a = load i32, ptr %p
              call void @print(i32 %a)
              store i32 1, ptr %p
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        // print's argument is now undef.
        let arg = match &f.blocks[0].stmts[0].inst {
            Inst::Call { args, .. } => args[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(arg, Value::undef(Type::I32));
        assert_all_valid(&out);
    }

    #[test]
    fn escaping_alloca_is_not_promoted() {
        let out = run(
            r#"
            declare @sink(ptr)
            define @main() {
            entry:
              %p = alloca i32
              store i32 1, ptr %p
              call void @sink(ptr %p)
              %a = load i32, ptr %p
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert!(f.blocks[0]
            .stmts
            .iter()
            .any(|s| matches!(s.inst, Inst::Alloca { .. })));
        assert_all_valid(&out); // identity translation
    }

    #[test]
    fn store_load_chains_between_two_allocas() {
        // store *q := load *p — the anchor must go through the ghost.
        let out = run(
            r#"
            declare @print(i32)
            define @main(i32 %x) {
            entry:
              %p = alloca i32
              %q = alloca i32
              store i32 %x, ptr %p
              %a = load i32, ptr %p
              store i32 %a, ptr %q
              %b = load i32, ptr %q
              call void @print(i32 %b)
              ret void
            }
            "#,
            &PassConfig::default(),
        );
        let f = out.module.function("main").unwrap();
        assert_eq!(f.blocks[0].stmts.len(), 1, "only the call remains: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn unsupported_function_is_marked_ns() {
        let m = parse_module(
            "define @f() {\nentry:\n  %u = unsupported \"vector.add\"\n  ret void\n}\n",
        )
        .unwrap();
        let out = mem2reg(&m, &PassConfig::default());
        assert!(matches!(
            validate(&out.proofs[0]),
            Ok(Verdict::NotSupported(_))
        ));
    }

    /// PR24179: the single-block fast path in a loop. The fixed compiler
    /// promotes through the general path and validates; the buggy one
    /// resolves the first load to undef and validation FAILS.
    const PR24179: &str = r#"
        declare @foo(i32)
        define @main(i32 %n) {
        entry:
          br label loop
        loop:
          %i = phi i32 [ 0, entry ], [ %i2, loop ]
          %r = load i32, ptr %p
          call void @foo(i32 %r)
          store i32 42, ptr %p
          %i2 = add i32 %i, 1
          %c = icmp slt i32 %i2, %n
          br i1 %c, label loop, label exit
        exit:
          ret void
        }
    "#;

    fn pr24179_src() -> String {
        // Hoist the alloca into entry (the uses stay single-block).
        PR24179.replace("entry:\n", "entry:\n          %p = alloca i32\n")
    }

    #[test]
    fn pr24179_fixed_validates() {
        let out = run(&pr24179_src(), &PassConfig::default());
        assert_all_valid(&out);
        // And the promoted value is loop-carried: a phi exists in loop.
        let f = out.module.function("main").unwrap();
        let lp = f.block_by_name("loop").unwrap();
        assert_eq!(f.block(lp).phis.len(), 2);
    }

    #[test]
    fn pr24179_bug_caught_by_validation() {
        let config = PassConfig::with_bugs(BugSet {
            pr24179: true,
            ..BugSet::default()
        });
        let m = parse_module(&pr24179_src()).unwrap();
        let out = mem2reg(&m, &config);
        verify_module(&out.module).expect("even the buggy output is well-formed IR");
        let err = validate(&out.proofs[0]).unwrap_err();
        // The failure points into the loop where the "still undef" claim
        // breaks.
        assert!(err.at.contains("loop"), "failure at {}", err.at);
        // The miscompiled target really does feed undef to @foo forever.
        let f = out.module.function("main").unwrap();
        let lp = f.block_by_name("loop").unwrap();
        let arg = match &f.block(lp).stmts[0].inst {
            Inst::Call { args, .. } => args[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(arg, Value::undef(Type::I32));
    }

    /// PR33673: single-store promotion of a *trapping constant expression*
    /// to a non-dominated load.
    const PR33673: &str = r#"
        global @G : i32[1]
        declare @foo(i32)
        define @main(i1 %c) {
        entry:
          %p = alloca i32
          br i1 %c, label uses, label stores
        uses:
          %r = load i32, ptr %p
          call void @foo(i32 %r)
          ret void
        stores:
          store i32 sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32))), ptr %p
          ret void
        }
    "#;

    #[test]
    fn pr33673_fixed_replaces_with_undef_and_validates() {
        let out = run(PR33673, &PassConfig::default());
        let f = out.module.function("main").unwrap();
        let uses = f.block_by_name("uses").unwrap();
        let arg = match &f.block(uses).stmts[0].inst {
            Inst::Call { args, .. } => args[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(arg, Value::undef(Type::I32));
        assert_all_valid(&out);
    }

    #[test]
    fn pr33673_bug_caught_by_validation() {
        let config = PassConfig::with_bugs(BugSet {
            pr33673: true,
            ..BugSet::default()
        });
        let m = parse_module(PR33673).unwrap();
        let out = mem2reg(&m, &config);
        verify_module(&out.module).unwrap();
        // The target now evaluates the trapping constexpr when calling foo.
        let err = validate(&out.proofs[0]).unwrap_err();
        assert!(
            err.reason.contains("trapping") || err.reason.contains("undefined behaviour"),
            "reason: {}",
            err.reason
        );
    }

    #[test]
    fn pr33673_bug_with_benign_constant_still_validates() {
        // The same buggy code path, but the stored constant cannot trap:
        // replacing an undef load with 7 is a legal refinement, and the
        // checker accepts it (this is why the bug hid for 7 years).
        let src = PR33673.replace(
            "sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32)))",
            "7",
        );
        let config = PassConfig::with_bugs(BugSet {
            pr33673: true,
            ..BugSet::default()
        });
        let out = run(&src, &config);
        let f = out.module.function("main").unwrap();
        let uses = f.block_by_name("uses").unwrap();
        let arg = match &f.block(uses).stmts[0].inst {
            Inst::Call { args, .. } => args[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(arg, Value::int(Type::I32, 7));
        assert_all_valid(&out);
    }

    #[test]
    fn multiple_stores_in_branches_merge_correctly() {
        let out = run(FIG3, &PassConfig::default());
        assert_all_valid(&out);
        // Differential check: behaviour is preserved under the interpreter
        // is exercised in the integration tests; here we check shape only.
        let f = out.module.function("f").unwrap();
        assert_eq!(f.stmt_count(), 3, "foo-call plus the two stores to %q: {f}");
    }
}
