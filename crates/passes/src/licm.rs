//! Loop-invariant code motion (LLVM's `licm` pass) with proof generation.
//!
//! Finds natural loops (back edges to a dominating header), and hoists
//! *pure, trap-free* loop-invariant statements into the loop's dedicated
//! preheader. Memory promotion (`promoteLoopAccessesToScalars`) is *not*
//! covered — it needs alias analysis, exactly the function the paper
//! omits (§D).
//!
//! Proof shape: the hoisted instruction `x := e` appears earlier in the
//! target (preheader) and becomes a logical no-op inside the loop. From
//! the preheader on, `{e ⊒ x}ₜ` is asserted; at the source definition row
//! the built-in maydiff reduction re-establishes `x`'s equality from
//! `x ⊒ e` (src) and `e ⊒ x` (tgt) — the operands are loop-invariant, so
//! `e` means the same thing at both points.

use crate::config::{PassConfig, PassOutcome};
use crate::util::{uses_of, UseSite};
use crellvm_core::{AutoKind, Expr, Loc, Pred, ProofBuilder, ProofUnit, Side, TValue};
use crellvm_ir::{BlockId, Cfg, DomTree, Function, Module, RegId, Stmt};
use std::collections::HashSet;

/// Run LICM over every function of a module.
pub fn licm(module: &Module, config: &PassConfig) -> PassOutcome {
    crate::pipeline::run_pass("licm", module, config)
}

/// A natural loop: header, unique preheader, and body blocks.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// The unique out-of-loop predecessor of the header.
    pub preheader: BlockId,
    /// All blocks of the loop (including the header).
    pub blocks: HashSet<BlockId>,
}

/// Find natural loops with a *unique* preheader (others are skipped; LLVM
/// would first run loop-simplify to create preheaders).
pub fn natural_loops(f: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for b in f.block_ids() {
        for succ in cfg.succs(b) {
            // Back edge b → succ where succ dominates b.
            if !dom.dominates(*succ, b) {
                continue;
            }
            let header = *succ;
            // Collect the loop body: blocks reaching b without passing the
            // header.
            let mut blocks = cfg.reaches_avoiding(b, header);
            blocks.insert(header);
            // Merge into an existing loop with the same header.
            if let Some(l) = loops.iter_mut().find(|l| l.header == header) {
                l.blocks.extend(blocks);
                continue;
            }
            let outside: Vec<BlockId> = cfg
                .preds(header)
                .iter()
                .copied()
                .filter(|p| !blocks.contains(p))
                .collect();
            if outside.len() != 1 {
                continue; // no unique preheader
            }
            loops.push(NaturalLoop {
                header,
                preheader: outside[0],
                blocks,
            });
        }
    }
    loops
}

/// Run LICM on one function, producing the proof unit and recording
/// domain counters (`pass.licm.*`) into `tel`.
pub fn licm_function_traced(
    f: &Function,
    config: &PassConfig,
    tel: &crellvm_telemetry::Telemetry,
) -> ProofUnit {
    let mut pb = ProofBuilder::new("licm", f);
    pb.set_recording(config.gen_proofs);
    if let Some(reason) = crate::util::ns_reason(f, "licm") {
        pb.mark_not_supported(reason);
        return pb.finish();
    }
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let loops = natural_loops(f, &cfg, &dom);
    if loops.is_empty() {
        return pb.finish();
    }
    pb.auto(AutoKind::Transitivity);
    pb.auto(AutoKind::ReduceMaydiff);

    for l in &loops {
        // A register is invariant if defined outside the loop (or a
        // parameter / constant), or defined by an already-hoisted stmt.
        let mut hoisted: HashSet<RegId> = HashSet::new();
        let defined_in_loop = |r: RegId, hoisted: &HashSet<RegId>| -> bool {
            if hoisted.contains(&r) {
                return false;
            }
            match f.def_site(r) {
                Some(crellvm_ir::DefSite::Param(_)) | None => false,
                Some(crellvm_ir::DefSite::Phi(b, _)) => l.blocks.contains(&b),
                Some(crellvm_ir::DefSite::Stmt(b, _)) => l.blocks.contains(&b),
            }
        };

        // Walk the loop blocks in RPO so defs are seen before uses.
        let order: Vec<BlockId> = cfg
            .reverse_postorder()
            .iter()
            .copied()
            .filter(|b| l.blocks.contains(b))
            .collect();
        for b in order {
            let stmts: Vec<Stmt> = f.blocks[b.index()].stmts.clone();
            for (i, stmt) in stmts.iter().enumerate() {
                let Some(x) = stmt.result else { continue };
                if !stmt.inst.is_pure() {
                    continue;
                }
                // LLVM hoists only from blocks that execute on every
                // iteration; we approximate with "dominates every latch",
                // simplified to: the block dominates all back-edge sources.
                let latches: Vec<BlockId> = cfg
                    .preds(l.header)
                    .iter()
                    .copied()
                    .filter(|p| l.blocks.contains(p))
                    .collect();
                if !latches.iter().all(|latch| dom.dominates(b, *latch)) {
                    continue;
                }
                let invariant = stmt
                    .inst
                    .used_regs()
                    .iter()
                    .all(|r| !defined_in_loop(*r, &hoisted));
                if !invariant {
                    continue;
                }

                // Hoist: append to the preheader (before its terminator),
                // delete in the loop body.
                let ph = l.preheader.index();
                let row = pb.append_tgt(ph, stmt.clone());
                pb.delete_tgt(b.index(), i);
                pb.global_maydiff(crellvm_core::TReg::Phy(x));
                tel.count("pass.licm.hoisted", 1);

                // Proof: a ghost ĝx mediates "the (loop-invariant) value of
                // e". Operands that were themselves hoisted are rewritten
                // to their ghosts so the anchor expression is injected.
                let e = Expr::of_inst(&stmt.inst).expect("pure instructions are expressions");
                let ghost = |r: RegId| format!("licm{}", r.index());
                let mut e_ghosted = e.clone();
                let mut hoisted_ops: Vec<RegId> = Vec::new();
                for r in stmt.inst.used_regs() {
                    if hoisted.contains(&r) && !hoisted_ops.contains(&r) {
                        hoisted_ops.push(r);
                        e_ghosted = e_ghosted.subst(&TValue::phy(r), &TValue::ghost(ghost(r)));
                    }
                }
                hoisted.insert(x);
                let gx = Expr::value(TValue::ghost(ghost(x)));
                let xv = Expr::Value(TValue::phy(x));

                // Target side (preheader row): ĝx ⊒ e_ghosted ⊒ e ⊒ x.
                pb.infrule_after_row(
                    ph,
                    row,
                    crellvm_core::InfRule::IntroGhost {
                        g: ghost(x),
                        e: e_ghosted.clone(),
                    },
                );
                let mut cur = e_ghosted.clone();
                for r in &hoisted_ops {
                    pb.infrule_after_row(
                        ph,
                        row,
                        crellvm_core::InfRule::Substitute {
                            side: Side::Tgt,
                            from: TValue::ghost(ghost(*r)),
                            to: TValue::phy(*r),
                            e: cur.clone(),
                        },
                    );
                    cur = cur.subst(&TValue::ghost(ghost(*r)), &TValue::phy(*r));
                }

                // Source side (original row): x ⊒ e ⊒ e_ghosted ⊒ ĝx.
                let src_row_loc = Loc::AfterRow(b.index(), pb.row_of_src(b.index(), i));
                let mut cur = e.clone();
                for r in &hoisted_ops {
                    pb.infrule_after_src(
                        b.index(),
                        i,
                        crellvm_core::InfRule::Substitute {
                            side: Side::Src,
                            from: TValue::phy(*r),
                            to: TValue::ghost(ghost(*r)),
                            e: cur.clone(),
                        },
                    );
                    cur = cur.subst(&TValue::phy(*r), &TValue::ghost(ghost(*r)));
                }
                // The src-side half of the ghost introduction must persist
                // from the preheader down to the original definition.
                let from_tgt = Loc::AfterRow(ph, row);
                pb.range_pred(
                    Side::Src,
                    Pred::Lessdef(e_ghosted.clone(), gx.clone()),
                    from_tgt,
                    src_row_loc,
                );

                // The mediated equalities at every use of x.
                for site in uses_of(pb.tgt(), x) {
                    let to = match site {
                        UseSite::Stmt(ub, ut) => {
                            let r = pb.row_of_tgt(ub, ut);
                            if r == 0 {
                                Loc::Start(ub)
                            } else {
                                Loc::AfterRow(ub, r - 1)
                            }
                        }
                        UseSite::Term(ub) => Loc::End(ub),
                        UseSite::PhiEdge(_, _, pred) => Loc::End(pred),
                    };
                    pb.range_pred(
                        Side::Src,
                        Pred::Lessdef(xv.clone(), gx.clone()),
                        src_row_loc,
                        to,
                    );
                    pb.range_pred(
                        Side::Tgt,
                        Pred::Lessdef(gx.clone(), xv.clone()),
                        from_tgt,
                        to,
                    );
                }
            }
        }
    }
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_core::{validate, Verdict};
    use crellvm_ir::{parse_module, verify_module, Inst};

    fn run(src: &str) -> PassOutcome {
        let m = parse_module(src).expect("parse");
        verify_module(&m).expect("input verifies");
        let out = licm(&m, &PassConfig::default());
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

    const LOOP: &str = r#"
        declare @print(i32)
        define @main(i32 %n, i32 %a, i32 %b) {
        entry:
          br label loop
        loop:
          %i = phi i32 [ 0, entry ], [ %i2, loop ]
          %inv = mul i32 %a, %b
          %s = add i32 %i, %inv
          call void @print(i32 %s)
          %i2 = add i32 %i, 1
          %c = icmp slt i32 %i2, %n
          br i1 %c, label loop, label exit
        exit:
          ret void
        }
    "#;

    #[test]
    fn hoists_invariant_multiplication() {
        let out = run(LOOP);
        let f = out.module.function("main").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        let lp = f.block_by_name("loop").unwrap();
        assert_eq!(f.block(entry).stmts.len(), 1, "hoisted into preheader: {f}");
        assert!(matches!(f.block(entry).stmts[0].inst, Inst::Bin { .. }));
        assert_eq!(f.block(lp).stmts.len(), 4, "mul removed from the loop: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn loop_variant_values_stay() {
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %n) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              %sq = mul i32 %i, %i
              call void @print(i32 %sq)
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        assert_eq!(f.block(entry).stmts.len(), 0, "nothing to hoist: {f}");
        assert_all_valid(&out);
    }

    #[test]
    fn divisions_and_loads_not_hoisted() {
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %n, i32 %a, i32 %b, ptr %p) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              %d = sdiv i32 %a, %b
              %m = load i32, ptr %p
              %s = add i32 %d, %m
              call void @print(i32 %s)
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        assert_eq!(
            f.block(entry).stmts.len(),
            0,
            "trap/memory ops stay put: {f}"
        );
        assert_all_valid(&out);
    }

    #[test]
    fn conditional_blocks_not_hoisted_from() {
        // The invariant computation sits behind a branch inside the loop:
        // it does not execute every iteration, so it must not be hoisted
        // (it could trap… here it is pure, but LLVM still requires the
        // dominance condition; we mirror that).
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %n, i32 %a, i1 %g) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, latch ]
              br i1 %g, label then, label latch
            then:
              %inv = mul i32 %a, %a
              call void @print(i32 %inv)
              br label latch
            latch:
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        assert_eq!(f.block(entry).stmts.len(), 0, "{f}");
        assert_all_valid(&out);
    }

    #[test]
    fn chained_invariants_hoist_together() {
        let out = run(r#"
            declare @print(i32)
            define @main(i32 %n, i32 %a, i32 %b) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              %u = mul i32 %a, %b
              %v = add i32 %u, 7
              %s = add i32 %i, %v
              call void @print(i32 %s)
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#);
        let f = out.module.function("main").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        assert_eq!(
            f.block(entry).stmts.len(),
            2,
            "both invariants hoisted: {f}"
        );
        assert_all_valid(&out);
    }

    #[test]
    fn no_loop_is_identity() {
        let out = run(r#"
            define @main(i32 %a) -> i32 {
            entry:
              %x = add i32 %a, 1
              ret i32 %x
            }
            "#);
        assert_all_valid(&out);
        assert_eq!(out.module.function("main").unwrap().stmt_count(), 1);
    }

    #[test]
    fn natural_loop_detection() {
        let m = parse_module(LOOP).unwrap();
        let f = &m.functions[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let loops = natural_loops(f, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, f.block_by_name("loop").unwrap());
        assert_eq!(l.preheader, f.block_by_name("entry").unwrap());
        assert_eq!(l.blocks.len(), 1);
    }
}
