//! Strong post-assertion computation (`CalcPostAssn`, paper §H.2–H.3).
//!
//! Given the assertion before a line and the pair of instructions executed
//! there (either may be a logical no-op), compute the strongest assertion
//! the checker can justify after the line:
//!
//! 1. **Prune** — drop predicates invalidated by register definitions and
//!    memory effects (using `Uniq`/`Priv`/`⊥` to preserve facts about
//!    provably disjoint locations — the paper's §3.3 "alias checking");
//! 2. **AddMemoryPreds** — introduce `Uniq`/`Priv` for allocations;
//! 3. **AddLessdefPreds** — record `x ⊒ e` / `e ⊒ x` for executed
//!    side-effect-free instructions and `*p ⊒ v` for stores;
//! 4. **ReduceMaydiff** — drop registers from the maydiff set when both
//!    sides pin them to a common injected expression.
//!
//! Phi-node bundles are handled by [`calc_post_phi`] using *old registers*
//! (paper §4): assertions about current registers are copied to their
//! `Old`-tagged twins, then the phi assignments execute in parallel
//! against the old values.

use crate::assertion::{Assertion, Pred, Unary};
use crate::expr::{Expr, TReg, TValue};
use crellvm_ir::{Inst, Phi, RegId, Stmt, Type, Value};

/// Kill predicates invalidated by executing `inst` on one side.
fn prune_unary(u: &mut Unary, inst: &Inst, result: Option<RegId>) {
    // (a) The defined register is overwritten.
    if let Some(r) = result {
        u.kill_reg(&TReg::Phy(r));
    }
    // (b) Stores clobber loads that may alias. The alias queries read only
    // the non-lessdef predicates, which this pruning never removes.
    if let Inst::Store { ptr, .. } = inst {
        let p = TValue::of_value(ptr);
        u.retain_lessdefs(|rest, a, b| {
            let survives = |e: &Expr| match e.load_ptr() {
                Some(q) => rest.provably_disjoint(&p, q),
                None => true,
            };
            survives(a) && survives(b)
        });
    }
    // (c) Calls (and opaque unsupported ops) clobber all public memory:
    // only loads from private locations survive.
    if matches!(inst, Inst::Call { .. } | Inst::Unsupported { .. }) {
        u.retain_lessdefs(|rest, a, b| {
            let survives = |e: &Expr| match e.load_ptr() {
                Some(TValue::Reg(q)) => rest.has_priv(q),
                Some(_) => false,
                None => true,
            };
            survives(a) && survives(b)
        });
    }
    // (d) Leaks: a register used as a *value* operand (copied, stored,
    // passed, offset) may now be aliased elsewhere, killing its Uniq.
    for_each_leaked(inst, |leaked| {
        u.remove(&Pred::Uniq(leaked));
    });
}

/// Visit the registers whose *addresses* escape by executing `inst`.
fn for_each_leaked(inst: &Inst, mut f: impl FnMut(RegId)) {
    let mut push = |v: &Value| {
        if let Value::Reg(r) = v {
            f(*r);
        }
    };
    match inst {
        // Addresses used purely for dereferencing do not leak.
        Inst::Load { .. } => {}
        Inst::Store { val, .. } => push(val),
        Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
            push(lhs);
            push(rhs);
        }
        Inst::Select {
            cond,
            on_true,
            on_false,
            ..
        } => {
            push(cond);
            push(on_true);
            push(on_false);
        }
        Inst::Cast { val, .. } => push(val),
        Inst::Gep { ptr, .. } => push(ptr),
        Inst::Call { args, .. } => {
            for (_, a) in args {
                push(a);
            }
        }
        Inst::Alloca { .. } | Inst::Unsupported { .. } => {}
    }
}

/// Record the lessdef facts produced by executing `inst` on one side.
fn add_lessdefs(u: &mut Unary, inst: &Inst, result: Option<RegId>) {
    if let Some(e) = Expr::of_inst(inst) {
        if let Some(r) = result {
            let x = Expr::Value(TValue::phy(r));
            u.insert_lessdef(x.clone(), e.clone());
            u.insert_lessdef(e, x);
        }
        return;
    }
    match inst {
        Inst::Store { ty, val, ptr } => {
            let lhs = Expr::Load {
                ty: *ty,
                ptr: TValue::of_value(ptr),
            };
            u.insert_lessdef(lhs, Expr::Value(TValue::of_value(val)));
        }
        Inst::Alloca { ty, .. } => {
            if let Some(r) = result {
                // The fresh slot contains undef (§3.3).
                let content = Expr::Load {
                    ty: *ty,
                    ptr: TValue::phy(r),
                };
                u.insert_lessdef(content, Expr::undef(*ty));
            }
        }
        _ => {}
    }
}

/// The built-in maydiff reduction: drop `r` whenever both sides pin it to
/// a common expression whose registers are injected (`r ⊒ e` in the
/// source, `e ⊒ r` in the target, `e` not mentioning `r`).
///
/// Each round removes every register removable at once, found in one pass
/// over the source's `r ⊒ e` entries, until a round removes none. That is
/// the same fixpoint as removing one register at a time: removing a
/// register only makes more registers removable, so every maximal
/// sequence of removals removes the same set.
fn reduce_maydiff(a: &mut Assertion) {
    loop {
        let removable: Vec<TReg> = a
            .src
            .lessdefs()
            .filter_map(|(lhs, e)| match lhs {
                Expr::Value(TValue::Reg(r))
                    if a.maydiff.contains(r)
                        && !e.mentions(r)
                        && a.expr_injected(e)
                        && a.tgt.has_lessdef(e, lhs) =>
                {
                    Some(r.clone())
                }
                _ => None,
            })
            .collect();
        if removable.is_empty() {
            break;
        }
        for r in &removable {
            a.maydiff.remove(r);
        }
    }
}

/// Strong post-assertion for one aligned row (paper Algorithm 5).
///
/// `src`/`tgt` are the row's statements (`None` = lnop).
pub fn calc_post_cmd(p: &Assertion, src: Option<&Stmt>, tgt: Option<&Stmt>) -> Assertion {
    let mut q = p.clone();

    // 1. Prune.
    if let Some(s) = src {
        prune_unary(&mut q.src, &s.inst, s.result);
    }
    if let Some(t) = tgt {
        prune_unary(&mut q.tgt, &t.inst, t.result);
    }
    if let Some(r) = src.and_then(|s| s.result) {
        q.add_maydiff(TReg::Phy(r));
    }
    if let Some(r) = tgt.and_then(|t| t.result) {
        q.add_maydiff(TReg::Phy(r));
    }

    // 2. AddMemoryPreds.
    match (src, tgt) {
        (Some(s), Some(t)) => {
            if let (Inst::Alloca { .. }, Inst::Alloca { .. }) = (&s.inst, &t.inst) {
                if let Some(r) = s.result {
                    q.src.insert(Pred::Uniq(r));
                }
                if let Some(r) = t.result {
                    q.tgt.insert(Pred::Uniq(r));
                }
                if s.result == t.result && s.inst == t.inst {
                    if let Some(r) = s.result {
                        q.remove_maydiff(&TReg::Phy(r));
                    }
                }
            }
            // Equivalent calls (CheckEquivBeh validated the arguments)
            // return equivalent values; so do identical opaque
            // (unsupported) operations.
            let opaque_pair = matches!(
                (&s.inst, &t.inst),
                (Inst::Call { .. }, Inst::Call { .. })
                    | (Inst::Unsupported { .. }, Inst::Unsupported { .. })
            );
            if opaque_pair && s.inst == t.inst && s.result == t.result {
                if let Some(r) = s.result {
                    q.remove_maydiff(&TReg::Phy(r));
                }
            } else if let (Inst::Call { .. }, Inst::Call { .. }) = (&s.inst, &t.inst) {
                if s.result == t.result {
                    if let Some(r) = s.result {
                        q.remove_maydiff(&TReg::Phy(r));
                    }
                }
            }
        }
        (Some(s), None) => {
            if let Inst::Alloca { .. } = &s.inst {
                if let Some(r) = s.result {
                    // Promoted allocation: isolated AND private (§3.3).
                    q.src.insert(Pred::Uniq(r));
                    q.src.insert(Pred::Priv(TReg::Phy(r)));
                }
            }
        }
        _ => {}
    }

    // 3. AddLessdefPreds.
    if let Some(s) = src {
        add_lessdefs(&mut q.src, &s.inst, s.result);
    }
    if let Some(t) = tgt {
        add_lessdefs(&mut q.tgt, &t.inst, t.result);
    }

    // 4. ReduceMaydiff.
    reduce_maydiff(&mut q);
    q
}

/// Strong post-assertion across a CFG edge's phi bundle (paper §4, §H.3).
///
/// `src_phis`/`tgt_phis` are the destination block's phi sections;
/// `from` is the edge's source block.
pub fn calc_post_phi(
    p: &Assertion,
    src_phis: &[(RegId, Phi)],
    tgt_phis: &[(RegId, Phi)],
    from: crellvm_ir::BlockId,
) -> Assertion {
    let mut q = Assertion::new();

    // Step 1: drop old-register facts; copy current facts to old twins.
    let is_old = |r: &TReg| matches!(r, TReg::Old(_));
    let is_oldfree = |pred: &Pred| match pred {
        Pred::Lessdef(a, b) => !a.any_reg(is_old) && !b.any_reg(is_old),
        Pred::Priv(r) => !is_old(r),
        Pred::Noalias(a, b) => !a.as_reg().is_some_and(is_old) && !b.as_reg().is_some_and(is_old),
        Pred::Uniq(_) => true,
    };
    for (side_in, side_out) in [(&p.src, &mut q.src), (&p.tgt, &mut q.tgt)] {
        let lessdefs = side_in
            .lessdefs()
            .filter(|&(a, b)| !a.any_reg(is_old) && !b.any_reg(is_old))
            .flat_map(|(a, b)| {
                [
                    Pred::Lessdef(a.clone(), b.clone()),
                    Pred::Lessdef(a.phy_to_old(), b.phy_to_old()),
                ]
            });
        let others = side_in.others().filter(|p| is_oldfree(p)).cloned();
        side_out.extend(lessdefs.chain(others));
    }
    // Physical registers keep their status and lend it to their old
    // twins; stale old registers drop out.
    let old_twins = p.maydiff.iter().filter_map(|r| match r {
        TReg::Phy(pr) => Some(TReg::Old(*pr)),
        _ => None,
    });
    q.maydiff = p
        .maydiff
        .iter()
        .filter(|r| !is_old(r))
        .cloned()
        .chain(old_twins)
        .collect();

    // Step 2: the parallel phi assignments, with RHS values old-tagged.
    let assigns = |phis: &[(RegId, Phi)]| -> Vec<(RegId, Option<(Type, TValue)>)> {
        phis.iter()
            .map(|(r, phi)| {
                let v = phi
                    .value_from(from)
                    .map(|v| (phi.ty, TValue::of_value(v).phy_to_old()));
                (*r, v)
            })
            .collect()
    };
    let src_assigns = assigns(src_phis);
    let tgt_assigns = assigns(tgt_phis);

    // Kill facts about all defined registers first (simultaneity).
    for (r, _) in &src_assigns {
        q.src.kill_reg(&TReg::Phy(*r));
    }
    for (r, _) in &tgt_assigns {
        q.tgt.kill_reg(&TReg::Phy(*r));
    }

    // Maydiff: a register is updated equivalently iff both sides assign it
    // the same old-tagged value whose registers are injected.
    let find =
        |assigns: &[(RegId, Option<(Type, TValue)>)], r: RegId| -> Option<Option<(Type, TValue)>> {
            assigns
                .iter()
                .find(|(x, _)| *x == r)
                .map(|(_, v)| v.clone())
        };
    let mut defined: Vec<RegId> = src_assigns.iter().map(|(r, _)| *r).collect();
    for (r, _) in &tgt_assigns {
        if !defined.contains(r) {
            defined.push(*r);
        }
    }
    for r in &defined {
        let sv = find(&src_assigns, *r);
        let tv = find(&tgt_assigns, *r);
        let equivalent = match (&sv, &tv) {
            (Some(Some((_, a))), Some(Some((_, b)))) => {
                a == b
                    && match a {
                        TValue::Reg(reg) => !q.maydiff.contains(reg),
                        TValue::Const(_) => true,
                    }
            }
            _ => false,
        };
        if equivalent {
            q.maydiff.remove(&TReg::Phy(*r));
        } else {
            q.maydiff.insert(TReg::Phy(*r));
        }
    }

    // Record the assignment equalities, then the old-register bridges: a
    // register NOT redefined by this side's phis still holds its pre-phi
    // value, so `r ⊒ r̄` and `r̄ ⊒ r` are sound (the old ghost file is
    // pinned to the pre-phi values by the copy step above). Emit bridges
    // for every register the assertion talks about, the equalities
    // included.
    for (side, assigns) in [(&mut q.src, &src_assigns), (&mut q.tgt, &tgt_assigns)] {
        let defined = |r: RegId| assigns.iter().any(|(d, _)| *d == r);
        let mut mentioned: Vec<RegId> = Vec::new();
        let mut note = |v: &TValue| {
            if let TValue::Reg(TReg::Phy(r) | TReg::Old(r)) = v {
                if !defined(*r) {
                    mentioned.push(*r);
                }
            }
        };
        for (a, b) in side.lessdefs() {
            a.for_each_value(&mut note);
            b.for_each_value(&mut note);
        }
        let mut new = Vec::new();
        for (r, v) in assigns.iter() {
            if let Some((_, v)) = v {
                note(v);
                let x = Expr::Value(TValue::phy(*r));
                let e = Expr::Value(v.clone());
                new.push(Pred::Lessdef(x.clone(), e.clone()));
                new.push(Pred::Lessdef(e, x));
            }
        }
        mentioned.sort_unstable();
        mentioned.dedup();
        for r in mentioned {
            let cur = Expr::Value(TValue::phy(r));
            let old = Expr::Value(TValue::old(r));
            new.push(Pred::Lessdef(cur.clone(), old.clone()));
            new.push(Pred::Lessdef(old, cur));
        }
        side.extend(new);
    }

    reduce_maydiff(&mut q);
    q
}

/// The branching assertions of paper §C.3: facts derived from taking a
/// specific CFG edge out of a conditional terminator.
///
/// For a `br i1 c, T, F` edge into `T` (and `T ≠ F`), the condition was
/// true, so `true ⊒ c̄` and `c̄ ⊒ true` hold (old-tagged: `c`'s value *at
/// branch time*). Dually for the false edge, and for unique `switch` case
/// edges `C ⊒ v̄`.
pub fn branch_edge_facts(term: &crellvm_ir::Term, to: crellvm_ir::BlockId) -> Vec<(Expr, Expr)> {
    use crellvm_ir::{Const, Term};
    let mut out = Vec::new();
    match term {
        Term::CondBr { cond, if_true, if_false } if if_true != if_false => {
            let flag = to == *if_true;
            if to == *if_true || to == *if_false {
                let c = Expr::Value(TValue::of_value(cond).phy_to_old());
                let b = Expr::Value(TValue::Const(Const::bool(flag)));
                out.push((b.clone(), c.clone()));
                out.push((c, b));
            }
        }
        Term::Switch { ty, val, default, cases }
            // Only on a case edge that is hit by exactly one case value and
            // is not also the default.
            if to != *default => {
                let hits: Vec<u64> =
                    cases.iter().filter(|(_, t)| *t == to).map(|(c, _)| *c).collect();
                if hits.len() == 1 {
                    let v = Expr::Value(TValue::of_value(val).phy_to_old());
                    let c = Expr::Value(TValue::Const(Const::Int { ty: *ty, bits: hits[0] }));
                    out.push((c.clone(), v.clone()));
                    out.push((v, c));
                }
            }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::{BinOp, BlockId, Const};

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    fn stmt(result: Option<RegId>, inst: Inst) -> Stmt {
        Stmt { result, inst }
    }

    fn add_inst(res: usize, a: usize, c: i64) -> Stmt {
        stmt(
            Some(r(res)),
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(r(a)),
                rhs: Value::int(Type::I32, c),
            },
        )
    }

    #[test]
    fn identical_instructions_stay_out_of_maydiff() {
        let p = Assertion::new();
        let s = add_inst(1, 0, 1);
        let q = calc_post_cmd(&p, Some(&s), Some(&s));
        assert!(!q.in_maydiff(&TReg::Phy(r(1))));
        let e = Expr::bin(
            BinOp::Add,
            Type::I32,
            TValue::phy(r(0)),
            TValue::int(Type::I32, 1),
        );
        assert!(q.src.has_lessdef(&Expr::value(TValue::phy(r(1))), &e));
        assert!(q.src.has_lessdef(&e, &Expr::value(TValue::phy(r(1)))));
        assert!(q.tgt.has_lessdef(&Expr::value(TValue::phy(r(1))), &e));
    }

    #[test]
    fn differing_instructions_enter_maydiff() {
        // Fig 2 line 20: y := add x 2 ~ y := add a 3.
        let p = Assertion::new();
        let s = add_inst(2, 1, 2);
        let t = add_inst(2, 0, 3);
        let q = calc_post_cmd(&p, Some(&s), Some(&t));
        assert!(q.in_maydiff(&TReg::Phy(r(2))));
    }

    #[test]
    fn operand_in_maydiff_blocks_reduction() {
        let mut p = Assertion::new();
        p.add_maydiff(TReg::Phy(r(0)));
        let s = add_inst(1, 0, 1);
        let q = calc_post_cmd(&p, Some(&s), Some(&s));
        // Same instruction but its operand may differ: stays in maydiff.
        assert!(q.in_maydiff(&TReg::Phy(r(1))));
    }

    #[test]
    fn definition_kills_stale_facts() {
        let mut p = Assertion::new();
        p.src.insert_lessdef(
            Expr::value(TValue::phy(r(1))),
            Expr::value(TValue::int(Type::I32, 5)),
        );
        let s = add_inst(1, 0, 1);
        let q = calc_post_cmd(&p, Some(&s), Some(&s));
        assert!(!q.src.has_lessdef(
            &Expr::value(TValue::phy(r(1))),
            &Expr::value(TValue::int(Type::I32, 5))
        ));
    }

    #[test]
    fn store_clobbers_aliasing_loads_only() {
        let mut p = Assertion::new();
        p.src.insert(Pred::Uniq(r(0)));
        let lp = Expr::load(Type::I32, TValue::phy(r(0)));
        let lq = Expr::load(Type::I32, TValue::phy(r(1)));
        p.src
            .insert_lessdef(lp.clone(), Expr::value(TValue::int(Type::I32, 42)));
        p.src
            .insert_lessdef(lq.clone(), Expr::value(TValue::int(Type::I32, 7)));
        // Store through an unrelated pointer r2.
        let st = stmt(
            None,
            Inst::Store {
                ty: Type::I32,
                val: Value::int(Type::I32, 0),
                ptr: Value::Reg(r(2)),
            },
        );
        let q = calc_post_cmd(&p, Some(&st), None);
        // *r0 survives (Uniq ⇒ disjoint from r2); *r1 is clobbered.
        assert!(q
            .src
            .has_lessdef(&lp, &Expr::value(TValue::int(Type::I32, 42))));
        assert!(!q
            .src
            .has_lessdef(&lq, &Expr::value(TValue::int(Type::I32, 7))));
    }

    #[test]
    fn store_records_stored_value() {
        let p = Assertion::new();
        let st = stmt(
            None,
            Inst::Store {
                ty: Type::I32,
                val: Value::Reg(r(1)),
                ptr: Value::Reg(r(0)),
            },
        );
        let q = calc_post_cmd(&p, Some(&st), None);
        assert!(q.src.has_lessdef(
            &Expr::load(Type::I32, TValue::phy(r(0))),
            &Expr::value(TValue::phy(r(1)))
        ));
    }

    #[test]
    fn call_clobbers_public_loads_keeps_private() {
        let mut p = Assertion::new();
        p.src.insert(Pred::Priv(TReg::Phy(r(0))));
        let lp = Expr::load(Type::I32, TValue::phy(r(0)));
        let lq = Expr::load(Type::I32, TValue::phy(r(1)));
        p.src
            .insert_lessdef(lp.clone(), Expr::value(TValue::int(Type::I32, 1)));
        p.src
            .insert_lessdef(lq.clone(), Expr::value(TValue::int(Type::I32, 2)));
        let call = stmt(
            None,
            Inst::Call {
                ret: None,
                callee: "f".into(),
                args: vec![],
            },
        );
        let q = calc_post_cmd(&p, Some(&call), Some(&call));
        assert!(q
            .src
            .has_lessdef(&lp, &Expr::value(TValue::int(Type::I32, 1))));
        assert!(!q
            .src
            .has_lessdef(&lq, &Expr::value(TValue::int(Type::I32, 2))));
    }

    #[test]
    fn leaking_a_pointer_kills_uniq() {
        let mut p = Assertion::new();
        p.src.insert(Pred::Uniq(r(0)));
        // Loading through r0 does NOT leak it…
        let ld = stmt(
            Some(r(5)),
            Inst::Load {
                ty: Type::I32,
                ptr: Value::Reg(r(0)),
            },
        );
        let q = calc_post_cmd(&p, Some(&ld), None);
        assert!(q.src.has_uniq(r(0)));
        // …but passing it to a call does.
        let call = stmt(
            None,
            Inst::Call {
                ret: None,
                callee: "f".into(),
                args: vec![(Type::Ptr, Value::Reg(r(0)))],
            },
        );
        let q = calc_post_cmd(&p, Some(&call), None);
        assert!(!q.src.has_uniq(r(0)));
        // …and so does storing the pointer itself somewhere.
        let st = stmt(
            None,
            Inst::Store {
                ty: Type::Ptr,
                val: Value::Reg(r(0)),
                ptr: Value::Reg(r(1)),
            },
        );
        let q = calc_post_cmd(&p, Some(&st), None);
        assert!(!q.src.has_uniq(r(0)));
    }

    #[test]
    fn promoted_alloca_becomes_uniq_and_priv() {
        let p = Assertion::new();
        let al = stmt(
            Some(r(0)),
            Inst::Alloca {
                ty: Type::I32,
                count: 1,
            },
        );
        let q = calc_post_cmd(&p, Some(&al), None);
        assert!(q.src.has_uniq(r(0)));
        assert!(q.src.has_priv(&TReg::Phy(r(0))));
        assert!(q.in_maydiff(&TReg::Phy(r(0))));
        // Content is undef.
        assert!(q.src.has_lessdef(
            &Expr::load(Type::I32, TValue::phy(r(0))),
            &Expr::undef(Type::I32)
        ));
    }

    #[test]
    fn matched_allocas_stay_equal() {
        let p = Assertion::new();
        let al = stmt(
            Some(r(0)),
            Inst::Alloca {
                ty: Type::I32,
                count: 1,
            },
        );
        let q = calc_post_cmd(&p, Some(&al), Some(&al));
        assert!(!q.in_maydiff(&TReg::Phy(r(0))));
        assert!(q.src.has_uniq(r(0)));
        assert!(q.tgt.has_uniq(r(0)));
    }

    #[test]
    fn phi_post_simultaneous_swap() {
        // Paper §4: z := φ(…, y), w := φ(…, z) coming from the loop body.
        // Source and target here both have {z ← y_old, w ← z_old}, so both
        // stay out of maydiff.
        let from = BlockId::from_index(1);
        let phis = vec![
            (
                r(0),
                Phi {
                    ty: Type::I32,
                    incoming: vec![(from, Some(Value::Reg(r(1))))],
                },
            ),
            (
                r(2),
                Phi {
                    ty: Type::I32,
                    incoming: vec![(from, Some(Value::Reg(r(0))))],
                },
            ),
        ];
        let p = Assertion::new();
        let q = calc_post_phi(&p, &phis, &phis, from);
        assert!(!q.in_maydiff(&TReg::Phy(r(0))));
        assert!(!q.in_maydiff(&TReg::Phy(r(2))));
        // w (= r2) is pinned to the OLD z, not the new one.
        assert!(q.src.has_lessdef(
            &Expr::value(TValue::phy(r(2))),
            &Expr::value(TValue::old(r(0)))
        ));
    }

    #[test]
    fn phi_post_differing_sides_enter_maydiff() {
        let from = BlockId::from_index(0);
        let src_phis = vec![(
            r(0),
            Phi {
                ty: Type::I32,
                incoming: vec![(from, Some(Value::Reg(r(1))))],
            },
        )];
        let tgt_phis = vec![(
            r(0),
            Phi {
                ty: Type::I32,
                incoming: vec![(from, Some(Value::int(Type::I32, 3)))],
            },
        )];
        let q = calc_post_phi(&Assertion::new(), &src_phis, &tgt_phis, from);
        assert!(q.in_maydiff(&TReg::Phy(r(0))));
    }

    #[test]
    fn phi_post_copies_facts_to_old_registers() {
        let from = BlockId::from_index(0);
        let mut p = Assertion::new();
        p.src.insert_lessdef(
            Expr::value(TValue::phy(r(1))),
            Expr::bin(
                BinOp::Add,
                Type::I32,
                TValue::phy(r(0)),
                TValue::int(Type::I32, 1),
            ),
        );
        let q = calc_post_phi(&p, &[], &[], from);
        assert!(q.src.has_lessdef(
            &Expr::value(TValue::old(r(1))),
            &Expr::bin(
                BinOp::Add,
                Type::I32,
                TValue::old(r(0)),
                TValue::int(Type::I32, 1)
            )
        ));
        // The original (current-register) fact is retained too.
        assert!(q.src.has_lessdef(
            &Expr::value(TValue::phy(r(1))),
            &Expr::bin(
                BinOp::Add,
                Type::I32,
                TValue::phy(r(0)),
                TValue::int(Type::I32, 1)
            )
        ));
    }

    #[test]
    fn phi_post_clears_stale_old_facts_and_extends_maydiff() {
        let from = BlockId::from_index(0);
        let mut p = Assertion::new();
        p.src.insert_lessdef(
            Expr::value(TValue::old(r(9))),
            Expr::value(TValue::int(Type::I32, 5)),
        );
        p.add_maydiff(TReg::Phy(r(3)));
        p.add_maydiff(TReg::Old(r(4)));
        let q = calc_post_phi(&p, &[], &[], from);
        assert!(!q.src.has_lessdef(
            &Expr::value(TValue::old(r(9))),
            &Expr::value(TValue::int(Type::I32, 5))
        ));
        assert!(q.in_maydiff(&TReg::Phy(r(3))));
        assert!(q.in_maydiff(&TReg::Old(r(3))));
        assert!(!q.in_maydiff(&TReg::Old(r(4))));
    }

    #[test]
    fn undef_content_of_alloca() {
        let p = Assertion::new();
        let al = stmt(
            Some(r(0)),
            Inst::Alloca {
                ty: Type::I64,
                count: 2,
            },
        );
        let q = calc_post_cmd(&p, Some(&al), Some(&al));
        let _ = Const::Undef(Type::I64);
        assert!(q.tgt.has_lessdef(
            &Expr::load(Type::I64, TValue::phy(r(0))),
            &Expr::undef(Type::I64)
        ));
    }
}
