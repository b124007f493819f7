//! Proof objects: aligned programs, assertion maps, inference-rule maps.
//!
//! A [`ProofUnit`] packages one function's translation together with its
//! ERHL proof:
//!
//! * the source and target functions (same CFG — CheckCFG enforces this);
//! * a per-block *alignment* inserting logical no-ops (`lnop`, paper §3.2)
//!   so the two instruction streams have equal length;
//! * an assertion for every program point ("slot");
//! * inference rules attached to rows and CFG edges;
//! * the set of enabled automation functions.
//!
//! [`ProofBuilder`] is the proof-generation API used by the passes: it
//! mirrors the paper's `Assn`/`Inf`/`Auto`/`Remove`/`Nop`/`Replace`
//! primitives (Algorithms 1–3) and resolves ranged assertions to concrete
//! slots with the §E program-points-between-two-lines computation.

use crate::assertion::{Assertion, Pred, RegSet};
use crate::auto::AutoKind;
use crate::expr::{Side, TReg};
use crate::infrule::InfRule;
use crellvm_ir::{Cfg, DomTree, Function, Inst, Phi, RegId, Stmt, Term, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The shape of one aligned row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowShape {
    /// Both sides execute an instruction.
    Both,
    /// Only the source executes; the target runs `lnop`.
    SrcOnly,
    /// Only the target executes; the source runs `lnop`.
    TgtOnly,
}

/// One side of an aligned row: a real statement or a logical no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaybeInst<'a> {
    /// A real statement.
    Inst(&'a Stmt),
    /// A logical no-op.
    Lnop,
}

impl MaybeInst<'_> {
    /// The statement, if real.
    pub fn stmt(&self) -> Option<&Stmt> {
        match self {
            MaybeInst::Inst(s) => Some(s),
            MaybeInst::Lnop => None,
        }
    }

    /// The defined register, if any.
    pub fn def(&self) -> Option<RegId> {
        self.stmt().and_then(|s| s.result)
    }
}

/// A program point: the assertion slot `slot` of block `block`.
///
/// Slot `0` is immediately after the block's phi-nodes; slot `i + 1` is
/// immediately after aligned row `i`; the last slot is immediately before
/// the terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotId {
    /// Block index.
    pub block: u32,
    /// Slot index within the block (`0..=row_count`).
    pub slot: u32,
}

impl SlotId {
    /// Construct from raw parts.
    pub fn new(block: usize, slot: usize) -> SlotId {
        SlotId {
            block: block as u32,
            slot: slot as u32,
        }
    }
}

/// Where inference rules may be attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RulePos {
    /// After computing the post-assertion of row `row` in `block`.
    AfterRow {
        /// Block index.
        block: u32,
        /// Row index.
        row: u32,
    },
    /// On the CFG edge `from → to`, after the phi post-assertion.
    Edge {
        /// Source block index.
        from: u32,
        /// Destination block index.
        to: u32,
    },
}

/// A self-contained translation proof for one function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProofUnit {
    /// Name of the pass that produced this translation.
    pub pass: String,
    /// The source function.
    pub src: Function,
    /// The target function.
    pub tgt: Function,
    /// Per-block row shapes (`alignment[b]` has one entry per aligned row).
    pub alignment: Vec<Vec<RowShape>>,
    /// The assertion at every slot (total map). Slots that hold the same
    /// assertion may share one `Arc`: most program points of a proof hold
    /// the same one.
    pub assertions: BTreeMap<SlotId, Arc<Assertion>>,
    /// Inference rules attached to rows/edges.
    pub infrules: BTreeMap<RulePos, Vec<InfRule>>,
    /// Enabled automation functions.
    pub autos: BTreeSet<AutoKind>,
    /// Set when proof generation could not cover the translation
    /// (the paper's #NS outcome); contains the reason.
    pub not_supported: Option<String>,
}

impl ProofUnit {
    /// Number of aligned rows in block `b`.
    pub fn row_count(&self, b: usize) -> usize {
        self.alignment[b].len()
    }

    /// The `(source, target)` instruction pair of row `row` in block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the alignment is inconsistent with the functions — the
    /// checker validates consistency before iterating rows.
    pub fn row(&self, b: usize, row: usize) -> (MaybeInst<'_>, MaybeInst<'_>) {
        let mut src_i = 0usize;
        let mut tgt_i = 0usize;
        for (i, shape) in self.alignment[b].iter().enumerate() {
            let (s, t) = match shape {
                RowShape::Both => (Some(src_i), Some(tgt_i)),
                RowShape::SrcOnly => (Some(src_i), None),
                RowShape::TgtOnly => (None, Some(tgt_i)),
            };
            if i == row {
                let src = match s {
                    Some(i) => MaybeInst::Inst(&self.src.blocks[b].stmts[i]),
                    None => MaybeInst::Lnop,
                };
                let tgt = match t {
                    Some(i) => MaybeInst::Inst(&self.tgt.blocks[b].stmts[i]),
                    None => MaybeInst::Lnop,
                };
                return (src, tgt);
            }
            if s.is_some() {
                src_i += 1;
            }
            if t.is_some() {
                tgt_i += 1;
            }
        }
        panic!("row {row} out of range in block {b}");
    }

    /// The assertion at a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is absent (assertion maps are total by
    /// construction).
    pub fn assertion(&self, s: SlotId) -> &Assertion {
        self.assertions
            .get(&s)
            .expect("assertion map must be total")
            .as_ref()
    }

    /// Rules attached at a position (empty slice if none).
    pub fn rules_at(&self, p: RulePos) -> &[InfRule] {
        self.infrules.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A location in the *row* coordinate system used by proof generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The start of a block (slot 0, after the phis).
    Start(usize),
    /// Immediately after row `1` of block `0`.
    AfterRow(usize, usize),
    /// The end of a block (before the terminator).
    End(usize),
}

/// A ranged assertion request (`Assn(P, l1, l2)` in the paper).
#[derive(Debug, Clone)]
struct RangeReq {
    side: Side,
    pred: Pred,
    from: Loc,
    to: Loc,
}

/// Builder used by proof-generating passes.
///
/// Owns the target function under construction (initially a clone of the
/// source) and records alignment edits, assertions, and rules.
#[derive(Debug)]
pub struct ProofBuilder {
    pass: String,
    src: Function,
    tgt: Function,
    /// `rows[b]` — shapes; `Both` rows map to src stmt indices in order.
    rows: Vec<Vec<RowShape>>,
    global_src: Vec<Pred>,
    global_tgt: Vec<Pred>,
    global_maydiff: RegSet,
    ranges: Vec<RangeReq>,
    infrules: BTreeMap<RulePos, Vec<InfRule>>,
    autos: BTreeSet<AutoKind>,
    not_supported: Option<String>,
    recording: bool,
}

impl ProofBuilder {
    /// Start a proof for a pass translating `src`.
    pub fn new(pass: impl Into<String>, src: &Function) -> ProofBuilder {
        let rows = src
            .blocks
            .iter()
            .map(|b| vec![RowShape::Both; b.stmts.len()])
            .collect();
        ProofBuilder {
            pass: pass.into(),
            src: src.clone(),
            tgt: src.clone(),
            rows,
            global_src: Vec::new(),
            global_tgt: Vec::new(),
            global_maydiff: RegSet::new(),
            ranges: Vec::new(),
            infrules: BTreeMap::new(),
            autos: BTreeSet::new(),
            not_supported: None,
            recording: true,
        }
    }

    /// Switch proof recording off (or back on).
    ///
    /// With recording off the target-editing methods still apply (the pass
    /// transforms code as usual), but assertions, inference rules, and
    /// automation hints are dropped and [`finish`](Self::finish) skips
    /// assertion materialization entirely, returning a unit marked
    /// not-supported. This is what makes the paper's `Orig` time column
    /// honest: a pass run with recording off does no proof work at all.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The source function.
    pub fn src(&self) -> &Function {
        &self.src
    }

    /// The target function under construction.
    pub fn tgt(&self) -> &Function {
        &self.tgt
    }

    /// Mutable access to the target (for pass-specific surgery; prefer the
    /// dedicated edit methods, which keep the alignment in sync).
    pub fn tgt_mut(&mut self) -> &mut Function {
        &mut self.tgt
    }

    /// Create a fresh register in the shared id space.
    pub fn fresh_reg(&mut self, base: &str) -> RegId {
        // Keep src and tgt id spaces aligned: allocate in both.
        let r = self.tgt.fresh_reg(base);
        let r2 = self.src.fresh_reg(base);
        debug_assert_eq!(r, r2);
        r
    }

    /// Map a source statement index to its current target statement index
    /// within block `b` (ignoring rows where the target is lnop).
    fn tgt_index_of(&self, b: usize, src_idx: usize) -> Option<usize> {
        let mut s = 0usize;
        let mut t = 0usize;
        for shape in &self.rows[b] {
            match shape {
                RowShape::Both => {
                    if s == src_idx {
                        return Some(t);
                    }
                    s += 1;
                    t += 1;
                }
                RowShape::SrcOnly => {
                    if s == src_idx {
                        return None;
                    }
                    s += 1;
                }
                RowShape::TgtOnly => t += 1,
            }
        }
        None
    }

    /// Row index corresponding to source statement `src_idx` of block `b`.
    pub fn row_of_src(&self, b: usize, src_idx: usize) -> usize {
        let mut s = 0usize;
        for (i, shape) in self.rows[b].iter().enumerate() {
            match shape {
                RowShape::Both | RowShape::SrcOnly => {
                    if s == src_idx {
                        return i;
                    }
                    s += 1;
                }
                RowShape::TgtOnly => {}
            }
        }
        panic!("source statement {src_idx} out of range in block {b}");
    }

    /// Row index corresponding to *target* statement `tgt_idx` of block `b`.
    pub fn row_of_tgt(&self, b: usize, tgt_idx: usize) -> usize {
        let mut t = 0usize;
        for (i, shape) in self.rows[b].iter().enumerate() {
            match shape {
                RowShape::Both | RowShape::TgtOnly => {
                    if t == tgt_idx {
                        return i;
                    }
                    t += 1;
                }
                RowShape::SrcOnly => {}
            }
        }
        panic!("target statement {tgt_idx} out of range in block {b}");
    }

    /// `Remove(l) + Nop(l, tgt)`: delete the target instruction aligned
    /// with source statement `src_idx` of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the row was already deleted.
    pub fn delete_tgt(&mut self, b: usize, src_idx: usize) {
        let t = self
            .tgt_index_of(b, src_idx)
            .expect("delete_tgt: row already deleted");
        self.tgt.blocks[b].stmts.remove(t);
        let row = self.row_of_src(b, src_idx);
        self.rows[b][row] = RowShape::SrcOnly;
    }

    /// `ReplaceAt`: replace the target instruction aligned with source
    /// statement `src_idx` (result register unchanged).
    pub fn replace_tgt(&mut self, b: usize, src_idx: usize, inst: Inst) {
        let t = self
            .tgt_index_of(b, src_idx)
            .expect("replace_tgt: row deleted");
        self.tgt.blocks[b].stmts[t].inst = inst;
    }

    /// Append a target-only statement at the end of block `b` (before the
    /// terminator). Returns the new row index.
    pub fn append_tgt(&mut self, b: usize, stmt: Stmt) -> usize {
        self.tgt.blocks[b].stmts.push(stmt);
        self.rows[b].push(RowShape::TgtOnly);
        self.rows[b].len() - 1
    }

    /// Add a phi-node to the target block `b`.
    pub fn add_tgt_phi(&mut self, b: usize, reg: RegId, phi: Phi) {
        self.tgt.blocks[b].phis.push((reg, phi));
    }

    /// Replace every use of `from` with `to` in the target function.
    pub fn replace_tgt_uses(&mut self, from: RegId, to: &Value) -> usize {
        self.tgt.replace_all_uses(from, to)
    }

    /// Replace the target terminator of block `b`.
    pub fn set_tgt_term(&mut self, b: usize, term: Term) {
        self.tgt.blocks[b].term = term;
    }

    /// Add a predicate to one side at **every** slot (the paper's
    /// `Assn(…, global)`).
    pub fn global_pred(&mut self, side: Side, pred: Pred) {
        if !self.recording {
            return;
        }
        match side {
            Side::Src => self.global_src.push(pred),
            Side::Tgt => self.global_tgt.push(pred),
        }
    }

    /// Add a register to the maydiff set at every slot.
    pub fn global_maydiff(&mut self, r: impl Into<TReg>) {
        if !self.recording {
            return;
        }
        self.global_maydiff.insert(r.into());
    }

    /// `Assn(pred, l1, l2)`: add `pred` at every program point on a path
    /// from `l1` to `l2` that does not revisit `l1` (paper §E).
    pub fn range_pred(&mut self, side: Side, pred: Pred, from: Loc, to: Loc) {
        if !self.recording {
            return;
        }
        self.ranges.push(RangeReq {
            side,
            pred,
            from,
            to,
        });
    }

    /// `Inf(rule, after row)`: attach a rule after the row aligned with
    /// source statement `src_idx` of block `b`.
    pub fn infrule_after_src(&mut self, b: usize, src_idx: usize, rule: InfRule) {
        let row = self.row_of_src(b, src_idx);
        self.infrule_after_row(b, row, rule);
    }

    /// Attach a rule after an explicit row index.
    pub fn infrule_after_row(&mut self, b: usize, row: usize, rule: InfRule) {
        if !self.recording {
            return;
        }
        self.infrules
            .entry(RulePos::AfterRow {
                block: b as u32,
                row: row as u32,
            })
            .or_default()
            .push(rule);
    }

    /// Attach a rule on the edge `from → to`.
    pub fn infrule_edge(&mut self, from: usize, to: usize, rule: InfRule) {
        if !self.recording {
            return;
        }
        self.infrules
            .entry(RulePos::Edge {
                from: from as u32,
                to: to as u32,
            })
            .or_default()
            .push(rule);
    }

    /// `Auto(kind)`: enable an automation function.
    pub fn auto(&mut self, kind: AutoKind) {
        if !self.recording {
            return;
        }
        self.autos.insert(kind);
    }

    /// Mark the translation as not supported (#NS) with a reason.
    pub fn mark_not_supported(&mut self, reason: impl Into<String>) {
        if self.not_supported.is_none() {
            self.not_supported = Some(reason.into());
        }
    }

    fn loc_slots(&self, loc: Loc, end_slot: &[usize]) -> (usize, usize) {
        match loc {
            Loc::Start(b) => (b, 0),
            Loc::AfterRow(b, r) => (b, r + 1),
            Loc::End(b) => (b, end_slot[b]),
        }
    }

    /// §E: the set of slots strictly between `from` and `to` (inclusive of
    /// both slot endpoints) along paths that do not revisit `from`.
    fn points_between(
        &self,
        cfg: &Cfg,
        dom: &DomTree,
        from: (usize, usize),
        to: (usize, usize),
    ) -> Vec<SlotId> {
        let (b1, s1) = from;
        let (b2, s2) = to;
        let nrows = |b: usize| self.rows[b].len();
        let mut out = Vec::new();
        let bid = crellvm_ir::BlockId::from_index;

        if b1 == b2 && s1 <= s2 {
            for s in s1..=s2 {
                out.push(SlotId::new(b1, s));
            }
            return out;
        }

        // Slots after `from` in its own block.
        for s in s1..=nrows(b1) {
            out.push(SlotId::new(b1, s));
        }
        // Intermediate blocks: dominated by b1, reaching b2 while avoiding b1.
        let reach = cfg.reaches_avoiding(bid(b2), bid(b1));
        for b in 0..self.rows.len() {
            if b == b1 || b == b2 {
                continue;
            }
            if dom.strictly_dominates(bid(b1), bid(b)) && reach.contains(&bid(b)) {
                for s in 0..=nrows(b) {
                    out.push(SlotId::new(b, s));
                }
            }
        }
        if b1 == b2 {
            // Backward (loop-carried) range: also the prefix of the block.
            for s in 0..=s2 {
                out.push(SlotId::new(b1, s));
            }
            return out;
        }
        // Slots up to `to` in its block.
        for s in 0..=s2 {
            out.push(SlotId::new(b2, s));
        }
        // If b2 lies on a cycle avoiding b1 (it can reach one of its own
        // predecessors), its suffix slots are also on qualifying paths.
        let b2_on_cycle = cfg
            .preds(bid(b2))
            .iter()
            .any(|p| *p != bid(b1) && cfg.reaches_avoiding(*p, bid(b1)).contains(&bid(b2)));
        if b2_on_cycle {
            for s in s2 + 1..=nrows(b2) {
                out.push(SlotId::new(b2, s));
            }
        }
        out
    }

    /// Finish: resolve ranges and produce the [`ProofUnit`].
    ///
    /// A slot's assertion is the global part plus the predicates of the
    /// range requests covering it, so slots with the same covering set
    /// share one assertion, built once.
    pub fn finish(self) -> ProofUnit {
        if !self.recording {
            // No proof was recorded: skip assertion materialization (the
            // expensive part of proof calculation) and return a unit that
            // validates as not-supported rather than spuriously failing.
            return ProofUnit {
                pass: self.pass,
                src: self.src,
                tgt: self.tgt,
                alignment: self.rows,
                assertions: BTreeMap::new(),
                infrules: BTreeMap::new(),
                autos: BTreeSet::new(),
                not_supported: Some(
                    self.not_supported
                        .unwrap_or_else(|| "proof generation disabled".into()),
                ),
            };
        }
        let cfg = Cfg::new(&self.src);
        let dom = DomTree::new(&self.src, &cfg);
        let end_slot: Vec<usize> = self.rows.iter().map(Vec::len).collect();

        let mut base = Assertion::new();
        for p in &self.global_src {
            base.src.insert(p.clone());
        }
        for p in &self.global_tgt {
            base.tgt.insert(p.clone());
        }
        base.maydiff = self.global_maydiff.clone();

        // Each slot's covering requests, by index in request order.
        let mut covering: BTreeMap<SlotId, Vec<usize>> = BTreeMap::new();
        for (b, rows) in self.rows.iter().enumerate() {
            for s in 0..=rows.len() {
                covering.insert(SlotId::new(b, s), Vec::new());
            }
        }
        for (i, req) in self.ranges.iter().enumerate() {
            let from = self.loc_slots(req.from, &end_slot);
            let to = self.loc_slots(req.to, &end_slot);
            for slot in self.points_between(&cfg, &dom, from, to) {
                covering.get_mut(&slot).expect("slot exists").push(i);
            }
        }
        let mut shared: BTreeMap<Vec<usize>, Arc<Assertion>> = BTreeMap::new();
        let assertions = covering
            .into_iter()
            .map(|(slot, reqs)| {
                let a = shared.entry(reqs).or_insert_with_key(|reqs| {
                    let mut a = base.clone();
                    for req in reqs.iter().map(|&i| &self.ranges[i]) {
                        a.side_mut(req.side).insert(req.pred.clone());
                    }
                    Arc::new(a)
                });
                (slot, Arc::clone(a))
            })
            .collect();

        ProofUnit {
            pass: self.pass,
            src: self.src,
            tgt: self.tgt,
            alignment: self.rows,
            assertions,
            infrules: self.infrules,
            autos: self.autos,
            not_supported: self.not_supported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, TValue};
    use crellvm_ir::{parse_module, BinOp, Type};

    fn sample_src() -> Function {
        parse_module(
            r#"
            declare @print(i32)
            define @f(i32 %n, i1 %c) {
            entry:
              %x = add i32 %n, 1
              %y = add i32 %x, 2
              call void @print(i32 %y)
              br i1 %c, label left, label exit
            left:
              %z = add i32 %y, 3
              br label exit
            exit:
              call void @print(i32 %n)
              ret void
            }
            "#,
        )
        .unwrap()
        .functions
        .remove(0)
    }

    #[test]
    fn delete_and_replace_keep_alignment_consistent() {
        let f = sample_src();
        let mut b = ProofBuilder::new("test", &f);
        // Delete %x (stmt 0 of entry), replace %y's computation.
        b.delete_tgt(0, 0);
        b.replace_tgt(
            0,
            1,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::int(Type::I32, 0),
                rhs: Value::int(Type::I32, 3),
            },
        );
        let unit = b.finish();
        assert_eq!(
            unit.alignment[0],
            vec![RowShape::SrcOnly, RowShape::Both, RowShape::Both]
        );
        let (s, t) = unit.row(0, 0);
        assert!(s.stmt().is_some());
        assert_eq!(t, MaybeInst::Lnop);
        let (_, t1) = unit.row(0, 1);
        assert!(matches!(t1.stmt().unwrap().inst, Inst::Bin { .. }));
        // Target function actually lost a statement.
        assert_eq!(unit.tgt.blocks[0].stmts.len(), 2);
        assert_eq!(unit.src.blocks[0].stmts.len(), 3);
    }

    #[test]
    fn append_tgt_adds_tgt_only_row() {
        let f = sample_src();
        let mut b = ProofBuilder::new("test", &f);
        let r = b.fresh_reg("h");
        b.append_tgt(
            1,
            Stmt {
                result: Some(r),
                inst: Inst::Bin {
                    op: BinOp::Add,
                    ty: Type::I32,
                    lhs: Value::int(Type::I32, 1),
                    rhs: Value::int(Type::I32, 2),
                },
            },
        );
        let unit = b.finish();
        assert_eq!(unit.alignment[1], vec![RowShape::Both, RowShape::TgtOnly]);
        let (s, t) = unit.row(1, 1);
        assert_eq!(s, MaybeInst::Lnop);
        assert_eq!(t.def(), Some(r));
    }

    #[test]
    fn ranged_assertion_same_block() {
        let f = sample_src();
        assert!(f.block_by_name("entry").is_some());
        let mut b = ProofBuilder::new("test", &f);
        let pred = Pred::Lessdef(
            Expr::value(TValue::ghost("g")),
            Expr::value(TValue::int(Type::I32, 1)),
        );
        // From after stmt 0 to before stmt 2 in entry.
        b.range_pred(
            Side::Src,
            pred.clone(),
            Loc::AfterRow(0, 0),
            Loc::AfterRow(0, 1),
        );
        let unit = b.finish();
        assert!(!unit.assertion(SlotId::new(0, 0)).src.holds(&pred));
        assert!(unit.assertion(SlotId::new(0, 1)).src.holds(&pred));
        assert!(unit.assertion(SlotId::new(0, 2)).src.holds(&pred));
        assert!(!unit.assertion(SlotId::new(0, 3)).src.holds(&pred));
    }

    #[test]
    fn ranged_assertion_cross_block() {
        let f = sample_src();
        let mut b = ProofBuilder::new("test", &f);
        let pred = Pred::Uniq(RegId::from_index(0));
        // From after entry stmt 1 to start of exit: must cover the end of
        // entry, all of `left` (an intermediate block), and slot 0 of exit.
        b.range_pred(Side::Src, pred.clone(), Loc::AfterRow(0, 1), Loc::Start(2));
        let unit = b.finish();
        assert!(unit.assertion(SlotId::new(0, 2)).src.holds(&pred));
        assert!(unit.assertion(SlotId::new(0, 3)).src.holds(&pred)); // entry end
        assert!(unit.assertion(SlotId::new(1, 0)).src.holds(&pred)); // left
        assert!(unit.assertion(SlotId::new(1, 1)).src.holds(&pred));
        assert!(unit.assertion(SlotId::new(2, 0)).src.holds(&pred)); // exit start
        assert!(!unit.assertion(SlotId::new(2, 1)).src.holds(&pred));
        assert!(!unit.assertion(SlotId::new(0, 0)).src.holds(&pred));
    }

    #[test]
    fn global_preds_cover_every_slot() {
        let f = sample_src();
        let mut b = ProofBuilder::new("test", &f);
        b.global_pred(Side::Src, Pred::Uniq(RegId::from_index(5)));
        b.global_maydiff(TReg::ghost("v"));
        let unit = b.finish();
        for (_, a) in unit.assertions.iter() {
            assert!(a.src.has_uniq(RegId::from_index(5)));
            assert!(a.in_maydiff(&TReg::ghost("v")));
        }
    }

    #[test]
    fn loop_backward_range_covers_wraparound() {
        let m = parse_module(
            r#"
            declare @print(i32)
            define @f(i32 %n) {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              call void @print(i32 %i)
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, %n
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#,
        )
        .unwrap();
        let f = m.functions[0].clone();
        let mut b = ProofBuilder::new("test", &f);
        let pred = Pred::Uniq(RegId::from_index(9));
        // From after %i2 (stmt 1 of loop) wrapping around to before the
        // call (stmt 0): covers end of loop and slots 0..=1.
        b.range_pred(
            Side::Src,
            pred.clone(),
            Loc::AfterRow(1, 1),
            Loc::AfterRow(1, 0),
        );
        let unit = b.finish();
        assert!(unit.assertion(SlotId::new(1, 2)).src.holds(&pred));
        assert!(unit.assertion(SlotId::new(1, 3)).src.holds(&pred)); // loop end
        assert!(unit.assertion(SlotId::new(1, 0)).src.holds(&pred)); // wrap
        assert!(unit.assertion(SlotId::new(1, 1)).src.holds(&pred));
        assert!(!unit.assertion(SlotId::new(2, 0)).src.holds(&pred)); // exit untouched
    }

    #[test]
    fn fresh_reg_keeps_id_spaces_aligned() {
        let f = sample_src();
        let mut b = ProofBuilder::new("test", &f);
        let r1 = b.fresh_reg("t");
        assert_eq!(b.src().reg_count(), b.tgt().reg_count());
        assert_eq!(r1.index(), b.src().reg_count() - 1);
    }
}
