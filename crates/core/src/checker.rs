//! The ERHL proof checker (paper Fig 4 and §5).
//!
//! [`validate`] deduces `src ∼ tgt` for a [`ProofUnit`] by:
//!
//! 1. `CheckCFG` — identical block structure, parameters, and terminator
//!    shapes (plus alignment consistency);
//! 2. `CheckInit` — the entry assertion holds in all initial states;
//! 3. for every aligned row, `CheckEquivBeh` + `CalcPostAssn` + the
//!    proof's inference rules (+ automation) + `CheckIncl`;
//! 4. for every CFG edge, the phi post-assertion (+ rules/automation) +
//!    `CheckIncl`, and equivalence of the branch condition / returned
//!    value at the terminator.
//!
//! On failure the checker reports *where* and *why* — the property the
//! paper highlights for debugging miscompilations ("a logical reason for
//! the failure").

// `ValidationError` carries forensic context (rule history, the failing
// assertion) and is deliberately large; it only exists on the cold
// rejection path, where its size is irrelevant.
#![allow(clippy::result_large_err)]

use crate::assertion::{Assertion, Pred};
use crate::auto::run_auto;
use crate::equivbeh::check_equiv_beh;
use crate::expr::{TReg, TValue};
use crate::infrule::{apply_inf_owned, CheckerConfig, InfRule};
use crate::postcond::{calc_post_cmd, calc_post_phi};
use crate::proof::{ProofUnit, RulePos, SlotId};
use crellvm_ir::{RegId, Term, Value};
use crellvm_telemetry::{Event, Telemetry};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A successful validation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The translation is validated: `Beh(src) ⊇ Beh(tgt)`.
    Valid,
    /// The proof generator marked this translation as not supported (the
    /// paper's #NS outcome); the reason is attached.
    NotSupported(String),
}

/// Number of recently applied inference rules kept for forensics.
pub const RULE_HISTORY_CAP: usize = 16;

/// A validation failure: where and why, plus the forensic context the
/// provenance layer packages into replayable bundles — the last-K applied
/// inference rules and the rendered `have ⇏ want` assertion pair at the
/// failure point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Function name.
    pub func: String,
    /// The pass that produced the unit.
    pub pass: String,
    /// Position description (block/row/edge).
    pub at: String,
    /// The logical reason.
    pub reason: String,
    /// The last applied inference rules (at most [`RULE_HISTORY_CAP`]),
    /// oldest first, each as `<rule> @ <position>`.
    pub rule_history: Vec<String>,
    /// `have:`/`want:` rendering of the assertion pair whose inclusion (or
    /// rule application) failed, when the failure happened in a discharge.
    pub failing_assertion: Option<String>,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "validation of @{} ({}) failed at {}: {}",
            self.func, self.pass, self.at, self.reason
        )
    }
}

impl std::error::Error for ValidationError {}

/// Where a proof command sits in its unit. Rendered to text (see
/// [`Ctx::describe`]) only for a [`ValidationError`] or an open span, so
/// the success path formats nothing.
#[derive(Clone, Copy)]
enum At {
    Row { block: usize, row: usize },
    Term(usize),
    Edge { from: usize, to: usize },
}

/// One unit's work counts, flushed to telemetry once when the unit is done
/// (see [`Ctx::flush`]).
#[derive(Default)]
struct Work {
    /// Rows checked (`checker.rows`).
    rows: u64,
    /// Predicates of each checked row's assertion
    /// (`checker.assertion_preds` observations).
    preds: Vec<u64>,
    /// Applications per inference rule (`checker.rule.<name>`), in
    /// first-application order.
    rules: Vec<(&'static str, u64)>,
}

struct Ctx<'a> {
    unit: &'a ProofUnit,
    config: &'a CheckerConfig,
    tel: &'a Telemetry,
    /// Ring of the last [`RULE_HISTORY_CAP`] applied inference rules and
    /// where each was applied, rendered into any [`ValidationError`] this
    /// unit produces.
    history: RefCell<VecDeque<(&'static str, At)>>,
    work: RefCell<Work>,
}

impl Ctx<'_> {
    fn err(&self, at: impl Into<String>, reason: impl Into<String>) -> ValidationError {
        let rule_history = self
            .history
            .borrow()
            .iter()
            .map(|&(rule, at)| format!("{rule} @ {}", self.describe(at)))
            .collect();
        ValidationError {
            func: self.unit.src.name.clone(),
            pass: self.unit.pass.clone(),
            at: at.into(),
            reason: reason.into(),
            rule_history,
            failing_assertion: None,
        }
    }

    fn block_name(&self, b: usize) -> &str {
        &self.unit.src.blocks[b].name
    }

    /// The position text of error reports and span names.
    fn describe(&self, at: At) -> String {
        match at {
            At::Row { block, row } => format!("block {}, row {row}", self.block_name(block)),
            At::Term(b) => format!("terminator of block {}", self.block_name(b)),
            At::Edge { from, to } => {
                format!("edge {} -> {}", self.block_name(from), self.block_name(to))
            }
        }
    }

    /// Record this unit's work counts: one registry update per metric, and
    /// none for a count that stayed at zero (a unit rejected at `CheckCFG`
    /// registers no `checker.rows`).
    fn flush(&self) {
        let work = self.work.take();
        if work.rows > 0 {
            self.tel.count("checker.rows", work.rows);
        }
        self.tel.observe_all("checker.assertion_preds", &work.preds);
        for (rule, n) in work.rules {
            self.tel.count(&format!("checker.rule.{rule}"), n);
        }
    }

    fn check_cfg(&self) -> Result<(), ValidationError> {
        let (src, tgt) = (&self.unit.src, &self.unit.tgt);
        if src.name != tgt.name {
            return Err(self.err("CheckCFG", "function names differ"));
        }
        if src.params != tgt.params || src.ret != tgt.ret {
            return Err(self.err("CheckCFG", "signatures differ"));
        }
        if src.blocks.len() != tgt.blocks.len() {
            return Err(self.err("CheckCFG", "block counts differ"));
        }
        if self.unit.alignment.len() != src.blocks.len() {
            return Err(self.err("CheckCFG", "alignment does not cover every block"));
        }
        for b in 0..src.blocks.len() {
            let (sb, tb) = (&src.blocks[b], &tgt.blocks[b]);
            if sb.name != tb.name {
                return Err(self.err("CheckCFG", format!("block {b} names differ")));
            }
            if sb.term.successors() != tb.term.successors() {
                return Err(self.err(
                    "CheckCFG",
                    format!("block {} branches to different targets", sb.name),
                ));
            }
            // Alignment row counts must match the statement counts.
            let rows = &self.unit.alignment[b];
            let src_rows = rows
                .iter()
                .filter(|r| !matches!(r, crate::proof::RowShape::TgtOnly))
                .count();
            let tgt_rows = rows
                .iter()
                .filter(|r| !matches!(r, crate::proof::RowShape::SrcOnly))
                .count();
            if src_rows != sb.stmts.len() || tgt_rows != tb.stmts.len() {
                return Err(self.err(
                    "CheckCFG",
                    format!(
                        "alignment of block {} is inconsistent with the code",
                        sb.name
                    ),
                ));
            }
            // Assertion map totality.
            for s in 0..=rows.len() {
                if !self.unit.assertions.contains_key(&SlotId::new(b, s)) {
                    return Err(self.err(
                        "CheckCFG",
                        format!("missing assertion at block {} slot {s}", sb.name),
                    ));
                }
            }
        }
        Ok(())
    }

    /// `CheckInit`: the entry assertion must hold in all initial states.
    fn check_init(&self) -> Result<(), ValidationError> {
        let entry = self.unit.assertion(SlotId::new(0, 0));
        let params: BTreeSet<RegId> = self.unit.src.params.iter().map(|(_, r)| *r).collect();
        let at = "CheckInit (entry assertion)";
        for (side_name, unary) in [("source", &entry.src), ("target", &entry.tgt)] {
            for pred in unary.iter() {
                match &pred {
                    Pred::Uniq(r) | Pred::Priv(crate::expr::TReg::Phy(r)) => {
                        if params.contains(r) {
                            return Err(self.err(
                                at,
                                format!(
                                    "{side_name} claims isolation of parameter {r}, which may alias anything"
                                ),
                            ));
                        }
                    }
                    Pred::Priv(_) => {
                        return Err(self.err(
                            at,
                            format!("{side_name} claims privacy of a logical register"),
                        ))
                    }
                    Pred::Lessdef(a, b) => {
                        if a != b {
                            return Err(self.err(
                                at,
                                format!("{side_name} assumes a non-trivial fact at entry: {pred}"),
                            ));
                        }
                    }
                    Pred::Noalias(..) => {
                        return Err(
                            self.err(at, format!("{side_name} assumes aliasing facts at entry"))
                        )
                    }
                }
            }
        }
        // Any maydiff set is acceptable: registers are initially equal, and
        // a larger maydiff is weaker.
        Ok(())
    }

    /// The paper's §4 cleanup: a ghost/old register may leave the maydiff
    /// set once the goal no longer mentions it — its witness can be
    /// re-chosen equal on both sides (sound because logical registers do
    /// not exist in physical states).
    fn cleanup_logical_maydiff(q: &mut Assertion, goal: &Assertion) {
        // Physical registers sort first, so the candidates are a suffix of
        // the maydiff set; one pass over the goal marks those it mentions.
        let regs = q.maydiff.as_slice();
        let logical = &regs[regs.partition_point(TReg::is_phy)..];
        let mut keep: Vec<bool> = logical.iter().map(|m| goal.maydiff.contains(m)).collect();
        if !keep.contains(&false) {
            return;
        }
        let mut mark = |r: &TReg| {
            if let Ok(i) = logical.binary_search(r) {
                keep[i] = true;
            }
        };
        goal.src.for_each_reg(&mut mark);
        goal.tgt.for_each_reg(&mut mark);
        let mut keep = std::iter::repeat_n(true, regs.len() - logical.len()).chain(keep);
        q.maydiff.retain(|_| keep.next().unwrap_or(true));
    }

    /// Close the gap `q ⇒ goal` with explicit rules then automation.
    fn discharge(
        &self,
        mut q: Assertion,
        goal: &Assertion,
        rules: &[InfRule],
        at: At,
    ) -> Result<(), ValidationError> {
        for rule in rules {
            let _g = self.rule_span(rule);
            self.count_rule(rule, at);
            q = match apply_inf_owned(rule, q, self.config) {
                Ok(next) => next,
                Err((orig, e)) => {
                    self.tel.count("checker.rule_failures", 1);
                    let mut err = self.err(self.describe(at), e.to_string());
                    err.failing_assertion = Some(format!("have: {orig}\nwant: {goal}"));
                    return Err(err);
                }
            };
        }
        Self::cleanup_logical_maydiff(&mut q, goal);
        if q.implies(goal) {
            return Ok(());
        }
        for kind in &self.unit.autos {
            for rule in run_auto(*kind, &q, goal) {
                // `apply_inf_owned` hands the assertion back untouched on
                // a failed premise, so speculative application needs no
                // defensive clone.
                let _g = self.rule_span(&rule);
                match apply_inf_owned(&rule, q, self.config) {
                    Ok(next) => {
                        self.count_rule(&rule, at);
                        q = next;
                    }
                    Err((orig, _)) => q = orig,
                }
            }
            if q.implies(goal) {
                return Ok(());
            }
        }
        let why = q
            .why_not_implies(goal)
            .unwrap_or_else(|| "inclusion check failed".into());
        let mut err = self.err(self.describe(at), why);
        err.failing_assertion = Some(format!("have: {q}\nwant: {goal}"));
        Err(err)
    }

    /// Open a causal rule span (cat `rule`) when a collector is attached:
    /// rule-granularity timing for the cost profile, nested under the
    /// enclosing proof-command span. Rule application is a pure function
    /// of the proof, so the span *structure* is identical at any thread
    /// count — only the recorded durations vary, exactly like every other
    /// span.
    fn rule_span(&self, rule: &InfRule) -> Option<crellvm_telemetry::CausalSpan> {
        self.tel
            .spanning()
            .then(|| self.tel.causal(rule.name(), "rule"))
    }

    /// Record one inference-rule application (explicit or automation-
    /// generated) under `checker.rule.<name>` — the paper's Fig 7 axis —
    /// and in the forensic rule-history ring.
    fn count_rule(&self, rule: &InfRule, at: At) {
        let name = rule.name();
        let rules = &mut self.work.borrow_mut().rules;
        match rules.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => *count += 1,
            None => rules.push((name, 1)),
        }
        let mut history = self.history.borrow_mut();
        if history.len() == RULE_HISTORY_CAP {
            history.pop_front();
        }
        history.push_back((name, at));
    }

    /// Equivalence of terminators under the block's final assertion.
    fn check_term(&self, b: usize, a: &Assertion) -> Result<(), ValidationError> {
        let at = || self.describe(At::Term(b));
        let (st, tt) = (&self.unit.src.blocks[b].term, &self.unit.tgt.blocks[b].term);
        let equiv =
            |x: &Value, y: &Value| a.values_equivalent(&TValue::of_value(x), &TValue::of_value(y));
        let traps = |v: &Value| matches!(v, Value::Const(c) if c.may_trap());
        match (st, tt) {
            (Term::Ret(None), Term::Ret(None)) => Ok(()),
            (Term::Ret(Some((ty1, v1))), Term::Ret(Some((ty2, v2)))) => {
                if ty1 != ty2 {
                    return Err(self.err(at(), "return types differ"));
                }
                if !equiv(v1, v2) {
                    return Err(self.err(
                        at(),
                        format!("returned values may differ: {v1:?} vs {v2:?}"),
                    ));
                }
                Ok(())
            }
            (Term::Br(x), Term::Br(y)) if x == y => Ok(()),
            (Term::CondBr { cond: c1, .. }, Term::CondBr { cond: c2, .. }) => {
                if traps(c2) && c1 != c2 && !self.config.trust_trapping_constexprs {
                    return Err(self.err(at(), "target branches on a trapping constant expression"));
                }
                if !equiv(c1, c2) {
                    return Err(self.err(at(), "branch conditions may differ"));
                }
                Ok(())
            }
            (
                Term::Switch {
                    ty: t1,
                    val: v1,
                    cases: c1,
                    ..
                },
                Term::Switch {
                    ty: t2,
                    val: v2,
                    cases: c2,
                    ..
                },
            ) => {
                if t1 != t2 || c1 != c2 {
                    return Err(self.err(at(), "switch shapes differ"));
                }
                if traps(v2) && v1 != v2 && !self.config.trust_trapping_constexprs {
                    return Err(self.err(at(), "target switches on a trapping constant expression"));
                }
                if !equiv(v1, v2) {
                    return Err(self.err(at(), "switch scrutinees may differ"));
                }
                Ok(())
            }
            (Term::Unreachable, Term::Unreachable) => Ok(()),
            _ => Err(self.err(at(), "terminator kinds differ")),
        }
    }

    /// Open a causal proof-command span when a collector is attached (the
    /// `spanning` gate keeps the name formatting off the common path).
    fn proof_span(&self, name: impl FnOnce() -> String) -> Option<crellvm_telemetry::CausalSpan> {
        self.tel
            .spanning()
            .then(|| self.tel.causal(&name(), "proof"))
    }

    fn run(&self) -> Result<(), ValidationError> {
        {
            let _g = self.proof_span(|| "CheckCFG".into());
            self.check_cfg()?;
        }
        {
            let _g = self.proof_span(|| "CheckInit".into());
            self.check_init()?;
        }
        for b in 0..self.unit.src.blocks.len() {
            let nrows = self.unit.row_count(b);
            for row in 0..nrows {
                let a = self.unit.assertion(SlotId::new(b, row));
                {
                    let mut work = self.work.borrow_mut();
                    work.rows += 1;
                    work.preds
                        .push((a.src.len() + a.tgt.len() + a.maydiff.len()) as u64);
                }
                let (ms, mt) = self.unit.row(b, row);
                let at = At::Row { block: b, row };
                let _g = self.proof_span(|| self.describe(at));
                check_equiv_beh(a, ms.stmt(), mt.stmt(), self.config)
                    .map_err(|e| self.err(self.describe(at), e.to_string()))?;
                let post = calc_post_cmd(a, ms.stmt(), mt.stmt());
                let goal = self.unit.assertion(SlotId::new(b, row + 1));
                let rules = self.unit.rules_at(RulePos::AfterRow {
                    block: b as u32,
                    row: row as u32,
                });
                self.discharge(post, goal, rules, at)?;
            }
            let end = self.unit.assertion(SlotId::new(b, nrows));
            {
                let _g = self.proof_span(|| self.describe(At::Term(b)));
                self.check_term(b, end)?;
            }

            let mut seen = BTreeSet::new();
            for succ in self.unit.src.blocks[b].term.successors() {
                if !seen.insert(succ) {
                    continue;
                }
                let sb = succ.index();
                let at = At::Edge { from: b, to: sb };
                let _g = self.proof_span(|| self.describe(at));
                let mut post = calc_post_phi(
                    end,
                    &self.unit.src.blocks[sb].phis,
                    &self.unit.tgt.blocks[sb].phis,
                    crellvm_ir::BlockId::from_index(b),
                );
                // Branching assertions (§C.3): edge-implied equalities.
                for (e1, e2) in
                    crate::postcond::branch_edge_facts(&self.unit.src.blocks[b].term, succ)
                {
                    post.src.insert_lessdef(e1, e2);
                }
                for (e1, e2) in
                    crate::postcond::branch_edge_facts(&self.unit.tgt.blocks[b].term, succ)
                {
                    post.tgt.insert_lessdef(e1, e2);
                }
                let goal = self.unit.assertion(SlotId::new(sb, 0));
                let rules = self.unit.rules_at(RulePos::Edge {
                    from: b as u32,
                    to: sb as u32,
                });
                self.discharge(post, goal, rules, at)?;
            }
        }
        Ok(())
    }
}

/// Validate a proof unit with an explicit checker configuration.
///
/// # Errors
///
/// Returns a [`ValidationError`] pinpointing the failing program point and
/// the logical reason.
pub fn validate_with_config(
    unit: &ProofUnit,
    config: &CheckerConfig,
) -> Result<Verdict, ValidationError> {
    validate_with_telemetry(unit, config, &Telemetry::disabled())
}

/// [`validate_with_config`] with telemetry: per-rule application counters,
/// assertion-size histograms, and one `validation.step` trace event per
/// proof unit (plus a `validation.failure` event carrying the failing
/// pass/function/position/reason — the proof-audit log).
///
/// # Errors
///
/// See [`validate_with_config`].
pub fn validate_with_telemetry(
    unit: &ProofUnit,
    config: &CheckerConfig,
    tel: &Telemetry,
) -> Result<Verdict, ValidationError> {
    tel.count("checker.validations", 1);
    // Trace events are built only when a sink is attached.
    let step = |verdict: &str| {
        Event::new("validation.step")
            .str("pass", unit.pass.clone())
            .str("func", unit.src.name.clone())
            .str("verdict", verdict)
    };
    if let Some(reason) = &unit.not_supported {
        tel.count("checker.not_supported", 1);
        if tel.tracing() {
            tel.emit(step("not_supported").str("reason", reason.clone()));
        }
        return Ok(Verdict::NotSupported(reason.clone()));
    }
    if config.accept_unchecked {
        // The test-only maximally weakened checker: accept blindly so the
        // oracle matrix suite can show the refinement oracle stands alone.
        tel.count("checker.valid", 1);
        if tel.tracing() {
            tel.emit(step("valid"));
        }
        return Ok(Verdict::Valid);
    }
    let ctx = Ctx {
        unit,
        config,
        tel,
        history: RefCell::new(VecDeque::new()),
        work: RefCell::new(Work::default()),
    };
    let outcome = ctx.run();
    ctx.flush();
    match outcome {
        Ok(()) => {
            tel.count("checker.valid", 1);
            if tel.tracing() {
                tel.emit(step("valid"));
            }
            Ok(Verdict::Valid)
        }
        Err(e) => {
            tel.count("checker.failures", 1);
            if tel.tracing() {
                tel.emit(step("failed").str("at", e.at.clone()));
                tel.emit(
                    Event::new("validation.failure")
                        .str("pass", e.pass.clone())
                        .str("func", e.func.clone())
                        .str("at", e.at.clone())
                        .str("reason", e.reason.clone()),
                );
            }
            Err(e)
        }
    }
}

/// Validate a proof unit with the sound default configuration.
///
/// # Errors
///
/// See [`validate_with_config`].
pub fn validate(unit: &ProofUnit) -> Result<Verdict, ValidationError> {
    validate_with_config(unit, &CheckerConfig::sound())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Side, TReg};
    use crate::proof::ProofBuilder;
    use crate::rules_arith::ArithRule;
    use crellvm_ir::{parse_module, BinOp, Const, Function, Inst, Type};

    fn parse_fn(src: &str) -> Function {
        parse_module(src).unwrap().functions.remove(0)
    }

    /// The identity translation of any function validates with an empty
    /// proof.
    #[test]
    fn identity_translation_validates() {
        let f = parse_fn(
            r#"
            declare @print(i32)
            define @f(i32 %n) -> i32 {
            entry:
              %p = alloca i32
              store i32 %n, ptr %p
              %a = load i32, ptr %p
              call void @print(i32 %a)
              %c = icmp slt i32 %a, 10
              br i1 %c, label then, label else
            then:
              ret i32 %a
            else:
              %d = sdiv i32 %a, 2
              ret i32 %d
            }
            "#,
        );
        let unit = ProofBuilder::new("identity", &f).finish();
        assert_eq!(validate(&unit), Ok(Verdict::Valid));
    }

    #[test]
    fn identity_translation_with_loop_validates() {
        let f = parse_fn(
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
        );
        let unit = ProofBuilder::new("identity", &f).finish();
        assert_eq!(validate(&unit), Ok(Verdict::Valid));
    }

    /// The paper's Fig 2 assoc-add example, proof included.
    #[test]
    fn fig2_assoc_add_validates() {
        let f = parse_fn(
            r#"
            declare @foo(i32)
            define @f(i32 %a) {
            entry:
              %x = add i32 %a, 1
              %y = add i32 %x, 2
              call void @foo(i32 %y)
              ret void
            }
            "#,
        );
        assert!(f.block_by_name("entry").is_some());
        let a = f.params[0].1;
        let xr = f.blocks[0].stmts[0].result.unwrap();
        let yr = f.blocks[0].stmts[1].result.unwrap();

        let mut pb = ProofBuilder::new("instcombine.assoc-add", &f);
        // Replace y := add x 2 with y := add a 3.
        pb.replace_tgt(
            0,
            1,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(a),
                rhs: Value::int(Type::I32, 3),
            },
        );
        // Assn(x ⊒ add a 1, l1, l2): between the def of x and its use.
        pb.range_pred(
            Side::Src,
            Pred::Lessdef(
                Expr::Value(TValue::phy(xr)),
                Expr::bin(
                    BinOp::Add,
                    Type::I32,
                    TValue::phy(a),
                    TValue::int(Type::I32, 1),
                ),
            ),
            crate::proof::Loc::AfterRow(0, 0),
            crate::proof::Loc::AfterRow(0, 0),
        );
        // Inf(assoc_add(x, y, a, 1, 2), l2)
        pb.infrule_after_src(
            0,
            1,
            crate::infrule::InfRule::Arith(ArithRule::AddAssoc {
                side: Side::Src,
                op: BinOp::Add,
                ty: Type::I32,
                x: TValue::phy(xr),
                y: TValue::phy(yr),
                a: TValue::phy(a),
                c1: Const::int(Type::I32, 1),
                c2: Const::int(Type::I32, 2),
            }),
        );
        // Auto(reduce_maydiff)
        pb.auto(crate::auto::AutoKind::ReduceMaydiff);
        let unit = pb.finish();
        assert_eq!(validate(&unit), Ok(Verdict::Valid));
    }

    /// Without the assoc_add rule the same translation must FAIL, with the
    /// failure pointing at the call row (where the argument equivalence
    /// breaks) or the preceding inclusion.
    #[test]
    fn fig2_without_rule_fails_with_reason() {
        let f = parse_fn(
            r#"
            declare @foo(i32)
            define @f(i32 %a) {
            entry:
              %x = add i32 %a, 1
              %y = add i32 %x, 2
              call void @foo(i32 %y)
              ret void
            }
            "#,
        );
        let a = f.params[0].1;
        let mut pb = ProofBuilder::new("instcombine.assoc-add", &f);
        pb.replace_tgt(
            0,
            1,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(a),
                rhs: Value::int(Type::I32, 3),
            },
        );
        pb.auto(crate::auto::AutoKind::ReduceMaydiff);
        let unit = pb.finish();
        let err = validate(&unit).unwrap_err();
        assert!(err.at.contains("row"), "unexpected position {}", err.at);
    }

    /// An incorrect translation (wrong folded constant) fails even WITH a
    /// plausible-looking proof — the rule's arithmetic is checked.
    #[test]
    fn wrong_constant_fold_is_rejected() {
        let f = parse_fn(
            r#"
            declare @foo(i32)
            define @f(i32 %a) {
            entry:
              %x = add i32 %a, 1
              %y = add i32 %x, 2
              call void @foo(i32 %y)
              ret void
            }
            "#,
        );
        let a = f.params[0].1;
        let xr = f.blocks[0].stmts[0].result.unwrap();
        let yr = f.blocks[0].stmts[1].result.unwrap();
        let mut pb = ProofBuilder::new("instcombine.assoc-add", &f);
        // BUG: folds 1+2 to 4.
        pb.replace_tgt(
            0,
            1,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(a),
                rhs: Value::int(Type::I32, 4),
            },
        );
        pb.infrule_after_src(
            0,
            1,
            crate::infrule::InfRule::Arith(ArithRule::AddAssoc {
                side: Side::Src,
                op: BinOp::Add,
                ty: Type::I32,
                x: TValue::phy(xr),
                y: TValue::phy(yr),
                a: TValue::phy(a),
                c1: Const::int(Type::I32, 1),
                c2: Const::int(Type::I32, 2),
            }),
        );
        pb.auto(crate::auto::AutoKind::ReduceMaydiff);
        let unit = pb.finish();
        assert!(validate(&unit).is_err());
    }

    #[test]
    fn entry_assertion_cannot_claim_uniqueness_of_parameters() {
        let f = parse_fn(
            r#"
            define @f(ptr %p) {
            entry:
              ret void
            }
            "#,
        );
        let p = f.params[0].1;
        let mut pb = ProofBuilder::new("bogus", &f);
        pb.global_pred(Side::Src, Pred::Uniq(p));
        let unit = pb.finish();
        let err = validate(&unit).unwrap_err();
        assert!(err.at.contains("CheckInit"));
    }

    #[test]
    fn not_supported_units_short_circuit() {
        let f = parse_fn("define @f() {\nentry:\n  ret void\n}\n");
        let mut pb = ProofBuilder::new("gvn", &f);
        pb.mark_not_supported("vector operations");
        let unit = pb.finish();
        assert_eq!(
            validate(&unit),
            Ok(Verdict::NotSupported("vector operations".into()))
        );
    }

    #[test]
    fn maydiff_register_reaching_a_call_fails() {
        // Target replaces the call argument with a different register and
        // provides no justification.
        let f = parse_fn(
            r#"
            declare @print(i32)
            define @f(i32 %a, i32 %b) {
            entry:
              call void @print(i32 %a)
              ret void
            }
            "#,
        );
        let b = f.params[1].1;
        let mut pb = ProofBuilder::new("bogus", &f);
        pb.replace_tgt(
            0,
            0,
            Inst::Call {
                ret: None,
                callee: "print".into(),
                args: vec![(Type::I32, Value::Reg(b))],
            },
        );
        let unit = pb.finish();
        let err = validate(&unit).unwrap_err();
        assert!(
            err.reason.contains("argument may differ"),
            "got: {}",
            err.reason
        );
    }

    #[test]
    fn branch_condition_replacement_needs_evidence() {
        let f = parse_fn(
            r#"
            define @f(i32 %a) -> i32 {
            entry:
              %c = icmp eq i32 %a, 0
              %d = icmp eq i32 %a, 0
              br i1 %c, label t, label e
            t:
              ret i32 1
            e:
              ret i32 2
            }
            "#,
        );
        let d = f.blocks[0].stmts[1].result.unwrap();
        let mut pb = ProofBuilder::new("gvn-like", &f);
        let t = f.block_by_name("t").unwrap();
        let e = f.block_by_name("e").unwrap();
        pb.set_tgt_term(
            0,
            Term::CondBr {
                cond: Value::Reg(d),
                if_true: t,
                if_false: e,
            },
        );
        // Valid once the proof records the defining expressions up to the
        // terminator: %c ∼ %d through the common icmp expression.
        let c = f.blocks[0].stmts[0].result.unwrap();
        let a_param = f.params[0].1;
        let cmp = Expr::Icmp {
            pred: crellvm_ir::IcmpPred::Eq,
            ty: Type::I32,
            a: TValue::phy(a_param),
            b: TValue::int(Type::I32, 0),
        };
        pb.range_pred(
            Side::Src,
            Pred::Lessdef(Expr::Value(TValue::phy(c)), cmp.clone()),
            crate::proof::Loc::AfterRow(0, 0),
            crate::proof::Loc::End(0),
        );
        pb.range_pred(
            Side::Tgt,
            Pred::Lessdef(cmp, Expr::Value(TValue::phy(d))),
            crate::proof::Loc::AfterRow(0, 1),
            crate::proof::Loc::End(0),
        );
        let unit = pb.finish();
        assert_eq!(validate(&unit), Ok(Verdict::Valid));

        // Now make %d a DIFFERENT comparison: must fail.
        let f2 = parse_fn(
            r#"
            define @f(i32 %a) -> i32 {
            entry:
              %c = icmp eq i32 %a, 0
              %d = icmp eq i32 %a, 1
              br i1 %c, label t, label e
            t:
              ret i32 1
            e:
              ret i32 2
            }
            "#,
        );
        let d2 = f2.blocks[0].stmts[1].result.unwrap();
        let mut pb = ProofBuilder::new("gvn-like", &f2);
        let t = f2.block_by_name("t").unwrap();
        let e = f2.block_by_name("e").unwrap();
        pb.set_tgt_term(
            0,
            Term::CondBr {
                cond: Value::Reg(d2),
                if_true: t,
                if_false: e,
            },
        );
        let unit = pb.finish();
        let err = validate(&unit).unwrap_err();
        assert!(err.at.contains("terminator"));
    }

    #[test]
    fn alignment_inconsistency_is_caught() {
        let f = parse_fn(
            r#"
            define @f() {
            entry:
              %x = add i32 1, 2
              ret void
            }
            "#,
        );
        let mut unit = ProofBuilder::new("x", &f).finish();
        // Corrupt: claim the row is target-only while tgt still has it.
        unit.alignment[0][0] = crate::proof::RowShape::TgtOnly;
        let err = validate(&unit).unwrap_err();
        assert!(err.at.contains("CheckCFG"));
        let _ = TReg::ghost("unused");
        let _ = Expr::undef(Type::I1);
    }

    use crellvm_ir::Term;
    use crellvm_ir::Value;
}
