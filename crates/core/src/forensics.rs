//! Proof forensics: build, minimize, and replay failure bundles.
//!
//! The telemetry crate defines the checker-agnostic primitives (the
//! [`FailureClass`] taxonomy, the `ddmin` minimizer, the [`ForensicBundle`]
//! format); this module binds them to real [`ProofUnit`]s:
//!
//! - [`command_labels`] / [`restrict_commands`] give every proof a
//!   *canonical command list* — each attached inference rule and each
//!   enabled automation function is one command — and a way to re-run the
//!   proof with an arbitrary subset of them;
//! - [`forensic_bundle`] packages a [`ValidationError`] into a replayable
//!   bundle, delta-debugging the command list down to a 1-minimal core
//!   that still fails in the same failure class;
//! - [`replay`] re-validates a bundle's proof (full and minimized) and
//!   checks both against the recorded class — the `crellvm forensics`
//!   subcommand.

use crate::checker::{validate_with_config, ValidationError, Verdict};
use crate::infrule::CheckerConfig;
use crate::proof::{ProofUnit, RulePos};
use crate::serialize::{proof_from_json, proof_to_json};
use crellvm_telemetry::forensics::{ddmin, FailureClass, ForensicBundle};

/// Classify a checker rejection.
pub fn classify(err: &ValidationError) -> FailureClass {
    FailureClass::classify(&err.at, &err.reason)
}

fn pos_label(unit: &ProofUnit, pos: &RulePos) -> String {
    let block_name = |b: u32| {
        unit.src
            .blocks
            .get(b as usize)
            .map(|blk| blk.name.clone())
            .unwrap_or_else(|| format!("#{b}"))
    };
    match pos {
        RulePos::AfterRow { block, row } => {
            format!("block {}, row {row}", block_name(*block))
        }
        RulePos::Edge { from, to } => {
            format!("edge {} -> {}", block_name(*from), block_name(*to))
        }
    }
}

/// The canonical command list of a proof: one label per attached inference
/// rule (in `BTreeMap`/vector order) followed by one per enabled
/// automation function (in `BTreeSet` order). [`restrict_commands`]
/// consumes keep-masks over exactly this ordering.
pub fn command_labels(unit: &ProofUnit) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, rules) in &unit.infrules {
        for rule in rules {
            out.push(format!("rule {} @ {}", rule.name(), pos_label(unit, pos)));
        }
    }
    for auto in &unit.autos {
        out.push(format!("auto {auto:?}"));
    }
    out
}

/// The proof with only the commands selected by `keep` (indices as in
/// [`command_labels`]); positions missing from the mask are kept.
pub fn restrict_commands(unit: &ProofUnit, keep: &[bool]) -> ProofUnit {
    let mut out = unit.clone();
    restrict_into(unit, keep, &mut out);
    out
}

/// [`restrict_commands`] into `out`, a copy of `unit`: only its rules and
/// automation functions are rewritten, so one copy serves every probe of
/// a minimization.
fn restrict_into(unit: &ProofUnit, keep: &[bool], out: &mut ProofUnit) {
    let mut next = keep.iter().copied().chain(std::iter::repeat(true));
    out.infrules = unit
        .infrules
        .iter()
        .map(|(pos, rules)| {
            let kept: Vec<_> = rules
                .iter()
                .filter(|_| next.next().unwrap_or(true))
                .cloned()
                .collect();
            (*pos, kept)
        })
        .filter(|(_, rules)| !rules.is_empty())
        .collect();
    out.autos = unit
        .autos
        .iter()
        .filter(|_| next.next().unwrap_or(true))
        .cloned()
        .collect();
}

/// Package a checker rejection into a replayable [`ForensicBundle`].
///
/// The bundle's `minimized` set is the ddmin-minimal subset of the proof's
/// commands that still makes the checker fail *in the same failure class*
/// (not necessarily with the same message — rule removal legitimately
/// shifts the failing position). Minimization re-validates the reduced
/// proofs with disabled telemetry, so building a bundle never perturbs the
/// session's metrics beyond the `forensics.bundles` counter its caller
/// records.
pub fn forensic_bundle(
    unit: &ProofUnit,
    err: &ValidationError,
    config: &CheckerConfig,
) -> ForensicBundle {
    let class = classify(err);
    let commands = command_labels(unit);
    let mut probe = unit.clone();
    let keep = ddmin(commands.len(), |mask| {
        restrict_into(unit, mask, &mut probe);
        match validate_with_config(&probe, config) {
            Err(e) => classify(&e) == class,
            Ok(_) => false,
        }
    });
    let minimized: Vec<usize> = keep
        .iter()
        .enumerate()
        .filter(|(_, k)| **k)
        .map(|(i, _)| i)
        .collect();
    ForensicBundle {
        version: 1,
        pass: err.pass.clone(),
        func: err.func.clone(),
        at: err.at.clone(),
        reason: err.reason.clone(),
        class,
        failing_assertion: err.failing_assertion.clone(),
        rule_history: err.rule_history.clone(),
        src_ir: crellvm_ir::printer::print_function(&unit.src),
        tgt_ir: crellvm_ir::printer::print_function(&unit.tgt),
        commands,
        minimized,
        proof_json: proof_to_json(unit).unwrap_or_default(),
        wire_format: "json".to_string(),
    }
}

/// Outcome of replaying a bundle: the recorded class versus what the full
/// and the minimized proof produce *now*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Failure class recorded in the bundle.
    pub recorded_class: FailureClass,
    /// Class the full proof fails with on replay (`None`: it validates).
    pub full_class: Option<FailureClass>,
    /// Position/reason of the full replay failure.
    pub full_failure: Option<(String, String)>,
    /// Class the minimized proof fails with (`None`: it validates).
    pub minimized_class: Option<FailureClass>,
    /// Total number of proof commands.
    pub total_commands: usize,
    /// Number of commands in the minimized set.
    pub minimized_commands: usize,
}

impl ReplayReport {
    /// Does the replay confirm the bundle — both the full and the
    /// minimized proof still fail in the recorded class?
    pub fn confirms(&self) -> bool {
        self.full_class == Some(self.recorded_class)
            && self.minimized_class == Some(self.recorded_class)
    }
}

fn replay_class(
    unit: &ProofUnit,
    config: &CheckerConfig,
) -> (Option<FailureClass>, Option<(String, String)>) {
    match validate_with_config(unit, config) {
        Err(e) => (Some(classify(&e)), Some((e.at, e.reason))),
        Ok(Verdict::Valid) | Ok(Verdict::NotSupported(_)) => (None, None),
    }
}

/// Replay a bundle: re-validate its proof in full and restricted to the
/// minimized command set, comparing both against the recorded class.
///
/// # Errors
///
/// Fails when the embedded proof JSON does not parse.
pub fn replay(bundle: &ForensicBundle, config: &CheckerConfig) -> Result<ReplayReport, String> {
    let unit =
        proof_from_json(&bundle.proof_json).map_err(|e| format!("bundle proof is invalid: {e}"))?;
    let total = command_labels(&unit).len();
    let mut keep = vec![false; total];
    for &i in &bundle.minimized {
        if i >= total {
            return Err(format!(
                "bundle minimized index {i} is out of range (proof has {total} commands)"
            ));
        }
        keep[i] = true;
    }
    let (full_class, full_failure) = replay_class(&unit, config);
    let (minimized_class, _) = replay_class(&restrict_commands(&unit, &keep), config);
    Ok(ReplayReport {
        recorded_class: bundle.class,
        full_class,
        full_failure,
        minimized_class,
        total_commands: total,
        minimized_commands: bundle.minimized.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Side, TValue};
    use crate::infrule::InfRule;
    use crate::proof::ProofBuilder;
    use crate::rules_arith::ArithRule;
    use crellvm_ir::{parse_module, BinOp, Const, Inst, Type, Value};

    /// The Fig 2 program with a WRONG constant fold (1+2 folded to 4) and a
    /// proof that carries the assoc-add rule plus automation — a broken
    /// proof with removable commands.
    fn broken_unit() -> ProofUnit {
        let m = parse_module(
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
        )
        .unwrap();
        let f = &m.functions[0];
        let a = f.params[0].1;
        let xr = f.blocks[0].stmts[0].result.unwrap();
        let yr = f.blocks[0].stmts[1].result.unwrap();
        let mut pb = ProofBuilder::new("instcombine.assoc-add", f);
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
            InfRule::Arith(ArithRule::AddAssoc {
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
        pb.auto(crate::auto::AutoKind::Transitivity);
        pb.finish()
    }

    #[test]
    fn command_restriction_mirrors_labels() {
        let unit = broken_unit();
        let labels = command_labels(&unit);
        assert_eq!(labels.len(), 3);
        assert!(labels[0].starts_with("rule add_assoc"), "got {labels:?}");
        assert!(labels[1].starts_with("auto "), "got {labels:?}");
        let none = restrict_commands(&unit, &[false; 3]);
        assert!(none.infrules.is_empty());
        assert!(none.autos.is_empty());
        let all = restrict_commands(&unit, &[true; 3]);
        assert_eq!(command_labels(&all), labels);
        let only_auto = restrict_commands(&unit, &[false, true, false]);
        assert!(only_auto.infrules.is_empty());
        assert_eq!(only_auto.autos.len(), 1);
    }

    #[test]
    fn bundle_minimizes_and_replays_to_the_same_class() {
        let unit = broken_unit();
        let config = CheckerConfig::sound();
        let err = validate_with_config(&unit, &config).unwrap_err();
        assert!(!err.rule_history.is_empty(), "rule history not captured");
        assert!(err.failing_assertion.is_some(), "assertion not captured");

        let bundle = forensic_bundle(&unit, &err, &config);
        assert_eq!(bundle.class, classify(&err));
        assert!(
            bundle.minimized.len() < bundle.commands.len(),
            "minimized set ({:?}) is not strictly smaller than {:?}",
            bundle.minimized,
            bundle.commands
        );
        assert!(bundle.src_ir.contains("define @f"));
        assert!(bundle.tgt_ir.contains("4"));

        let back = ForensicBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(back, bundle);
        let report = replay(&back, &config).unwrap();
        assert!(report.confirms(), "replay diverged: {report:?}");
        assert_eq!(report.total_commands, 3);
        assert!(report.minimized_commands < report.total_commands);
    }
}
