//! Failure-forensics primitives: the failure-class taxonomy, the
//! delta-debugging minimizer, and the replayable bundle format.
//!
//! This module is deliberately checker-agnostic (the telemetry crate sits
//! *below* `crellvm-core` in the dependency graph): classification works on
//! the checker's `(at, reason)` strings, minimization on an abstract
//! keep-mask oracle, and the bundle carries the proof as an opaque JSON
//! payload. `crellvm-core::forensics` binds all three to real proof units.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{parse, Value};

/// The failure taxonomy: what *kind* of evidence a checker rejection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// An explicit inference rule failed to apply (missing premise or
    /// violated side condition).
    RuleMismatch,
    /// The inclusion check failed: a lessdef/maydiff fact needed by the
    /// goal assertion is not derivable.
    MissingLessdef,
    /// The behaviours diverge through a trapping / poison / undef value
    /// escaping into an observable position.
    PoisonEscape,
    /// A phi-edge assertion does not hold (wrong phi shape or missing
    /// edge facts).
    PhiShape,
    /// The proof itself is malformed (CFG/alignment/entry-assertion
    /// problems) or the failure fits no other class.
    Internal,
}

impl FailureClass {
    /// Stable kebab-case name, used in bundles and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::RuleMismatch => "rule-mismatch",
            FailureClass::MissingLessdef => "missing-lessdef",
            FailureClass::PoisonEscape => "poison-escape",
            FailureClass::PhiShape => "phi-shape",
            FailureClass::Internal => "internal",
        }
    }

    /// Inverse of [`FailureClass::as_str`].
    pub fn parse(s: &str) -> Option<FailureClass> {
        Some(match s {
            "rule-mismatch" => FailureClass::RuleMismatch,
            "missing-lessdef" => FailureClass::MissingLessdef,
            "poison-escape" => FailureClass::PoisonEscape,
            "phi-shape" => FailureClass::PhiShape,
            "internal" => FailureClass::Internal,
            _ => return None,
        })
    }

    /// Classify a checker rejection from its position and reason strings.
    ///
    /// The precedence mirrors the checker's own phases: structural
    /// (CheckCFG / CheckInit) problems are internal regardless of wording;
    /// an explicit rule failure names itself; trapping/poison/undef
    /// wording wins over the generic inclusion wording; a failing edge
    /// discharge is a phi-shape problem; any remaining underivable-fact
    /// wording is a missing lessdef.
    pub fn classify(at: &str, reason: &str) -> FailureClass {
        if at.starts_with("CheckCFG") || at.starts_with("CheckInit") {
            return FailureClass::Internal;
        }
        if reason.contains("inference rule") {
            return FailureClass::RuleMismatch;
        }
        if reason.contains("trap") || reason.contains("poison") || reason.contains("undef") {
            return FailureClass::PoisonEscape;
        }
        if at.starts_with("edge ") {
            return FailureClass::PhiShape;
        }
        if reason.contains("not derivable")
            || reason.contains("may differ")
            || reason.contains("behaviours not equivalent")
            || reason.contains("inclusion check failed")
        {
            return FailureClass::MissingLessdef;
        }
        FailureClass::Internal
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Delta-debug a set of `n` items down to a 1-minimal subset.
///
/// `test(keep)` receives a keep-mask of length `n` and must report whether
/// the configuration keeping exactly the masked items still *reproduces*
/// (for proof minimization: the reduced proof still fails in the same
/// failure class). The full mask is assumed to reproduce. Returns the
/// minimized keep-mask — 1-minimal in the ddmin sense: removing any single
/// remaining item stops reproduction.
///
/// The oracle is called O(n²) times in the worst case; forensic bundles are
/// built once per failure, off the validation hot path.
pub fn ddmin(n: usize, mut test: impl FnMut(&[bool]) -> bool) -> Vec<bool> {
    let mask_of = |keep: &[usize]| {
        let mut mask = vec![false; n];
        for &i in keep {
            mask[i] = true;
        }
        mask
    };
    let mut current: Vec<usize> = (0..n).collect();
    if n == 0 {
        return Vec::new();
    }
    // Classic ddmin never tests the empty configuration, but for proof
    // commands it is meaningful: a failure that reproduces with no
    // commands at all needs none of them in the repro.
    if test(&vec![false; n]) {
        return vec![false; n];
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let chunks: Vec<Vec<usize>> = current.chunks(chunk).map(<[usize]>::to_vec).collect();
        let mut reduced = false;
        // Try each chunk alone ("reduce to subset")…
        for c in &chunks {
            if c.len() < current.len() && test(&mask_of(c)) {
                current = c.to_vec();
                granularity = 2;
                reduced = true;
                break;
            }
        }
        // …then each chunk's complement ("reduce to complement").
        if !reduced && granularity > 2 {
            for skip in 0..chunks.len() {
                let complement: Vec<usize> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                if complement.len() < current.len() && test(&mask_of(&complement)) {
                    current = complement;
                    granularity = (granularity - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    mask_of(&current)
}

/// A self-contained, replayable record of one checker rejection.
///
/// Everything a developer needs to diagnose the failure without the
/// original compilation session: the classified verdict, the failing
/// assertion, the recent rule history, the IR slice on both sides, the
/// canonical proof-command list with its delta-debugged minimal core, and
/// the full proof unit (as opaque JSON) for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicBundle {
    /// Bundle format version (currently 1).
    pub version: u32,
    /// Pass that produced the rejected proof.
    pub pass: String,
    /// Function being validated.
    pub func: String,
    /// Failing position (block/row/edge), verbatim from the checker.
    pub at: String,
    /// The checker's logical reason, verbatim.
    pub reason: String,
    /// Classified failure class.
    pub class: FailureClass,
    /// Rendered `have ⇏ want` assertion pair at the failure point, when
    /// the failure happened inside a discharge.
    pub failing_assertion: Option<String>,
    /// The last-K inference rules the checker applied before rejecting.
    pub rule_history: Vec<String>,
    /// Source-side IR of the failing function.
    pub src_ir: String,
    /// Target-side IR of the failing function.
    pub tgt_ir: String,
    /// Human-readable labels of every proof command, in canonical order.
    pub commands: Vec<String>,
    /// Indices into `commands` forming the delta-debugged minimal set
    /// that still reproduces `class`.
    pub minimized: Vec<usize>,
    /// The full proof unit as JSON (replayable via
    /// `crellvm-core::forensics::replay`).
    pub proof_json: String,
    /// On-the-wire proof format name of the session that produced the
    /// bundle (`"json"` or `"binary-v2"`). The proof in
    /// the bundle itself is always JSON for replayability; this records
    /// which transport encoding the failing proof actually travelled in.
    pub wire_format: String,
}

impl ForensicBundle {
    /// Serialize to the bundle JSON document.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("version".to_string(), Value::UInt(self.version as u64));
        obj.insert("pass".to_string(), Value::Str(self.pass.clone()));
        obj.insert("func".to_string(), Value::Str(self.func.clone()));
        obj.insert("at".to_string(), Value::Str(self.at.clone()));
        obj.insert("reason".to_string(), Value::Str(self.reason.clone()));
        obj.insert(
            "class".to_string(),
            Value::Str(self.class.as_str().to_string()),
        );
        obj.insert(
            "failing_assertion".to_string(),
            match &self.failing_assertion {
                Some(s) => Value::Str(s.clone()),
                None => Value::Null,
            },
        );
        obj.insert(
            "rule_history".to_string(),
            Value::Arr(
                self.rule_history
                    .iter()
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        );
        obj.insert("src_ir".to_string(), Value::Str(self.src_ir.clone()));
        obj.insert("tgt_ir".to_string(), Value::Str(self.tgt_ir.clone()));
        obj.insert(
            "commands".to_string(),
            Value::Arr(
                self.commands
                    .iter()
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        );
        obj.insert(
            "minimized".to_string(),
            Value::Arr(
                self.minimized
                    .iter()
                    .map(|i| Value::UInt(*i as u64))
                    .collect(),
            ),
        );
        obj.insert(
            "proof_json".to_string(),
            Value::Str(self.proof_json.clone()),
        );
        obj.insert(
            "wire_format".to_string(),
            Value::Str(self.wire_format.clone()),
        );
        Value::Obj(obj).to_json()
    }

    /// Parse a bundle JSON document.
    pub fn from_json(input: &str) -> Result<ForensicBundle, String> {
        let root = parse(input).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            root.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bundle is missing `{key}`"))
        };
        let str_list = |key: &str| -> Vec<String> {
            root.get(key)
                .and_then(Value::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        let class_name = str_field("class")?;
        let class = FailureClass::parse(&class_name)
            .ok_or_else(|| format!("unknown failure class `{class_name}`"))?;
        Ok(ForensicBundle {
            version: root.get("version").and_then(Value::as_u64).unwrap_or(1) as u32,
            pass: str_field("pass")?,
            func: str_field("func")?,
            at: str_field("at")?,
            reason: str_field("reason")?,
            class,
            failing_assertion: root
                .get("failing_assertion")
                .and_then(Value::as_str)
                .map(str::to_string),
            rule_history: str_list("rule_history"),
            src_ir: str_field("src_ir").unwrap_or_default(),
            tgt_ir: str_field("tgt_ir").unwrap_or_default(),
            commands: str_list("commands"),
            minimized: root
                .get("minimized")
                .and_then(Value::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_u64)
                        .map(|i| i as usize)
                        .collect()
                })
                .unwrap_or_default(),
            proof_json: str_field("proof_json")?,
            wire_format: root
                .get("wire_format")
                .and_then(Value::as_str)
                .unwrap_or("json")
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_taxonomy() {
        use FailureClass::*;
        assert_eq!(
            FailureClass::classify("CheckCFG", "block counts differ"),
            Internal
        );
        assert_eq!(
            FailureClass::classify(
                "CheckInit (entry assertion)",
                "source assumes a non-trivial fact at entry"
            ),
            Internal
        );
        assert_eq!(
            FailureClass::classify(
                "block entry, row 1",
                "inference rule AddAssoc failed: premise missing"
            ),
            RuleMismatch
        );
        assert_eq!(
            FailureClass::classify(
                "block entry, row 0",
                "behaviours not equivalent: target loads a trapping constant"
            ),
            PoisonEscape
        );
        assert_eq!(
            FailureClass::classify(
                "edge entry -> loop",
                "source predicate not derivable: %x >= %y"
            ),
            PhiShape
        );
        assert_eq!(
            FailureClass::classify(
                "block entry, row 2",
                "source predicate not derivable: %x >= %y"
            ),
            MissingLessdef
        );
        assert_eq!(
            FailureClass::classify("terminator of block entry", "terminator kinds differ"),
            Internal
        );
        for c in [
            RuleMismatch,
            MissingLessdef,
            PoisonEscape,
            PhiShape,
            Internal,
        ] {
            assert_eq!(FailureClass::parse(c.as_str()), Some(c));
        }
    }

    #[test]
    fn ddmin_finds_a_single_culprit() {
        let culprit = 13usize;
        let mut calls = 0;
        let keep = ddmin(20, |mask| {
            calls += 1;
            mask[culprit]
        });
        assert_eq!(keep.iter().filter(|k| **k).count(), 1);
        assert!(keep[culprit]);
        assert!(calls < 200, "ddmin made {calls} oracle calls");
    }

    #[test]
    fn ddmin_finds_a_pair_spanning_both_halves() {
        // Items 2 and 17 are needed together: subset reduction alone cannot
        // isolate them (they sit in different halves), so the complement
        // phase has to kick in.
        let keep = ddmin(20, |mask| mask[2] && mask[17]);
        let kept: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter(|(_, k)| **k)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(kept, vec![2, 17]);
    }

    #[test]
    fn ddmin_keeps_everything_when_nothing_is_removable() {
        let keep = ddmin(5, |mask| mask.iter().all(|k| *k));
        assert!(keep.iter().all(|k| *k));
        assert!(ddmin(0, |_| true).is_empty());
    }

    #[test]
    fn bundle_roundtrips_through_json() {
        let bundle = ForensicBundle {
            version: 1,
            pass: "gvn".into(),
            func: "main".into(),
            at: "block entry, row 3".into(),
            reason: "source predicate not derivable: %x >= %y".into(),
            class: FailureClass::MissingLessdef,
            failing_assertion: Some("have: src {} | tgt {} | MD()\nwant: …".into()),
            rule_history: vec!["transitivity @ block entry, row 2".into()],
            src_ir: "define @main() {...}".into(),
            tgt_ir: "define @main() {...}".into(),
            commands: vec!["rule a".into(), "rule b".into(), "auto Transitivity".into()],
            minimized: vec![1],
            proof_json: "{\"pass\":\"gvn\"}".into(),
            wire_format: "binary-v2".into(),
        };
        let back = ForensicBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(back, bundle);
        assert!(ForensicBundle::from_json("{}").is_err());
        assert!(ForensicBundle::from_json("not json").is_err());
    }

    #[test]
    fn bundle_wire_format_defaults_to_json_for_old_documents() {
        // A v1 bundle document written before `wire_format` existed must
        // still parse, with the transport defaulted to "json".
        let bundle = ForensicBundle {
            version: 1,
            pass: "gvn".into(),
            func: "main".into(),
            at: "block entry, row 3".into(),
            reason: "r".into(),
            class: FailureClass::Internal,
            failing_assertion: None,
            rule_history: Vec::new(),
            src_ir: String::new(),
            tgt_ir: String::new(),
            commands: Vec::new(),
            minimized: Vec::new(),
            proof_json: "{}".into(),
            wire_format: "json".into(),
        };
        let mut doc = bundle.to_json();
        let needle = ",\"wire_format\":\"json\"";
        assert!(doc.contains(needle));
        doc = doc.replace(needle, "");
        let back = ForensicBundle::from_json(&doc).unwrap();
        assert_eq!(back, bundle);
    }
}
