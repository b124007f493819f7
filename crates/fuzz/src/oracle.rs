//! The three-way oracle: ERHL checker × interpreter refinement × diff.
//!
//! Our checker has no Coq proof behind it (unlike the paper's), so it is
//! itself part of the trusted computing base and must be adversarially
//! cross-checked. For every `(program, pass)` translation step, the oracle
//! gathers three *independent* observations:
//!
//! 1. **Checker** — the ERHL verdict on each proof unit (the thing under
//!    test);
//! 2. **Refinement** — interpreter-based `Beh(src) ⊇ Beh(tgt)` on a set of
//!    generated concrete inputs (environment seeds + undef resolutions);
//! 3. **Diff** — alpha-equivalence of the *observed* target against the
//!    honest pass output, which detects injected mutations even when no
//!    concrete run can witness them (e.g. stripping `inbounds`, which only
//!    *removes* behaviours).
//!
//! [`classify`] folds the observations into the verdict lattice the
//! campaign reports on: **soundness alarm** (checker accepts, refinement
//! refutes), **completeness gap** (checker rejects a translation that is
//! clean and holds on every conclusive run), **agree**, and
//! **inconclusive**. A fuel-exhausted run is *never* evidence: it can
//! neither witness a violation nor count as a pass, so it only ever
//! produces `Inconclusive` (the ISSUE-level contract this module pins).
//!
//! [`observe_step_cached`] runs the checker and diff legs first and the
//! refinement leg only where its outcome can still change the verdict
//! (always under [`Tier::Differential`]); a skipped leg is
//! [`RefinementSummary::Skipped`], which is never evidence either.

use crellvm_core::{validate_with_telemetry, CheckerConfig, ProofUnit, ValidationError, Verdict};
use crellvm_interp::{
    check_refinement, compile_module, run_main_tiered, BcCache, CompiledModule, End, RunConfig,
    RunResult, Tier, TierDivergence, UndefPolicy,
};
use crellvm_ir::Module;
use crellvm_telemetry::Telemetry;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Oracle configuration: how hard the refinement leg tries.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Number of concrete input seeds to execute both modules on. Each
    /// seed drives the external environment (`get` results) *and* the
    /// undef resolution policy.
    pub input_seeds: u64,
    /// Interpreter fuel per run; an exhausted run makes the refinement
    /// observation inconclusive, never a pass.
    pub fuel: u64,
    /// Which interpreter tier executes the refinement runs. The default
    /// is [`Tier::Bytecode`]; the tree walker stays the reference that
    /// [`Tier::Differential`] checks it against, turning tier
    /// disagreement into a fourth free oracle: any bit-level mismatch
    /// between the two surfaces as [`OracleVerdict::TierDivergence`].
    pub tier: Tier,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            input_seeds: 4,
            fuel: RunConfig::default().fuel,
            tier: Tier::Bytecode,
        }
    }
}

/// The checker leg, folded over all proof units of the step.
#[derive(Debug, Clone)]
pub enum CheckerSummary {
    /// Every supported unit validated.
    Accept,
    /// At least one unit failed validation (the first, in function order).
    Reject(Box<ValidationError>),
    /// No failure, but at least one unit was not supported (#NS).
    Abstain(String),
}

/// The interpreter-refinement leg over all generated inputs.
#[derive(Debug, Clone)]
pub enum RefinementSummary {
    /// `Beh(src) ⊇ Beh(tgt)` held on every input, and every run ended
    /// conclusively (no fuel exhaustion).
    Holds,
    /// A concrete input witnessed a refinement violation.
    Fails {
        /// The violating input seed (replay with the same seed).
        input_seed: u64,
        /// The refinement error, rendered.
        reason: String,
    },
    /// No violation found, but some runs exhausted their fuel — counted
    /// as *no evidence*, never as a pass.
    Inconclusive {
        /// How many of the input seeds ran out of fuel.
        out_of_fuel: u64,
    },
    /// Not run: the checker and diff legs already fix the verdict. Never
    /// evidence either way.
    Skipped,
}

/// The structural-diff leg: observed target vs honest pass output.
#[derive(Debug, Clone)]
pub enum DiffSummary {
    /// The observed target is alpha-equivalent to the honest output.
    Clean,
    /// The observed target differs (first difference, rendered) — the
    /// injected-mutation detector.
    Differs(String),
}

/// One tier disagreement witnessed while executing the refinement leg
/// under [`Tier::Differential`].
#[derive(Debug, Clone)]
pub struct DivergenceObservation {
    /// The input seed whose run diverged (replayable).
    pub input_seed: u64,
    /// Which module diverged: `"src"` or `"tgt"`.
    pub module_role: &'static str,
    /// The full divergence (first mismatching observable + both runs).
    pub divergence: TierDivergence,
}

/// One step's worth of oracle observations.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The ERHL checker leg.
    pub checker: CheckerSummary,
    /// The interpreter refinement leg.
    pub refinement: RefinementSummary,
    /// The structural diff leg.
    pub diff: DiffSummary,
    /// Tier disagreements seen while running the refinement leg (always
    /// empty unless the oracle ran with [`Tier::Differential`]).
    pub tier_divergences: Vec<DivergenceObservation>,
}

/// The oracle verdict lattice (see module docs and DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// The interpreter tiers disagreed on an observable. This is not a
    /// compiler or checker bug but an *oracle* bug (the bytecode tier —
    /// or worse, the shared core — is wrong), so it overrides the rest of
    /// the lattice: no other verdict from this step can be trusted.
    TierDivergence,
    /// Checker accepts, refinement refutes: the checker would have let a
    /// miscompilation through. The campaign's nonzero-exit condition.
    SoundnessAlarm,
    /// Checker rejects a translation that is structurally clean and whose
    /// refinement held conclusively on every input: the checker (or the
    /// proof generator) is too weak.
    CompletenessGap,
    /// The oracles tell a consistent story.
    Agree,
    /// Not enough evidence to cross-check (#NS unit, fuel exhaustion
    /// without a witness, rejection with nothing to corroborate).
    Inconclusive,
}

impl OracleVerdict {
    /// Stable lowercase name used in reports and telemetry counters.
    pub fn name(self) -> &'static str {
        match self {
            OracleVerdict::TierDivergence => "tier_divergence",
            OracleVerdict::SoundnessAlarm => "soundness_alarm",
            OracleVerdict::CompletenessGap => "completeness_gap",
            OracleVerdict::Agree => "agree",
            OracleVerdict::Inconclusive => "inconclusive",
        }
    }
}

/// The [`RunConfig`] for input seed `k`: the seed drives both the
/// external environment stream and the undef-resolution policy, so two
/// oracles replaying the same `k` see the same world.
pub fn input_run_config(k: u64, fuel: u64) -> RunConfig {
    RunConfig {
        fuel,
        env_seed: k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE,
        undef: UndefPolicy::Seeded(k ^ 0x5EED_5EED),
        ..RunConfig::default()
    }
}

/// Execute the refinement leg: run `src` and `tgt` on every input seed
/// and fold the outcomes (first violation wins; otherwise fuel exhaustion
/// anywhere makes the summary inconclusive).
pub fn refinement_leg(src: &Module, tgt: &Module, cfg: &OracleConfig) -> RefinementSummary {
    refinement_leg_cached(src, tgt, cfg, None, &Telemetry::disabled()).0
}

/// [`refinement_leg`] with an optional compile cache and telemetry.
///
/// On the bytecode and differential tiers each module is lowered once
/// (per cache lifetime — the campaign keeps one cache per seed, so the
/// 4+ input seeds × both modules × every step of a seed all share
/// compilations). Records `interp.tier.compile` / `interp.tier.exec`
/// timers and the `interp.runs` / `interp.steps` work counters (one
/// result per run, so every tier counts alike); divergences witnessed
/// under [`Tier::Differential`] come back alongside the summary.
pub fn refinement_leg_cached(
    src: &Module,
    tgt: &Module,
    cfg: &OracleConfig,
    cache: Option<&mut BcCache>,
    tel: &Telemetry,
) -> (RefinementSummary, Vec<DivergenceObservation>) {
    // Compilation is RunConfig-independent: lower both modules once for
    // the whole seed fan-out.
    let compiled: Option<(Arc<CompiledModule>, Arc<CompiledModule>)> = if cfg.tier == Tier::Tree {
        None
    } else {
        match cache {
            Some(c) => {
                let n0 = c.compile_nanos;
                let pair = (c.get_or_compile(src), c.get_or_compile(tgt));
                let spent = c.compile_nanos - n0;
                if spent > 0 {
                    tel.registry()
                        .record_duration("interp.tier.compile", Duration::from_nanos(spent));
                }
                Some(pair)
            }
            None => {
                let t0 = Instant::now();
                let pair = (Arc::new(compile_module(src)), Arc::new(compile_module(tgt)));
                tel.registry()
                    .record_duration("interp.tier.compile", t0.elapsed());
                Some(pair)
            }
        }
    };
    let src_bc = compiled.as_ref().map(|pair| pair.0.as_ref());
    let tgt_bc = compiled.as_ref().map(|pair| pair.1.as_ref());

    let mut divergences = Vec::new();
    let mut out_of_fuel = 0u64;
    let (mut runs, mut steps) = (0u64, 0u64);
    let mut summary = None;
    for k in 0..cfg.input_seeds {
        let mut rc = input_run_config(k, cfg.fuel);
        rc.tier = cfg.tier;
        let span = tel.span("interp.tier.exec");
        let ts = run_main_tiered(src, &rc, src_bc);
        let tt = run_main_tiered(tgt, &rc, tgt_bc);
        drop(span);
        if let Some(d) = ts.divergence {
            divergences.push(DivergenceObservation {
                input_seed: k,
                module_role: "src",
                divergence: d,
            });
        }
        if let Some(d) = tt.divergence {
            divergences.push(DivergenceObservation {
                input_seed: k,
                module_role: "tgt",
                divergence: d,
            });
        }
        let (rs, rt) = (ts.result, tt.result);
        runs += 2;
        steps += rs.steps + rt.steps;
        if let Err(e) = check_refinement(&rs, &rt) {
            summary = Some(RefinementSummary::Fails {
                input_seed: k,
                reason: e.to_string(),
            });
            break;
        }
        if ran_out(&rs) || ran_out(&rt) {
            out_of_fuel += 1;
        }
    }
    tel.count("interp.runs", runs);
    tel.count("interp.steps", steps);
    let summary = summary.unwrap_or(if out_of_fuel > 0 {
        RefinementSummary::Inconclusive { out_of_fuel }
    } else {
        RefinementSummary::Holds
    });
    (summary, divergences)
}

fn ran_out(r: &RunResult) -> bool {
    matches!(r.end, End::OutOfFuel)
}

/// Execute the checker leg over the step's proof units, in unit order.
/// The units may be owned or borrowed (a campaign step borrows the honest
/// units it does not mutate).
pub fn checker_leg(
    units: &[impl Borrow<ProofUnit>],
    checker: &CheckerConfig,
    tel: &Telemetry,
) -> CheckerSummary {
    let mut abstained: Option<String> = None;
    for unit in units {
        match validate_with_telemetry(unit.borrow(), checker, tel) {
            Ok(Verdict::Valid) => {}
            Ok(Verdict::NotSupported(r)) => {
                abstained.get_or_insert(r);
            }
            Err(e) => return CheckerSummary::Reject(Box::new(e)),
        }
    }
    match abstained {
        Some(r) => CheckerSummary::Abstain(r),
        None => CheckerSummary::Accept,
    }
}

/// Execute the diff leg: observed target module vs the honest output.
pub fn diff_leg(honest: &Module, observed: &Module) -> DiffSummary {
    match crellvm_diff::diff_modules(honest, observed) {
        Ok(()) => DiffSummary::Clean,
        Err(e) => DiffSummary::Differs(e.to_string()),
    }
}

/// Gather all three observations for one `(program, pass)` step.
///
/// * `src` — the pass input module;
/// * `observed` — the (possibly mutation-injected) pass output actually
///   being shipped;
/// * `honest` — the unmutated pass output (diff baseline);
/// * `units` — the proof units whose `tgt` matches `observed`.
pub fn observe_step(
    src: &Module,
    observed: &Module,
    honest: &Module,
    units: &[ProofUnit],
    checker: &CheckerConfig,
    cfg: &OracleConfig,
    tel: &Telemetry,
) -> Observation {
    observe_step_cached(src, observed, honest, units, checker, cfg, None, tel)
}

/// [`observe_step`] with an optional bytecode compile cache (see
/// [`refinement_leg_cached`]).
///
/// The checker and diff legs run first; the refinement leg runs only when
/// its outcome can still change [`classify`]'s verdict, and is otherwise
/// [`RefinementSummary::Skipped`] (counted as `fuzz.refinement.skipped`).
#[allow(clippy::too_many_arguments)]
pub fn observe_step_cached(
    src: &Module,
    observed: &Module,
    honest: &Module,
    units: &[impl Borrow<ProofUnit>],
    checker: &CheckerConfig,
    cfg: &OracleConfig,
    cache: Option<&mut BcCache>,
    tel: &Telemetry,
) -> Observation {
    let checker = checker_leg(units, checker, tel);
    let diff = diff_leg(honest, observed);
    let (refinement, tier_divergences) = if needs_refinement(&checker, &diff, cfg.tier) {
        refinement_leg_cached(src, observed, cfg, cache, tel)
    } else {
        tel.count("fuzz.refinement.skipped", 1);
        (RefinementSummary::Skipped, Vec::new())
    };
    Observation {
        checker,
        refinement,
        diff,
        tier_divergences,
    }
}

/// Can the refinement leg still change [`classify`]'s verdict, given the
/// checker and diff legs? Not when the checker abstains (always
/// `Inconclusive`), nor when it rejects a target that differs from the
/// honest output (always `Agree`, and the campaign files nothing for it).
/// Under [`Tier::Differential`] the refinement runs are also the tier
/// cross-check, and a divergence overrides the whole lattice, so there it
/// always runs.
fn needs_refinement(checker: &CheckerSummary, diff: &DiffSummary, tier: Tier) -> bool {
    tier == Tier::Differential
        || match checker {
            CheckerSummary::Accept => true,
            CheckerSummary::Reject(_) => matches!(diff, DiffSummary::Clean),
            CheckerSummary::Abstain(_) => false,
        }
}

/// Fold one step's observations into the verdict lattice.
pub fn classify(obs: &Observation) -> OracleVerdict {
    if !obs.tier_divergences.is_empty() {
        // An interpreter that disagrees with itself invalidates every
        // other observation of this step.
        return OracleVerdict::TierDivergence;
    }
    match (&obs.checker, &obs.refinement) {
        (CheckerSummary::Accept, RefinementSummary::Fails { .. }) => OracleVerdict::SoundnessAlarm,
        (CheckerSummary::Accept, RefinementSummary::Holds) => OracleVerdict::Agree,
        (
            CheckerSummary::Accept,
            RefinementSummary::Inconclusive { .. } | RefinementSummary::Skipped,
        ) => OracleVerdict::Inconclusive,
        (CheckerSummary::Reject(_), RefinementSummary::Fails { .. }) => OracleVerdict::Agree,
        (CheckerSummary::Reject(_), rest) => {
            if matches!(obs.diff, DiffSummary::Differs(_)) {
                // The rejection is justified by the injected difference
                // even when no concrete run can witness it (e.g. a
                // stripped `inbounds`, which only removes behaviours).
                OracleVerdict::Agree
            } else if matches!(rest, RefinementSummary::Holds) {
                OracleVerdict::CompletenessGap
            } else {
                OracleVerdict::Inconclusive
            }
        }
        (CheckerSummary::Abstain(_), _) => OracleVerdict::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reject() -> CheckerSummary {
        CheckerSummary::Reject(Box::new(ValidationError {
            func: "f".into(),
            pass: "gvn".into(),
            at: "row".into(),
            reason: "test".into(),
            rule_history: Vec::new(),
            failing_assertion: None,
        }))
    }

    #[test]
    fn lattice_corners() {
        let obs = |checker, refinement, diff| Observation {
            checker,
            refinement,
            diff,
            tier_divergences: Vec::new(),
        };
        use CheckerSummary::*;
        use DiffSummary::*;
        use RefinementSummary::*;
        // Accept row.
        assert_eq!(
            classify(&obs(
                Accept,
                Fails {
                    input_seed: 0,
                    reason: String::new()
                },
                Clean
            )),
            OracleVerdict::SoundnessAlarm
        );
        assert_eq!(classify(&obs(Accept, Holds, Clean)), OracleVerdict::Agree);
        assert_eq!(
            classify(&obs(Accept, Inconclusive { out_of_fuel: 1 }, Clean)),
            OracleVerdict::Inconclusive
        );
        // Reject row: a witnessed violation or an injected diff justifies
        // the rejection; a conclusive clean hold exposes a gap; fuel
        // exhaustion proves nothing.
        assert_eq!(
            classify(&obs(
                reject(),
                Fails {
                    input_seed: 1,
                    reason: String::new()
                },
                Clean
            )),
            OracleVerdict::Agree
        );
        assert_eq!(
            classify(&obs(reject(), Holds, Differs("x".into()))),
            OracleVerdict::Agree
        );
        assert_eq!(
            classify(&obs(reject(), Holds, Clean)),
            OracleVerdict::CompletenessGap
        );
        assert_eq!(
            classify(&obs(reject(), Inconclusive { out_of_fuel: 2 }, Clean)),
            OracleVerdict::Inconclusive
        );
        // Abstain row.
        assert_eq!(
            classify(&obs(Abstain("ns".into()), Holds, Clean)),
            OracleVerdict::Inconclusive
        );
    }

    #[test]
    fn skipping_refinement_never_changes_the_verdict() {
        use CheckerSummary::*;
        use DiffSummary::*;
        use RefinementSummary::*;
        let checkers = || [Accept, reject(), Abstain("ns".into())];
        let diffs = || [Clean, Differs("x".into())];
        let refinements = || {
            [
                Holds,
                Fails {
                    input_seed: 0,
                    reason: String::new(),
                },
                Inconclusive { out_of_fuel: 1 },
                Skipped,
            ]
        };
        let verdict = |checker, diff, refinement| {
            classify(&Observation {
                checker,
                refinement,
                diff,
                tier_divergences: Vec::new(),
            })
        };
        for tier in [Tier::Tree, Tier::Bytecode, Tier::Differential] {
            for checker in checkers() {
                for diff in diffs() {
                    let skips = !needs_refinement(&checker, &diff, tier);
                    let case = format!("{checker:?} × {diff:?} × {tier:?}");
                    if tier == Tier::Differential || matches!(checker, Accept) {
                        assert!(!skips, "{case} must run the refinement leg");
                    }
                    if skips {
                        let verdicts: Vec<_> = refinements()
                            .into_iter()
                            .map(|r| verdict(checker.clone(), diff.clone(), r))
                            .collect();
                        assert!(
                            verdicts.iter().all(|v| *v == verdicts[0]),
                            "{case} skips, yet refinement decides: {verdicts:?}"
                        );
                    }
                }
            }
        }
        // Accept never meets Skipped; if it did, it would be no evidence.
        for diff in diffs() {
            let v = verdict(Accept, diff, Skipped);
            assert!(
                !matches!(v, OracleVerdict::SoundnessAlarm | OracleVerdict::Agree),
                "{v:?}"
            );
        }
    }

    #[test]
    fn tier_divergence_overrides_the_lattice() {
        let run = crellvm_interp::RunResult {
            events: Vec::new(),
            end: End::Ret(None),
            steps: 1,
        };
        let mut diverged = run.clone();
        diverged.steps = 2;
        let obs = Observation {
            checker: CheckerSummary::Accept,
            refinement: RefinementSummary::Holds,
            diff: DiffSummary::Clean,
            tier_divergences: vec![DivergenceObservation {
                input_seed: 0,
                module_role: "src",
                divergence: TierDivergence {
                    mismatch: "steps: tree=1 bytecode=2".into(),
                    tree: run,
                    bytecode: diverged,
                },
            }],
        };
        // Even an otherwise-agreeing step is untrustworthy if the
        // interpreter disagrees with itself.
        assert_eq!(classify(&obs), OracleVerdict::TierDivergence);
        assert_eq!(OracleVerdict::TierDivergence.name(), "tier_divergence");
    }

    #[test]
    fn differential_tier_is_silent_on_clean_modules() {
        let m = crellvm_gen::generate_module(&crellvm_gen::GenConfig {
            seed: 11,
            ..Default::default()
        });
        let cfg = OracleConfig {
            tier: Tier::Differential,
            ..OracleConfig::default()
        };
        let mut cache = BcCache::new();
        let tel = Telemetry::disabled();
        let (summary, divs) = refinement_leg_cached(&m, &m, &cfg, Some(&mut cache), &tel);
        assert!(divs.is_empty(), "{divs:?}");
        assert!(matches!(summary, RefinementSummary::Holds));
        // One module, two lookups: one miss, one hit.
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn out_of_fuel_is_never_a_pass() {
        // A module whose main loops far beyond the configured fuel.
        let m = crellvm_ir::parse_module(
            r#"
            declare @print(i32)
            define @main() {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %j, loop ]
              %j = add i32 %i, 1
              %c = icmp slt i32 %j, 1000000
              br i1 %c, label loop, label done
            done:
              call void @print(i32 %j)
              ret void
            }
            "#,
        )
        .unwrap();
        let cfg = OracleConfig {
            input_seeds: 2,
            fuel: 100,
            tier: Tier::Tree,
        };
        match refinement_leg(&m, &m, &cfg) {
            RefinementSummary::Inconclusive { out_of_fuel } => assert_eq!(out_of_fuel, 2),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn identical_modules_hold() {
        let m = crellvm_gen::generate_module(&crellvm_gen::GenConfig {
            seed: 5,
            ..Default::default()
        });
        assert!(matches!(
            refinement_leg(&m, &m, &OracleConfig::default()),
            RefinementSummary::Holds
        ));
        assert!(matches!(diff_leg(&m, &m), DiffSummary::Clean));
    }
}
