//! The oracle matrix: every injector mutation class must be caught by
//! *both* independent oracles.
//!
//! For each mutation class the suite finds a generated `(program, pass,
//! mutation)` instance and asserts:
//!
//! * **(a)** the sound ERHL checker rejects the mutated translation under
//!   the honest pass's proof — the checker leg works;
//! * **(b)** with the checker deliberately weakened to accept everything
//!   (`CheckerConfig::weakened_accept_all()`, a test-only knob), the
//!   *other* leg still catches the same mutation: interpreter-based
//!   refinement for the interp-catchable classes, the structural diff for
//!   `StripInbounds` (which is refinement-preserving by construction —
//!   dropping `inbounds` only removes poison).
//!
//! Pinning (b) under a checker that accepts everything is what makes the
//! matrix meaningful: it proves the two oracles are genuinely
//! independent, so a checker soundness bug cannot hide a miscompilation
//! from the campaign.

use crellvm::erhl::{validate, validate_with_config, CheckerConfig};
use crellvm::fuzz::oracle::{
    diff_leg, refinement_leg, DiffSummary, OracleConfig, RefinementSummary,
};
use crellvm::gen::{generate_module, mutation_sites, BugClass, GenConfig, Mutation, MutationPlan};
use crellvm::ir::Module;
use crellvm::passes::{run_pass, PassConfig, PASS_ORDER};

/// Discriminant key for grouping mutations into their class rows.
fn variant(m: &Mutation) -> &'static str {
    match m {
        Mutation::DropStore { .. } => "drop_store",
        Mutation::UndefizeLoad { .. } => "undefize_load",
        Mutation::StripInbounds { .. } => "strip_inbounds",
        Mutation::AddInbounds { .. } => "add_inbounds",
        Mutation::FlipIcmpPred { .. } => "flip_icmp_pred",
        Mutation::SwapNonCommutative { .. } => "swap_non_commutative",
        Mutation::PerturbPhiIncoming { .. } => "perturb_phi_incoming",
    }
}

/// The full class table: every injector variant, its paper bug class,
/// and which independent oracle must catch it when the checker is
/// weakened.
const MATRIX: [(&str, BugClass, /* diff-only */ bool); 7] = [
    ("drop_store", BugClass::Pr24179, false),
    ("perturb_phi_incoming", BugClass::Pr24179, false),
    ("undefize_load", BugClass::Pr33673, false),
    ("strip_inbounds", BugClass::Pr28562, true),
    ("add_inbounds", BugClass::Pr28562, false),
    ("flip_icmp_pred", BugClass::Pr29057, false),
    ("swap_non_commutative", BugClass::Pr29057, false),
];

#[test]
fn every_mutation_class_is_caught_by_both_oracles() {
    let honest = PassConfig::default();
    let weakened = CheckerConfig::weakened_accept_all();
    let oracle = OracleConfig::default();
    let mut caught: std::collections::BTreeMap<&str, bool> =
        MATRIX.iter().map(|(v, _, _)| (*v, false)).collect();

    'seeds: for seed in 0..120u64 {
        let mut cur = generate_module(&GenConfig {
            seed,
            bug_bait_rate: 0.5,
            ..GenConfig::default()
        });
        for pass in PASS_ORDER {
            let out = run_pass(pass, &cur, &honest);
            for (fi, f) in out.module.functions.iter().enumerate() {
                for m in mutation_sites(f) {
                    let row = variant(&m);
                    if caught[row] {
                        continue;
                    }
                    let (_, _, diff_only) = MATRIX
                        .iter()
                        .find(|(v, _, _)| *v == row)
                        .expect("variant in matrix");

                    // Build the mutated translation: pass output function
                    // and the matching proof unit's target.
                    let plan = MutationPlan {
                        mutations: vec![m.clone()],
                    };
                    let mutated_f = plan.applied(f);
                    let mut observed = out.module.clone();
                    observed.functions[fi] = mutated_f.clone();
                    let Some(unit) = out.proofs.iter().find(|u| u.src.name == mutated_f.name)
                    else {
                        continue;
                    };
                    let mut unit = unit.clone();
                    unit.tgt = mutated_f;

                    // (a) the sound checker must reject the mutation.
                    if validate(&unit).is_ok() {
                        continue;
                    }

                    // (b) the weakened checker must NOT reject it (the
                    // knob really does disable the checker leg) …
                    assert!(
                        matches!(
                            validate_with_config(&unit, &weakened),
                            Ok(crellvm::erhl::Verdict::Valid)
                        ),
                        "weakened checker still rejected seed {seed} {pass} {m:?}"
                    );

                    // … and the independent leg must catch it anyway.
                    let independent_catch = if *diff_only {
                        matches!(diff_leg(&out.module, &observed), DiffSummary::Differs(_))
                    } else {
                        matches!(
                            refinement_leg(&cur, &observed, &oracle),
                            RefinementSummary::Fails { .. }
                        )
                    };
                    if independent_catch {
                        *caught.get_mut(row).unwrap() = true;
                        if caught.values().all(|c| *c) {
                            break 'seeds;
                        }
                    }
                }
            }
            cur = out.module;
        }
    }

    let missing: Vec<&str> = caught
        .iter()
        .filter(|(_, c)| !**c)
        .map(|(v, _)| *v)
        .collect();
    assert!(
        missing.is_empty(),
        "mutation classes never caught by both oracles: {missing:?}"
    );
}

#[test]
fn differential_tier_is_clean_over_the_matrix_corpus() {
    // Acceptance gate for the bytecode tier: over the same corpus the
    // matrix sweeps — generated modules, every pass output, and a sample
    // of mutated translations — `Tier::Differential` must report zero
    // divergences. The lowering has to stay faithful on adversarial
    // modules (mutated IR) just as much as on healthy ones, because the
    // fuzz oracle executes both.
    use crellvm::interp::{run_main_tiered, RunConfig, Tier};
    let honest = PassConfig::default();
    let mut modules = 0u32;
    let mut check = |m: &Module| {
        for env_seed in [0xC0FFEE_u64, 3] {
            let cfg = RunConfig {
                tier: Tier::Differential,
                env_seed,
                ..RunConfig::default()
            };
            let run = run_main_tiered(m, &cfg, None);
            assert!(
                run.divergence.is_none(),
                "tier divergence on the matrix corpus: {}",
                run.divergence.unwrap().mismatch
            );
        }
        modules += 1;
    };
    for seed in 0..40u64 {
        let mut cur = generate_module(&GenConfig {
            seed,
            bug_bait_rate: 0.5,
            ..GenConfig::default()
        });
        check(&cur);
        for pass in PASS_ORDER {
            let out = run_pass(pass, &cur, &honest);
            check(&out.module);
            if let Some(f0) = out.module.functions.first() {
                if let Some(m) = mutation_sites(f0).into_iter().next() {
                    let plan = MutationPlan { mutations: vec![m] };
                    let mut observed = out.module.clone();
                    observed.functions[0] = plan.applied(f0);
                    check(&observed);
                }
            }
            cur = out.module;
        }
    }
    assert!(modules > 100, "matrix corpus unexpectedly small: {modules}");
}

#[test]
fn mutation_classes_map_to_paper_bugs() {
    for (variant_name, class, _) in MATRIX {
        // The table itself must agree with the injector's own tagging.
        let tagged = match variant_name {
            "drop_store" => Mutation::DropStore { block: 0, stmt: 0 }.bug_class(),
            "perturb_phi_incoming" => Mutation::PerturbPhiIncoming {
                block: 0,
                phi: 0,
                incoming: 0,
            }
            .bug_class(),
            "undefize_load" => Mutation::UndefizeLoad { block: 0, stmt: 0 }.bug_class(),
            "strip_inbounds" => Mutation::StripInbounds { block: 0, stmt: 0 }.bug_class(),
            "add_inbounds" => Mutation::AddInbounds { block: 0, stmt: 0 }.bug_class(),
            "flip_icmp_pred" => Mutation::FlipIcmpPred { block: 0, stmt: 0 }.bug_class(),
            "swap_non_commutative" => {
                Mutation::SwapNonCommutative { block: 0, stmt: 0 }.bug_class()
            }
            other => panic!("unknown variant {other}"),
        };
        assert_eq!(
            tagged, class,
            "{variant_name} tagged with the wrong bug class"
        );
    }
}

#[test]
fn strip_inbounds_is_refinement_preserving() {
    // The diff-only row is diff-only for a reason: stripping `inbounds`
    // can only *remove* poison, so refinement must hold — pin that the
    // refinement leg genuinely cannot catch this class (if it ever could,
    // the row should be tightened instead).
    let oracle = OracleConfig::default();
    let honest = PassConfig::default();
    let mut checked = 0;
    for seed in 0..40u64 {
        let cur = generate_module(&GenConfig {
            seed,
            bug_bait_rate: 0.5,
            ..GenConfig::default()
        });
        let out = run_pass("mem2reg", &cur, &honest);
        for (fi, f) in out.module.functions.iter().enumerate() {
            for m in mutation_sites(f) {
                if !matches!(m, Mutation::StripInbounds { .. }) {
                    continue;
                }
                let plan = MutationPlan { mutations: vec![m] };
                let mut observed = out.module.clone();
                observed.functions[fi] = plan.applied(f);
                assert!(
                    matches!(
                        refinement_leg(&cur, &observed, &oracle),
                        RefinementSummary::Holds
                    ),
                    "seed {seed}: strip-inbounds changed observable behaviour"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no strip-inbounds sites found in 40 seeds");
}
