//! `fuzz`: the soundness campaign of `crellvm fuzz --jobs 1 --compiler
//! 3.7.1 --mutate-rate 0.25`, one `run_campaign` call per seed.
//!
//! Every run calls the same campaign seeds, `SEEDS`, in an order
//! `--seed` sets. Campaign seeds differ in cost by orders of magnitude (a
//! seed whose program loops until the interpreter's fuel runs out costs
//! hundreds of ordinary ones), so a seed range drawn per run would make
//! runs do different amounts of work.

use crate::metrics::{end_to_end, measure, per_layer, Outcome};
use crate::opt::live_telemetry;
use crate::pinned::{fuzz_table, verdict_letter, PinnedSeed, SeedAnswer};
use crate::replay::{bump, Counts};
use crate::stats::shuffled;
use crate::trace::{traced_wall, Tracer};
use crate::RunArgs;
use crellvm_core::{validate, CheckerConfig};
use crellvm_fuzz::oracle::{checker_leg, diff_leg, input_run_config};
use crellvm_fuzz::{
    classify, run_campaign, CampaignConfig, CampaignReport, CheckerSummary, DiffSummary,
    Observation, OracleVerdict, RefinementSummary,
};
use crellvm_gen::{generate_module, GenConfig, MutationPlan, SplitMix64};
use crellvm_interp::{check_refinement, run_main_tiered, BcCache, CompileOptions, End, Tier};
use crellvm_ir::Module;
use crellvm_passes::pipeline::PASS_ORDER;
use crellvm_passes::{gvn, instcombine, licm, mem2reg, BugSet, PassConfig, PassOutcome};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The campaign seeds of every run: one block of the measurement.
pub const SEEDS: Range<u64> = 0..64;
/// Seeds run as the set-up's warm-up.
const WARM_UP: usize = 4;

/// The campaign configuration: defaults except jobs, compiler and
/// mutate rate (so a change of the default oracle tier shows here).
pub fn config(seeds: Range<u64>) -> CampaignConfig {
    CampaignConfig {
        seed_start: seeds.start,
        seed_end: seeds.end,
        jobs: 1,
        compiler: "3.7.1".into(),
        bugs: CampaignConfig::bugs_for_compiler("3.7.1").expect("3.7.1 is a known compiler"),
        mutate_rate: 0.25,
        ..CampaignConfig::default()
    }
}

/// Compare a campaign report with the pinned answer of its seed.
fn judge(report: &CampaignReport, answer: &SeedAnswer) -> Result<(), String> {
    for bad in ["soundness_alarm", "tier_divergence"] {
        if report.verdicts.get(bad).copied().unwrap_or(0) > 0 {
            return Err(format!("{bad} verdicts"));
        }
    }
    let mut pinned: BTreeMap<char, u64> = BTreeMap::new();
    for c in answer.verdicts.chars() {
        *pinned.entry(c).or_insert(0) += 1;
    }
    let got: BTreeMap<char, u64> = [
        OracleVerdict::Agree,
        OracleVerdict::Inconclusive,
        OracleVerdict::CompletenessGap,
        OracleVerdict::SoundnessAlarm,
        OracleVerdict::TierDivergence,
    ]
    .into_iter()
    .map(|v| {
        (
            verdict_letter(v),
            report.verdicts.get(v.name()).copied().unwrap_or(0),
        )
    })
    .filter(|(_, n)| *n > 0)
    .collect();
    if got != pinned {
        return Err(format!("verdicts {got:?}, pinned {pinned:?}"));
    }
    let mut attributed: BTreeMap<String, u64> = BTreeMap::new();
    for b in &answer.attributed {
        *attributed.entry(b.clone()).or_insert(0) += 1;
    }
    if report.attributed != attributed {
        return Err(format!(
            "attribution {:?}, pinned {attributed:?}",
            report.attributed
        ));
    }
    if report.findings.len() as u64 != answer.findings {
        return Err(format!(
            "{} findings, pinned {}",
            report.findings.len(),
            answer.findings
        ));
    }
    Ok(())
}

/// One untraced campaign call over one seed; returns its oracle steps.
fn campaign(seed: u64, answer: &SeedAnswer) -> Result<u64, String> {
    let cfg = config(seed..seed + 1);
    let report = catch_unwind(AssertUnwindSafe(|| run_campaign(&cfg, &live_telemetry())))
        .map_err(|_| "panicked".to_string())?;
    judge(&report, answer)?;
    Ok(report.steps)
}

/// Pin every campaign seed from the program itself (for `perfbench
/// pin`): the campaign's report, with the verdict order taken from the
/// replay, which must agree with it.
pub fn pin_seeds() -> Result<Vec<PinnedSeed>, String> {
    let mut pinned = Vec::new();
    for seed in SEEDS {
        let report = run_campaign(&config(seed..seed + 1), &live_telemetry());
        let mut attributed: Vec<String> = report
            .findings
            .iter()
            .flat_map(|f| f.attributed_bugs.iter().cloned())
            .collect();
        attributed.sort();
        let replayed = replay_seed(
            seed,
            &config(seed..seed + 1),
            &mut Tracer::default(),
            &mut Counts::new(),
        );
        let answer = SeedAnswer {
            verdicts: replayed.answer.verdicts.clone(),
            findings: report.findings.len() as u64,
            attributed,
        };
        if let Some(p) = replayed.problems.first() {
            return Err(format!("seed {seed}: {p}"));
        }
        judge(&report, &answer).map_err(|e| format!("seed {seed}: {e}"))?;
        if replayed.answer != answer {
            return Err(format!(
                "seed {seed}: replay {:?} != campaign {answer:?}",
                replayed.answer
            ));
        }
        pinned.push(PinnedSeed { seed, answer });
    }
    Ok(pinned)
}

struct Setup {
    seeds: Vec<PinnedSeed>,
    order: Vec<usize>,
}

fn setup(seed: u64, out: &mut Outcome) -> Result<Setup, String> {
    let seeds = fuzz_table();
    if !seeds.iter().map(|p| p.seed).eq(SEEDS) {
        return Err("the pinned fuzz table does not match the campaign seeds".into());
    }
    // Warm-up: the first seeds, so lazy one-time work is not timed.
    for p in &seeds[..WARM_UP] {
        if let Err(e) = campaign(p.seed, &p.answer) {
            out.fail(format!("warm-up seed {}: {e}", p.seed));
        }
    }
    let order = shuffled(seeds.len(), seed);
    Ok(Setup { seeds, order })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    out.facts
        .insert("oracle_tier", config(0..1).oracle.tier.name().to_string());
    out.facts
        .insert("seeds", format!("{}..{}", SEEDS.start, SEEDS.end));
    if args.trace {
        let s = setup(args.seed, &mut out)?;
        traced(&s, &mut out);
        return Ok(out);
    }
    // One block is one pass over the seeds, in the seeded order.
    let m = measure(
        args.seconds,
        SEEDS.count(),
        &mut out,
        |out| setup(args.seed, out),
        |_, _| {},
        |s, j| {
            let p = &s.seeds[s.order[j]];
            let t = Instant::now();
            let steps = campaign(p.seed, &p.answer).map_err(|e| format!("seed {}: {e}", p.seed))?;
            Ok((t.elapsed().as_secs_f64() * 1e3, steps))
        },
    )?;
    end_to_end(&mut out, &m, "campaign call of one seed");
    Ok(out)
}

/// One pass over the seeds: each seed's campaign call untraced, then the
/// seed replayed with spans.
fn traced(s: &Setup, out: &mut Outcome) {
    let mut tr = Tracer::default();
    let mut counts = Counts::new();
    let mut untraced = Duration::ZERO;
    for &i in &s.order {
        let p = &s.seeds[i];
        out.attempted += 1;
        let t = Instant::now();
        let mut result = campaign(p.seed, &p.answer).map(|_| ());
        untraced += t.elapsed();
        let root = tr.enter("unit");
        let r = replay_seed(p.seed, &config(p.seed..p.seed + 1), &mut tr, &mut counts);
        tr.exit(root);
        if let Some(problem) = r.problems.first() {
            result = result.and(Err(problem.clone()));
        } else if r.answer != p.answer {
            result = result.and(Err(format!("replay {:?} != pinned", r.answer)));
        }
        if let Err(e) = result {
            out.failed += 1;
            out.fail(format!("seed {}: {e}", p.seed));
        }
    }
    let wall = traced_wall(tr.spans());
    per_layer(out, &tr, &counts, s.seeds.len() as u64, untraced, wall);
}

/// One pass by pipeline name, as the campaign runs it.
fn run_pass(name: &str, m: &Module, config: &PassConfig) -> PassOutcome {
    match name {
        "mem2reg" => mem2reg(m, config),
        "instcombine" => instcombine(m, config),
        "gvn" => gvn(m, config),
        "licm" => licm(m, config),
        other => panic!("unknown pass {other}"),
    }
}

/// The per-(seed, pass) mutation stream of the campaign.
fn mutation_rng(seed: u64, pass_index: usize) -> SplitMix64 {
    const MUTATE_STREAM: u64 = 0x6D75_7461_7465_2121;
    SplitMix64::seed_from_u64(
        seed ^ MUTATE_STREAM ^ ((pass_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// The individually enabled bugs of a population, in the campaign's
/// attribution order.
fn single_bugs(bugs: &BugSet) -> Vec<(&'static str, BugSet)> {
    let none = BugSet::none();
    [
        (
            "pr24179",
            bugs.pr24179,
            BugSet {
                pr24179: true,
                ..none
            },
        ),
        (
            "pr33673",
            bugs.pr33673,
            BugSet {
                pr33673: true,
                ..none
            },
        ),
        (
            "pr28562",
            bugs.pr28562,
            BugSet {
                pr28562: true,
                ..none
            },
        ),
        (
            "d38619",
            bugs.d38619,
            BugSet {
                d38619: true,
                ..none
            },
        ),
    ]
    .into_iter()
    .filter(|(_, on, _)| *on)
    .map(|(name, _, single)| (name, single))
    .collect()
}

pub struct SeedReplay {
    pub answer: SeedAnswer,
    /// Broken expectations: alarms, tier divergences, injected steps
    /// that did not come out `agree`.
    pub problems: Vec<String>,
}

/// Replay one campaign seed through the public functions the campaign
/// calls (generate, pass, inject, the three oracle legs, attribution,
/// forensics), one span per call.
pub fn replay_seed(
    seed: u64,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> SeedReplay {
    let tel = live_telemetry();
    let gen_cfg = GenConfig {
        seed,
        functions: cfg.functions,
        bug_bait_rate: cfg.bait_rate,
        ..GenConfig::default()
    };
    let mut cur = tr.time("gen.generate", || generate_module(&gen_cfg));
    let pass_config = PassConfig::with_bugs(cfg.bugs);
    let checker: CheckerConfig = cfg.checker.clone();
    let mut bc = (cfg.oracle.tier != Tier::Tree).then(|| {
        BcCache::with_options(CompileOptions {
            miscompile_sub_as_add: cfg.bc_miscompile,
        })
    });
    let mut answer = SeedAnswer {
        verdicts: String::new(),
        findings: 0,
        attributed: Vec::new(),
    };
    let mut problems = Vec::new();
    for (pi, pass) in PASS_ORDER.iter().enumerate() {
        let honest = tr.time("passes.pcal", || run_pass(pass, &cur, &pass_config));
        bump(counts, "passes.steps", 1);
        let stmts: usize = honest.module.functions.iter().map(|f| f.stmt_count()).sum();
        bump(counts, "passes.stmts_out", stmts as u64);

        let (observed, units, injected) = tr.time("gen.mutate", || {
            let mut rng = mutation_rng(seed, pi);
            let mut observed = honest.module.clone();
            let mut units = honest.proofs.clone();
            let mut injected = false;
            for fi in 0..honest.module.functions.len() {
                if rng.gen_bool(cfg.mutate_rate) {
                    let count = rng.gen_range(1..=cfg.max_mutations.max(1));
                    let plan = MutationPlan::sample(&honest.module.functions[fi], &mut rng, count);
                    if !plan.is_empty() {
                        injected = true;
                        let mutated = plan.applied(&observed.functions[fi]);
                        if let Some(u) = units.iter_mut().find(|u| u.src.name == mutated.name) {
                            u.tgt = mutated.clone();
                        }
                        observed.functions[fi] = mutated;
                    }
                }
            }
            (observed, units, injected)
        });

        // Refinement leg: compile once, then both modules per input seed.
        let compiled = bc.as_mut().map(|c| {
            tr.time("interp.compile", || {
                (c.get_or_compile(&cur), c.get_or_compile(&observed))
            })
        });
        let mut refinement = None;
        let mut out_of_fuel = 0;
        let mut divergences = Vec::new();
        for k in 0..cfg.oracle.input_seeds {
            let mut rc = input_run_config(k, cfg.oracle.fuel);
            rc.tier = cfg.oracle.tier;
            let src_bc = compiled.as_ref().map(|p| p.0.as_ref());
            let tgt_bc = compiled.as_ref().map(|p| p.1.as_ref());
            let (ts, tt) = tr.time("interp.exec", || {
                (
                    run_main_tiered(&cur, &rc, src_bc),
                    run_main_tiered(&observed, &rc, tgt_bc),
                )
            });
            bump(counts, "interp.runs", 2);
            bump(counts, "interp.steps", ts.result.steps + tt.result.steps);
            let ran_out = |e: &End| matches!(e, End::OutOfFuel);
            let conclusive = [&ts.result.end, &tt.result.end]
                .into_iter()
                .filter(|e| !ran_out(e))
                .count();
            bump(counts, "interp.conclusive", conclusive as u64);
            divergences.extend(ts.divergence.iter().chain(&tt.divergence).cloned());
            if let Err(e) = tr.time("interp.refine", || check_refinement(&ts.result, &tt.result)) {
                refinement = Some(RefinementSummary::Fails {
                    input_seed: k,
                    reason: e.to_string(),
                });
                break;
            }
            if ran_out(&ts.result.end) || ran_out(&tt.result.end) {
                out_of_fuel += 1;
            }
        }
        let refinement = refinement.unwrap_or(if out_of_fuel > 0 {
            RefinementSummary::Inconclusive { out_of_fuel }
        } else {
            RefinementSummary::Holds
        });
        if !divergences.is_empty() {
            problems.push(format!("{pass}: {} tier divergences", divergences.len()));
        }

        let checked = tr.time("core.check", || checker_leg(&units, &checker, &tel));
        let diff = tr.time("diff.diff", || diff_leg(&honest.module, &observed));
        let obs = Observation {
            checker: checked,
            refinement,
            diff,
            tier_divergences: Vec::new(),
        };
        let verdict = classify(&obs);
        answer.verdicts.push(verdict_letter(verdict));
        if verdict == OracleVerdict::SoundnessAlarm {
            problems.push(format!("{pass}: soundness alarm"));
        }
        if injected && verdict != OracleVerdict::Agree {
            problems.push(format!("{pass}: injected step came out {}", verdict.name()));
        }
        if let (
            OracleVerdict::Agree | OracleVerdict::CompletenessGap,
            CheckerSummary::Reject(err),
            DiffSummary::Clean,
        ) = (verdict, &obs.checker, &obs.diff)
        {
            // An organic rejection: attribute it to the single bugs that
            // reproduce it, and build its forensic bundle.
            for (name, single) in single_bugs(&cfg.bugs) {
                let rerun = tr.time("passes.pcal", || {
                    run_pass(pass, &cur, &PassConfig::with_bugs(single))
                });
                let failed = rerun
                    .proofs
                    .iter()
                    .filter(|u| u.src.name == err.func)
                    .any(|u| tr.time("core.check", || validate(u)).is_err());
                if failed {
                    answer.attributed.push(name.to_string());
                }
            }
            if let Some(u) = units.iter().find(|u| u.src.name == err.func) {
                tr.time("core.forensics", || {
                    crellvm_core::forensics::forensic_bundle(u, err, &checker).to_json()
                });
            }
            answer.findings += 1;
            bump(counts, "fuzz.findings", 1);
        }
        cur = honest.module;
    }
    if let Some(c) = &bc {
        bump(counts, "interp.bc.hits", c.hits);
        bump(counts, "interp.bc.misses", c.misses);
    }
    for (counter, metric) in [
        ("checker.rows", "core.proof_cmds"),
        ("checker.failures", "core.check.failed"),
        ("checker.not_supported", "core.check.not_supported"),
    ] {
        bump(counts, metric, tel.registry().counter_value(counter));
    }
    answer.attributed.sort();
    SeedReplay { answer, problems }
}
