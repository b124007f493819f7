//! Reproducible parallel fuzzing campaigns.
//!
//! A campaign runs a seed range through the full generate → optimize →
//! inject → oracle protocol:
//!
//! 1. **Generate** the module for seed `s` ([`crellvm_gen::generate_module`]
//!    with the campaign's generator knobs);
//! 2. for each pass of the `-O2`-like pipeline, run the **honest** pass
//!    (with the configured historical [`BugSet`]), then — with the
//!    campaign's mutate rate — **inject** a seeded [`MutationPlan`] into
//!    the pass output and the matching proof targets;
//! 3. hand the step to the three-way **oracle** ([`crate::oracle`]) and
//!    classify it on the alarm/gap/agree/inconclusive lattice;
//! 4. **minimize** every finding: mutation-induced findings by `ddmin`
//!    over the mutation plan, organic checker rejections by the existing
//!    proof-command `ddmin` ([`crellvm_core::forensics::forensic_bundle`]);
//! 5. **attribute** organic rejections to the historical bugs that
//!    reproduce them (re-running the pass with each bug enabled alone).
//!
//! The *honest* output propagates to the next pass regardless of
//! injection, so one bad mutation cannot poison the rest of the pipeline.
//!
//! # Reproducibility contract
//!
//! Everything seed `s` does is a pure function of `(s, CampaignConfig,
//! GEN_PRNG_VERSION)` — the per-pass mutation RNG is derived from `s`
//! alone, never from global state, the seed range, or the worker that ran
//! it. Consequently a finding replays with a 1-seed campaign
//! (`--seeds s..s+1`), and the deterministic report is byte-identical at
//! any `--jobs` count: seeds fan out over the shared work-stealing pool
//! ([`crellvm_passes::schedule`]), per-worker telemetry merges
//! commutatively, and results reassemble in seed order.

use crate::oracle::{
    classify, input_run_config, observe_step_cached, CheckerSummary, DiffSummary,
    DivergenceObservation, Observation, OracleConfig, OracleVerdict, RefinementSummary,
};
use crellvm_core::{validate, CheckerConfig, ProofUnit};
use crellvm_gen::{
    generate_module, GenConfig, Mutation, MutationPlan, SplitMix64, GEN_PRNG_VERSION,
};
use crellvm_interp::{compile_module_with, run_main_tiered, BcCache, CompileOptions, Tier};
use crellvm_ir::Module;
use crellvm_passes::{run_pass, BugSet, PassConfig, PassOutcome, PASS_ORDER};
use crellvm_telemetry::forensics::ddmin;
use crellvm_telemetry::{Progress, Registry, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Campaign configuration (the `crellvm fuzz` flag surface plus the
/// generator knobs the CLI keeps fixed).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Worker threads for the seed fan-out (`0` = machine parallelism).
    pub jobs: usize,
    /// Probability that a function of a pass output gets a mutation plan
    /// injected.
    pub mutate_rate: f64,
    /// Maximum mutations per injected plan (≥1; sampled uniformly).
    pub max_mutations: usize,
    /// The compiler's historical bug population.
    pub bugs: BugSet,
    /// Display name of the bug population (`3.7.1`, `5.0.1-pre`, `none`)
    /// — recorded in reports and repro commands.
    pub compiler: String,
    /// Worker functions per generated module.
    pub functions: usize,
    /// Generator bug-bait rate (campaigns run hotter than the
    /// [`GenConfig`] default so bounded seed ranges still exercise every
    /// historical bug shape).
    pub bait_rate: f64,
    /// Refinement-leg configuration.
    pub oracle: OracleConfig,
    /// Checker configuration for the checker leg. Campaigns run the
    /// sound checker; tests weaken it
    /// ([`CheckerConfig::weakened_accept_all`]) to drive the
    /// soundness-alarm path end to end.
    pub checker: CheckerConfig,
    /// TEST-ONLY: compile the bytecode tier with a deliberately broken
    /// lowering ([`CompileOptions::miscompile_sub_as_add`]) so the
    /// `TierDivergence` path can be driven end to end — the mirror of
    /// `weakened_accept_all` for the interpreter oracle.
    pub bc_miscompile: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed_start: 0,
            seed_end: 100,
            jobs: 0,
            mutate_rate: 0.0,
            max_mutations: 3,
            bugs: BugSet::none(),
            compiler: "none".into(),
            functions: 3,
            bait_rate: 0.25,
            oracle: OracleConfig::default(),
            checker: CheckerConfig::sound(),
            bc_miscompile: false,
        }
    }
}

impl CampaignConfig {
    /// Map a `--compiler` flag value to its bug population; `None` for an
    /// unknown name. Besides the version names, each historical bug id
    /// selects a single-bug population, so per-bug repro commands stay
    /// runnable.
    pub fn bugs_for_compiler(name: &str) -> Option<BugSet> {
        match name {
            "3.7.1" => Some(BugSet::llvm_3_7_1()),
            "5.0.1-pre" => Some(BugSet::llvm_5_0_1_prepatch()),
            "5.0.1-post" | "none" => Some(BugSet::none()),
            "pr24179" => Some(BugSet {
                pr24179: true,
                ..BugSet::none()
            }),
            "pr33673" => Some(BugSet {
                pr33673: true,
                ..BugSet::none()
            }),
            "pr28562" => Some(BugSet {
                pr28562: true,
                ..BugSet::none()
            }),
            "d38619" => Some(BugSet {
                d38619: true,
                ..BugSet::none()
            }),
            _ => None,
        }
    }

    /// The one-line reproduction command for a finding at `seed`.
    pub fn repro_command(&self, seed: u64) -> String {
        format!(
            "crellvm fuzz --seeds {}..{} --jobs 1 --mutate-rate {} --compiler {} --out findings",
            seed,
            seed + 1,
            self.mutate_rate,
            self.compiler
        )
    }
}

/// What kind of finding this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// Checker accepted, refinement refuted: the nonzero-exit condition.
    SoundnessAlarm,
    /// Checker rejected a clean translation that held conclusively.
    CompletenessGap,
    /// Checker rejected an *uninjected* translation: a (historical) pass
    /// bug caught, the paper's §7 outcome.
    Rejection,
    /// The interpreter tiers disagreed on an observable: a bug in the
    /// fuzzing *oracle itself* (bytecode lowering, dispatch loop, or the
    /// shared core), found for free by differential execution.
    TierDivergence,
}

/// A minimized, replayable campaign finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// Program seed.
    pub seed: u64,
    /// Pass whose step tripped the oracle.
    pub pass: String,
    /// The function the finding is anchored to (rejecting unit, or the
    /// mutated functions joined with `+` for module-level alarms).
    pub func: String,
    /// Finding kind.
    pub kind: FindingKind,
    /// The oracle's reason (validation error or refinement violation).
    pub reason: String,
    /// The minimized mutation plan (empty for organic findings).
    pub mutations: Vec<Mutation>,
    /// Bug classes modeled by the minimized mutations.
    pub mutation_classes: Vec<String>,
    /// Historical bugs that individually reproduce an organic rejection.
    pub attributed_bugs: Vec<String>,
    /// Whether minimization ran and converged (`ddmin` post-state).
    pub minimized: bool,
    /// A replayable proof-command forensic bundle (organic rejections).
    pub forensic_bundle_json: Option<String>,
    /// One-line reproduction command.
    pub repro: String,
    /// PRNG version the seed is valid under.
    pub gen_prng_version: u32,
}

impl Finding {
    /// Deterministic file stem for the findings directory.
    pub fn file_stem(&self) -> String {
        format!("finding-{}-{}-{}", self.seed, self.pass, self.func)
    }
}

/// One seed's oracle verdicts (pass name → lattice verdict), plus its
/// findings.
struct SeedOutcome {
    verdicts: Vec<OracleVerdict>,
    findings: Vec<Finding>,
}

/// The campaign's deterministic report: everything here is a pure
/// function of the configuration, so it is byte-identical across
/// `--jobs` counts (wall-clock timers and steal counters are deliberately
/// excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// PRNG version the seeds are valid under.
    pub prng_version: u32,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Bug-population display name.
    pub compiler: String,
    /// Injection probability per function per pass.
    pub mutate_rate: f64,
    /// Total `(program, pass)` steps oracled.
    pub steps: u64,
    /// Lattice verdict counts (`agree` / `soundness_alarm` /
    /// `completeness_gap` / `inconclusive`).
    pub verdicts: BTreeMap<String, u64>,
    /// All findings, in (seed, pass) order.
    pub findings: Vec<Finding>,
    /// Historical-bug attribution counts over organic rejections.
    pub attributed: BTreeMap<String, u64>,
    /// Per-inference-rule application counts (`checker.rule.*` with the
    /// prefix stripped), merged from every worker.
    pub rule_coverage: BTreeMap<String, u64>,
}

impl CampaignReport {
    /// Serialize deterministically (sorted maps, ordered findings).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Parse a report back (replay tooling, tests).
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error rendered as a string.
    pub fn from_json(input: &str) -> Result<CampaignReport, String> {
        serde_json::from_str(input).map_err(|e| e.to_string())
    }

    /// Does any soundness alarm survive minimization? (The campaign's
    /// nonzero-exit condition: `ddmin` only ever *keeps* reproducing
    /// subsets, so every alarm finding survives by construction.)
    pub fn has_soundness_alarm(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.kind == FindingKind::SoundnessAlarm)
    }

    /// Findings of one kind.
    pub fn findings_of(&self, kind: FindingKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }
}

/// Derivation constant for the per-(seed, pass) mutation RNG stream:
/// keeps it disjoint from the generator's own stream for the same seed.
const MUTATE_STREAM: u64 = 0x6D75_7461_7465_2121; // "mutate!!"

fn mutation_rng(seed: u64, pass_index: usize) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed ^ MUTATE_STREAM ^ ((pass_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Apply `plans` (function index → mutation subset selected by `keep`,
/// indexed over the flattened mutation list) to fresh clones of the
/// honest output and proof units.
fn rebuild_observed(
    honest: &Module,
    units: &[ProofUnit],
    plans: &[(usize, MutationPlan)],
    keep: &[bool],
) -> (Module, Vec<ProofUnit>) {
    let mut observed = honest.clone();
    let mut new_units = units.to_vec();
    let mut offset = 0usize;
    for (fi, plan) in plans {
        let n = plan.mutations.len();
        let mask = &keep[offset..offset + n];
        offset += n;
        let mutated = plan.applied_subset(&observed.functions[*fi], mask);
        let name = mutated.name.clone();
        observed.functions[*fi] = mutated.clone();
        if let Some(u) = new_units.iter_mut().find(|u| u.src.name == name) {
            u.tgt = mutated;
        }
    }
    (observed, new_units)
}

/// The flattened mutation list of a plan set.
fn flatten_plans(plans: &[(usize, MutationPlan)]) -> Vec<Mutation> {
    plans
        .iter()
        .flat_map(|(_, p)| p.mutations.iter().cloned())
        .collect()
}

/// Sorted, deduplicated bug-class names of a mutation list.
fn classes_of(mutations: &[Mutation]) -> Vec<String> {
    let mut v: Vec<String> = mutations
        .iter()
        .map(|m| m.bug_class().name().to_string())
        .collect();
    v.sort();
    v.dedup();
    v
}

/// The individually enabled bugs of a [`BugSet`], by field name.
fn enabled_bugs(bugs: &BugSet) -> Vec<(&'static str, BugSet)> {
    let mut v = Vec::new();
    if bugs.pr24179 {
        v.push((
            "pr24179",
            BugSet {
                pr24179: true,
                ..BugSet::none()
            },
        ));
    }
    if bugs.pr33673 {
        v.push((
            "pr33673",
            BugSet {
                pr33673: true,
                ..BugSet::none()
            },
        ));
    }
    if bugs.pr28562 {
        v.push((
            "pr28562",
            BugSet {
                pr28562: true,
                ..BugSet::none()
            },
        ));
    }
    if bugs.d38619 {
        v.push((
            "d38619",
            BugSet {
                d38619: true,
                ..BugSet::none()
            },
        ));
    }
    v
}

/// Attribute an organic rejection of `func` under `pass` to the
/// historical bugs that reproduce it individually: re-run the pass on the
/// same input with exactly one bug enabled and check whether validation
/// of that function still fails.
fn attribute_bugs(pass: &str, input: &Module, func: &str, bugs: &BugSet) -> Vec<String> {
    let mut out = Vec::new();
    for (name, single) in enabled_bugs(bugs) {
        let outcome = run_pass(pass, input, &PassConfig::with_bugs(single));
        let failed = outcome
            .proofs
            .iter()
            .filter(|u| u.src.name == func)
            .any(|u| validate(u).is_err());
        if failed {
            out.push(name.to_string());
        }
    }
    out
}

/// Run one seed through the whole pipeline-with-injection protocol.
fn run_seed(seed: u64, cfg: &CampaignConfig, tel: &Telemetry) -> SeedOutcome {
    let gen_cfg = GenConfig {
        seed,
        functions: cfg.functions,
        bug_bait_rate: cfg.bait_rate,
        ..GenConfig::default()
    };
    let m0 = generate_module(&gen_cfg);
    let pass_config = PassConfig::with_bugs(cfg.bugs);
    let checker = cfg.checker.clone();

    // One compile cache per seed: the 4+ input seeds × both modules of
    // every step share lowerings, and hit/miss counts stay a pure
    // function of the seed's workload (schedule-independent).
    let mut bc_cache = (cfg.oracle.tier != Tier::Tree).then(|| {
        BcCache::with_options(CompileOptions {
            miscompile_sub_as_add: cfg.bc_miscompile,
        })
    });

    let mut verdicts = Vec::with_capacity(PASS_ORDER.len());
    let mut findings = Vec::new();
    let mut cur = m0;
    for (pi, pass) in PASS_ORDER.iter().enumerate() {
        let honest = run_pass(pass, &cur, &pass_config);

        // Seeded injection: derived from (seed, pass) only, so the same
        // seed replays identically in any range at any jobs count.
        let mut rng = mutation_rng(seed, pi);
        let mut plans: Vec<(usize, MutationPlan)> = Vec::new();
        for (fi, f) in honest.module.functions.iter().enumerate() {
            if rng.gen_bool(cfg.mutate_rate) {
                let count = rng.gen_range(1..=cfg.max_mutations.max(1));
                let plan = MutationPlan::sample(f, &mut rng, count);
                if !plan.is_empty() {
                    plans.push((fi, plan));
                }
            }
        }
        let full_mask = vec![true; flatten_plans(&plans).len()];
        let (observed, units) =
            rebuild_observed(&honest.module, &honest.proofs, &plans, &full_mask);

        let obs = observe_step_cached(
            &cur,
            &observed,
            &honest.module,
            &units,
            &checker,
            &cfg.oracle,
            bc_cache.as_mut(),
            tel,
        );
        let verdict = classify(&obs);
        tel.count(&format!("fuzz.verdict.{}", verdict.name()), 1);

        match verdict {
            OracleVerdict::TierDivergence => {
                let div = &obs.tier_divergences[0];
                let module = if div.module_role == "src" {
                    &cur
                } else {
                    &observed
                };
                findings.push(minimize_divergence(seed, pass, module, div, cfg));
            }
            OracleVerdict::SoundnessAlarm => {
                findings.push(minimize_alarm(
                    seed, pass, &cur, &honest, &plans, &obs, cfg, &checker,
                ));
            }
            OracleVerdict::CompletenessGap | OracleVerdict::Agree => {
                // An *organic* rejection (diff clean, nothing injected) is
                // worth filing either way: as a caught compiler bug — the
                // paper's §7 outcome — when some historical bug reproduces
                // it individually or the refinement leg also refuted the
                // step, or as a true completeness gap (the checker rejects
                // a translation no enabled bug explains and refinement
                // conclusively accepted). Both get the proof-command
                // `ddmin` forensic bundle for replay.
                if let (CheckerSummary::Reject(err), DiffSummary::Clean) = (&obs.checker, &obs.diff)
                {
                    let attributed = attribute_bugs(pass, &cur, &err.func, &cfg.bugs);
                    let kind = if verdict == OracleVerdict::CompletenessGap && attributed.is_empty()
                    {
                        FindingKind::CompletenessGap
                    } else {
                        FindingKind::Rejection
                    };
                    let unit = units.iter().find(|u| u.src.name == err.func);
                    let bundle = unit.map(|u| {
                        crellvm_core::forensics::forensic_bundle(u, err, &checker).to_json()
                    });
                    findings.push(Finding {
                        seed,
                        pass: (*pass).to_string(),
                        func: err.func.clone(),
                        kind,
                        reason: err.to_string(),
                        mutations: Vec::new(),
                        mutation_classes: Vec::new(),
                        attributed_bugs: attributed,
                        minimized: bundle.is_some(),
                        forensic_bundle_json: bundle,
                        repro: cfg.repro_command(seed),
                        gen_prng_version: GEN_PRNG_VERSION,
                    });
                }
            }
            OracleVerdict::Inconclusive => {}
        }

        verdicts.push(verdict);
        // Honest propagation: one injected step cannot poison the next.
        cur = honest.module;
    }
    if let Some(c) = &bc_cache {
        tel.count("interp.bc.cache.hits", c.hits);
        tel.count("interp.bc.cache.misses", c.misses);
    }
    SeedOutcome { verdicts, findings }
}

/// Every statement site of a module, in deterministic order.
fn stmt_sites(m: &Module) -> Vec<(usize, usize, usize)> {
    let mut v = Vec::new();
    for (fi, f) in m.functions.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for si in 0..b.stmts.len() {
                v.push((fi, bi, si));
            }
        }
    }
    v
}

/// Drop every statement whose `keep` bit is clear (highest index first,
/// so earlier sites stay valid).
fn reduced_module(m: &Module, sites: &[(usize, usize, usize)], keep: &[bool]) -> Module {
    let mut out = m.clone();
    for (i, (fi, bi, si)) in sites.iter().enumerate().rev() {
        if !keep[i] {
            out.functions[*fi].blocks[*bi].stmts.remove(*si);
        }
    }
    out
}

/// Does any oracle input seed witness a tier divergence on this module?
/// Returns the first mismatch description. The interpreter tolerates
/// unverifiable modules (dangling registers read as `undef`), so `ddmin`
/// can cut statements freely.
fn diverges_anywhere(m: &Module, oracle: &OracleConfig, opts: CompileOptions) -> Option<String> {
    let compiled = compile_module_with(m, opts);
    for k in 0..oracle.input_seeds {
        let mut rc = input_run_config(k, oracle.fuel);
        rc.tier = Tier::Differential;
        if let Some(d) = run_main_tiered(m, &rc, Some(&compiled)).divergence {
            return Some(d.mismatch);
        }
    }
    None
}

/// Minimize a tier divergence by `ddmin` over the module's statements:
/// the reduced module must still make the tiers disagree on some oracle
/// input. The finding carries a forensic bundle with both runs'
/// observables and the printed minimal module, and a `--tier
/// differential` repro line.
fn minimize_divergence(
    seed: u64,
    pass: &str,
    module: &Module,
    div: &DivergenceObservation,
    cfg: &CampaignConfig,
) -> Finding {
    let opts = CompileOptions {
        miscompile_sub_as_add: cfg.bc_miscompile,
    };
    let sites = stmt_sites(module);
    let keep = ddmin(sites.len(), |mask| {
        diverges_anywhere(&reduced_module(module, &sites, mask), &cfg.oracle, opts).is_some()
    });
    let min_module = reduced_module(module, &sites, &keep);
    let min_mismatch = diverges_anywhere(&min_module, &cfg.oracle, opts)
        .unwrap_or_else(|| div.divergence.mismatch.clone());

    #[derive(Serialize)]
    struct DivergenceBundle {
        kind: &'static str,
        input_seed: u64,
        module_role: &'static str,
        mismatch: String,
        tree_end: String,
        bytecode_end: String,
        tree_steps: u64,
        bytecode_steps: u64,
        tree_events: usize,
        bytecode_events: usize,
        minimized_mismatch: String,
        minimized_module: String,
    }
    let bundle = DivergenceBundle {
        kind: "tier_divergence",
        input_seed: div.input_seed,
        module_role: div.module_role,
        mismatch: div.divergence.mismatch.clone(),
        tree_end: format!("{:?}", div.divergence.tree.end),
        bytecode_end: format!("{:?}", div.divergence.bytecode.end),
        tree_steps: div.divergence.tree.steps,
        bytecode_steps: div.divergence.bytecode.steps,
        tree_events: div.divergence.tree.events.len(),
        bytecode_events: div.divergence.bytecode.events.len(),
        minimized_mismatch: min_mismatch,
        minimized_module: crellvm_ir::printer::print_module(&min_module),
    };
    let bundle = serde_json::to_string(&bundle).expect("bundle serializes");
    Finding {
        seed,
        pass: pass.to_string(),
        func: div.module_role.to_string(),
        kind: FindingKind::TierDivergence,
        reason: format!(
            "tier divergence on input seed {}: {}",
            div.input_seed, div.divergence.mismatch
        ),
        mutations: Vec::new(),
        mutation_classes: Vec::new(),
        attributed_bugs: Vec::new(),
        minimized: true,
        forensic_bundle_json: Some(bundle),
        repro: format!("{} --tier differential", cfg.repro_command(seed)),
        gen_prng_version: GEN_PRNG_VERSION,
    }
}

/// Minimize a soundness alarm by `ddmin` over the flattened mutation
/// plan: the kept subset must still make the checker accept *and* the
/// refinement leg fail. With no mutations at all (an organic alarm — a
/// genuine checker soundness bug) there is nothing to shrink and the
/// alarm survives as-is.
#[allow(clippy::too_many_arguments)]
fn minimize_alarm(
    seed: u64,
    pass: &str,
    src: &Module,
    honest: &PassOutcome,
    plans: &[(usize, MutationPlan)],
    obs: &Observation,
    cfg: &CampaignConfig,
    checker: &CheckerConfig,
) -> Finding {
    let quiet = Telemetry::disabled();
    let flat = flatten_plans(plans);
    let keep = ddmin(flat.len(), |mask| {
        let (observed, units) = rebuild_observed(&honest.module, &honest.proofs, plans, mask);
        let accepts = matches!(
            crate::oracle::checker_leg(&units, checker, &quiet),
            CheckerSummary::Accept
        );
        accepts
            && matches!(
                crate::oracle::refinement_leg(src, &observed, &cfg.oracle),
                RefinementSummary::Fails { .. }
            )
    });
    let minimized: Vec<Mutation> = flat
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .map(|(m, _)| m.clone())
        .collect();
    let funcs: Vec<String> = {
        let mut v: Vec<String> = plans
            .iter()
            .filter(|(_, p)| !p.is_empty())
            .map(|(fi, _)| honest.module.functions[*fi].name.clone())
            .collect();
        v.sort();
        v.dedup();
        if v.is_empty() {
            v.push("module".into());
        }
        v
    };
    let reason = match &obs.refinement {
        RefinementSummary::Fails { input_seed, reason } => {
            format!("refinement violated on input seed {input_seed}: {reason}")
        }
        other => format!("unexpected refinement summary {other:?}"),
    };
    Finding {
        seed,
        pass: pass.to_string(),
        func: funcs.join("+"),
        kind: FindingKind::SoundnessAlarm,
        reason,
        mutation_classes: classes_of(&minimized),
        mutations: minimized,
        attributed_bugs: Vec::new(),
        minimized: true,
        forensic_bundle_json: None,
        repro: cfg.repro_command(seed),
        gen_prng_version: GEN_PRNG_VERSION,
    }
}

/// Run a campaign: fan the seed range over the work-stealing pool,
/// merge per-worker telemetry in worker order, and reassemble outcomes
/// in seed order into the deterministic [`CampaignReport`].
///
/// Rule-coverage counters (`checker.rule.*`), verdict counters
/// (`fuzz.verdict.*`), and the per-worker `fuzz.steal.*` counters are
/// also merged into `tel`'s registry for observability.
pub fn run_campaign(cfg: &CampaignConfig, tel: &Telemetry) -> CampaignReport {
    run_campaign_with_progress(cfg, tel, None)
}

/// [`run_campaign`] with a live heartbeat: each finished seed pushes its
/// step count (so the reporter's rate column reads as oracle executions
/// per second) and any soundness alarms into `progress`. The reporter
/// renders to stderr only, so the deterministic [`CampaignReport`] is
/// byte-identical with or without it.
pub fn run_campaign_with_progress(
    cfg: &CampaignConfig,
    tel: &Telemetry,
    progress: Option<Arc<Progress>>,
) -> CampaignReport {
    let n = (cfg.seed_end.saturating_sub(cfg.seed_start)) as usize;
    let jobs = if cfg.jobs == 0 {
        crellvm_passes::default_jobs()
    } else {
        cfg.jobs
    };

    struct WorkerState {
        registry: Arc<Registry>,
        wtel: Telemetry,
    }
    let pool = crellvm_passes::run_work_stealing(
        n,
        jobs,
        |_| 1,
        |_w| {
            let registry = Arc::new(Registry::new());
            let wtel = Telemetry::with_registry(Arc::clone(&registry));
            WorkerState { registry, wtel }
        },
        |_w, state, i| {
            let outcome = run_seed(cfg.seed_start + i as u64, cfg, &state.wtel);
            if let Some(p) = &progress {
                p.add_done(outcome.verdicts.len() as u64);
                let alarms = outcome
                    .findings
                    .iter()
                    .filter(|f| f.kind == FindingKind::SoundnessAlarm)
                    .count();
                p.add_alarms(alarms as u64);
            }
            outcome
        },
        |w, state, steals| {
            state.registry.add(&format!("fuzz.steal.w{w}"), steals);
            state.registry.snapshot()
        },
    );

    // Merge per-worker registries in worker order; every campaign metric
    // is a commutative per-seed sum, so totals are schedule-independent.
    let merged = Registry::new();
    for snapshot in &pool.worker_summaries {
        merged.merge_snapshot(snapshot);
        tel.registry().merge_snapshot(snapshot);
    }
    let snap = merged.snapshot();

    let mut verdict_counts: BTreeMap<String, u64> = BTreeMap::new();
    for v in [
        OracleVerdict::Agree,
        OracleVerdict::SoundnessAlarm,
        OracleVerdict::CompletenessGap,
        OracleVerdict::Inconclusive,
        OracleVerdict::TierDivergence,
    ] {
        verdict_counts.insert(v.name().to_string(), 0);
    }
    let mut findings = Vec::new();
    let mut steps = 0u64;
    for outcome in pool.results {
        for v in &outcome.verdicts {
            steps += 1;
            *verdict_counts.entry(v.name().to_string()).or_insert(0) += 1;
        }
        findings.extend(outcome.findings);
    }

    let mut attributed: BTreeMap<String, u64> = BTreeMap::new();
    for f in &findings {
        for b in &f.attributed_bugs {
            *attributed.entry(b.clone()).or_insert(0) += 1;
        }
    }

    let rule_coverage: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("checker.rule.")
                .map(|name| (name.to_string(), *v))
        })
        .collect();

    CampaignReport {
        prng_version: GEN_PRNG_VERSION,
        seed_start: cfg.seed_start,
        seed_end: cfg.seed_end,
        compiler: cfg.compiler.clone(),
        mutate_rate: cfg.mutate_rate,
        steps,
        verdicts: verdict_counts,
        findings,
        attributed,
        rule_coverage,
    }
}

/// Write every finding (and the report itself) into `dir` as JSON files,
/// returning the written paths. File names are deterministic:
/// `finding-<seed>-<pass>-<func>.json` plus `report.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_findings(
    report: &CampaignReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for f in &report.findings {
        let path = dir.join(format!("{}.json", f.file_stem()));
        std::fs::write(&path, serde_json::to_string(f).expect("finding serializes"))?;
        written.push(path);
    }
    let path = dir.join("report.json");
    std::fs::write(&path, report.to_json())?;
    written.push(path);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiler_names_map_to_bug_sets() {
        assert_eq!(
            CampaignConfig::bugs_for_compiler("3.7.1"),
            Some(BugSet::llvm_3_7_1())
        );
        assert_eq!(
            CampaignConfig::bugs_for_compiler("5.0.1-pre"),
            Some(BugSet::llvm_5_0_1_prepatch())
        );
        assert_eq!(
            CampaignConfig::bugs_for_compiler("none"),
            Some(BugSet::none())
        );
        assert_eq!(CampaignConfig::bugs_for_compiler("4.0"), None);
    }

    #[test]
    fn repro_command_is_one_seed_wide() {
        let cfg = CampaignConfig {
            mutate_rate: 0.25,
            compiler: "3.7.1".into(),
            ..CampaignConfig::default()
        };
        assert_eq!(
            cfg.repro_command(41),
            "crellvm fuzz --seeds 41..42 --jobs 1 --mutate-rate 0.25 --compiler 3.7.1 --out findings"
        );
    }

    #[test]
    fn clean_compiler_small_campaign_agrees() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 6,
            jobs: 2,
            mutate_rate: 0.0,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &Telemetry::disabled());
        assert_eq!(report.steps, 6 * PASS_ORDER.len() as u64);
        assert!(!report.has_soundness_alarm());
        assert_eq!(report.verdicts["completeness_gap"], 0);
        assert!(report.rule_coverage.values().sum::<u64>() > 0);
    }

    #[test]
    fn injection_is_caught_and_classified_agree() {
        // With a sound checker, injected mutations must be rejected and
        // the rejection justified (diff leg) — never a completeness gap.
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 8,
            jobs: 2,
            mutate_rate: 0.8,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &Telemetry::disabled());
        assert!(!report.has_soundness_alarm());
        assert_eq!(report.verdicts["completeness_gap"], 0);
    }

    #[test]
    fn reports_are_byte_identical_across_tiers() {
        // The bytecode tier must be a pure performance substitution: the
        // deterministic report cannot depend on which tier executed the
        // refinement leg (nor on the jobs count).
        assert_eq!(OracleConfig::default().tier, Tier::Bytecode);
        let base = CampaignConfig {
            seed_start: 0,
            seed_end: 5,
            jobs: 1,
            mutate_rate: 0.5,
            oracle: OracleConfig {
                tier: Tier::Tree,
                ..OracleConfig::default()
            },
            ..CampaignConfig::default()
        };
        let tree = run_campaign(&base, &Telemetry::disabled()).to_json();
        let bc_cfg = CampaignConfig {
            jobs: 2,
            oracle: OracleConfig::default(),
            ..base.clone()
        };
        let bytecode = run_campaign(&bc_cfg, &Telemetry::disabled()).to_json();
        assert_eq!(tree, bytecode);
    }

    #[test]
    fn differential_tier_is_clean_on_healthy_lowering() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 5,
            jobs: 2,
            mutate_rate: 0.5,
            oracle: OracleConfig {
                tier: Tier::Differential,
                ..OracleConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &Telemetry::disabled());
        assert_eq!(report.verdicts["tier_divergence"], 0);
    }

    #[test]
    fn sabotaged_lowering_is_caught_as_tier_divergence() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: 6,
            jobs: 2,
            mutate_rate: 0.0,
            bc_miscompile: true,
            oracle: OracleConfig {
                tier: Tier::Differential,
                ..OracleConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &Telemetry::disabled());
        assert!(
            report.verdicts["tier_divergence"] > 0,
            "sub-as-add sabotage must diverge somewhere in 6 seeds"
        );
        let f = report
            .findings_of(FindingKind::TierDivergence)
            .next()
            .expect("divergence verdicts must file findings");
        assert!(f.repro.ends_with("--tier differential"), "{}", f.repro);
        assert!(f.minimized);
        let bundle = f.forensic_bundle_json.as_deref().expect("bundle");
        assert!(bundle.contains("tier_divergence"));
        assert!(bundle.contains("minimized_module"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let cfg = CampaignConfig {
            seed_start: 3,
            seed_end: 5,
            mutate_rate: 0.5,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &Telemetry::disabled());
        let json = report.to_json();
        let back = CampaignReport::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
    }
}
