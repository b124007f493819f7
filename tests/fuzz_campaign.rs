//! End-to-end campaign properties: the reproducibility contract, the
//! historical-bug detection requirement, and the soundness-alarm exit
//! path under a deliberately weakened checker.

use crellvm::erhl::CheckerConfig;
use crellvm::fuzz::{run_campaign, write_findings, CampaignConfig, FindingKind, OracleConfig};
use crellvm::gen::GEN_PRNG_VERSION;
use crellvm::interp::Tier;
use crellvm::telemetry::Telemetry;

fn campaign(compiler: &str, seeds: std::ops::Range<u64>, mutate: f64) -> CampaignConfig {
    CampaignConfig {
        seed_start: seeds.start,
        seed_end: seeds.end,
        jobs: 2,
        mutate_rate: mutate,
        bugs: CampaignConfig::bugs_for_compiler(compiler).unwrap(),
        compiler: compiler.into(),
        ..CampaignConfig::default()
    }
}

#[test]
fn reports_are_byte_identical_across_jobs_and_tiers() {
    // The report is a pure function of (seed range, config): neither the
    // worker count nor the interpreter tier executing the refinement leg
    // may leak into a single byte of it. The campaign default is pinned
    // against the tree-walk reference, and the differential row, which
    // runs every oracle leg on every step, against the skipping tiers.
    let tier = |tier| OracleConfig {
        tier,
        ..OracleConfig::default()
    };
    let report = |oracle, jobs| {
        let cfg = CampaignConfig {
            jobs,
            oracle,
            ..campaign("3.7.1", 0..25, 0.3)
        };
        run_campaign(&cfg, &Telemetry::disabled()).to_json()
    };
    let mut texts = Vec::new();
    for oracle in [
        tier(Tier::Tree),
        tier(Tier::Bytecode),
        OracleConfig::default(),
    ] {
        for jobs in [1, 2, 8] {
            texts.push(report(oracle.clone(), jobs));
        }
    }
    texts.push(report(tier(Tier::Differential), 1));
    for (i, t) in texts.iter().enumerate().skip(1) {
        assert_eq!(
            &texts[0], t,
            "report {i} (tier x jobs grid) differs from the tree/jobs=1 baseline"
        );
    }
}

#[test]
fn campaign_metrics_are_identical_across_jobs() {
    // Every counter and histogram the campaign records is a per-seed sum,
    // so the registry it fills must not show how many workers ran it.
    let metrics = |jobs| {
        let tel = Telemetry::disabled();
        let cfg = CampaignConfig {
            jobs,
            ..campaign("3.7.1", 0..16, 0.25)
        };
        run_campaign(&cfg, &tel);
        let snap = tel.registry().snapshot();
        (snap.counters, snap.histograms)
    };
    let (counters, histograms) = metrics(1);
    assert!(counters.contains_key("fuzz.verdict.agree"));
    for jobs in [2, 8] {
        let (c, h) = metrics(jobs);
        assert_eq!(counters, c, "counters differ at jobs={jobs}");
        assert_eq!(histograms, h, "histograms differ at jobs={jobs}");
    }
}

#[test]
fn skipped_refinement_legs_change_no_report_byte() {
    // The default tier skips the refinement leg where the checker and
    // diff legs already fix the verdict; the differential tier runs every
    // leg. Same report, strictly more interpreter runs.
    let run = |oracle| {
        let tel = Telemetry::disabled();
        let cfg = CampaignConfig {
            oracle,
            ..campaign("3.7.1", 0..8, 0.25)
        };
        let report = run_campaign(&cfg, &tel).to_json();
        let count = |name| tel.registry().counter_value(name);
        (
            report,
            count("fuzz.refinement.skipped"),
            count("interp.runs"),
        )
    };
    let (lazy, lazy_skipped, lazy_runs) = run(OracleConfig::default());
    let (every, every_skipped, every_runs) = run(OracleConfig {
        tier: Tier::Differential,
        ..OracleConfig::default()
    });
    assert!(lazy_skipped > 0);
    assert_eq!(every_skipped, 0);
    assert!(every_runs > lazy_runs, "{every_runs} vs {lazy_runs}");
    assert_eq!(lazy, every);
}

#[test]
fn miscompiled_lowering_surfaces_as_tier_divergence_finding() {
    // End-to-end negative control for the differential tier: a sabotaged
    // bytecode lowering (sub compiled as add) must surface as a
    // TierDivergence finding with a minimized, replayable repro — not be
    // silently absorbed by the oracle verdict lattice.
    let cfg = CampaignConfig {
        bc_miscompile: true,
        oracle: OracleConfig {
            tier: Tier::Differential,
            ..OracleConfig::default()
        },
        ..campaign("none", 0..6, 0.0)
    };
    let report = run_campaign(&cfg, &Telemetry::disabled());
    assert!(
        report.verdicts["tier_divergence"] > 0,
        "sub-as-add sabotage must diverge somewhere in 6 seeds: {:?}",
        report.verdicts
    );
    let f = report
        .findings_of(FindingKind::TierDivergence)
        .next()
        .expect("divergence verdicts must file findings");
    assert!(f.minimized, "divergence at seed {} not minimized", f.seed);
    assert!(
        f.repro.ends_with("--tier differential"),
        "repro must replay under the differential tier: {}",
        f.repro
    );
    let bundle = f
        .forensic_bundle_json
        .as_deref()
        .expect("divergence finding lacks a forensic bundle");
    assert!(bundle.contains("minimized_module"));
    // The same seeds with a healthy lowering are divergence-free.
    let clean = run_campaign(
        &CampaignConfig {
            bc_miscompile: false,
            ..cfg.clone()
        },
        &Telemetry::disabled(),
    );
    assert_eq!(clean.verdicts["tier_divergence"], 0);
}

#[test]
fn buggy_compiler_yields_attributed_minimized_findings() {
    // A bounded slice of the acceptance campaign: each historical bug
    // must be caught and attributed, and every organic finding must carry
    // a replayable ddmin forensic bundle. (The full 0..500 criterion runs
    // in CI's fuzz-smoke job where the release binary is available.)
    let report = run_campaign(&campaign("3.7.1", 0..120, 0.25), &Telemetry::disabled());
    assert!(!report.has_soundness_alarm());
    for bug in ["pr24179", "pr33673", "pr28562", "d38619"] {
        assert!(
            report.attributed.get(bug).copied().unwrap_or(0) >= 1,
            "historical bug {bug} not caught in 120 seeds; attributed: {:?}",
            report.attributed
        );
    }
    for f in report.findings_of(FindingKind::Rejection) {
        assert!(f.minimized, "unminimized rejection at seed {}", f.seed);
        assert!(
            f.forensic_bundle_json.is_some(),
            "rejection at seed {} lacks a forensic bundle",
            f.seed
        );
        assert!(
            f.repro
                .starts_with(&format!("crellvm fuzz --seeds {}..{}", f.seed, f.seed + 1)),
            "repro line does not replay the single seed: {}",
            f.repro
        );
        assert_eq!(f.gen_prng_version, GEN_PRNG_VERSION);
    }
}

#[test]
fn clean_compiler_yields_no_findings() {
    let report = run_campaign(&campaign("none", 0..120, 0.25), &Telemetry::disabled());
    assert!(!report.has_soundness_alarm());
    assert_eq!(report.verdicts["completeness_gap"], 0);
    assert_eq!(report.verdicts["soundness_alarm"], 0);
    assert!(
        report.findings.is_empty(),
        "clean compiler produced findings: {:?}",
        report
            .findings
            .iter()
            .map(|f| (f.seed, f.pass.clone(), f.kind))
            .collect::<Vec<_>>()
    );
}

#[test]
fn weakened_checker_trips_the_soundness_alarm_path() {
    // With the checker forced to accept everything, injected
    // miscompilations must surface as soundness alarms (the interpreter
    // leg catching what the checker leg waved through), each minimized by
    // ddmin over its mutation plan and carrying a one-seed repro line.
    let cfg = CampaignConfig {
        checker: CheckerConfig::weakened_accept_all(),
        ..campaign("none", 0..40, 0.6)
    };
    let report = run_campaign(&cfg, &Telemetry::disabled());
    assert!(
        report.has_soundness_alarm(),
        "no soundness alarm in 40 seeds at mutate-rate 0.6 under an accept-all checker"
    );
    for f in report.findings_of(FindingKind::SoundnessAlarm) {
        assert!(f.minimized);
        assert!(
            !f.mutations.is_empty(),
            "alarm at seed {} minimized to an empty plan (organic alarm under accept-all?)",
            f.seed
        );
        assert!(
            !f.mutation_classes.is_empty(),
            "alarm at seed {} lost its bug-class tags",
            f.seed
        );
        assert!(f
            .repro
            .contains(&format!("--seeds {}..{}", f.seed, f.seed + 1)));
    }
    // Minimization must have actually shrunk or kept plans 1-minimal:
    // every kept mutation is necessary, so the smallest alarms are single
    // mutations — assert at least one alarm minimized down to one.
    assert!(
        report
            .findings_of(FindingKind::SoundnessAlarm)
            .any(|f| f.mutations.len() == 1),
        "no alarm minimized to a single mutation"
    );
}

#[test]
fn findings_directory_roundtrips() {
    let dir = std::env::temp_dir().join(format!("crellvm-fuzz-test-{}", std::process::id()));
    let report = run_campaign(&campaign("3.7.1", 0..40, 0.25), &Telemetry::disabled());
    let written = write_findings(&report, &dir).unwrap();
    assert_eq!(written.len(), report.findings.len() + 1);
    let text = std::fs::read_to_string(dir.join("report.json")).unwrap();
    let back = crellvm::fuzz::CampaignReport::from_json(&text).unwrap();
    assert_eq!(back.to_json(), report.to_json());
    std::fs::remove_dir_all(&dir).ok();
}
