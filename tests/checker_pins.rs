//! Pins the checker's answers: a digest of `{:?}` of `validate` over every
//! proof unit of a `PASS_ORDER` pipeline, and over the same units with the
//! last rule dropped at each position. The second digest covers
//! rejections, so a change to how assertions are held in memory cannot
//! move a verdict, an error position, a rule history or the rendering of
//! a failing assertion. A unit read back from its v2 bytes must get the
//! same answers.

use crellvm::erhl::serialize_bin::fnv64_extend;
use crellvm::erhl::{proof_from_bytes, proof_to_bytes_v2, validate, ProofUnit};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::passes::{run_pass, BugSet, PassConfig, PASS_ORDER};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every proof unit of a `PASS_ORDER` pipeline over the seed-7,
/// 40-function module under `bugs`, pass by pass.
fn pipeline_units(bugs: BugSet) -> Vec<ProofUnit> {
    let mut m = generate_module(&GenConfig {
        seed: 7,
        functions: 40,
        ..GenConfig::default()
    });
    let config = PassConfig::with_bugs(bugs);
    let mut units = Vec::new();
    for pass in PASS_ORDER {
        let out = run_pass(pass, &m, &config);
        units.extend(out.proofs);
        m = out.module;
    }
    units
}

/// `unit` with the last inference rule removed at every position that
/// has one.
fn strip_last_rules(unit: &ProofUnit) -> ProofUnit {
    let mut stripped = unit.clone();
    for rules in stripped.infrules.values_mut() {
        rules.pop();
    }
    stripped
}

/// FNV-1a over `{:?}` of each unit's verdict, in pipeline order, with the
/// number of units the checker rejected.
fn verdict_digest(units: impl Iterator<Item = ProofUnit>) -> (usize, u64) {
    let (mut rejected, mut h) = (0, FNV_OFFSET);
    for unit in units {
        let verdict = validate(&unit);
        rejected += usize::from(verdict.is_err());
        h = fnv64_extend(h, format!("{verdict:?}").as_bytes());
    }
    (rejected, h)
}

#[test]
fn checker_verdicts_are_pinned() {
    for (bugs, expected) in [
        (
            BugSet::none(),
            [(0, 0x4528_da2c_1be1_4b79), (57, 0x1889_33af_9532_9a10)],
        ),
        (
            BugSet::llvm_3_7_1(),
            [(5, 0x43dd_7fc0_c071_42a5), (58, 0x27fd_d431_3d53_8814)],
        ),
    ] {
        let units = pipeline_units(bugs);
        assert_eq!(units.len(), 164, "{bugs:?}");
        let honest = verdict_digest(units.iter().cloned());
        let stripped = verdict_digest(units.iter().map(strip_last_rules));
        let decoded = verdict_digest(units.iter().map(|u| {
            proof_from_bytes(&proof_to_bytes_v2(u).expect("unit encodes")).expect("unit decodes")
        }));
        assert_eq!(decoded, honest, "{bugs:?}: decoded units");
        assert_eq!([honest, stripped], expected, "{bugs:?}");
    }
}
