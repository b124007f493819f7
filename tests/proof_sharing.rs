//! Pins the bytes of every proof the pass pipeline writes, v2 and JSON,
//! so a change to how a proof is held in memory cannot move what it
//! writes: cache keys, `.cpb` dumps and forensic bundles all start from
//! these bytes. And checks that a proof in memory keeps one copy of each
//! assertion, however many slots hold it.

use crellvm::erhl::serialize_bin::fnv64_extend;
use crellvm::erhl::{proof_from_bytes, proof_to_bytes_v2, proof_to_json, Assertion, ProofUnit};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::passes::{run_pass, BugSet, PassConfig, PASS_ORDER};
use std::collections::HashSet;
use std::sync::Arc;

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

/// FNV-1a over the v2 bytes and, separately, the JSON bytes of every
/// unit, in pipeline order.
#[test]
fn pipeline_proof_bytes_are_pinned() {
    for (bugs, expected) in [
        (
            BugSet::none(),
            (164, 0xdea4_7729_80df_3ea3, 0xb956_a64a_c2bd_e261),
        ),
        (
            BugSet::llvm_3_7_1(),
            (164, 0x178f_0195_466d_3f2b, 0xa9db_d00f_cd89_1d6d),
        ),
    ] {
        let units = pipeline_units(bugs);
        let (mut v2, mut json) = (FNV_OFFSET, FNV_OFFSET);
        for u in &units {
            v2 = fnv64_extend(v2, &proof_to_bytes_v2(u).expect("unit encodes"));
            json = fnv64_extend(json, proof_to_json(u).expect("unit encodes").as_bytes());
        }
        assert_eq!((units.len(), v2, json), expected, "{bugs:?}");
    }
}

/// The distinct `Arc`s a unit's slots hold.
fn distinct_arcs(unit: &ProofUnit) -> Vec<&Arc<Assertion>> {
    let mut seen = HashSet::new();
    unit.assertions
        .values()
        .filter(|a| seen.insert(Arc::as_ptr(a)))
        .collect()
}

/// The number of distinct assertions a unit holds, by equality: the
/// length of its v2 assertion table.
fn distinct_assertions(unit: &ProofUnit) -> usize {
    let mut table: Vec<&Assertion> = Vec::new();
    for a in distinct_arcs(unit) {
        if !table.contains(&a.as_ref()) {
            table.push(a);
        }
    }
    table.len()
}

#[test]
fn a_decoded_unit_holds_one_arc_per_table_entry() {
    for unit in pipeline_units(BugSet::none()) {
        let bytes = proof_to_bytes_v2(&unit).expect("unit encodes");
        let back = proof_from_bytes(&bytes).expect("unit decodes");
        assert_eq!(back.assertions, unit.assertions);
        assert_eq!(
            distinct_arcs(&back).len(),
            distinct_assertions(&unit),
            "{} @{}",
            unit.pass,
            unit.src.name
        );
    }
}

/// Over the Fig 7 corpus, slots outnumber the assertions they hold
/// (44 811 slots share 3 891 `Arc`s when this was written).
#[test]
fn pass_built_units_share_their_assertions() {
    let config = PassConfig::default();
    let (mut slots, mut arcs) = (0, 0);
    for (_, modules) in crellvm::gen::corpus(0.05, 0) {
        for mut m in modules {
            for pass in PASS_ORDER {
                let out = run_pass(pass, &m, &config);
                for unit in &out.proofs {
                    slots += unit.assertions.len();
                    arcs += distinct_arcs(unit).len();
                }
                m = out.module;
            }
        }
    }
    assert!(slots > 0);
    assert!(5 * arcs <= slots, "{arcs} arcs for {slots} slots");
}
