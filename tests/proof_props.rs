//! Property tests for proofs as *artifacts*: JSON round-trips of real
//! generated proofs, and robustness of the deserializer and checker
//! against corrupted or truncated proofs (a validator consuming
//! compiler-produced files must never panic on a bad one).

use crellvm::erhl::serialize_bin::{fnv64, to_bytes};
use crellvm::erhl::{
    proof_from_bytes, proof_from_json, proof_to_bytes_v2, proof_to_json, validate, ProofUnit,
    Verdict,
};
use crellvm::gen::{generate_module, FeatureMix, GenConfig};
use crellvm::passes::{gvn, instcombine, licm, mem2reg, PassConfig};
use proptest::prelude::*;

/// Run the four passes in pipeline order, collecting every proof unit.
fn proofs_for_seed(seed: u64) -> Vec<ProofUnit> {
    let cfg = GenConfig {
        seed,
        functions: 2,
        max_depth: 3,
        feature_mix: if seed.is_multiple_of(2) {
            FeatureMix::Benchmarks
        } else {
            FeatureMix::Csmith
        },
        ..GenConfig::default()
    };
    let pc = PassConfig::default();
    let mut m = generate_module(&cfg);
    let mut proofs = Vec::new();
    for pass in [mem2reg, instcombine, gvn, licm] {
        let out = pass(&m, &pc);
        proofs.extend(out.proofs);
        m = out.module;
    }
    proofs
}

/// Bytes of v2 header: the 2-byte magic, then the 8-byte checksum of
/// everything after it.
const V2_HEADER: usize = 10;

/// Recompute a v2 stream's checksum, so corruption past the header
/// reaches the body decoder instead of stopping at the checksum.
fn reseal(bytes: &mut [u8]) {
    let sum = fnv64(&bytes[V2_HEADER..]);
    bytes[2..V2_HEADER].copy_from_slice(&sum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serializing a generated proof and reading it back yields a unit
    /// that (a) re-serializes to the same bytes and (b) gets the same
    /// verdict from the checker.
    #[test]
    fn json_roundtrip_preserves_verdict(seed in 0u64..4000) {
        for unit in proofs_for_seed(seed) {
            let json = proof_to_json(&unit).unwrap();
            let back = proof_from_json(&json).unwrap();
            prop_assert_eq!(proof_to_json(&back).unwrap(), json.clone());
            let (v1, v2) = (validate(&unit), validate(&back));
            match (&v1, &v2) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "verdicts diverge: {v1:?} vs {v2:?}"),
            }
        }
    }

    /// The compact binary format, wire format v2 (the paper's §7 remedy
    /// for the I/O bottleneck), round-trips every generated proof with the
    /// same verdict, and is consistently smaller than the JSON encoding.
    #[test]
    fn binary_roundtrip_preserves_verdict_and_shrinks(seed in 0u64..4000) {
        for unit in proofs_for_seed(seed) {
            let bytes = proof_to_bytes_v2(&unit).unwrap();
            let back = proof_from_bytes(&bytes).unwrap();
            match (validate(&unit), validate(&back)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "verdicts diverge: {other:?}"),
            }
            let json = proof_to_json(&unit).unwrap();
            prop_assert!(
                bytes.len() < json.len(),
                "binary ({}) not smaller than JSON ({})", bytes.len(), json.len()
            );
        }
    }

    /// Wire format v2 (dictionary-coded string table, deduplicated block
    /// and assertion tables) is a *lossless* recoding: every generated
    /// proof decodes back field-for-field identical, re-encodes to the
    /// same bytes, and keeps its verdict. `proof_from_bytes` still sniffs
    /// the version from the leading bytes: a headerless v1-shaped stream
    /// of the same proof (the tag-free encoding, which opens with the
    /// pass name's length) is told apart from v2 and refused cleanly,
    /// never decoded as something else.
    #[test]
    fn v2_roundtrip_is_the_identity_and_v1_still_sniffs(seed in 0u64..4000) {
        for unit in proofs_for_seed(seed) {
            let v2 = proof_to_bytes_v2(&unit).unwrap();
            let back = proof_from_bytes(&v2).unwrap();
            prop_assert_eq!(&back.pass, &unit.pass);
            prop_assert_eq!(&back.src, &unit.src);
            prop_assert_eq!(&back.tgt, &unit.tgt);
            prop_assert_eq!(&back.alignment, &unit.alignment);
            prop_assert_eq!(&back.assertions, &unit.assertions);
            prop_assert_eq!(&back.infrules, &unit.infrules);
            prop_assert_eq!(&back.autos, &unit.autos);
            prop_assert_eq!(&back.not_supported, &unit.not_supported);
            prop_assert_eq!(proof_to_bytes_v2(&back).unwrap(), v2.clone());
            match (validate(&unit), validate(&back)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "verdicts diverge: {other:?}"),
            }
            let v1 = to_bytes(&unit).unwrap();
            prop_assert_eq!(usize::from(v1[0]), unit.pass.len());
            prop_assert_eq!(&v1[1..=unit.pass.len()], unit.pass.as_bytes());
            let refused = proof_from_bytes(&v1).unwrap_err().to_string();
            prop_assert!(refused.contains("missing v2 magic"), "{}", refused);
        }
    }

    /// One-byte corruption of a v2 proof's string table or body, re-sealed
    /// under a valid checksum, never panics the decoder, and whatever
    /// still decodes never panics the checker.
    #[test]
    fn corrupted_proof_bytes_never_panic(seed in 0u64..400, frac in 0.0f64..1.0, byte in any::<u8>()) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let mut bytes = proof_to_bytes_v2(&unit).unwrap();
        let pos = V2_HEADER + ((bytes.len() - 1 - V2_HEADER) as f64 * frac) as usize;
        bytes[pos] = byte;
        reseal(&mut bytes);
        if let Ok(mutated) = proof_from_bytes(&bytes) {
            let _ = validate(&mutated); // any Result is fine; panics are not
        }
    }

    /// One-character corruption of proof JSON never panics the
    /// deserializer, and whatever still parses never panics the checker.
    #[test]
    fn corrupted_proof_json_never_panics(seed in 0u64..400, frac in 0.0f64..1.0, ch in any::<char>()) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let mut json = proof_to_json(&unit).unwrap();
        let nchars = json.chars().count();
        let pos = ((nchars.saturating_sub(1)) as f64 * frac) as usize;
        let Some((idx, old)) = json.char_indices().nth(pos) else { return Ok(()) };
        json.replace_range(idx..idx + old.len_utf8(), &ch.to_string());
        if let Ok(mutated) = proof_from_json(&json) {
            let _ = validate(&mutated); // any Result is fine; panics are not
        }
    }

    /// Truncating proof JSON at any byte boundary is a clean parse error,
    /// never a panic.
    #[test]
    fn truncated_proof_json_is_clean_error(seed in 0u64..400, frac in 0.0f64..1.0) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let json = proof_to_json(&unit).unwrap();
        let mut cut = (json.len() as f64 * frac) as usize;
        while cut > 0 && !json.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut < json.len() {
            prop_assert!(proof_from_json(&json[..cut]).is_err());
        }
    }

    /// Deleting one inference-rule bundle from a valid proof never panics
    /// the checker: either the rule was redundant (still `Valid`) or the
    /// checker reports a clean inclusion/derivation failure.
    #[test]
    fn dropping_a_rule_bundle_fails_cleanly(seed in 0u64..2000, pick in 0usize..64) {
        for unit in proofs_for_seed(seed) {
            if unit.not_supported.is_some() || unit.infrules.is_empty() {
                continue;
            }
            if validate(&unit) != Ok(Verdict::Valid) {
                continue; // only mutate proofs that start out valid
            }
            let mut mutated = unit.clone();
            let key = mutated.infrules.keys().nth(pick % mutated.infrules.len()).cloned().unwrap();
            mutated.infrules.remove(&key);
            let _ = validate(&mutated); // must not panic; Err or Valid both fine
        }
    }

    /// Truncating a v2 proof at any byte boundary is a clean decode
    /// error — the checksum in the container header catches every cut
    /// before the body is interpreted.
    #[test]
    fn truncated_v2_proof_is_a_clean_error(seed in 0u64..400, frac in 0.0f64..1.0) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let bytes = proof_to_bytes_v2(&unit).unwrap();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(proof_from_bytes(&bytes[..cut]).is_err());
    }

    /// Single-bit corruption anywhere in a v2 proof — magic, checksum,
    /// string table, or body — is always a clean error: the magic check
    /// catches a flip in the first two bytes, the whole-stream checksum
    /// one anywhere else.
    #[test]
    fn bit_flipped_v2_proof_never_panics(seed in 0u64..400, frac in 0.0f64..1.0, bit in 0u32..8) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let mut bytes = proof_to_bytes_v2(&unit).unwrap();
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(proof_from_bytes(&bytes).is_err());
    }

    /// Erasing a mid-function assertion (keeping the slot, emptying its
    /// content) weakens the proof; the checker must handle the weaker
    /// invariant without panicking.
    #[test]
    fn weakening_an_assertion_fails_cleanly(seed in 0u64..2000, pick in 0usize..64) {
        for unit in proofs_for_seed(seed) {
            if unit.not_supported.is_some() || unit.assertions.len() < 2 {
                continue;
            }
            let mut mutated = unit.clone();
            let key = mutated.assertions.keys().nth(pick % mutated.assertions.len()).cloned().unwrap();
            if let Some(a) = mutated.assertions.get_mut(&key) {
                // Copy-on-write: the slot's assertion may be shared.
                let a = std::sync::Arc::make_mut(a);
                a.src.retain(|p| !matches!(p, crellvm::erhl::Pred::Lessdef(..)));
                a.tgt.retain(|p| !matches!(p, crellvm::erhl::Pred::Lessdef(..)));
            }
            let _ = validate(&mutated); // must not panic
        }
    }
}
