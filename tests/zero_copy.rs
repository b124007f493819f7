//! Equivalence of the zero-copy decode paths with the owned ones: the
//! arena-backed v2 scratch decoder must produce field-identical units,
//! and the mmap file reader must be observationally identical to a heap
//! read, including on truncated or bit-flipped files, where the
//! whole-stream checksum must turn every corruption into a clean error
//! *through the mapping*.

use crellvm::erhl::serialize_bin::DecodeScratch;
use crellvm::erhl::{
    proof_from_bytes, proof_from_bytes_v2, proof_from_bytes_v2_with, proof_to_bytes_v2,
    proof_to_json, read_bytes, validate, ProofUnit,
};
use crellvm::gen::{generate_module, FeatureMix, GenConfig};
use crellvm::passes::{gvn, instcombine, licm, mem2reg, PassConfig};
use proptest::prelude::*;
use std::path::PathBuf;

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

/// A scratch file under a per-process temp dir (proptest shrinks rerun
/// the closure, so the name only needs to be unique per test).
fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crellvm_zc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scratch-arena decoder (the worker fast path, reusing one
    /// `DecodeScratch` across units like a pipeline worker does) decodes
    /// every proof identically to the owned path — same fields, same
    /// verdict, same canonical re-encoding.
    #[test]
    fn scratch_decode_matches_owned_decode(seed in 0u64..2000) {
        let mut scratch = DecodeScratch::default();
        for unit in proofs_for_seed(seed) {
            let v2 = proof_to_bytes_v2(&unit).unwrap();
            let owned = proof_from_bytes_v2(&v2).unwrap();
            let zc = proof_from_bytes_v2_with(&v2, &mut scratch).unwrap();
            prop_assert_eq!(proof_to_json(&zc).unwrap(), proof_to_json(&owned).unwrap());
            prop_assert_eq!(proof_to_bytes_v2(&zc).unwrap(), v2);
            match (validate(&owned), validate(&zc)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "verdicts diverge: {other:?}"),
            }
        }
    }

    /// Reading a proof file through the mmap reader yields the same bytes
    /// as a heap read, and both decode to the same unit.
    #[test]
    fn mapped_read_is_identical_to_heap_read(seed in 0u64..500) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let bytes = proof_to_bytes_v2(&unit).unwrap();
        let path = tmpfile("mapped.cpe");
        std::fs::write(&path, &bytes).unwrap();
        let heap = read_bytes(&path, false).unwrap();
        let mapped = read_bytes(&path, true).unwrap();
        prop_assert!(!heap.is_mapped());
        if cfg!(target_os = "linux") {
            prop_assert!(mapped.is_mapped(), "non-empty file must map on linux");
        }
        prop_assert_eq!(&heap[..], &bytes[..]);
        prop_assert_eq!(&mapped[..], &bytes[..]);
        let a = proof_from_bytes(&heap).unwrap();
        let b = proof_from_bytes(&mapped).unwrap();
        prop_assert_eq!(proof_to_json(&a).unwrap(), proof_to_json(&b).unwrap());
    }

    /// Truncating a v2 proof file at any byte boundary is a clean decode
    /// error through the mmap reader — the checksum pass (the one full
    /// touch of the mapping) rejects the cut before the body is read.
    #[test]
    fn truncated_file_through_mmap_is_a_clean_error(seed in 0u64..200, frac in 0.0f64..1.0) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let bytes = proof_to_bytes_v2(&unit).unwrap();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let path = tmpfile("truncated.cpe");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for mmap in [false, true] {
            let read = read_bytes(&path, mmap).unwrap();
            prop_assert_eq!(read.len(), cut);
            prop_assert!(proof_from_bytes(&read).is_err(), "mmap={mmap}");
        }
    }

    /// A single bit flip anywhere in the file never panics the decoder
    /// when read through the mapping; past the 2-byte magic the checksum
    /// makes it a hard error, identically for the heap and mapped reads.
    #[test]
    fn bit_flipped_file_through_mmap_never_panics(
        seed in 0u64..200, frac in 0.0f64..1.0, bit in 0u32..8
    ) {
        let Some(unit) = proofs_for_seed(seed).into_iter().next() else { return Ok(()) };
        let mut bytes = proof_to_bytes_v2(&unit).unwrap();
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[pos] ^= 1 << bit;
        let path = tmpfile("flipped.cpe");
        std::fs::write(&path, &bytes).unwrap();
        let heap = read_bytes(&path, false).unwrap();
        let mapped = read_bytes(&path, true).unwrap();
        let (h, m) = (proof_from_bytes(&heap), proof_from_bytes(&mapped));
        prop_assert_eq!(h.is_err(), m.is_err(), "heap and mapped reads must agree");
        if pos >= 2 {
            prop_assert!(m.is_err(), "corruption past the magic must be rejected");
        } else if let Ok(mutated) = m {
            let _ = validate(&mutated); // may sniff as v1; must not panic
        }
    }
}

/// An empty proof file is served from the heap on every platform (there
/// is nothing to map) and still fails decoding cleanly.
#[test]
fn empty_file_reads_heap_backed_and_fails_cleanly() {
    let path = tmpfile("empty.cpe");
    std::fs::write(&path, b"").unwrap();
    for mmap in [false, true] {
        let read = read_bytes(&path, mmap).unwrap();
        assert!(!read.is_mapped());
        assert!(read.is_empty());
        assert!(proof_from_bytes(&read).is_err());
    }
}
