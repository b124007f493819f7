//! The full Fig 1 framework flow, end to end:
//!
//! 1. compile `src.cll` with the "original" optimizer → `tgt.cll`;
//! 2. compile again with the proof-generating optimizer → `tgt'.cll` +
//!    proof (serialized to JSON on disk, as the paper does);
//! 3. the proof checker validates `src → tgt'`;
//! 4. `llvm-diff` confirms `tgt` and `tgt'` are alpha-equivalent.
//!
//! Plus parser/printer and serialization round-trips over the generated
//! corpus.

use crellvm::diff::diff_modules;
use crellvm::erhl::{proof_from_json, proof_to_json, validate, Verdict};
use crellvm::gen::{generate_module, GenConfig};
use crellvm::ir::{parse_module, printer::print_module, verify_module};
use crellvm::passes::{run_pass, PassConfig, PASS_ORDER};

#[test]
fn fig1_framework_flow() {
    let dir = std::env::temp_dir().join("crellvm_framework_test");
    std::fs::create_dir_all(&dir).unwrap();
    let config = PassConfig::default();

    for seed in 0..8u64 {
        let src = generate_module(&GenConfig {
            seed,
            functions: 3,
            ..GenConfig::default()
        });

        // Step 1: the "original" compiler.
        let mut tgt = src.clone();
        for pass in PASS_ORDER {
            tgt = run_pass(pass, &tgt, &config).module;
        }

        // Step 2: the proof-generating compiler, writing everything to
        // disk as the paper's pipeline does.
        let mut tgt_prime = src.clone();
        let mut proof_files = Vec::new();
        for pass in PASS_ORDER {
            let out = run_pass(pass, &tgt_prime, &config);
            for (i, unit) in out.proofs.iter().enumerate() {
                let path = dir.join(format!("s{seed}_{pass}_{i}.proof.json"));
                std::fs::write(&path, proof_to_json(unit).unwrap()).unwrap();
                proof_files.push(path);
            }
            tgt_prime = out.module;
        }
        std::fs::write(dir.join(format!("s{seed}_src.cll")), print_module(&src)).unwrap();
        std::fs::write(
            dir.join(format!("s{seed}_tgt.cll")),
            print_module(&tgt_prime),
        )
        .unwrap();

        // Step 3: an independent process (simulated: fresh parse of
        // everything from disk) checks the proofs.
        for path in &proof_files {
            let json = std::fs::read_to_string(path).unwrap();
            let unit = proof_from_json(&json).unwrap();
            match validate(&unit) {
                Ok(Verdict::Valid | Verdict::NotSupported(_)) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }

        // Step 4: llvm-diff between tgt and tgt'.
        diff_modules(&tgt, &tgt_prime).expect("tgt and tgt' are alpha-equivalent");

        // And the on-disk IR round-trips.
        let reparsed =
            parse_module(&std::fs::read_to_string(dir.join(format!("s{seed}_tgt.cll"))).unwrap())
                .expect("printed target parses");
        verify_module(&reparsed).unwrap();
        diff_modules(&reparsed, &tgt_prime).expect("round-tripped target is alpha-equivalent");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Printer/parser round-trip over the generated corpus (beyond the unit
/// tests' hand-written samples).
#[test]
fn print_parse_roundtrip_corpus() {
    for seed in 0..25u64 {
        let m = generate_module(&GenConfig {
            seed,
            functions: 3,
            unsupported_rate: 0.2,
            ..GenConfig::default()
        });
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        verify_module(&m2).unwrap();
        // Printing is a fixpoint after one round trip.
        assert_eq!(print_module(&m2), text, "seed {seed}");
        // And alpha-equivalent to the original.
        diff_modules(&m, &m2).unwrap();
    }
}

/// Proof serialization round-trips for every pass over the corpus.
#[test]
fn proof_serialization_roundtrip_corpus() {
    let config = PassConfig::default();
    for seed in 0..10u64 {
        let m = generate_module(&GenConfig {
            seed,
            functions: 2,
            ..GenConfig::default()
        });
        for pass in PASS_ORDER {
            let out = run_pass(pass, &m, &config);
            for unit in &out.proofs {
                let json = proof_to_json(unit).unwrap();
                let back = proof_from_json(&json).unwrap();
                assert_eq!(unit.assertions, back.assertions);
                assert_eq!(unit.infrules, back.infrules);
                assert_eq!(unit.alignment, back.alignment);
                assert_eq!(validate(unit).is_ok(), validate(&back).is_ok());
            }
        }
    }
}
