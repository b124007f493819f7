//! Criterion micro-benchmarks for the framework's hot paths: the proof
//! checker, the post-assertion calculus, proof serialization (the paper's
//! I/O column), and the reference interpreter.

use crellvm_core::{
    calc_post_cmd, proof_from_bytes, proof_from_json, proof_to_bytes_v2, proof_to_json, validate,
    Assertion, ProofUnit,
};
use crellvm_gen::{generate_module, GenConfig};
use crellvm_interp::{run_main, RunConfig};
use crellvm_ir::{parse_module, printer::print_module};
use crellvm_passes::{gvn, mem2reg, PassConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn representative_units() -> Vec<ProofUnit> {
    let m = generate_module(&GenConfig {
        seed: 77,
        functions: 3,
        ..GenConfig::default()
    });
    let mut units = mem2reg(&m, &PassConfig::default()).proofs;
    units.extend(gvn(&m, &PassConfig::default()).proofs);
    units
}

fn bench_checker(c: &mut Criterion) {
    let units = representative_units();
    c.bench_function("checker/validate_generated_units", |b| {
        b.iter(|| {
            for u in &units {
                let _ = std::hint::black_box(validate(u));
            }
        })
    });
}

fn bench_postcond(c: &mut Criterion) {
    let m =
        parse_module("define @f(i32 %a) -> i32 {\nentry:\n  %x = add i32 %a, 1\n  ret i32 %x\n}\n")
            .unwrap();
    let stmt = m.functions[0].blocks[0].stmts[0].clone();
    let p = Assertion::new();
    c.bench_function("checker/calc_post_cmd", |b| {
        b.iter(|| std::hint::black_box(calc_post_cmd(&p, Some(&stmt), Some(&stmt))))
    });
}

fn bench_proof_io(c: &mut Criterion) {
    let units = representative_units();
    c.bench_function("io/proof_json_roundtrip", |b| {
        b.iter(|| {
            for u in &units {
                let s = proof_to_json(u).unwrap();
                let _ = std::hint::black_box(proof_from_json(&s).unwrap());
            }
        })
    });
    // The paper's §7 remedy: binary instead of JSON proofs.
    c.bench_function("io/proof_binary_roundtrip", |b| {
        b.iter(|| {
            for u in &units {
                let bytes = proof_to_bytes_v2(u).unwrap();
                let _ = std::hint::black_box(proof_from_bytes(&bytes).unwrap());
            }
        })
    });
}

fn bench_passes(c: &mut Criterion) {
    let m = generate_module(&GenConfig {
        seed: 88,
        functions: 4,
        ..GenConfig::default()
    });
    c.bench_function("passes/mem2reg_with_proofgen", |b| {
        b.iter(|| std::hint::black_box(mem2reg(&m, &PassConfig::default())))
    });
    c.bench_function("passes/gvn_with_proofgen", |b| {
        b.iter(|| std::hint::black_box(gvn(&m, &PassConfig::default())))
    });
}

fn bench_interp_and_parser(c: &mut Criterion) {
    let m = generate_module(&GenConfig {
        seed: 99,
        functions: 3,
        ..GenConfig::default()
    });
    let rc = RunConfig::default();
    c.bench_function("interp/run_main", |b| {
        b.iter(|| std::hint::black_box(run_main(&m, &rc)))
    });
    let text = print_module(&m);
    c.bench_function("ir/parse_module", |b| {
        b.iter(|| std::hint::black_box(parse_module(&text).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_checker,
    bench_postcond,
    bench_proof_io,
    bench_passes,
    bench_interp_and_parser
);
criterion_main!(benches);
