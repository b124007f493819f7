//! Differential tests for the tiered interpreter: the bytecode baseline
//! tier must be observably *identical* to the tree-walk reference — same
//! `End`, same UB reason, same event trace, same fuel and step counts,
//! same undef resolutions — on generated modules and on hand-written
//! kernels that stress the lowering's sharp edges (phi back-edges, the
//! fused icmp+br superinstruction, gep/load/store, poison, traps).
//!
//! The tree-walker is the trusted reference (inside the TCB); the
//! bytecode tier is a performance substitution checked *by* these tests
//! and by the fuzz oracle's `Differential` mode, not by inspection.

use crellvm::gen::{generate_module, GenConfig};
use crellvm::interp::{
    compile_module, compile_module_with, run_main, run_main_tiered, CompileOptions, End, RunConfig,
    Tier, UndefPolicy,
};
use crellvm::ir::{parse_module, Module};

mod hostile_ir;

/// Run under both tiers and insist on full `RunResult` equality
/// (including steps and fuel), then re-run under `Differential` and
/// insist the built-in comparator agrees there is nothing to report.
fn assert_tier_parity(m: &Module, cfg: &RunConfig) {
    let tree = run_main(
        m,
        &RunConfig {
            tier: Tier::Tree,
            ..cfg.clone()
        },
    );
    let bc = run_main(
        m,
        &RunConfig {
            tier: Tier::Bytecode,
            ..cfg.clone()
        },
    );
    assert_eq!(tree, bc, "tree vs bytecode results differ");
    let diff = run_main_tiered(
        m,
        &RunConfig {
            tier: Tier::Differential,
            ..cfg.clone()
        },
        None,
    );
    assert!(
        diff.divergence.is_none(),
        "differential tier reported: {}",
        diff.divergence.unwrap().mismatch
    );
    assert_eq!(
        diff.result, tree,
        "differential must act on the tree result"
    );
}

fn parity_src(src: &str, cfg: &RunConfig) {
    let m = parse_module(src).expect("parse");
    crellvm::ir::verify_module(&m).expect("verify");
    assert_tier_parity(&m, cfg);
}

/// The property the whole tier rests on: over random generated modules
/// (the fuzz oracle's exact workload family), across input seeds and
/// both undef policies, the tiers are bit-for-bit identical.
#[test]
fn generated_modules_are_tier_identical() {
    for seed in 0..24u64 {
        let m = generate_module(&GenConfig {
            seed: 0x9e3779b9 + seed,
            functions: 3,
            ..GenConfig::default()
        });
        for env_seed in [0xC0FFEE, 7] {
            for undef in [UndefPolicy::Zero, UndefPolicy::Seeded(env_seed)] {
                assert_tier_parity(
                    &m,
                    &RunConfig {
                        fuel: 200_000,
                        env_seed,
                        undef,
                        ..RunConfig::default()
                    },
                );
            }
        }
    }
}

/// Out-of-fuel truncation must happen at the *same step* in both tiers:
/// sweep fuel through a loop so every instruction position is the last.
#[test]
fn fuel_exhaustion_is_step_exact() {
    let m = generate_module(&GenConfig {
        seed: 0x51ee7,
        functions: 2,
        ..GenConfig::default()
    });
    for fuel in (1..200).step_by(7) {
        assert_tier_parity(
            &m,
            &RunConfig {
                fuel,
                ..RunConfig::default()
            },
        );
    }
}

/// A run that asks for more memory than the budget allows ends
/// `OutOfFuel` at the same step on both tiers, never by aborting; a
/// module whose globals alone exceed the budget ends before its first
/// instruction.
#[test]
fn allocations_past_the_memory_budget_run_out_of_fuel() {
    for src in hostile_ir::MEMORY_HOGS {
        let m = parse_module(src).expect("parse");
        crellvm::ir::verify_module(&m).expect("verify");
        assert_tier_parity(&m, &RunConfig::default());
        let r = run_main(&m, &RunConfig::default());
        assert_eq!(r.end, End::OutOfFuel, "{src}");
        assert!(r.events.is_empty(), "{src}");
    }
    let globals = parse_module(hostile_ir::MEMORY_HOGS[1]).unwrap();
    assert_eq!(run_main(&globals, &RunConfig::default()).steps, 0);
}

/// Dispatch-bound arithmetic loop: phi back-edge every iteration plus a
/// trailing `icmp`/`br i1` pair, which the compiler fuses into the
/// `IcmpBr` superinstruction — parity here proves the fusion burns fuel
/// twice and still writes the icmp destination slot.
#[test]
fn arith_loop_with_fused_icmp_br() {
    parity_src(
        r#"
        declare @print(i64)
        define @main() {
        entry:
          br label loop
        loop:
          %i = phi i64 [ 0, entry ], [ %i2, loop ]
          %acc = phi i64 [ 1, entry ], [ %acc3, loop ]
          %m = mul i64 %acc, 31
          %x = xor i64 %m, %i
          %s = shl i64 %x, 1
          %acc3 = add i64 %s, 7
          %i2 = add i64 %i, 1
          %c = icmp slt i64 %i2, 500
          br i1 %c, label loop, label exit
        exit:
          call void @print(i64 %acc3)
          %c2 = icmp eq i64 %acc3, %acc3
          call void @print(i64 %i2)
          ret void
        }
        "#,
        &RunConfig {
            fuel: 1_000_000,
            ..RunConfig::default()
        },
    );
}

/// Memory kernel: alloca / gep / store / load round-trips in a loop.
#[test]
fn memory_loop_gep_load_store() {
    parity_src(
        r#"
        declare @print(i64)
        define @main() {
        entry:
          %buf = alloca i64, 64
          br label loop
        loop:
          %i = phi i64 [ 0, entry ], [ %i2, loop ]
          %slot = and i64 %i, 63
          %p = gep inbounds ptr %buf, i64 %slot
          %v = load i64, ptr %p
          %v2 = add i64 %v, %i
          store i64 %v2, ptr %p
          %i2 = add i64 %i, 1
          %c = icmp ult i64 %i2, 300
          br i1 %c, label loop, label exit
        exit:
          %p0 = gep inbounds ptr %buf, i64 7
          %r = load i64, ptr %p0
          call void @print(i64 %r)
          ret void
        }
        "#,
        &RunConfig {
            fuel: 1_000_000,
            ..RunConfig::default()
        },
    );
}

/// Poison propagation: `gep inbounds` past the allocation poisons the
/// pointer, the load on it is UB — identically in both tiers.
#[test]
fn out_of_bounds_inbounds_gep_poisons_identically() {
    parity_src(
        r#"
        define @main() {
        entry:
          %p = alloca i32, 2
          %q = gep inbounds ptr %p, i64 9
          %v = load i32, ptr %q
          ret void
        }
        "#,
        &RunConfig::default(),
    );
}

/// Branching on a poisoned condition is UB with the same reason in both
/// tiers (this exercises the fused IcmpBr slow path: the icmp operand is
/// not a concrete int).
#[test]
fn branch_on_poison_is_ub_in_both_tiers() {
    let src = r#"
        define @main() {
        entry:
          %p = alloca i32, 2
          %q = gep inbounds ptr %p, i64 9
          %i = ptrtoint ptr %q to i64
          %c = icmp eq i64 %i, 0
          br i1 %c, label a, label b
        a:
          ret void
        b:
          ret void
        }
    "#;
    parity_src(src, &RunConfig::default());
    let m = parse_module(src).unwrap();
    let r = run_main(
        &m,
        &RunConfig {
            tier: Tier::Bytecode,
            ..RunConfig::default()
        },
    );
    assert!(matches!(r.end, End::Ub(_)), "{:?}", r.end);
}

/// Trapping ops take the slow (shared-core) path in the bytecode tier;
/// division by zero must be the same UB either way, and a non-trapping
/// division the same quotient.
#[test]
fn division_traps_and_quotients_match() {
    parity_src(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          %q = sdiv i32 -8, 2
          call void @print(i32 %q)
          %r = srem i32 7, 3
          call void @print(i32 %r)
          ret void
        }
        "#,
        &RunConfig::default(),
    );
    parity_src(
        "define @main() {\nentry:\n  %z = sub i32 1, 1\n  %q = udiv i32 5, %z\n  ret void\n}\n",
        &RunConfig::default(),
    );
}

/// Undef resolution draws from a per-run counter; the tiers must consume
/// the counter in the same order so `Seeded` runs resolve identically.
#[test]
fn seeded_undef_resolution_order_matches() {
    parity_src(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          %p = alloca i32, 4
          %a = load i32, ptr %p
          %q = gep ptr %p, i64 2
          %b = load i32, ptr %q
          %s = add i32 %a, %b
          call void @print(i32 %s)
          call void @print(i32 %a)
          ret void
        }
        "#,
        &RunConfig {
            undef: UndefPolicy::Seeded(0xDECAF),
            ..RunConfig::default()
        },
    );
}

/// Calls and external events: internal calls push frames, externals emit
/// events whose deterministic return values depend on the event index —
/// both must line up across tiers, including through recursion depth UB.
#[test]
fn calls_events_and_recursion_match() {
    parity_src(
        r#"
        declare @read() -> i32
        declare @print(i32)
        define @twice(i32 %x) -> i32 {
        entry:
          %d = add i32 %x, %x
          ret i32 %d
        }
        define @main() {
        entry:
          %a = call i32 @read()
          %b = call i32 @twice(i32 %a)
          call void @print(i32 %b)
          %c = call i32 @read()
          call void @print(i32 %c)
          ret void
        }
        "#,
        &RunConfig {
            env_seed: 42,
            ..RunConfig::default()
        },
    );
    parity_src(
        r#"
        define @rec(i32 %n) -> i32 {
        entry:
          %m = add i32 %n, 1
          %r = call i32 @rec(i32 %m)
          ret i32 %r
        }
        define @main() {
        entry:
          %x = call i32 @rec(i32 0)
          ret void
        }
        "#,
        &RunConfig {
            fuel: 1_000_000,
            ..RunConfig::default()
        },
    );
}

/// A switch over computed values, including the default edge and phi
/// moves on the case edges.
#[test]
fn switch_dispatch_matches() {
    parity_src(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          br label loop
        loop:
          %i = phi i32 [ 0, entry ], [ %i2, next ]
          %k = and i32 %i, 3
          switch i32 %k, label d [ 0: a, 1: b, 2: c ]
        a:
          br label next
        b:
          br label next
        c:
          br label next
        d:
          br label next
        next:
          %tag = phi i32 [ 10, a ], [ 20, b ], [ 30, c ], [ 40, d ]
          call void @print(i32 %tag)
          %i2 = add i32 %i, 1
          %more = icmp slt i32 %i2, 9
          br i1 %more, label loop, label exit
        exit:
          ret void
        }
        "#,
        &RunConfig::default(),
    );
}

/// The negative control: a deliberately miscompiled lowering (`sub`
/// lowered as `add`) must be *caught* by the differential tier, proving
/// these parity tests cannot pass vacuously.
#[test]
fn sabotaged_lowering_is_detected() {
    let m = parse_module(
        r#"
        declare @print(i32)
        define @main() {
        entry:
          %d = sub i32 90, 48
          call void @print(i32 %d)
          ret void
        }
        "#,
    )
    .unwrap();
    let healthy = compile_module(&m);
    let broken = compile_module_with(
        &m,
        CompileOptions {
            miscompile_sub_as_add: true,
        },
    );
    let cfg = RunConfig {
        tier: Tier::Differential,
        ..RunConfig::default()
    };
    assert!(run_main_tiered(&m, &cfg, Some(&healthy))
        .divergence
        .is_none());
    let div = run_main_tiered(&m, &cfg, Some(&broken))
        .divergence
        .expect("sub-as-add must diverge observably");
    assert!(
        div.mismatch.contains("event"),
        "first mismatch should be the printed value: {}",
        div.mismatch
    );
    assert_ne!(div.tree.events, div.bytecode.events);
}
