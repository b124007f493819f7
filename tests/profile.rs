//! End-to-end tests of the cost-profile layer: span trees folded into
//! self-time/cost profiles, collapsed-stack flamegraph output, and the
//! determinism and accounting invariants the formats promise.

use crellvm::ir::parse_module;
use crellvm::passes::{run_pipeline_parallel, ParallelOptions, PassConfig, PipelineReport};
use crellvm::telemetry::{Profile, ProfileWeight, Registry, Telemetry};
use std::sync::Arc;
use std::time::Instant;

const PROGRAM: &str = r#"
    declare @print(i32)
    define @main(i32 %n) {
    entry:
      %p = alloca i32
      store i32 0, ptr %p
      br label loop
    loop:
      %i = phi i32 [ 0, entry ], [ %i2, loop ]
      %acc = load i32, ptr %p
      %inv = mul i32 %n, 4
      %t = add i32 %inv, 0
      %acc2 = add i32 %acc, %t
      store i32 %acc2, ptr %p
      %i2 = add i32 %i, 1
      %c = icmp slt i32 %i2, 5
      br i1 %c, label loop, label exit
    exit:
      %r = load i32, ptr %p
      call void @print(i32 %r)
      ret void
    }
    define @helper(i32 %a) {
    entry:
      %x = add i32 %a, 1
      %y = mul i32 %x, 2
      call void @print(i32 %y)
      ret void
    }
"#;

fn run(src: &str, jobs: usize) -> PipelineReport {
    let m = parse_module(src).expect("parse");
    let tel = Telemetry::with_registry(Arc::new(Registry::new()));
    let opts = ParallelOptions {
        jobs,
        spans: true,
        ..ParallelOptions::default()
    };
    let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
    report
}

/// Cost-weighted profiles are the profile analogue of
/// `Snapshot::deterministic()`: byte-identical at any thread count.
#[test]
fn cost_profile_and_folded_output_are_byte_identical_across_jobs() {
    let at = |jobs: usize| {
        let profile = Profile::from_tree(&run(PROGRAM, jobs).span_tree("m"));
        (
            profile.folded(ProfileWeight::Cost),
            profile.top_table(ProfileWeight::Cost, 50),
        )
    };
    let (folded1, table1) = at(1);
    let (folded2, table2) = at(2);
    let (folded8, table8) = at(8);
    assert_eq!(folded1, folded2, "folded output differs at --jobs 1 vs 2");
    assert_eq!(folded1, folded8, "folded output differs at --jobs 1 vs 8");
    assert_eq!(table1, table2, "profile table differs at --jobs 1 vs 2");
    assert_eq!(table1, table8, "profile table differs at --jobs 1 vs 8");
}

/// Every folded line is valid collapsed-stack format: frames joined by
/// `;`, one space, an integer weight — and no frame smuggles a separator.
#[test]
fn folded_lines_are_valid_collapsed_stack_format() {
    let profile = Profile::from_tree(&run(PROGRAM, 2).span_tree("m"));
    for weight in [ProfileWeight::Time, ProfileWeight::Cost] {
        let folded = profile.folded(weight);
        assert!(!folded.is_empty(), "folded output is empty");
        for line in folded.lines() {
            let (stack, n) = line.rsplit_once(' ').expect("line has a weight column");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            n.parse::<u64>()
                .unwrap_or_else(|_| panic!("non-integer weight in {line:?}"));
            for frame in stack.split(';') {
                assert!(!frame.is_empty(), "empty frame in {line:?}");
                assert!(!frame.contains('\n'), "newline inside frame in {line:?}");
            }
        }
    }
    // The hierarchy reaches module;function;pass;phase;proof-command;rule.
    let folded = profile.folded(ProfileWeight::Cost);
    assert!(
        folded.lines().any(|l| {
            let stack = l.rsplit_once(' ').unwrap().0;
            stack.split(';').count() >= 6
        }),
        "no rule-depth stacks in folded output:\n{folded}"
    );
}

/// The accounting identity behind every flamegraph: the sum of the leaf
/// self-weights equals the root total, exactly, for both weight modes.
#[test]
fn folded_self_weights_sum_to_root_total() {
    let profile = Profile::from_tree(&run(PROGRAM, 4).span_tree("m"));
    for weight in [ProfileWeight::Time, ProfileWeight::Cost] {
        let sum: u64 = profile
            .folded(weight)
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            sum,
            profile.root_total(weight),
            "folded sum != root total for {weight:?}"
        );
    }
}

/// The time-weighted root total tracks wall time: over a serial run it
/// must account for the overwhelming share of the measured wall clock
/// (spans cover parse-to-verdict of every unit; only scheduling overhead
/// between items is unattributed).
#[test]
fn time_profile_root_total_tracks_wall_time() {
    let m = parse_module(PROGRAM).expect("parse");
    let tel = Telemetry::with_registry(Arc::new(Registry::new()));
    let opts = ParallelOptions {
        jobs: 1,
        spans: true,
        ..ParallelOptions::default()
    };
    // Warm up once so lazy one-time costs don't land inside the timed run.
    let _ = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
    let t = Instant::now();
    let (_, report) = run_pipeline_parallel(&m, &PassConfig::default(), &opts, &tel);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let profile = Profile::from_tree(&report.span_tree("m"));
    let total_ns = profile.root_total(ProfileWeight::Time);
    assert!(total_ns > 0, "no time recorded");
    assert!(
        total_ns <= wall_ns,
        "span total {total_ns}ns exceeds wall {wall_ns}ns"
    );
    let coverage = total_ns as f64 / wall_ns as f64;
    assert!(
        coverage > 0.5,
        "span total covers only {:.1}% of wall time ({total_ns}ns of {wall_ns}ns)",
        100.0 * coverage
    );
}

/// `--top` caps the table and says what it dropped.
#[test]
fn top_table_caps_and_reports_whats_hidden() {
    let profile = Profile::from_tree(&run(PROGRAM, 1).span_tree("m"));
    let capped = profile.top_table(ProfileWeight::Cost, 3);
    // Header plus three rows plus the elision footer.
    assert_eq!(capped.lines().count(), 5, "unexpected table:\n{capped}");
    assert!(
        capped.lines().last().unwrap().contains("more frames"),
        "missing elision footer:\n{capped}"
    );
}
