//! The vocabulary of a validation run: the pass list and the one
//! name → pass dispatch ([`run_pass_function`], [`run_pass`]), the proof
//! wire formats, and the step records and report that
//! [`ValidationRun`](crate::ValidationRun) produces.
//!
//! Each *step* (one pass applied to one function) is the paper's
//! validation unit (#V); its outcome is validated (`V`), failed (`#F`), or
//! not supported (`#NS`), and the four time columns of Fig 6/8 are
//! measured: `Orig` (the bare pass), `PCal` (pass + proof generation),
//! `I/O` (encoding and decoding the proof), and `PCheck` (the checker).

use crate::config::{PassConfig, PassOutcome};
use crellvm_core::serialize_bin::EncodeScratch;
use crellvm_core::{
    proof_from_bytes, proof_from_json, proof_to_bytes_v2_into, proof_to_json, ProofUnit,
};
use crellvm_ir::{Function, Module};
use crellvm_telemetry::forensics::ForensicBundle;
use crellvm_telemetry::{SpanNode, SpanTree, Telemetry};
use std::time::Duration;

/// On-the-wire encoding of proofs between the compiler and the checker.
///
/// The paper ships JSON and measures it as the dominant cost column; §7
/// proposes binary proofs as the remedy. Both are available so the
/// benches can quantify the remedy end-to-end: the paper's JSON, and the
/// dictionary-coded v2 container that is the engine default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProofFormat {
    /// JSON text, as in the paper's pipeline.
    Json,
    /// Wire format v2: dictionary-coded strings plus block/assertion
    /// delta tables. The default on-the-wire format.
    #[default]
    Binary,
}

/// Reusable per-worker codec buffers: the encode output and the v2
/// encoder dictionary/body survive across proofs, removing the per-unit
/// allocation churn from the io phase's encode.
#[derive(Debug, Default)]
pub struct CodecScratch {
    enc: EncodeScratch,
    /// The last encoded proof (`encode_into` output, `decode_scratch`
    /// input).
    pub buf: Vec<u8>,
}

impl ProofFormat {
    /// Serialize one proof into `scratch.buf`, returning the wire size.
    pub fn encode_into(self, unit: &ProofUnit, scratch: &mut CodecScratch) -> usize {
        match self {
            ProofFormat::Json => {
                let json = proof_to_json(unit).expect("serialize proof");
                scratch.buf.clear();
                scratch.buf.extend_from_slice(json.as_bytes());
            }
            ProofFormat::Binary => {
                proof_to_bytes_v2_into(unit, &mut scratch.enc, &mut scratch.buf)
                    .expect("serialize proof");
            }
        }
        scratch.buf.len()
    }

    /// Deserialize the proof last encoded into `scratch.buf`.
    pub fn decode_scratch(self, scratch: &mut CodecScratch) -> ProofUnit {
        let buf = &scratch.buf;
        match self {
            ProofFormat::Json => {
                let json = std::str::from_utf8(buf).expect("json proof is utf-8");
                proof_from_json(json).expect("deserialize proof")
            }
            ProofFormat::Binary => proof_from_bytes(buf).expect("deserialize proof"),
        }
    }

    /// Short stable name (CLI values, telemetry suffixes, bundle field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProofFormat::Json => "json",
            ProofFormat::Binary => "binary-v2",
        }
    }

    /// The `io.bytes.*` counter fed by this format.
    #[must_use]
    pub fn bytes_counter(self) -> &'static str {
        match self {
            ProofFormat::Json => "io.bytes.json",
            ProofFormat::Binary => "io.bytes.v2",
        }
    }

    /// Stable discriminant mixed into validation-cache keys (entries must
    /// not be shared across wire formats — step records carry the wire
    /// size). Token 1 belonged to a retired format; the values never
    /// change, or every cache on disk would go cold.
    #[must_use]
    pub fn wire_token(self) -> u64 {
        match self {
            ProofFormat::Json => 0,
            ProofFormat::Binary => 2,
        }
    }
}

/// The outcome of validating one translation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// Validated.
    Valid,
    /// Validation failed (a compiler or proof-generation bug!); the reason
    /// is attached.
    Failed(String),
    /// Not supported by the validator.
    NotSupported(String),
}

impl StepOutcome {
    /// The short verdict tag (`valid` / `failed` / `not_supported`).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            StepOutcome::Valid => "valid",
            StepOutcome::Failed(_) => "failed",
            StepOutcome::NotSupported(_) => "not_supported",
        }
    }
}

/// Render one step's verdict exactly as `crellvm opt` prints it.
///
/// This is the canonical human-readable verdict line; the serving daemon
/// uses the same function, so served verdicts are byte-identical to the
/// offline path by construction (the serve-smoke CI job diffs them).
#[must_use]
pub fn format_step_line(pass: &str, func: &str, outcome: &StepOutcome) -> String {
    match outcome {
        StepOutcome::Valid => format!("{pass:<12} @{func:<20} valid"),
        StepOutcome::NotSupported(r) => {
            format!("{pass:<12} @{func:<20} not-supported ({r})")
        }
        StepOutcome::Failed(e) => {
            format!("{pass:<12} @{func:<20} FAILED\n{:>34}reason: {e}", "")
        }
    }
}

/// One validated translation step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Pass name.
    pub pass: String,
    /// Function name.
    pub func: String,
    /// Validation outcome.
    pub outcome: StepOutcome,
    /// Serialized proof size in bytes (the paper's I/O payload).
    pub proof_bytes: usize,
}

/// One per-item causal span subtree awaiting assembly into the module
/// span tree (see [`PipelineReport::span_tree`]).
#[derive(Debug, Clone)]
pub struct SpanItem {
    /// Pass name.
    pub pass: String,
    /// Function name.
    pub func: String,
    /// The recorded pass-level span subtree.
    pub root: SpanNode,
}

/// Aggregate report of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Per-item causal span subtrees, in step order (present when the run
    /// collected spans).
    pub span_items: Vec<SpanItem>,
    /// Forensic bundles for failed steps, in step order (present when the
    /// run had forensics enabled).
    pub bundles: Vec<ForensicBundle>,
    /// Time running the plain passes (the paper's `Orig`).
    pub time_orig: Duration,
    /// Time running the proof-generating passes (`PCal`).
    pub time_pcal: Duration,
    /// Time serializing + deserializing proofs (`I/O`).
    pub time_io: Duration,
    /// Time checking proofs (`PCheck`).
    pub time_pcheck: Duration,
}

impl PipelineReport {
    /// Number of validation steps (#V).
    pub fn validations(&self) -> usize {
        self.steps.len()
    }

    /// Number of failed validations (#F).
    pub fn failures(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.outcome, StepOutcome::Failed(_)))
            .count()
    }

    /// Number of not-supported translations (#NS).
    pub fn not_supported(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.outcome, StepOutcome::NotSupported(_)))
            .count()
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: PipelineReport) {
        self.steps.extend(other.steps);
        self.span_items.extend(other.span_items);
        self.bundles.extend(other.bundles);
        self.time_orig += other.time_orig;
        self.time_pcal += other.time_pcal;
        self.time_io += other.time_io;
        self.time_pcheck += other.time_pcheck;
    }

    /// Assemble the collected span subtrees into the module span tree.
    ///
    /// `span_items` arrive in step order (pass-major, functions in module
    /// order within each pass) — a schedule-independent order — so the
    /// resulting tree is identical at any worker count.
    pub fn span_tree(&self, module_name: &str) -> SpanTree {
        SpanTree::assemble(
            module_name,
            self.span_items
                .iter()
                .map(|s| (s.func.clone(), s.root.clone())),
        )
    }
}

/// The passes `crellvm opt` and the serving daemon run by default, in
/// order; also the list of every pass name the engine knows.
pub const PASS_ORDER: [&str; 4] = ["mem2reg", "instcombine", "gvn", "licm"];

/// Run one pass, by name, over one function, recording the pass's domain
/// counters into `tel`: the one place a pass name maps to code.
///
/// # Panics
///
/// If `name` is not in [`PASS_ORDER`].
pub fn run_pass_function(
    name: &str,
    f: &Function,
    config: &PassConfig,
    tel: &Telemetry,
) -> ProofUnit {
    match name {
        "mem2reg" => crate::mem2reg::promote_function_traced(f, config, tel),
        "instcombine" => crate::instcombine::instcombine_function_traced(f, config, tel),
        "gvn" => crate::gvn::gvn_function_traced(f, config, tel),
        "licm" => crate::licm::licm_function_traced(f, config, tel),
        other => panic!("unknown pass {other}"),
    }
}

/// Run one pass, by name, over every function of a module. Function `i`
/// of the result's module is `proofs[i].tgt`, so functions that share a
/// name stay apart.
///
/// # Panics
///
/// If `name` is not in [`PASS_ORDER`].
pub fn run_pass(name: &str, m: &Module, config: &PassConfig) -> PassOutcome {
    let tel = Telemetry::disabled();
    let proofs: Vec<ProofUnit> = m
        .functions
        .iter()
        .map(|f| run_pass_function(name, f, config, &tel))
        .collect();
    let module = Module {
        globals: m.globals.clone(),
        declares: m.declares.clone(),
        functions: proofs.iter().map(|u| u.tgt.clone()).collect(),
    };
    PassOutcome { module, proofs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BugSet;
    use crate::parallel::{run_pipeline_parallel, ParallelOptions, ValidationRun};
    use crellvm_core::CheckerConfig;
    use crellvm_interp::{check_refinement, run_main, RunConfig};
    use crellvm_ir::{parse_module, verify_module};

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
    "#;

    /// The whole pipeline on one worker, in the given proof wire format.
    fn one_worker(
        m: &Module,
        config: &PassConfig,
        format: ProofFormat,
    ) -> (Module, PipelineReport) {
        let opts = ParallelOptions {
            jobs: 1,
            format,
            ..ParallelOptions::default()
        };
        run_pipeline_parallel(m, config, &opts, &Telemetry::disabled())
    }

    #[test]
    fn pipeline_validates_and_preserves_behaviour() {
        let m = parse_module(PROGRAM).unwrap();
        verify_module(&m).unwrap();
        let (out, report) = one_worker(&m, &PassConfig::default(), ProofFormat::Json);
        verify_module(&out).unwrap();
        assert_eq!(report.failures(), 0, "steps: {:#?}", report.steps);
        assert!(report.validations() >= 4);
        // Differential run: same observable behaviour.
        let cfg = RunConfig::default();
        let src_run = run_main(&m, &cfg);
        let tgt_run = run_main(&out, &cfg);
        check_refinement(&src_run, &tgt_run).expect("behaviour preserved");
        // And the program got meaningfully smaller.
        assert!(
            out.function("main").unwrap().stmt_count() < m.function("main").unwrap().stmt_count()
        );
    }

    #[test]
    fn buggy_pipeline_reports_failures() {
        let m = parse_module(
            r#"
            declare @bar(ptr, ptr)
            define @main(ptr %p) {
            entry:
              %q1 = gep inbounds ptr %p, i64 10
              %q2 = gep ptr %p, i64 10
              call void @bar(ptr %q1, ptr %q2)
              ret void
            }
            "#,
        )
        .unwrap();
        let config = PassConfig::with_bugs(BugSet {
            pr28562: true,
            ..BugSet::default()
        });
        let (_, report) = one_worker(&m, &config, ProofFormat::Json);
        assert!(report.failures() > 0);
        let failing: Vec<_> = report
            .steps
            .iter()
            .filter(|s| matches!(s.outcome, StepOutcome::Failed(_)))
            .collect();
        assert!(failing.iter().all(|s| s.pass == "gvn"));
    }

    #[test]
    fn report_counts_and_merge() {
        let m = parse_module(PROGRAM).unwrap();
        let (_, mut r1) = one_worker(&m, &PassConfig::default(), ProofFormat::Json);
        let (_, r2) = one_worker(&m, &PassConfig::default(), ProofFormat::Json);
        let n = r1.validations();
        r1.merge(r2);
        assert_eq!(r1.validations(), 2 * n);
        assert_eq!(r1.not_supported(), 0);
        assert!(r1.time_pcheck > Duration::ZERO);
        assert!(r1.steps.iter().all(|s| s.proof_bytes > 0));
    }

    #[test]
    fn binary_proof_formats_agree_with_json() {
        let m = parse_module(PROGRAM).unwrap();
        let config = PassConfig::default();
        let (jm, jrep) = one_worker(&m, &config, ProofFormat::Json);
        verify_module(&jm).unwrap();
        let (bm, brep) = one_worker(&m, &config, ProofFormat::Binary);
        assert_eq!(
            crellvm_ir::printer::print_module(&jm),
            crellvm_ir::printer::print_module(&bm)
        );
        assert_eq!(jrep.steps.len(), brep.steps.len());
        for (a, b) in jrep.steps.iter().zip(&brep.steps) {
            assert_eq!(a.outcome, b.outcome, "@{} ({})", a.func, a.pass);
            assert!(b.proof_bytes < a.proof_bytes, "not smaller at @{}", a.func);
        }
    }

    #[test]
    fn functions_with_the_same_name_stay_apart() {
        // The parser and the verifier accept two definitions of @f; every
        // pass result is placed by function index, never by name.
        let m = parse_module(
            r#"
            define @f(i32 %n) -> i32 {
            entry:
              %p = alloca i32
              store i32 %n, ptr %p
              %a = load i32, ptr %p
              ret i32 %a
            }
            define @f(i32 %n) -> i32 {
            entry:
              %p = alloca i32
              %b = add i32 %n, 7
              store i32 %b, ptr %p
              %a = load i32, ptr %p
              ret i32 %a
            }
            "#,
        )
        .unwrap();
        verify_module(&m).unwrap();
        let config = PassConfig::default();
        let out = run_pass("mem2reg", &m, &config);

        let checker = CheckerConfig::sound();
        let opts = ParallelOptions {
            jobs: 1,
            ..ParallelOptions::default()
        };
        let tel = Telemetry::disabled();
        let mut run = ValidationRun::new(&m, &config, &checker, &opts, &tel);
        run.run_pass("mem2reg", &mut PipelineReport::default());
        let engine = run.into_module();

        assert_eq!(out.module.functions.len(), 2);
        assert_ne!(out.module.functions[0], out.module.functions[1]);
        for i in 0..2 {
            assert_eq!(out.module.functions[i], out.proofs[i].tgt, "@f #{i}");
            assert_eq!(out.module.functions[i], engine.functions[i], "@f #{i}");
            // Promoted: the first body keeps no statement, the second its add.
            assert_eq!(out.module.functions[i].stmt_count(), i, "@f #{i}");
        }
    }

    #[test]
    fn format_metadata_is_stable() {
        assert_eq!(ProofFormat::default(), ProofFormat::Binary);
        // Cache keys on disk mix these tokens in; renumbering one would
        // cold-start every cache written before.
        assert_eq!(ProofFormat::Json.wire_token(), 0);
        assert_eq!(ProofFormat::Binary.wire_token(), 2);
        assert_eq!(ProofFormat::Binary.name(), "binary-v2");
        assert_eq!(ProofFormat::Binary.bytes_counter(), "io.bytes.v2");
        assert_eq!(ProofFormat::Json.bytes_counter(), "io.bytes.json");
    }
}
