//! The fueled small-step interpreter (the tree-walking reference tier).
//!
//! Value-level semantics (constant forcing, undef resolution, binops,
//! casts, environment returns, fuel) live in [`crate::machine`] and are
//! shared with the bytecode tier; this module owns only the tree-walking
//! instruction dispatch and control flow. The tree-walker is the trusted
//! reference: the bytecode tier ([`crate::exec_bc`]) is checked against
//! it differentially and stays outside the TCB.

use crate::event::Event;
use crate::machine::{MachineCore, Stop};
use crate::mem::{MemBlockId, MemError};
use crate::tier::Tier;
use crate::value::Val;
use crellvm_ir::{BlockId, Function, Inst, Module, RegId, Term, Type, Value};
use std::collections::HashMap;
use std::fmt;

pub use crate::mem::NULL_BLOCK;

/// How `undef` is resolved when an operation must observe a concrete value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UndefPolicy {
    /// Resolve every `undef` to zero.
    #[default]
    Zero,
    /// Resolve `undef` to a deterministic pseudo-random value derived from
    /// the given seed and a per-resolution counter.
    Seeded(u64),
}

/// Why execution hit undefined behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UbReason {
    /// Integer division or remainder by zero (or `MIN / -1`).
    DivisionByZero,
    /// A memory access failed.
    Memory(MemError),
    /// A branch observed poison.
    BranchOnPoison,
    /// A load/store address was `undef` or poison.
    IndeterminateAddress,
    /// `unreachable` executed.
    Unreachable,
    /// A trapping constant expression was forced.
    TrappingConstant,
    /// A call named a function that does not exist.
    MissingFunction(String),
    /// A phi had no incoming entry for the taken edge.
    MalformedPhi,
}

impl fmt::Display for UbReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UbReason::DivisionByZero => f.write_str("division by zero"),
            UbReason::Memory(e) => write!(f, "memory error: {e}"),
            UbReason::BranchOnPoison => f.write_str("branch on poison"),
            UbReason::IndeterminateAddress => f.write_str("indeterminate address"),
            UbReason::Unreachable => f.write_str("reached unreachable"),
            UbReason::TrappingConstant => f.write_str("trapping constant expression"),
            UbReason::MissingFunction(n) => write!(f, "missing function @{n}"),
            UbReason::MalformedPhi => f.write_str("phi without incoming entry for edge"),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum End {
    /// Normal return from the entry function.
    Ret(Option<Val>),
    /// Undefined behaviour.
    Ub(UbReason),
    /// Fuel (or call depth) exhausted — inconclusive.
    OutOfFuel,
}

/// The outcome of a run: the emitted events and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Observable trace.
    pub events: Vec<Event>,
    /// Final status.
    pub end: End,
    /// Instructions executed.
    pub steps: u64,
}

impl RunResult {
    /// A run that ended with `end` before its first instruction.
    pub(crate) fn stopped(end: End) -> RunResult {
        RunResult {
            events: Vec::new(),
            end,
            steps: 0,
        }
    }
}

/// Configuration of a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Maximum number of executed instructions.
    pub fuel: u64,
    /// Seed for external-call return values.
    pub env_seed: u64,
    /// `undef` resolution policy.
    pub undef: UndefPolicy,
    /// Maximum internal call depth.
    pub max_depth: u32,
    /// Which interpreter tier executes the run (see [`Tier`]).
    pub tier: Tier,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            fuel: 200_000,
            env_seed: 0xC0FFEE,
            undef: UndefPolicy::Zero,
            max_depth: 64,
            tier: Tier::Tree,
        }
    }
}

struct Machine<'m> {
    module: &'m Module,
    core: MachineCore,
}

impl<'m> Machine<'m> {
    fn new(module: &'m Module, config: &RunConfig) -> Result<Machine<'m>, Stop> {
        Ok(Machine {
            module,
            core: MachineCore::new(module, config)?,
        })
    }

    /// Fetch an operand without forcing constant expressions.
    fn operand(&mut self, frame: &HashMap<RegId, Val>, v: &Value) -> Result<Val, Stop> {
        match v {
            Value::Reg(r) => Ok(frame.get(r).cloned().unwrap_or(Val::Undef(Type::I64))),
            Value::Const(c) => match c {
                crellvm_ir::Const::Expr(_) => Ok(Val::Lazy(c.clone())),
                other => self.core.force_const(other),
            },
        }
    }

    fn exec_function(
        &mut self,
        f: &Function,
        args: Vec<Val>,
        depth: u32,
    ) -> Result<Option<Val>, Stop> {
        if depth > self.core.max_depth {
            return Err(Stop::OutOfFuel);
        }
        let mut frame: HashMap<RegId, Val> = HashMap::new();
        for ((_, p), a) in f.params.iter().zip(args) {
            frame.insert(*p, a);
        }
        let mut allocas: Vec<MemBlockId> = Vec::new();
        let mut prev: Option<BlockId> = None;
        let mut cur = f.entry();

        let ret = 'outer: loop {
            let block = f.block(cur);
            // Phi-nodes: simultaneous assignment based on the incoming edge.
            if !block.phis.is_empty() {
                let from = prev.ok_or(Stop::Ub(UbReason::MalformedPhi))?;
                let mut new_vals = Vec::with_capacity(block.phis.len());
                for (r, phi) in &block.phis {
                    let v = phi
                        .value_from(from)
                        .ok_or(Stop::Ub(UbReason::MalformedPhi))?
                        .clone();
                    let val = self.operand(&frame, &v)?;
                    new_vals.push((*r, val));
                }
                for (r, v) in new_vals {
                    frame.insert(r, v);
                }
            }

            for stmt in &block.stmts {
                self.core.burn()?;
                let result: Option<Val> = match &stmt.inst {
                    Inst::Bin { op, ty, lhs, rhs } => {
                        let a = self.operand(&frame, lhs)?;
                        let b = self.operand(&frame, rhs)?;
                        Some(self.core.bin_op(*op, *ty, a, b)?)
                    }
                    Inst::Icmp { pred, ty, lhs, rhs } => {
                        let a = self.operand(&frame, lhs)?;
                        let b = self.operand(&frame, rhs)?;
                        Some(self.core.icmp_op(*pred, *ty, a, b)?)
                    }
                    Inst::Select {
                        ty,
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let c = self.operand(&frame, cond)?;
                        match self.core.force(c)? {
                            None => Some(Val::Poison(*ty)),
                            Some(v) => {
                                let taken = v.as_bool().unwrap_or(false);
                                let pick = if taken { on_true } else { on_false };
                                Some(self.operand(&frame, pick)?)
                            }
                        }
                    }
                    Inst::Cast { op, from, val, to } => {
                        let v = self.operand(&frame, val)?;
                        Some(self.core.cast_op(*op, *from, v, *to)?)
                    }
                    Inst::Alloca { ty, count } => {
                        let b = self.core.alloca(*ty, *count)?;
                        allocas.push(b);
                        Some(Val::Ptr {
                            block: b,
                            offset: 0,
                        })
                    }
                    Inst::Load { ty, ptr } => {
                        let p = self.operand(&frame, ptr)?;
                        let (b, off) = self.core.force_ptr(p)?;
                        match self.core.mem.load(b, off) {
                            Ok(v) => Some(
                                if v.ty() != *ty && !matches!(v, Val::Undef(_) | Val::Lazy(_)) {
                                    // Type-punned load: reinterpret as undef.
                                    Val::Undef(*ty)
                                } else {
                                    v
                                },
                            ),
                            Err(e) => break 'outer Err(Stop::Ub(UbReason::Memory(e))),
                        }
                    }
                    Inst::Store { val, ptr, .. } => {
                        let v = self.operand(&frame, val)?;
                        let p = self.operand(&frame, ptr)?;
                        let (b, off) = self.core.force_ptr(p)?;
                        if let Err(e) = self.core.mem.store(b, off, v) {
                            break 'outer Err(Stop::Ub(UbReason::Memory(e)));
                        }
                        None
                    }
                    Inst::Gep {
                        inbounds,
                        ptr,
                        offset,
                    } => {
                        let p = self.operand(&frame, ptr)?;
                        let o = self.operand(&frame, offset)?;
                        let off = match self.core.force_int(o)? {
                            Some(v) => Type::I64.sext(v),
                            None => {
                                frame_insert(&mut frame, stmt.result, Val::Poison(Type::Ptr));
                                continue;
                            }
                        };
                        match self.core.force(p)? {
                            None => Some(Val::Poison(Type::Ptr)),
                            Some(Val::Ptr {
                                block,
                                offset: base,
                            }) => {
                                let new_off = base.wrapping_add(off);
                                if *inbounds {
                                    let size = self.core.mem.size_of(block).unwrap_or(0) as i64;
                                    if block == NULL_BLOCK || new_off < 0 || new_off > size {
                                        Some(Val::Poison(Type::Ptr))
                                    } else {
                                        Some(Val::Ptr {
                                            block,
                                            offset: new_off,
                                        })
                                    }
                                } else {
                                    Some(Val::Ptr {
                                        block,
                                        offset: new_off,
                                    })
                                }
                            }
                            Some(_) => Some(Val::Poison(Type::Ptr)),
                        }
                    }
                    Inst::Call { ret, callee, args } => {
                        let mut arg_vals = Vec::with_capacity(args.len());
                        for (_, a) in args {
                            let v = self.operand(&frame, a)?;
                            // Argument evaluation consumes lazy constants
                            // (this is where PR33673's division fires).
                            let v = match v {
                                Val::Lazy(c) => self.core.force_const(&c)?,
                                other => other,
                            };
                            arg_vals.push(v);
                        }
                        if let Some(callee_fn) = self.module.function(callee) {
                            let callee_fn = callee_fn.clone();
                            self.exec_function(&callee_fn, arg_vals, depth + 1)?
                        } else if self.module.declare(callee).is_some() {
                            let ret_val = ret.map(|t| self.core.env_return(t));
                            self.core.events.push(Event {
                                callee: callee.clone(),
                                args: arg_vals,
                                ret: ret_val.clone(),
                            });
                            ret_val
                        } else {
                            break 'outer Err(Stop::Ub(UbReason::MissingFunction(callee.clone())));
                        }
                    }
                    Inst::Unsupported { feature } => {
                        // Modelled as an opaque external operation.
                        let ret_val = self.core.env_return(Type::I64);
                        self.core.events.push(Event {
                            callee: format!("unsupported.{feature}"),
                            args: Vec::new(),
                            ret: Some(ret_val.clone()),
                        });
                        Some(ret_val)
                    }
                };
                frame_insert(
                    &mut frame,
                    stmt.result,
                    result.unwrap_or(Val::Undef(Type::I64)),
                );
                if stmt.result.is_none() {
                    // store/void call: nothing to record.
                }
            }

            self.core.burn()?;
            match &block.term {
                Term::Ret(None) => break Ok(None),
                Term::Ret(Some((_, v))) => {
                    let v = self.operand(&frame, v)?;
                    break Ok(Some(v));
                }
                Term::Br(t) => {
                    prev = Some(cur);
                    cur = *t;
                }
                Term::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = self.operand(&frame, cond)?;
                    match self.core.force(c)? {
                        None => break Err(Stop::Ub(UbReason::BranchOnPoison)),
                        Some(v) => {
                            let taken = v.as_bool().unwrap_or(false);
                            prev = Some(cur);
                            cur = if taken { *if_true } else { *if_false };
                        }
                    }
                }
                Term::Switch {
                    ty,
                    val,
                    default,
                    cases,
                } => {
                    let v = self.operand(&frame, val)?;
                    match self.core.force(v)? {
                        None => break Err(Stop::Ub(UbReason::BranchOnPoison)),
                        Some(v) => {
                            let bits = v.as_int().map(|b| ty.truncate(b)).unwrap_or(0);
                            let target = cases
                                .iter()
                                .find(|(c, _)| *c == bits)
                                .map(|(_, b)| *b)
                                .unwrap_or(*default);
                            prev = Some(cur);
                            cur = target;
                        }
                    }
                }
                Term::Unreachable => break Err(Stop::Ub(UbReason::Unreachable)),
            }
        };

        for b in allocas {
            self.core.mem.free(b);
        }
        ret
    }
}

fn frame_insert(frame: &mut HashMap<RegId, Val>, r: Option<RegId>, v: Val) {
    if let Some(r) = r {
        frame.insert(r, v);
    }
}

/// Run a named function on the *tree-walking* tier, ignoring
/// `config.tier`. This is the raw trusted-reference executor the tier
/// dispatcher and the differential runner build on.
pub(crate) fn run_function_tree(
    module: &Module,
    name: &str,
    args: Vec<Val>,
    config: &RunConfig,
) -> RunResult {
    let Some(f) = module.function(name) else {
        return RunResult::stopped(End::Ub(UbReason::MissingFunction(name.to_string())));
    };
    let mut machine = match Machine::new(module, config) {
        Ok(machine) => machine,
        Err(_) => return RunResult::stopped(End::OutOfFuel),
    };
    let f = f.clone();
    let r = machine.exec_function(&f, args, 0);
    machine.core.finish(r)
}

/// Run a named function with the given arguments on the tier selected by
/// `config.tier` (`Differential` executes both tiers and returns the
/// trusted tree-walk result; use [`crate::tier::run_function_tiered`] to
/// observe divergences).
///
/// Never panics on malformed input: errors surface as [`End::Ub`].
pub fn run_function(module: &Module, name: &str, args: Vec<Val>, config: &RunConfig) -> RunResult {
    match config.tier {
        Tier::Tree => run_function_tree(module, name, args, config),
        Tier::Bytecode | Tier::Differential => {
            crate::tier::run_function_tiered(module, name, args, config, None).result
        }
    }
}

/// Run `@main` with no arguments.
pub fn run_main(module: &Module, config: &RunConfig) -> RunResult {
    run_function(module, "main", Vec::new(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::parse_module;
    use crellvm_ir::Type;

    fn run(src: &str) -> RunResult {
        let m = parse_module(src).expect("parse");
        crellvm_ir::verify_module(&m).expect("verify");
        run_main(&m, &RunConfig::default())
    }

    #[test]
    fn arithmetic_and_events() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              %x = add i32 40, 2
              %y = mul i32 %x, 2
              call void @print(i32 %y)
              ret void
            }
            "#);
        assert_eq!(r.end, End::Ret(None));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].args, vec![Val::int(Type::I32, 84)]);
    }

    #[test]
    fn division_by_zero_is_ub() {
        let r = run(r#"
            define @main() -> i32 {
            entry:
              %x = sdiv i32 1, 0
              ret i32 %x
            }
            "#);
        assert_eq!(r.end, End::Ub(UbReason::DivisionByZero));
    }

    #[test]
    fn signed_overflow_division_is_ub() {
        let r = run(r#"
            define @main() -> i32 {
            entry:
              %min = shl i32 1, 31
              %x = sdiv i32 %min, -1
              ret i32 %x
            }
            "#);
        assert_eq!(r.end, End::Ub(UbReason::DivisionByZero));
    }

    #[test]
    fn memory_roundtrip_and_oob() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              %p = alloca i32, 2
              store i32 7, ptr %p
              %q = gep ptr %p, i64 1
              store i32 8, ptr %q
              %a = load i32, ptr %p
              %b = load i32, ptr %q
              %s = add i32 %a, %b
              call void @print(i32 %s)
              ret void
            }
            "#);
        assert_eq!(r.events[0].args, vec![Val::int(Type::I32, 15)]);

        let r = run(r#"
            define @main() {
            entry:
              %p = alloca i32, 2
              %q = gep ptr %p, i64 5
              store i32 8, ptr %q
              ret void
            }
            "#);
        assert!(matches!(r.end, End::Ub(UbReason::Memory(_))));
    }

    #[test]
    fn inbounds_gep_oob_is_poison_and_observable() {
        // Out-of-bounds inbounds-gep poisons the pointer; passing it to an
        // external call records the poison in the event.
        let r = run(r#"
            declare @sink(ptr)
            define @main() {
            entry:
              %p = alloca i32, 2
              %q = gep inbounds ptr %p, i64 10
              call void @sink(ptr %q)
              ret void
            }
            "#);
        assert_eq!(r.end, End::Ret(None));
        assert!(matches!(r.events[0].args[0], Val::Poison(_)));

        // Non-inbounds gep with the same offset stays a concrete pointer.
        let r = run(r#"
            declare @sink(ptr)
            define @main() {
            entry:
              %p = alloca i32, 2
              %q = gep ptr %p, i64 10
              call void @sink(ptr %q)
              ret void
            }
            "#);
        assert!(matches!(r.events[0].args[0], Val::Ptr { .. }));
    }

    #[test]
    fn lazy_trapping_constexpr_traps_only_when_consumed() {
        // Storing / loading the constexpr is fine; using it as a call
        // argument traps (PR33673 semantics).
        let stored = run(r#"
            global @G : i32[1]
            define @main() {
            entry:
              %p = alloca i32
              store i32 sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32))), ptr %p
              ret void
            }
            "#);
        assert_eq!(stored.end, End::Ret(None));

        let consumed = run(r#"
            global @G : i32[1]
            declare @print(i32)
            define @main() {
            entry:
              call void @print(i32 sdiv(i32 1, sub(i32 ptrtoint(@G to i32), ptrtoint(@G to i32))))
              ret void
            }
            "#);
        assert_eq!(consumed.end, End::Ub(UbReason::TrappingConstant));
    }

    #[test]
    fn uninitialized_load_is_undef_resolved_by_policy() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              %p = alloca i32
              %a = load i32, ptr %p
              %b = add i32 %a, 1
              call void @print(i32 %b)
              ret void
            }
            "#);
        // Policy Zero: undef + 1 == 1, marked as undef-derived.
        assert_eq!(r.events[0].args, vec![Val::tainted_int(Type::I32, 1)]);
        assert!(r.events[0].args[0].is_undef_derived());
    }

    #[test]
    fn loops_and_phis() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              br label loop
            loop:
              %i = phi i32 [ 0, entry ], [ %i2, loop ]
              call void @print(i32 %i)
              %i2 = add i32 %i, 1
              %c = icmp slt i32 %i2, 3
              br i1 %c, label loop, label exit
            exit:
              ret void
            }
            "#);
        let args: Vec<_> = r.events.iter().map(|e| e.args[0].clone()).collect();
        assert_eq!(
            args,
            vec![
                Val::int(Type::I32, 0),
                Val::int(Type::I32, 1),
                Val::int(Type::I32, 2)
            ]
        );
    }

    #[test]
    fn simultaneous_phi_assignment() {
        // Classic swap: w gets the OLD value of z (paper §4).
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              br label b2
            b2:
              %z = phi i32 [ 1, entry ], [ %z2, b2 ]
              %w = phi i32 [ 42, entry ], [ %z, b2 ]
              call void @print(i32 %w)
              %z2 = add i32 %z, 10
              %c = icmp slt i32 %z2, 25
              br i1 %c, label b2, label exit
            exit:
              ret void
            }
            "#);
        let args: Vec<_> = r.events.iter().map(|e| e.args[0].clone()).collect();
        // Iter 1: w=42 (init). Iter 2: w=old z=1. Iter 3: w=old z=11.
        assert_eq!(
            args,
            vec![
                Val::int(Type::I32, 42),
                Val::int(Type::I32, 1),
                Val::int(Type::I32, 11)
            ]
        );
    }

    #[test]
    fn internal_calls_and_extern_returns_deterministic() {
        let src = r#"
            declare @get() -> i32
            declare @print(i32)
            define @double(i32 %x) -> i32 {
            entry:
              %y = add i32 %x, %x
              ret i32 %y
            }
            define @main() {
            entry:
              %g = call i32 @get()
              %d = call i32 @double(i32 %g)
              call void @print(i32 %d)
              ret void
            }
        "#;
        let m = parse_module(src).unwrap();
        let r1 = run_main(&m, &RunConfig::default());
        let r2 = run_main(&m, &RunConfig::default());
        assert_eq!(r1, r2);
        assert_eq!(r1.events.len(), 2);
        let g = r1.events[0].ret.clone().unwrap().as_int().unwrap();
        let printed = r1.events[1].args[0].as_int().unwrap();
        assert_eq!(Type::I32.truncate(g.wrapping_mul(2)), printed);
    }

    #[test]
    fn alloca_freed_after_return() {
        let r = run(r#"
            define @leak() -> ptr {
            entry:
              %p = alloca i32
              ret ptr %p
            }
            define @main() {
            entry:
              %p = call ptr @leak()
              store i32 1, ptr %p
              ret void
            }
            "#);
        assert!(matches!(r.end, End::Ub(UbReason::Memory(_))));
    }

    #[test]
    fn fuel_exhaustion() {
        let r = run(r#"
            define @main() {
            entry:
              br label loop
            loop:
              br label loop
            }
            "#);
        assert_eq!(r.end, End::OutOfFuel);
    }

    #[test]
    fn unreachable_is_ub() {
        let r = run("define @main() {\nentry:\n  unreachable\n}\n");
        assert_eq!(r.end, End::Ub(UbReason::Unreachable));
    }

    #[test]
    fn switch_dispatch() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              switch i32 2, label d [ 1: a, 2: b ]
            a:
              call void @print(i32 10)
              ret void
            b:
              call void @print(i32 20)
              ret void
            d:
              call void @print(i32 30)
              ret void
            }
            "#);
        assert_eq!(r.events[0].args, vec![Val::int(Type::I32, 20)]);
    }

    #[test]
    fn globals_initialized() {
        let r = run(r#"
            global @G : i32[1] = 11
            declare @print(i32)
            define @main() {
            entry:
              %a = load i32, ptr @G
              call void @print(i32 %a)
              ret void
            }
            "#);
        assert_eq!(r.events[0].args, vec![Val::int(Type::I32, 11)]);
    }

    #[test]
    fn ptr_int_casts_roundtrip() {
        let r = run(r#"
            declare @print(i32)
            define @main() {
            entry:
              %p = alloca i32, 4
              %q = gep ptr %p, i64 2
              store i32 9, ptr %q
              %i = ptrtoint ptr %q to i64
              %q2 = inttoptr i64 %i to ptr
              %a = load i32, ptr %q2
              call void @print(i32 %a)
              ret void
            }
            "#);
        assert_eq!(r.events[0].args, vec![Val::int(Type::I32, 9)]);
    }
}
