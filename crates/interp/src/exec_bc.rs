//! The baseline-tier dispatch loop.
//!
//! Executes the compact bytecode of [`crate::compile`] over the same
//! [`MachineCore`] value semantics as the tree-walker: identical fuel
//! accounting (one burn per statement, one per terminator), identical
//! undef-resolution draw order, identical event indices. Frames are
//! preallocated `Vec<Val>` slabs indexed by register slot — no hashing
//! in the hot path — and the per-function lowering cost is paid once per
//! module instead of once per run.
//!
//! This loop is **not** part of the trusted computing base. The fuzz
//! oracle's `Differential` tier runs it against the tree-walking
//! reference and files any disagreement as a `TierDivergence` finding.

use crate::bytecode::{BcFunction, BcInst, Callee, CompiledModule, JumpTarget, Op, PhiAction};
use crate::event::Event;
use crate::exec::{End, RunConfig, RunResult, UbReason};
use crate::machine::{int_bin, int_icmp, MachineCore, Stop};
use crate::mem::{MemBlockId, NULL_BLOCK};
use crate::value::Val;
use crellvm_ir::{Module, Type};

struct BcMachine<'m> {
    core: MachineCore,
    bc: &'m CompiledModule,
    /// Reusable scratch for simultaneous phi moves (never reentered:
    /// edge evaluation cannot call functions).
    phi_scratch: Vec<(u32, Val)>,
}

impl<'m> BcMachine<'m> {
    /// Evaluate a pre-resolved operand. Mirrors the tree-walker's
    /// `operand`: no forcing, no undef resolution — just fetch.
    #[inline]
    fn eval(&mut self, frame: &[Val], op: &Op) -> Result<Val, Stop> {
        match op {
            Op::Slot(s) => Ok(frame
                .get(*s as usize)
                .cloned()
                .unwrap_or(Val::Undef(Type::I64))),
            Op::Imm(v) => Ok(v.clone()),
            Op::Global(i) => Ok(Val::Ptr {
                block: self.core.global_blocks[*i as usize],
                offset: 0,
            }),
            Op::MissingGlobal(name) => Err(Stop::Ub(UbReason::MissingFunction(name.to_string()))),
        }
    }

    /// Execute the simultaneous phi moves of one edge: evaluate every
    /// source against the pre-jump frame, then write — exactly the
    /// tree-walker's gather-then-assign. A `Malformed` action (phi with
    /// no filled incoming entry for this edge) is UB at the same point
    /// the tree-walker raises it: after the earlier phis' sources were
    /// evaluated, before anything is written.
    fn take_edge(&mut self, f: &BcFunction, frame: &mut [Val], t: JumpTarget) -> Result<(), Stop> {
        let actions = &f.edges[t.edge as usize];
        // One- and two-move edges (the overwhelmingly common loop
        // back-edges) gather into locals instead of the scratch vector.
        match actions.as_slice() {
            [] => return Ok(()),
            [PhiAction::Move { dst, src }] => {
                let v = self.eval(frame, src)?;
                frame[*dst as usize] = v;
                return Ok(());
            }
            [PhiAction::Move { dst: d1, src: s1 }, PhiAction::Move { dst: d2, src: s2 }] => {
                let v1 = self.eval(frame, s1)?;
                let v2 = self.eval(frame, s2)?;
                frame[*d1 as usize] = v1;
                frame[*d2 as usize] = v2;
                return Ok(());
            }
            _ => {}
        }
        let mut scratch = std::mem::take(&mut self.phi_scratch);
        scratch.clear();
        for a in actions {
            match a {
                PhiAction::Move { dst, src } => match self.eval(frame, src) {
                    Ok(v) => scratch.push((*dst, v)),
                    Err(e) => {
                        self.phi_scratch = scratch;
                        return Err(e);
                    }
                },
                PhiAction::Malformed => {
                    self.phi_scratch = scratch;
                    return Err(Stop::Ub(UbReason::MalformedPhi));
                }
            }
        }
        for (dst, v) in scratch.drain(..) {
            frame[dst as usize] = v;
        }
        self.phi_scratch = scratch;
        Ok(())
    }

    fn exec_function(&mut self, idx: u32, args: Vec<Val>, depth: u32) -> Result<Option<Val>, Stop> {
        if depth > self.core.max_depth {
            return Err(Stop::OutOfFuel);
        }
        let f = &self.bc.funcs[idx as usize];
        let mut frame: Vec<Val> = vec![Val::Undef(Type::I64); f.frame_size as usize];
        for (p, a) in f.params.iter().zip(args) {
            frame[*p as usize] = a;
        }
        if f.entry_has_phis {
            // Entering a phi block with no predecessor: UB before any
            // fuel burns, matching the tree-walker.
            return Err(Stop::Ub(UbReason::MalformedPhi));
        }
        let mut allocas: Vec<MemBlockId> = Vec::new();
        let ret = self.run_frame(f, &mut frame, &mut allocas, depth);
        // The tree-walker frees allocas on return and on `break 'outer`
        // UB paths; the remaining early-`?` paths terminate the whole run
        // so the difference is unobservable. Free uniformly here.
        for b in allocas {
            self.core.mem.free(b);
        }
        ret
    }

    fn run_frame(
        &mut self,
        f: &BcFunction,
        frame: &mut [Val],
        allocas: &mut Vec<MemBlockId>,
        depth: u32,
    ) -> Result<Option<Val>, Stop> {
        let mut pc = 0usize;
        loop {
            self.core.burn()?;
            match &f.code[pc] {
                BcInst::Bin {
                    op,
                    ty,
                    lhs,
                    rhs,
                    dst,
                } => {
                    // Fast path: two concrete integers produce exactly
                    // `MachineCore::bin_op`'s result (or trap) without
                    // touching the forcing machinery.
                    let r = match (int_operand(frame, lhs), int_operand(frame, rhs)) {
                        (Some((_, a, ta)), Some((_, b, tb))) => int_bin(*op, *ty, a, b, ta || tb)?,
                        _ => {
                            let a = self.eval(frame, lhs)?;
                            let b = self.eval(frame, rhs)?;
                            self.core.bin_op(*op, *ty, a, b)?
                        }
                    };
                    write(frame, *dst, Some(r));
                }
                BcInst::Icmp {
                    pred,
                    ty,
                    lhs,
                    rhs,
                    dst,
                } => {
                    let r = match (int_operand(frame, lhs), int_operand(frame, rhs)) {
                        (Some((_, a, ta)), Some((_, b, tb))) => {
                            int_icmp(*pred, *ty, a, b, ta || tb)
                        }
                        _ => {
                            let a = self.eval(frame, lhs)?;
                            let b = self.eval(frame, rhs)?;
                            self.core.icmp_op(*pred, *ty, a, b)?
                        }
                    };
                    write(frame, *dst, Some(r));
                }
                BcInst::Select {
                    ty,
                    cond,
                    on_true,
                    on_false,
                    dst,
                } => {
                    let c = self.eval(frame, cond)?;
                    let r = match self.core.force(c)? {
                        None => Some(Val::Poison(*ty)),
                        Some(v) => {
                            let taken = v.as_bool().unwrap_or(false);
                            let pick = if taken { on_true } else { on_false };
                            Some(self.eval(frame, pick)?)
                        }
                    };
                    write(frame, *dst, r);
                }
                BcInst::Cast {
                    op,
                    from,
                    to,
                    val,
                    dst,
                } => {
                    let v = self.eval(frame, val)?;
                    let r = self.core.cast_op(*op, *from, v, *to)?;
                    write(frame, *dst, Some(r));
                }
                BcInst::Alloca { ty, count, dst } => {
                    let b = self.core.alloca(*ty, *count)?;
                    allocas.push(b);
                    write(
                        frame,
                        *dst,
                        Some(Val::Ptr {
                            block: b,
                            offset: 0,
                        }),
                    );
                }
                BcInst::Load { ty, ptr, dst } => {
                    // A concrete pointer needs no forcing: `force_ptr`
                    // would hand back (block, offset) unchanged.
                    let (b, off) = match ptr_operand(frame, ptr) {
                        Some(x) => x,
                        None => {
                            let p = self.eval(frame, ptr)?;
                            self.core.force_ptr(p)?
                        }
                    };
                    match self.core.mem.load(b, off) {
                        Ok(v) => {
                            let r = if v.ty() != *ty && !matches!(v, Val::Undef(_) | Val::Lazy(_)) {
                                // Type-punned load: reinterpret as undef.
                                Val::Undef(*ty)
                            } else {
                                v
                            };
                            write(frame, *dst, Some(r));
                        }
                        Err(e) => return Err(Stop::Ub(UbReason::Memory(e))),
                    }
                }
                BcInst::Store { val, ptr, dst } => {
                    let v = self.eval(frame, val)?;
                    let (b, off) = match ptr_operand(frame, ptr) {
                        Some(x) => x,
                        None => {
                            let p = self.eval(frame, ptr)?;
                            self.core.force_ptr(p)?
                        }
                    };
                    if let Err(e) = self.core.mem.store(b, off, v) {
                        return Err(Stop::Ub(UbReason::Memory(e)));
                    }
                    write(frame, *dst, None);
                }
                BcInst::Gep {
                    inbounds,
                    ptr,
                    offset,
                    dst,
                } => {
                    // Fast path: concrete pointer base and integer offset
                    // pass through the forcing calls unchanged, so skip
                    // them. The slow path keeps the tree-walker's order:
                    // evaluate ptr then offset, force offset then ptr.
                    let (forced_base, off) =
                        match (ptr_operand(frame, ptr), int_operand(frame, offset)) {
                            (Some((block, base)), Some((_, obits, _))) => (
                                Some(Val::Ptr {
                                    block,
                                    offset: base,
                                }),
                                Type::I64.sext(obits),
                            ),
                            _ => {
                                let p = self.eval(frame, ptr)?;
                                let o = self.eval(frame, offset)?;
                                match self.core.force_int(o)? {
                                    Some(v) => (self.core.force(p)?, Type::I64.sext(v)),
                                    None => {
                                        // Poison offset: result is poison
                                        // even for a result-less gep
                                        // (tree-walker's `continue`).
                                        if let Some(d) = dst {
                                            frame[*d as usize] = Val::Poison(Type::Ptr);
                                        }
                                        pc += 1;
                                        continue;
                                    }
                                }
                            }
                        };
                    let r = match forced_base {
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
                    };
                    write(frame, *dst, r);
                }
                BcInst::Call {
                    ret,
                    callee,
                    args,
                    dst,
                } => {
                    let mut arg_vals = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.eval(frame, a)?;
                        // Argument evaluation consumes lazy constants
                        // (PR33673 semantics).
                        let v = match v {
                            Val::Lazy(c) => self.core.force_const(&c)?,
                            other => other,
                        };
                        arg_vals.push(v);
                    }
                    let r = match callee {
                        Callee::Internal(i) => self.exec_function(*i, arg_vals, depth + 1)?,
                        Callee::External(name) => {
                            let ret_val = ret.map(|t| self.core.env_return(t));
                            self.core.events.push(Event {
                                callee: name.to_string(),
                                args: arg_vals,
                                ret: ret_val.clone(),
                            });
                            ret_val
                        }
                        Callee::Missing(name) => {
                            return Err(Stop::Ub(UbReason::MissingFunction(name.to_string())))
                        }
                    };
                    write(frame, *dst, r);
                }
                BcInst::Unsupported { event_name, dst } => {
                    let ret_val = self.core.env_return(Type::I64);
                    self.core.events.push(Event {
                        callee: event_name.to_string(),
                        args: Vec::new(),
                        ret: Some(ret_val.clone()),
                    });
                    write(frame, *dst, Some(ret_val));
                }
                BcInst::Ret(None) => return Ok(None),
                BcInst::Ret(Some(v)) => {
                    let v = self.eval(frame, v)?;
                    return Ok(Some(v));
                }
                BcInst::Jump(t) => {
                    let t = *t;
                    self.take_edge(f, frame, t)?;
                    pc = t.pc as usize;
                    continue;
                }
                BcInst::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    // Concrete integers pass through `force` unchanged and
                    // `as_bool` is true only for a nonzero i1.
                    let taken = match int_operand(frame, cond) {
                        Some((ty, bits, _)) => ty == Type::I1 && bits != 0,
                        None => {
                            let c = self.eval(frame, cond)?;
                            match self.core.force(c)? {
                                None => return Err(Stop::Ub(UbReason::BranchOnPoison)),
                                Some(v) => v.as_bool().unwrap_or(false),
                            }
                        }
                    };
                    let t = if taken { *if_true } else { *if_false };
                    self.take_edge(f, frame, t)?;
                    pc = t.pc as usize;
                    continue;
                }
                BcInst::IcmpBr {
                    pred,
                    ty,
                    lhs,
                    rhs,
                    dst,
                    if_true,
                    if_false,
                } => {
                    // The burn at the loop top paid for the icmp; the
                    // second burn below pays for the branch, exactly as
                    // the unfused pair would. The branch decision reuses
                    // the computed value — the same value the unfused
                    // CondBr would read back out of the slot.
                    let r = match (int_operand(frame, lhs), int_operand(frame, rhs)) {
                        (Some((_, a, ta)), Some((_, b, tb))) => {
                            int_icmp(*pred, *ty, a, b, ta || tb)
                        }
                        _ => {
                            let a = self.eval(frame, lhs)?;
                            let b = self.eval(frame, rhs)?;
                            self.core.icmp_op(*pred, *ty, a, b)?
                        }
                    };
                    let taken = match &r {
                        Val::Int { ty, bits, .. } => Some(*ty == Type::I1 && *bits != 0),
                        _ => None,
                    };
                    write(frame, *dst, Some(r.clone()));
                    self.core.burn()?;
                    let taken = match taken {
                        Some(t) => t,
                        None => match self.core.force(r)? {
                            None => return Err(Stop::Ub(UbReason::BranchOnPoison)),
                            Some(v) => v.as_bool().unwrap_or(false),
                        },
                    };
                    let t = if taken { *if_true } else { *if_false };
                    self.take_edge(f, frame, t)?;
                    pc = t.pc as usize;
                    continue;
                }
                BcInst::Switch {
                    ty,
                    val,
                    default,
                    cases,
                } => {
                    let bits = match int_operand(frame, val) {
                        Some((_, b, _)) => ty.truncate(b),
                        None => {
                            let v = self.eval(frame, val)?;
                            match self.core.force(v)? {
                                None => return Err(Stop::Ub(UbReason::BranchOnPoison)),
                                Some(v) => v.as_int().map(|b| ty.truncate(b)).unwrap_or(0),
                            }
                        }
                    };
                    let t = cases
                        .iter()
                        .find(|(c, _)| *c == bits)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    self.take_edge(f, frame, t)?;
                    pc = t.pc as usize;
                    continue;
                }
                BcInst::Unreachable => return Err(Stop::Ub(UbReason::Unreachable)),
            }
            pc += 1;
        }
    }
}

/// Write an instruction result to its destination slot, mirroring the
/// tree-walker's `frame_insert(result.unwrap_or(Undef(i64)))`.
#[inline]
fn write(frame: &mut [Val], dst: Option<u32>, result: Option<Val>) {
    if let Some(d) = dst {
        frame[d as usize] = result.unwrap_or(Val::Undef(Type::I64));
    }
}

/// If the operand is already a concrete integer (slot or immediate),
/// return `(type, bits, tainted)` without cloning. Such values pass
/// through `MachineCore::force` unchanged — no undef resolution, no
/// counter advance — so fast paths built on this helper are bit-for-bit
/// equivalent to the forcing path.
#[inline]
fn int_operand(frame: &[Val], op: &Op) -> Option<(Type, u64, bool)> {
    let v = match op {
        Op::Slot(s) => frame.get(*s as usize)?,
        Op::Imm(v) => v,
        _ => return None,
    };
    match v {
        Val::Int { ty, bits, tainted } => Some((*ty, *bits, *tainted)),
        _ => None,
    }
}

/// If the operand is already a concrete pointer, return its
/// `(block, offset)` — exactly what `force_ptr` would produce.
#[inline]
fn ptr_operand(frame: &[Val], op: &Op) -> Option<(MemBlockId, i64)> {
    let v = match op {
        Op::Slot(s) => frame.get(*s as usize)?,
        Op::Imm(v) => v,
        _ => return None,
    };
    match v {
        Val::Ptr { block, offset } => Some((*block, *offset)),
        _ => None,
    }
}

/// Run a named function on the bytecode tier with a pre-compiled module.
///
/// Never panics on verified input; missing entry functions surface as
/// [`End::Ub`] with zero steps, matching the tree-walker.
pub(crate) fn run_function_bc(
    module: &Module,
    compiled: &CompiledModule,
    name: &str,
    args: Vec<Val>,
    config: &RunConfig,
) -> RunResult {
    let Some(idx) = compiled.func_index(name) else {
        return RunResult::stopped(End::Ub(UbReason::MissingFunction(name.to_string())));
    };
    let core = match MachineCore::new(module, config) {
        Ok(core) => core,
        Err(_) => return RunResult::stopped(End::OutOfFuel),
    };
    let mut machine = BcMachine {
        core,
        bc: compiled,
        phi_scratch: Vec::new(),
    };
    let r = machine.exec_function(idx, args, 0);
    machine.core.finish(r)
}
