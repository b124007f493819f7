//! The tier-shared execution core.
//!
//! Both interpreter tiers — the tree-walking reference ([`crate::exec`])
//! and the baseline bytecode loop ([`crate::exec_bc`]) — must agree
//! bit-for-bit on every observable: `End`, `UbReason`, the event stream,
//! fuel accounting, and the order in which `undef` resolutions are drawn.
//! The only way to make that a structural property rather than a
//! perpetually re-verified coincidence is to share the value semantics:
//! [`MachineCore`] owns the memory, globals, events, fuel, and the
//! undef/env PRNG state, and implements every *value-level* operation
//! (constant forcing, binops, casts, pointer coercion, environment
//! returns). The tiers differ only in instruction dispatch and control
//! flow — exactly the part differential testing is meant to cover.

use crate::event::Event;
use crate::exec::{End, RunConfig, RunResult, UbReason, UndefPolicy};
use crate::mem::{MemBlockId, Memory, NULL_BLOCK};
use crate::value::Val;
use crellvm_ir::arith::{self, Fault};
use crellvm_ir::{BinOp, CastOp, Const, ConstExpr, IcmpPred, Module, Type};
use std::collections::HashMap;

/// The null-pointer value.
pub(crate) fn null_ptr() -> Val {
    Val::Ptr {
        block: NULL_BLOCK,
        offset: 0,
    }
}

/// [`arith::bin`] on two forced integers: a trap (division by 0 or
/// `MIN / -1`) is UB, an over-shift is `undef`.
#[inline]
pub(crate) fn int_bin(op: BinOp, ty: Type, a: u64, b: u64, tainted: bool) -> Result<Val, Stop> {
    match arith::bin(op, ty, a, b) {
        Ok(bits) => Ok(Val::Int { ty, bits, tainted }),
        Err(Fault::OverShift) => Ok(Val::Undef(ty)),
        Err(Fault::Trap) => Err(Stop::Ub(UbReason::DivisionByZero)),
    }
}

/// [`arith::icmp`] on two forced integers, as an `i1`.
#[inline]
pub(crate) fn int_icmp(pred: IcmpPred, ty: Type, a: u64, b: u64, tainted: bool) -> Val {
    Val::Int {
        ty: Type::I1,
        bits: arith::icmp(pred, ty, a, b) as u64,
        tainted,
    }
}

/// Why the machine stopped before a normal return.
#[derive(Debug)]
pub(crate) enum Stop {
    Ub(UbReason),
    OutOfFuel,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mutable machine state shared by both tiers: memory, globals, the
/// observable event stream, fuel/step accounting, and the deterministic
/// nondeterminism (undef resolution counter, environment seed).
pub(crate) struct MachineCore {
    pub(crate) mem: Memory,
    pub(crate) globals: HashMap<String, MemBlockId>,
    /// Global blocks in module definition order (the bytecode tier
    /// pre-resolves `@G` operands to indices into this table).
    pub(crate) global_blocks: Vec<MemBlockId>,
    pub(crate) events: Vec<Event>,
    pub(crate) fuel: u64,
    pub(crate) steps: u64,
    pub(crate) env_seed: u64,
    pub(crate) undef: UndefPolicy,
    pub(crate) undef_counter: u64,
    pub(crate) max_depth: u32,
}

impl MachineCore {
    /// Allocate and initialize the globals exactly like the original
    /// `Machine::new`: one block per global in module order, initializer
    /// stored at offset 0 (non-simple initializers stay lazy). Globals
    /// that alone exceed the memory budget stop the run before its first
    /// instruction, as [`Stop::OutOfFuel`].
    pub(crate) fn new(module: &Module, config: &RunConfig) -> Result<MachineCore, Stop> {
        let mut mem = Memory::new();
        let mut globals = HashMap::new();
        let mut global_blocks = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let b = mem.alloc(g.ty, g.size).ok_or(Stop::OutOfFuel)?;
            if let Some(init) = &g.init {
                let v = match init {
                    Const::Int { ty, bits } => Val::Int {
                        ty: *ty,
                        bits: *bits,
                        tainted: false,
                    },
                    Const::Undef(ty) => Val::Undef(*ty),
                    Const::Null => null_ptr(),
                    other => Val::Lazy(other.clone()),
                };
                let _ = mem.store(b, 0, v);
            }
            globals.insert(g.name.clone(), b);
            global_blocks.push(b);
        }
        Ok(MachineCore {
            mem,
            globals,
            global_blocks,
            events: Vec::new(),
            fuel: config.fuel,
            steps: 0,
            env_seed: config.env_seed,
            undef: config.undef,
            undef_counter: 0,
            max_depth: config.max_depth,
        })
    }

    /// Allocate `count` slots of `ty`; past the memory budget the run is
    /// inconclusive, like one past its fuel.
    pub(crate) fn alloca(&mut self, ty: Type, count: u64) -> Result<MemBlockId, Stop> {
        self.mem.alloc(ty, count).ok_or(Stop::OutOfFuel)
    }

    /// How the run ended, given how execution stopped.
    pub(crate) fn finish(self, r: Result<Option<Val>, Stop>) -> RunResult {
        let end = match r {
            Ok(v) => End::Ret(v),
            Err(Stop::Ub(u)) => End::Ub(u),
            Err(Stop::OutOfFuel) => End::OutOfFuel,
        };
        RunResult {
            events: self.events,
            end,
            steps: self.steps,
        }
    }

    pub(crate) fn resolve_undef(&mut self, ty: Type) -> Val {
        self.undef_counter += 1;
        match self.undef {
            UndefPolicy::Zero => {
                if ty == Type::Ptr {
                    null_ptr()
                } else {
                    Val::tainted_int(ty, 0)
                }
            }
            UndefPolicy::Seeded(s) => {
                if ty == Type::Ptr {
                    null_ptr()
                } else {
                    Val::Int {
                        ty,
                        bits: ty.truncate(splitmix64(s ^ self.undef_counter)),
                        tainted: true,
                    }
                }
            }
        }
    }

    /// Evaluate a constant *by force*: trapping subexpressions trap.
    pub(crate) fn force_const(&mut self, c: &Const) -> Result<Val, Stop> {
        match c {
            Const::Int { ty, bits } => Ok(Val::Int {
                ty: *ty,
                bits: *bits,
                tainted: false,
            }),
            Const::Undef(ty) => Ok(Val::Undef(*ty)),
            Const::Null => Ok(null_ptr()),
            Const::Global(name) => match self.globals.get(name) {
                Some(b) => Ok(Val::Ptr {
                    block: *b,
                    offset: 0,
                }),
                None => Err(Stop::Ub(UbReason::MissingFunction(name.clone()))),
            },
            Const::Expr(e) => match &**e {
                ConstExpr::PtrToInt(inner, to) => {
                    let v = self.force_const(inner)?;
                    match v {
                        Val::Ptr { block, offset } => {
                            let addr = if block == NULL_BLOCK {
                                (offset as u64).wrapping_mul(crate::mem::SLOT_SIZE)
                            } else {
                                Memory::address_of(block, offset)
                            };
                            Ok(Val::Int {
                                ty: *to,
                                bits: to.truncate(addr),
                                tainted: false,
                            })
                        }
                        Val::Undef(_) => Ok(Val::Undef(*to)),
                        _ => Err(Stop::Ub(UbReason::TrappingConstant)),
                    }
                }
                ConstExpr::Bin(op, ty, a, b) => {
                    let av = self.force_const(a)?;
                    let bv = self.force_const(b)?;
                    self.bin_op(*op, *ty, av, bv)
                        .map_err(|_| Stop::Ub(UbReason::TrappingConstant))
                }
            },
        }
    }

    /// Force a value for consumption by an operation: lazy constants are
    /// evaluated (possibly trapping); `undef` is resolved per policy;
    /// poison propagates as `None`.
    pub(crate) fn force(&mut self, v: Val) -> Result<Option<Val>, Stop> {
        match v {
            Val::Lazy(c) => self.force_const(&c).map(Some),
            Val::Undef(ty) => Ok(Some(self.resolve_undef(ty))),
            Val::Poison(_) => Ok(None),
            other => Ok(Some(other)),
        }
    }

    /// Force a value all the way to a concrete integer; poison propagates
    /// as `None`.
    pub(crate) fn force_int(&mut self, v: Val) -> Result<Option<u64>, Stop> {
        match self.force(v)? {
            None => Ok(None),
            Some(Val::Int { bits, .. }) => Ok(Some(bits)),
            Some(Val::Undef(ty)) => {
                // force_const may surface a fresh undef (e.g. ptrtoint undef).
                match self.resolve_undef(ty) {
                    Val::Int { bits, .. } => Ok(Some(bits)),
                    _ => Ok(Some(0)),
                }
            }
            Some(other) => {
                // An integer-typed operation observed a pointer (possible
                // only through lazy global arithmetic); use its address.
                match other {
                    Val::Ptr { block, offset } => Ok(Some(Memory::address_of(block, offset))),
                    _ => Ok(Some(0)),
                }
            }
        }
    }

    pub(crate) fn bin_op(&mut self, op: BinOp, ty: Type, a: Val, b: Val) -> Result<Val, Stop> {
        let tainted = a.is_undef_derived() || b.is_undef_derived();
        let (Some(a), Some(b)) = (self.force_int(a)?, self.force_int(b)?) else {
            return Ok(Val::Poison(ty));
        };
        int_bin(op, ty, a, b, tainted)
    }

    pub(crate) fn icmp_op(
        &mut self,
        pred: IcmpPred,
        ty: Type,
        a: Val,
        b: Val,
    ) -> Result<Val, Stop> {
        let tainted = a.is_undef_derived() || b.is_undef_derived();
        let (Some(a), Some(b)) = (self.force_int(a)?, self.force_int(b)?) else {
            return Ok(Val::Poison(Type::I1));
        };
        Ok(int_icmp(pred, ty, a, b, tainted))
    }

    pub(crate) fn cast_op(
        &mut self,
        op: CastOp,
        from: Type,
        v: Val,
        to: Type,
    ) -> Result<Val, Stop> {
        let tainted = v.is_undef_derived();
        match op {
            CastOp::Bitcast => Ok(v),
            CastOp::Trunc | CastOp::Zext | CastOp::Sext => match self.force_int(v)? {
                None => Ok(Val::Poison(to)),
                Some(bits) => Ok(Val::Int {
                    ty: to,
                    bits: arith::cast(op, from, to, bits)
                        .expect("trunc, zext and sext are integer casts"),
                    tainted,
                }),
            },
            CastOp::PtrToInt => match self.force(v)? {
                None => Ok(Val::Poison(to)),
                Some(Val::Ptr { block, offset }) => {
                    let addr = if block == NULL_BLOCK {
                        (offset as u64).wrapping_mul(crate::mem::SLOT_SIZE)
                    } else {
                        Memory::address_of(block, offset)
                    };
                    Ok(Val::Int {
                        ty: to,
                        bits: to.truncate(addr),
                        tainted,
                    })
                }
                Some(_) => Ok(Val::Undef(to)),
            },
            CastOp::IntToPtr => match self.force_int(v)? {
                None => Ok(Val::Poison(Type::Ptr)),
                Some(bits) => {
                    if bits == 0 {
                        Ok(null_ptr())
                    } else {
                        match self.mem.pointer_of(bits) {
                            Some((b, off)) => Ok(Val::Ptr {
                                block: b,
                                offset: off,
                            }),
                            None => Ok(Val::Poison(Type::Ptr)),
                        }
                    }
                }
            },
        }
    }

    pub(crate) fn force_ptr(&mut self, v: Val) -> Result<(MemBlockId, i64), Stop> {
        match self.force(v)? {
            None => Err(Stop::Ub(UbReason::IndeterminateAddress)),
            Some(Val::Ptr { block, offset }) => Ok((block, offset)),
            Some(Val::Undef(_)) => Err(Stop::Ub(UbReason::IndeterminateAddress)),
            Some(_) => Err(Stop::Ub(UbReason::IndeterminateAddress)),
        }
    }

    pub(crate) fn env_return(&mut self, ty: Type) -> Val {
        let idx = self.events.len() as u64;
        if ty == Type::Ptr {
            null_ptr()
        } else {
            Val::Int {
                ty,
                bits: ty.truncate(splitmix64(self.env_seed ^ idx.wrapping_mul(0x51ED))),
                tainted: false,
            }
        }
    }

    #[inline]
    pub(crate) fn burn(&mut self) -> Result<(), Stop> {
        if self.fuel == 0 {
            return Err(Stop::OutOfFuel);
        }
        self.fuel -= 1;
        self.steps += 1;
        Ok(())
    }
}
