//! The memory model: numbered blocks of value-sized slots.
//!
//! This is a small quasi-concrete model in the spirit of CompCert's memory
//! (and of Kang et al., PLDI 2015, for integer/pointer casts): every block
//! has an abstract id *and* a concrete base address
//! `(id + 1) * BLOCK_STRIDE`, so `ptrtoint`/`inttoptr` round-trip.

use crate::value::Val;
use crellvm_ir::Type;
use std::fmt;

/// Distance between consecutive block base addresses.
pub const BLOCK_STRIDE: u64 = 1 << 24;
/// Concrete size of one slot in the address arithmetic.
pub const SLOT_SIZE: u64 = 8;
/// The most slots one run may allocate, globals included: as many as one
/// block can address.
pub const SLOT_BUDGET: u64 = BLOCK_STRIDE / SLOT_SIZE;

/// A memory-block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemBlockId(u32);

impl MemBlockId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a block id from a raw index.
    pub const fn from_raw(i: u32) -> MemBlockId {
        MemBlockId(i)
    }
}

/// The sentinel block id reserved for the null pointer (never allocated).
pub const NULL_BLOCK: MemBlockId = MemBlockId(u32::MAX);

impl fmt::Display for MemBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct MemBlock {
    slots: Vec<Val>,
    alive: bool,
}

/// Memory: an append-only list of blocks with liveness flags.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    blocks: Vec<MemBlock>,
    /// Slots allocated so far, out of [`SLOT_BUDGET`].
    allocated: u64,
}

/// A memory access failure (undefined behaviour at the IR level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Offset outside the block bounds.
    OutOfBounds,
    /// Access to a freed (dead) block.
    DeadBlock,
    /// The block id does not exist.
    NoSuchBlock,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemError::OutOfBounds => "out-of-bounds access",
            MemError::DeadBlock => "access to dead block",
            MemError::NoSuchBlock => "access to non-existent block",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MemError {}

impl Memory {
    /// Fresh, empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Allocate a block of `size` slots, each initialized to `undef` of
    /// `ty`; `None` if the run's slots would exceed [`SLOT_BUDGET`]. Freed
    /// blocks keep their slots, so the budget bounds the whole run.
    pub fn alloc(&mut self, ty: Type, size: u64) -> Option<MemBlockId> {
        self.allocated = self
            .allocated
            .checked_add(size)
            .filter(|&n| n <= SLOT_BUDGET)?;
        let id = MemBlockId(self.blocks.len() as u32);
        self.blocks.push(MemBlock {
            slots: vec![Val::Undef(ty); size as usize],
            alive: true,
        });
        Some(id)
    }

    /// Free a block (alloca lifetime end). Idempotent.
    pub fn free(&mut self, b: MemBlockId) {
        if let Some(blk) = self.blocks.get_mut(b.index()) {
            blk.alive = false;
        }
    }

    /// Number of slots in a block.
    pub fn size_of(&self, b: MemBlockId) -> Option<u64> {
        self.blocks.get(b.index()).map(|blk| blk.slots.len() as u64)
    }

    /// Is the block currently alive?
    pub fn is_alive(&self, b: MemBlockId) -> bool {
        self.blocks
            .get(b.index())
            .map(|blk| blk.alive)
            .unwrap_or(false)
    }

    fn slot(&self, b: MemBlockId, off: i64) -> Result<&Val, MemError> {
        let blk = self.blocks.get(b.index()).ok_or(MemError::NoSuchBlock)?;
        if !blk.alive {
            return Err(MemError::DeadBlock);
        }
        if off < 0 || off as usize >= blk.slots.len() {
            return Err(MemError::OutOfBounds);
        }
        Ok(&blk.slots[off as usize])
    }

    /// Load the value at `(b, off)`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds, dead, or non-existent blocks.
    pub fn load(&self, b: MemBlockId, off: i64) -> Result<Val, MemError> {
        self.slot(b, off).cloned()
    }

    /// Store `v` at `(b, off)`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds, dead, or non-existent blocks.
    pub fn store(&mut self, b: MemBlockId, off: i64, v: Val) -> Result<(), MemError> {
        let blk = self
            .blocks
            .get_mut(b.index())
            .ok_or(MemError::NoSuchBlock)?;
        if !blk.alive {
            return Err(MemError::DeadBlock);
        }
        if off < 0 || off as usize >= blk.slots.len() {
            return Err(MemError::OutOfBounds);
        }
        blk.slots[off as usize] = v;
        Ok(())
    }

    /// Concrete integer address of `(b, off)` for `ptrtoint`.
    pub fn address_of(b: MemBlockId, off: i64) -> u64 {
        ((b.index() as u64) + 1)
            .wrapping_mul(BLOCK_STRIDE)
            .wrapping_add((off as u64).wrapping_mul(SLOT_SIZE))
    }

    /// Invert [`Memory::address_of`]: recover `(block, offset)` from a
    /// concrete address, if it is exactly slot-aligned and names an
    /// existing block.
    pub fn pointer_of(&self, addr: u64) -> Option<(MemBlockId, i64)> {
        if addr < BLOCK_STRIDE {
            return None;
        }
        let idx = addr / BLOCK_STRIDE - 1;
        let rem = addr % BLOCK_STRIDE;
        if !rem.is_multiple_of(SLOT_SIZE) {
            return None;
        }
        if (idx as usize) >= self.blocks.len() {
            return None;
        }
        Some((MemBlockId(idx as u32), (rem / SLOT_SIZE) as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store_roundtrip() {
        let mut m = Memory::new();
        let b = m.alloc(Type::I32, 3).unwrap();
        assert_eq!(m.load(b, 0), Ok(Val::Undef(Type::I32)));
        m.store(b, 2, Val::int(Type::I32, 7)).unwrap();
        assert_eq!(m.load(b, 2), Ok(Val::int(Type::I32, 7)));
        assert_eq!(m.size_of(b), Some(3));
    }

    #[test]
    fn bounds_and_liveness() {
        let mut m = Memory::new();
        let b = m.alloc(Type::I8, 1).unwrap();
        assert_eq!(m.load(b, 1), Err(MemError::OutOfBounds));
        assert_eq!(m.load(b, -1), Err(MemError::OutOfBounds));
        m.free(b);
        assert_eq!(m.load(b, 0), Err(MemError::DeadBlock));
        assert!(!m.is_alive(b));
        assert_eq!(m.store(b, 0, Val::bool(false)), Err(MemError::DeadBlock));
    }

    #[test]
    fn allocations_past_the_budget_are_refused() {
        let mut m = Memory::new();
        assert_eq!(m.alloc(Type::I32, u64::MAX), None);
        assert_eq!(m.alloc(Type::I32, SLOT_BUDGET + 1), None);
        let b = m.alloc(Type::I32, SLOT_BUDGET - 1).unwrap();
        m.free(b);
        // Freed slots stay counted.
        assert!(m.alloc(Type::I32, 1).is_some());
        assert_eq!(m.alloc(Type::I32, 1), None);
        assert_eq!(m.alloc(Type::I32, 0).map(|b| m.size_of(b)), Some(Some(0)));
    }

    #[test]
    fn address_roundtrip() {
        let mut m = Memory::new();
        let _a = m.alloc(Type::I64, 4).unwrap();
        let b = m.alloc(Type::I64, 4).unwrap();
        let addr = Memory::address_of(b, 3);
        assert_eq!(m.pointer_of(addr), Some((b, 3)));
        assert_eq!(m.pointer_of(addr + 1), None); // misaligned
        assert_eq!(m.pointer_of(3), None); // below first block
    }
}
