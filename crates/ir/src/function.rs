//! Functions, blocks, statements, and phi-nodes.

use crate::inst::{Inst, Term};
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A virtual register (SSA name), scoped to a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegId(u32);

impl RegId {
    /// Build a register id from a raw index.
    pub fn from_index(i: usize) -> RegId {
        RegId(i as u32)
    }

    /// Raw index of the register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// A basic-block id, scoped to a [`Function`] (an index into its blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(u32);

impl BlockId {
    /// Build a block id from a raw index.
    pub fn from_index(i: usize) -> BlockId {
        BlockId(i as u32)
    }

    /// Raw index of the block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A phi-node: selects a value by incoming edge.
///
/// All phi-nodes of a block execute *simultaneously* at block entry
/// (paper §4) — incoming values refer to the register values at the end of
/// the predecessor block.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Phi {
    /// Result type.
    pub ty: Type,
    /// `(incoming block, value)` pairs. An entry of `None` is a not-yet
    /// filled slot — LLVM's mem2reg creates such *empty phi-nodes* and
    /// fills them in later (the reason vmem2reg-style verification of the
    /// real algorithm is hard, per the paper §9).
    pub incoming: Vec<(BlockId, Option<Value>)>,
}

impl Phi {
    /// The incoming value for edge `from`, if present and filled.
    pub fn value_from(&self, from: BlockId) -> Option<&Value> {
        self.incoming
            .iter()
            .find(|(b, _)| *b == from)
            .and_then(|(_, v)| v.as_ref())
    }

    /// Set the incoming value for edge `from` (adding the entry if absent).
    pub fn set_incoming(&mut self, from: BlockId, v: Value) {
        for (b, slot) in &mut self.incoming {
            if *b == from {
                *slot = Some(v);
                return;
            }
        }
        self.incoming.push((from, Some(v)));
    }

    /// Are all incoming slots filled?
    pub fn is_complete(&self) -> bool {
        self.incoming.iter().all(|(_, v)| v.is_some())
    }
}

/// A statement: an instruction together with its optional result register.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stmt {
    /// Result register (`None` for `store`, void calls).
    pub result: Option<RegId>,
    /// The instruction.
    pub inst: Inst,
}

/// A basic block: phi section, statement list, terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Human-readable label.
    pub name: String,
    /// Phi-nodes (simultaneous assignment at block entry).
    pub phis: Vec<(RegId, Phi)>,
    /// Straight-line statements.
    pub stmts: Vec<Stmt>,
    /// Terminator.
    pub term: Term,
}

impl Block {
    /// A block with the given name, no phis/statements, and an
    /// `unreachable` terminator (to be replaced by the builder).
    pub fn new(name: impl Into<String>) -> Block {
        Block {
            name: name.into(),
            phis: Vec::new(),
            stmts: Vec::new(),
            term: Term::Unreachable,
        }
    }
}

/// Where a register is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefSite {
    /// The `i`-th function parameter.
    Param(usize),
    /// The `i`-th phi-node of a block.
    Phi(BlockId, usize),
    /// The `i`-th statement of a block.
    Stmt(BlockId, usize),
}

/// Borrowed serialize-only mirror of a [`Function`] header with no blocks
/// (see [`Function::shell_ref`]). Field order and types must stay
/// byte-compatible with [`Function`] under every tag-free codec: a decoder
/// reading a `Function` out of a stream written from this view must see an
/// identical layout. (`Serialize` is hand-written — derives don't take
/// lifetime parameters here — and mirrors the derive on [`Function`]
/// field for field.)
#[derive(Debug)]
pub struct FunctionShellRef<'a> {
    name: &'a str,
    params: &'a [(Type, RegId)],
    ret: &'a Option<Type>,
    blocks: &'a [Block],
    reg_names: &'a [String],
}

impl Serialize for FunctionShellRef<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Function", 5)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("params", &self.params)?;
        s.serialize_field("ret", self.ret)?;
        s.serialize_field("blocks", &self.blocks)?;
        s.serialize_field("reg_names", &self.reg_names)?;
        s.end()
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (without the `@`).
    pub name: String,
    /// Typed parameters.
    pub params: Vec<(Type, RegId)>,
    /// Return type (`None` = void).
    pub ret: Option<Type>,
    /// Basic blocks; index 0 is the entry block.
    pub blocks: Vec<Block>,
    reg_names: Vec<String>,
}

impl Function {
    /// An empty function shell (no blocks yet).
    pub fn new(name: impl Into<String>, ret: Option<Type>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret,
            blocks: Vec::new(),
            reg_names: Vec::new(),
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId::from_index(0)
    }

    /// Clone the function header — name, params, return type, register
    /// names — with an *empty* block list. Wire formats that share basic
    /// blocks across functions (a source/target pair is mostly identical
    /// blocks) serialize this shell next to a deduplicated block table and
    /// reattach the blocks on decode via the public `blocks` field.
    pub fn clone_shell(&self) -> Function {
        Function {
            name: self.name.clone(),
            params: self.params.clone(),
            ret: self.ret,
            blocks: Vec::new(),
            reg_names: self.reg_names.clone(),
        }
    }

    /// A serialize-only borrowed view of [`Self::clone_shell`]: the same
    /// fields in the same serde order with an empty block list, but
    /// borrowing the header instead of cloning it. Encoders that emit the
    /// shell next to a deduplicated block table use this to keep whole-proof
    /// serialization allocation-free.
    pub fn shell_ref(&self) -> FunctionShellRef<'_> {
        FunctionShellRef {
            name: &self.name,
            params: &self.params,
            ret: &self.ret,
            blocks: &[],
            reg_names: &self.reg_names,
        }
    }

    /// Number of registers ever created in this function.
    pub fn reg_count(&self) -> usize {
        self.reg_names.len()
    }

    /// Create a fresh register with a base name; the stored name is made
    /// unique by appending the register index.
    pub fn fresh_reg(&mut self, base: &str) -> RegId {
        let id = RegId::from_index(self.reg_names.len());
        self.reg_names.push(base.to_string());
        id
    }

    /// Append a typed parameter.
    pub fn add_param(&mut self, ty: Type, name: &str) -> RegId {
        let r = self.fresh_reg(name);
        self.params.push((ty, r));
        r
    }

    /// Append a block, returning its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(block);
        id
    }

    /// Access a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Access a block mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// All block ids, in definition order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// The base name given to a register when it was created.
    pub fn reg_name(&self, r: RegId) -> &str {
        &self.reg_names[r.index()]
    }

    /// Find a block by label.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(BlockId::from_index)
    }

    /// Find the unique definition site of a register (thanks to SSA).
    pub fn def_site(&self, r: RegId) -> Option<DefSite> {
        if let Some(i) = self.params.iter().position(|(_, p)| *p == r) {
            return Some(DefSite::Param(i));
        }
        for bid in self.block_ids() {
            let b = self.block(bid);
            if let Some(i) = b.phis.iter().position(|(pr, _)| *pr == r) {
                return Some(DefSite::Phi(bid, i));
            }
            if let Some(i) = b.stmts.iter().position(|s| s.result == Some(r)) {
                return Some(DefSite::Stmt(bid, i));
            }
        }
        None
    }

    /// The static type of a register, derived from its definition.
    pub fn reg_ty(&self, r: RegId) -> Option<Type> {
        match self.def_site(r)? {
            DefSite::Param(i) => Some(self.params[i].0),
            DefSite::Phi(b, i) => Some(self.block(b).phis[i].1.ty),
            DefSite::Stmt(b, i) => self.block(b).stmts[i].inst.result_ty(),
        }
    }

    /// Replace every use of `from` (in phis, statements, and terminators)
    /// with `to`. Returns the number of uses replaced.
    pub fn replace_all_uses(&mut self, from: RegId, to: &Value) -> usize {
        let mut n = 0;
        for b in &mut self.blocks {
            for (_, phi) in &mut b.phis {
                for (_, slot) in &mut phi.incoming {
                    if let Some(v) = slot {
                        if v.replace(from, to) {
                            n += 1;
                        }
                    }
                }
            }
            for s in &mut b.stmts {
                n += s.inst.replace_uses(from, to);
            }
            n += b.term.replace_uses(from, to);
        }
        n
    }

    /// Count the uses of each register across the whole function.
    pub fn use_counts(&self) -> HashMap<RegId, usize> {
        let mut counts = HashMap::new();
        let mut bump = |v: &Value| {
            if let Some(r) = v.as_reg() {
                *counts.entry(r).or_insert(0) += 1;
            }
        };
        for b in &self.blocks {
            for (_, phi) in &b.phis {
                for (_, slot) in &phi.incoming {
                    if let Some(v) = slot {
                        bump(v);
                    }
                }
            }
            for s in &b.stmts {
                s.inst.for_each_value(&mut bump);
            }
            b.term.for_each_value(&mut bump);
        }
        counts
    }

    /// Total number of statements across all blocks.
    pub fn stmt_count(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn sample() -> (Function, RegId, RegId) {
        let mut f = Function::new("f", Some(Type::I32));
        let p = f.add_param(Type::I32, "n");
        let x = f.fresh_reg("x");
        let mut b = Block::new("entry");
        b.stmts.push(Stmt {
            result: Some(x),
            inst: Inst::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                lhs: Value::Reg(p),
                rhs: Value::int(Type::I32, 1),
            },
        });
        b.term = Term::Ret(Some((Type::I32, Value::Reg(x))));
        f.add_block(b);
        (f, p, x)
    }

    #[test]
    fn def_sites_and_types() {
        let (f, p, x) = sample();
        assert_eq!(f.def_site(p), Some(DefSite::Param(0)));
        assert_eq!(f.def_site(x), Some(DefSite::Stmt(f.entry(), 0)));
        assert_eq!(f.reg_ty(x), Some(Type::I32));
        assert_eq!(f.reg_ty(p), Some(Type::I32));
        assert!(f.def_site(RegId::from_index(99)).is_none());
    }

    #[test]
    fn replace_all_uses_counts() {
        let (mut f, p, x) = sample();
        assert_eq!(f.replace_all_uses(p, &Value::int(Type::I32, 7)), 1);
        assert_eq!(f.replace_all_uses(x, &Value::int(Type::I32, 8)), 1);
        assert_eq!(f.replace_all_uses(x, &Value::int(Type::I32, 8)), 0);
    }

    #[test]
    fn use_counts() {
        let (f, p, x) = sample();
        let uc = f.use_counts();
        assert_eq!(uc.get(&p), Some(&1));
        assert_eq!(uc.get(&x), Some(&1));
    }

    #[test]
    fn phi_incoming_manipulation() {
        let b0 = BlockId::from_index(0);
        let b1 = BlockId::from_index(1);
        let mut phi = Phi {
            ty: Type::I32,
            incoming: vec![(b0, None), (b1, None)],
        };
        assert!(!phi.is_complete());
        phi.set_incoming(b0, Value::int(Type::I32, 42));
        assert_eq!(phi.value_from(b0), Some(&Value::int(Type::I32, 42)));
        assert_eq!(phi.value_from(b1), None);
        phi.set_incoming(b1, Value::int(Type::I32, 0));
        assert!(phi.is_complete());
    }
}
