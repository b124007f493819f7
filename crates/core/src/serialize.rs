//! JSON (de)serialization of proof units.
//!
//! The original Crellvm pipeline writes `src.ll`, `tgt'.ll`, and the proof
//! to disk as JSON and reads them back in the checker process; the paper's
//! experimental tables report this I/O time as a separate column. This
//! module reproduces that pipeline (and is what the `fig8_times` /
//! `proof_io` benchmarks measure).

use crate::assertion::Assertion;
use crate::auto::AutoKind;
use crate::infrule::InfRule;
use crate::proof::{ProofUnit, RowShape, RulePos, SlotId};
use crate::serialize_bin::{self, EncodeScratch};
use crellvm_ir::{Block, Function, FunctionShellRef};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Wire format: JSON objects cannot use struct keys, so the maps become
/// association lists. An `Arc` is written as its contents, so each slot
/// carries its whole assertion, and reading gives each slot its own.
#[derive(Debug, Serialize, Deserialize)]
struct ProofUnitWire {
    pass: String,
    src: Function,
    tgt: Function,
    alignment: Vec<Vec<RowShape>>,
    assertions: Vec<(SlotId, Arc<Assertion>)>,
    infrules: Vec<(RulePos, Vec<InfRule>)>,
    autos: BTreeSet<AutoKind>,
    not_supported: Option<String>,
}

impl From<&ProofUnit> for ProofUnitWire {
    fn from(u: &ProofUnit) -> ProofUnitWire {
        ProofUnitWire {
            pass: u.pass.clone(),
            src: u.src.clone(),
            tgt: u.tgt.clone(),
            alignment: u.alignment.clone(),
            assertions: u.assertions.iter().map(|(k, v)| (*k, v.clone())).collect(),
            infrules: u.infrules.iter().map(|(k, v)| (*k, v.clone())).collect(),
            autos: u.autos.clone(),
            not_supported: u.not_supported.clone(),
        }
    }
}

impl From<ProofUnitWire> for ProofUnit {
    fn from(w: ProofUnitWire) -> ProofUnit {
        ProofUnit {
            pass: w.pass,
            src: w.src,
            tgt: w.tgt,
            alignment: w.alignment,
            assertions: w.assertions.into_iter().collect(),
            infrules: w.infrules.into_iter().collect(),
            autos: w.autos,
            not_supported: w.not_supported,
        }
    }
}

/// Serialize a proof unit to JSON.
///
/// # Errors
///
/// Propagates `serde_json` failures (effectively unreachable for these
/// types).
pub fn proof_to_json(unit: &ProofUnit) -> serde_json::Result<String> {
    serde_json::to_string(&ProofUnitWire::from(unit))
}

/// Deserialize a proof unit from JSON.
///
/// # Errors
///
/// Fails on malformed input.
pub fn proof_from_json(s: &str) -> serde_json::Result<ProofUnit> {
    serde_json::from_str::<ProofUnitWire>(s).map(ProofUnit::from)
}

// ------------------------------------------------------- wire format v2

/// Wire format v2 payload. On top of the dictionary-coded container of
/// [`crate::serialize_bin`], the proof itself is delta-compressed:
///
/// * source and target share one deduplicated basic-block table — a pass
///   rewrites few blocks, so most target blocks are byte-identical to
///   their source counterparts and cost a single varint backref;
/// * per-slot assertions reference a deduplicated assertion table — the
///   same assertion typically holds over whole ranges of program points.
#[derive(Debug, Serialize, Deserialize)]
struct ProofUnitWireV2 {
    pass: String,
    src_shell: Function,
    src_blocks: Vec<u32>,
    tgt_shell: Function,
    tgt_blocks: Vec<u32>,
    block_table: Vec<Block>,
    alignment: Vec<Vec<RowShape>>,
    assertion_table: Vec<Assertion>,
    assertion_slots: Vec<(SlotId, u32)>,
    infrules: Vec<(RulePos, Vec<InfRule>)>,
    autos: BTreeSet<AutoKind>,
    not_supported: Option<String>,
}

/// Serialize-only borrowed mirror of [`ProofUnitWireV2`]: every field is a
/// view into the proof unit, so encoding never deep-clones the functions,
/// blocks, or assertions it is about to write out. Field order and serde
/// shapes must stay byte-compatible with [`ProofUnitWireV2`] (a `&[T]`
/// encodes like a `Vec<T>`, a `BTreeMap` like its sorted pair list, and
/// [`FunctionShellRef`] like `Function::clone_shell`), which
/// `v2_borrowed_encode_matches_owned` pins. `Serialize` is hand-written —
/// derives don't take lifetime parameters here — and mirrors the derive
/// on the owned struct field for field.
#[derive(Debug)]
struct ProofUnitWireV2Ref<'a> {
    pass: &'a str,
    src_shell: FunctionShellRef<'a>,
    src_blocks: Vec<u32>,
    tgt_shell: FunctionShellRef<'a>,
    tgt_blocks: Vec<u32>,
    block_table: Vec<&'a Block>,
    alignment: &'a [Vec<RowShape>],
    assertion_table: Vec<&'a Assertion>,
    assertion_slots: Vec<(SlotId, u32)>,
    infrules: &'a BTreeMap<RulePos, Vec<InfRule>>,
    autos: &'a BTreeSet<AutoKind>,
    not_supported: &'a Option<String>,
}

impl Serialize for ProofUnitWireV2Ref<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("ProofUnitWireV2", 12)?;
        s.serialize_field("pass", &self.pass)?;
        s.serialize_field("src_shell", &self.src_shell)?;
        s.serialize_field("src_blocks", &self.src_blocks)?;
        s.serialize_field("tgt_shell", &self.tgt_shell)?;
        s.serialize_field("tgt_blocks", &self.tgt_blocks)?;
        s.serialize_field("block_table", &self.block_table)?;
        s.serialize_field("alignment", &self.alignment)?;
        s.serialize_field("assertion_table", &self.assertion_table)?;
        s.serialize_field("assertion_slots", &self.assertion_slots)?;
        s.serialize_field("infrules", self.infrules)?;
        s.serialize_field("autos", self.autos)?;
        s.serialize_field("not_supported", self.not_supported)?;
        s.end()
    }
}

/// First-seen-order interning by deep equality. Tables here are small
/// (blocks per function pair, distinct assertions per proof), so a linear
/// scan beats maintaining a hash index. The table holds references — the
/// encoder never owns what it writes. Assertions reach it once per
/// distinct `Arc`, not once per slot (see the `From` impl below).
fn intern_ref<'a, T: PartialEq>(table: &mut Vec<&'a T>, v: &'a T) -> u32 {
    match table.iter().position(|&x| x == v) {
        Some(i) => i as u32,
        None => {
            table.push(v);
            (table.len() - 1) as u32
        }
    }
}

impl<'a> From<&'a ProofUnit> for ProofUnitWireV2Ref<'a> {
    fn from(u: &'a ProofUnit) -> ProofUnitWireV2Ref<'a> {
        let mut block_table = Vec::new();
        let src_blocks = u
            .src
            .blocks
            .iter()
            .map(|b| intern_ref(&mut block_table, b))
            .collect();
        let tgt_blocks = u
            .tgt
            .blocks
            .iter()
            .map(|b| intern_ref(&mut block_table, b))
            .collect();
        // Slots that share an `Arc` share its index: only the first slot
        // holding each `Arc` pays the deep-equality scan.
        let mut assertion_table = Vec::new();
        let mut by_ptr: HashMap<*const Assertion, u32> = HashMap::new();
        let assertion_slots = u
            .assertions
            .iter()
            .map(|(k, a)| {
                let i = *by_ptr
                    .entry(Arc::as_ptr(a))
                    .or_insert_with(|| intern_ref(&mut assertion_table, a.as_ref()));
                (*k, i)
            })
            .collect();
        ProofUnitWireV2Ref {
            pass: &u.pass,
            src_shell: u.src.shell_ref(),
            src_blocks,
            tgt_shell: u.tgt.shell_ref(),
            tgt_blocks,
            block_table,
            alignment: &u.alignment,
            assertion_table,
            assertion_slots,
            infrules: &u.infrules,
            autos: &u.autos,
            not_supported: &u.not_supported,
        }
    }
}

fn bad_ref(what: &str, idx: u32) -> serialize_bin::Error {
    <serialize_bin::Error as serde::de::Error>::custom(format!("{what} index {idx} beyond table"))
}

/// Move-on-last-use block dispenser: the decoder counts how often each
/// table block is referenced up front, then every reference but the last
/// clones and the last one *moves* the block out. Each distinct block is
/// thus materialized exactly `refs` times — not `refs + 1` (table +
/// clones) as a naive reattach would. (Assertions need no dispenser: the
/// slots share the table's entries.)
struct TakeTable {
    slots: Vec<Option<Block>>,
    remaining: Vec<u32>,
}

impl TakeTable {
    fn new(table: Vec<Block>) -> TakeTable {
        let remaining = vec![0u32; table.len()];
        TakeTable {
            slots: table.into_iter().map(Some).collect(),
            remaining,
        }
    }

    /// Pre-register a reference (validates the index).
    fn will_take(&mut self, i: u32) -> Result<(), serialize_bin::Error> {
        match self.remaining.get_mut(i as usize) {
            Some(n) => {
                *n += 1;
                Ok(())
            }
            None => Err(bad_ref("block", i)),
        }
    }

    /// Resolve a pre-registered reference.
    fn take(&mut self, i: u32) -> Block {
        let i = i as usize;
        self.remaining[i] -= 1;
        if self.remaining[i] == 0 {
            self.slots[i].take().expect("reference was pre-registered")
        } else {
            self.slots[i].clone().expect("reference was pre-registered")
        }
    }
}

/// The retired owned construction, kept (test-only) as the reference the
/// borrowed mirror is pinned byte-identical against.
#[cfg(test)]
impl From<&ProofUnit> for ProofUnitWireV2 {
    fn from(u: &ProofUnit) -> ProofUnitWireV2 {
        fn intern<T: PartialEq + Clone>(table: &mut Vec<T>, v: &T) -> u32 {
            match table.iter().position(|x| x == v) {
                Some(i) => i as u32,
                None => {
                    table.push(v.clone());
                    (table.len() - 1) as u32
                }
            }
        }
        let mut block_table = Vec::new();
        let src_blocks = u
            .src
            .blocks
            .iter()
            .map(|b| intern(&mut block_table, b))
            .collect();
        let tgt_blocks = u
            .tgt
            .blocks
            .iter()
            .map(|b| intern(&mut block_table, b))
            .collect();
        let mut assertion_table = Vec::new();
        let assertion_slots = u
            .assertions
            .iter()
            .map(|(k, a)| (*k, intern(&mut assertion_table, a.as_ref())))
            .collect();
        ProofUnitWireV2 {
            pass: u.pass.clone(),
            src_shell: u.src.clone_shell(),
            src_blocks,
            tgt_shell: u.tgt.clone_shell(),
            tgt_blocks,
            block_table,
            alignment: u.alignment.clone(),
            assertion_table,
            assertion_slots,
            infrules: u.infrules.iter().map(|(k, v)| (*k, v.clone())).collect(),
            autos: u.autos.clone(),
            not_supported: u.not_supported.clone(),
        }
    }
}

impl TryFrom<ProofUnitWireV2> for ProofUnit {
    type Error = serialize_bin::Error;

    fn try_from(w: ProofUnitWireV2) -> Result<ProofUnit, serialize_bin::Error> {
        let mut blocks = TakeTable::new(w.block_table);
        for &i in w.src_blocks.iter().chain(&w.tgt_blocks) {
            blocks.will_take(i)?;
        }
        let mut src = w.src_shell;
        src.blocks = w.src_blocks.iter().map(|&i| blocks.take(i)).collect();
        let mut tgt = w.tgt_shell;
        tgt.blocks = w.tgt_blocks.iter().map(|&i| blocks.take(i)).collect();

        // Every slot that references a table entry shares its one `Arc`.
        let table: Vec<Arc<Assertion>> = w.assertion_table.into_iter().map(Arc::new).collect();
        let assertions = w
            .assertion_slots
            .into_iter()
            .map(|(k, i)| match table.get(i as usize) {
                Some(a) => Ok((k, Arc::clone(a))),
                None => Err(bad_ref("assertion", i)),
            })
            .collect::<Result<_, _>>()?;
        Ok(ProofUnit {
            pass: w.pass,
            src,
            tgt,
            alignment: w.alignment,
            assertions,
            infrules: w.infrules.into_iter().collect(),
            autos: w.autos,
            not_supported: w.not_supported,
        })
    }
}

/// Serialize a proof unit to wire format v2 (dictionary-coded strings +
/// block/assertion delta tables) — the default on-the-wire format of the
/// parallel validation engine.
///
/// # Errors
///
/// Effectively unreachable for these types (kept for API symmetry).
pub fn proof_to_bytes_v2(unit: &ProofUnit) -> Result<Vec<u8>, serialize_bin::Error> {
    serialize_bin::to_bytes_v2(&ProofUnitWireV2Ref::from(unit))
}

/// [`proof_to_bytes_v2`] writing into a caller-owned buffer with reusable
/// encoder scratch (the per-worker buffer-pooling entry point).
///
/// # Errors
///
/// Effectively unreachable for these types (kept for API symmetry).
pub fn proof_to_bytes_v2_into(
    unit: &ProofUnit,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) -> Result<(), serialize_bin::Error> {
    serialize_bin::to_bytes_v2_into(&ProofUnitWireV2Ref::from(unit), scratch, out)
}

/// Deserialize a proof unit from wire format v2, the one binary proof
/// format — the paper's §7 remedy for the I/O bottleneck (see
/// [`crate::serialize_bin`]).
///
/// # Errors
///
/// Fails cleanly on a missing magic, checksum mismatch, corrupt string
/// table, or out-of-range block/assertion backreference.
pub fn proof_from_bytes(bytes: &[u8]) -> Result<ProofUnit, serialize_bin::Error> {
    serialize_bin::from_bytes_v2::<ProofUnitWireV2>(bytes).and_then(ProofUnit::try_from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Pred;
    use crate::expr::{Expr, Side, TValue};
    use crate::proof::{Loc, ProofBuilder};
    use crellvm_ir::{parse_module, RegId, Type};

    fn sample_unit() -> ProofUnit {
        let m = parse_module(
            r#"
            declare @print(i32)
            define @f(i32 %n) {
            entry:
              %x = add i32 %n, 1
              call void @print(i32 %x)
              ret void
            }
            "#,
        )
        .unwrap();
        let mut b = ProofBuilder::new("demo", &m.functions[0]);
        b.global_pred(Side::Src, Pred::Uniq(RegId::from_index(9)));
        b.range_pred(
            Side::Tgt,
            Pred::Lessdef(
                Expr::value(TValue::ghost("g")),
                Expr::value(TValue::int(Type::I32, 1)),
            ),
            Loc::AfterRow(0, 0),
            Loc::End(0),
        );
        b.infrule_after_row(
            0,
            1,
            crate::infrule::InfRule::IntroEq {
                side: Side::Src,
                e: Expr::value(TValue::int(Type::I32, 7)),
            },
        );
        b.auto(AutoKind::Transitivity);
        b.finish()
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let unit = sample_unit();
        let json = proof_to_json(&unit).unwrap();
        let back = proof_from_json(&json).unwrap();
        assert_eq!(unit.pass, back.pass);
        assert_eq!(unit.src, back.src);
        assert_eq!(unit.tgt, back.tgt);
        assert_eq!(unit.alignment, back.alignment);
        assert_eq!(unit.assertions, back.assertions);
        assert_eq!(unit.infrules, back.infrules);
        assert_eq!(unit.autos, back.autos);
        // And the deserialized proof still validates identically.
        assert_eq!(
            crate::checker::validate(&unit).is_ok(),
            crate::checker::validate(&back).is_ok()
        );
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(proof_from_json("{").is_err());
        assert!(proof_from_json("{\"pass\": 3}").is_err());
    }

    fn assert_units_equal(a: &ProofUnit, b: &ProofUnit) {
        assert_eq!(a.pass, b.pass);
        assert_eq!(a.src, b.src);
        assert_eq!(a.tgt, b.tgt);
        assert_eq!(a.alignment, b.alignment);
        assert_eq!(a.assertions, b.assertions);
        assert_eq!(a.infrules, b.infrules);
        assert_eq!(a.autos, b.autos);
        assert_eq!(a.not_supported, b.not_supported);
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        let unit = sample_unit();
        let bytes = proof_to_bytes_v2(&unit).unwrap();
        assert_units_equal(&unit, &proof_from_bytes(&bytes).unwrap());
    }

    #[test]
    fn v2_borrowed_encode_matches_owned() {
        // The zero-copy encode mirror must stay byte-identical to the
        // owned construction it replaced: same tables, same field order,
        // same serde shapes. Cache keys and `.cpe` archives depend on it.
        let unit = sample_unit();
        let borrowed = serialize_bin::to_bytes_v2(&ProofUnitWireV2Ref::from(&unit)).unwrap();
        let owned = serialize_bin::to_bytes_v2(&ProofUnitWireV2::from(&unit)).unwrap();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn v2_corruption_is_a_clean_error() {
        let bytes = proof_to_bytes_v2(&sample_unit()).unwrap();
        for cut in 0..bytes.len() {
            assert!(proof_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[12] ^= 0x40;
        assert!(proof_from_bytes(&flipped).is_err());
    }
}
