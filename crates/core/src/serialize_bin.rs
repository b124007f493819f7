//! Compact binary (de)serialization — the remedy the paper's §7 proposes
//! for the I/O bottleneck ("the actual time will be much smaller if we …
//! use binary instead of JSON format for proofs").
//!
//! The format is a non-self-describing tag-free encoding of the serde
//! data model (the same idea as `bincode`, implemented from scratch):
//! unsigned integers are LEB128 varints, signed integers are
//! zigzag-encoded varints, enum variants are encoded by index, and
//! lengths prefix sequences, maps, and strings. Because the format is
//! tag-free it must be decoded by exactly the type that produced it —
//! which is the case in the validation pipeline, where both endpoints are
//! the checker's own wire type.
//!
//! The `ablation_proof_format` bench compares the resulting wire bytes
//! and I/O time with JSON's; `serialize::proof_to_bytes_v2` /
//! `proof_from_bytes` are the proof-level entry points.
//!
//! # Wire format v2: dictionary-coded strings
//!
//! Proofs are overwhelmingly repeated symbols (register names, block
//! labels, pass names), so inline strings would pay the full
//! `len + bytes` cost for every occurrence. The v2 container, the one
//! format [`from_bytes_v2`] reads, stores each string once:
//!
//! ```text
//! [0xC5, 0x02]            magic + format version
//! [u64 LE]                FNV-1a checksum of everything that follows
//! varint count            string-table entry count
//! count × (varint len, utf-8 bytes)
//! <body>                  the tag-free encoding, except every string is
//!                         a varint backreference into the table
//! ```
//!
//! A stream without the magic is refused, so a proof dump in any other
//! format is a clean [`Error`]. The checksum turns any truncation or bit
//! flip into a clean [`Error`] before the body is ever interpreted — and
//! it is the *only* full-buffer pass the decoder makes: after it, the
//! string table is sliced and UTF-8-validated entry by entry exactly
//! once, and the body borrows those pre-checked `&str` spans for every
//! backreference. The encoder takes optional scratch state
//! ([`EncodeScratch`]) so hot loops reuse the dictionary map and the body
//! buffer instead of reallocating per proof.

use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
use serde::{ser, Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary codec: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

fn err(msg: impl Into<String>) -> Error {
    Error(msg.into())
}

/// Serialize any serde value to the tag-free encoding with inline
/// strings and no header. This is the canonical byte form that
/// validation-cache keys hash; nothing decodes it.
///
/// # Errors
///
/// Fails only on values the data model cannot express (e.g. sequences of
/// unknown length), which the proof wire types never produce.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    let mut s = BinSerializer {
        out: &mut out,
        dict: None,
    };
    value.serialize(&mut s)?;
    Ok(out)
}

// ------------------------------------------------------------ v2 container

/// Magic prefix of a v2 stream: a marker byte plus the format version.
pub const V2_MAGIC: [u8; 2] = [0xC5, 0x02];

/// Deepest nesting of enums, structs, tuples, sequences, maps, options
/// and newtype structs the decoder follows before it fails. Decoding
/// recurses once per level, so without a limit a hostile stream could
/// exhaust the stack. A nested constant expression costs three levels per
/// step (`Const`, `ConstExpr`, its fields), so a module holding a constant
/// at the text parser's limit of 256 steps reaches about 790; no other
/// wire type nests deeper than a dozen levels.
pub const MAX_DEPTH: usize = 1024;

/// v2 format version number (the second magic byte).
pub const FORMAT_V2: u8 = 2;

/// Bytes of header before the string table: magic + checksum.
const V2_HEADER: usize = 2 + 8;

/// 64-bit FNV-1a — the stable, dependency-free content hash used for the
/// v2 stream checksum and the validation cache keys.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Continue an FNV-1a hash from a previous state (for hashing multiple
/// components into one key without concatenating them first).
#[must_use]
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reusable encoder state for [`to_bytes_v2_into`]: the string dictionary
/// and the body buffer survive across proofs, so a per-worker scratch
/// turns the per-proof allocation churn into a handful of amortized
/// buffers.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    dict: HashMap<String, u32>,
    body: Vec<u8>,
}

/// Serialize to the dictionary-coded v2 container.
///
/// # Errors
///
/// Fails only on values the data model cannot express.
pub fn to_bytes_v2<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    let mut scratch = EncodeScratch::default();
    let mut out = Vec::new();
    to_bytes_v2_into(value, &mut scratch, &mut out)?;
    Ok(out)
}

/// [`to_bytes_v2`] writing into a caller-owned buffer with reusable
/// scratch state. `out` is cleared first.
///
/// # Errors
///
/// Fails only on values the data model cannot express.
pub fn to_bytes_v2_into<T: Serialize>(
    value: &T,
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    out.clear();
    scratch.body.clear();
    scratch.dict.clear();
    {
        let mut s = BinSerializer {
            out: &mut scratch.body,
            dict: Some(&mut scratch.dict),
        };
        value.serialize(&mut s)?;
    }
    out.extend_from_slice(&V2_MAGIC);
    out.extend_from_slice(&[0u8; 8]); // checksum, patched below
    let mut entries: Vec<(&str, u32)> =
        scratch.dict.iter().map(|(s, &i)| (s.as_str(), i)).collect();
    entries.sort_unstable_by_key(|&(_, i)| i);
    varint_into(out, entries.len() as u64);
    for (s, _) in entries {
        varint_into(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&scratch.body);
    let sum = fnv64(&out[V2_HEADER..]);
    out[2..V2_HEADER].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Deserialize a v2 stream produced by [`to_bytes_v2`] for the same type.
///
/// # Errors
///
/// Fails with a clean error (never a panic) on a missing magic, checksum
/// mismatch, truncated or corrupt string table, or malformed body.
pub fn from_bytes_v2<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> Result<T, Error> {
    if !bytes.starts_with(&V2_MAGIC) {
        return Err(err("missing v2 magic"));
    }
    if bytes.len() < V2_HEADER {
        return Err(err("truncated v2 header"));
    }
    let sum = u64::from_le_bytes(bytes[2..V2_HEADER].try_into().expect("8 bytes"));
    let rest = &bytes[V2_HEADER..];
    if fnv64(rest) != sum {
        return Err(err("v2 checksum mismatch (truncated or corrupted stream)"));
    }
    // Parse the string table once up front: every entry is sliced out of
    // the input and validated as UTF-8 exactly here, so backref resolution
    // in the body below is a bare indexed load of a pre-checked `&str`
    // (no per-occurrence bounds arithmetic or re-validation).
    let mut d = BinDeserializer {
        input: rest,
        table: Vec::new(),
        depth: 0,
    };
    let count = d.len()?;
    d.table.reserve_exact(count);
    for _ in 0..count {
        let n = d.len()?;
        let entry = d.take(n)?;
        d.table
            .push(std::str::from_utf8(entry).map_err(|_| err("string table entry is not utf-8"))?);
    }
    let v = T::deserialize(&mut d)?;
    if d.input.is_empty() {
        Ok(v)
    } else {
        Err(err(format!("{} trailing bytes", d.input.len())))
    }
}

// ---------------------------------------------------------------- writer

fn varint_into(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct BinSerializer<'a> {
    out: &'a mut Vec<u8>,
    /// When present (v2), strings are interned here and emitted as varint
    /// backreferences; [`to_bytes`] has none and writes them inline as
    /// `len + bytes`.
    dict: Option<&'a mut HashMap<String, u32>>,
}

impl BinSerializer<'_> {
    fn varint(&mut self, v: u64) {
        varint_into(self.out, v);
    }

    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }
}

impl ser::Serializer for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn is_human_readable(&self) -> bool {
        false
    }

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), Error> {
        self.zigzag(v as i64);
        Ok(())
    }

    fn serialize_i16(self, v: i16) -> Result<(), Error> {
        self.zigzag(v as i64);
        Ok(())
    }

    fn serialize_i32(self, v: i32) -> Result<(), Error> {
        self.zigzag(v as i64);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        self.zigzag(v);
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), Error> {
        self.out.push(v);
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<(), Error> {
        self.varint(v as u64);
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<(), Error> {
        self.varint(v as u64);
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        self.varint(v);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), Error> {
        self.varint(v as u64);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        if let Some(dict) = self.dict.as_deref_mut() {
            let idx = match dict.get(v) {
                Some(&i) => i,
                None => {
                    let i = u32::try_from(dict.len()).map_err(|_| err("string table overflow"))?;
                    dict.insert(v.to_owned(), i);
                    i
                }
            };
            varint_into(self.out, u64::from(idx));
        } else {
            self.varint(v.len() as u64);
            self.out.extend_from_slice(v.as_bytes());
        }
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
        self.varint(v.len() as u64);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), Error> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Error> {
        self.out.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), Error> {
        self.varint(variant_index as u64);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.varint(variant_index as u64);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, Error> {
        let len = len.ok_or_else(|| err("sequences must have a known length"))?;
        self.varint(len as u64);
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, Error> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, Error> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, Error> {
        self.varint(variant_index as u64);
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self, Error> {
        let len = len.ok_or_else(|| err("maps must have a known length"))?;
        self.varint(len as u64);
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, Error> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, Error> {
        self.varint(variant_index as u64);
        Ok(self)
    }
}

impl ser::SerializeSeq for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeTuple for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeMap for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut BinSerializer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), Error> {
        Ok(())
    }
}

// ---------------------------------------------------------------- reader

struct BinDeserializer<'de> {
    input: &'de [u8],
    /// v2 string table as pre-validated `&str` slices of the input archive
    /// (each entry bounds- and UTF-8-checked once, when the table was
    /// parsed).
    table: Vec<&'de str>,
    /// Current nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'de> BinDeserializer<'de> {
    /// Run `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<R>(&mut self, f: impl FnOnce(&mut Self) -> Result<R, Error>) -> Result<R, Error> {
        if self.depth == MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn byte(&mut self) -> Result<u8, Error> {
        let (&b, rest) = self
            .input
            .split_first()
            .ok_or_else(|| err("unexpected end of input"))?;
        self.input = rest;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], Error> {
        if self.input.len() < n {
            return Err(err("unexpected end of input"));
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(err("varint too long"))
    }

    fn zigzag(&mut self) -> Result<i64, Error> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn len(&mut self) -> Result<usize, Error> {
        let n = self.varint()?;
        // A length can never exceed the remaining input (every element is
        // at least one byte) — reject early instead of letting a corrupted
        // length trigger a huge allocation.
        if n > self.input.len() as u64 {
            return Err(err(format!("length {n} exceeds remaining input")));
        }
        Ok(n as usize)
    }
}

macro_rules! de_unsigned {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let v = self.varint()?;
            visitor.$visit(<$ty>::try_from(v).map_err(|_| err("integer out of range"))?)
        }
    };
}

macro_rules! de_signed {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let v = self.zigzag()?;
            visitor.$visit(<$ty>::try_from(v).map_err(|_| err("integer out of range"))?)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = Error;

    fn is_human_readable(&self) -> bool {
        false
    }

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
        Err(err("format is not self-describing"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.byte()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(err(format!("invalid bool byte {b}"))),
        }
    }

    de_signed!(deserialize_i8, visit_i8, i8);
    de_signed!(deserialize_i16, visit_i16, i16);
    de_signed!(deserialize_i32, visit_i32, i32);

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let v = self.zigzag()?;
        visitor.visit_i64(v)
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let b = self.byte()?;
        visitor.visit_u8(b)
    }

    de_unsigned!(deserialize_u16, visit_u16, u16);
    de_unsigned!(deserialize_u32, visit_u32, u32);

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let v = self.varint()?;
        visitor.visit_u64(v)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let bytes = self.take(4)?;
        visitor.visit_f32(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let bytes = self.take(8)?;
        visitor.visit_f64(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let v = self.varint()?;
        let c = u32::try_from(v)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| err("invalid char"))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let idx = self.varint()?;
        let s = usize::try_from(idx)
            .ok()
            .and_then(|i| self.table.get(i))
            .copied()
            .ok_or_else(|| err(format!("string index {idx} beyond table")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let n = self.len()?;
        visitor.visit_borrowed_bytes(self.take(n)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.byte()? {
            0 => visitor.visit_none(),
            1 => self.nested(|de| visitor.visit_some(de)),
            b => Err(err(format!("invalid option byte {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.nested(|de| visitor.visit_newtype_struct(de))
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.nested(|de| {
            let n = de.len()?;
            visitor.visit_seq(Counted { de, remaining: n })
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, Error> {
        self.nested(|de| visitor.visit_seq(Counted { de, remaining: len }))
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.nested(|de| {
            let n = de.len()?;
            visitor.visit_map(Counted { de, remaining: n })
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.nested(|de| visitor.visit_enum(EnumAccess { de }))
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
        Err(err("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
        Err(err("cannot skip values in a non-self-describing format"))
    }
}

struct Counted<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Error> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Error> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, Error> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = Error;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self), Error> {
        let idx =
            u32::try_from(self.de.varint()?).map_err(|_| err("variant index out of range"))?;
        let val = seed.deserialize(idx.into_deserializer())?;
        Ok((val, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, Error> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, Error> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Sample {
        Unit,
        Newtype(u32),
        Tuple(i64, String),
        Struct { flag: bool, items: Vec<u8> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        variants: Vec<Sample>,
        table: BTreeMap<String, Option<i32>>,
        pair: (u64, char),
    }

    fn sample() -> Nested {
        Nested {
            name: "proof".into(),
            variants: vec![
                Sample::Unit,
                Sample::Newtype(7),
                Sample::Tuple(-40, "x".into()),
                Sample::Struct {
                    flag: true,
                    items: vec![1, 2, 3],
                },
            ],
            table: [("a".to_string(), Some(-1)), ("b".to_string(), None)]
                .into_iter()
                .collect(),
            pair: (u64::MAX, 'λ'),
        }
    }

    /// A v2 stream around `tail` (string table, then body) with a valid
    /// checksum, so the decoder's own checks meet the bytes, not the
    /// checksum.
    fn sealed(tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::from(V2_MAGIC);
        out.extend_from_slice(&fnv64(tail).to_le_bytes());
        out.extend_from_slice(tail);
        out
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let bytes = to_bytes_v2(&v).unwrap();
            assert_eq!(from_bytes_v2::<u64>(&bytes).unwrap(), v, "u64 {v}");
            let mut tail = vec![0]; // empty string table
            varint_into(&mut tail, v);
            assert_eq!(sealed(&tail), bytes, "u64 {v}");
        }
        for v in [0i64, -1, 1, -64, 63, -65, 64, i64::MIN, i64::MAX] {
            let bytes = to_bytes_v2(&v).unwrap();
            assert_eq!(from_bytes_v2::<i64>(&bytes).unwrap(), v, "i64 {v}");
        }
        let mut tail = vec![0];
        tail.extend_from_slice(&[0xff; 10]);
        let e = from_bytes_v2::<u64>(&sealed(&tail)).unwrap_err();
        assert!(e.to_string().contains("varint too long"), "{e}");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        // Re-sealed, so every cut reaches the body decoder.
        let bytes = to_bytes_v2(&sample()).unwrap();
        let tail = &bytes[V2_HEADER..];
        for cut in 0..tail.len() {
            assert!(
                from_bytes_v2::<Nested>(&sealed(&tail[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut tail = to_bytes_v2(&42u64).unwrap()[V2_HEADER..].to_vec();
        tail.push(0);
        let e = from_bytes_v2::<u64>(&sealed(&tail)).unwrap_err();
        assert!(e.to_string().contains("1 trailing bytes"), "{e}");
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocation() {
        // A varint length far larger than the input must fail fast: in the
        // body (after an empty table), in the table count, and in a table
        // entry (after a count of 1).
        let huge = [0xff, 0xff, 0xff, 0xff, 0x7f];
        for prefix in [&[0u8][..], &[], &[1]] {
            let e = from_bytes_v2::<Vec<u8>>(&sealed(&[prefix, &huge].concat())).unwrap_err();
            assert!(e.to_string().contains("exceeds remaining input"), "{e}");
        }
    }

    #[test]
    fn v2_roundtrip_covers_the_data_model() {
        let v = sample();
        let bytes = to_bytes_v2(&v).unwrap();
        assert!(bytes.starts_with(&V2_MAGIC));
        assert_eq!(from_bytes_v2::<Nested>(&bytes).unwrap(), v);
    }

    #[test]
    fn dictionary_pays_off_on_repeated_strings() {
        let v: Vec<String> = (0..64).map(|i| format!("block_{}", i % 4)).collect();
        let inline = to_bytes(&v).unwrap();
        let v2 = to_bytes_v2(&v).unwrap();
        assert!(
            v2.len() < inline.len(),
            "v2 ({}) not smaller than inline strings ({})",
            v2.len(),
            inline.len()
        );
        assert_eq!(from_bytes_v2::<Vec<String>>(&v2).unwrap(), v);
    }

    #[test]
    fn v2_truncation_and_bit_flips_are_clean_errors() {
        let bytes = to_bytes_v2(&sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                from_bytes_v2::<Nested>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // The magic check catches a flip in the first two bytes, the
        // checksum one anywhere in the table or body.
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= bit;
                assert!(
                    from_bytes_v2::<Nested>(&corrupt).is_err(),
                    "flip {bit:#x} at {pos} accepted"
                );
            }
        }
    }

    #[test]
    fn bogus_string_index_is_rejected() {
        // The body references entry 7 of a 1-entry table.
        let mut tail = Vec::new();
        varint_into(&mut tail, 1); // table count
        varint_into(&mut tail, 2); // entry len
        tail.extend_from_slice(b"ab");
        varint_into(&mut tail, 7); // body: string backref out of range
        let e = from_bytes_v2::<String>(&sealed(&tail)).unwrap_err();
        assert!(e.to_string().contains("beyond table"), "{e}");
    }

    #[test]
    fn scratch_state_is_reusable_across_values() {
        let mut enc = EncodeScratch::default();
        let mut out = Vec::new();
        for i in 0..4u32 {
            let v = Nested {
                name: format!("proof{i}"),
                ..sample()
            };
            to_bytes_v2_into(&v, &mut enc, &mut out).unwrap();
            assert_eq!(out, to_bytes_v2(&v).unwrap());
            assert_eq!(from_bytes_v2::<Nested>(&out).unwrap(), v);
        }
    }

    /// IR text for a module whose one constant nests `depth` `sub`s.
    fn nested_const_text(depth: usize) -> String {
        format!(
            "define @f() -> i32 {{\nentry:\n  %x = add i32 {}1{}, 0\n  ret i32 %x\n}}\n",
            "sub(i32 ".repeat(depth),
            ", 1)".repeat(depth)
        )
    }

    #[test]
    fn nesting_the_parser_admits_round_trips() {
        let m = crellvm_ir::parse_module(&nested_const_text(256)).unwrap();
        let bytes = to_bytes_v2(&m).unwrap();
        assert_eq!(from_bytes_v2::<crellvm_ir::Module>(&bytes).unwrap(), m);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        use crellvm_ir::{BinOp, Const, ConstExpr, Inst, Type, Value};
        // Building, encoding and dropping a constant this deep recurse
        // once per level, so they run on a thread with a large stack; the
        // decode under test runs on this test's ordinary one.
        let bytes = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut m = crellvm_ir::parse_module(&nested_const_text(1)).unwrap();
                let mut c = Const::int(Type::I32, 1);
                for _ in 0..20_000 {
                    let one = Const::int(Type::I32, 1);
                    c = Const::Expr(Box::new(ConstExpr::Bin(BinOp::Sub, Type::I32, c, one)));
                }
                let Inst::Bin { lhs, .. } = &mut m.functions[0].blocks[0].stmts[0].inst else {
                    panic!("the fixture's first statement is an add");
                };
                *lhs = Value::Const(c);
                to_bytes_v2(&m).unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        let e = from_bytes_v2::<crellvm_ir::Module>(&bytes).unwrap_err();
        assert!(e.to_string().contains("nesting deeper than"), "{e}");
    }

    #[test]
    fn fnv64_is_stable() {
        // Reference vectors for the FNV-1a parameters; cache keys persist
        // on disk, so the hash must never drift.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64_extend(fnv64(b"ab"), b"c"), fnv64(b"abc"));
    }
}
