//! ERHL assertions: predicates, unary assertion sets, maydiff sets, and the
//! relational assertion triple (paper §2.2, §G).

use crate::expr::{Expr, Side, TReg, TValue};
use crellvm_ir::RegId;
use serde::de::{self, MapAccess, SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct, SerializeTupleVariant};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeSet;
use std::fmt;

/// A unary predicate over one side's (extended) state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Pred {
    /// `e1 ⊒ e2`: whenever both evaluate, `e1` is `undef` or equals `e2`
    /// (the CompCert-style *lessdef* relation, §F).
    Lessdef(Expr, Expr),
    /// `Uniq(r)`: the address in `r` is isolated — not aliased by any other
    /// register or memory cell, and private to this side (§3.2).
    Uniq(RegId),
    /// `Priv(r)`: the address in `r` is private to this side (no
    /// corresponding block on the other side).
    Priv(TReg),
    /// `a ⊥ b`: the addresses in `a` and `b` point to disjoint blocks.
    Noalias(TValue, TValue),
}

impl Pred {
    /// Does this predicate mention tagged register `r` anywhere?
    pub fn mentions(&self, r: &TReg) -> bool {
        match self {
            Pred::Lessdef(a, b) => a.mentions(r) || b.mentions(r),
            Pred::Uniq(u) => TReg::Phy(*u) == *r,
            Pred::Priv(p) => p == r,
            Pred::Noalias(a, b) => a.as_reg() == Some(r) || b.as_reg() == Some(r),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Lessdef(a, b) => write!(f, "{a} >= {b}"),
            Pred::Uniq(r) => write!(f, "uniq({r})"),
            Pred::Priv(r) => write!(f, "priv({r})"),
            Pred::Noalias(a, b) => write!(f, "{a} _|_ {b}"),
        }
    }
}

/// A set of unary predicates for one side.
///
/// Lessdef predicates — the bulk of every real assertion and the target of
/// the checker's hottest lookups — are stored *decomposed* in one flat,
/// sorted, duplicate-free vector of pairs, `fwd`, holding `(lhs, rhs)` in
/// `(lhs, rhs)` order, and a reverse index `rev` of positions into `fwd`,
/// ordered by the pairs' `(rhs, lhs)`. `has_lessdef` is a binary search,
/// and `lessdef_rhs_of` / `lessdef_lhs_of` are contiguous ranges found
/// with `partition_point`. The remaining predicate kinds (`Uniq` / `Priv`
/// / `Noalias`) live in `others`.
///
/// Why vectors and not `BTreeMap<Expr, BTreeSet<Expr>>`: an `Expr` is
/// about 100 bytes, so each per-key B-tree node is an allocation of more
/// than a kilobyte — past the allocator's small-size cache, and about two
/// per predicate on every clone, build and drop. The checker clones,
/// builds and drops these sets on every proof row; a vector clones with
/// one allocation per index. The reverse index holds 4-byte positions
/// rather than a second copy of every 208-byte pair.
///
/// Iteration order is unchanged from the flat-set representation:
/// `Pred::Lessdef` is the first enum variant, so the old `BTreeSet<Pred>`
/// yielded all lessdefs (sorted by `(lhs, rhs)`) before the other
/// predicates — exactly what chaining `fwd` with `others` reproduces.
/// Serialized form is byte-identical (`{"preds": [...]}`).
#[derive(Clone, Default)]
pub struct Unary {
    /// `(lhs, rhs)` for every `lhs ⊒ rhs`, sorted, no duplicates.
    fwd: Vec<(Expr, Expr)>,
    /// Every position of `fwd` once, ordered by the pairs' `(rhs, lhs)`.
    /// Derived data — never compared or serialized.
    rev: Vec<u32>,
    /// Non-lessdef predicates (`Uniq`, `Priv`, `Noalias`).
    others: BTreeSet<Pred>,
}

/// Binary search for the pair `(x, y)` in a sorted pair vector.
fn find_pair(pairs: &[(Expr, Expr)], x: &Expr, y: &Expr) -> Result<usize, usize> {
    pairs.binary_search_by(|(a, b)| a.cmp(x).then_with(|| b.cmp(y)))
}

/// The run of a sorted pair vector whose first component is `x`.
fn pairs_led_by<'a>(pairs: &'a [(Expr, Expr)], x: &Expr) -> &'a [(Expr, Expr)] {
    let start = pairs.partition_point(|(a, _)| a < x);
    let len = pairs[start..].partition_point(|(a, _)| a == x);
    &pairs[start..start + len]
}

/// `fwd[i]` as the `(rhs, lhs)` key the reverse index is ordered by.
fn rev_key(fwd: &[(Expr, Expr)], i: u32) -> (&Expr, &Expr) {
    let (lhs, rhs) = &fwd[i as usize];
    (rhs, lhs)
}

/// A position of `fwd` as the reverse index stores it. A side would need
/// hundreds of gigabytes of pairs to overflow it.
fn position(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 lessdefs in one side")
}

/// Keep the pairs of `fwd` for which `keep` holds, visited in order, and
/// renumber the reverse index `rev` over them: removal does not reorder
/// the pairs that stay, so the surviving positions keep their order.
fn retain_pairs(
    fwd: &mut Vec<(Expr, Expr)>,
    rev: &mut Vec<u32>,
    mut keep: impl FnMut(&Expr, &Expr) -> bool,
) {
    let mut removed: Vec<u32> = Vec::new();
    let mut i = 0;
    fwd.retain(|(a, b)| {
        let kept = keep(a, b);
        if !kept {
            removed.push(i);
        }
        i += 1;
        kept
    });
    if removed.is_empty() {
        return;
    }
    // `removed` is sorted: a surviving position moves down by the number
    // of removed positions below it.
    rev.retain_mut(|p| match removed.binary_search(p) {
        Ok(_) => false,
        Err(below) => {
            *p -= position(below);
            true
        }
    });
}

impl fmt::Debug for Unary {
    /// Prints the reverse index as the `(rhs, lhs)` pairs its positions
    /// stand for, so `{:?}` of an assertion does not depend on how the
    /// index is stored.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rev: Vec<_> = self.rev.iter().map(|&i| rev_key(&self.fwd, i)).collect();
        f.debug_struct("Unary")
            .field("fwd", &self.fwd)
            .field("rev", &rev)
            .field("others", &self.others)
            .finish()
    }
}

impl PartialEq for Unary {
    fn eq(&self, other: &Unary) -> bool {
        // `rev` is derived from `fwd`; comparing it would be redundant.
        self.fwd == other.fwd && self.others == other.others
    }
}

impl Eq for Unary {}

impl Unary {
    /// The empty assertion.
    pub fn new() -> Unary {
        Unary::default()
    }

    /// Insert a predicate.
    pub fn insert(&mut self, p: Pred) {
        match p {
            Pred::Lessdef(a, b) => self.insert_lessdef(a, b),
            other => {
                self.others.insert(other);
            }
        }
    }

    /// Insert `e1 ⊒ e2`.
    pub fn insert_lessdef(&mut self, e1: Expr, e2: Expr) {
        if let Err(i) = find_pair(&self.fwd, &e1, &e2) {
            let j = self
                .find_rev(&e2, &e1)
                .expect_err("rev index in sync with fwd");
            self.fwd.insert(i, (e1, e2));
            let i = position(i);
            for p in &mut self.rev {
                *p += u32::from(*p >= i);
            }
            self.rev.insert(j, i);
        }
    }

    /// Remove a predicate; returns whether it was present.
    pub fn remove(&mut self, p: &Pred) -> bool {
        match p {
            Pred::Lessdef(a, b) => {
                let Ok(i) = find_pair(&self.fwd, a, b) else {
                    return false;
                };
                let j = self.find_rev(b, a).expect("rev index in sync with fwd");
                self.fwd.remove(i);
                self.rev.remove(j);
                let i = position(i);
                for p in &mut self.rev {
                    *p -= u32::from(*p > i);
                }
                true
            }
            other => self.others.remove(other),
        }
    }

    /// Binary search of the reverse index for the pair `rhs`, `lhs`.
    fn find_rev(&self, rhs: &Expr, lhs: &Expr) -> Result<usize, usize> {
        self.rev.binary_search_by(|&i| {
            let (b, a) = rev_key(&self.fwd, i);
            b.cmp(rhs).then_with(|| a.cmp(lhs))
        })
    }

    /// Rebuild the reverse index from `fwd` after a bulk edit.
    fn rebuild_rev(&mut self) {
        let fwd = &self.fwd;
        self.rev.clear();
        self.rev.extend(0..position(fwd.len()));
        self.rev
            .sort_unstable_by(|&x, &y| rev_key(fwd, x).cmp(&rev_key(fwd, y)));
    }

    /// Does the set contain `p` (syntactically, plus lessdef reflexivity)?
    pub fn holds(&self, p: &Pred) -> bool {
        match p {
            Pred::Lessdef(a, b) => self.has_lessdef(a, b),
            other => self.others.contains(other),
        }
    }

    /// Does `e1 ⊒ e2` hold (syntactically or by reflexivity)?
    pub fn has_lessdef(&self, e1: &Expr, e2: &Expr) -> bool {
        e1 == e2 || find_pair(&self.fwd, e1, e2).is_ok()
    }

    /// Iterate over all predicates, in the same order the flat
    /// `BTreeSet<Pred>` representation used (lessdefs sorted by
    /// `(lhs, rhs)`, then the rest). Yields owned predicates; the hot
    /// paths iterate by reference (`lessdefs`, `others`) or use the keyed
    /// accessors instead.
    pub fn iter(&self) -> impl Iterator<Item = Pred> + '_ {
        self.lessdefs()
            .map(|(a, b)| Pred::Lessdef(a.clone(), b.clone()))
            .chain(self.others.iter().cloned())
    }

    /// Iterate over lessdef pairs (sorted by `(lhs, rhs)`).
    pub fn lessdefs(&self) -> impl Iterator<Item = (&Expr, &Expr)> {
        self.fwd.iter().map(|(a, b)| (a, b))
    }

    /// Iterate over the non-lessdef predicates (`Uniq` / `Priv` /
    /// `Noalias`) by reference, in iteration order.
    pub(crate) fn others(&self) -> impl Iterator<Item = &Pred> {
        self.others.iter()
    }

    /// Everything `e` such that `lhs ⊒ e` is present (keyed lookup).
    pub fn lessdef_rhs_of(&self, lhs: &Expr) -> Vec<&Expr> {
        self.lessdef_rhs_iter(lhs).collect()
    }

    /// [`Unary::lessdef_rhs_of`] by reference, without collecting.
    pub(crate) fn lessdef_rhs_iter<'a>(
        &'a self,
        lhs: &Expr,
    ) -> impl Iterator<Item = &'a Expr> + 'a {
        pairs_led_by(&self.fwd, lhs).iter().map(|(_, rhs)| rhs)
    }

    /// Everything `e` such that `e ⊒ rhs` is present (keyed lookup on the
    /// reverse index).
    pub fn lessdef_lhs_of(&self, rhs: &Expr) -> Vec<&Expr> {
        let start = self.rev.partition_point(|&i| rev_key(&self.fwd, i).0 < rhs);
        self.rev[start..]
            .iter()
            .map(|&i| rev_key(&self.fwd, i))
            .take_while(|(b, _)| *b == rhs)
            .map(|(_, lhs)| lhs)
            .collect()
    }

    /// Is `Uniq(r)` present?
    pub fn has_uniq(&self, r: RegId) -> bool {
        self.others.contains(&Pred::Uniq(r))
    }

    /// Is `Priv(r)` (or the stronger `Uniq`) present for a tagged register?
    pub fn has_priv(&self, r: &TReg) -> bool {
        if self.others.contains(&Pred::Priv(r.clone())) {
            return true;
        }
        match r {
            TReg::Phy(p) => self.others.contains(&Pred::Uniq(*p)),
            _ => false,
        }
    }

    /// Does any predicate mention tagged register `r`? Clone-free
    /// replacement for `iter().any(|p| p.mentions(r))`.
    pub fn mentions_reg(&self, r: &TReg) -> bool {
        self.lessdefs().any(|(a, b)| a.mentions(r) || b.mentions(r))
            || self.others.iter().any(|p| p.mentions(r))
    }

    /// Visit every tagged register a predicate mentions (with repeats):
    /// `r` is visited iff [`Unary::mentions_reg`] holds for it.
    pub(crate) fn for_each_reg(&self, mut f: impl FnMut(&TReg)) {
        let visit = |v: &TValue, f: &mut dyn FnMut(&TReg)| {
            if let TValue::Reg(r) = v {
                f(r);
            }
        };
        for (a, b) in self.lessdefs() {
            a.for_each_value(|v| visit(v, &mut f));
            b.for_each_value(|v| visit(v, &mut f));
        }
        for p in &self.others {
            match p {
                Pred::Lessdef(a, b) => {
                    a.for_each_value(|v| visit(v, &mut f));
                    b.for_each_value(|v| visit(v, &mut f));
                }
                Pred::Uniq(u) => f(&TReg::Phy(*u)),
                Pred::Priv(r) => f(r),
                Pred::Noalias(a, b) => {
                    visit(a, &mut f);
                    visit(b, &mut f);
                }
            }
        }
    }

    /// Remove every predicate mentioning tagged register `r`; returns the
    /// number removed.
    pub fn kill_reg(&mut self, r: &TReg) -> usize {
        let before = self.len();
        retain_pairs(&mut self.fwd, &mut self.rev, |a, b| {
            !a.mentions(r) && !b.mentions(r)
        });
        self.others.retain(|p| !p.mentions(r));
        before - self.len()
    }

    /// Retain only predicates satisfying `keep` (visited in iteration
    /// order: lessdefs first, then the rest).
    pub fn retain(&mut self, mut keep: impl FnMut(&Pred) -> bool) {
        self.retain_lessdefs(|_, a, b| keep(&Pred::Lessdef(a.clone(), b.clone())));
        self.others.retain(keep);
    }

    /// Retain only the lessdefs `a ⊒ b` for which `keep(rest, a, b)`
    /// holds, visited in iteration order. `rest` is this set with its
    /// lessdefs detached: just the `Uniq` / `Priv` / `Noalias` predicates,
    /// which this never removes, so alias queries such as
    /// [`Unary::provably_disjoint`] and [`Unary::has_priv`] can be asked
    /// mid-pass without snapshotting the set.
    pub(crate) fn retain_lessdefs(&mut self, mut keep: impl FnMut(&Unary, &Expr, &Expr) -> bool) {
        let mut fwd = std::mem::take(&mut self.fwd);
        let mut rev = std::mem::take(&mut self.rev);
        let rest: &Unary = self;
        retain_pairs(&mut fwd, &mut rev, |a, b| keep(rest, a, b));
        self.fwd = fwd;
        self.rev = rev;
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.fwd.len() + self.others.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty() && self.others.is_empty()
    }

    /// Set inclusion: does `self` contain every predicate of `other`
    /// (modulo lessdef reflexivity)?
    pub fn includes(&self, other: &Unary) -> bool {
        other.lessdefs().all(|(a, b)| self.has_lessdef(a, b))
            && other.others.iter().all(|p| self.others.contains(p))
    }

    /// The first predicate of `other` missing from `self`, for diagnostics.
    pub fn first_missing(&self, other: &Unary) -> Option<Pred> {
        for (a, b) in other.lessdefs() {
            if !self.has_lessdef(a, b) {
                return Some(Pred::Lessdef(a.clone(), b.clone()));
            }
        }
        other
            .others
            .iter()
            .find(|p| !self.others.contains(*p))
            .cloned()
    }

    /// Can we conclude that the addresses in `p` and `q` are disjoint?
    ///
    /// True when a `Noalias` fact is present, or when one of them is `Uniq`
    /// and the other is a *different* physical register or a constant
    /// (paper §H.2 `PruneU`).
    pub fn provably_disjoint(&self, p: &TValue, q: &TValue) -> bool {
        if self.others.contains(&Pred::Noalias(p.clone(), q.clone()))
            || self.others.contains(&Pred::Noalias(q.clone(), p.clone()))
        {
            return true;
        }
        let uniq_of = |v: &TValue| match v {
            TValue::Reg(TReg::Phy(r)) => self.has_uniq(*r),
            _ => false,
        };
        let other_ok = |v: &TValue| matches!(v, TValue::Reg(TReg::Phy(_)) | TValue::Const(_));
        (uniq_of(p) && other_ok(q) && p != q) || (uniq_of(q) && other_ok(p) && p != q)
    }
}

impl FromIterator<Pred> for Unary {
    fn from_iter<I: IntoIterator<Item = Pred>>(iter: I) -> Unary {
        let mut u = Unary::new();
        u.extend(iter);
        u
    }
}

impl Extend<Pred> for Unary {
    /// Appends every lessdef, then sorts and dedups the pairs and rebuilds
    /// the reverse index once: a bulk build costs O(n log n), where an
    /// ordered insert per predicate would shift the vectors O(n²) times.
    fn extend<I: IntoIterator<Item = Pred>>(&mut self, iter: I) {
        let before = self.fwd.len();
        for p in iter {
            match p {
                Pred::Lessdef(a, b) => self.fwd.push((a, b)),
                other => {
                    self.others.insert(other);
                }
            }
        }
        if self.fwd.len() != before {
            self.fwd.sort();
            self.fwd.dedup();
            self.rebuild_rev();
        }
    }
}

impl fmt::Display for Unary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<String> = self.iter().map(|p| p.to_string()).collect();
        write!(f, "{{ {} }}", items.join(", "))
    }
}

/// Serializes the predicates of a [`Unary`] as a sequence, in iteration
/// order — the same order the old `BTreeSet<Pred>` field produced.
struct PredSeq<'a>(&'a Unary);

impl Serialize for PredSeq<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for (a, b) in self.0.lessdefs() {
            seq.serialize_element(&LessdefRef(a, b))?;
        }
        for p in self.0.others() {
            seq.serialize_element(p)?;
        }
        seq.end()
    }
}

/// `Pred::Lessdef(a, b)` by reference: serializes exactly as the derived
/// impl does for that variant (index 0, two fields), without cloning.
struct LessdefRef<'a>(&'a Expr, &'a Expr);

impl Serialize for LessdefRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut v = serializer.serialize_tuple_variant("Pred", 0, "Lessdef", 2)?;
        v.serialize_field(self.0)?;
        v.serialize_field(self.1)?;
        v.end()
    }
}

// The wire shape must stay exactly what `#[derive(Serialize, Deserialize)]`
// produced for `struct Unary { preds: BTreeSet<Pred> }`: a one-field struct
// (`{"preds": [...]}` in JSON, a positional 1-tuple in the binary codec).
impl Serialize for Unary {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Unary", 1)?;
        st.serialize_field("preds", &PredSeq(self))?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Unary {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Unary, D::Error> {
        struct UnaryVisitor;

        impl<'de> Visitor<'de> for UnaryVisitor {
            type Value = Unary;

            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("struct Unary")
            }

            // Positional form (the binary codec decodes structs as tuples).
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Unary, A::Error> {
                let preds: Vec<Pred> = seq
                    .next_element()?
                    .ok_or_else(|| de::Error::missing_field("preds"))?;
                Ok(preds.into_iter().collect())
            }

            // Keyed form (JSON), unknown keys skipped.
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Unary, A::Error> {
                let mut preds: Option<Vec<Pred>> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "preds" => preds = Some(map.next_value()?),
                        _ => {
                            map.next_value::<de::IgnoredAny>()?;
                        }
                    }
                }
                let preds = preds.ok_or_else(|| de::Error::missing_field("preds"))?;
                Ok(preds.into_iter().collect())
            }
        }

        deserializer.deserialize_struct("Unary", &["preds"], UnaryVisitor)
    }
}

/// A set of tagged registers, the maydiff set's type: a sorted,
/// duplicate-free vector.
///
/// A maydiff set holds a handful of registers (5.9 on average over the
/// proof slots of the `opt` benchmark corpus; most are empty) and is
/// cloned with every proof row, so one flat allocation beats a B-tree's
/// nodes. It iterates, compares,
/// prints (`{:?}`) and serializes exactly as the `BTreeSet<TReg>` it
/// replaced: a sequence in ascending order. Decoding sorts and dedups
/// whatever arrives, as inserting into a `BTreeSet` did.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RegSet(Vec<TReg>);

impl RegSet {
    /// The empty set.
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Is `r` in the set?
    pub fn contains(&self, r: &TReg) -> bool {
        self.0.binary_search(r).is_ok()
    }

    /// Insert `r`; returns whether it was absent.
    pub fn insert(&mut self, r: TReg) -> bool {
        match self.0.binary_search(&r) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, r);
                true
            }
        }
    }

    /// Remove `r`; returns whether it was present.
    pub fn remove(&mut self, r: &TReg) -> bool {
        match self.0.binary_search(r) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The registers in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, TReg> {
        self.0.iter()
    }

    /// The registers in ascending order, as a slice.
    pub fn as_slice(&self) -> &[TReg] {
        &self.0
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Is every register of `self` in `other`? One merge over both.
    pub fn is_subset(&self, other: &RegSet) -> bool {
        let mut theirs = other.0.iter();
        self.0
            .iter()
            .all(|r| theirs.by_ref().find(|t| *t >= r) == Some(r))
    }

    /// Keep the registers for which `keep` holds, visited in order.
    pub fn retain(&mut self, keep: impl FnMut(&TReg) -> bool) {
        self.0.retain(keep);
    }
}

impl FromIterator<TReg> for RegSet {
    /// Sorts and dedups only when the registers arrive out of order.
    fn from_iter<I: IntoIterator<Item = TReg>>(iter: I) -> RegSet {
        let mut regs: Vec<TReg> = iter.into_iter().collect();
        if !regs.is_sorted_by(|a, b| a < b) {
            regs.sort_unstable();
            regs.dedup();
        }
        RegSet(regs)
    }
}

impl<'a> IntoIterator for &'a RegSet {
    type Item = &'a TReg;
    type IntoIter = std::slice::Iter<'a, TReg>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Serialize for RegSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for r in self {
            seq.serialize_element(r)?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for RegSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<RegSet, D::Error> {
        struct RegSetVisitor;

        impl<'de> Visitor<'de> for RegSetVisitor {
            type Value = RegSet;

            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a sequence")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<RegSet, A::Error> {
                let mut regs = Vec::new();
                while let Some(r) = seq.next_element()? {
                    regs.push(r);
                }
                Ok(regs.into_iter().collect())
            }
        }

        deserializer.deserialize_seq(RegSetVisitor)
    }
}

/// A full ERHL assertion: source predicates, target predicates, and the
/// maydiff set (the only relational component, §2.2).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Assertion {
    /// Predicates over the source state.
    pub src: Unary,
    /// Predicates over the target state.
    pub tgt: Unary,
    /// Registers that may hold different values in source and target;
    /// everything *not* in this set is equal across sides.
    pub maydiff: RegSet,
}

impl Assertion {
    /// The trivial assertion `{ MD(∅) }`.
    pub fn new() -> Assertion {
        Assertion::default()
    }

    /// Access the unary assertion of a side.
    pub fn side(&self, s: Side) -> &Unary {
        match s {
            Side::Src => &self.src,
            Side::Tgt => &self.tgt,
        }
    }

    /// Access the unary assertion of a side, mutably.
    pub fn side_mut(&mut self, s: Side) -> &mut Unary {
        match s {
            Side::Src => &mut self.src,
            Side::Tgt => &mut self.tgt,
        }
    }

    /// Is the tagged register in the maydiff set?
    pub fn in_maydiff(&self, r: &TReg) -> bool {
        self.maydiff.contains(r)
    }

    /// Add a register to the maydiff set.
    pub fn add_maydiff(&mut self, r: impl Into<TReg>) {
        self.maydiff.insert(r.into());
    }

    /// Remove a register from the maydiff set; returns whether present.
    pub fn remove_maydiff(&mut self, r: &TReg) -> bool {
        self.maydiff.remove(r)
    }

    /// Is every register of the expression outside the maydiff set?
    pub fn expr_injected(&self, e: &Expr) -> bool {
        !e.any_reg(|r| self.maydiff.contains(r))
    }

    /// The `x_src ∼ y_tgt` check of Algorithm 4: are a source value and a
    /// target value provably equivalent under this assertion?
    ///
    /// Cases covered (each a sound instance of the paper's `∼_P`):
    /// 1. identical values whose registers are not in the maydiff set;
    /// 2. `(x ⊒ z) ∈ src` with `z` injected and `z == y`;
    /// 3. `x` injected and `(x' == x) ⊒ y ∈ tgt`;
    /// 4. the ghost hop: `(x ⊒ z) ∈ src`, `(z ⊒ y) ∈ tgt`, `z` injected
    ///    (this is how ghost registers mediate relational facts, §3.2).
    pub fn values_equivalent(&self, x: &TValue, y: &TValue) -> bool {
        let ex = Expr::Value(x.clone());
        let ey = Expr::Value(y.clone());
        self.exprs_equivalent_flat(&ex, &ey)
    }

    /// `e_src ∼ e'_tgt` for whole expressions: either the flat
    /// (lessdef-hop) check, or same shape with pairwise-equivalent
    /// operands.
    pub fn exprs_equivalent(&self, e: &Expr, e2: &Expr) -> bool {
        if self.exprs_equivalent_flat(e, e2) {
            return true;
        }
        if e.same_shape(e2) {
            let (ops1, ops2) = (e.operands(), e2.operands());
            if ops1.len() == ops2.len()
                && ops1
                    .iter()
                    .zip(&ops2)
                    .all(|(a, b)| self.values_equivalent(a, b))
            {
                return true;
            }
        }
        false
    }

    fn exprs_equivalent_flat(&self, e: &Expr, e2: &Expr) -> bool {
        // S = {e} ∪ {z : (e ⊒ z) ∈ src};  T = {e2} ∪ {z : (z ⊒ e2) ∈ tgt}.
        // Equivalent if S and T share an element that is injected; `z ∈ T`
        // is exactly `tgt.has_lessdef(z, e2)`.
        std::iter::once(e)
            .chain(self.src.lessdef_rhs_iter(e))
            .any(|z| self.tgt.has_lessdef(z, e2) && self.expr_injected(z))
    }

    /// Inclusion check `CheckIncl(Q, Q')` (paper Fig 4, rule Incl):
    /// `self ⇒ other` when `other`'s predicates are a subset of `self`'s
    /// (modulo lessdef reflexivity) and `self`'s maydiff is a subset of
    /// `other`'s.
    pub fn implies(&self, other: &Assertion) -> bool {
        self.src.includes(&other.src)
            && self.tgt.includes(&other.tgt)
            && self.maydiff.is_subset(&other.maydiff)
    }

    /// Human-readable explanation of why `self ⇏ other` (for validation
    /// failure reports); `None` if the implication holds.
    pub fn why_not_implies(&self, other: &Assertion) -> Option<String> {
        if let Some(p) = self.src.first_missing(&other.src) {
            return Some(format!("source predicate not derivable: {p}"));
        }
        if let Some(p) = self.tgt.first_missing(&other.tgt) {
            return Some(format!("target predicate not derivable: {p}"));
        }
        if let Some(r) = self.maydiff.iter().find(|r| !other.maydiff.contains(r)) {
            return Some(format!(
                "register {r} may differ but the goal requires it equal"
            ));
        }
        None
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let md: Vec<String> = self.maydiff.iter().map(TReg::to_string).collect();
        write!(
            f,
            "src {} | tgt {} | MD({})",
            self.src,
            self.tgt,
            md.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crellvm_ir::{BinOp, Type};
    use proptest::prelude::*;

    fn r(i: usize) -> RegId {
        RegId::from_index(i)
    }

    fn ld(a: Expr, b: Expr) -> Pred {
        Pred::Lessdef(a, b)
    }

    #[test]
    fn reflexive_lessdef_always_holds() {
        let u = Unary::new();
        let e = Expr::value(TValue::phy(r(0)));
        assert!(u.has_lessdef(&e, &e));
        assert!(u.holds(&ld(e.clone(), e)));
    }

    #[test]
    fn kill_reg_removes_mentions() {
        let mut u = Unary::new();
        u.insert(ld(
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::int(Type::I32, 1)),
        ));
        u.insert(ld(
            Expr::value(TValue::phy(r(1))),
            Expr::value(TValue::phy(r(0))),
        ));
        u.insert(Pred::Uniq(r(0)));
        u.insert(Pred::Uniq(r(2)));
        assert_eq!(u.kill_reg(&TReg::Phy(r(0))), 3);
        assert_eq!(u.len(), 1);
        assert!(u.has_uniq(r(2)));
    }

    #[test]
    fn uniq_implies_priv_and_disjointness() {
        let mut u = Unary::new();
        u.insert(Pred::Uniq(r(0)));
        assert!(u.has_priv(&TReg::Phy(r(0))));
        assert!(!u.has_priv(&TReg::Phy(r(1))));
        assert!(u.provably_disjoint(&TValue::phy(r(0)), &TValue::phy(r(1))));
        assert!(u.provably_disjoint(&TValue::phy(r(1)), &TValue::phy(r(0))));
        // A register is never disjoint from itself.
        assert!(!u.provably_disjoint(&TValue::phy(r(0)), &TValue::phy(r(0))));
        // Ghosts are not "other physical values".
        assert!(!u.provably_disjoint(&TValue::phy(r(0)), &TValue::ghost("g")));
    }

    #[test]
    fn noalias_gives_disjointness_symmetrically() {
        let mut u = Unary::new();
        u.insert(Pred::Noalias(TValue::phy(r(3)), TValue::phy(r(4))));
        assert!(u.provably_disjoint(&TValue::phy(r(3)), &TValue::phy(r(4))));
        assert!(u.provably_disjoint(&TValue::phy(r(4)), &TValue::phy(r(3))));
    }

    #[test]
    fn maydiff_equivalence_basics() {
        let mut a = Assertion::new();
        // Same register, not in maydiff: equivalent.
        assert!(a.values_equivalent(&TValue::phy(r(0)), &TValue::phy(r(0))));
        a.add_maydiff(TReg::Phy(r(0)));
        assert!(!a.values_equivalent(&TValue::phy(r(0)), &TValue::phy(r(0))));
        // Constants are always equivalent to themselves.
        assert!(a.values_equivalent(&TValue::int(Type::I32, 7), &TValue::int(Type::I32, 7)));
        assert!(!a.values_equivalent(&TValue::int(Type::I32, 7), &TValue::int(Type::I32, 8)));
    }

    #[test]
    fn equivalence_through_src_lessdef() {
        // x ⊒ 42 in src licenses x_src ∼ 42_tgt.
        let mut a = Assertion::new();
        a.add_maydiff(TReg::Phy(r(0)));
        a.src.insert_lessdef(
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::int(Type::I32, 42)),
        );
        assert!(a.values_equivalent(&TValue::phy(r(0)), &TValue::int(Type::I32, 42)));
        assert!(!a.values_equivalent(&TValue::phy(r(0)), &TValue::int(Type::I32, 41)));
    }

    #[test]
    fn equivalence_through_ghost_hop() {
        // The mem2reg pattern: b ⊒ b̂ in src, b̂ ⊒ p1 in tgt, b̂ ∉ MD.
        let mut a = Assertion::new();
        a.add_maydiff(TReg::Phy(r(0))); // b
        a.add_maydiff(TReg::Phy(r(1))); // p1
        a.src.insert_lessdef(
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::ghost("b")),
        );
        a.tgt.insert_lessdef(
            Expr::value(TValue::ghost("b")),
            Expr::value(TValue::phy(r(1))),
        );
        assert!(a.values_equivalent(&TValue::phy(r(0)), &TValue::phy(r(1))));
        // If the ghost itself may differ, the hop is invalid.
        a.add_maydiff(TReg::ghost("b"));
        assert!(!a.values_equivalent(&TValue::phy(r(0)), &TValue::phy(r(1))));
    }

    #[test]
    fn expr_equivalence_shapewise() {
        let mut a = Assertion::new();
        a.add_maydiff(TReg::Phy(r(1)));
        a.src.insert_lessdef(
            Expr::value(TValue::phy(r(1))),
            Expr::value(TValue::ghost("v")),
        );
        a.tgt.insert_lessdef(
            Expr::value(TValue::ghost("v")),
            Expr::value(TValue::phy(r(1))),
        );
        let e1 = Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::phy(r(1)));
        let e2 = Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::phy(r(1)));
        assert!(a.exprs_equivalent(&e1, &e2));
        let e3 = Expr::bin(BinOp::Sub, Type::I32, TValue::phy(r(0)), TValue::phy(r(1)));
        assert!(!a.exprs_equivalent(&e1, &e3));
    }

    /// Satellite check: the keyed `lessdef_rhs_of` / `lessdef_lhs_of`
    /// lookups must agree (contents *and* order) with the naive linear
    /// scan over all predicates that they replaced.
    #[test]
    fn lessdef_indexes_agree_with_naive_scan() {
        let mut u = Unary::new();
        let e = |i: usize| Expr::value(TValue::phy(r(i)));
        let c = |v: i64| Expr::value(TValue::int(Type::I32, v));
        // Several lhs with multiple rhs each, plus shared rhs across lhs.
        for (a, b) in [
            (e(0), c(1)),
            (e(0), e(2)),
            (e(0), Expr::value(TValue::ghost("g"))),
            (e(1), e(2)),
            (e(1), c(1)),
            (e(3), e(0)),
            (
                Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::phy(r(1))),
                e(2),
            ),
        ] {
            u.insert_lessdef(a, b);
        }
        u.insert(Pred::Uniq(r(5)));
        u.insert(Pred::Priv(TReg::ghost("p")));

        let all: Vec<Pred> = u.iter().collect();
        let naive_rhs = |lhs: &Expr| -> Vec<Expr> {
            all.iter()
                .filter_map(|p| match p {
                    Pred::Lessdef(a, b) if a == lhs => Some(b.clone()),
                    _ => None,
                })
                .collect()
        };
        let naive_lhs = |rhs: &Expr| -> Vec<Expr> {
            all.iter()
                .filter_map(|p| match p {
                    Pred::Lessdef(a, b) if b == rhs => Some(a.clone()),
                    _ => None,
                })
                .collect()
        };
        for probe in [
            e(0),
            e(1),
            e(2),
            e(3),
            c(1),
            Expr::value(TValue::ghost("g")),
            e(9),
        ] {
            let keyed: Vec<Expr> = u.lessdef_rhs_of(&probe).into_iter().cloned().collect();
            assert_eq!(keyed, naive_rhs(&probe), "rhs_of({probe})");
            let keyed: Vec<Expr> = u.lessdef_lhs_of(&probe).into_iter().cloned().collect();
            assert_eq!(keyed, naive_lhs(&probe), "lhs_of({probe})");
        }
    }

    /// The decomposed storage must iterate in the exact order of the old
    /// flat `BTreeSet<Pred>` (lessdefs sorted by `(lhs, rhs)` first, then
    /// the rest) — serialized proofs depend on it.
    #[test]
    fn iteration_order_matches_flat_set() {
        let preds = vec![
            Pred::Noalias(TValue::phy(r(0)), TValue::phy(r(1))),
            Pred::Lessdef(
                Expr::value(TValue::phy(r(2))),
                Expr::value(TValue::phy(r(0))),
            ),
            Pred::Uniq(r(7)),
            Pred::Lessdef(
                Expr::value(TValue::phy(r(0))),
                Expr::value(TValue::ghost("a")),
            ),
            Pred::Priv(TReg::Phy(r(3))),
            Pred::Lessdef(
                Expr::value(TValue::phy(r(0))),
                Expr::value(TValue::phy(r(1))),
            ),
        ];
        let flat: BTreeSet<Pred> = preds.iter().cloned().collect();
        let u: Unary = preds.into_iter().collect();
        let got: Vec<Pred> = u.iter().collect();
        let want: Vec<Pred> = flat.into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(u.len(), want.len());
    }

    /// Removing a lessdef must keep the reverse index in sync.
    #[test]
    fn remove_keeps_reverse_index_in_sync() {
        let mut u = Unary::new();
        let a = Expr::value(TValue::phy(r(0)));
        let b = Expr::value(TValue::phy(r(1)));
        let g = Expr::value(TValue::ghost("g"));
        u.insert_lessdef(a.clone(), g.clone());
        u.insert_lessdef(b.clone(), g.clone());
        assert_eq!(u.lessdef_lhs_of(&g), vec![&a, &b]);
        assert!(u.remove(&Pred::Lessdef(a.clone(), g.clone())));
        assert!(!u.remove(&Pred::Lessdef(a.clone(), g.clone())));
        assert_eq!(u.lessdef_lhs_of(&g), vec![&b]);
        assert!(u.remove(&Pred::Lessdef(b, g.clone())));
        assert!(u.lessdef_lhs_of(&g).is_empty());
        assert!(u.is_empty());
    }

    /// The flat reference model: the `BTreeSet<Pred>` representation
    /// `Unary` replaced, with the derived wire shape it had.
    mod flat {
        use super::Pred;
        use serde::Serialize;
        use std::collections::BTreeSet;

        #[derive(Serialize)]
        pub struct Unary {
            pub preds: BTreeSet<Pred>,
        }
    }

    /// A small pool of expressions, so random predicates collide often.
    fn expr_pool() -> Vec<Expr> {
        vec![
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::phy(r(1))),
            Expr::value(TValue::phy(r(2))),
            Expr::value(TValue::ghost("g")),
            Expr::value(TValue::old(r(1))),
            Expr::value(TValue::int(Type::I32, 1)),
            Expr::bin(BinOp::Add, Type::I32, TValue::phy(r(0)), TValue::phy(r(1))),
            Expr::load(Type::I32, TValue::phy(r(2))),
            Expr::undef(Type::I32),
        ]
    }

    fn reg_pool() -> Vec<TReg> {
        vec![
            TReg::Phy(r(0)),
            TReg::Phy(r(1)),
            TReg::Phy(r(2)),
            TReg::ghost("g"),
            TReg::Old(r(1)),
        ]
    }

    /// Any predicate kind, chosen by `kind`, over pool indices `i`, `j`.
    fn pred_of(kind: usize, i: usize, j: usize) -> Pred {
        let (exprs, regs) = (expr_pool(), reg_pool());
        let value = |k: usize| match &exprs[k] {
            Expr::Value(v) => v.clone(),
            _ => TValue::Const(crellvm_ir::Const::Null),
        };
        match kind % 4 {
            0 => Pred::Lessdef(exprs[i].clone(), exprs[j].clone()),
            1 => Pred::Uniq(r(i % 3)),
            2 => Pred::Priv(regs[i % regs.len()].clone()),
            _ => Pred::Noalias(value(i), value(j)),
        }
    }

    /// A deterministic pseudo-random keep/drop decision per predicate.
    fn keeps(p: &Pred, seed: usize) -> bool {
        let mut h = seed as u64 ^ 0xcbf2_9ce4_8422_2325;
        for b in p.to_string().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        !h.is_multiple_of(3)
    }

    /// Every observable of `u` agrees with the flat model `m`.
    fn agrees(u: &Unary, m: &BTreeSet<Pred>) -> Result<(), TestCaseError> {
        let flat: Vec<Pred> = m.iter().cloned().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), flat.clone());
        prop_assert_eq!(u.len(), m.len());
        prop_assert_eq!(u.is_empty(), m.is_empty());
        let pool = expr_pool();
        for x in &pool {
            for y in &pool {
                let held = x == y || m.contains(&Pred::Lessdef(x.clone(), y.clone()));
                prop_assert_eq!(u.has_lessdef(x, y), held);
            }
            let rhs: Vec<&Expr> = flat
                .iter()
                .filter_map(|p| match p {
                    Pred::Lessdef(a, b) if a == x => Some(b),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(u.lessdef_rhs_of(x), rhs.clone());
            prop_assert_eq!(u.lessdef_rhs_iter(x).collect::<Vec<_>>(), rhs);
            let mut lhs: Vec<&Expr> = flat
                .iter()
                .filter_map(|p| match p {
                    Pred::Lessdef(a, b) if b == x => Some(a),
                    _ => None,
                })
                .collect();
            lhs.sort();
            prop_assert_eq!(u.lessdef_lhs_of(x), lhs);
        }
        let model = flat::Unary { preds: m.clone() };
        let json = serde_json::to_string(u).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&model).unwrap());
        let v2 = crate::serialize_bin::to_bytes_v2(u).unwrap();
        prop_assert_eq!(&v2, &crate::serialize_bin::to_bytes_v2(&model).unwrap());
        prop_assert_eq!(&serde_json::from_str::<Unary>(&json).unwrap(), u);
        prop_assert_eq!(
            &crate::serialize_bin::from_bytes_v2::<Unary>(&v2).unwrap(),
            u
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Trusted-base reference check: random sequences of every
        /// mutating operation, applied to two `Unary` values and to two
        /// flat `BTreeSet<Pred>` models, must agree after every step on
        /// iteration order, length, the keyed lessdef lookups, inclusion,
        /// the first missing predicate, equality, and the JSON and v2
        /// bytes.
        #[test]
        fn unary_agrees_with_flat_model(
            ops in proptest::collection::vec((0usize..8, 0usize..9, 0usize..9, 0usize..2, 0usize..64), 1..40)
        ) {
            let mut units = [Unary::new(), Unary::new()];
            let mut models = [BTreeSet::new(), BTreeSet::new()];
            for (op, i, j, which, seed) in ops {
                let (u, m) = (&mut units[which], &mut models[which]);
                match op {
                    0 | 1 => {
                        let pool = expr_pool();
                        u.insert_lessdef(pool[i].clone(), pool[j].clone());
                        m.insert(Pred::Lessdef(pool[i].clone(), pool[j].clone()));
                    }
                    2 => {
                        let p = pred_of(seed, i, j);
                        u.insert(p.clone());
                        m.insert(p);
                    }
                    3 => {
                        let p = pred_of(seed, i, j);
                        prop_assert_eq!(u.remove(&p), m.remove(&p));
                    }
                    4 => {
                        let reg = &reg_pool()[i % 5];
                        let before = m.len();
                        m.retain(|p| !p.mentions(reg));
                        prop_assert_eq!(u.kill_reg(reg), before - m.len());
                    }
                    5 => {
                        let mut visited = Vec::new();
                        u.retain(|p| {
                            visited.push(p.clone());
                            keeps(p, seed)
                        });
                        prop_assert_eq!(&visited, &m.iter().cloned().collect::<Vec<_>>());
                        m.retain(|p| keeps(p, seed));
                    }
                    6 => {
                        let others = m.len() - m.iter().filter(|p| matches!(p, Pred::Lessdef(..))).count();
                        u.retain_lessdefs(|rest, a, b| {
                            assert_eq!(rest.len(), others, "rest holds the others only");
                            keeps(&Pred::Lessdef(a.clone(), b.clone()), seed)
                        });
                        m.retain(|p| !matches!(p, Pred::Lessdef(..)) || keeps(p, seed));
                    }
                    _ => {
                        let preds: Vec<Pred> = (0..=seed % 6).map(|k| pred_of(seed + k, (i + k) % 9, (j + 2 * k) % 9)).collect();
                        u.extend(preds.iter().cloned());
                        m.extend(preds);
                    }
                }
                for (u, m) in units.iter().zip(&models) {
                    agrees(u, m)?;
                }
                let [a, b] = &units;
                let [ma, mb] = &models;
                let missing = mb
                    .iter()
                    .find(|p| !matches!(p, Pred::Lessdef(x, y) if x == y) && !ma.contains(*p))
                    .cloned();
                prop_assert_eq!(a.includes(b), missing.is_none());
                prop_assert_eq!(a.first_missing(b), missing);
                prop_assert_eq!(a == b, ma == mb);
            }
        }
    }

    /// The reverse index holds every position of `fwd` once, ordered by
    /// the pairs' `(rhs, lhs)`, and `lessdef_lhs_of` agrees with a scan of
    /// the lessdefs.
    fn index_in_sync(u: &Unary) -> Result<(), TestCaseError> {
        prop_assert_eq!(u.rev.len(), u.fwd.len());
        prop_assert!(u.rev.iter().all(|&i| (i as usize) < u.fwd.len()));
        prop_assert!(u
            .rev
            .windows(2)
            .all(|w| rev_key(&u.fwd, w[0]) < rev_key(&u.fwd, w[1])));
        for x in &expr_pool() {
            let scan: Vec<&Expr> = u
                .lessdefs()
                .filter(|(_, b)| *b == x)
                .map(|(a, _)| a)
                .collect();
            prop_assert_eq!(u.lessdef_lhs_of(x), scan);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `Unary`'s position index stays in sync with its pairs through
        /// random sequences of inserts, removals, kills, retains and
        /// bulk extends.
        #[test]
        fn reverse_index_agrees_with_scan(
            ops in proptest::collection::vec((0usize..6, 0usize..9, 0usize..9, 0usize..64), 1..60)
        ) {
            let mut u = Unary::new();
            for (op, i, j, seed) in ops {
                let pool = expr_pool();
                match op {
                    0 | 1 => u.insert_lessdef(pool[i].clone(), pool[j].clone()),
                    2 => {
                        u.remove(&Pred::Lessdef(pool[i].clone(), pool[j].clone()));
                    }
                    3 => {
                        u.kill_reg(&reg_pool()[i % 5]);
                    }
                    4 if seed % 2 == 0 => u.retain(|p| keeps(p, seed)),
                    4 => u.retain_lessdefs(|_, a, b| keeps(&Pred::Lessdef(a.clone(), b.clone()), seed)),
                    _ => u.extend((0..=seed % 7).map(|k| pred_of(seed + k, (i + k) % 9, (j + 3 * k) % 9))),
                }
                index_in_sync(&u)?;
            }
        }

        /// `RegSet` against the `BTreeSet<TReg>` it replaced: membership,
        /// inserts and removals, subset, iteration, `{:?}`, the JSON and
        /// v2 bytes, and decoding of unsorted or duplicated sequences.
        #[test]
        fn regset_agrees_with_btreeset(
            ops in proptest::collection::vec((0usize..4, 0usize..5, 0usize..2), 1..40),
            wire in proptest::collection::vec(0usize..5, 0..12),
        ) {
            let mut sets = [RegSet::new(), RegSet::new()];
            let mut models: [BTreeSet<TReg>; 2] = [BTreeSet::new(), BTreeSet::new()];
            for (op, i, which) in ops {
                let (set, model) = (&mut sets[which], &mut models[which]);
                let reg = reg_pool()[i].clone();
                match op {
                    0 | 1 => prop_assert_eq!(set.insert(reg.clone()), model.insert(reg)),
                    2 => prop_assert_eq!(set.remove(&reg), model.remove(&reg)),
                    _ => prop_assert_eq!(set.contains(&reg), model.contains(&reg)),
                }
                for (set, model) in sets.iter().zip(&models) {
                    prop_assert!(set.iter().eq(model.iter()));
                    prop_assert!(set.into_iter().eq(model));
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                    prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
                    let json = serde_json::to_string(set).unwrap();
                    prop_assert_eq!(&json, &serde_json::to_string(model).unwrap());
                    let v2 = crate::serialize_bin::to_bytes_v2(set).unwrap();
                    prop_assert_eq!(&v2, &crate::serialize_bin::to_bytes_v2(model).unwrap());
                    prop_assert_eq!(&serde_json::from_str::<RegSet>(&json).unwrap(), set);
                    prop_assert_eq!(&crate::serialize_bin::from_bytes_v2::<RegSet>(&v2).unwrap(), set);
                }
                let [a, b] = &sets;
                let [ma, mb] = &models;
                prop_assert_eq!(a.is_subset(b), ma.is_subset(mb));
                prop_assert_eq!(b.is_subset(a), mb.is_subset(ma));
                prop_assert_eq!(a == b, ma == mb);
            }
            // Hostile wire input: any order, any repeats, decodes to the
            // set a `BTreeSet` would have built.
            let pool = reg_pool();
            let regs: Vec<TReg> = wire.into_iter().map(|i| pool[i].clone()).collect();
            let model: BTreeSet<TReg> = regs.iter().cloned().collect();
            let json = serde_json::to_string(&regs).unwrap();
            let set = serde_json::from_str::<RegSet>(&json).unwrap();
            prop_assert!(set.iter().eq(model.iter()));
            let v2 = crate::serialize_bin::to_bytes_v2(&regs).unwrap();
            let set = crate::serialize_bin::from_bytes_v2::<RegSet>(&v2).unwrap();
            prop_assert!(set.iter().eq(model.iter()));
            prop_assert!(regs.into_iter().collect::<RegSet>().iter().eq(model.iter()));
        }
    }

    #[test]
    fn inclusion_and_diagnostics() {
        let mut q = Assertion::new();
        q.src.insert_lessdef(
            Expr::value(TValue::phy(r(0))),
            Expr::value(TValue::int(Type::I32, 1)),
        );
        let mut goal = Assertion::new();
        assert!(q.implies(&goal));
        goal.src.insert_lessdef(
            Expr::value(TValue::phy(r(9))),
            Expr::value(TValue::int(Type::I32, 2)),
        );
        assert!(!q.implies(&goal));
        assert!(q
            .why_not_implies(&goal)
            .unwrap()
            .contains("source predicate"));

        // Maydiff direction: smaller maydiff implies larger.
        let mut q2 = Assertion::new();
        let mut goal2 = Assertion::new();
        goal2.add_maydiff(TReg::Phy(r(0)));
        assert!(q2.implies(&goal2));
        q2.add_maydiff(TReg::Phy(r(1)));
        assert!(!q2.implies(&goal2));
        assert!(q2.why_not_implies(&goal2).unwrap().contains("may differ"));
    }
}
