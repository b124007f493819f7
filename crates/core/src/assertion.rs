//! ERHL assertions: predicates, unary assertion sets, maydiff sets, and the
//! relational assertion triple (paper §2.2, §G).

use crate::expr::{Expr, Side, TReg, TValue};
use crellvm_ir::RegId;
use serde::de::{self, MapAccess, SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeMap, BTreeSet};
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

    /// Does this predicate contain a load expression whose pointer makes it
    /// vulnerable to memory writes?
    pub fn mentions_load(&self) -> bool {
        match self {
            Pred::Lessdef(a, b) => a.is_load() || b.is_load(),
            _ => false,
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
/// the checker's hottest lookups — are stored *decomposed* in a by-LHS map
/// (plus a by-RHS reverse index kept in sync), so `has_lessdef`,
/// `lessdef_rhs_of` and `lessdef_lhs_of` are keyed lookups instead of
/// clone-and-scan over a flat `BTreeSet<Pred>`. The remaining predicate
/// kinds (`Uniq` / `Priv` / `Noalias`) live in `others`.
///
/// Iteration order is unchanged from the flat-set representation:
/// `Pred::Lessdef` is the first enum variant, so the old `BTreeSet<Pred>`
/// yielded all lessdefs (sorted by `(lhs, rhs)`) before the other
/// predicates — exactly what chaining the sorted `fwd` map with `others`
/// reproduces. Serialized form is byte-identical (`{"preds": [...]}`).
#[derive(Debug, Clone, Default)]
pub struct Unary {
    /// `lhs ⊒ rhs` pairs, keyed by lhs.
    fwd: BTreeMap<Expr, BTreeSet<Expr>>,
    /// Reverse index of `fwd`, keyed by rhs. Derived data — never compared
    /// or serialized.
    rev: BTreeMap<Expr, BTreeSet<Expr>>,
    /// Non-lessdef predicates (`Uniq`, `Priv`, `Noalias`).
    others: BTreeSet<Pred>,
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
        if self.fwd.entry(e1.clone()).or_default().insert(e2.clone()) {
            self.rev.entry(e2).or_default().insert(e1);
        }
    }

    /// Remove a predicate; returns whether it was present.
    pub fn remove(&mut self, p: &Pred) -> bool {
        match p {
            Pred::Lessdef(a, b) => {
                let Some(rhss) = self.fwd.get_mut(a) else {
                    return false;
                };
                if !rhss.remove(b) {
                    return false;
                }
                if rhss.is_empty() {
                    self.fwd.remove(a);
                }
                let lhss = self.rev.get_mut(b).expect("rev index in sync with fwd");
                lhss.remove(a);
                if lhss.is_empty() {
                    self.rev.remove(b);
                }
                true
            }
            other => self.others.remove(other),
        }
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
        e1 == e2 || self.fwd.get(e1).is_some_and(|rhss| rhss.contains(e2))
    }

    /// Iterate over all predicates, in the same order the flat
    /// `BTreeSet<Pred>` representation used (lessdefs sorted by
    /// `(lhs, rhs)`, then the rest). Yields owned predicates; the hot
    /// paths use the keyed accessors or [`Unary::mentions_reg`] instead.
    pub fn iter(&self) -> impl Iterator<Item = Pred> + '_ {
        self.lessdefs()
            .map(|(a, b)| Pred::Lessdef(a.clone(), b.clone()))
            .chain(self.others.iter().cloned())
    }

    /// Iterate over lessdef pairs (sorted by `(lhs, rhs)`).
    pub fn lessdefs(&self) -> impl Iterator<Item = (&Expr, &Expr)> {
        self.fwd
            .iter()
            .flat_map(|(a, rhss)| rhss.iter().map(move |b| (a, b)))
    }

    /// Everything `e` such that `lhs ⊒ e` is present (keyed lookup).
    pub fn lessdef_rhs_of(&self, lhs: &Expr) -> Vec<&Expr> {
        self.fwd.get(lhs).into_iter().flatten().collect()
    }

    /// Everything `e` such that `e ⊒ rhs` is present (keyed lookup on the
    /// reverse index).
    pub fn lessdef_lhs_of(&self, rhs: &Expr) -> Vec<&Expr> {
        self.rev.get(rhs).into_iter().flatten().collect()
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

    /// Remove every predicate mentioning tagged register `r`; returns the
    /// number removed.
    pub fn kill_reg(&mut self, r: &TReg) -> usize {
        let doomed: Vec<(Expr, Expr)> = self
            .lessdefs()
            .filter(|(a, b)| a.mentions(r) || b.mentions(r))
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        let mut removed = doomed.len();
        for (a, b) in doomed {
            self.remove(&Pred::Lessdef(a, b));
        }
        let before = self.others.len();
        self.others.retain(|p| !p.mentions(r));
        removed += before - self.others.len();
        removed
    }

    /// Retain only predicates satisfying `keep` (visited in iteration
    /// order: lessdefs first, then the rest).
    pub fn retain(&mut self, mut keep: impl FnMut(&Pred) -> bool) {
        let doomed: Vec<Pred> = self
            .lessdefs()
            .map(|(a, b)| Pred::Lessdef(a.clone(), b.clone()))
            .filter(|p| !keep(p))
            .collect();
        for p in &doomed {
            self.remove(p);
        }
        self.others.retain(keep);
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.fwd.values().map(BTreeSet::len).sum::<usize>() + self.others.len()
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
    fn extend<I: IntoIterator<Item = Pred>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
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
        for p in self.0.iter() {
            seq.serialize_element(&p)?;
        }
        seq.end()
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
    pub maydiff: BTreeSet<TReg>,
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

    /// Is every register of the value known-equal across sides (i.e. not in
    /// the maydiff set)? Constants qualify trivially.
    pub fn value_injected(&self, v: &TValue) -> bool {
        match v {
            TValue::Reg(r) => !self.maydiff.contains(r),
            TValue::Const(_) => true,
        }
    }

    /// Is every register of the expression outside the maydiff set?
    pub fn expr_injected(&self, e: &Expr) -> bool {
        e.regs().iter().all(|r| !self.maydiff.contains(r))
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
        // Equivalent if S and T share an element that is injected.
        let mut s: Vec<&Expr> = vec![e];
        s.extend(self.src.lessdef_rhs_of(e));
        let mut t: Vec<&Expr> = vec![e2];
        t.extend(self.tgt.lessdef_lhs_of(e2));
        for a in &s {
            for b in &t {
                if a == b && self.expr_injected(a) {
                    return true;
                }
            }
        }
        false
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
        if let Some(r) = self.maydiff.iter().find(|r| !other.maydiff.contains(*r)) {
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
