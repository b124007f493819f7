//! The seeded miscompilation injector.
//!
//! Where [`crate::rand_prog`] generates *programs*, this module generates
//! *miscompilations*: small semantic mutations applied to the **target**
//! function of a translation after a pass has run, modelling the shapes of
//! the four historical LLVM bugs the paper's campaign caught (§7). The
//! injector is the adversary the soundness-fuzzing oracle is tested
//! against — every mutation is something the ERHL checker must reject and
//! (when the damage is executable) the interpreter must witness.
//!
//! Mutations are enumerated deterministically as *sites* in original
//! function coordinates ([`mutation_sites`]), so a [`MutationPlan`] can be
//! replayed, subset-applied for `ddmin` minimization, and serialized into
//! a finding bundle. All mutations keep the function verifier-clean: they
//! change meaning, never well-formedness.

use crate::prng::SplitMix64;
use crellvm_ir::{Const, Function, Inst, Type, Value};
use serde::{Deserialize, Serialize};

/// The historical bug class a mutation models (paper §1.2, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BugClass {
    /// PR24179: mem2reg drops/forges memory state (a store's effect lost).
    Pr24179,
    /// PR33673: a defined value replaced by `undef`/a trapping constant.
    Pr33673,
    /// PR28562: `inbounds` conflated with plain address arithmetic.
    Pr28562,
    /// PR29057 (D38619): value-numbering confuses distinct expressions
    /// (wrong predicate / wrong operand order / wrong edge constant).
    Pr29057,
}

impl BugClass {
    /// Stable lowercase name used in reports and telemetry counters.
    pub fn name(self) -> &'static str {
        match self {
            BugClass::Pr24179 => "pr24179",
            BugClass::Pr33673 => "pr33673",
            BugClass::Pr28562 => "pr28562",
            BugClass::Pr29057 => "pr29057",
        }
    }

    /// All classes, in report order.
    pub fn all() -> [BugClass; 4] {
        [
            BugClass::Pr24179,
            BugClass::Pr33673,
            BugClass::Pr28562,
            BugClass::Pr29057,
        ]
    }
}

/// One concrete mutation at a site, in coordinates of the *unmutated*
/// function (block index, statement/phi index). Plans are applied
/// back-to-front so `DropStore` removals never shift the coordinates of
/// mutations still to be applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// Delete a `store` statement: its effect never reaches memory
    /// (PR24179-shaped — the promoted value diverges from the slot).
    DropStore {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Replace every use of a `load` result with `undef` of its type
    /// (PR33673-shaped — a defined value becomes undefined).
    UndefizeLoad {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Clear the `inbounds` flag of a `gep` (PR28562-shaped; this
    /// direction is refinement-*preserving* — it only removes poison — so
    /// only the structural-diff oracle leg can see it).
    StripInbounds {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Set the `inbounds` flag on a plain `gep` (PR28562-shaped; an
    /// out-of-bounds address now yields observable poison).
    AddInbounds {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Negate an `icmp` predicate (PR29057-shaped).
    FlipIcmpPred {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Swap the operands of a non-commutative binary operation
    /// (PR29057-shaped).
    SwapNonCommutative {
        /// Block index.
        block: usize,
        /// Statement index within the block.
        stmt: usize,
    },
    /// Replace one incoming value of an integer phi with a constant that
    /// differs from the original (PR24179-shaped — the merge forges a
    /// value off one edge).
    PerturbPhiIncoming {
        /// Block index.
        block: usize,
        /// Phi index within the block.
        phi: usize,
        /// Index into the phi's incoming list.
        incoming: usize,
    },
}

impl Mutation {
    /// The historical bug class this mutation models.
    pub fn bug_class(&self) -> BugClass {
        match self {
            Mutation::DropStore { .. } | Mutation::PerturbPhiIncoming { .. } => BugClass::Pr24179,
            Mutation::UndefizeLoad { .. } => BugClass::Pr33673,
            Mutation::StripInbounds { .. } | Mutation::AddInbounds { .. } => BugClass::Pr28562,
            Mutation::FlipIcmpPred { .. } | Mutation::SwapNonCommutative { .. } => {
                BugClass::Pr29057
            }
        }
    }

    /// Site coordinates `(block, index)` used for back-to-front ordering.
    fn site(&self) -> (usize, usize) {
        match *self {
            Mutation::DropStore { block, stmt }
            | Mutation::UndefizeLoad { block, stmt }
            | Mutation::StripInbounds { block, stmt }
            | Mutation::AddInbounds { block, stmt }
            | Mutation::FlipIcmpPred { block, stmt }
            | Mutation::SwapNonCommutative { block, stmt } => (block, stmt),
            Mutation::PerturbPhiIncoming { block, phi, .. } => (block, phi),
        }
    }

    /// One-line human description, e.g. for finding bundles.
    pub fn describe(&self) -> String {
        let (b, i) = self.site();
        let what = match self {
            Mutation::DropStore { .. } => "drop store",
            Mutation::UndefizeLoad { .. } => "replace loaded value with undef",
            Mutation::StripInbounds { .. } => "strip gep inbounds",
            Mutation::AddInbounds { .. } => "add gep inbounds",
            Mutation::FlipIcmpPred { .. } => "flip icmp predicate",
            Mutation::SwapNonCommutative { .. } => "swap non-commutative operands",
            Mutation::PerturbPhiIncoming { .. } => "perturb phi incoming",
        };
        format!(
            "{what} at block {b} index {i} [{}]",
            self.bug_class().name()
        )
    }
}

/// Enumerate every applicable mutation site of `f`, deterministically
/// (block order, then statement order, then kind order).
pub fn mutation_sites(f: &Function) -> Vec<Mutation> {
    let uses = f.use_counts();
    let mut sites = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (pi, (_, phi)) in b.phis.iter().enumerate() {
            if !matches!(
                phi.ty,
                Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64
            ) {
                continue;
            }
            for (ii, (_, slot)) in phi.incoming.iter().enumerate() {
                if slot.is_some() {
                    sites.push(Mutation::PerturbPhiIncoming {
                        block: bi,
                        phi: pi,
                        incoming: ii,
                    });
                }
            }
        }
        for (si, s) in b.stmts.iter().enumerate() {
            match &s.inst {
                Inst::Store { .. } => sites.push(Mutation::DropStore {
                    block: bi,
                    stmt: si,
                }),
                Inst::Load { .. } => {
                    let used = s
                        .result
                        .map(|r| uses.get(&r).copied().unwrap_or(0) > 0)
                        .unwrap_or(false);
                    if used {
                        sites.push(Mutation::UndefizeLoad {
                            block: bi,
                            stmt: si,
                        });
                    }
                }
                Inst::Gep { inbounds, .. } => sites.push(if *inbounds {
                    Mutation::StripInbounds {
                        block: bi,
                        stmt: si,
                    }
                } else {
                    Mutation::AddInbounds {
                        block: bi,
                        stmt: si,
                    }
                }),
                Inst::Icmp { .. } => sites.push(Mutation::FlipIcmpPred {
                    block: bi,
                    stmt: si,
                }),
                Inst::Bin { op, lhs, rhs, .. } if !op.is_commutative() && lhs != rhs => {
                    sites.push(Mutation::SwapNonCommutative {
                        block: bi,
                        stmt: si,
                    });
                }
                _ => {}
            }
        }
    }
    sites
}

/// Apply one mutation in place. Returns `false` (leaving `f` untouched)
/// if the site no longer matches — e.g. coordinates from a different
/// function version.
pub fn apply_mutation(f: &mut Function, m: &Mutation) -> bool {
    match *m {
        Mutation::DropStore { block, stmt } => {
            let Some(b) = f.blocks.get_mut(block) else {
                return false;
            };
            if !matches!(b.stmts.get(stmt).map(|s| &s.inst), Some(Inst::Store { .. })) {
                return false;
            }
            b.stmts.remove(stmt);
            true
        }
        Mutation::UndefizeLoad { block, stmt } => {
            let Some(s) = f.blocks.get(block).and_then(|b| b.stmts.get(stmt)) else {
                return false;
            };
            let (Some(r), Inst::Load { ty, .. }) = (s.result, &s.inst) else {
                return false;
            };
            let undef = Value::undef(*ty);
            f.replace_all_uses(r, &undef) > 0
        }
        Mutation::StripInbounds { block, stmt } => set_inbounds(f, block, stmt, false),
        Mutation::AddInbounds { block, stmt } => set_inbounds(f, block, stmt, true),
        Mutation::FlipIcmpPred { block, stmt } => {
            let Some(s) = f.blocks.get_mut(block).and_then(|b| b.stmts.get_mut(stmt)) else {
                return false;
            };
            if let Inst::Icmp { pred, .. } = &mut s.inst {
                *pred = pred.negated();
                true
            } else {
                false
            }
        }
        Mutation::SwapNonCommutative { block, stmt } => {
            let Some(s) = f.blocks.get_mut(block).and_then(|b| b.stmts.get_mut(stmt)) else {
                return false;
            };
            if let Inst::Bin { op, lhs, rhs, .. } = &mut s.inst {
                if op.is_commutative() || lhs == rhs {
                    return false;
                }
                std::mem::swap(lhs, rhs);
                true
            } else {
                false
            }
        }
        Mutation::PerturbPhiIncoming {
            block,
            phi,
            incoming,
        } => {
            let Some((_, p)) = f.blocks.get_mut(block).and_then(|b| b.phis.get_mut(phi)) else {
                return false;
            };
            let ty = p.ty;
            let Some((_, slot)) = p.incoming.get_mut(incoming) else {
                return false;
            };
            let Some(old) = slot.as_ref() else {
                return false;
            };
            // A constant always dominates every edge, so this is SSA-safe.
            // Pick one that provably differs from the original value.
            let new = match old {
                Value::Const(Const::Int { bits, .. }) => {
                    Value::int(ty, (bits.wrapping_add(1)) as i64)
                }
                _ => Value::int(ty, 1),
            };
            *slot = Some(new);
            true
        }
    }
}

fn set_inbounds(f: &mut Function, block: usize, stmt: usize, to: bool) -> bool {
    let Some(s) = f.blocks.get_mut(block).and_then(|b| b.stmts.get_mut(stmt)) else {
        return false;
    };
    if let Inst::Gep { inbounds, .. } = &mut s.inst {
        if *inbounds == to {
            return false;
        }
        *inbounds = to;
        true
    } else {
        false
    }
}

/// Apply one randomly chosen mutation to `f`, returning it (or `None` if
/// the function offers no sites).
pub fn mutate_function(f: &mut Function, rng: &mut SplitMix64) -> Option<Mutation> {
    let sites = mutation_sites(f);
    if sites.is_empty() {
        return None;
    }
    let m = sites[rng.gen_range(0..sites.len())].clone();
    // Sites are enumerated from this very function; application cannot miss.
    let applied = apply_mutation(f, &m);
    debug_assert!(applied, "enumerated site failed to apply: {m:?}");
    Some(m)
}

/// A replayable set of mutations over one function, in original-function
/// coordinates, supporting subset application for `ddmin`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationPlan {
    /// Chosen mutations, in enumeration order.
    pub mutations: Vec<Mutation>,
}

impl MutationPlan {
    /// Sample up to `count` distinct sites from `f` uniformly.
    pub fn sample(f: &Function, rng: &mut SplitMix64, count: usize) -> MutationPlan {
        let mut sites = mutation_sites(f);
        let mut mutations = Vec::new();
        // Sampling without replacement: each site appears at most once, so
        // no mutation can cancel another at the same location.
        while mutations.len() < count && !sites.is_empty() {
            let i = rng.gen_range(0..sites.len());
            mutations.push(sites.swap_remove(i));
        }
        // Keep enumeration order for reproducible bundles.
        mutations.sort_by_key(|m| m.site());
        MutationPlan { mutations }
    }

    /// Whether the plan is empty (nothing to inject).
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Apply the subset of mutations selected by `keep` (same length as
    /// `mutations`) to a clone of `f`. Applied back-to-front so statement
    /// removals cannot shift the coordinates of still-pending mutations.
    pub fn applied_subset(&self, f: &Function, keep: &[bool]) -> Function {
        assert_eq!(keep.len(), self.mutations.len(), "keep mask length");
        let mut out = f.clone();
        let mut chosen: Vec<&Mutation> = self
            .mutations
            .iter()
            .zip(keep)
            .filter(|(_, k)| **k)
            .map(|(m, _)| m)
            .collect();
        chosen.sort_by_key(|m| std::cmp::Reverse(m.site()));
        for m in chosen {
            apply_mutation(&mut out, m);
        }
        out
    }

    /// Apply every mutation of the plan to a clone of `f`.
    pub fn applied(&self, f: &Function) -> Function {
        self.applied_subset(f, &vec![true; self.mutations.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_prog::{generate_module, GenConfig};
    use crellvm_ir::verify_module;

    fn sample_function(seed: u64) -> Function {
        let m = generate_module(&GenConfig {
            seed,
            ..GenConfig::default()
        });
        m.functions[0].clone()
    }

    #[test]
    fn sites_are_deterministic_and_nonempty() {
        let f = sample_function(11);
        let a = mutation_sites(&f);
        let b = mutation_sites(&f);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "generated functions should offer sites");
    }

    #[test]
    fn mutations_keep_modules_verifier_clean() {
        for seed in 0..20u64 {
            let mut m = generate_module(&GenConfig {
                seed,
                ..GenConfig::default()
            });
            let sites = mutation_sites(&m.functions[0]);
            for s in &sites {
                let mut f = m.functions[0].clone();
                assert!(apply_mutation(&mut f, s), "site must apply: {s:?}");
                let orig = std::mem::replace(&mut m.functions[0], f);
                verify_module(&m).unwrap_or_else(|e| {
                    panic!("seed {seed}, mutation {s:?} broke the verifier: {e}")
                });
                m.functions[0] = orig;
            }
        }
    }

    #[test]
    fn every_mutation_changes_the_function() {
        let f = sample_function(3);
        for s in mutation_sites(&f) {
            let mut g = f.clone();
            assert!(apply_mutation(&mut g, &s));
            assert_ne!(g, f, "mutation must not be a no-op: {s:?}");
        }
    }

    #[test]
    fn plan_subsets_respect_coordinates_under_removal() {
        // Find a function with ≥2 stores in one block so DropStore index
        // shifting would bite if application order were wrong.
        for seed in 0..50u64 {
            let f = sample_function(seed);
            let sites = mutation_sites(&f);
            let stores: Vec<&Mutation> = sites
                .iter()
                .filter(|m| matches!(m, Mutation::DropStore { .. }))
                .collect();
            let same_block = stores.iter().any(|a| {
                stores
                    .iter()
                    .any(|b| a.site().0 == b.site().0 && a.site().1 != b.site().1)
            });
            if !same_block {
                continue;
            }
            let plan = MutationPlan {
                mutations: sites
                    .iter()
                    .filter(|m| matches!(m, Mutation::DropStore { .. }))
                    .cloned()
                    .collect(),
            };
            let all = plan.applied(&f);
            let total_stores = |g: &Function| {
                g.blocks
                    .iter()
                    .flat_map(|b| &b.stmts)
                    .filter(|s| matches!(s.inst, Inst::Store { .. }))
                    .count()
            };
            assert_eq!(
                total_stores(&all),
                total_stores(&f) - plan.mutations.len(),
                "every DropStore must land exactly once (seed {seed})"
            );
            return;
        }
        panic!("no seed in 0..50 produced two stores in one block");
    }

    #[test]
    fn mutate_function_is_seed_deterministic() {
        let f = sample_function(9);
        let mut a = f.clone();
        let mut b = f.clone();
        let ma = mutate_function(&mut a, &mut SplitMix64::seed_from_u64(77));
        let mb = mutate_function(&mut b, &mut SplitMix64::seed_from_u64(77));
        assert_eq!(ma, mb);
        assert_eq!(a, b);
    }

    #[test]
    fn bug_class_names_cover_all_four() {
        let names: Vec<&str> = BugClass::all().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["pr24179", "pr33673", "pr28562", "pr29057"]);
    }
}
