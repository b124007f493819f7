//! Content-addressed incremental validation cache.
//!
//! Translation validation pays PCal + I/O + PCheck for every (function,
//! pass) unit on every run, even when nothing changed — the cost the
//! paper's Fig 6 tables measure and that successors amortize by
//! revalidating only changed units. This module provides the memo table:
//! a stable 64-bit content key derived from the *inputs* of a validation
//! unit maps to everything the scheduler needs to skip the unit entirely
//! — the verdict, the encoded proof (wire format v2, so the transformed
//! function can be reconstructed when something needs it), the digest of
//! the transformed function (so the next pass's key follows without that
//! reconstruction), and the unit's deterministic metrics snapshot (so a
//! warm run merges byte-identical measurement metrics).
//!
//! The key deliberately hashes the unit's inputs — function IR bytes,
//! pass id, pass-config token, checker token, wire-format token — rather
//! than the proof bytes: the proof is a deterministic function of those
//! inputs, and keying on inputs is what lets the scheduler consult the
//! cache *before* running the pass. (`CacheKey::for_proof` covers the
//! checker-side direction where the proof bytes are the input.)
//!
//! Layers: a `Mutex<BTreeMap>` in-memory map (BTreeMap so eviction order
//! is deterministic) plus an optional on-disk directory of
//! `<key>.cpe` files in the v2 container encoding, enabling warm re-runs
//! across processes (`opt/check --cache-dir DIR`).

use crate::serialize_bin::{self, fnv64, fnv64_extend};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// Version of the checker semantics. Bump on any change to validation
/// behaviour: every cache key mixes this in, so old entries silently
/// become misses instead of stale verdicts. Version 3: the expression
/// interner is gone, so cached metric snapshots no longer carry the
/// `expr.intern.*` counters that version 2 entries would replay.
/// Version 4: a literal `sdiv`/`srem` divisor of −1 no longer counts as
/// safe (`MIN / -1` traps), in constant expressions and target divisions
/// alike; a signed target division on a source division's divisor needs
/// a signed source on the same dividend; and a rule given a non-integer
/// type fails instead of panicking.
pub const CHECKER_VERSION: u32 = 4;

/// Version of the on-disk entry encoding; entries with another version
/// are treated as misses. Version 2 added [`CacheEntry::tgt_digest`].
const ENTRY_VERSION: u32 = 2;

/// Verdict tag in a [`CacheEntry`]: validated.
pub const OUTCOME_VALID: u8 = 0;
/// Verdict tag in a [`CacheEntry`]: validation failed.
pub const OUTCOME_FAILED: u8 = 1;
/// Verdict tag in a [`CacheEntry`]: translation not supported.
pub const OUTCOME_NOT_SUPPORTED: u8 = 2;

/// A stable 64-bit content hash identifying one validation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// Key for a scheduler-side unit: one function about to be run under
    /// one pass. Length-prefixing the variable-size components keeps the
    /// hash injective over component boundaries.
    #[must_use]
    pub fn for_unit(
        func_bytes: &[u8],
        pass: &str,
        pass_token: u64,
        checker_token: u64,
        wire_token: u64,
    ) -> CacheKey {
        CacheKey::for_function(
            CacheKey::function_digest(func_bytes),
            pass,
            pass_token,
            checker_token,
            wire_token,
        )
    }

    /// The function half of a unit key: the domain separator and the
    /// length-prefixed function bytes. FNV-1a is a running hash, so this is
    /// the state [`CacheKey::for_function`] continues from; a cache entry
    /// stores it for its unit's target function, which makes the next
    /// pass's key computable without that function's bytes.
    #[must_use]
    pub fn function_digest(func_bytes: &[u8]) -> u64 {
        let h = fnv64(b"crellvm.unit.v1");
        let h = fnv64_extend(h, &(func_bytes.len() as u64).to_le_bytes());
        fnv64_extend(h, func_bytes)
    }

    /// Finish a unit key from a [`CacheKey::function_digest`]: the pass
    /// and the configuration tokens. Equal to [`CacheKey::for_unit`] of
    /// the digested bytes.
    #[must_use]
    pub fn for_function(
        digest: u64,
        pass: &str,
        pass_token: u64,
        checker_token: u64,
        wire_token: u64,
    ) -> CacheKey {
        let mut h = fnv64_extend(digest, &(pass.len() as u64).to_le_bytes());
        h = fnv64_extend(h, pass.as_bytes());
        h = fnv64_extend(h, &pass_token.to_le_bytes());
        h = fnv64_extend(h, &checker_token.to_le_bytes());
        h = fnv64_extend(h, &wire_token.to_le_bytes());
        CacheKey(h)
    }

    /// Key for a checker-side unit: a serialized proof about to be
    /// validated (the `check --cache-dir` direction).
    #[must_use]
    pub fn for_proof(proof_bytes: &[u8], checker_token: u64) -> CacheKey {
        let mut h = fnv64(b"crellvm.proof.v1");
        h = fnv64_extend(h, &(proof_bytes.len() as u64).to_le_bytes());
        h = fnv64_extend(h, proof_bytes);
        h = fnv64_extend(h, &checker_token.to_le_bytes());
        CacheKey(h)
    }

    /// Layer a tenant namespace over this key: the serving daemon keys one
    /// shared cache per tenant so tenants never observe each other's
    /// verdicts. The empty namespace is the identity (the single-tenant
    /// offline path keeps its keys, so a daemon and an `opt --cache-dir`
    /// run over the same store share entries for the default tenant).
    /// Non-empty namespaces go through a fresh domain separator, so a
    /// tenant named after a key's hex form cannot collide with it.
    #[must_use]
    pub fn namespaced(self, tenant: &str) -> CacheKey {
        if tenant.is_empty() {
            return self;
        }
        let mut h = fnv64(b"crellvm.tenant.v1");
        h = fnv64_extend(h, &(tenant.len() as u64).to_le_bytes());
        h = fnv64_extend(h, tenant.as_bytes());
        h = fnv64_extend(h, &self.0.to_le_bytes());
        CacheKey(h)
    }
}

/// Everything a cache hit needs to reproduce a cold validation's
/// deterministic observables without running PCal / I-O / PCheck.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// On-disk entry encoding version (see [`ENTRY_VERSION`]).
    pub entry_version: u32,
    /// Wire format of `proof` (`serialize_bin::FORMAT_V2`).
    pub wire_format: u8,
    /// Verdict tag ([`OUTCOME_VALID`] / [`OUTCOME_FAILED`] /
    /// [`OUTCOME_NOT_SUPPORTED`]).
    pub outcome: u8,
    /// Failure or not-supported reason (empty when validated).
    pub reason: String,
    /// The proof in wire format v2 — carries the transformed function.
    /// Empty for checker-side entries, which already hold the proof.
    pub proof: Vec<u8>,
    /// [`CacheKey::function_digest`] of the transformed function (the
    /// proof's target): the next pass's key starts from it, so a hit need
    /// not decode `proof`. Zero for checker-side entries.
    pub tgt_digest: u64,
    /// The wire size the cold run reported for its configured format
    /// (kept verbatim so warm step records match cold ones).
    pub proof_bytes: u64,
    /// `Snapshot::deterministic()` of the unit's own metrics, as JSON;
    /// merged into the run's registry on a hit.
    pub metrics_json: String,
}

impl CacheEntry {
    /// A fresh entry with the current versions and no payload.
    #[must_use]
    pub fn new(outcome: u8, reason: String) -> CacheEntry {
        CacheEntry {
            entry_version: ENTRY_VERSION,
            wire_format: serialize_bin::FORMAT_V2,
            outcome,
            reason,
            proof: Vec::new(),
            tgt_digest: 0,
            proof_bytes: 0,
            metrics_json: String::new(),
        }
    }
}

/// The two-layer (memory + optional disk) validation cache.
pub struct ValidationCache {
    mem: Mutex<BTreeMap<CacheKey, CacheEntry>>,
    dir: Option<PathBuf>,
    capacity: usize,
}

impl fmt::Debug for ValidationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValidationCache")
            .field("len", &self.len())
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for ValidationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ValidationCache {
    /// An in-memory-only cache.
    #[must_use]
    pub fn new() -> ValidationCache {
        ValidationCache {
            mem: Mutex::new(BTreeMap::new()),
            dir: None,
            capacity: 1 << 16,
        }
    }

    /// A cache backed by an on-disk directory (created if missing); warm
    /// re-runs in a fresh process hit through the directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<ValidationCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ValidationCache {
            dir: Some(dir),
            ..ValidationCache::new()
        })
    }

    /// Cap the in-memory map at `cap` entries (deterministic smallest-key
    /// eviction).
    #[must_use]
    pub fn capacity(mut self, cap: usize) -> ValidationCache {
        self.capacity = cap.max(1);
        self
    }

    /// Number of in-memory entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache poisoned").len()
    }

    /// Is the in-memory map empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a key: memory first, then the disk layer (promoting a disk
    /// hit into memory). A corrupt, truncated, or version-skewed disk
    /// entry is a miss, never an error.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<CacheEntry> {
        if let Some(e) = self.mem.lock().expect("cache poisoned").get(&key) {
            return Some(e.clone());
        }
        let path = self.dir.as_ref()?.join(file_name(key));
        let bytes = std::fs::read(&path).ok()?;
        let entry = serialize_bin::from_bytes_v2::<CacheEntry>(&bytes).ok()?;
        if entry.entry_version != ENTRY_VERSION {
            return None;
        }
        self.put_mem(key, entry.clone());
        Some(entry)
    }

    /// Insert an entry, returning `true` if a deterministic eviction made
    /// room for it. The disk write is best-effort (written to a temporary
    /// file, then renamed, so concurrent readers never observe a torn
    /// entry); a failed write only means a later run misses.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> bool {
        if let Some(dir) = &self.dir {
            if let Ok(bytes) = serialize_bin::to_bytes_v2(&entry) {
                let tmp = dir.join(format!(".{}.{}.tmp", file_name(key), std::process::id()));
                let _ = std::fs::write(&tmp, &bytes)
                    .and_then(|()| std::fs::rename(&tmp, dir.join(file_name(key))));
            }
        }
        self.put_mem(key, entry)
    }

    fn put_mem(&self, key: CacheKey, entry: CacheEntry) -> bool {
        let mut mem = self.mem.lock().expect("cache poisoned");
        let mut evicted = false;
        if !mem.contains_key(&key) {
            while mem.len() >= self.capacity {
                mem.pop_first();
                evicted = true;
            }
        }
        mem.insert(key, entry);
        evicted
    }
}

fn file_name(key: CacheKey) -> String {
    format!("{:016x}.cpe", key.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: u8) -> CacheEntry {
        CacheEntry {
            proof: vec![tag; 3],
            proof_bytes: 3,
            ..CacheEntry::new(OUTCOME_VALID, String::new())
        }
    }

    #[test]
    fn keys_separate_every_component() {
        let base = CacheKey::for_unit(b"func", "gvn", 0, 0, 2);
        assert_eq!(base, CacheKey::for_unit(b"func", "gvn", 0, 0, 2));
        assert_ne!(base, CacheKey::for_unit(b"func2", "gvn", 0, 0, 2));
        assert_ne!(base, CacheKey::for_unit(b"func", "licm", 0, 0, 2));
        assert_ne!(base, CacheKey::for_unit(b"func", "gvn", 1, 0, 2));
        assert_ne!(base, CacheKey::for_unit(b"func", "gvn", 0, 1, 2));
        assert_ne!(base, CacheKey::for_unit(b"func", "gvn", 0, 0, 1));
        // Component boundaries do not alias.
        assert_ne!(
            CacheKey::for_unit(b"ab", "c", 0, 0, 2),
            CacheKey::for_unit(b"a", "bc", 0, 0, 2)
        );
        assert_ne!(
            CacheKey::for_proof(b"proof", 0),
            CacheKey::for_unit(b"proof", "", 0, 0, 0)
        );
    }

    #[test]
    fn tenant_namespaces_partition_keys() {
        let base = CacheKey::for_unit(b"func", "gvn", 0, 0, 2);
        // Empty tenant is the identity: offline and default-tenant served
        // runs share cache entries.
        assert_eq!(base.namespaced(""), base);
        let a = base.namespaced("tenant-a");
        let b = base.namespaced("tenant-b");
        assert_ne!(a, base);
        assert_ne!(a, b);
        // Deterministic per tenant.
        assert_eq!(a, base.namespaced("tenant-a"));
        // Namespacing composes with distinct inner keys.
        let other = CacheKey::for_unit(b"func2", "gvn", 0, 0, 2).namespaced("tenant-a");
        assert_ne!(a, other);
    }

    #[test]
    fn memory_layer_roundtrips_and_evicts_deterministically() {
        let cache = ValidationCache::new().capacity(2);
        assert!(cache.get(CacheKey(1)).is_none());
        assert!(!cache.insert(CacheKey(2), entry(2)));
        assert!(!cache.insert(CacheKey(1), entry(1)));
        assert_eq!(cache.get(CacheKey(1)).unwrap().proof, vec![1; 3]);
        // Third insert evicts the smallest key.
        assert!(cache.insert(CacheKey(3), entry(3)));
        assert!(cache.get(CacheKey(1)).is_none());
        assert!(cache.get(CacheKey(2)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disk_layer_survives_a_new_cache_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("crellvm-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ValidationCache::with_dir(&dir).unwrap();
            cache.insert(CacheKey(7), entry(7));
        }
        // A fresh cache over the same dir hits through disk.
        let cache = ValidationCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get(CacheKey(7)).unwrap().proof, vec![7; 3]);
        // Corrupting the file demotes it to a miss: a flipped magic byte
        // fails the format check, a flipped body byte the checksum.
        let path = dir.join(file_name(CacheKey(7)));
        let good = std::fs::read(&path).unwrap();
        for pos in [0, good.len() - 1] {
            let mut bytes = good.clone();
            bytes[pos] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let cache = ValidationCache::with_dir(&dir).unwrap();
            assert!(cache.get(CacheKey(7)).is_none(), "flip at {pos} hit");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
