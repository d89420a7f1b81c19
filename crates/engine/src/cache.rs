//! The sharded result cache.
//!
//! `/rank` answers are memoized keyed by (algorithm, solver options,
//! membership). The map is split into shards, each behind its own mutex,
//! so concurrent workers rarely contend; each shard is an O(1)
//! [`Lru`]. Hit/miss/eviction/invalidation counters are
//! lock-free and feed `/metrics`.
//!
//! Entries store the *full* key, not just its hash — a 64-bit collision
//! must never serve one subgraph's scores for another.
//!
//! A slot is identified by everything in a [`CacheKey`] *except* its
//! graph epoch; the epoch is stored beside the value. A lookup at any
//! other epoch misses, and an insert at a newer epoch replaces the
//! superseded answer in place. Live mutation therefore never piles up
//! unreachable answers in the LRU: a membership occupies at most one
//! entry per (algorithm, options) however often it mutates.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lru::Lru;

/// Identifies one cacheable ranking computation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Algorithm discriminant (see [`crate::Algorithm::code`]).
    pub algorithm: u8,
    /// The graph epoch the answer was computed under (see
    /// [`approxrank_delta::DeltaGraph::effective_epoch`]): the max of the
    /// structural epoch and the page epochs of the member set. A mutation
    /// that touches any member bumps this, so a stale entry stops
    /// matching lookups — lazy invalidation — and the next insert for
    /// the membership replaces it in place, counted by
    /// [`CacheStats::stale_evictions`]. Not part of the slot identity.
    /// Static (non-delta) engines pin it at 0.
    pub epoch: u64,
    /// `f64::to_bits` of the damping factor.
    pub damping_bits: u64,
    /// `f64::to_bits` of the tolerance.
    pub tolerance_bits: u64,
    /// Estimator-parameter fingerprint: 0 for exact algorithms; for the
    /// Monte-Carlo and push estimators a mix of their walk budget, seed,
    /// and epsilon (see [`estimator_bits`]) so results computed under
    /// different sampling parameters never alias.
    pub estimator_bits: u64,
    /// Sorted, deduplicated member ids. `Arc` keeps key clones cheap —
    /// the key is cloned into the shard on insert.
    pub members: Arc<[u32]>,
}

/// A cache slot's identity: a [`CacheKey`] without its epoch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Slot {
    algorithm: u8,
    damping_bits: u64,
    tolerance_bits: u64,
    estimator_bits: u64,
    members: Arc<[u32]>,
}

impl Slot {
    fn of(key: &CacheKey) -> Slot {
        Slot {
            algorithm: key.algorithm,
            damping_bits: key.damping_bits,
            tolerance_bits: key.tolerance_bits,
            estimator_bits: key.estimator_bits,
            members: Arc::clone(&key.members),
        }
    }

    fn at(&self, epoch: u64) -> CacheKey {
        CacheKey {
            algorithm: self.algorithm,
            epoch,
            damping_bits: self.damping_bits,
            tolerance_bits: self.tolerance_bits,
            estimator_bits: self.estimator_bits,
            members: Arc::clone(&self.members),
        }
    }
}

/// A memoized ranking answer.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// `(global page id, score)` in member order.
    pub scores: Arc<Vec<(u32, f64)>>,
    /// The external node Λ's score, when the algorithm has one.
    pub lambda: Option<f64>,
    /// Iterations the solve took (for estimators: sources walked or
    /// pushes performed).
    pub iterations: usize,
    /// Whether the solve converged.
    pub converged: bool,
    /// Present when the scores are an estimate rather than a converged
    /// solve: the walk count, accuracy target, and residual behind them.
    pub estimate: Option<approxrank_core::Estimate>,
}

/// Point-in-time counters for `/stats` and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Answers dropped because a mutation had superseded their graph
    /// epoch: replaced in place by a newer answer for the same slot, or
    /// displaced by LRU pressure while already stale. Shows how much of
    /// the cache churn live mutation causes.
    pub stale_evictions: u64,
    /// Entries removed by explicit invalidation.
    pub invalidations: u64,
    /// Current live entries across all shards.
    pub entries: usize,
    /// Total capacity across all shards.
    pub capacity: usize,
}

/// A fixed-shard LRU cache of ranking results.
pub struct ShardedCache {
    /// Each value carries the epoch it was computed under.
    shards: Vec<Mutex<Lru<Slot, (u64, CachedResult)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Shard count: a power of two comfortably above any worker count this
/// service runs with.
const SHARDS: usize = 16;

impl ShardedCache {
    /// A cache bounded at roughly `total_entries` across 16 shards
    /// (each shard holds at least one entry).
    pub fn new(total_entries: usize) -> Self {
        let per_shard = total_entries.div_ceil(SHARDS).max(1);
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, slot: &Slot) -> usize {
        let mut h = DefaultHasher::new();
        slot.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock_shard(&self, slot: &Slot) -> std::sync::MutexGuard<'_, Lru<Slot, (u64, CachedResult)>> {
        self.lock_index(self.shard_of(slot))
    }

    fn lock_index(&self, idx: usize) -> std::sync::MutexGuard<'_, Lru<Slot, (u64, CachedResult)>> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a key, updating recency and the hit/miss counters. An
    /// entry stored under a different epoch is a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let slot = Slot::of(key);
        let got = match self.lock_shard(&slot).get(&slot) {
            Some((epoch, value)) if *epoch == key.epoch => Some(value.clone()),
            _ => None,
        };
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a result. An entry for the same slot under an older epoch
    /// is replaced in place and counted as a stale eviction; one under a
    /// newer epoch is kept (a slow solve finishing after a fresher one
    /// must not roll the slot back). Otherwise the insert may evict the
    /// shard's LRU entry, which is returned so the engine can classify
    /// it — an entry under a superseded graph epoch counts as stale (see
    /// [`Self::record_stale_eviction`]).
    pub fn insert(&self, key: CacheKey, value: CachedResult) -> Option<(CacheKey, CachedResult)> {
        let slot = Slot::of(&key);
        let mut shard = self.lock_shard(&slot);
        if let Some((epoch, stored)) = shard.get_mut(&slot) {
            if *epoch < key.epoch {
                self.stale_evictions.fetch_add(1, Ordering::Relaxed);
            }
            if *epoch <= key.epoch {
                (*epoch, *stored) = (key.epoch, value);
            }
            return None;
        }
        let evicted = shard.insert(slot, (key.epoch, value))?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let (slot, (epoch, value)) = evicted;
        Some((slot.at(epoch), value))
    }

    /// Marks the most recent eviction as stale-epoch churn. Called by the
    /// engine after classifying the entry [`Self::insert`] returned.
    pub fn record_stale_eviction(&self) {
        self.stale_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the entry for `key`, if present at exactly `key.epoch` — an
    /// entry under any other epoch is a different answer and stays.
    /// Sessions call this when a membership they previously published
    /// mutates.
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let slot = Slot::of(key);
        let mut shard = self.lock_shard(&slot);
        let removed = match shard.get_mut(&slot) {
            Some((epoch, _)) if *epoch == key.epoch => shard.remove(&slot).is_some(),
            _ => false,
        };
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// The hottest entries across all shards, up to `limit`: each shard
    /// contributes in its own recency order, and shards are merged
    /// round-robin by recency rank so no shard monopolizes the budget.
    /// Snapshotting uses this to persist the cache's working set.
    pub fn hot_entries(&self, limit: usize) -> Vec<(CacheKey, CachedResult)> {
        let mut per_shard: Vec<Vec<(CacheKey, CachedResult)>> = Vec::new();
        for idx in 0..self.shards.len() {
            let shard = self.lock_index(idx);
            per_shard.push(
                shard
                    .iter()
                    .map(|(slot, (epoch, value))| (slot.at(*epoch), value.clone()))
                    .collect(),
            );
        }
        let mut out = Vec::new();
        let mut rank = 0;
        while out.len() < limit {
            let mut any = false;
            for shard in &per_shard {
                if let Some(entry) = shard.get(rank) {
                    any = true;
                    out.push(entry.clone());
                    if out.len() == limit {
                        return out;
                    }
                }
            }
            if !any {
                break;
            }
            rank += 1;
        }
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut capacity = 0;
        for idx in 0..self.shards.len() {
            let shard = self.lock_index(idx);
            entries += shard.len();
            capacity += shard.capacity();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }
}

/// Builds the canonical key for a computation: members must already be
/// sorted and deduplicated (the handler's `NodeSet` pass guarantees it).
/// `estimator` is 0 for exact algorithms (see [`estimator_bits`]);
/// `epoch` is the member set's effective graph epoch (0 on static
/// engines).
pub fn cache_key(
    algorithm: u8,
    damping: f64,
    tolerance: f64,
    estimator: u64,
    epoch: u64,
    members: &[u32],
) -> CacheKey {
    debug_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members not sorted"
    );
    CacheKey {
        algorithm,
        damping_bits: damping.to_bits(),
        tolerance_bits: tolerance.to_bits(),
        estimator_bits: estimator,
        epoch,
        members: members.into(),
    }
}

/// Fingerprints estimator parameters into one key word. Exact solvers
/// pass nothing and get 0; changing any of the walk budget, the seed, or
/// epsilon changes the fingerprint (an avalanche mix keeps distinct
/// triples from colliding in practice).
pub fn estimator_bits(walks: u32, epsilon: f64, seed: u64) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for word in [walks as u64, epsilon.to_bits(), seed] {
        acc ^= word;
        acc = acc.wrapping_mul(0x100_0000_01b3); // FNV prime
        acc ^= acc >> 29;
    }
    // Never collide with the exact solvers' reserved 0.
    acc | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: usize) -> CachedResult {
        CachedResult {
            scores: Arc::new(vec![(tag as u32, 0.5)]),
            lambda: Some(0.5),
            iterations: tag,
            converged: true,
            estimate: None,
        }
    }

    #[test]
    fn hit_after_insert() {
        let cache = ShardedCache::new(64);
        let key = cache_key(0, 0.85, 1e-5, 0, 0, &[1, 2, 3]);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), result(7));
        let got = cache.get(&key).unwrap();
        assert_eq!(got.iterations, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_options_are_distinct_keys() {
        let cache = ShardedCache::new(64);
        let a = cache_key(0, 0.85, 1e-5, 0, 0, &[1, 2]);
        let b = cache_key(0, 0.9, 1e-5, 0, 0, &[1, 2]);
        let c = cache_key(1, 0.85, 1e-5, 0, 0, &[1, 2]);
        let d = cache_key(0, 0.85, 1e-5, 0, 0, &[1, 2, 3]);
        let e = cache_key(0, 0.85, 1e-5, estimator_bits(256, 1e-3, 42), 0, &[1, 2]);
        cache.insert(a.clone(), result(1));
        for other in [&b, &c, &d, &e] {
            assert!(cache.get(other).is_none());
        }
        assert_eq!(cache.get(&a).unwrap().iterations, 1);
    }

    #[test]
    fn estimator_fingerprints_are_distinct_and_nonzero() {
        let base = estimator_bits(256, 1e-3, 42);
        assert_ne!(base, 0);
        for other in [
            estimator_bits(512, 1e-3, 42),
            estimator_bits(256, 1e-2, 42),
            estimator_bits(256, 1e-3, 43),
        ] {
            assert_ne!(base, other);
            assert_ne!(other, 0);
        }
    }

    #[test]
    fn invalidation_removes_and_counts() {
        let cache = ShardedCache::new(64);
        let key = cache_key(0, 0.85, 1e-5, 0, 0, &[4, 5]);
        cache.insert(key.clone(), result(1));
        assert!(cache.invalidate(&key));
        assert!(!cache.invalidate(&key));
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn one_membership_at_many_epochs_keeps_one_entry() {
        let cache = ShardedCache::new(64);
        for epoch in 0..10u64 {
            cache.insert(
                cache_key(0, 0.85, 1e-5, 0, epoch, &[1, 2, 3]),
                result(epoch as usize),
            );
            assert_eq!(cache.stats().entries, 1, "epoch {epoch}");
        }
        let s = cache.stats();
        // Each of the nine replacements retired a superseded answer; none
        // of them was LRU pressure.
        assert_eq!((s.stale_evictions, s.evictions), (9, 0));
        let live = cache_key(0, 0.85, 1e-5, 0, 9, &[1, 2, 3]);
        assert_eq!(cache.get(&live).unwrap().iterations, 9);
    }

    #[test]
    fn lookup_at_any_other_epoch_misses() {
        let cache = ShardedCache::new(64);
        cache.insert(cache_key(0, 0.85, 1e-5, 0, 5, &[7, 8]), result(5));
        for epoch in [0, 4, 6, 100] {
            assert!(cache
                .get(&cache_key(0, 0.85, 1e-5, 0, epoch, &[7, 8]))
                .is_none());
        }
        assert!(cache
            .get(&cache_key(0, 0.85, 1e-5, 0, 5, &[7, 8]))
            .is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 4, 1));
    }

    #[test]
    fn older_insert_never_rolls_a_slot_back() {
        let cache = ShardedCache::new(64);
        cache.insert(cache_key(0, 0.85, 1e-5, 0, 3, &[1]), result(3));
        cache.insert(cache_key(0, 0.85, 1e-5, 0, 2, &[1]), result(2));
        assert_eq!(
            cache
                .get(&cache_key(0, 0.85, 1e-5, 0, 3, &[1]))
                .unwrap()
                .iterations,
            3
        );
        assert_eq!(cache.stats().stale_evictions, 0);
    }

    #[test]
    fn invalidate_at_a_non_matching_epoch_removes_nothing() {
        let cache = ShardedCache::new(64);
        cache.insert(cache_key(0, 0.85, 1e-5, 0, 2, &[4, 5]), result(1));
        for epoch in [1, 3] {
            assert!(!cache.invalidate(&cache_key(0, 0.85, 1e-5, 0, epoch, &[4, 5])));
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.invalidations), (1, 0));
        assert!(cache.invalidate(&cache_key(0, 0.85, 1e-5, 0, 2, &[4, 5])));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hot_entries_keep_each_entry_epoch() {
        let cache = ShardedCache::new(64);
        let keys: Vec<CacheKey> = (0..5u32)
            .map(|i| cache_key(0, 0.85, 1e-5, 0, u64::from(i) * 7, &[i, i + 1]))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key.clone(), result(i));
        }
        let mut hot: Vec<CacheKey> = cache.hot_entries(16).into_iter().map(|(k, _)| k).collect();
        hot.sort_by_key(|k| k.epoch);
        assert_eq!(hot, keys);
    }

    #[test]
    fn eviction_under_pressure() {
        // Tiny cache: one entry per shard.
        let cache = ShardedCache::new(1);
        for i in 0..200u32 {
            cache.insert(cache_key(0, 0.85, 1e-5, 0, 0, &[i]), result(i as usize));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.entries <= s.capacity);
    }
}
