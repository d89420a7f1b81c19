//! In-flight dedup for the engine's cold path.
//!
//! Concurrent requests with the same key coalesce onto one solve: the
//! first arrival leads and solves, the rest wait on the flight and
//! receive the leader's [`CachedResult`] verbatim. Keys pin *everything
//! the solve reads* — `/rank` uses the [`CacheKey`] (algorithm, options,
//! membership, effective graph epoch), keyword queries a `KeywordKey`
//! (the same plus the base set) — so a follower's answer is
//! byte-identical to the solve it would have run itself.
//!
//! Leaders publish through a lease guard: if a leader panics, followers
//! receive `Unavailable` instead of hanging.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::cache::{CacheKey, CachedResult};
use crate::engine::EngineError;

/// Point-in-time coalescing counters for `/stats` and `/metrics`.
///
/// `rank_coalesced / rank_leaders` is how many duplicate solves the
/// in-flight table absorbed per cold one; `keyword_coalesced` counts the
/// same for keyword queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Cold rank solves that led an in-flight entry.
    pub rank_leaders: u64,
    /// Rank requests served by another request's in-flight solve.
    pub rank_coalesced: u64,
    /// Keyword solves run (one per distinct in-flight keyword key).
    pub keyword_solves: u64,
    /// Base-set columns across those solves. Every keyword solve is a
    /// singleton, so this always equals `keyword_solves`; it stays
    /// because `perfbench/src/run.rs` reads it (`columns_per_solve`).
    pub keyword_columns: u64,
    /// Keyword requests served by an identical in-flight keyword solve.
    pub keyword_coalesced: u64,
}

/// Identifies one keyword solve: everything it reads.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct KeywordKey {
    pub epoch: u64,
    pub damping_bits: u64,
    pub tolerance_bits: u64,
    pub members: Vec<u32>,
    pub base: Vec<u32>,
}

/// A one-shot broadcast cell: the leader publishes once, any number of
/// followers wait.
struct Flight {
    state: Mutex<Option<Result<CachedResult, EngineError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<CachedResult, EngineError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some(result);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<CachedResult, EngineError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Where a request landed in the in-flight table.
enum Slot<'a, K: Eq + Hash + Clone> {
    /// This request solves; it must call [`Lease::finish`].
    Leader(Lease<'a, K>),
    /// Another request is already solving the identical key.
    Follower(Arc<Flight>),
}

/// The leader's obligation to publish: dropping it without
/// [`Lease::finish`] (a panic in the solve) broadcasts `Unavailable`
/// so followers never hang.
struct Lease<'a, K: Eq + Hash + Clone> {
    table: &'a InFlight<K>,
    key: K,
    flight: Arc<Flight>,
    done: bool,
}

impl<K: Eq + Hash + Clone> Lease<'_, K> {
    fn finish(mut self, result: Result<CachedResult, EngineError>) {
        self.done = true;
        self.table.remove(&self.key, &self.flight);
        self.flight.publish(result);
    }
}

impl<K: Eq + Hash + Clone> Drop for Lease<'_, K> {
    fn drop(&mut self) {
        if !self.done {
            self.table.remove(&self.key, &self.flight);
            self.flight
                .publish(Err(EngineError::Unavailable("solve aborted".into())));
        }
    }
}

/// A single-flight table: at most one solve per key at a time.
pub(crate) struct InFlight<K: Eq + Hash + Clone> {
    flights: Mutex<HashMap<K, Arc<Flight>>>,
    leaders: AtomicU64,
    followers: AtomicU64,
}

impl<K: Eq + Hash + Clone> InFlight<K> {
    pub(crate) fn new() -> Self {
        InFlight {
            flights: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<Flight>>> {
        self.flights.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `solve` unless an identical key is already in flight, in
    /// which case it waits for that flight's result instead. Returns the
    /// result and whether this call ran the solve.
    pub(crate) fn run(
        &self,
        key: K,
        solve: impl FnOnce() -> Result<CachedResult, EngineError>,
    ) -> (Result<CachedResult, EngineError>, bool) {
        match self.join(key) {
            Slot::Follower(flight) => (flight.wait(), false),
            Slot::Leader(lease) => {
                let result = solve();
                lease.finish(result.clone());
                (result, true)
            }
        }
    }

    /// Claims or joins the in-flight entry for `key`.
    fn join(&self, key: K) -> Slot<'_, K> {
        let mut map = self.lock();
        if let Some(flight) = map.get(&key) {
            self.followers.fetch_add(1, Ordering::Relaxed);
            return Slot::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        map.insert(key.clone(), Arc::clone(&flight));
        drop(map);
        self.leaders.fetch_add(1, Ordering::Relaxed);
        Slot::Leader(Lease {
            table: self,
            key,
            flight,
            done: false,
        })
    }

    /// Removes `key`'s flight *if it is still this flight* (a successor
    /// leader may have re-inserted the key already).
    fn remove(&self, key: &K, flight: &Arc<Flight>) {
        let mut map = self.lock();
        if map.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            map.remove(key);
        }
    }

    /// `(leaders, followers)` since construction.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (
            self.leaders.load(Ordering::Relaxed),
            self.followers.load(Ordering::Relaxed),
        )
    }
}

/// The engine's two single-flight tables.
pub(crate) struct BatchScheduler {
    pub(crate) rank: InFlight<CacheKey>,
    pub(crate) keyword: InFlight<KeywordKey>,
}

impl BatchScheduler {
    pub(crate) fn new() -> Self {
        BatchScheduler {
            rank: InFlight::new(),
            keyword: InFlight::new(),
        }
    }

    pub(crate) fn stats(&self) -> BatchStats {
        let (rank_leaders, rank_coalesced) = self.rank.counts();
        let (keyword_solves, keyword_coalesced) = self.keyword.counts();
        BatchStats {
            rank_leaders,
            rank_coalesced,
            keyword_solves,
            keyword_columns: keyword_solves,
            keyword_coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;

    fn result(tag: usize) -> CachedResult {
        CachedResult {
            scores: Arc::new(vec![(tag as u32, 1.0 + 1.0 / 3.0)]),
            lambda: Some(0.1),
            iterations: tag,
            converged: true,
            estimate: None,
        }
    }

    #[test]
    fn rank_followers_receive_the_leaders_result() {
        let sched = BatchScheduler::new();
        let key = cache_key(0, 0.85, 1e-8, 0, 0, &[1, 2, 3]);
        let Slot::Leader(lease) = sched.rank.join(key.clone()) else {
            panic!("first arrival must lead");
        };
        let Slot::Follower(follower) = sched.rank.join(key.clone()) else {
            panic!("second arrival must follow");
        };
        let waiter = std::thread::spawn(move || follower.wait());
        lease.finish(Ok(result(9)));
        assert_eq!(waiter.join().unwrap().unwrap().iterations, 9);
        // The flight is gone: the next arrival leads again.
        assert!(matches!(sched.rank.join(key), Slot::Leader(_)));
        let s = sched.stats();
        assert_eq!((s.rank_leaders, s.rank_coalesced), (2, 1));
    }

    #[test]
    fn dropped_lease_unblocks_followers_with_unavailable() {
        let sched = BatchScheduler::new();
        let key = cache_key(0, 0.85, 1e-8, 0, 0, &[4]);
        let Slot::Leader(lease) = sched.rank.join(key.clone()) else {
            panic!();
        };
        let Slot::Follower(follower) = sched.rank.join(key) else {
            panic!();
        };
        drop(lease); // leader panicked / aborted
        assert!(matches!(follower.wait(), Err(EngineError::Unavailable(_))));
    }

    #[test]
    fn identical_keyword_keys_share_the_leaders_bits() {
        let sched = BatchScheduler::new();
        let key = KeywordKey {
            epoch: 0,
            damping_bits: 0.85f64.to_bits(),
            tolerance_bits: 1e-8f64.to_bits(),
            members: vec![1, 2, 3],
            base: vec![2, 40],
        };
        let Slot::Leader(lease) = sched.keyword.join(key.clone()) else {
            panic!("first arrival leads");
        };
        let Slot::Follower(follower) = sched.keyword.join(key) else {
            panic!("an identical key follows");
        };
        let answer = result(7);
        lease.finish(Ok(answer.clone()));
        let got = follower.wait().unwrap();
        assert_eq!(got.iterations, answer.iterations);
        assert_eq!(
            got.lambda.map(f64::to_bits),
            answer.lambda.map(f64::to_bits)
        );
        for ((pa, sa), (pb, sb)) in got.scores.iter().zip(answer.scores.iter()) {
            assert_eq!((pa, sa.to_bits()), (pb, sb.to_bits()));
        }
        let s = sched.stats();
        assert_eq!((s.keyword_solves, s.keyword_columns), (1, 1));
        assert_eq!(s.keyword_coalesced, 1);
    }
}
