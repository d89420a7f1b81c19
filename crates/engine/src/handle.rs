//! [`EngineHandle`]: the dispatch seam between a router and an engine.
//!
//! A routing tier does not care where an engine lives. The in-process
//! [`Engine`] implements this trait directly; a remote engine (an RPC
//! client fronting a `subrank serve --shard-server` process on another
//! host) implements the same trait, so one router can front any mix of
//! local and remote shards without branching at call sites.
//!
//! Every fallible operation returns [`EngineError`]; transport failures
//! surface as [`EngineError::Unavailable`], which an in-process engine
//! never produces. The two lookup-shaped operations
//! ([`session_view`](EngineHandle::session_view) and
//! [`session_delete`](EngineHandle::session_delete)) distinguish "the
//! session does not exist" (`Ok(None)` / `Ok(false)`) from "I could not
//! ask" (`Err`), so a replica outage never masquerades as a 404.

use approxrank_trace::Observer;

use crate::batch::BatchStats;
use crate::cache::{CacheStats, CachedResult};
use crate::engine::{
    Engine, EngineError, KeywordRequest, MutationOutcome, RankOutcome, RankRequest, SessionView,
};

/// The engine surface a router dispatches to, location-blind.
///
/// Telemetry accessors ([`cache_stats`](EngineHandle::cache_stats),
/// [`session_count`](EngineHandle::session_count),
/// [`wal_errors`](EngineHandle::wal_errors)) are best-effort: a remote
/// implementation returns zeros when its replicas are unreachable rather
/// than failing a metrics scrape.
pub trait EngineHandle: Send + Sync {
    /// Ranks a member list (cache-aside on the engine's side).
    fn rank(&self, params: &RankRequest, obs: &dyn Observer) -> Result<RankOutcome, EngineError>;

    /// Ranks a member list under a keyword (base-set) personalization —
    /// ObjectRank's teleport over ApproxRank's Λ-collapse, one solve per
    /// query; see [`Engine::keyword_rank`].
    fn keyword_rank(
        &self,
        params: &KeywordRequest,
        obs: &dyn Observer,
    ) -> Result<CachedResult, EngineError>;

    /// In-flight dedup counters (best-effort: remote implementations
    /// report zeros rather than fail a metrics scrape — the remote
    /// process exports its own `batch_*` counters).
    fn batch_stats(&self) -> BatchStats {
        BatchStats::default()
    }

    /// Opens a warm session and returns its id plus the first solution.
    /// The request's algorithm selects the solver (`approxrank` exact or
    /// `mc` estimator); other algorithms are rejected.
    fn session_create(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<(u64, CachedResult), EngineError>;

    /// Applies a membership edit and warm-start re-solves.
    fn session_update(
        &self,
        id: u64,
        add: &[u32],
        remove: &[u32],
        obs: &dyn Observer,
    ) -> Result<(Vec<u32>, CachedResult), EngineError>;

    /// A read-only snapshot of session `id`; `Ok(None)` when it does not
    /// exist, `Err` when the engine could not be asked.
    fn session_view(&self, id: u64) -> Result<Option<SessionView>, EngineError>;

    /// Closes session `id`; `Ok(false)` when it did not exist.
    fn session_delete(&self, id: u64, obs: &dyn Observer) -> Result<bool, EngineError>;

    /// Applies an edge-mutation batch to the engine's live graph,
    /// repairing intersecting warm sessions. Static shard engines reject
    /// with `BadRequest`.
    fn mutate_graph(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> Result<MutationOutcome, EngineError>;

    /// The engine's current graph epoch (0 for static engines;
    /// best-effort for remote implementations).
    fn graph_epoch(&self) -> u64;

    /// Open session count (best-effort for remote implementations).
    fn session_count(&self) -> usize;

    /// Result-cache counters (best-effort for remote implementations).
    fn cache_stats(&self) -> CacheStats;

    /// WAL append failures (best-effort for remote implementations).
    fn wal_errors(&self) -> u64;
}

impl EngineHandle for Engine {
    fn rank(&self, params: &RankRequest, obs: &dyn Observer) -> Result<RankOutcome, EngineError> {
        Engine::rank(self, params, obs)
    }

    fn keyword_rank(
        &self,
        params: &KeywordRequest,
        obs: &dyn Observer,
    ) -> Result<CachedResult, EngineError> {
        Engine::keyword_rank(self, params, obs)
    }

    fn batch_stats(&self) -> BatchStats {
        Engine::batch_stats(self)
    }

    fn session_create(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<(u64, CachedResult), EngineError> {
        Engine::session_create(self, params, obs)
    }

    fn session_update(
        &self,
        id: u64,
        add: &[u32],
        remove: &[u32],
        obs: &dyn Observer,
    ) -> Result<(Vec<u32>, CachedResult), EngineError> {
        Engine::session_update(self, id, add, remove, obs)
    }

    fn session_view(&self, id: u64) -> Result<Option<SessionView>, EngineError> {
        Ok(Engine::session_view(self, id))
    }

    fn session_delete(&self, id: u64, obs: &dyn Observer) -> Result<bool, EngineError> {
        Ok(Engine::session_delete(self, id, obs))
    }

    fn mutate_graph(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> Result<MutationOutcome, EngineError> {
        Engine::mutate_graph(self, insert, delete, obs)
    }

    fn graph_epoch(&self) -> u64 {
        Engine::graph_epoch(self)
    }

    fn session_count(&self) -> usize {
        Engine::session_count(self)
    }

    fn cache_stats(&self) -> CacheStats {
        Engine::cache_stats(self)
    }

    fn wal_errors(&self) -> u64 {
        Engine::wal_errors(self)
    }
}
