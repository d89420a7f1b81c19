//! [`RemoteEngine`]: a replica set of shard servers behind the
//! [`EngineHandle`] trait.
//!
//! Every replica of a shard serves the same immutable partition, so the
//! read path (`rank`) load-balances round-robin across replicas currently
//! marked healthy. Transport failures mark the replica down, fail over to
//! the next candidate with exponential backoff under a bounded attempt
//! budget, and — when the budget runs out — surface as
//! [`EngineError::Unavailable`] (HTTP 503 upstairs). A background health
//! checker pings every replica each interval and flips them back up when
//! they answer, also verifying they still identify as the expected shard.
//!
//! Warm sessions are **not replicated**: session operations pin to the
//! lowest-index healthy replica ("the primary"), so a session lives and
//! dies with the replica that created it. If the primary goes down, new
//! sessions land on the next replica; old ids answer 404 until (and
//! unless) the original host returns with its durable store intact.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use approxrank_engine::{
    CacheStats, CachedResult, EngineError, EngineHandle, KeywordRequest, MutationOutcome,
    RankOutcome, RankRequest, SessionView,
};
use approxrank_trace::logging::{self, Level};
use approxrank_trace::Observer;

use crate::client::RpcClient;
use crate::wire::{PingInfo, RpcFault, RpcRequest, RpcResponse, StatsInfo};

/// Tunables for a [`RemoteEngine`]'s transport behavior.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Ceiling on each TCP connect.
    pub connect_timeout: Duration,
    /// Ceiling on each read/write once connected (must cover a cold
    /// solve on the far side).
    pub io_timeout: Duration,
    /// Total attempt budget per logical call, across replicas (>= 1).
    pub attempts: u32,
    /// First retry waits this long; each further retry doubles it.
    pub backoff_base: Duration,
    /// How often the background checker pings each replica. Zero
    /// disables the checker (tests drive probes by hand).
    pub health_interval: Duration,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            connect_timeout: Duration::from_millis(1000),
            io_timeout: Duration::from_millis(10_000),
            attempts: 3,
            backoff_base: Duration::from_millis(50),
            health_interval: Duration::from_millis(1000),
        }
    }
}

/// Point-in-time transport counters for `/metrics` (`rpc_*` lines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcMetricsSnapshot {
    /// Logical calls entering the remote engine.
    pub requests: u64,
    /// Transport-level failures (connect, read, write, bad frame).
    pub io_errors: u64,
    /// Retry attempts taken after a failure.
    pub retries: u64,
    /// Calls that succeeded only after at least one transport failure.
    pub failovers: u64,
    /// Calls that exhausted the attempt budget.
    pub unavailable: u64,
    /// Background health probes sent.
    pub health_probes: u64,
    /// Replica up/down flips (from probes or request failures).
    pub transitions: u64,
    /// Configured replicas.
    pub replicas_total: usize,
    /// Replicas currently marked healthy.
    pub replicas_healthy: usize,
}

#[derive(Default)]
struct RpcMetrics {
    requests: AtomicU64,
    io_errors: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    unavailable: AtomicU64,
    health_probes: AtomicU64,
    transitions: AtomicU64,
}

struct Replica {
    addr: String,
    conn: Mutex<Option<RpcClient>>,
    healthy: AtomicBool,
}

struct ReplicaSet {
    shard: u32,
    replicas: Vec<Replica>,
    next: AtomicUsize,
    config: RemoteConfig,
    metrics: RpcMetrics,
}

/// Which replica a call may use.
#[derive(Clone, Copy)]
enum Pick {
    /// Any healthy replica, rotating — for stateless reads.
    RoundRobin,
    /// The lowest-index healthy replica — for session state, which is
    /// not replicated.
    Primary,
}

impl ReplicaSet {
    /// Chooses a replica index for this attempt. When nothing is marked
    /// healthy, rotate through all of them anyway — the health view may
    /// be stale, and trying is how it gets corrected.
    fn pick(&self, pick: Pick, attempt: u32) -> usize {
        let healthy: Vec<usize> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.healthy.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .collect();
        if healthy.is_empty() {
            return attempt as usize % self.replicas.len();
        }
        match pick {
            Pick::Primary => healthy[0],
            Pick::RoundRobin => {
                let n = self.next.fetch_add(1, Ordering::Relaxed);
                healthy[n % healthy.len()]
            }
        }
    }

    /// One call over the replica's cached connection, reconnecting if
    /// needed. Any error drops the connection.
    fn call_replica(
        &self,
        replica: &Replica,
        trace_id: &str,
        tenant: &str,
        request: &RpcRequest,
    ) -> std::io::Result<RpcResponse> {
        let mut slot = replica.conn.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(RpcClient::connect(
                &replica.addr,
                self.config.connect_timeout,
                self.config.io_timeout,
            )?);
        }
        let client = slot.as_mut().expect("connection populated above");
        match client.call(trace_id, tenant, request) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                *slot = None;
                Err(e)
            }
        }
    }

    fn mark(&self, replica: &Replica, healthy: bool, why: &str) {
        let was = replica.healthy.swap(healthy, Ordering::Relaxed);
        if was != healthy {
            self.metrics.transitions.fetch_add(1, Ordering::Relaxed);
            let level = if healthy { Level::Info } else { Level::Warn };
            logging::log_with(
                level,
                "rpc",
                if healthy {
                    "replica up"
                } else {
                    "replica down"
                },
                &[
                    ("shard", &self.shard.to_string()),
                    ("replica", &replica.addr),
                    ("why", why),
                ],
            );
        }
    }

    /// Connects fresh and pings, verifying the peer identifies as this
    /// shard. Used by the health checker and boot validation; never
    /// touches the cached per-replica connection.
    fn probe(&self, replica: &Replica) -> Result<PingInfo, String> {
        self.metrics.health_probes.fetch_add(1, Ordering::Relaxed);
        let mut client = RpcClient::connect(
            &replica.addr,
            self.config.connect_timeout,
            self.config.io_timeout,
        )
        .map_err(|e| format!("connect: {e}"))?;
        match client
            .call("", "", &RpcRequest::Ping)
            .map_err(|e| format!("ping: {e}"))?
        {
            RpcResponse::Pong(info) => {
                // A replica claiming a *different* shard is misconfigured.
                // A whole-graph replica (`shard_id: None`) is a superset of
                // any shard, so it passes — that is the 1-shard server a
                // byte-identity smoke compares against.
                match info.shard_id {
                    Some(other) if other != self.shard => Err(format!(
                        "identifies as shard {other}, expected {}",
                        self.shard
                    )),
                    _ => Ok(info),
                }
            }
            other => Err(format!("unexpected ping response: {other:?}")),
        }
    }
}

/// A shard engine living in other processes: the client side of the RPC,
/// fronting one replica set.
pub struct RemoteEngine {
    set: Arc<ReplicaSet>,
}

impl RemoteEngine {
    /// Builds the replica set for `shard` and, unless
    /// [`RemoteConfig::health_interval`] is zero, starts its background
    /// health checker. Replicas start optimistically healthy; the first
    /// failed call or probe corrects that.
    pub fn new(shard: u32, addrs: Vec<String>, config: RemoteConfig) -> RemoteEngine {
        assert!(
            !addrs.is_empty(),
            "a replica set needs at least one address"
        );
        let set = Arc::new(ReplicaSet {
            shard,
            replicas: addrs
                .into_iter()
                .map(|addr| Replica {
                    addr,
                    conn: Mutex::new(None),
                    healthy: AtomicBool::new(true),
                })
                .collect(),
            next: AtomicUsize::new(0),
            config,
            metrics: RpcMetrics::default(),
        });
        if !set.config.health_interval.is_zero() {
            spawn_health_checker(Arc::downgrade(&set), shard);
        }
        RemoteEngine { set }
    }

    /// The shard this replica set serves.
    pub fn shard(&self) -> u32 {
        self.set.shard
    }

    /// The configured replica addresses, in priority order.
    pub fn replica_addrs(&self) -> Vec<String> {
        self.set.replicas.iter().map(|r| r.addr.clone()).collect()
    }

    /// Transport counters plus the current replica health tally.
    pub fn metrics(&self) -> RpcMetricsSnapshot {
        let m = &self.set.metrics;
        RpcMetricsSnapshot {
            requests: m.requests.load(Ordering::Relaxed),
            io_errors: m.io_errors.load(Ordering::Relaxed),
            retries: m.retries.load(Ordering::Relaxed),
            failovers: m.failovers.load(Ordering::Relaxed),
            unavailable: m.unavailable.load(Ordering::Relaxed),
            health_probes: m.health_probes.load(Ordering::Relaxed),
            transitions: m.transitions.load(Ordering::Relaxed),
            replicas_total: self.set.replicas.len(),
            replicas_healthy: self
                .set
                .replicas
                .iter()
                .filter(|r| r.healthy.load(Ordering::Relaxed))
                .count(),
        }
    }

    /// Probes every replica once, synchronously, updating health marks.
    /// Returns per-replica results — boot-time validation uses this to
    /// warn about unreachable or misdialed replicas before serving.
    pub fn probe_all(&self) -> Vec<(String, Result<PingInfo, String>)> {
        self.set
            .replicas
            .iter()
            .map(|replica| {
                let result = self.set.probe(replica);
                match &result {
                    Ok(_) => self.set.mark(replica, true, "probe ok"),
                    Err(e) => self.set.mark(replica, false, e),
                }
                (replica.addr.clone(), result)
            })
            .collect()
    }

    /// The retry/failover state machine shared by every operation.
    fn call(&self, request: &RpcRequest, pick: Pick) -> Result<RpcResponse, EngineError> {
        let set = &self.set;
        set.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let trace_id = logging::current_trace_id().unwrap_or_default();
        let tenant = logging::current_tenant().unwrap_or_default();
        let budget = set.config.attempts.max(1);
        let mut last_err = String::from("no attempt made");
        for attempt in 0..budget {
            if attempt > 0 {
                set.metrics.retries.fetch_add(1, Ordering::Relaxed);
                let factor = 1u32 << (attempt - 1).min(6);
                std::thread::sleep(set.config.backoff_base * factor);
            }
            let replica = &set.replicas[set.pick(pick, attempt)];
            match set.call_replica(replica, &trace_id, &tenant, request) {
                Ok(response) => {
                    set.mark(replica, true, "call ok");
                    if attempt > 0 {
                        set.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(response);
                }
                Err(e) => {
                    set.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                    set.mark(replica, false, &e.to_string());
                    last_err = format!("{}: {e}", replica.addr);
                }
            }
        }
        set.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
        Err(EngineError::Unavailable(format!(
            "shard {}: all replicas unreachable after {budget} attempts (last: {last_err})",
            set.shard
        )))
    }

    /// Converts a decoded response's error statuses. Engine-level errors
    /// are definitive — the replica answered; retrying elsewhere would
    /// only mask a real 400/404.
    fn fault_to_error(fault: RpcFault) -> EngineError {
        match fault {
            RpcFault::BadRequest(msg) => EngineError::BadRequest(msg),
            RpcFault::NoSuchSession(id) => EngineError::NoSuchSession(id),
            RpcFault::Unavailable(msg) => EngineError::Unavailable(msg),
            RpcFault::BadProtocol(msg) => {
                EngineError::Unavailable(format!("protocol mismatch: {msg}"))
            }
        }
    }

    /// Best-effort stats fetch; `None` when no replica answered.
    fn fetch_stats(&self) -> Option<StatsInfo> {
        match self.call(&RpcRequest::Stats, Pick::Primary) {
            Ok(RpcResponse::Stats(info)) => Some(info),
            _ => None,
        }
    }

    /// Sends one mutation batch to **every** replica, healthy or not.
    ///
    /// Replicas of a live-delta shard each hold their own copy of the
    /// overlay, so a mutation routed to only one would silently fork the
    /// replica set. Broadcast is the only correct shape here: a replica
    /// that cannot be reached is marked down (its store missed the batch
    /// — the operations handbook documents the recovery path), an
    /// engine-level refusal (e.g. a static shard server) is definitive
    /// and returned as-is, and the call fails only when *no* replica
    /// applied the batch.
    fn broadcast_mutation(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
    ) -> Result<MutationOutcome, EngineError> {
        let set = &self.set;
        set.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let trace_id = logging::current_trace_id().unwrap_or_default();
        let tenant = logging::current_tenant().unwrap_or_default();
        let request = RpcRequest::MutateGraph {
            insert: insert.to_vec(),
            delete: delete.to_vec(),
        };
        let mut applied: Option<MutationOutcome> = None;
        let mut last_err = String::from("no replica configured");
        for replica in &set.replicas {
            match set.call_replica(replica, &trace_id, &tenant, &request) {
                Ok(RpcResponse::Mutated {
                    epoch,
                    inserted,
                    deleted,
                    touched_pages,
                    structural,
                    sessions_repaired,
                }) => {
                    set.mark(replica, true, "mutation applied");
                    let merged = applied.get_or_insert(MutationOutcome {
                        epoch: 0,
                        inserted: inserted as usize,
                        deleted: deleted as usize,
                        touched_pages: touched_pages as usize,
                        structural,
                        sessions_repaired: 0,
                    });
                    // Sessions live per replica; the cluster-wide repair
                    // tally is the sum. Epochs advance in lockstep, but a
                    // replica that missed earlier batches may lag — report
                    // the max so the caller sees the authoritative epoch.
                    merged.epoch = merged.epoch.max(epoch);
                    merged.sessions_repaired += sessions_repaired as usize;
                }
                Ok(RpcResponse::Error(fault)) => return Err(Self::fault_to_error(fault)),
                Ok(other) => {
                    return Err(EngineError::Unavailable(format!(
                        "shard {}: mismatched response {other:?}",
                        set.shard
                    )))
                }
                Err(e) => {
                    set.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                    set.mark(replica, false, &e.to_string());
                    last_err = format!("{}: {e}", replica.addr);
                }
            }
        }
        applied.ok_or_else(|| {
            set.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
            EngineError::Unavailable(format!(
                "shard {}: no replica applied the mutation (last: {last_err})",
                set.shard
            ))
        })
    }
}

fn spawn_health_checker(set: Weak<ReplicaSet>, shard: u32) {
    let _ = std::thread::Builder::new()
        .name(format!("rpc-health-{shard}"))
        .spawn(move || loop {
            let Some(set) = set.upgrade() else { return };
            for replica in &set.replicas {
                match set.probe(replica) {
                    Ok(_) => set.mark(replica, true, "health probe ok"),
                    Err(e) => set.mark(replica, false, &e),
                }
            }
            let interval = set.config.health_interval;
            // Drop the strong ref before sleeping so a dropped
            // RemoteEngine lets this thread exit at the next tick.
            drop(set);
            std::thread::sleep(interval);
        });
}

impl EngineHandle for RemoteEngine {
    fn rank(&self, params: &RankRequest, obs: &dyn Observer) -> Result<RankOutcome, EngineError> {
        let _span = obs.span("rpc.rank");
        match self.call(&RpcRequest::Rank(params.clone()), Pick::RoundRobin)? {
            RpcResponse::Ranked { cached, result } => Ok(RankOutcome { result, cached }),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn keyword_rank(
        &self,
        params: &KeywordRequest,
        obs: &dyn Observer,
    ) -> Result<CachedResult, EngineError> {
        let _span = obs.span("rpc.keyword");
        match self.call(&RpcRequest::Keyword(params.clone()), Pick::RoundRobin)? {
            RpcResponse::KeywordRanked { result } => Ok(result),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn session_create(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<(u64, CachedResult), EngineError> {
        let _span = obs.span("rpc.session_create");
        let request = RpcRequest::SessionCreate(params.clone());
        match self.call(&request, Pick::Primary)? {
            RpcResponse::SessionCreated { id, result } => Ok((id, result)),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn session_update(
        &self,
        id: u64,
        add: &[u32],
        remove: &[u32],
        obs: &dyn Observer,
    ) -> Result<(Vec<u32>, CachedResult), EngineError> {
        let _span = obs.span("rpc.session_update");
        let request = RpcRequest::SessionUpdate {
            id,
            add: add.to_vec(),
            remove: remove.to_vec(),
        };
        match self.call(&request, Pick::Primary)? {
            RpcResponse::SessionUpdated { members, result } => Ok((members, result)),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn session_view(&self, id: u64) -> Result<Option<SessionView>, EngineError> {
        match self.call(&RpcRequest::SessionGet { id }, Pick::Primary)? {
            RpcResponse::Session(view) => Ok(view),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn session_delete(&self, id: u64, obs: &dyn Observer) -> Result<bool, EngineError> {
        let _span = obs.span("rpc.session_delete");
        match self.call(&RpcRequest::SessionDelete { id }, Pick::Primary)? {
            RpcResponse::SessionDeleted(existed) => Ok(existed),
            RpcResponse::Error(fault) => Err(Self::fault_to_error(fault)),
            other => Err(EngineError::Unavailable(format!(
                "shard {}: mismatched response {other:?}",
                self.set.shard
            ))),
        }
    }

    fn mutate_graph(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> Result<MutationOutcome, EngineError> {
        let _span = obs.span("rpc.mutate_graph");
        self.broadcast_mutation(insert, delete)
    }

    fn graph_epoch(&self) -> u64 {
        self.fetch_stats().map(|s| s.graph_epoch).unwrap_or(0)
    }

    fn session_count(&self) -> usize {
        self.fetch_stats()
            .map(|s| s.session_count as usize)
            .unwrap_or(0)
    }

    fn cache_stats(&self) -> CacheStats {
        self.fetch_stats().map(|s| s.cache).unwrap_or_default()
    }

    fn wal_errors(&self) -> u64 {
        self.fetch_stats().map(|s| s.wal_errors).unwrap_or(0)
    }
}
