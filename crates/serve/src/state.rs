//! Shared service state: the engine router, the metrics registry, and
//! the serving configuration.
//!
//! Everything *per graph* — precomputation, the result cache, warm
//! sessions, durable-store glue — lives in [`approxrank_engine::Engine`];
//! the state here owns one [`Router`] over those engines plus the
//! transport-level registries the handlers share.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use approxrank_engine::{CacheStats, CachedResult, EngineConfig};
use approxrank_exec::{ExecStats, Executor};
use approxrank_graph::{DiGraph, PartitionStrategy};
use approxrank_rpc::RemoteConfig;
use approxrank_store::FsyncPolicy;
use approxrank_trace::{logging, TraceRing};

use crate::metrics::Metrics;
use crate::router::Router;
use crate::tenant::TenantGovernor;

/// File name of the slow-query log under the data dir.
pub const SLOW_LOG_FILE: &str = "slow_requests.jsonl";

/// Tunables for [`crate::Server`], mirrored by the `subrank serve` flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Total worker lanes handling connections (including the thread
    /// that calls `serve`); 1 means a single serving lane.
    pub threads: usize,
    /// Total result-cache entries across all shards.
    pub cache_entries: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Per-connection read/write timeout.
    pub request_timeout: Duration,
    /// Connections queued between the acceptor and the workers before
    /// new arrivals are shed with 503.
    pub accept_queue: usize,
    /// When set, sessions are made durable: lifecycle events go to a WAL
    /// in this directory, a background thread snapshots periodically, and
    /// boot recovers whatever a previous process left behind.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy (only meaningful with `data_dir`).
    pub fsync: FsyncPolicy,
    /// How often the background snapshotter folds the WAL into a fresh
    /// snapshot (only meaningful with `data_dir`).
    pub snapshot_interval: Duration,
    /// Engines the graph is partitioned across. 1 (the default) serves
    /// the whole graph from one engine, exactly as before sharding
    /// existed.
    pub shards: usize,
    /// How nodes are assigned to shards (only meaningful with
    /// `shards > 1`).
    pub partition: PartitionStrategy,
    /// Slow-query threshold in milliseconds: a finished request whose
    /// wall-clock time is `>=` this is counted in `/metrics` and (with
    /// `data_dir`) appended to [`SLOW_LOG_FILE`]. `None` disables the
    /// slow log; `Some(0)` captures every request.
    pub slow_ms: Option<u64>,
    /// How many completed request traces `GET /debug/requests` keeps.
    pub trace_ring: usize,
    /// Remote mode: one entry per shard, each a replica address list
    /// (`host:port`). Empty (the default) keeps every engine in-process.
    /// When non-empty, `shards`/`data_dir` are ignored — the shard
    /// servers own partitioning-by-assignment and persistence.
    pub remote_shards: Vec<Vec<String>>,
    /// RPC transport tunables (timeouts, retry budget, health-check
    /// cadence). Only meaningful with `remote_shards`.
    pub rpc: RemoteConfig,
    /// Per-tenant concurrency quota for the solving (`POST`) endpoints.
    /// `0` (the default) disables admission control entirely — no
    /// governor is built and no request is ever queued or shed.
    pub tenant_quota: usize,
    /// Requests a tenant may queue while over quota before further
    /// arrivals are shed immediately with 429 (only meaningful with
    /// `tenant_quota > 0`). A queued request waits at most
    /// `request_timeout` for a slot.
    pub tenant_queue: usize,
    /// Page labels for `POST /keyword` keyword resolution: a text file
    /// with one label per line, line `i` naming page `i`. Without it,
    /// keywords match against generated `page-<i>` labels.
    pub labels: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 2,
            cache_entries: 4096,
            max_body: 1 << 20,
            request_timeout: Duration::from_millis(5_000),
            accept_queue: 128,
            data_dir: None,
            fsync: FsyncPolicy::Interval(Duration::from_millis(100)),
            snapshot_interval: Duration::from_secs(30),
            shards: 1,
            partition: PartitionStrategy::Range,
            slow_ms: None,
            trace_ring: 128,
            remote_shards: Vec::new(),
            rpc: RemoteConfig::default(),
            tenant_quota: 0,
            tenant_queue: 16,
            labels: None,
        }
    }
}

/// Cache key for one `POST /keyword` answer. The graph epoch the answer
/// was solved under is stored beside the value, not in the key, so a
/// newer answer replaces a stale one in place (see [`KeywordCache`]).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct KeywordKey {
    /// The ranked membership (sorted, deduped).
    pub members: Vec<u32>,
    /// The resolved base set (sorted, deduped global ids).
    pub base: Vec<u32>,
    /// `f64::to_bits` of the damping factor.
    pub damping_bits: u64,
    /// `f64::to_bits` of the convergence tolerance.
    pub tolerance_bits: u64,
}

/// A cached keyword answer and the shard count it was served with.
pub type KeywordAnswer = (CachedResult, usize);

/// One slot: the graph epoch of the answer, its recency stamp, and the
/// answer.
struct KeywordEntry {
    epoch: u64,
    stamp: u64,
    answer: KeywordAnswer,
}

struct KeywordCacheInner {
    map: HashMap<KeywordKey, KeywordEntry>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

/// A small LRU for served keyword answers. The engine's result cache
/// cannot hold these — its key has no room for a base set — so the serve
/// layer owns them: same capacity philosophy, approximate LRU (evict the
/// least-recently-stamped entry on overflow), and the engine cache's
/// epoch rule: a lookup at any other epoch misses, an insert at a newer
/// epoch replaces the entry in place, and an older insert never rolls it
/// back.
pub struct KeywordCache {
    capacity: usize,
    inner: Mutex<KeywordCacheInner>,
}

impl KeywordCache {
    /// A cache holding at most `capacity` keyword answers.
    pub fn new(capacity: usize) -> KeywordCache {
        KeywordCache {
            capacity: capacity.max(1),
            inner: Mutex::new(KeywordCacheInner {
                map: HashMap::new(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Looks up `key` as solved under graph `epoch`, refreshing its
    /// recency on a hit. The cached value carries the shard count of the
    /// original answer so a hit's response body differs from the solve
    /// only in its `"cached"` flag.
    pub fn get(&self, key: &KeywordKey, epoch: u64) -> Option<KeywordAnswer> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        match inner.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.stamp = stamp;
                let answer = entry.answer.clone();
                inner.hits += 1;
                Some(answer)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores an answer solved under graph `epoch`. An entry for the same
    /// key under an older (or the same) epoch is replaced in place; one
    /// under a newer epoch is kept. A new key evicts the
    /// least-recently-used entry when full.
    pub fn insert(&self, key: KeywordKey, epoch: u64, answer: KeywordAnswer) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner.map.get_mut(&key) {
            if entry.epoch <= epoch {
                *entry = KeywordEntry {
                    epoch,
                    stamp,
                    answer,
                };
            }
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            KeywordEntry {
                epoch,
                stamp,
                answer,
            },
        );
    }

    /// `(hits, misses, entries)` for `/metrics`.
    pub fn stats(&self) -> (u64, u64, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.hits, inner.misses, inner.map.len())
    }
}

/// Everything the request handlers share. One instance per server,
/// behind an `Arc`.
pub struct AppState {
    /// The engine router: one global engine, or one engine per shard.
    pub router: Router,
    /// Counters and trace aggregates behind `/metrics`.
    pub metrics: Metrics,
    /// The configuration the server was started with.
    pub config: ServeConfig,
    /// The worker-lane executor, installed by the server at startup so
    /// `/metrics` can expose `pool_*` telemetry.
    pub pool: OnceLock<Arc<Executor>>,
    /// The last N completed request traces, served by
    /// `GET /debug/requests`.
    pub traces: TraceRing,
    /// Append handle for the slow-query JSONL log (open only when both
    /// `slow_ms` and `data_dir` are configured).
    pub slow_log: Option<Mutex<File>>,
    /// Page labels for keyword resolution, line `i` naming page `i`
    /// (`None` when no labels file was configured — keywords then match
    /// generated `page-<i>` labels).
    pub labels: Option<Vec<String>>,
    /// Served `POST /keyword` answers (the engine's result cache cannot
    /// key a base set).
    pub keyword_cache: KeywordCache,
    /// Per-tenant admission control, present only with
    /// [`ServeConfig::tenant_quota`] `> 0`.
    pub tenants: Option<TenantGovernor>,
}

impl AppState {
    /// Builds the state for a graph: partitions it per `config` (a shard
    /// count of 1 keeps the whole graph on one engine), or — when
    /// `remote_shards` is set — fronts out-of-process shard servers
    /// instead. Only the remote wiring can fail (misconfigured replica
    /// lists, a reachable replica serving the wrong graph).
    pub fn new(graph: DiGraph, config: ServeConfig) -> Result<Self, String> {
        let labels = load_labels(&config, graph.num_nodes())?;
        let engine_config = EngineConfig {
            cache_entries: config.cache_entries,
            fsync: config.fsync,
            ..EngineConfig::default()
        };
        let router = if !config.remote_shards.is_empty() {
            Router::remote(
                &graph,
                config.partition,
                &config.remote_shards,
                config.rpc.clone(),
            )?
        } else if config.shards <= 1 {
            Router::single(graph, engine_config)
        } else {
            Router::sharded(&graph, config.shards, config.partition, engine_config)
        };
        let slow_log = open_slow_log(&config);
        let tenants = (config.tenant_quota > 0).then(|| {
            TenantGovernor::new(
                config.tenant_quota,
                config.tenant_queue,
                config.request_timeout,
            )
        });
        Ok(AppState {
            router,
            metrics: Metrics::new(),
            traces: TraceRing::new(config.trace_ring),
            slow_log,
            labels,
            keyword_cache: KeywordCache::new(config.cache_entries),
            tenants,
            config,
            pool: OnceLock::new(),
        })
    }

    /// Snapshot of the serving pool's lifetime telemetry, if a server has
    /// installed its executor.
    pub fn pool_stats(&self) -> Option<ExecStats> {
        self.pool.get().map(|exec| exec.stats())
    }

    /// Result-cache counters summed across every engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.router.cache_stats()
    }

    /// Open session count across every engine.
    pub fn session_count(&self) -> usize {
        self.router.session_count()
    }
}

/// Reads the labels file when one is configured: one label per line,
/// line `i` naming page `i`. A missing or short/long file is a hard boot
/// error — serving keyword answers against misaligned labels would be
/// silently wrong, the one failure mode worse than not booting.
fn load_labels(config: &ServeConfig, nodes: usize) -> Result<Option<Vec<String>>, String> {
    let Some(path) = &config.labels else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read labels file {}: {e}", path.display()))?;
    let labels: Vec<String> = text.lines().map(str::to_string).collect();
    if labels.len() != nodes {
        return Err(format!(
            "labels file {} has {} lines but the graph has {} nodes",
            path.display(),
            labels.len(),
            nodes
        ));
    }
    Ok(Some(labels))
}

/// Opens the slow-query log in append mode when the config asks for one.
/// Failures degrade to "no slow log" with a warning — observability
/// must never stop the service from booting.
fn open_slow_log(config: &ServeConfig) -> Option<Mutex<File>> {
    let dir = config.data_dir.as_ref()?;
    config.slow_ms?;
    if let Err(e) = std::fs::create_dir_all(dir) {
        logging::log(
            logging::Level::Warn,
            "serve",
            &format!(
                "cannot create data dir {} for the slow log: {e}",
                dir.display()
            ),
        );
        return None;
    }
    match OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(SLOW_LOG_FILE))
    {
        Ok(file) => Some(Mutex::new(file)),
        Err(e) => {
            logging::log(
                logging::Level::Warn,
                "serve",
                &format!("cannot open slow-query log under {}: {e}", dir.display()),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u32) -> KeywordKey {
        KeywordKey {
            members: vec![tag, tag + 1],
            base: vec![tag],
            damping_bits: 0.85f64.to_bits(),
            tolerance_bits: 1e-5f64.to_bits(),
        }
    }

    fn answer(tag: usize) -> KeywordAnswer {
        let result = CachedResult {
            scores: Arc::new(vec![(tag as u32, 0.5)]),
            lambda: Some(0.5),
            iterations: tag,
            converged: true,
            estimate: None,
        };
        (result, 1)
    }

    #[test]
    fn keyword_lookup_at_another_epoch_misses() {
        let cache = KeywordCache::new(4);
        cache.insert(key(1), 3, answer(1));
        assert_eq!(cache.get(&key(1), 3), Some(answer(1)));
        assert_eq!(cache.get(&key(1), 2), None);
        assert_eq!(cache.get(&key(1), 4), None);
        assert_eq!(cache.stats(), (1, 2, 1));
    }

    #[test]
    fn newer_keyword_insert_replaces_in_place() {
        let cache = KeywordCache::new(4);
        cache.insert(key(1), 0, answer(1));
        cache.insert(key(2), 0, answer(2));
        cache.insert(key(1), 1, answer(10));
        assert_eq!(cache.stats().2, 2, "the stale entry took no new slot");
        assert_eq!(cache.get(&key(1), 1), Some(answer(10)));
        assert_eq!(cache.get(&key(1), 0), None);
        assert_eq!(cache.get(&key(2), 0), Some(answer(2)));
    }

    #[test]
    fn older_keyword_insert_never_rolls_back() {
        let cache = KeywordCache::new(4);
        cache.insert(key(1), 5, answer(5));
        cache.insert(key(1), 4, answer(4));
        assert_eq!(cache.get(&key(1), 5), Some(answer(5)));
        assert_eq!(cache.get(&key(1), 4), None);
        assert_eq!(cache.stats().2, 1);
    }

    #[test]
    fn keyword_cache_evicts_the_least_recently_used() {
        let cache = KeywordCache::new(2);
        cache.insert(key(1), 0, answer(1));
        cache.insert(key(2), 0, answer(2));
        assert!(cache.get(&key(1), 0).is_some());
        cache.insert(key(3), 0, answer(3));
        assert!(cache.get(&key(2), 0).is_none(), "key 2 was least recent");
        assert!(cache.get(&key(1), 0).is_some());
        assert!(cache.get(&key(3), 0).is_some());
    }
}
