//! The [`Engine`]: per-graph ranking state behind a narrow surface.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use approxrank_core::baselines::{LocalPageRank, Lpr2};
use approxrank_core::{
    ApproxRank, GlobalAggregates, IdealRank, StochasticComplementation, SubgraphRanker,
    SubgraphSession,
};
use approxrank_delta::{DeltaGraph, DeltaShardView, MutationSummary};
use approxrank_graph::{DiGraph, NodeId, NodeSet, Shard, Subgraph, SubgraphSource};
use approxrank_pagerank::{pagerank, PageRankOptions};
use approxrank_store::{FsyncPolicy, GraphMutationRecord, SessionStore, WalEvent};
use approxrank_trace::{Observer, Stopwatch};
use approxrank_walk::{LocalPushRank, McApproxRank, McSession};

use crate::algorithm::Algorithm;
use crate::batch::{BatchScheduler, BatchStats, KeywordKey};
use crate::cache::{cache_key, estimator_bits, CacheKey, CacheStats, CachedResult, ShardedCache};

/// Tunables an [`Engine`] is built with.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Total result-cache entries across the cache's shards.
    pub cache_entries: usize,
    /// WAL fsync policy, used when a store is opened.
    pub fsync: FsyncPolicy,
    /// First session id this engine hands out (must be ≥ 1).
    pub first_session_id: u64,
    /// Distance between consecutive session ids. A router running `S`
    /// engines gives engine `k` `first = k+1, stride = S`, so ids are
    /// disjoint and `(id-1) % S` recovers the owner.
    pub session_id_stride: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_entries: 4096,
            fsync: FsyncPolicy::Interval(std::time::Duration::from_millis(100)),
            first_session_id: 1,
            session_id_stride: 1,
        }
    }
}

/// Global PageRank scores tagged with the graph they were computed on.
type ScoresOn = (Weak<DiGraph>, Arc<Vec<f64>>);

/// What the engine ranks over.
pub(crate) enum Backend {
    /// The whole global graph behind a live mutation overlay: every
    /// algorithm is available, and graph mutation lands here.
    Global {
        /// The live graph: immutable CSR base plus delta overlay.
        delta: Arc<DeltaGraph>,
        /// Global PageRank scores for IdealRank, tagged with the
        /// materialized graph they were computed on (see
        /// [`global_scores_of`]). The tag is weak so retired graphs are
        /// freed; it still pins the allocation, so a new graph can never
        /// reuse its address.
        global_scores: Mutex<Option<ScoresOn>>,
    },
    /// One static shard of a partitioned graph: ApproxRank and its
    /// estimators only; mutation is rejected.
    Shard(Arc<Shard>),
    /// One shard view over a shared live [`DeltaGraph`]: the same
    /// algorithm restriction as `Shard`, but mutations applied to the
    /// shared delta propagate to every shard engine built over it.
    DeltaShard(Arc<DeltaShardView>),
}

/// The warm solver behind one open session: exact power iteration or the
/// Monte-Carlo estimator tier.
pub enum SessionSolver {
    /// Converged warm-start power iteration
    /// ([`approxrank_core::SubgraphSession`]).
    Exact(SubgraphSession),
    /// Seeded Monte-Carlo visit counts with incremental re-walks
    /// ([`approxrank_walk::McSession`]) — answers carry an `estimate`
    /// block and membership edits re-walk only sources near the edit.
    Mc(McSession),
}

impl SessionSolver {
    /// Current members in local-id order.
    pub fn members(&self) -> &[u32] {
        match self {
            SessionSolver::Exact(s) => s.members(),
            SessionSolver::Mc(s) => s.members(),
        }
    }

    /// Work the most recent solve took (iterations, or sources walked).
    pub fn last_iterations(&self) -> usize {
        match self {
            SessionSolver::Exact(s) => s.last_iterations(),
            SessionSolver::Mc(s) => s.sources(),
        }
    }

    /// The last persisted-form solution (exact sessions only — estimator
    /// sessions are ephemeral and rebuild their store on boot).
    pub fn last_solution(&self) -> Option<(&[(u32, f64)], f64)> {
        match self {
            SessionSolver::Exact(s) => s.last_solution(),
            SessionSolver::Mc(_) => None,
        }
    }

    fn add_pages_via(&mut self, source: &dyn SubgraphSource, pages: &[NodeId]) {
        match self {
            SessionSolver::Exact(s) => s.add_pages_via(source, pages),
            SessionSolver::Mc(s) => s.add_pages_via(source, pages),
        }
    }

    fn remove_pages_via(&mut self, source: &dyn SubgraphSource, pages: &[NodeId]) {
        match self {
            SessionSolver::Exact(s) => s.remove_pages_via(source, pages),
            SessionSolver::Mc(s) => s.remove_pages_via(source, pages),
        }
    }

    fn subgraph(&self) -> &approxrank_graph::Subgraph {
        match self {
            SessionSolver::Exact(s) => s.subgraph(),
            SessionSolver::Mc(s) => s.subgraph(),
        }
    }

    /// Whether a mutation whose touched-page set is `touched` (sorted)
    /// could change this solver's answer: true when a touched page is a
    /// member or a boundary in-edge source. Everything a Λ-collapse
    /// solve reads reduces to those pages plus the global aggregates —
    /// aggregate changes are handled separately via the structural flag.
    pub fn depends_on(&self, touched: &[u32]) -> bool {
        intersects_sorted(self.members(), touched)
            || intersects_sorted(&self.subgraph().boundary().in_sources, touched)
    }

    /// Re-extracts the current membership after a graph mutation and
    /// warm-restarts the solver state (exact sessions keep their last
    /// scores as the next warm start; estimator sessions re-walk only
    /// sources whose rows changed).
    fn refresh_via(&mut self, source: &dyn SubgraphSource) {
        match self {
            SessionSolver::Exact(s) => s.refresh_via(source),
            SessionSolver::Mc(s) => s.refresh_via(source),
        }
    }

    fn solve(&mut self, obs: &dyn Observer) -> approxrank_core::RankScores {
        match self {
            SessionSolver::Exact(s) => s.solve(),
            SessionSolver::Mc(s) => s.solve_observed(obs),
        }
    }
}

/// One open session: the warm solver plus the cache key of the last
/// membership it published (invalidated on mutation).
pub struct EngineSession {
    /// The warm-start solver.
    pub solver: SessionSolver,
    /// Cache key for the membership at the last solve, if any.
    pub published_key: Option<CacheKey>,
    /// The algorithm the session runs (`approxrank` or `mc`).
    pub algorithm: Algorithm,
    /// Estimator parameters (ignored by exact sessions).
    pub estimator: EstimatorOptions,
    /// Damping the session was opened with (sessions pin their options).
    pub damping: f64,
    /// Tolerance the session was opened with.
    pub tolerance: f64,
}

/// Parameters of the estimator tier, carried on every request (exact
/// algorithms ignore them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatorOptions {
    /// Monte-Carlo walks per source page.
    pub walks: u32,
    /// Accuracy target: the push estimator's residual budget, echoed in
    /// Monte-Carlo results.
    pub epsilon: f64,
    /// Monte-Carlo run seed (same seed ⇒ bitwise-identical estimates).
    pub seed: u64,
}

impl Default for EstimatorOptions {
    fn default() -> EstimatorOptions {
        EstimatorOptions {
            walks: approxrank_walk::counts::DEFAULT_WALKS,
            epsilon: approxrank_walk::DEFAULT_EPSILON,
            seed: approxrank_walk::counts::DEFAULT_SEED,
        }
    }
}

/// A validated ranking request: members sorted, deduplicated, and all
/// `< N` (the transport layer owns wire-format validation).
#[derive(Clone, Debug, PartialEq)]
pub struct RankRequest {
    /// Sorted, deduplicated member ids, a proper subset of the graph.
    pub members: Vec<u32>,
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Damping factor in `(0, 1)`.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Estimator parameters (used when `algorithm` is `mc` or `push`).
    pub estimator: EstimatorOptions,
}

impl RankRequest {
    /// The cache-key fingerprint of this request's estimator parameters
    /// (0 for exact algorithms).
    pub fn estimator_fingerprint(&self) -> u64 {
        if self.algorithm.is_estimator() {
            estimator_bits(
                self.estimator.walks,
                self.estimator.epsilon,
                self.estimator.seed,
            )
        } else {
            0
        }
    }
}

/// A validated keyword-ranking request: ObjectRank-style personalized
/// ApproxRank whose teleport lands uniformly on a *base set* of pages
/// (the pages matching a keyword). `members` names the subgraph to rank
/// within; base pages outside it contribute their teleport share to
/// `Λ`. Members follow the same contract as [`RankRequest::members`];
/// the base set must be sorted, deduplicated, non-empty, and within the
/// global graph.
#[derive(Clone, Debug, PartialEq)]
pub struct KeywordRequest {
    /// Sorted, deduplicated member ids, a proper subset of the graph.
    pub members: Vec<u32>,
    /// Sorted, deduplicated, non-empty base-set page ids (global).
    pub base: Vec<u32>,
    /// Damping factor in `(0, 1)`.
    pub damping: f64,
    /// Convergence tolerance.
    pub tolerance: f64,
}

/// A ranking answer plus whether it came from the cache.
#[derive(Clone, Debug)]
pub struct RankOutcome {
    /// The scores (identical whether cached or freshly solved).
    pub result: CachedResult,
    /// `true` when served from the result cache.
    pub cached: bool,
}

/// What one applied graph-mutation batch did, for the transport layer's
/// response and the mutation metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Graph epoch after the batch (unchanged when the batch no-opped).
    pub epoch: u64,
    /// Edges actually inserted (idempotent re-inserts excluded).
    pub inserted: usize,
    /// Edges actually deleted (absent deletes excluded).
    pub deleted: usize,
    /// Pages whose rank inputs the batch could have changed.
    pub touched_pages: usize,
    /// Whether the batch changed the global aggregates (`N` or the
    /// dangling count) — such a batch invalidates every cached answer.
    pub structural: bool,
    /// Warm sessions re-solved because the batch intersected them.
    pub sessions_repaired: usize,
}

/// Why an engine refused an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The request is invalid for this engine (HTTP 400).
    BadRequest(String),
    /// No session with that id (HTTP 404).
    NoSuchSession(u64),
    /// The engine cannot currently answer — a remote engine's replicas
    /// are all unreachable, or the retry budget ran out (HTTP 503).
    /// Retryable by the caller; the request itself is well-formed.
    Unavailable(String),
}

/// A read-only snapshot of one session, for `GET /session/{id}`.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionView {
    /// Current members in ascending order.
    pub members: Vec<u32>,
    /// Iterations the most recent solve took.
    pub last_iterations: usize,
    /// Damping the session was opened with.
    pub damping: f64,
    /// Tolerance the session was opened with.
    pub tolerance: f64,
    /// The last solution (`(page, score)` pairs plus Λ), if any.
    pub solution: Option<(Vec<(u32, f64)>, f64)>,
}

/// Per-graph ranking state: precomputation, result cache, warm session
/// table, and (optionally) a durable store.
pub struct Engine {
    pub(crate) backend: Backend,
    pub(crate) config: EngineConfig,
    /// The sharded LRU result cache. Stores only cold solves.
    pub(crate) cache: ShardedCache,
    pub(crate) sessions: Mutex<HashMap<u64, Arc<Mutex<EngineSession>>>>,
    pub(crate) next_session_id: AtomicU64,
    pub(crate) store: OnceLock<Arc<SessionStore>>,
    /// WAL appends that failed (disk trouble); surfaced on `/metrics`.
    pub(crate) wal_errors: AtomicU64,
    /// Coalesces concurrent identical cold rank and keyword solves.
    pub(crate) batch: BatchScheduler,
}

/// Whether two sorted id slices share an element (two-pointer merge).
fn intersects_sorted(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

pub(crate) fn options_for(damping: f64, tolerance: f64) -> PageRankOptions {
    PageRankOptions::paper()
        .with_damping(damping)
        .with_tolerance(tolerance)
}

/// Global PageRank scores of `graph` for IdealRank, computed once per
/// materialized graph: a mutation makes [`DeltaGraph::compacted`] hand
/// out a new graph, which retires the previous vector lazily.
fn global_scores_of(
    cache: &Mutex<Option<ScoresOn>>,
    graph: &Arc<DiGraph>,
    obs: &dyn Observer,
) -> Arc<Vec<f64>> {
    let tag = Arc::downgrade(graph);
    if let Some((on, scores)) = &*cache.lock().unwrap_or_else(|e| e.into_inner()) {
        if Weak::ptr_eq(on, &tag) {
            return Arc::clone(scores);
        }
    }
    let scores = {
        let _span = obs.span("serve.global_pagerank");
        Arc::new(pagerank(graph, &PageRankOptions::paper().with_tolerance(1e-10)).scores)
    };
    *cache.lock().unwrap_or_else(|e| e.into_inner()) = Some((tag, Arc::clone(&scores)));
    scores
}

fn to_cached(members: &[u32], result: approxrank_core::RankScores) -> CachedResult {
    CachedResult {
        scores: Arc::new(
            members
                .iter()
                .copied()
                .zip(result.local_scores.iter().copied())
                .collect(),
        ),
        lambda: result.lambda_score,
        iterations: result.iterations,
        converged: result.converged,
        estimate: result.estimate,
    }
}

impl Engine {
    /// An engine over the whole graph: every algorithm available, and
    /// the graph is live — [`Engine::mutate_graph`] applies edge batches
    /// through a fresh [`DeltaGraph`] wrapped around `graph`.
    pub fn new_global(graph: Arc<DiGraph>, config: EngineConfig) -> Self {
        Engine::new_delta(Arc::new(DeltaGraph::new(graph)), config)
    }

    /// An engine over an existing live graph (shared with other owners,
    /// e.g. a test harness mutating it out-of-band).
    pub fn new_delta(delta: Arc<DeltaGraph>, config: EngineConfig) -> Self {
        Engine::with_backend(
            Backend::Global {
                delta,
                global_scores: Mutex::new(None),
            },
            config,
        )
    }

    /// An engine over one shard of a partitioned graph: ApproxRank only,
    /// bit-identical to a global engine for shard-resident subgraphs.
    pub fn new_shard(shard: Arc<Shard>, config: EngineConfig) -> Self {
        Engine::with_backend(Backend::Shard(shard), config)
    }

    /// An engine over one shard view of a shared live [`DeltaGraph`]:
    /// shard-restricted like [`Engine::new_shard`], but a mutation
    /// applied to the shared delta is visible to every engine built over
    /// it (each engine absorbs the summary via
    /// [`Engine::absorb_mutation`]).
    pub fn new_delta_shard(view: Arc<DeltaShardView>, config: EngineConfig) -> Self {
        Engine::with_backend(Backend::DeltaShard(view), config)
    }

    fn with_backend(backend: Backend, config: EngineConfig) -> Self {
        assert!(config.first_session_id >= 1, "session ids start at 1");
        assert!(config.session_id_stride >= 1, "stride must be positive");
        Engine {
            cache: ShardedCache::new(config.cache_entries),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU64::new(config.first_session_id),
            store: OnceLock::new(),
            wal_errors: AtomicU64::new(0),
            batch: BatchScheduler::new(),
            backend,
            config,
        }
    }

    /// The extraction source this engine ranks through.
    pub(crate) fn source(&self) -> &dyn SubgraphSource {
        match &self.backend {
            Backend::Global { delta, .. } => delta.as_ref(),
            Backend::Shard(shard) => shard.as_ref(),
            Backend::DeltaShard(view) => view.as_ref(),
        }
    }

    /// The live graph behind this engine, when it has one (global and
    /// delta-shard backends; `None` for a static shard).
    pub fn delta(&self) -> Option<&Arc<DeltaGraph>> {
        match &self.backend {
            Backend::Global { delta, .. } => Some(delta),
            Backend::Shard(_) => None,
            Backend::DeltaShard(view) => Some(view.delta()),
        }
    }

    /// The current graph epoch (0 on a static shard engine and before
    /// the first mutation).
    pub fn graph_epoch(&self) -> u64 {
        self.delta().map_or(0, |d| d.epoch())
    }

    /// The effective epoch of a member set: the newest epoch at which a
    /// mutation touched any of its pages (or changed the global
    /// aggregates). Cache keys carry this, so a mutation retires exactly
    /// the entries it could have changed.
    pub fn effective_epoch(&self, members: &[u32]) -> u64 {
        self.delta().map_or(0, |d| d.effective_epoch(members))
    }

    /// `N`, the global node count (even for a shard engine).
    pub fn global_nodes(&self) -> usize {
        self.source().global_nodes()
    }

    /// Dangling pages in the whole global graph.
    pub fn num_dangling(&self) -> usize {
        self.source().num_dangling()
    }

    /// Whether this engine can rank subgraphs containing `node`.
    pub fn owns(&self, node: NodeId) -> bool {
        self.source().owns(node)
    }

    /// The shard id, when this is a shard engine.
    pub fn shard_id(&self) -> Option<u32> {
        match &self.backend {
            Backend::Global { .. } => None,
            Backend::Shard(shard) => Some(shard.id()),
            Backend::DeltaShard(view) => Some(view.shard()),
        }
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops a cache entry (the router uses this to keep merged
    /// cross-shard answers coherent with per-shard invalidations).
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        self.cache.invalidate(key)
    }

    fn check_owned(&self, members: &[u32]) -> Result<(), EngineError> {
        let shard_id = match &self.backend {
            Backend::Global { .. } => return Ok(()),
            Backend::Shard(shard) => shard.id(),
            Backend::DeltaShard(view) => view.shard(),
        };
        for &m in members {
            if !self.source().owns(m) {
                return Err(EngineError::BadRequest(format!(
                    "page {m} is not on shard {shard_id}"
                )));
            }
        }
        Ok(())
    }

    /// Extracts `members` through this engine's source together with
    /// the two global scalars the Λ-collapse consumes. A live graph
    /// reads all three under one lock, straight through its overlay —
    /// no CSR rebuild, however recent the last mutation.
    fn extract_aggregated(&self, members: &[u32]) -> (Subgraph, GlobalAggregates) {
        let (subgraph, num_nodes, num_dangling) = match &self.backend {
            Backend::Global { delta, .. } => delta.extract_with_scalars(members),
            Backend::DeltaShard(view) => view.delta().extract_with_scalars(members),
            Backend::Shard(shard) => {
                let n = shard.global_nodes();
                let nodes = NodeSet::from_sorted(n, members.iter().copied());
                (shard.extract_nodes(nodes), n, shard.num_dangling())
            }
        };
        let agg = GlobalAggregates {
            num_nodes,
            num_dangling,
        };
        (subgraph, agg)
    }

    /// Runs the cold solve with the same constructors and entry points
    /// as the CLI, so served scores match offline scores bitwise. The
    /// Λ-collapse family (ApproxRank and its `mc`/`push` estimators)
    /// consumes only the subgraph and [`GlobalAggregates`], so it runs
    /// on every backend through [`Self::extract_aggregated`] — bitwise
    /// what a solve against the materialized graph would produce. The
    /// other algorithms need the whole graph: global backend only, on
    /// [`DeltaGraph::compacted`].
    fn solve_cold(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<CachedResult, EngineError> {
        let options = options_for(params.damping, params.tolerance);
        let scores = match params.algorithm {
            Algorithm::ApproxRank | Algorithm::Mc | Algorithm::Push => {
                self.check_owned(&params.members)?;
                let (subgraph, agg) = self.extract_aggregated(&params.members);
                match params.algorithm {
                    Algorithm::Mc => McApproxRank {
                        options,
                        walks: params.estimator.walks,
                        epsilon: params.estimator.epsilon,
                        seed: params.estimator.seed,
                    }
                    .rank_aggregated_observed(agg, &subgraph, obs),
                    Algorithm::Push => LocalPushRank {
                        options,
                        epsilon: params.estimator.epsilon,
                    }
                    .rank_aggregated_observed(agg, &subgraph, obs),
                    _ => ApproxRank::new(options)
                        .rank_subgraph_aggregated_observed(agg, &subgraph, obs),
                }
            }
            Algorithm::IdealRank | Algorithm::Sc | Algorithm::Local | Algorithm::Lpr2 => {
                let Backend::Global {
                    delta,
                    global_scores,
                } = &self.backend
                else {
                    return Err(EngineError::BadRequest(format!(
                        "algorithm {:?} is unavailable on a shard engine (approxrank, mc, and push only)",
                        params.algorithm.name()
                    )));
                };
                let graph = delta.compacted();
                let ranker: Box<dyn SubgraphRanker> = match params.algorithm {
                    Algorithm::IdealRank => Box::new(IdealRank {
                        options,
                        global_scores: global_scores_of(global_scores, &graph, obs),
                    }),
                    Algorithm::Sc => Box::new(StochasticComplementation {
                        options,
                        ..StochasticComplementation::default()
                    }),
                    Algorithm::Local => Box::new(LocalPageRank::new(options)),
                    _ => Box::new(Lpr2::new(options)),
                };
                let nodes = NodeSet::from_sorted(graph.num_nodes(), params.members.iter().copied());
                let subgraph = Subgraph::extract(graph.as_ref(), nodes);
                ranker.rank_observed(&graph, &subgraph, obs)
            }
        };
        Ok(to_cached(&params.members, scores))
    }

    /// Ranks a member list, serving from the cache when possible. Only
    /// cold solves ever enter the cache.
    pub fn rank(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<RankOutcome, EngineError> {
        let key = cache_key(
            params.algorithm.code(),
            params.damping,
            params.tolerance,
            params.estimator_fingerprint(),
            self.effective_epoch(&params.members),
            &params.members,
        );
        let probe = Stopwatch::start(obs);
        let hit = {
            let _probe_span = obs.span("engine.cache_probe");
            self.cache.get(&key)
        };
        obs.counter("engine_cache_probe_us", probe.elapsed_ns() / 1_000);
        if let Some(hit) = hit {
            return Ok(RankOutcome {
                result: hit,
                cached: true,
            });
        }
        // Coalesce concurrent identical cold requests: the first arrival
        // leads and solves; the rest wait for its bits.
        let (outcome, solved) = self.batch.rank.run(key.clone(), || {
            let _solve_span = obs.span("engine.solve");
            self.solve_cold(params, obs)
        });
        let result = outcome?;
        if !solved {
            return Ok(RankOutcome {
                result,
                cached: true,
            });
        }
        obs.counter("solve_iterations", result.iterations as u64);
        if let Some((evicted, _)) = self.cache.insert(key, result.clone()) {
            // An entry keyed under a superseded epoch was unreachable
            // already — a mutation had retired it; account it as stale
            // churn rather than working-set pressure.
            if evicted.epoch != self.effective_epoch(&evicted.members) {
                self.cache.record_stale_eviction();
            }
        }
        Ok(RankOutcome {
            result,
            cached: false,
        })
    }

    /// In-flight dedup counters (`batch_*` on `/metrics`).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch.stats()
    }

    /// Ranks a subgraph under a *keyword* personalization: ApproxRank's
    /// Λ-collapse solved with the ObjectRank teleport (uniform over the
    /// base set; base pages outside the membership feed `Λ`). Runs on
    /// any backend — the Λ-collapse consumes only the subgraph view and
    /// [`GlobalAggregates`], so shard answers match global answers
    /// bit-for-bit, exactly as for `/rank`. Concurrent *identical*
    /// queries (same epoch, options, membership, and base set) share one
    /// solve.
    ///
    /// The engine does **not** memoize keyword answers (the result cache
    /// is keyed by membership, which cannot carry a base set); callers
    /// that want a keyword cache key it on the full (base, members,
    /// epoch, options) tuple themselves.
    pub fn keyword_rank(
        &self,
        params: &KeywordRequest,
        obs: &dyn Observer,
    ) -> Result<CachedResult, EngineError> {
        if params.base.is_empty() {
            return Err(EngineError::BadRequest("keyword base set is empty".into()));
        }
        if !params.base.windows(2).all(|w| w[0] < w[1]) {
            return Err(EngineError::BadRequest(
                "keyword base set must be sorted and deduplicated".into(),
            ));
        }
        let n = self.global_nodes();
        let last = *params.base.last().expect("non-empty");
        if last as usize >= n {
            return Err(EngineError::BadRequest(format!(
                "base page {last} out of range (graph has {n} nodes)"
            )));
        }
        self.check_owned(&params.members)?;
        let key = KeywordKey {
            epoch: self.effective_epoch(&params.members),
            damping_bits: params.damping.to_bits(),
            tolerance_bits: params.tolerance.to_bits(),
            members: params.members.clone(),
            base: params.base.clone(),
        };
        let (outcome, solved) = self.batch.keyword.run(key, || {
            let _solve_span = obs.span("engine.keyword_solve");
            let options = options_for(params.damping, params.tolerance);
            let (subgraph, agg) = self.extract_aggregated(&params.members);
            let scores = ApproxRank::new(options).rank_keyword_aggregated_observed(
                agg,
                &subgraph,
                &params.base,
                obs,
            );
            Ok(to_cached(&params.members, scores))
        });
        let result = outcome?;
        if solved {
            obs.counter("solve_iterations", result.iterations as u64);
        }
        Ok(result)
    }

    /// The cache key a session's current membership occupies, at the
    /// membership's current effective epoch.
    pub(crate) fn session_key(&self, session: &EngineSession) -> CacheKey {
        let est = if session.algorithm.is_estimator() {
            estimator_bits(
                session.estimator.walks,
                session.estimator.epsilon,
                session.estimator.seed,
            )
        } else {
            0
        };
        cache_key(
            session.algorithm.code(),
            session.damping,
            session.tolerance,
            est,
            self.effective_epoch(session.solver.members()),
            session.solver.members(),
        )
    }

    /// Locks the session table, recovering from a poisoned lock (session
    /// state is only mutated under the per-session lock).
    pub(crate) fn lock_sessions(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Mutex<EngineSession>>>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open session count.
    pub fn session_count(&self) -> usize {
        self.lock_sessions().len()
    }

    /// Whether this engine owns session `id` under the configured id
    /// striding (regardless of whether the session currently exists).
    pub fn routes_session(&self, id: u64) -> bool {
        let stride = self.config.session_id_stride;
        id >= 1 && (id - 1) % stride == self.config.first_session_id - 1
    }

    fn find_session(&self, id: u64) -> Option<Arc<Mutex<EngineSession>>> {
        self.lock_sessions().get(&id).cloned()
    }

    /// Opens a session (`approxrank` exactly, or `mc` for the estimator
    /// tier), solves it cold, and returns the assigned id plus the first
    /// solution. Exact sessions are WAL-logged and survive restarts;
    /// `mc` sessions are ephemeral — their visit-count store is cheap to
    /// resample, so they simply do not come back after a reboot.
    pub fn session_create(
        &self,
        params: &RankRequest,
        obs: &dyn Observer,
    ) -> Result<(u64, CachedResult), EngineError> {
        let _span = obs.span("engine.session_create");
        if !matches!(params.algorithm, Algorithm::ApproxRank | Algorithm::Mc) {
            return Err(EngineError::BadRequest(format!(
                "sessions support only algorithms \"approxrank\" and \"mc\", got {:?}",
                params.algorithm.name()
            )));
        }
        let members = &params.members;
        let (damping, tolerance) = (params.damping, params.tolerance);
        self.check_owned(members)?;
        let nodes = NodeSet::from_sorted(self.global_nodes(), members.iter().copied());
        let solver = match params.algorithm {
            Algorithm::Mc => SessionSolver::Mc(McSession::with_source(
                self.source(),
                nodes,
                McApproxRank {
                    options: options_for(damping, tolerance),
                    walks: params.estimator.walks,
                    epsilon: params.estimator.epsilon,
                    seed: params.estimator.seed,
                },
            )),
            _ => SessionSolver::Exact(SubgraphSession::with_source(
                self.source(),
                nodes,
                options_for(damping, tolerance),
            )),
        };
        let mut session = EngineSession {
            solver,
            published_key: None,
            algorithm: params.algorithm,
            estimator: params.estimator,
            damping,
            tolerance,
        };
        let scores = {
            let _solve_span = obs.span("engine.solve");
            session.solver.solve(obs)
        };
        session.published_key = Some(self.session_key(&session));
        let result = to_cached(members, scores);
        obs.counter("solve_iterations", result.iterations as u64);
        let id = self
            .next_session_id
            .fetch_add(self.config.session_id_stride, Ordering::Relaxed);
        if !params.algorithm.is_estimator() {
            self.log_event(
                WalEvent::Create {
                    id,
                    damping,
                    tolerance,
                    members: members.to_vec(),
                },
                obs,
            );
            self.log_event(
                WalEvent::Solved {
                    id,
                    scores: result.scores.as_ref().clone(),
                    lambda: result.lambda.unwrap_or(0.0),
                    iterations: result.iterations as u64,
                },
                obs,
            );
        }
        self.lock_sessions()
            .insert(id, Arc::new(Mutex::new(session)));
        Ok((id, result))
    }

    /// Applies a membership edit and warm-start re-solves. Invalidates
    /// the cache keys of both the previous and the new membership, so a
    /// stale cold answer never outlives a mutation.
    pub fn session_update(
        &self,
        id: u64,
        add: &[u32],
        remove: &[u32],
        obs: &dyn Observer,
    ) -> Result<(Vec<u32>, CachedResult), EngineError> {
        let _span = obs.span("engine.session_update");
        let Some(entry) = self.find_session(id) else {
            return Err(EngineError::NoSuchSession(id));
        };
        self.check_owned(add)?;
        let mut session = entry.lock().unwrap_or_else(|e| e.into_inner());

        // Refuse an update that would empty the membership (`remove_pages`
        // would panic; the transport must answer 400 instead).
        {
            let drop: std::collections::HashSet<u32> = remove.iter().copied().collect();
            let survivors = session
                .solver
                .members()
                .iter()
                .filter(|m| !drop.contains(m))
                .count()
                + add
                    .iter()
                    .filter(|a| !session.solver.members().contains(a) && !drop.contains(a))
                    .count();
            if survivors == 0 {
                return Err(EngineError::BadRequest(
                    "update would empty the subgraph".into(),
                ));
            }
        }

        // The membership is about to change: whatever this session
        // published under its previous membership no longer describes a
        // live view.
        if let Some(key) = session.published_key.take() {
            self.cache.invalidate(&key);
        }
        let durable = !session.algorithm.is_estimator();
        if !add.is_empty() {
            session.solver.add_pages_via(self.source(), add);
            if durable {
                self.log_event(
                    WalEvent::AddPages {
                        id,
                        pages: add.to_vec(),
                    },
                    obs,
                );
            }
        }
        if !remove.is_empty() {
            session.solver.remove_pages_via(self.source(), remove);
            if durable {
                self.log_event(
                    WalEvent::RemovePages {
                        id,
                        pages: remove.to_vec(),
                    },
                    obs,
                );
            }
        }
        let scores = {
            let _solve_span = obs.span("engine.solve");
            session.solver.solve(obs)
        };
        // Also clear any cold `/rank` entry for the *new* membership: the
        // session now owns this view, and its next mutation must not
        // leave a stale mixture behind.
        let new_key = self.session_key(&session);
        self.cache.invalidate(&new_key);
        session.published_key = Some(new_key);

        let members = session.solver.members().to_vec();
        let result = to_cached(&members, scores);
        obs.counter("solve_iterations", result.iterations as u64);
        if durable {
            self.log_event(
                WalEvent::Solved {
                    id,
                    scores: result.scores.as_ref().clone(),
                    lambda: result.lambda.unwrap_or(0.0),
                    iterations: result.iterations as u64,
                },
                obs,
            );
        }
        Ok((members, result))
    }

    /// Applies one edge-mutation batch to the live graph: inserts first,
    /// then deletes, atomically behind the delta's epoch counter. The
    /// batch is WAL-logged, cached answers covering touched pages become
    /// unreachable (their key epoch is superseded), and warm sessions
    /// whose members or boundary in-sources intersect the touched set
    /// are re-extracted and re-solved.
    ///
    /// Rejected on a static shard engine and when an edge endpoint is
    /// implausibly far beyond the current page count.
    pub fn mutate_graph(
        &self,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> Result<MutationOutcome, EngineError> {
        let _span = obs.span("engine.mutate_graph");
        let delta = self
            .delta()
            .ok_or_else(|| {
                EngineError::BadRequest(
                    "graph mutation is unavailable on a static shard engine".into(),
                )
            })?
            .clone();
        let summary = delta
            .apply(insert, delete)
            .map_err(|e| EngineError::BadRequest(e.0))?;
        Ok(self.absorb_mutation(&summary, insert, delete, obs))
    }

    /// Absorbs a mutation already applied to this engine's (possibly
    /// shared) delta: WAL-logs the batch and repairs intersecting
    /// sessions. A router running several shard engines over one shared
    /// delta applies the batch once and calls this on every engine.
    pub fn absorb_mutation(
        &self,
        summary: &MutationSummary,
        insert: &[(u32, u32)],
        delete: &[(u32, u32)],
        obs: &dyn Observer,
    ) -> MutationOutcome {
        let mut sessions_repaired = 0;
        if summary.changed() {
            self.log_event(
                WalEvent::MutateGraph(GraphMutationRecord {
                    epoch: summary.epoch,
                    insert: insert.to_vec(),
                    delete: delete.to_vec(),
                }),
                obs,
            );
            sessions_repaired = self.repair_sessions(summary, obs);
        }
        obs.counter("graph_mutation_touched_pages", summary.touched.len() as u64);
        MutationOutcome {
            epoch: summary.epoch,
            inserted: summary.inserted,
            deleted: summary.deleted,
            touched_pages: summary.touched.len(),
            structural: summary.structural,
            sessions_repaired,
        }
    }

    /// Warm-restarts every session the mutation could have changed: a
    /// structural batch restarts all of them, otherwise only those whose
    /// members or boundary in-edge sources intersect the touched set.
    /// Untouched sessions keep their solver state bit-for-bit.
    fn repair_sessions(&self, summary: &MutationSummary, obs: &dyn Observer) -> usize {
        let entries: Vec<(u64, Arc<Mutex<EngineSession>>)> = self
            .lock_sessions()
            .iter()
            .map(|(&id, entry)| (id, Arc::clone(entry)))
            .collect();
        let mut repaired = 0;
        for (id, entry) in entries {
            let mut session = entry.lock().unwrap_or_else(|e| e.into_inner());
            if !summary.structural && !session.solver.depends_on(&summary.touched) {
                continue;
            }
            if let Some(key) = session.published_key.take() {
                self.cache.invalidate(&key);
            }
            session.solver.refresh_via(self.source());
            let scores = {
                let _solve_span = obs.span("engine.solve");
                session.solver.solve(obs)
            };
            let new_key = self.session_key(&session);
            self.cache.invalidate(&new_key);
            session.published_key = Some(new_key);
            let result = to_cached(session.solver.members(), scores);
            obs.counter("solve_iterations", result.iterations as u64);
            if !session.algorithm.is_estimator() {
                self.log_event(
                    WalEvent::Solved {
                        id,
                        scores: result.scores.as_ref().clone(),
                        lambda: result.lambda.unwrap_or(0.0),
                        iterations: result.iterations as u64,
                    },
                    obs,
                );
            }
            repaired += 1;
        }
        repaired
    }

    /// A read-only snapshot of session `id`, served without re-solving.
    pub fn session_view(&self, id: u64) -> Option<SessionView> {
        let entry = self.find_session(id)?;
        let session = entry.lock().unwrap_or_else(|e| e.into_inner());
        Some(SessionView {
            members: session.solver.members().to_vec(),
            last_iterations: session.solver.last_iterations(),
            damping: session.damping,
            tolerance: session.tolerance,
            solution: session
                .solver
                .last_solution()
                .map(|(scores, lambda)| (scores.to_vec(), lambda)),
        })
    }

    /// Closes session `id`; returns whether it existed.
    pub fn session_delete(&self, id: u64, obs: &dyn Observer) -> bool {
        let _span = obs.span("engine.session_delete");
        let Some(entry) = self.lock_sessions().remove(&id) else {
            return false;
        };
        let session = entry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(key) = &session.published_key {
            self.cache.invalidate(key);
        }
        if !session.algorithm.is_estimator() {
            self.log_event(WalEvent::Close { id }, obs);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{PartitionStrategy, PartitionedGraph};
    use approxrank_trace::null;

    fn ring(n: u32) -> DiGraph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, (i * 13 + 7) % n));
            if i % 17 == 3 {
                continue;
            }
        }
        DiGraph::from_edges(n as usize, &edges)
    }

    fn request(members: Vec<u32>) -> RankRequest {
        RankRequest {
            members,
            algorithm: Algorithm::ApproxRank,
            damping: 0.85,
            tolerance: 1e-8,
            estimator: EstimatorOptions::default(),
        }
    }

    fn shard0_engine(g: &DiGraph) -> (Engine, Engine) {
        let global = Engine::new_global(Arc::new(g.clone()), EngineConfig::default());
        let pg = PartitionedGraph::build(g, 2, PartitionStrategy::Range);
        let shard = Arc::new(pg.into_shards().remove(0));
        let sharded = Engine::new_shard(shard, EngineConfig::default());
        (global, sharded)
    }

    #[test]
    fn shard_rank_is_bit_identical_to_global() {
        let g = ring(200);
        let (global, sharded) = shard0_engine(&g);
        let req = request((10..60).collect());
        let a = global.rank(&req, null()).unwrap();
        let b = sharded.rank(&req, null()).unwrap();
        assert!(!a.cached && !b.cached);
        for ((pa, sa), (pb, sb)) in a.result.scores.iter().zip(b.result.scores.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }
        assert_eq!(
            a.result.lambda.unwrap().to_bits(),
            b.result.lambda.unwrap().to_bits()
        );
        assert_eq!(a.result.iterations, b.result.iterations);
        // Second call hits the cache with identical bits.
        let c = sharded.rank(&req, null()).unwrap();
        assert!(c.cached);
        assert_eq!(c.result.scores, b.result.scores);
    }

    #[test]
    fn shard_rejects_foreign_pages_and_other_algorithms() {
        let g = ring(200);
        let (_, sharded) = shard0_engine(&g);
        // Range partitioning over 200 nodes puts 100..200 on shard 1.
        let err = sharded.rank(&request(vec![150, 151]), null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("not on shard")));
        let mut req = request(vec![10, 11]);
        req.algorithm = Algorithm::Sc;
        let err = sharded.rank(&req, null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("unavailable")));
    }

    #[test]
    fn keyword_rank_matches_across_backends_and_validates() {
        let g = ring(200);
        let (global, sharded) = shard0_engine(&g);
        let req = KeywordRequest {
            members: (10..60).collect(),
            // Base straddles the membership boundary: 150 is outside the
            // subgraph (its teleport share lands on Λ).
            base: vec![12, 30, 150],
            damping: 0.85,
            tolerance: 1e-8,
        };
        let a = global.keyword_rank(&req, null()).unwrap();
        let b = sharded.keyword_rank(&req, null()).unwrap();
        for ((pa, sa), (pb, sb)) in a.scores.iter().zip(b.scores.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }
        assert_eq!(a.lambda.unwrap().to_bits(), b.lambda.unwrap().to_bits());
        assert_eq!(a.iterations, b.iterations);
        // Mass is conserved: local scores plus Λ sum to 1.
        let total: f64 = a.scores.iter().map(|(_, s)| s).sum::<f64>() + a.lambda.unwrap();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // The keyword teleport shifts mass toward the base pages
        // relative to the uniform /rank answer.
        let rank = global
            .rank(&request((10..60).collect()), null())
            .unwrap()
            .result;
        let score_of =
            |r: &CachedResult, page: u32| r.scores.iter().find(|(p, _)| *p == page).unwrap().1;
        assert!(score_of(&a, 12) > score_of(&rank, 12));

        // Validation: empty, unsorted, and out-of-range bases reject.
        for bad in [vec![], vec![30, 12], vec![12, 999]] {
            let err = global
                .keyword_rank(
                    &KeywordRequest {
                        base: bad,
                        ..req.clone()
                    },
                    null(),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::BadRequest(_)));
        }
        // Foreign members reject on a shard engine.
        let err = sharded
            .keyword_rank(
                &KeywordRequest {
                    members: vec![150, 151],
                    base: vec![150],
                    damping: 0.85,
                    tolerance: 1e-8,
                },
                null(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("not on shard")));
    }

    #[test]
    fn concurrent_distinct_keyword_queries_match_solo_solves() {
        let g = ring(200);
        let engine = Arc::new(Engine::new_global(
            Arc::new(g.clone()),
            EngineConfig::default(),
        ));
        let members: Vec<u32> = (10..60).collect();
        let req_of = |base: Vec<u32>| KeywordRequest {
            members: members.clone(),
            base,
            damping: 0.85,
            tolerance: 1e-8,
        };
        let bases: Vec<Vec<u32>> = vec![vec![15], vec![20, 21], vec![12, 150], vec![59]];
        let workers: Vec<_> = bases
            .iter()
            .map(|base| {
                let engine = Arc::clone(&engine);
                let req = req_of(base.clone());
                std::thread::spawn(move || engine.keyword_rank(&req, null()).unwrap())
            })
            .collect();
        let answers: Vec<CachedResult> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        // Distinct bases never share a solve.
        let stats = engine.batch_stats();
        assert_eq!(stats.keyword_solves, bases.len() as u64, "{stats:?}");
        assert_eq!(stats.keyword_columns, stats.keyword_solves, "{stats:?}");
        assert_eq!(stats.keyword_coalesced, 0, "{stats:?}");
        // Each concurrent answer is bit-identical to a solo solve on a
        // fresh engine.
        let solo = Engine::new_global(Arc::new(g), EngineConfig::default());
        for (concurrent, base) in answers.iter().zip(&bases) {
            let single = solo.keyword_rank(&req_of(base.clone()), null()).unwrap();
            assert_eq!(single.iterations, concurrent.iterations);
            assert_eq!(
                single.lambda.map(f64::to_bits),
                concurrent.lambda.map(f64::to_bits)
            );
            for ((pa, sa), (pb, sb)) in concurrent.scores.iter().zip(single.scores.iter()) {
                assert_eq!(pa, pb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
            }
        }
    }

    #[test]
    fn concurrent_identical_ranks_coalesce_onto_one_solve() {
        let g = ring(200);
        let engine = Arc::new(Engine::new_global(Arc::new(g), EngineConfig::default()));
        let req = request((10..80).collect());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let req = req.clone();
                std::thread::spawn(move || engine.rank(&req, null()).unwrap())
            })
            .collect();
        let first = engine.rank(&req, null()).unwrap();
        let mut outcomes = vec![first];
        for w in workers {
            outcomes.push(w.join().unwrap());
        }
        // Every response carries identical bits regardless of which
        // request led, followed, or hit the cache.
        for o in &outcomes[1..] {
            assert_eq!(o.result.scores, outcomes[0].result.scores);
        }
        let stats = engine.batch_stats();
        assert_eq!(
            stats.rank_leaders + stats.rank_coalesced + engine.cache_stats().hits,
            5,
            "{stats:?}"
        );
        assert!(stats.rank_leaders >= 1);
    }

    #[test]
    fn session_lifecycle_matches_across_backends() {
        let g = ring(200);
        let (global, sharded) = shard0_engine(&g);
        let members: Vec<u32> = (20..50).collect();
        let (gid, ga) = global
            .session_create(&request(members.clone()), null())
            .unwrap();
        let (sid, sa) = sharded
            .session_create(&request(members.clone()), null())
            .unwrap();
        assert_eq!(ga.scores, sa.scores);
        let (gm, gb) = global
            .session_update(gid, &[50, 51], &[20], null())
            .unwrap();
        let (sm, sb) = sharded
            .session_update(sid, &[50, 51], &[20], null())
            .unwrap();
        assert_eq!(gm, sm);
        assert_eq!(gb.scores, sb.scores);
        assert_eq!(
            global.session_view(gid).unwrap().members,
            sharded.session_view(sid).unwrap().members
        );
        assert!(global.session_delete(gid, null()));
        assert!(sharded.session_delete(sid, null()));
        assert_eq!(global.session_count() + sharded.session_count(), 0);
    }

    #[test]
    fn session_ids_stride() {
        let g = ring(40);
        let engine = Engine::new_global(
            Arc::new(g),
            EngineConfig {
                first_session_id: 2,
                session_id_stride: 3,
                ..EngineConfig::default()
            },
        );
        let (a, _) = engine.session_create(&request(vec![1, 2]), null()).unwrap();
        let (b, _) = engine.session_create(&request(vec![3, 4]), null()).unwrap();
        assert_eq!((a, b), (2, 5));
        assert!(engine.routes_session(2) && engine.routes_session(8));
        assert!(!engine.routes_session(3) && !engine.routes_session(0));
    }

    #[test]
    fn estimator_rank_carries_estimate_and_caches_by_fingerprint() {
        let g = ring(200);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let mut req = request((10..40).collect());
        req.algorithm = Algorithm::Mc;
        let a = engine.rank(&req, null()).unwrap();
        assert!(!a.cached);
        let est = a.result.estimate.expect("mc result carries estimate");
        assert_eq!(est.walks, u64::from(req.estimator.walks) * 30);
        assert!(est.residual.is_finite() && est.residual >= 0.0);
        let sum: f64 =
            a.result.scores.iter().map(|(_, s)| s).sum::<f64>() + a.result.lambda.unwrap();
        assert!((sum - 1.0).abs() < 1e-9, "normalized, got {sum}");
        // Same parameters hit the cache; a different seed misses it.
        assert!(engine.rank(&req, null()).unwrap().cached);
        req.estimator.seed = 7;
        assert!(!engine.rank(&req, null()).unwrap().cached);
        // Push produces a bounded residual and its own estimate block.
        req.algorithm = Algorithm::Push;
        let p = engine.rank(&req, null()).unwrap();
        let pest = p.result.estimate.unwrap();
        assert!(pest.residual <= req.estimator.epsilon);
        assert_eq!(pest.walks, 0);
    }

    #[test]
    fn estimator_rank_runs_on_shards() {
        let g = ring(200);
        let (global, sharded) = shard0_engine(&g);
        let mut req = request((10..40).collect());
        req.algorithm = Algorithm::Mc;
        let a = global.rank(&req, null()).unwrap();
        let b = sharded.rank(&req, null()).unwrap();
        // GlobalAggregates are the only global inputs, so shard answers
        // are bit-identical just like exact ApproxRank.
        for ((pa, sa), (pb, sb)) in a.result.scores.iter().zip(b.result.scores.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }
    }

    #[test]
    fn mc_session_matches_cold_rank_and_updates() {
        let g = ring(200);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let mut req = request((10..40).collect());
        req.algorithm = Algorithm::Mc;
        let cold = engine.rank(&req, null()).unwrap();
        let (id, first) = engine.session_create(&req, null()).unwrap();
        assert_eq!(first.scores, cold.result.scores);
        assert_eq!(first.estimate, cold.result.estimate);
        // A warm update re-solves and matches a cold solve of the edited
        // membership (walk identity is per-source, so reuse is exact).
        let (members, warm) = engine.session_update(id, &[40, 41], &[10], null()).unwrap();
        let mut edited = req.clone();
        edited.members = members;
        let cold2 = engine.rank(&edited, null()).unwrap();
        assert!(
            !cold2.cached,
            "estimator session must not publish stale keys"
        );
        assert_eq!(warm.scores, cold2.result.scores);
        assert!(engine.session_delete(id, null()));
    }

    #[test]
    fn mutation_bumps_epoch_and_retires_only_touched_answers() {
        let g = ring(200);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let near: Vec<u32> = (10..40).collect();
        let far: Vec<u32> = (100..130).collect();
        assert!(!engine.rank(&request(near.clone()), null()).unwrap().cached);
        assert!(!engine.rank(&request(far.clone()), null()).unwrap().cached);

        // Insert one edge between already-non-dangling members: not
        // structural, touches only pages around 20.
        let out = engine.mutate_graph(&[(20, 25)], &[], null()).unwrap();
        assert_eq!((out.epoch, out.inserted, out.deleted), (1, 1, 0));
        assert!(!out.structural);
        assert_eq!(engine.graph_epoch(), 1);

        // The touched membership re-solves; the far one still hits.
        let near2 = engine.rank(&request(near.clone()), null()).unwrap();
        assert!(!near2.cached, "mutation must retire the touched answer");
        assert!(engine.rank(&request(far), null()).unwrap().cached);

        // And the re-solve reflects the new edge: identical to a fresh
        // engine built over the mutated graph.
        let mut edges = Vec::new();
        for i in 0..200u32 {
            edges.push((i, (i + 1) % 200));
            edges.push((i, (i * 13 + 7) % 200));
        }
        edges.push((20, 25));
        let fresh = Engine::new_global(
            Arc::new(DiGraph::from_edges(200, &edges)),
            EngineConfig::default(),
        );
        let want = fresh.rank(&request(near), null()).unwrap();
        for ((pa, sa), (pb, sb)) in near2.result.scores.iter().zip(want.result.scores.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "page {pa}");
        }

        // An idempotent re-insert is a no-op: no epoch bump.
        let noop = engine.mutate_graph(&[(20, 25)], &[], null()).unwrap();
        assert_eq!((noop.epoch, noop.inserted), (1, 0));
    }

    #[test]
    fn mutation_repairs_only_intersecting_sessions() {
        let g = ring(200);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let mut near = request((10..40).collect());
        near.algorithm = Algorithm::Mc;
        let (near_id, _) = engine.session_create(&near, null()).unwrap();
        let (far_id, far_first) = engine
            .session_create(&request((100..130).collect()), null())
            .unwrap();

        let out = engine.mutate_graph(&[(20, 25)], &[], null()).unwrap();
        assert_eq!(out.sessions_repaired, 1, "only the near session repairs");

        // The repaired MC session is bitwise-identical to a cold solve
        // over the mutated graph.
        let cold = engine.rank(&near, null()).unwrap();
        let (warm_members, warm) = engine.session_update(near_id, &[], &[], null()).unwrap();
        assert_eq!(warm_members, near.members);
        assert_eq!(warm.scores, cold.result.scores);
        // The far exact session kept its solution untouched.
        let far_view = engine.session_view(far_id).unwrap();
        assert_eq!(
            far_view.solution.unwrap().0,
            far_first.scores.as_ref().clone()
        );

        // A structural mutation (new dangling page) repairs everything.
        let out = engine.mutate_graph(&[(5, 200)], &[], null()).unwrap();
        assert!(out.structural);
        assert_eq!(out.sessions_repaired, 2);
        assert_eq!(engine.global_nodes(), 201);
    }

    #[test]
    fn static_shard_engine_rejects_mutation() {
        let g = ring(200);
        let (_, sharded) = shard0_engine(&g);
        let err = sharded.mutate_graph(&[(1, 2)], &[], null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("mutation")));
        assert_eq!(sharded.graph_epoch(), 0);
    }

    #[test]
    fn sessions_reject_non_warmable_algorithms() {
        let g = ring(60);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let mut req = request(vec![1, 2]);
        req.algorithm = Algorithm::IdealRank;
        let err = engine.session_create(&req, null()).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(ref m) if m.contains("sessions support")));
    }

    #[test]
    fn update_errors_keep_session_healthy() {
        let g = ring(60);
        let engine = Engine::new_global(Arc::new(g), EngineConfig::default());
        let (id, _) = engine.session_create(&request(vec![1, 2]), null()).unwrap();
        assert_eq!(
            engine.session_update(id, &[], &[1, 2], null()).unwrap_err(),
            EngineError::BadRequest("update would empty the subgraph".into())
        );
        assert_eq!(
            engine.session_update(999, &[3], &[], null()).unwrap_err(),
            EngineError::NoSuchSession(999)
        );
        let (members, _) = engine.session_update(id, &[3], &[], null()).unwrap();
        assert_eq!(members, vec![1, 2, 3]);
    }
}
