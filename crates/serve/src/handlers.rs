//! Request routing and the endpoint implementations.
//!
//! Every handler is a pure function of (`AppState`, [`Request`]) →
//! [`Response`]: this layer owns wire-format parsing, validation, and
//! response shaping, and delegates every solve to the
//! [`crate::router::Router`] (which in turn drives one
//! [`approxrank_engine::Engine`] per shard). `/rank` answers are
//! *bit-identical* to the offline `subrank rank` CLI for the same members
//! and options — in sharded mode this holds for any membership resident
//! on a single shard; cross-shard memberships are answered with a merged
//! mixture and marked by a `"shards"` count greater than 1.

use std::sync::atomic::Ordering::Relaxed;

use approxrank_engine::{
    Algorithm, CachedResult, EngineError, EstimatorOptions, KeywordRequest, RankRequest,
};
use approxrank_objectrank::base_set_from_labels;
use approxrank_trace::Observer;

use crate::http::{Request, Response};
use crate::json::{obj, parse, Json};
use crate::metrics::Endpoint;
use crate::state::{AppState, KeywordKey};

/// Routes a request to its handler and returns the response together
/// with the endpoint label for metrics. `obs` is the request-scoped
/// observer the dispatcher built (a tee of the request's trace recorder
/// and the metrics registry); handlers thread it through every engine
/// and store call so the whole request becomes one span tree.
pub fn route(state: &AppState, request: &Request, obs: &dyn Observer) -> (Endpoint, Response) {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => (Endpoint::Healthz, healthz()),
        ("GET", "/stats") => (Endpoint::Stats, stats(state)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics(state)),
        ("GET", "/debug/requests") => (Endpoint::DebugRequests, debug_requests(state)),
        ("POST", "/rank") => (Endpoint::Rank, rank(state, request, obs)),
        ("POST", "/keyword") => (Endpoint::Keyword, keyword(state, request, obs)),
        ("POST", "/graph/edges") => (Endpoint::GraphEdges, graph_edges(state, request, obs)),
        ("POST", "/session") => (Endpoint::SessionCreate, session_create(state, request, obs)),
        _ => {
            if let Some(rest) = path.strip_prefix("/session/") {
                return route_session(state, request, method, rest, obs);
            }
            let status = if matches!(
                path,
                "/healthz"
                    | "/stats"
                    | "/metrics"
                    | "/rank"
                    | "/keyword"
                    | "/graph/edges"
                    | "/session"
                    | "/debug/requests"
            ) {
                405
            } else {
                404
            };
            (
                Endpoint::Other,
                Response::error(status, &format!("no route for {method} {path}")),
            )
        }
    }
}

fn route_session(
    state: &AppState,
    request: &Request,
    method: &str,
    rest: &str,
    obs: &dyn Observer,
) -> (Endpoint, Response) {
    let (id_text, action) = match rest.split_once('/') {
        None => (rest, ""),
        Some((id, action)) => (id, action),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            Endpoint::Other,
            Response::error(400, &format!("bad session id {id_text:?}")),
        );
    };
    match (method, action) {
        ("POST", "update") => (
            Endpoint::SessionUpdate,
            session_update(state, id, request, obs),
        ),
        ("GET", "") => (Endpoint::SessionGet, session_get(state, id)),
        ("DELETE", "") => (Endpoint::SessionDelete, session_delete(state, id, obs)),
        _ => (
            Endpoint::Other,
            Response::error(404, &format!("no route for {method} /session/{rest}")),
        ),
    }
}

/// `GET /debug/requests`: the ring of recently completed request traces
/// as a JSON array, newest last — the same wire format as the slow-query
/// log, one object per trace.
fn debug_requests(state: &AppState) -> Response {
    let traces = state.traces.snapshot();
    let body = traces
        .iter()
        .map(approxrank_trace::request::emit)
        .collect::<Vec<_>>()
        .join(",");
    Response::json(200, format!("[{body}]"))
}

/// Maps an engine refusal onto its HTTP status.
fn engine_error(e: EngineError) -> Response {
    match e {
        EngineError::BadRequest(msg) => Response::error(400, &msg),
        EngineError::NoSuchSession(id) => Response::error(404, &format!("no session {id}")),
        EngineError::Unavailable(msg) => Response::error(503, &msg),
    }
}

fn healthz() -> Response {
    Response::json(200, obj(vec![("status", Json::Str("ok".into()))]).emit())
}

fn stats(state: &AppState) -> Response {
    let cache = state.cache_stats();
    let graph = state.router.summary();
    let body = obj(vec![
        (
            "graph",
            obj(vec![
                ("nodes", Json::Num(graph.nodes as f64)),
                ("edges", Json::Num(graph.edges as f64)),
                ("dangling", Json::Num(graph.dangling as f64)),
                ("epoch", Json::Num(state.router.graph_epoch() as f64)),
                (
                    "mutations",
                    Json::Num(state.router.graph_mutations() as f64),
                ),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("entries", Json::Num(cache.entries as f64)),
                ("capacity", Json::Num(cache.capacity as f64)),
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("evictions", Json::Num(cache.evictions as f64)),
                ("invalidations", Json::Num(cache.invalidations as f64)),
                ("stale_evictions", Json::Num(cache.stale_evictions as f64)),
            ]),
        ),
        ("sessions_open", Json::Num(state.session_count() as f64)),
        (
            "requests_total",
            Json::Num(state.metrics.total_requests() as f64),
        ),
        ("uptime_seconds", Json::Num(state.metrics.uptime_seconds())),
        ("threads", Json::Num(state.config.threads as f64)),
        ("shards", Json::Num(state.router.num_shards() as f64)),
    ]);
    Response::json(200, body.emit())
}

fn metrics(state: &AppState) -> Response {
    let cache = state.cache_stats();
    let graph = state.router.summary();
    let mut extra = String::new();
    extra.push_str(&format!(
        "approxrank_graph_nodes {}\napproxrank_graph_edges {}\n",
        graph.nodes, graph.edges
    ));
    extra.push_str(&format!(
        "approxrank_graph_epoch {}\napproxrank_graph_mutations_total {}\n\
         approxrank_delta_materializations_total {}\n",
        state.router.graph_epoch(),
        state.router.graph_mutations(),
        state.router.delta_materializations()
    ));
    extra.push_str(&format!(
        "approxrank_cache_hits_total {}\napproxrank_cache_misses_total {}\n\
         approxrank_cache_evictions_total {}\napproxrank_cache_invalidations_total {}\n\
         approxrank_cache_stale_evictions_total {}\n\
         approxrank_cache_entries {}\napproxrank_cache_capacity {}\n",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.invalidations,
        cache.stale_evictions,
        cache.entries,
        cache.capacity
    ));
    extra.push_str(&format!(
        "approxrank_sessions_open {}\n",
        state.session_count()
    ));
    if state.router.has_store() {
        // One store per engine: expose the fleet totals under the same
        // line names a single-store deployment always had.
        let (mut appends, mut bytes, mut fsyncs, mut snap_ms) = (0u64, 0u64, 0u64, 0u64);
        let (mut snaps, mut recovered, mut truncated) = (0u64, 0u64, 0u64);
        for engine in state.router.local_engines() {
            if let Some(store) = engine.store() {
                let s = store.stats();
                appends += s.wal_appends.load(Relaxed);
                bytes += s.wal_bytes.load(Relaxed);
                fsyncs += s.fsyncs.load(Relaxed);
                snap_ms += s.snapshot_ms.load(Relaxed);
                snaps += s.snapshots.load(Relaxed);
                recovered += s.recovered_sessions.load(Relaxed);
                truncated += s.truncated_records.load(Relaxed);
            }
        }
        extra.push_str(&format!(
            "store_wal_appends {appends}\nstore_wal_bytes {bytes}\nstore_fsyncs {fsyncs}\n\
             store_snapshot_ms {snap_ms}\nstore_snapshots {snaps}\nstore_recovered_sessions {recovered}\n\
             store_truncated_records {truncated}\nstore_wal_errors {}\n",
            state.router.wal_errors(),
        ));
    }
    extra.push_str(&format!(
        "shard_count {}\nshard_cross_rank_requests {}\n",
        state.router.num_shards(),
        state.router.cross_rank_requests()
    ));
    for (k, engine) in state.router.handles().iter().enumerate() {
        extra.push_str(&format!(
            "shard_rank_requests{{shard=\"{k}\"}} {}\n\
             shard_sessions_open{{shard=\"{k}\"}} {}\n\
             shard_cache_entries{{shard=\"{k}\"}} {}\n",
            state.router.shard_rank_requests(k),
            engine.session_count(),
            engine.cache_stats().entries
        ));
    }
    if state.router.is_remote() {
        // Transport health of the remote fan-out: fleet totals plus
        // per-shard replica liveness so a dashboard can spot a degraded
        // replica set before it exhausts its retry budget.
        let (mut requests, mut io_errors, mut retries, mut failovers) = (0u64, 0u64, 0u64, 0u64);
        let (mut unavailable, mut probes) = (0u64, 0u64);
        for remote in state.router.remote_engines() {
            let m = remote.metrics();
            requests += m.requests;
            io_errors += m.io_errors;
            retries += m.retries;
            failovers += m.failovers;
            unavailable += m.unavailable;
            probes += m.health_probes;
            extra.push_str(&format!(
                "rpc_replicas{{shard=\"{k}\"}} {total}\nrpc_replicas_healthy{{shard=\"{k}\"}} {healthy}\n",
                k = remote.shard(),
                total = m.replicas_total,
                healthy = m.replicas_healthy,
            ));
        }
        extra.push_str(&format!(
            "rpc_requests_total {requests}\nrpc_io_errors_total {io_errors}\n\
             rpc_retries_total {retries}\nrpc_failovers_total {failovers}\n\
             rpc_unavailable_total {unavailable}\nrpc_health_probes_total {probes}\n",
        ));
    }
    // In-flight dedup counters: how many identical concurrent solves
    // the engines absorbed.
    let batch = state.router.batch_stats();
    extra.push_str(&format!(
        "batch_rank_leaders_total {}\nbatch_rank_coalesced_total {}\n\
         batch_keyword_solves_total {}\nbatch_keyword_coalesced_total {}\n",
        batch.rank_leaders, batch.rank_coalesced, batch.keyword_solves, batch.keyword_coalesced,
    ));
    let (kw_hits, kw_misses, kw_entries) = state.keyword_cache.stats();
    extra.push_str(&format!(
        "keyword_cache_hits_total {kw_hits}\nkeyword_cache_misses_total {kw_misses}\n\
         keyword_cache_entries {kw_entries}\n"
    ));
    if let Some(governor) = &state.tenants {
        for row in governor.snapshot() {
            extra.push_str(&format!(
                "tenant_requests_total{{tenant=\"{t}\"}} {}\n\
                 tenant_shed_total{{tenant=\"{t}\"}} {}\n\
                 tenant_in_flight{{tenant=\"{t}\"}} {}\n\
                 tenant_queue_depth{{tenant=\"{t}\"}} {}\n",
                row.requests,
                row.shed,
                row.in_flight,
                row.queue_depth,
                t = row.tenant,
            ));
        }
    }
    if let Some(pool) = state.pool_stats() {
        extra.push_str(&format!(
            "pool_threads {}\npool_jobs {}\npool_tasks {}\npool_imbalance {:?}\n",
            pool.threads,
            pool.jobs,
            pool.tasks,
            pool.imbalance()
        ));
        for (lane, busy) in pool.busy_ns.iter().enumerate() {
            extra.push_str(&format!(
                "pool_worker_busy_ms{{lane=\"{lane}\"}} {:?}\n",
                *busy as f64 / 1e6
            ));
        }
    }
    Response::text(200, state.metrics.render(&extra))
}

/// Shared request-body schema of `/rank` and `/session`.
struct RankParams {
    members: Vec<u32>,
    algorithm: Algorithm,
    damping: f64,
    tolerance: f64,
    estimator: EstimatorOptions,
    top: usize,
}

impl RankParams {
    fn to_request(&self) -> RankRequest {
        RankRequest {
            members: self.members.clone(),
            algorithm: self.algorithm,
            damping: self.damping,
            tolerance: self.tolerance,
            estimator: self.estimator,
        }
    }
}

fn parse_members(state: &AppState, body: &Json) -> Result<Vec<u32>, String> {
    let items = body
        .get("members")
        .ok_or("missing \"members\"")?
        .as_array()
        .ok_or("\"members\" must be an array")?;
    if items.is_empty() {
        return Err("\"members\" must be non-empty".into());
    }
    let n = state.router.summary().nodes;
    let mut members = Vec::with_capacity(items.len());
    for item in items {
        let id = item
            .as_u64()
            .ok_or_else(|| format!("bad member {}", item.emit()))?;
        if id as usize >= n {
            return Err(format!("member {id} out of range (graph has {n} nodes)"));
        }
        members.push(id as u32);
    }
    members.sort_unstable();
    members.dedup();
    if members.len() == n {
        return Err("subgraph must be a proper subset of the graph".into());
    }
    Ok(members)
}

fn parse_rank_params(state: &AppState, raw: &[u8]) -> Result<RankParams, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "body is not utf-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body; expected a JSON object".into());
    }
    let body = parse(text)?;
    let members = parse_members(state, &body)?;
    let algorithm = match body.get("algorithm") {
        None => Algorithm::ApproxRank,
        Some(v) => Algorithm::parse(v.as_str().ok_or("\"algorithm\" must be a string")?)?,
    };
    let damping = match body.get("damping") {
        None => 0.85,
        Some(v) => v.as_f64().ok_or("\"damping\" must be a number")?,
    };
    if !(damping > 0.0 && damping < 1.0) {
        return Err(format!("damping must be in (0,1), got {damping}"));
    }
    let tolerance = match body.get("tolerance") {
        None => 1e-5,
        Some(v) => v.as_f64().ok_or("\"tolerance\" must be a number")?,
    };
    if !(tolerance > 0.0 && tolerance.is_finite()) {
        return Err(format!("tolerance must be positive, got {tolerance}"));
    }
    let top = match body.get("top") {
        None => 0,
        Some(v) => v.as_u64().ok_or("\"top\" must be a non-negative integer")? as usize,
    };
    // Estimator knobs (used by "mc" and "push"; harmless — but still
    // validated — when an exact algorithm ignores them).
    let mut estimator = EstimatorOptions::default();
    if let Some(v) = body.get("walks") {
        let walks = v.as_u64().ok_or("\"walks\" must be a positive integer")?;
        if walks == 0 || walks > u32::MAX as u64 {
            return Err(format!("walks must be in 1..=2^32-1, got {walks}"));
        }
        estimator.walks = walks as u32;
    }
    if let Some(v) = body.get("epsilon") {
        let epsilon = v.as_f64().ok_or("\"epsilon\" must be a number")?;
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(format!("epsilon must be positive, got {epsilon}"));
        }
        estimator.epsilon = epsilon;
    }
    if let Some(v) = body.get("seed") {
        estimator.seed = v
            .as_u64()
            .ok_or("\"seed\" must be a non-negative integer")?;
    }
    Ok(RankParams {
        members,
        algorithm,
        damping,
        tolerance,
        estimator,
        top,
    })
}

fn scores_json(scores: &[(u32, f64)], top: usize) -> Json {
    let mut pairs: Vec<(u32, f64)> = scores.to_vec();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let take = if top == 0 {
        pairs.len()
    } else {
        top.min(pairs.len())
    };
    Json::Arr(
        pairs
            .into_iter()
            .take(take)
            .map(|(page, score)| {
                obj(vec![
                    ("page", Json::Num(page as f64)),
                    ("score", Json::Num(score)),
                ])
            })
            .collect(),
    )
}

fn result_body(
    algorithm: &str,
    result: &CachedResult,
    top: usize,
    cached: bool,
    shards: usize,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("algorithm", Json::Str(algorithm.into())),
        ("converged", Json::Bool(result.converged)),
        ("iterations", Json::Num(result.iterations as f64)),
        ("lambda", result.lambda.map(Json::Num).unwrap_or(Json::Null)),
        ("cached", Json::Bool(cached)),
        ("shards", Json::Num(shards as f64)),
        ("scores", scores_json(&result.scores, top)),
    ];
    if let Some(est) = result.estimate {
        pairs.push((
            "estimate",
            obj(vec![
                ("walks", Json::Num(est.walks as f64)),
                ("epsilon", Json::Num(est.epsilon)),
                ("residual", Json::Num(est.residual)),
            ]),
        ));
    }
    pairs.extend(extra);
    obj(pairs)
}

fn rank(state: &AppState, request: &Request, obs: &dyn Observer) -> Response {
    let params = match parse_rank_params(state, &request.body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    let _span = obs.span("http.rank");
    let routed = match state.router.rank(&params.to_request(), obs) {
        Ok(r) => r,
        Err(e) => return engine_error(e),
    };
    Response::json(
        200,
        result_body(
            params.algorithm.name(),
            &routed.outcome.result,
            params.top,
            routed.outcome.cached,
            routed.shards,
            vec![],
        )
        .emit(),
    )
}

/// What `POST /keyword` parsed out of its body: the membership, the
/// resolved base set, and the keyword text (when the base came from one).
struct KeywordParams {
    members: Vec<u32>,
    base: Vec<u32>,
    keyword: Option<String>,
    damping: f64,
    tolerance: f64,
    top: usize,
}

/// Resolves the request's personalization: an explicit `"base"` id list,
/// XOR a `"keyword"` matched against the page labels (the configured
/// labels file, or generated `page-<i>` labels without one) under the
/// ObjectRank rule shared with the `objectrank` crate. The error carries
/// its HTTP status: a keyword matching nothing is a 404, everything else
/// a 400.
fn resolve_base(
    state: &AppState,
    body: &Json,
) -> Result<(Vec<u32>, Option<String>), (u16, String)> {
    let n = state.router.summary().nodes;
    match (body.get("keyword"), body.get("base")) {
        (Some(_), Some(_)) => Err((
            400,
            "give either \"keyword\" or \"base\", not both".to_string(),
        )),
        (None, None) => Err((400, "missing \"keyword\" or \"base\"".to_string())),
        (None, Some(value)) => {
            let items = value
                .as_array()
                .ok_or((400, "\"base\" must be an array".to_string()))?;
            if items.is_empty() {
                return Err((400, "\"base\" must be non-empty".to_string()));
            }
            let mut base = Vec::with_capacity(items.len());
            for item in items {
                let id = item
                    .as_u64()
                    .ok_or_else(|| (400, format!("bad base page {}", item.emit())))?;
                if id as usize >= n {
                    return Err((
                        400,
                        format!("base page {id} out of range (graph has {n} nodes)"),
                    ));
                }
                base.push(id as u32);
            }
            base.sort_unstable();
            base.dedup();
            Ok((base, None))
        }
        (Some(value), None) => {
            let kw = value
                .as_str()
                .ok_or((400, "\"keyword\" must be a string".to_string()))?;
            if kw.is_empty() {
                return Err((400, "\"keyword\" must be non-empty".to_string()));
            }
            let base = match &state.labels {
                Some(labels) => base_set_from_labels(labels.iter().map(String::as_str), kw),
                None => {
                    let generated: Vec<String> = (0..n).map(|i| format!("page-{i}")).collect();
                    base_set_from_labels(generated.iter().map(String::as_str), kw)
                }
            };
            if base.is_empty() {
                return Err((404, format!("keyword {kw:?} matches no page")));
            }
            Ok((base, Some(kw.to_string())))
        }
    }
}

fn parse_keyword_params(state: &AppState, raw: &[u8]) -> Result<KeywordParams, (u16, String)> {
    let text = std::str::from_utf8(raw).map_err(|_| (400, "body is not utf-8".to_string()))?;
    if text.trim().is_empty() {
        return Err((400, "empty body; expected a JSON object".to_string()));
    }
    let body = parse(text).map_err(|e| (400, e))?;
    let members = parse_members(state, &body).map_err(|e| (400, e))?;
    let (base, keyword) = resolve_base(state, &body)?;
    let damping = match body.get("damping") {
        None => 0.85,
        Some(v) => v
            .as_f64()
            .ok_or((400, "\"damping\" must be a number".to_string()))?,
    };
    if !(damping > 0.0 && damping < 1.0) {
        return Err((400, format!("damping must be in (0,1), got {damping}")));
    }
    let tolerance = match body.get("tolerance") {
        None => 1e-5,
        Some(v) => v
            .as_f64()
            .ok_or((400, "\"tolerance\" must be a number".to_string()))?,
    };
    if !(tolerance > 0.0 && tolerance.is_finite()) {
        return Err((400, format!("tolerance must be positive, got {tolerance}")));
    }
    let top = match body.get("top") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or((400, "\"top\" must be a non-negative integer".to_string()))?
            as usize,
    };
    Ok(KeywordParams {
        members,
        base,
        keyword,
        damping,
        tolerance,
        top,
    })
}

/// `POST /keyword`: ObjectRank keyword ranking of a membership — the
/// random surfer teleports to the keyword's base set instead of
/// uniformly, and the subgraph is ranked through the same Λ-collapse as
/// `/rank`. Answers are cached per (membership, base, damping,
/// tolerance, graph epoch); each miss is one personalized Λ-collapse
/// solve, shared by concurrent identical misses.
fn keyword(state: &AppState, request: &Request, obs: &dyn Observer) -> Response {
    let params = match parse_keyword_params(state, &request.body) {
        Ok(p) => p,
        Err((status, e)) => return Response::error(status, &e),
    };
    let _span = obs.span("http.keyword");
    let mut extra = vec![("base_pages", Json::Num(params.base.len() as f64))];
    if let Some(kw) = &params.keyword {
        extra.push(("keyword", Json::Str(kw.clone())));
    }
    let key = KeywordKey {
        members: params.members.clone(),
        base: params.base.clone(),
        damping_bits: params.damping.to_bits(),
        tolerance_bits: params.tolerance.to_bits(),
        epoch: state.router.graph_epoch(),
    };
    if let Some((result, shards)) = state.keyword_cache.get(&key) {
        return Response::json(
            200,
            result_body("objectrank", &result, params.top, true, shards, extra).emit(),
        );
    }
    let routed = match state.router.keyword(
        &KeywordRequest {
            members: params.members,
            base: params.base,
            damping: params.damping,
            tolerance: params.tolerance,
        },
        obs,
    ) {
        Ok(r) => r,
        Err(e) => return engine_error(e),
    };
    state
        .keyword_cache
        .insert(key, (routed.outcome.result.clone(), routed.shards));
    Response::json(
        200,
        result_body(
            "objectrank",
            &routed.outcome.result,
            params.top,
            false,
            routed.shards,
            extra,
        )
        .emit(),
    )
}

/// Parses an optional edge-list field: an array of `[source, target]`
/// pairs. Endpoint range is checked by the delta layer (inserts may
/// legitimately extend the graph in single mode), so only the shape is
/// validated here.
fn parse_edge_list(body: &Json, field: &str) -> Result<Vec<(u32, u32)>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field:?} must be an array of [source, target] pairs"))?;
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let pair = item.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
            format!(
                "bad edge {} in {field:?}: want [source, target]",
                item.emit()
            )
        })?;
        let mut ends = [0u32; 2];
        for (slot, v) in ends.iter_mut().zip(pair) {
            let id = v
                .as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .ok_or_else(|| format!("bad page id {} in {field:?}", v.emit()))?;
            *slot = id as u32;
        }
        edges.push((ends[0], ends[1]));
    }
    Ok(edges)
}

/// `POST /graph/edges`: applies one edge-mutation batch to the live
/// graph and reports the new epoch. The answer's `nodes`/`edges` reflect
/// the post-mutation graph, so a client can confirm the shape it now
/// queries against.
fn graph_edges(state: &AppState, request: &Request, obs: &dyn Observer) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) if !t.trim().is_empty() => t,
        _ => return Response::error(400, "empty body; expected {\"insert\":[…],\"delete\":[…]}"),
    };
    let body = match parse(text) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let insert = match parse_edge_list(&body, "insert") {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    let delete = match parse_edge_list(&body, "delete") {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    if insert.is_empty() && delete.is_empty() {
        return Response::error(400, "mutation batch is empty (no \"insert\" or \"delete\")");
    }
    let _span = obs.span("http.graph_edges");
    let outcome = match state.router.mutate_graph(&insert, &delete, obs) {
        Ok(o) => o,
        Err(e) => return engine_error(e),
    };
    let graph = state.router.summary();
    Response::json(
        200,
        obj(vec![
            ("epoch", Json::Num(outcome.epoch as f64)),
            ("inserted", Json::Num(outcome.inserted as f64)),
            ("deleted", Json::Num(outcome.deleted as f64)),
            ("touched_pages", Json::Num(outcome.touched_pages as f64)),
            ("structural", Json::Bool(outcome.structural)),
            (
                "sessions_restarted",
                Json::Num(outcome.sessions_repaired as f64),
            ),
            ("shards", Json::Num(state.router.num_shards() as f64)),
            ("nodes", Json::Num(graph.nodes as f64)),
            ("edges", Json::Num(graph.edges as f64)),
        ])
        .emit(),
    )
}

fn session_create(state: &AppState, request: &Request, obs: &dyn Observer) -> Response {
    let params = match parse_rank_params(state, &request.body) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    if !matches!(params.algorithm, Algorithm::ApproxRank | Algorithm::Mc) {
        return Response::error(
            400,
            "sessions support only algorithms \"approxrank\" and \"mc\"",
        );
    }
    let _span = obs.span("http.session_create");
    let (id, result) = match state.router.session_create(&params.to_request(), obs) {
        Ok(created) => created,
        Err(e) => return engine_error(e),
    };
    Response::json(
        200,
        result_body(
            params.algorithm.name(),
            &result,
            params.top,
            false,
            1,
            vec![
                ("id", Json::Num(id as f64)),
                ("members", Json::Num(params.members.len() as f64)),
            ],
        )
        .emit(),
    )
}

fn parse_id_list(state: &AppState, body: &Json, field: &str) -> Result<Vec<u32>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field:?} must be an array"))?;
    let n = state.router.summary().nodes;
    let mut ids = Vec::with_capacity(items.len());
    for item in items {
        let id = item
            .as_u64()
            .ok_or_else(|| format!("bad id {} in {field:?}", item.emit()))?;
        if id as usize >= n {
            return Err(format!("id {id} out of range (graph has {n} nodes)"));
        }
        ids.push(id as u32);
    }
    Ok(ids)
}

fn session_update(state: &AppState, id: u64, request: &Request, obs: &dyn Observer) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) if !t.trim().is_empty() => t,
        _ => return Response::error(400, "empty body; expected {\"add\":[…],\"remove\":[…]}"),
    };
    let body = match parse(text) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let add = match parse_id_list(state, &body, "add") {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    let remove = match parse_id_list(state, &body, "remove") {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    let top = match body.get("top").map(|v| v.as_u64()) {
        None => 0,
        Some(Some(v)) => v as usize,
        Some(None) => return Response::error(400, "\"top\" must be a non-negative integer"),
    };

    let _span = obs.span("http.session_update");
    let (members, result) = match state.router.session_update(id, &add, &remove, obs) {
        Ok(updated) => updated,
        Err(e) => return engine_error(e),
    };
    // Estimator sessions are recognizable by their estimate block; the
    // router doesn't surface the session's algorithm separately.
    let algorithm = if result.estimate.is_some() {
        "mc"
    } else {
        "approxrank"
    };
    Response::json(
        200,
        result_body(
            algorithm,
            &result,
            top,
            false,
            1,
            vec![
                ("id", Json::Num(id as f64)),
                ("members", Json::Num(members.len() as f64)),
                ("warm_start", Json::Bool(true)),
            ],
        )
        .emit(),
    )
}

fn session_get(state: &AppState, id: u64) -> Response {
    let view = match state.router.session_view(id) {
        Ok(Some(view)) => view,
        Ok(None) => return Response::error(404, &format!("no session {id}")),
        Err(e) => return engine_error(e),
    };
    let body = obj(vec![
        ("id", Json::Num(id as f64)),
        (
            "members",
            Json::Arr(view.members.iter().map(|&m| Json::Num(m as f64)).collect()),
        ),
        ("last_iterations", Json::Num(view.last_iterations as f64)),
        ("damping", Json::Num(view.damping)),
        ("tolerance", Json::Num(view.tolerance)),
        // The last solution, served without re-solving — also what the
        // crash-recovery smoke test diffs across a restart.
        (
            "lambda",
            view.solution
                .as_ref()
                .map(|&(_, lambda)| Json::Num(lambda))
                .unwrap_or(Json::Null),
        ),
        (
            "scores",
            view.solution
                .as_ref()
                .map(|(scores, _)| scores_json(scores, 0))
                .unwrap_or(Json::Arr(vec![])),
        ),
    ]);
    Response::json(200, body.emit())
}

fn session_delete(state: &AppState, id: u64, obs: &dyn Observer) -> Response {
    match state.router.session_delete(id, obs) {
        Ok(true) => {}
        Ok(false) => return Response::error(404, &format!("no session {id}")),
        Err(e) => return engine_error(e),
    }
    Response::json(
        200,
        obj(vec![
            ("id", Json::Num(id as f64)),
            ("deleted", Json::Bool(true)),
        ])
        .emit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;
    use approxrank_core::ApproxRank;
    use approxrank_core::SubgraphRanker;
    use approxrank_graph::{DiGraph, NodeSet, Subgraph};
    use approxrank_pagerank::PageRankOptions;

    /// The paper's Figure 4 graph: locals A–D (0–3), externals X–Z.
    fn fig4_graph() -> DiGraph {
        DiGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 4),
                (0, 6),
                (1, 3),
                (2, 1),
                (2, 3),
                (3, 0),
                (4, 2),
                (4, 5),
                (4, 6),
                (5, 2),
                (5, 6),
                (6, 2),
                (6, 3),
            ],
        )
    }

    fn fig4_state() -> AppState {
        AppState::new(fig4_graph(), ServeConfig::default()).unwrap()
    }

    /// Shadows the real `route` for the tests below: they exercise the
    /// handlers, not the per-request tee the dispatcher builds, so the
    /// metrics registry alone is the observer (exactly what dispatch
    /// contributes beyond the recorder).
    fn route(state: &AppState, request: &Request) -> (Endpoint, Response) {
        super::route(state, request, &state.metrics)
    }

    /// A 2-shard state over a 200-node ring (range partitioning puts
    /// 0..100 on shard 0 and 100..200 on shard 1).
    fn sharded_state() -> AppState {
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 13 + 7) % n)])
            .collect();
        AppState::new(
            DiGraph::from_edges(n as usize, &edges),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: vec![],
            body: vec![],
        }
    }

    fn body_json(r: &Response) -> Json {
        parse(std::str::from_utf8(&r.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_and_stats() {
        let state = fig4_state();
        let (_, r) = route(&state, &get("/healthz"));
        assert_eq!(r.status, 200);
        let (_, r) = route(&state, &get("/stats"));
        assert_eq!(r.status, 200);
        let v = body_json(&r);
        assert_eq!(
            v.get("graph").unwrap().get("nodes").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(v.get("shards").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn rank_matches_offline_bitwise_and_caches() {
        let state = fig4_state();
        let req = post("/rank", r#"{"members":[0,1,2,3],"tolerance":1e-8}"#);
        let (_, first) = route(&state, &req);
        assert_eq!(first.status, 200, "{:?}", first.body);
        let v1 = body_json(&first);
        assert_eq!(v1.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(v1.get("shards").unwrap().as_u64(), Some(1));

        // Offline reference: the same call the CLI makes.
        let graph = fig4_graph();
        let options = PageRankOptions::paper().with_tolerance(1e-8);
        let nodes = NodeSet::from_sorted(7, [0u32, 1, 2, 3]);
        let sub = Subgraph::extract(&graph, nodes);
        let offline = ApproxRank::new(options).rank(&graph, &sub);
        let mut by_page: Vec<(u64, f64)> = v1
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s.get("page").unwrap().as_u64().unwrap(),
                    s.get("score").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        by_page.sort_by_key(|&(p, _)| p);
        for (i, &(page, score)) in by_page.iter().enumerate() {
            assert_eq!(page, i as u64);
            assert_eq!(
                score.to_bits(),
                offline.local_scores[i].to_bits(),
                "page {page} differs from offline solve"
            );
        }

        // Second identical request: served from cache, same bits.
        let (_, second) = route(&state, &req);
        let v2 = body_json(&second);
        assert_eq!(v2.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v1.get("scores"), v2.get("scores"));
        assert_eq!(state.cache_stats().hits, 1);
    }

    #[test]
    fn rank_validates_input() {
        let state = fig4_state();
        for (body, needle) in [
            ("", "empty body"),
            ("{not json", "expected"),
            (r#"{"members":[]}"#, "non-empty"),
            (r#"{"members":[99]}"#, "out of range"),
            (r#"{"members":[0,1,2,3,4,5,6]}"#, "proper subset"),
            (
                r#"{"members":[0],"algorithm":"bogus"}"#,
                "unknown algorithm",
            ),
            (r#"{"members":[0],"damping":1.5}"#, "damping"),
            (r#"{"members":[0],"tolerance":-1}"#, "tolerance"),
            (r#"{"members":"zero"}"#, "array"),
            (r#"{"members":[0],"walks":0}"#, "walks"),
            (r#"{"members":[0],"walks":"many"}"#, "walks"),
            (r#"{"members":[0],"epsilon":-0.5}"#, "epsilon"),
            (r#"{"members":[0],"seed":"abc"}"#, "seed"),
        ] {
            let (_, r) = route(&state, &post("/rank", body));
            assert_eq!(r.status, 400, "{body}");
            let msg = body_json(&r);
            assert!(
                msg.get("error").unwrap().as_str().unwrap().contains(needle),
                "{body} → {:?}",
                msg
            );
        }
    }

    #[test]
    fn every_algorithm_ranks() {
        let state = fig4_state();
        for algo in [
            "approxrank",
            "idealrank",
            "local",
            "lpr2",
            "sc",
            "mc",
            "push",
        ] {
            let (_, r) = route(
                &state,
                &post(
                    "/rank",
                    &format!(r#"{{"members":[0,1,2,3],"algorithm":"{algo}"}}"#),
                ),
            );
            assert_eq!(
                r.status,
                200,
                "{algo}: {:?}",
                String::from_utf8_lossy(&r.body)
            );
            let v = body_json(&r);
            assert_eq!(v.get("scores").unwrap().as_array().unwrap().len(), 4);
        }
    }

    #[test]
    fn top_truncates() {
        let state = fig4_state();
        let (_, r) = route(&state, &post("/rank", r#"{"members":[0,1,2,3],"top":2}"#));
        let v = body_json(&r);
        let scores = v.get("scores").unwrap().as_array().unwrap();
        assert_eq!(scores.len(), 2);
        // Descending by score.
        assert!(
            scores[0].get("score").unwrap().as_f64().unwrap()
                >= scores[1].get("score").unwrap().as_f64().unwrap()
        );
    }

    #[test]
    fn session_lifecycle_with_invalidation() {
        let state = fig4_state();
        // A cold /rank seeds a cache entry for the membership the session
        // will mutate — the update must evict it.
        let (_, seeded) = route(
            &state,
            &post("/rank", r#"{"members":[0,1,2],"tolerance":1e-9}"#),
        );
        assert_eq!(seeded.status, 200);
        assert_eq!(state.cache_stats().entries, 1);

        let (_, created) = route(
            &state,
            &post("/session", r#"{"members":[0,1,2],"tolerance":1e-9}"#),
        );
        assert_eq!(created.status, 200);
        let id = body_json(&created).get("id").unwrap().as_u64().unwrap();
        assert_eq!(state.session_count(), 1);

        // Update: add a page, drop a page; warm start re-solve.
        let (_, updated) = route(
            &state,
            &post(
                &format!("/session/{id}/update"),
                r#"{"add":[3],"remove":[0]}"#,
            ),
        );
        assert_eq!(
            updated.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&updated.body)
        );
        let v = body_json(&updated);
        assert_eq!(v.get("members").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("warm_start").unwrap().as_bool(), Some(true));
        assert!(state.cache_stats().invalidations >= 1);

        // The warm scores match a cold session solve within tolerance.
        let (_, got) = route(&state, &get(&format!("/session/{id}")));
        let members: Vec<u64> = body_json(&got)
            .get("members")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.as_u64().unwrap())
            .collect();
        assert_eq!(members, vec![1, 2, 3]);

        let (_, deleted) = route(&state, &get_delete(&format!("/session/{id}")));
        assert_eq!(deleted.status, 200);
        assert_eq!(state.session_count(), 0);
        let (_, gone) = route(&state, &get(&format!("/session/{id}")));
        assert_eq!(gone.status, 404);
    }

    fn get_delete(path: &str) -> Request {
        Request {
            method: "DELETE".into(),
            path: path.into(),
            headers: vec![],
            body: vec![],
        }
    }

    #[test]
    fn session_update_rejects_emptying_and_bad_ids() {
        let state = fig4_state();
        let (_, created) = route(&state, &post("/session", r#"{"members":[1,2]}"#));
        let id = body_json(&created).get("id").unwrap().as_u64().unwrap();
        let (_, r) = route(
            &state,
            &post(&format!("/session/{id}/update"), r#"{"remove":[1,2]}"#),
        );
        assert_eq!(r.status, 400);
        let (_, r) = route(
            &state,
            &post(&format!("/session/{id}/update"), r#"{"add":[999]}"#),
        );
        assert_eq!(r.status, 400);
        // Session still healthy afterwards.
        let (_, r) = route(
            &state,
            &post(&format!("/session/{id}/update"), r#"{"add":[3]}"#),
        );
        assert_eq!(r.status, 200);
    }

    #[test]
    fn session_rejects_non_approxrank() {
        let state = fig4_state();
        let (_, r) = route(
            &state,
            &post("/session", r#"{"members":[0,1],"algorithm":"sc"}"#),
        );
        assert_eq!(r.status, 400);
        // Push has no warm-update story (no visit counts to reuse).
        let (_, r) = route(
            &state,
            &post("/session", r#"{"members":[0,1],"algorithm":"push"}"#),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn estimator_rank_reports_estimate_block() {
        let state = fig4_state();
        let (_, r) = route(
            &state,
            &post(
                "/rank",
                r#"{"members":[0,1,2,3],"algorithm":"mc","walks":64,"seed":7}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        let est = v.get("estimate").expect("mc answer carries an estimate");
        assert_eq!(est.get("walks").unwrap().as_u64(), Some(4 * 64));
        assert!(est.get("residual").unwrap().as_f64().unwrap() > 0.0);
        // Same request: an estimator answer is cacheable under its
        // (walks, epsilon, seed) fingerprint.
        let (_, again) = route(
            &state,
            &post(
                "/rank",
                r#"{"members":[0,1,2,3],"algorithm":"mc","walks":64,"seed":7}"#,
            ),
        );
        assert_eq!(
            body_json(&again).get("cached").unwrap().as_bool(),
            Some(true)
        );
        // A different seed is a different answer, not a cache hit.
        let (_, other) = route(
            &state,
            &post(
                "/rank",
                r#"{"members":[0,1,2,3],"algorithm":"mc","walks":64,"seed":8}"#,
            ),
        );
        assert_eq!(
            body_json(&other).get("cached").unwrap().as_bool(),
            Some(false)
        );
        // Exact answers never grow an estimate block.
        let (_, exact) = route(&state, &post("/rank", r#"{"members":[0,1,2,3]}"#));
        assert!(body_json(&exact).get("estimate").is_none());
        // Push reports its residual bound with zero walks.
        let (_, p) = route(
            &state,
            &post(
                "/rank",
                r#"{"members":[0,1,2,3],"algorithm":"push","epsilon":0.001}"#,
            ),
        );
        assert_eq!(p.status, 200, "{:?}", String::from_utf8_lossy(&p.body));
        let est = body_json(&p).get("estimate").unwrap().clone();
        assert_eq!(est.get("walks").unwrap().as_u64(), Some(0));
        assert!(est.get("residual").unwrap().as_f64().unwrap() <= 0.001);
    }

    #[test]
    fn mc_session_lifecycle() {
        let state = fig4_state();
        let (_, created) = route(
            &state,
            &post(
                "/session",
                r#"{"members":[0,1,2],"algorithm":"mc","walks":64,"seed":3}"#,
            ),
        );
        assert_eq!(
            created.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&created.body)
        );
        let v = body_json(&created);
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("mc"));
        assert!(v.get("estimate").is_some());
        let id = v.get("id").unwrap().as_u64().unwrap();

        // Warm update keeps the estimate block and re-solves.
        let (_, updated) = route(
            &state,
            &post(
                &format!("/session/{id}/update"),
                r#"{"add":[3],"remove":[0]}"#,
            ),
        );
        assert_eq!(
            updated.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&updated.body)
        );
        let v = body_json(&updated);
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("mc"));
        assert_eq!(v.get("members").unwrap().as_u64(), Some(3));
        assert!(v.get("estimate").is_some());

        // The warm answer is bitwise the cold rank of the new membership.
        let (_, cold) = route(
            &state,
            &post(
                "/rank",
                r#"{"members":[1,2,3],"algorithm":"mc","walks":64,"seed":3}"#,
            ),
        );
        let cold_v = body_json(&cold);
        assert_eq!(cold_v.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("scores"), cold_v.get("scores"));

        let (_, deleted) = route(&state, &get_delete(&format!("/session/{id}")));
        assert_eq!(deleted.status, 200);
        assert_eq!(state.session_count(), 0);
    }

    #[test]
    fn unknown_routes_404_known_paths_405() {
        let state = fig4_state();
        let (_, r) = route(&state, &get("/nope"));
        assert_eq!(r.status, 404);
        let (_, r) = route(&state, &post("/healthz", ""));
        assert_eq!(r.status, 405);
        let (_, r) = route(&state, &get("/session/abc"));
        assert_eq!(r.status, 400);
        let (_, r) = route(&state, &get("/session/12345"));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn metrics_exposes_cache_and_solver_telemetry() {
        let state = fig4_state();
        let (_, _) = route(&state, &post("/rank", r#"{"members":[0,1,2,3]}"#));
        let (endpoint, r) = route(&state, &get("/metrics"));
        assert_eq!(endpoint.label(), "metrics");
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("approxrank_cache_misses_total 1"), "{text}");
        assert!(text.contains("approxrank_graph_nodes 7"), "{text}");
        assert!(text.contains("span_count{name=\"http.rank\"} 1"), "{text}");
        assert!(text.contains("shard_count 1"), "{text}");
        // The solver streamed its iteration events into the registry.
        assert!(text.contains("solver_iterations_total"), "{text}");
    }

    #[test]
    fn debug_requests_serves_the_trace_ring() {
        let state = fig4_state();
        // Empty ring: a well-formed empty array.
        let (endpoint, r) = route(&state, &get("/debug/requests"));
        assert_eq!(endpoint.label(), "debug_requests");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"[]");
        // POST is a known path, so it answers 405 not 404.
        let (_, r) = route(&state, &post("/debug/requests", ""));
        assert_eq!(r.status, 405);

        // Push a trace the way the dispatcher does and read it back.
        let recorder = approxrank_trace::RequestRecorder::new("tid1".into());
        {
            let obs: &dyn Observer = &recorder;
            let _span = obs.span("http.rank");
        }
        state.traces.push(recorder.finish("POST", "/rank", 200));
        let (_, r) = route(&state, &get("/debug/requests"));
        let parsed = approxrank_trace::request::parse_lines(
            std::str::from_utf8(&r.body)
                .unwrap()
                .trim_matches(['[', ']']),
        );
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.traces.len(), 1);
        assert_eq!(parsed.traces[0].trace_id, "tid1");
        assert_eq!(parsed.traces[0].root.children[0].name, "http.rank");
    }

    #[test]
    fn sharded_rank_is_bit_identical_for_resident_members() {
        let single = AppState::new(
            {
                let n = 200u32;
                let edges: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| [(i, (i + 1) % n), (i, (i * 13 + 7) % n)])
                    .collect();
                DiGraph::from_edges(n as usize, &edges)
            },
            ServeConfig::default(),
        )
        .unwrap();
        let sharded = sharded_state();
        let req = post("/rank", r#"{"members":[10,11,12,13,14],"tolerance":1e-8}"#);
        let (_, a) = route(&single, &req);
        let (_, b) = route(&sharded, &req);
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);
        // Shard-resident: the full response bodies are byte-identical,
        // including the `"shards":1` marker.
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn sharded_cross_shard_rank_merges() {
        let state = sharded_state();
        let (_, r) = route(
            &state,
            &post("/rank", r#"{"members":[98,99,100,101],"tolerance":1e-8}"#),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("shards").unwrap().as_u64(), Some(2));
        let mass: f64 = v
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("score").unwrap().as_f64().unwrap())
            .sum::<f64>()
            + v.get("lambda").unwrap().as_f64().unwrap();
        assert!((mass - 1.0).abs() < 1e-9, "mixture mass {mass}");
        // Global-state algorithms cannot span shards.
        let (_, r) = route(
            &state,
            &post("/rank", r#"{"members":[98,100],"algorithm":"idealrank"}"#),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn sharded_sessions_and_metrics() {
        let state = sharded_state();
        let (_, created) = route(&state, &post("/session", r#"{"members":[150,151]}"#));
        assert_eq!(created.status, 200);
        let id = body_json(&created).get("id").unwrap().as_u64().unwrap();
        assert_eq!(id, 2, "shard 1 strides ids 2, 4, …");
        // Spanning memberships are refused at create time.
        let (_, r) = route(&state, &post("/session", r#"{"members":[99,100]}"#));
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8_lossy(&r.body).contains("span"),
            "{:?}",
            String::from_utf8_lossy(&r.body)
        );
        let (_, r) = route(&state, &get("/metrics"));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("shard_count 2"), "{text}");
        assert!(
            text.contains("shard_sessions_open{shard=\"1\"} 1"),
            "{text}"
        );
        let (_, got) = route(&state, &get(&format!("/session/{id}")));
        assert_eq!(got.status, 200);
        let (_, deleted) = route(&state, &get_delete(&format!("/session/{id}")));
        assert_eq!(deleted.status, 200);
    }

    /// Runs the same `/rank` body against a state and returns the
    /// (page, score) rows sorted by page.
    fn rank_rows(state: &AppState, body: &str) -> Vec<(u64, f64)> {
        let (_, r) = route(state, &post("/rank", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let mut rows: Vec<(u64, f64)> = body_json(&r)
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s.get("page").unwrap().as_u64().unwrap(),
                    s.get("score").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        rows.sort_by_key(|&(p, _)| p);
        rows
    }

    #[test]
    fn keyword_matches_explicit_base_and_caches() {
        let state = fig4_state();
        // No labels file: keywords match the generated page-<i> labels.
        let (ep, by_kw) = route(
            &state,
            &post(
                "/keyword",
                r#"{"members":[0,1,2,3],"keyword":"page-5","tolerance":1e-8}"#,
            ),
        );
        assert_eq!(ep, Endpoint::Keyword);
        assert_eq!(
            by_kw.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&by_kw.body)
        );
        let v1 = body_json(&by_kw);
        assert_eq!(v1.get("algorithm").unwrap().as_str(), Some("objectrank"));
        assert_eq!(v1.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(v1.get("keyword").unwrap().as_str(), Some("page-5"));
        assert_eq!(v1.get("base_pages").unwrap().as_u64(), Some(1));

        // The same query with an explicit base resolves to the same cache
        // key: a hit, identical scores.
        let (_, by_base) = route(
            &state,
            &post(
                "/keyword",
                r#"{"members":[0,1,2,3],"base":[5],"tolerance":1e-8}"#,
            ),
        );
        let v2 = body_json(&by_base);
        assert_eq!(v2.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v1.get("scores"), v2.get("scores"));
        assert_eq!(state.keyword_cache.stats().0, 1, "one keyword-cache hit");

        // Base-set teleportation is a different walk than uniform /rank.
        let (_, uniform) = route(
            &state,
            &post("/rank", r#"{"members":[0,1,2,3],"tolerance":1e-8}"#),
        );
        assert_ne!(v1.get("scores"), body_json(&uniform).get("scores"));

        // The batch and keyword-cache counters surface on /metrics.
        let (_, m) = route(&state, &get("/metrics"));
        let text = String::from_utf8(m.body).unwrap();
        assert!(text.contains("batch_keyword_solves_total 1"), "{text}");
        assert!(!text.contains("batch_keyword_occupancy"), "{text}");
        assert!(text.contains("keyword_cache_hits_total 1"), "{text}");
        assert!(text.contains("keyword_cache_misses_total 1"), "{text}");
    }

    #[test]
    fn keyword_validates_input() {
        let state = fig4_state();
        for (body, status, needle) in [
            (r#"{"members":[0,1]}"#, 400, "missing"),
            (
                r#"{"members":[0,1],"keyword":"x","base":[1]}"#,
                400,
                "not both",
            ),
            (r#"{"members":[0,1],"base":[]}"#, 400, "non-empty"),
            (r#"{"members":[0,1],"base":[99]}"#, 400, "out of range"),
            (r#"{"members":[0,1],"base":"x"}"#, 400, "array"),
            (r#"{"members":[0,1],"keyword":""}"#, 400, "non-empty"),
            (r#"{"members":[0,1],"keyword":7}"#, 400, "string"),
            (
                r#"{"members":[0,1],"keyword":"zebra"}"#,
                404,
                "matches no page",
            ),
            (
                r#"{"members":[0,1],"keyword":"page-1","damping":2}"#,
                400,
                "damping",
            ),
            (
                r#"{"members":[0,1],"keyword":"page-1","tolerance":-1}"#,
                400,
                "tolerance",
            ),
        ] {
            let (_, r) = route(&state, &post("/keyword", body));
            assert_eq!(r.status, status, "{body}");
            let text = String::from_utf8_lossy(&r.body).to_string();
            assert!(text.contains(needle), "{body} -> {text}");
        }
    }

    #[test]
    fn keyword_resolves_against_a_labels_file() {
        let path = std::env::temp_dir().join(format!(
            "approxrank-serve-labels-{}.txt",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "alpha\nbeta\ngamma subgraph\ndelta\nepsilon\nzeta\nSubgraph eta\n",
        )
        .unwrap();
        let state = AppState::new(
            fig4_graph(),
            ServeConfig {
                labels: Some(path.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (_, r) = route(
            &state,
            &post("/keyword", r#"{"members":[0,1,2,3],"keyword":"subgraph"}"#),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        // Lines 2 and 6 match, case-insensitively.
        assert_eq!(body_json(&r).get("base_pages").unwrap().as_u64(), Some(2));

        // A labels file that does not cover the graph refuses to boot.
        std::fs::write(&path, "one\ntwo\n").unwrap();
        let err = AppState::new(
            fig4_graph(),
            ServeConfig {
                labels: Some(path.clone()),
                ..ServeConfig::default()
            },
        )
        .err()
        .expect("short labels file must refuse to boot");
        assert!(err.contains("2 lines"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_keyword_routes_like_rank() {
        let single = AppState::new(
            {
                let n = 200u32;
                let edges: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| [(i, (i + 1) % n), (i, (i * 13 + 7) % n)])
                    .collect();
                DiGraph::from_edges(n as usize, &edges)
            },
            ServeConfig::default(),
        )
        .unwrap();
        let sharded = sharded_state();
        // Shard-resident: full response bodies byte-identical.
        let req = post(
            "/keyword",
            r#"{"members":[10,11,12],"base":[0,150],"tolerance":1e-8}"#,
        );
        let (_, a) = route(&single, &req);
        let (_, b) = route(&sharded, &req);
        assert_eq!(a.status, 200, "{:?}", String::from_utf8_lossy(&a.body));
        assert_eq!(a.body, b.body);
        // Cross-shard: merged mixture over both shards.
        let (_, r) = route(
            &sharded,
            &post(
                "/keyword",
                r#"{"members":[98,99,100,101],"base":[0,150],"tolerance":1e-8}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("shards").unwrap().as_u64(), Some(2));
        let mass: f64 = v
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("score").unwrap().as_f64().unwrap())
            .sum::<f64>()
            + v.get("lambda").unwrap().as_f64().unwrap();
        assert!((mass - 1.0).abs() < 1e-9, "mixture mass {mass}");
    }

    #[test]
    fn graph_edges_mutates_and_matches_rebuilt_graph() {
        let state = fig4_state();
        let rank_body = r#"{"members":[0,1,2,3],"tolerance":1e-8}"#;
        let before = rank_rows(&state, rank_body);

        let (ep, r) = route(
            &state,
            &post(
                "/graph/edges",
                r#"{"insert":[[1,2],[3,2]],"delete":[[0,6]]}"#,
            ),
        );
        assert_eq!(ep, Endpoint::GraphEdges);
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("inserted").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("deleted").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("structural").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("edges").unwrap().as_u64(), Some(16));

        // /stats reflects the live (post-mutation) shape and epoch.
        let (_, r) = route(&state, &get("/stats"));
        let g = body_json(&r);
        let graph = g.get("graph").unwrap();
        assert_eq!(graph.get("edges").unwrap().as_u64(), Some(16));
        assert_eq!(graph.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(graph.get("mutations").unwrap().as_u64(), Some(1));

        // Answers now match a server booted on the mutated graph bitwise.
        let after = rank_rows(&state, rank_body);
        assert_ne!(before, after, "mutation must change the solution");
        let mut edges: Vec<(u32, u32)> = fig4_graph().edges().collect();
        edges.retain(|&e| e != (0, 6));
        edges.extend([(1, 2), (3, 2)]);
        edges.sort_unstable();
        let fresh = AppState::new(DiGraph::from_edges(7, &edges), ServeConfig::default()).unwrap();
        assert_eq!(after, rank_rows(&fresh, rank_body));

        // The approxrank read went through the overlay; only a
        // whole-graph algorithm rebuilds the CSR, once per epoch.
        let materializations = |state: &AppState| {
            let (_, r) = route(state, &get("/metrics"));
            let text = String::from_utf8(r.body).unwrap();
            let line = text
                .lines()
                .find(|l| l.starts_with("approxrank_delta_materializations_total "))
                .expect("materialization row")
                .to_string();
            line.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
        };
        assert_eq!(materializations(&state), 0);
        let ideal_body = r#"{"members":[0,1,2,3],"algorithm":"idealrank","tolerance":1e-8}"#;
        let ideal = rank_rows(&state, ideal_body);
        assert_eq!(materializations(&state), 1);
        assert_eq!(ideal, rank_rows(&fresh, ideal_body));
        assert_eq!(materializations(&state), 1);
    }

    #[test]
    fn graph_edges_rejects_malformed_batches() {
        let state = fig4_state();
        for (body, want) in [
            ("", "empty body"),
            ("{}", "batch is empty"),
            (r#"{"insert":[],"delete":[]}"#, "batch is empty"),
            (r#"{"insert":[[1]]}"#, "bad edge"),
            (r#"{"insert":[[1,2,3]]}"#, "bad edge"),
            (r#"{"insert":[[1,"x"]]}"#, "bad page id"),
            (r#"{"insert":[[1,4294967296]]}"#, "bad page id"),
            (r#"{"insert":7}"#, "must be an array"),
        ] {
            let (_, r) = route(&state, &post("/graph/edges", body));
            assert_eq!(r.status, 400, "{body}");
            let text = String::from_utf8_lossy(&r.body).to_string();
            assert!(text.contains(want), "{body} -> {text}");
        }
        // Nothing above reached the delta.
        assert_eq!(state.router.graph_epoch(), 0);
        assert_eq!(state.router.graph_mutations(), 0);
    }

    #[test]
    fn sharded_graph_edges_shares_one_delta() {
        let state = sharded_state();
        // A cross-shard edge lands in both shards' view of the shared
        // delta: source 50 is on shard 0, target 150 on shard 1.
        let (_, r) = route(&state, &post("/graph/edges", r#"{"insert":[[50,150]]}"#));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let v = body_json(&r);
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("shards").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("edges").unwrap().as_u64(), Some(401));

        // Both shards answer against the mutated graph, bitwise equal to
        // a sharded server booted on it.
        let n = 200u32;
        let mut edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 13 + 7) % n)])
            .collect();
        edges.push((50, 150));
        edges.sort_unstable();
        let fresh = AppState::new(
            DiGraph::from_edges(n as usize, &edges),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for members in ["[49,50,51]", "[149,150,151]"] {
            let body = format!("{{\"members\":{members},\"tolerance\":1e-9}}");
            assert_eq!(
                rank_rows(&state, &body),
                rank_rows(&fresh, &body),
                "{members}"
            );
        }

        // Node inserts need a single-shard deployment: page 200 does not
        // exist and no shard would own it.
        let (_, r) = route(&state, &post("/graph/edges", r#"{"insert":[[0,200]]}"#));
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8_lossy(&r.body).contains("single-shard"),
            "{:?}",
            String::from_utf8_lossy(&r.body)
        );

        // /metrics carries the epoch and stale-eviction rows.
        let (_, r) = route(&state, &get("/metrics"));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("approxrank_graph_epoch 1"), "{text}");
        assert!(
            text.contains("approxrank_graph_mutations_total 1"),
            "{text}"
        );
        assert!(
            text.contains("approxrank_cache_stale_evictions_total"),
            "{text}"
        );
    }
}
