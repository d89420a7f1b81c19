//! Per-layer figures of the traced run.
//!
//! The first requests of the schedule are replayed twice, in order, on
//! fresh deployments of the workload's topology: once through
//! `handlers::route` with the null observer and once with a
//! `RequestRecorder`, whose span trees give each layer's self time and
//! work counts. The benchmark also calls the layers' public functions
//! itself (subgraph extraction, the global precomputation, the HTTP and
//! JSON codecs, tenant admission, the delta overlay, the RPC codec) on
//! the same inputs. Work counts depend only on the seed.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use approxrank_core::GlobalPrecomputation;
use approxrank_engine::{Algorithm, DeltaGraph, EstimatorOptions, RankRequest};
use approxrank_graph::{assign_shards, DiGraph, NodeSet, PartitionStrategy, Subgraph};
use approxrank_rpc::wire::{
    encode_request, encode_response, RpcRequest, RpcResponse, FRAME_HEADER,
};
use approxrank_serve::http::{read_request, write_response, Request as HttpRequest};
use approxrank_serve::{handlers, AppState, TenantGovernor};
use approxrank_trace::{RequestRecorder, RequestTrace};

use crate::deploy::{self, Deployment, TENANT_QUOTA};
use crate::drive;
use crate::stats::median;
use crate::workload::{Algo, Schedule, Spec, Workload, REMOTE_SHARDS, TENANTS};

/// One named figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Requests replayed per workload: enough for stable medians while the
/// two passes stay within a few seconds.
pub fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::ColdMix => 160,
        Workload::HotServe => 400,
        Workload::MutateMix => 160,
        Workload::RemoteFanout => 240,
    }
}

/// Response bodies at most this large are parsed for the client-parse
/// and JSON-emit figures: parsing is quadratic in the body size today.
const PARSE_CAP_BYTES: usize = 96 * 1024;
/// At most this many bodies are parsed.
const PARSE_SAMPLES: usize = 32;

/// The first `len` specs of the schedule in the order the connections
/// interleave them.
pub fn replay_specs(schedule: &Schedule, len: usize) -> Vec<(usize, Spec)> {
    let mut out = Vec::with_capacity(len);
    let mut i = 0;
    while out.len() < len {
        let mut any = false;
        for (c, stream) in schedule.streams.iter().enumerate() {
            if let Some(&spec) = stream.get(i) {
                any = true;
                if out.len() < len {
                    out.push((c, spec));
                }
            }
        }
        if !any {
            break;
        }
        i += 1;
    }
    out
}

fn http_request(schedule: &Schedule, c: usize, spec: Spec, sessions: &[u64]) -> HttpRequest {
    let request = schedule.request(spec);
    let path = match spec {
        Spec::Session { .. } => format!("/session/{}/update", sessions[c]),
        _ => request.path.to_string(),
    };
    HttpRequest {
        method: "POST".into(),
        path,
        headers: vec![("x-tenant".into(), TENANTS[c % TENANTS.len()].into())],
        body: request.body.into_bytes(),
    }
}

/// A flattened span: name, interval, sweeps and counters.
struct FlatSpan<'a> {
    name: &'a str,
    start: u64,
    end: u64,
    iterations: u64,
    counters: &'a [(String, u64)],
}

fn flatten(trace: &RequestTrace) -> Vec<FlatSpan<'_>> {
    let mut out = Vec::new();
    for child in &trace.root.children {
        child.walk(&mut |node| {
            out.push(FlatSpan {
                name: &node.name,
                start: node.start_ns,
                end: node.start_ns + node.elapsed_ns,
                iterations: node.iterations,
                counters: &node.counters,
            })
        });
    }
    out.push(FlatSpan {
        name: "request",
        start: 0,
        end: trace.total_ns,
        iterations: trace.root.iterations,
        counters: &trace.root.counters,
    });
    out
}

/// Self time of span `i`: its duration minus the part of its interval
/// covered by the spans nested inside it, on any thread (fan-out lanes
/// record their spans under the request root).
fn self_ns(spans: &[FlatSpan<'_>], i: usize) -> u64 {
    let (s, e) = (spans[i].start, spans[i].end);
    let mut inner: Vec<(u64, u64)> = spans
        .iter()
        .enumerate()
        .filter(|&(j, sp)| j != i && sp.start >= s && sp.end <= e && (sp.start, sp.end) != (s, e))
        .map(|(_, sp)| (sp.start, sp.end))
        .collect();
    inner.sort_unstable();
    let mut covered = 0;
    let mut reach = s;
    for (a, b) in inner {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (e - s).saturating_sub(covered)
}

/// Per-request self time of the spans named in `names`, summed; `None`
/// when no such span ran.
/// A name ending in `*` matches every span name it prefixes.
fn span_us(spans: &[FlatSpan<'_>], names: &[&str]) -> Option<f64> {
    let wanted = |name: &str| {
        names.iter().any(|n| match n.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == *n,
        })
    };
    let mut total = None;
    for (i, span) in spans.iter().enumerate() {
        if wanted(span.name) {
            *total.get_or_insert(0.0) += self_ns(spans, i) as f64 / 1e3;
        }
    }
    total
}

fn counter_values<'a>(spans: &'a [FlatSpan<'_>], name: &'a str) -> impl Iterator<Item = u64> + 'a {
    spans
        .iter()
        .flat_map(|s| s.counters.iter())
        .filter(move |(n, _)| n == name)
        .map(|&(_, v)| v)
}

/// Collects per-call samples of one timed layer.
#[derive(Default)]
struct Timed(Vec<f64>);

impl Timed {
    fn push(&mut self, us: Option<f64>) {
        if let Some(us) = us {
            self.0.push(us);
        }
    }

    fn emit(&self, base: &str, out: &mut Vec<Metric>) {
        out.push(Metric {
            name: format!("{base}_us"),
            value: median(&self.0).unwrap_or(0.0),
            unit: "us",
        });
        out.push(Metric {
            name: format!("{base}_calls"),
            value: self.0.len() as f64,
            unit: "count",
        });
    }
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// The replay on two fresh deployments: each request goes to the
/// untraced one and to the traced one, in alternating order, so drift
/// over the replay does not bias the tracing overhead.
struct Pass {
    /// Per request: traced route time, trace, status and body.
    results: Vec<(f64, RequestTrace, u16, Vec<u8>)>,
    /// Summed route time of the untraced and the traced deployment.
    plain_us: f64,
    traced_us: f64,
    deployment: Deployment,
}

fn replay(
    schedule: &Schedule,
    specs: &[(usize, Spec)],
    graph_file: &Path,
    data_dirs: [Option<std::path::PathBuf>; 2],
) -> Result<Pass, String> {
    let [plain_dir, traced_dir] = data_dirs;
    let plain = deploy::boot(schedule.workload, graph_file, plain_dir)?;
    let traced = match deploy::boot(schedule.workload, graph_file, traced_dir) {
        Ok(d) => d,
        Err(e) => {
            plain.stop();
            return Err(e);
        }
    };
    let sessions = drive::open_sessions(&plain, schedule)
        .and_then(|a| drive::open_sessions(&traced, schedule).map(|b| (a, b)));
    let (plain_sessions, traced_sessions) = match sessions {
        Ok(s) => s,
        Err(e) => {
            plain.stop();
            traced.stop();
            return Err(e);
        }
    };
    let (mut plain_us, mut traced_us) = (0.0, 0.0);
    let mut results = Vec::with_capacity(specs.len());
    for (i, &(c, spec)) in specs.iter().enumerate() {
        let mut run_plain = || {
            let request = http_request(schedule, c, spec, &plain_sessions);
            let (_, us) =
                time_us(|| handlers::route(&plain.state, &request, approxrank_trace::null()));
            plain_us += us;
        };
        if i % 2 == 0 {
            run_plain();
        }
        let request = http_request(schedule, c, spec, &traced_sessions);
        let recorder = RequestRecorder::new(format!("replay{i}"));
        let ((_, response), us) = time_us(|| handlers::route(&traced.state, &request, &recorder));
        traced_us += us;
        let trace = recorder.finish(&request.method, &request.path, response.status);
        if i % 2 == 1 {
            run_plain();
        }
        results.push((us, trace, response.status, response.body));
    }
    plain.stop();
    Ok(Pass {
        results,
        plain_us,
        traced_us,
        deployment: traced,
    })
}

fn members_of(schedule: &Schedule, spec: Spec) -> Option<Vec<u32>> {
    match spec {
        Spec::Range { start, len, .. } => Some((start..start + len).collect()),
        Spec::Split { start, second, len } => Some(
            (start..start + len / 2)
                .chain(second..second + (len - len / 2))
                .collect(),
        ),
        Spec::Key { key, .. } => {
            let (start, len) = schedule.keys[key as usize];
            Some((start..start + len).collect())
        }
        _ => None,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs both replay passes and the direct layer calls; returns the
/// per-layer figures (work counts first-class, timings as medians per
/// call with their call counts).
pub fn measure(
    schedule: &Schedule,
    graph: &DiGraph,
    graph_file: &Path,
    tmp: &Path,
    reference: &AppState,
) -> Result<Vec<Metric>, String> {
    let workload = schedule.workload;
    let specs = replay_specs(schedule, replay_len(workload));
    let durable = |name: &str| (workload == Workload::MutateMix).then(|| tmp.join(name));
    let traced_dir = durable("replay-traced");
    let pass = replay(
        schedule,
        &specs,
        graph_file,
        [durable("replay-plain"), traced_dir.clone()],
    )?;
    let mut out = Vec::new();
    let n_req = specs.len() as f64;
    let reads = specs
        .iter()
        .filter(|(_, s)| {
            matches!(
                s,
                Spec::Range { .. } | Spec::Split { .. } | Spec::Key { .. }
            )
        })
        .count()
        .max(1) as f64;
    let writes = specs
        .iter()
        .filter(|(_, s)| matches!(s, Spec::Toggle { .. }))
        .count();

    let mut route = Timed::default();
    let mut probe = Timed::default();
    let mut batch_wait = Timed::default();
    let mut collapse = Timed::default();
    let mut solve = Timed::default();
    let mut mc = Timed::default();
    let mut push = Timed::default();
    let mut mutate = Timed::default();
    let mut session_update = Timed::default();
    let mut wal_append = Timed::default();
    let mut fsync = Timed::default();
    let mut dispatch = Timed::default();
    let mut merge = Timed::default();
    let mut rpc_call = Timed::default();
    let mut queue_wait = Timed::default();
    let (mut sweeps, mut edges_swept, mut solve_ns) = (0u64, 0u64, 0f64);
    let (mut steps, mut pushes, mut repaired, mut resp_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut ideal_clones = 0u64;
    let mut solved: Vec<Vec<u32>> = Vec::new();
    let assignment = (workload == Workload::RemoteFanout)
        .then(|| assign_shards(graph, REMOTE_SHARDS, PartitionStrategy::Range));

    for (&(_, spec), (route_us, trace, status, body)) in specs.iter().zip(&pass.results) {
        if *status != 200 {
            return Err(format!("replayed request {spec:?} answered {status}"));
        }
        route.push(Some(*route_us));
        resp_bytes += body.len() as u64;
        let spans = flatten(trace);
        probe.push(span_us(&spans, &["engine.cache_probe"]));
        collapse.push(span_us(&spans, &["collapse_lambda"]));
        let solve_us = span_us(&spans, &["extended", "extended_multi"]);
        solve.push(solve_us);
        mc.push(span_us(&spans, &["walk_sample", "walk_estimate"]));
        push.push(span_us(&spans, &["local_push"]));
        mutate.push(span_us(&spans, &["engine.mutate_graph"]));
        session_update.push(span_us(&spans, &["engine.session_update"]));
        wal_append.push(span_us(&spans, &["store.wal_append"]));
        dispatch.push(span_us(&spans, &["router.dispatch"]));
        merge.push(span_us(&spans, &["router.merge"]));
        rpc_call.push(span_us(&spans, &["rpc.*"]));
        for v in counter_values(&spans, "store_fsync_us") {
            fsync.push(Some(v as f64));
        }
        for v in counter_values(&spans, "exec_queue_wait_us") {
            queue_wait.push(Some(v as f64));
        }
        steps += counter_values(&spans, "walk_steps").sum::<u64>();
        pushes += counter_values(&spans, "walk_pushes").sum::<u64>();
        let solved_here = spans
            .iter()
            .any(|s| s.name == "engine.solve" || s.name == "engine.keyword_solve");
        if spans.iter().any(|s| s.name == "engine.keyword_solve") {
            batch_wait.push(span_us(&spans, &["http.keyword"]));
        }
        if let Spec::Range {
            algo: Algo::Ideal, ..
        } = spec
        {
            if solved_here {
                ideal_clones += 1;
            }
        }
        if let Spec::Toggle { .. } = spec {
            let text = String::from_utf8_lossy(body);
            if let Some(at) = text.find("\"sessions_restarted\":") {
                let digits: String = text[at + 21..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                repaired += digits.parse::<u64>().unwrap_or(0);
            }
        }
        let Some(members) = members_of(schedule, spec) else {
            continue;
        };
        let remote_solve = workload == Workload::RemoteFanout;
        if !(solved_here || remote_solve) {
            continue;
        }
        let iterations: u64 = spans
            .iter()
            .filter(|s| s.name == "extended" || s.name == "extended_multi")
            .map(|s| s.iterations)
            .sum();
        if iterations > 0 {
            let local_edges = Subgraph::extract(
                graph,
                NodeSet::from_sorted(graph.num_nodes(), members.iter().copied()),
            )
            .local_graph()
            .num_edges() as u64;
            sweeps += iterations;
            edges_swept += iterations * local_edges;
            solve_ns += solve_us.unwrap_or(0.0) * 1e3;
        }
        match &assignment {
            Some(assignment) => {
                for s in 0..REMOTE_SHARDS as u32 {
                    let part: Vec<u32> = members
                        .iter()
                        .copied()
                        .filter(|&m| assignment[m as usize] == s)
                        .collect();
                    if !part.is_empty() {
                        solved.push(part);
                    }
                }
            }
            None => solved.push(members),
        }
    }
    let stats = pass.deployment.state.cache_stats();
    let cross = pass.deployment.state.router.cross_rank_requests();
    pass.deployment.stop();

    // Direct calls into the graph and core layers, on every membership a
    // replayed request actually solved.
    let mut extract = Timed::default();
    let mut precompute = Timed::default();
    let (mut nodeset_bytes, mut boundary_in) = (0u64, 0u64);
    for members in &solved {
        let (nodes, _) =
            time_us(|| NodeSet::from_sorted(graph.num_nodes(), members.iter().copied()));
        nodeset_bytes += (graph.num_nodes() * 4 + graph.num_nodes() / 8 + members.len() * 4) as u64;
        let (sub, us) = time_us(|| Subgraph::extract(graph, nodes));
        extract.push(Some(us));
        boundary_in += sub.boundary().in_edges.len() as u64;
        if assignment.is_none() {
            let (_, us) = time_us(|| GlobalPrecomputation::compute(graph));
            precompute.push(Some(us));
        }
    }
    let solved_n = solved.len().max(1) as f64;

    // The HTTP and JSON codecs, on the replayed requests and answers.
    let mut http_read = Timed::default();
    let mut http_write = Timed::default();
    let mut json_parse = Timed::default();
    let mut json_emit = Timed::default();
    let mut client_parse = Timed::default();
    let mut parsed = 0;
    for (&(c, spec), (_, _, status, body)) in specs.iter().zip(&pass.results) {
        let request = http_request(schedule, c, spec, &[1, 2]);
        let raw = format!(
            "POST {} HTTP/1.1\r\nHost: approxrank\r\nX-Tenant: {}\r\nContent-Length: {}\r\n\r\n",
            request.path,
            TENANTS[c % TENANTS.len()],
            request.body.len()
        );
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&request.body);
        let (read, us) = time_us(|| read_request(&mut Cursor::new(&bytes[..]), 1 << 24));
        read.map_err(|_| "the benchmark's own request did not parse".to_string())?;
        http_read.push(Some(us));
        let text = std::str::from_utf8(&request.body).expect("generated bodies are UTF-8");
        let (_, us) = time_us(|| approxrank_store::json::parse(text));
        json_parse.push(Some(us));
        let response = approxrank_serve::http::Response {
            status: *status,
            content_type: "application/json",
            body: body.clone(),
            close: false,
            request_id: Some("replay".into()),
            retry_after: None,
        };
        let mut sink = Vec::with_capacity(body.len() + 256);
        let (_, us) = time_us(|| write_response(&mut sink, &response));
        http_write.push(Some(us));
        if parsed < PARSE_SAMPLES && body.len() <= PARSE_CAP_BYTES {
            parsed += 1;
            let text = String::from_utf8_lossy(body);
            let (json, us) = time_us(|| approxrank_store::json::parse(&text));
            client_parse.push(Some(us));
            if let Ok(json) = json {
                let (_, us) = time_us(|| json.emit());
                json_emit.push(Some(us));
            }
        }
    }

    let mut admit = Timed::default();
    if workload == Workload::HotServe {
        let governor = TenantGovernor::new(TENANT_QUOTA, 16, std::time::Duration::from_secs(5));
        for i in 0..specs.len() {
            let (_, us) = time_us(|| drop(governor.admit(TENANTS[i % TENANTS.len()])));
            admit.push(Some(us));
        }
    }

    // The delta overlay: each replayed edge write applied, then the first
    // read's compaction (a full CSR rebuild today).
    let mut apply = Timed::default();
    let mut compacted = Timed::default();
    let mut materialized = 0u64;
    if workload == Workload::MutateMix {
        let base = Arc::new(graph.clone());
        let delta = DeltaGraph::new(Arc::clone(&base));
        for &(_, spec) in &specs {
            if let Spec::Toggle { src, dst, insert } = spec {
                let edge = [(src, dst)];
                let (applied, us) = if insert {
                    time_us(|| delta.apply(&edge, &[]))
                } else {
                    time_us(|| delta.apply(&[], &edge))
                };
                applied.map_err(|e| format!("edge toggle rejected: {e:?}"))?;
                apply.push(Some(us));
                let (graph_now, us) = time_us(|| delta.compacted());
                compacted.push(Some(us));
                if !Arc::ptr_eq(&graph_now, &base) {
                    materialized += graph_now.num_edges() as u64;
                }
            }
        }
    }

    // RPC frames: what the router and the shard servers exchange for
    // each replayed read, encoded by the wire codec.
    let mut frame_bytes = 0u64;
    let mut frames = 0u64;
    if let Some(assignment) = &assignment {
        for &(_, spec) in &specs {
            let Some(members) = members_of(schedule, spec) else {
                continue;
            };
            for s in 0..REMOTE_SHARDS {
                let part: Vec<u32> = members
                    .iter()
                    .copied()
                    .filter(|&m| assignment[m as usize] == s as u32)
                    .collect();
                if part.is_empty() {
                    continue;
                }
                let sub = RankRequest {
                    members: part,
                    algorithm: Algorithm::ApproxRank,
                    damping: 0.85,
                    tolerance: 1e-5,
                    estimator: EstimatorOptions::default(),
                };
                let engine = &reference.router.local_engines()[s];
                let outcome = engine
                    .rank(&sub, approxrank_trace::null())
                    .map_err(|e| format!("reference shard solve failed: {e:?}"))?;
                let request = encode_request("", TENANTS[0], &RpcRequest::Rank(sub));
                let response = encode_response(&RpcResponse::Ranked {
                    cached: false,
                    result: outcome.result,
                });
                frame_bytes += (request.len() + response.len() + 2 * FRAME_HEADER) as u64;
                frames += 1;
            }
        }
    }

    let wal_kb = traced_dir
        .as_deref()
        .map(|d| dir_bytes(d) as f64 / 1024.0)
        .unwrap_or(0.0);
    let state_writes = specs
        .iter()
        .filter(|(_, s)| matches!(s, Spec::Toggle { .. } | Spec::Session { .. }))
        .count();

    route.emit("serve.handlers.route", &mut out);
    http_read.emit("serve.http.read", &mut out);
    http_write.emit("serve.http.write", &mut out);
    json_parse.emit("serve.json.parse", &mut out);
    json_emit.emit("serve.json.emit", &mut out);
    client_parse.emit("serve.client.parse", &mut out);
    admit.emit("serve.tenant.admit", &mut out);
    probe.emit("engine.cache_probe", &mut out);
    batch_wait.emit("engine.batch.wait", &mut out);
    extract.emit("graph.extract", &mut out);
    precompute.emit("core.precompute", &mut out);
    collapse.emit("core.collapse", &mut out);
    solve.emit("pagerank.solve", &mut out);
    mc.emit("walk.mc", &mut out);
    push.emit("walk.push", &mut out);
    apply.emit("delta.apply", &mut out);
    compacted.emit("delta.compacted", &mut out);
    mutate.emit("engine.mutate", &mut out);
    session_update.emit("engine.session_update", &mut out);
    wal_append.emit("store.wal_append", &mut out);
    fsync.emit("store.fsync", &mut out);
    dispatch.emit("serve.router.dispatch", &mut out);
    merge.emit("serve.router.merge", &mut out);
    rpc_call.emit("rpc.call", &mut out);
    queue_wait.emit("exec.queue_wait", &mut out);

    let per = |v: f64, d: f64| if d > 0.0 { v / d } else { 0.0 };
    let counts = [
        ("pagerank.sweeps", per(sweeps as f64, reads), "count"),
        (
            "pagerank.edges_swept",
            per(edges_swept as f64, reads),
            "count",
        ),
        (
            "pagerank.ns_per_edge",
            per(solve_ns, edges_swept as f64),
            "ns",
        ),
        (
            "graph.nodeset_kb",
            per(nodeset_bytes as f64 / 1024.0, solved_n),
            "KiB",
        ),
        (
            "graph.boundary_in_edges",
            per(boundary_in as f64, solved_n),
            "count",
        ),
        (
            "engine.ideal_clone_kb",
            per(
                ideal_clones as f64 * graph.num_nodes() as f64 * 8.0 / 1024.0,
                reads,
            ),
            "KiB",
        ),
        ("walk.steps", per(steps as f64, reads), "count"),
        ("walk.pushes", per(pushes as f64, reads), "count"),
        (
            "delta.materialized_edges",
            per(materialized as f64, writes as f64),
            "count",
        ),
        (
            "engine.sessions_repaired",
            per(repaired as f64, writes as f64),
            "count",
        ),
        (
            "engine.stale_evictions",
            per(stats.stale_evictions as f64, n_req),
            "count",
        ),
        ("store.wal_kb", per(wal_kb, state_writes as f64), "KiB"),
        (
            "serve.router.cross_share",
            per(cross as f64, reads),
            "ratio",
        ),
        (
            "serve.http.resp_kb",
            per(resp_bytes as f64 / 1024.0, n_req),
            "KiB",
        ),
        (
            "rpc.frame_kb",
            per(frame_bytes as f64 / 1024.0, frames as f64),
            "KiB",
        ),
        (
            "trace.overhead_ratio",
            per(pass.traced_us, pass.plain_us),
            "ratio",
        ),
    ];
    out.extend(counts.into_iter().map(|(name, value, unit)| Metric {
        name: name.to_string(),
        value,
        unit,
    }));
    Ok(out)
}

/// Names of the per-layer figures that are work counts: they depend only
/// on the seed and must repeat exactly.
pub const WORK_COUNTS: [&str; 14] = [
    "pagerank.sweeps",
    "pagerank.edges_swept",
    "graph.nodeset_kb",
    "graph.boundary_in_edges",
    "engine.ideal_clone_kb",
    "walk.steps",
    "walk.pushes",
    "delta.materialized_edges",
    "engine.sessions_repaired",
    "engine.stale_evictions",
    "serve.router.cross_share",
    "serve.http.resp_kb",
    "rpc.frame_kb",
    "store.wal_kb",
];

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_trace::request::SpanNode;

    fn node(name: &str, start: u64, elapsed: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            start_ns: start,
            elapsed_ns: elapsed,
            iterations: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            children,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_on_any_thread() {
        // A dispatch span whose fan-out lanes recorded under the root.
        let root = node(
            "request",
            0,
            100,
            vec![
                node(
                    "router.dispatch",
                    0,
                    90,
                    vec![node("router.merge", 70, 10, vec![])],
                ),
                node("router.shard0", 10, 50, vec![]),
                node("router.shard1", 20, 50, vec![]),
            ],
        );
        let trace = RequestTrace {
            trace_id: "t".into(),
            method: "POST".into(),
            path: "/rank".into(),
            status: 200,
            total_ns: 100,
            root,
        };
        let spans = flatten(&trace);
        let dispatch = spans
            .iter()
            .position(|s| s.name == "router.dispatch")
            .unwrap();
        // 90 ns minus shards covering 10..70 and the merge 70..80.
        assert_eq!(self_ns(&spans, dispatch), 20);
    }
}
