//! Request-scoped tracing: trace ids, per-request span trees, a ring
//! buffer of completed traces, and a JSONL wire format.
//!
//! The serving layer creates one [`RequestRecorder`] per inbound HTTP
//! request and threads it (as a `&dyn Observer`, usually teed with the
//! process-wide metrics observer) through router → engine → store →
//! solver. Spans nest into a tree by thread: each recording thread keeps
//! its own span stack, and a span opened on a thread with an empty stack
//! (a fan-out pool lane, say) parents to the root — the router labels
//! those with per-shard span names so attribution stays legible.
//!
//! Completed [`RequestTrace`]s are held in a fixed-capacity [`TraceRing`]
//! for `GET /debug/requests`, and serialized one-per-line by [`emit`] for
//! the slow-query log. [`parse_line`] is strict; [`parse_lines`] /
//! [`parse_lines_bytes`] are deliberately lenient (skip-and-count, never
//! panic) because slow-query files are appended by a live server and may
//! end mid-line or interleave torn writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use approxrank_store::json::{Reader, Writer};

use crate::jsonl::{key, object, required};
use crate::{Event, Observer};

/// Trace-id helpers: 16-hex-char request identifiers.
pub struct TraceId;

impl TraceId {
    /// Generates a fresh id: 16 lowercase hex chars mixed from the wall
    /// clock, the process id, and a per-process counter (splitmix64
    /// finalizer — no RNG dependency, negligible collision odds within
    /// one trace ring).
    pub fn generate() -> String {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut x =
            nanos ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((std::process::id() as u64) << 32);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        format!("{x:016x}")
    }

    /// Whether an inbound `X-Request-Id` header value is acceptable for
    /// propagation: 1–64 chars of `[0-9A-Za-z._-]`. Anything else gets a
    /// fresh id instead (headers are attacker-controlled; ids end up in
    /// log lines and metric labels).
    pub fn is_valid(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    }
}

/// One node of a request's span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name (`"http.rank"`, `"engine.solve"`, `"store.wal_append"`,
    /// or a solver span like `"solve"`).
    pub name: String,
    /// Offset of the span's start from the request's start.
    pub start_ns: u64,
    /// Wall-clock length of the span (0 while still open).
    pub elapsed_ns: u64,
    /// Solver sweeps recorded while this span was the active one.
    pub iterations: u64,
    /// Counters recorded while this span was active, in order (dupes
    /// kept).
    pub counters: Vec<(String, u64)>,
    /// Gauges recorded while this span was active, in order.
    pub gauges: Vec<(String, f64)>,
    /// Child spans, in start order per thread.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: String, start_ns: u64) -> SpanNode {
        SpanNode {
            name,
            start_ns,
            elapsed_ns: 0,
            iterations: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Self time: elapsed minus the children's elapsed (saturating, since
    /// concurrent children on fan-out lanes can overlap the parent).
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.elapsed_ns).sum();
        self.elapsed_ns.saturating_sub(children)
    }

    /// Depth-first walk over the node and all descendants.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode)) {
        f(self);
        for child in &self.children {
            child.walk(f);
        }
    }
}

/// One completed request: identity, outcome, and the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestTrace {
    /// The request's trace id (echoed as `X-Request-Id`).
    pub trace_id: String,
    /// HTTP method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// End-to-end handling time.
    pub total_ns: u64,
    /// The span tree; the root's name is `"request"`.
    pub root: SpanNode,
}

struct RecorderInner {
    root: SpanNode,
    /// Per-thread span stacks as index paths from the root, so spans
    /// recorded concurrently from fan-out lanes nest under their own
    /// lineage instead of corrupting each other's.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl RecorderInner {
    fn node_at(&mut self, path: &[usize]) -> &mut SpanNode {
        let mut node = &mut self.root;
        for &i in path {
            node = &mut node.children[i];
        }
        node
    }
}

/// Builds one request's span tree from [`Event`]s. Always enabled; one
/// recorder per request, so the mutex is effectively uncontended except
/// during cross-shard fan-out (a handful of events per shard).
pub struct RequestRecorder {
    trace_id: String,
    started: Instant,
    inner: Mutex<RecorderInner>,
}

impl RequestRecorder {
    /// A recorder for one request with the given trace id.
    pub fn new(trace_id: String) -> RequestRecorder {
        RequestRecorder {
            trace_id,
            started: Instant::now(),
            inner: Mutex::new(RecorderInner {
                root: SpanNode::new("request".to_string(), 0),
                stacks: HashMap::new(),
            }),
        }
    }

    /// The id this recorder was created with.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Seals the tree into a [`RequestTrace`]. Spans still open (a
    /// panicking handler, say) keep `elapsed_ns == 0`.
    pub fn finish(self, method: &str, path: &str, status: u16) -> RequestTrace {
        let total_ns = self.started.elapsed().as_nanos() as u64;
        let mut inner = self.inner.into_inner().unwrap_or_else(|e| e.into_inner());
        inner.root.elapsed_ns = total_ns;
        RequestTrace {
            trace_id: self.trace_id,
            method: method.to_string(),
            path: path.to_string(),
            status,
            total_ns,
            root: inner.root,
        }
    }
}

impl Observer for RequestRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let offset_ns = self.started.elapsed().as_nanos() as u64;
        let thread = std::thread::current().id();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match event {
            Event::SpanStart { name } => {
                let path = inner.stacks.entry(thread).or_default().clone();
                let parent = inner.node_at(&path);
                parent.children.push(SpanNode::new(name, offset_ns));
                let child = parent.children.len() - 1;
                inner
                    .stacks
                    .get_mut(&thread)
                    .expect("stack just inserted")
                    .push(child);
            }
            Event::SpanEnd { elapsed_ns, .. } => {
                if let Some(stack) = inner.stacks.get_mut(&thread) {
                    if let Some(idx) = stack.pop() {
                        let path = stack.clone();
                        let parent = inner.node_at(&path);
                        if let Some(child) = parent.children.get_mut(idx) {
                            // 0 means "never closed"; clamp real spans
                            // up to 1 ns so the sentinel stays unique.
                            child.elapsed_ns = elapsed_ns.max(1);
                        }
                    }
                }
            }
            Event::Counter { name, value } => {
                let path = inner.stacks.get(&thread).cloned().unwrap_or_default();
                inner.node_at(&path).counters.push((name, value));
            }
            Event::Gauge { name, value } => {
                let path = inner.stacks.get(&thread).cloned().unwrap_or_default();
                inner.node_at(&path).gauges.push((name, value));
            }
            Event::Iteration { .. } => {
                let path = inner.stacks.get(&thread).cloned().unwrap_or_default();
                inner.node_at(&path).iterations += 1;
            }
        }
    }
}

/// Fixed-capacity ring of the most recent completed request traces.
/// One mutex-guarded `VecDeque` — pushes move an owned trace, snapshots
/// clone, and neither happens on the solver hot path.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<std::collections::VecDeque<RequestTrace>>,
}

impl TraceRing {
    /// A ring keeping the last `capacity` traces (capacity is clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Appends a completed trace, evicting the oldest when full.
    pub fn push(&self, trace: RequestTrace) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// All held traces, oldest first.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Wire format: one JSON object per trace, one trace per line.
// ---------------------------------------------------------------------

/// Serializes one trace as a single-line JSON object (no trailing
/// newline): the text [`write()`] appends.
pub fn emit(trace: &RequestTrace) -> String {
    let mut out = Writer::default();
    write(&mut out, trace);
    out.finish()
}

/// Appends one trace as a single-line JSON object. Field order is fixed
/// and floats use shortest round-trip `{:?}` text (`NaN` / `inf` /
/// `-inf` for non-finite), so `parse_line(&emit(t)) == t` bit-for-bit.
pub fn write(out: &mut Writer, trace: &RequestTrace) {
    out.raw("{\"trace_id\":");
    out.str(&trace.trace_id);
    key(out, "method").str(&trace.method);
    key(out, "path").str(&trace.path);
    key(out, "status").uint(trace.status.into());
    key(out, "total_ns").uint(trace.total_ns);
    write_node(key(out, "root"), &trace.root);
    out.raw("}");
}

fn write_node(out: &mut Writer, node: &SpanNode) {
    out.raw("{\"name\":");
    out.str(&node.name);
    key(out, "start_ns").uint(node.start_ns);
    key(out, "elapsed_ns").uint(node.elapsed_ns);
    key(out, "iterations").uint(node.iterations);
    write_pairs(key(out, "counters"), &node.counters, Writer::uint);
    write_pairs(key(out, "gauges"), &node.gauges, Writer::lossless_f64);
    key(out, "children").raw("[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.raw(",");
        }
        write_node(out, child);
    }
    out.raw("]}");
}

/// `[[name, value], …]`.
fn write_pairs<V: Copy>(out: &mut Writer, pairs: &[(String, V)], value: fn(&mut Writer, V)) {
    out.raw("[");
    for (i, (name, v)) in pairs.iter().enumerate() {
        out.raw(if i > 0 { ",[" } else { "[" });
        out.str(name);
        out.raw(",");
        value(out, *v);
        out.raw("]");
    }
    out.raw("]");
}

/// A lenient multi-line parse: traces that parse, plus a count of lines
/// that did not.
#[derive(Debug, Default)]
pub struct ParsedTraces {
    /// Successfully parsed traces, in file order.
    pub traces: Vec<RequestTrace>,
    /// Lines skipped as malformed (truncated, torn, or non-UTF8).
    pub skipped: usize,
}

/// Parses a slow-query / capture file leniently: blank lines are
/// ignored, malformed lines are counted and skipped, and nothing panics.
pub fn parse_lines(input: &str) -> ParsedTraces {
    parse_lines_bytes(input.as_bytes())
}

/// [`parse_lines`] over raw bytes: lines that are not valid UTF-8 are
/// counted as skipped rather than aborting the whole file.
pub fn parse_lines_bytes(input: &[u8]) -> ParsedTraces {
    let mut out = ParsedTraces::default();
    for line in input.split(|&b| b == b'\n') {
        match std::str::from_utf8(line).map(str::trim) {
            Ok("") => {}
            Ok(line) => match parse_line(line) {
                Ok(trace) => out.traces.push(trace),
                Err(_) => out.skipped += 1,
            },
            Err(_) => out.skipped += 1,
        }
    }
    out
}

/// Strictly parses one line produced by [`emit`]. Members may come in
/// any order (a repeated one keeps the last); unknown ones are skipped.
pub fn parse_line(line: &str) -> Result<RequestTrace, String> {
    let mut r = Reader::new(line);
    let (mut trace_id, mut method, mut path, mut status, mut total_ns, mut root) =
        (None, None, None, None, None, None);
    object(&mut r)?;
    while let Some(member) = r.next_key()? {
        match member.as_str() {
            "trace_id" => trace_id = Some(r.str()?),
            "method" => method = Some(r.str()?),
            "path" => path = Some(r.str()?),
            "status" => {
                let code = r.u64()?;
                status = Some(u16::try_from(code).map_err(|_| format!("bad status {code}"))?);
            }
            "total_ns" => total_ns = Some(r.u64()?),
            "root" => root = Some(read_node(&mut r)?),
            _ => {
                r.value()?;
            }
        }
    }
    r.finish()?;
    Ok(RequestTrace {
        trace_id: required(trace_id, "trace_id")?,
        method: required(method, "method")?,
        path: required(path, "path")?,
        status: required(status, "status")?,
        total_ns: required(total_ns, "total_ns")?,
        root: required(root, "root")?,
    })
}

fn read_node(r: &mut Reader) -> Result<SpanNode, String> {
    let (mut name, mut start_ns, mut elapsed_ns, mut iterations) = (None, None, None, None);
    let (mut counters, mut gauges, mut children) = (None, None, None);
    object(r)?;
    while let Some(member) = r.next_key()? {
        match member.as_str() {
            "name" => name = Some(r.str()?),
            "start_ns" => start_ns = Some(r.u64()?),
            "elapsed_ns" => elapsed_ns = Some(r.u64()?),
            "iterations" => iterations = Some(r.u64()?),
            "counters" => counters = Some(array(r, |r| pair(r, Reader::u64))?),
            "gauges" => gauges = Some(array(r, |r| pair(r, Reader::lossless_f64))?),
            "children" => children = Some(array(r, read_node)?),
            _ => {
                r.value()?;
            }
        }
    }
    Ok(SpanNode {
        name: required(name, "name")?,
        start_ns: required(start_ns, "start_ns")?,
        elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        iterations: required(iterations, "iterations")?,
        counters: required(counters, "counters")?,
        gauges: required(gauges, "gauges")?,
        children: required(children, "children")?,
    })
}

/// The array at the reader, each element read by `item`.
fn array<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    if !r.begin_array() {
        return Err("expected an array".into());
    }
    let mut items = Vec::new();
    while r.next_element()? {
        items.push(item(r)?);
    }
    Ok(items)
}

/// A `[name, value]` pair, its value read by `value`.
fn pair<'a, T>(
    r: &mut Reader<'a>,
    value: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<(String, T), String> {
    let bad = || "expected a [name, value] pair".to_string();
    if !r.begin_array() || !r.next_element()? {
        return Err(bad());
    }
    let name = r.str()?;
    if !r.next_element()? {
        return Err(bad());
    }
    let v = value(r)?;
    if r.next_element()? {
        return Err(bad());
    }
    Ok((name, v))
}

// ---------------------------------------------------------------------
// Aggregation & rendering (shared by `subrank report --requests` and
// loadgen's `--capture` mode).
// ---------------------------------------------------------------------

/// Per-layer self-time totals across a set of traces.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerStat {
    /// Layer name: the span-name prefix before the first `.` (`"http"`,
    /// `"router"`, `"engine"`, `"store"`), or `"solver"` for undotted
    /// solver spans, `"other"` for the root's own untracked time.
    pub layer: String,
    /// Spans attributed to this layer.
    pub spans: u64,
    /// Summed self time (elapsed minus children).
    pub total_ns: u64,
    /// Largest single-span self time.
    pub max_ns: u64,
}

/// The layer a span name belongs to (see [`LayerStat::layer`]).
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((prefix, _))
            if matches!(
                prefix,
                "http" | "router" | "engine" | "store" | "serve" | "rpc"
            ) =>
        {
            prefix
        }
        _ if name == "request" => "other",
        _ => "solver",
    }
}

/// Folds a set of traces into per-layer self-time totals, largest total
/// first.
pub fn layer_breakdown(traces: &[RequestTrace]) -> Vec<LayerStat> {
    let mut layers: std::collections::BTreeMap<&str, LayerStat> = std::collections::BTreeMap::new();
    for trace in traces {
        trace.root.walk(&mut |node| {
            let layer = layer_of(&node.name);
            let stat = layers.entry(layer).or_insert_with(|| LayerStat {
                layer: layer.to_string(),
                spans: 0,
                total_ns: 0,
                max_ns: 0,
            });
            let own = node.self_ns();
            stat.spans += 1;
            stat.total_ns += own;
            stat.max_ns = stat.max_ns.max(own);
        });
    }
    let mut out: Vec<LayerStat> = layers.into_values().collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.layer.cmp(&b.layer)));
    out
}

/// Renders a span tree as indented text, one span per line:
/// `name  elapsed  [iterations / counters]`.
pub fn render_tree(node: &SpanNode) -> String {
    let mut out = String::new();
    render_node(&mut out, node, 0);
    out
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{} {}", node.name, fmt_ns(node.elapsed_ns)));
    if node.iterations > 0 {
        out.push_str(&format!("  ({} iterations)", node.iterations));
    }
    for (name, value) in &node.counters {
        out.push_str(&format!("  {name}={value}"));
    }
    out.push('\n');
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RequestTrace {
        let rec = RequestRecorder::new("00c0ffee00c0ffee".into());
        {
            let obs: &dyn Observer = &rec;
            let _outer = obs.span("http.rank");
            {
                let _inner = obs.span("engine.solve");
                obs.counter("solve_iterations", 12);
                obs.gauge("residual", 1e-9);
                obs.iteration(crate::IterationEvent {
                    solver: "power",
                    iteration: 0,
                    residual: 0.5,
                    dangling_mass: 0.0,
                    elapsed_ns: 10,
                });
            }
        }
        rec.finish("POST", "/rank", 200)
    }

    #[test]
    fn trace_ids_are_hex_and_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
        assert!(TraceId::is_valid(&a));
        assert!(!TraceId::is_valid(""));
        assert!(!TraceId::is_valid("has space"));
        assert!(!TraceId::is_valid(&"x".repeat(65)));
    }

    #[test]
    fn recorder_builds_a_nested_tree() {
        let trace = sample_trace();
        assert_eq!(trace.trace_id, "00c0ffee00c0ffee");
        assert_eq!(trace.status, 200);
        assert_eq!(trace.root.name, "request");
        assert_eq!(trace.root.children.len(), 1);
        let outer = &trace.root.children[0];
        assert_eq!(outer.name, "http.rank");
        assert!(outer.elapsed_ns > 0);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "engine.solve");
        assert_eq!(inner.counters, vec![("solve_iterations".to_string(), 12)]);
        assert_eq!(inner.iterations, 1);
        assert_eq!(inner.gauges.len(), 1);
    }

    #[test]
    fn fanout_thread_spans_parent_to_root() {
        let rec = RequestRecorder::new("f".repeat(16));
        {
            let obs: &dyn Observer = &rec;
            let _outer = obs.span("http.rank");
            std::thread::scope(|scope| {
                for shard in 0..2 {
                    let rec = &rec;
                    scope.spawn(move || {
                        let obs: &dyn Observer = rec;
                        let _s = obs.span(&format!("router.shard{shard}"));
                        obs.counter("engine_cache_probe_us", shard);
                    });
                }
            });
        }
        let trace = rec.finish("POST", "/rank", 200);
        // http.rank from the request thread plus one labeled span per
        // fan-out lane, all directly under the root.
        let names: Vec<&str> = trace
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(trace.root.children.len(), 3, "{names:?}");
        assert!(names.contains(&"http.rank"));
        assert!(names.contains(&"router.shard0"));
        assert!(names.contains(&"router.shard1"));
    }

    #[test]
    fn emit_parse_round_trips() {
        let trace = sample_trace();
        let line = emit(&trace);
        assert_eq!(parse_line(&line).unwrap(), trace);
    }

    #[test]
    fn non_finite_gauges_round_trip() {
        let mut trace = sample_trace();
        trace.root.gauges.push(("inf".into(), f64::INFINITY));
        trace.root.gauges.push(("ninf".into(), f64::NEG_INFINITY));
        let parsed = parse_line(&emit(&trace)).unwrap();
        assert_eq!(parsed.root.gauges[0].1, f64::INFINITY);
        assert_eq!(parsed.root.gauges[1].1, f64::NEG_INFINITY);
    }

    #[test]
    fn lenient_parse_skips_and_counts() {
        let good = emit(&sample_trace());
        let torn = &good[..good.len() / 2];
        let input = format!("{good}\n{torn}\nnot json at all\n\n{good}\n");
        let parsed = parse_lines(&input);
        assert_eq!(parsed.traces.len(), 2);
        assert_eq!(parsed.skipped, 2);
    }

    #[test]
    fn lenient_byte_parse_survives_non_utf8() {
        let good = emit(&sample_trace());
        let mut bytes = good.clone().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
        bytes.extend_from_slice(good.as_bytes());
        let parsed = parse_lines_bytes(&bytes);
        assert_eq!(parsed.traces.len(), 2);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn deep_nesting_is_refused_without_overflowing_the_stack() {
        let open = "{\"name\":\"s\",\"start_ns\":0,\"elapsed_ns\":0,\"iterations\":0,\
                    \"counters\":[],\"gauges\":[],\"children\":[";
        let deep = format!(
            "{{\"trace_id\":\"t\",\"method\":\"GET\",\"path\":\"/\",\"status\":200,\
             \"total_ns\":1,\"root\":{}{}}}",
            open.repeat(10_000),
            "]}".repeat(10_000)
        );
        let err = parse_line(&deep).unwrap_err();
        assert!(err.contains("deep"), "{err}");
        let good = emit(&sample_trace());
        let parsed = parse_lines(&format!("{good}\n{deep}\n{good}\n"));
        assert_eq!(parsed.traces.len(), 2);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = TraceRing::new(2);
        for status in [200u16, 201, 202] {
            let mut t = sample_trace();
            t.status = status;
            ring.push(t);
        }
        let held = ring.snapshot();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].status, 201);
        assert_eq!(held[1].status, 202);
    }

    #[test]
    fn layer_breakdown_attributes_self_time() {
        let trace = sample_trace();
        let total_ns = trace.total_ns;
        let layers = layer_breakdown(&[trace]);
        let names: Vec<&str> = layers.iter().map(|l| l.layer.as_str()).collect();
        assert!(names.contains(&"http"), "{names:?}");
        assert!(names.contains(&"engine"), "{names:?}");
        assert!(names.contains(&"other"), "{names:?}");
        // Self times partition the root's elapsed (no double counting) —
        // compared against the SAME trace's wall clock, not a re-timed one.
        let total: u64 = layers.iter().map(|l| l.total_ns).sum();
        assert!(total <= total_ns * 2, "{total} vs {total_ns}");
    }

    #[test]
    fn layer_of_prefixes() {
        assert_eq!(layer_of("http.rank"), "http");
        assert_eq!(layer_of("router.shard0"), "router");
        assert_eq!(layer_of("engine.cache_probe"), "engine");
        assert_eq!(layer_of("store.wal_append"), "store");
        assert_eq!(layer_of("serve.global_pagerank"), "serve");
        assert_eq!(layer_of("rpc.rank"), "rpc");
        assert_eq!(layer_of("solve"), "solver");
        assert_eq!(layer_of("collapse_lambda.extra"), "solver");
        assert_eq!(layer_of("request"), "other");
    }

    #[test]
    fn render_tree_indents() {
        let trace = sample_trace();
        let text = render_tree(&trace.root);
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("  http.rank"), "{text}");
        assert!(text.contains("    engine.solve"), "{text}");
        assert!(text.contains("(1 iterations)"), "{text}");
    }
}
