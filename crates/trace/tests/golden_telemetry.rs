//! Golden telemetry bytes: request-trace lines, solver-event JSONL and
//! structured log lines for fixed inputs, which must match the files
//! under `fixtures/` byte for byte.
//!
//! The inputs are chosen for the edges of the text format: nested span
//! trees, counters at `0` and `u64::MAX`, gauges at signed zero, integral
//! values, subnormals, huge magnitudes and every non-finite value, and
//! names carrying quotes, backslashes, newlines, control bytes and
//! non-ASCII text. (The `/debug/requests` body built from the same
//! traces is pinned by the serving crate's `debug_requests_golden` test.)

use approxrank_trace::logging::{self, Level};
use approxrank_trace::request::{self, RequestTrace, SpanNode};
use approxrank_trace::{jsonl, Event};

const REQUEST_TRACES: &str = include_str!("fixtures/request_traces.jsonl");
const EVENTS: &str = include_str!("fixtures/events.jsonl");
const LOG_LINES: &str = include_str!("fixtures/log_lines.jsonl");

/// Every gauge edge value of the fixture, in order.
const GAUGES: [f64; 10] = [
    0.0,
    -0.0,
    12.0,
    0.1,
    1e-7,
    1e300,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Names that need every kind of escape, plus plain non-ASCII text.
const NAMES: [&str; 6] = [
    "quote\"d",
    "back\\slash",
    "new\nline",
    "ctl\u{1}\u{1f}\t\r",
    "caf\u{e9}",
    "plain.name",
];

fn node(name: &str, start_ns: u64, elapsed_ns: u64) -> SpanNode {
    SpanNode {
        name: name.to_string(),
        start_ns,
        elapsed_ns,
        iterations: 0,
        counters: Vec::new(),
        gauges: Vec::new(),
        children: Vec::new(),
    }
}

/// Three fixed traces: a deep tree carrying every edge value, an empty
/// root, and one with every integer field at `u64::MAX`.
fn traces() -> Vec<RequestTrace> {
    let mut leaf = node(NAMES[3], 40, 7);
    leaf.iterations = 3;
    leaf.counters = vec![(NAMES[4].to_string(), u64::MAX), ("zero".to_string(), 0)];
    leaf.gauges = NAMES
        .iter()
        .cycle()
        .zip(GAUGES)
        .map(|(name, x)| (name.to_string(), x))
        .collect();
    let mut middle = node(NAMES[2], 20, 30);
    middle.children = vec![leaf, node("sibling", 60, 1)];
    let mut outer = node(NAMES[1], 10, 100);
    outer.counters = vec![("dup".to_string(), 1), ("dup".to_string(), 2)];
    outer.gauges = vec![("residual".to_string(), 1e-9)];
    outer.children = vec![middle];
    let mut root = node("request", 0, 200);
    root.children = vec![outer, node(NAMES[0], 150, 0)];

    let mut maxed = node("request", u64::MAX, u64::MAX);
    maxed.iterations = u64::MAX;
    maxed.counters = vec![("max".to_string(), u64::MAX)];
    vec![
        RequestTrace {
            trace_id: "00c0ffee00c0ffee".to_string(),
            method: "POST".to_string(),
            path: "/rank".to_string(),
            status: 200,
            total_ns: 200,
            root,
        },
        RequestTrace {
            trace_id: NAMES[0].to_string(),
            method: "GET".to_string(),
            path: NAMES[4].to_string(),
            status: 0,
            total_ns: 0,
            root: node("request", 0, 0),
        },
        RequestTrace {
            trace_id: "f".repeat(16),
            method: "DELETE".to_string(),
            path: "/session/7".to_string(),
            status: 503,
            total_ns: u64::MAX,
            root: maxed,
        },
    ]
}

/// One event per variant, then a gauge per edge value.
fn events() -> Vec<Event> {
    let mut events = vec![
        Event::SpanStart {
            name: NAMES[0].to_string(),
        },
        Event::SpanEnd {
            name: NAMES[1].to_string(),
            elapsed_ns: u64::MAX,
        },
        Event::Counter {
            name: NAMES[2].to_string(),
            value: u64::MAX,
        },
        Event::Counter {
            name: NAMES[5].to_string(),
            value: 0,
        },
        Event::Iteration {
            solver: NAMES[3].to_string(),
            iteration: 17,
            residual: 0.1 + 0.2,
            dangling_mass: 5e-324,
            elapsed_ns: 0,
        },
    ];
    events.extend(GAUGES.iter().map(|&value| Event::Gauge {
        name: NAMES[4].to_string(),
        value,
    }));
    events
}

/// Asserts `got` equals the fixture text line for line.
fn assert_lines(got: &str, fixture: &str, what: &str) {
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), fixture.lines().collect());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what} line {} differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{what} line count");
}

/// The line with its wall-clock `ts_ms` value cut out.
fn after_ts_ms(line: &str) -> &str {
    let rest = line
        .strip_prefix("{\"ts_ms\":")
        .unwrap_or_else(|| panic!("log line must open with ts_ms: {line}"));
    rest.trim_start_matches(|c: char| c.is_ascii_digit())
}

#[test]
fn request_trace_lines_match_the_fixture() {
    let got: String = traces()
        .iter()
        .map(|trace| request::emit(trace) + "\n")
        .collect();
    assert_lines(&got, REQUEST_TRACES, "request_traces.jsonl");
}

#[test]
fn request_trace_fixture_reemits_byte_identically() {
    for line in REQUEST_TRACES.lines() {
        let trace = request::parse_line(line).unwrap();
        assert_eq!(request::emit(&trace), line);
    }
}

#[test]
fn event_lines_match_the_fixture() {
    assert_lines(&jsonl::emit(&events()), EVENTS, "events.jsonl");
}

#[test]
fn event_fixture_reemits_byte_identically() {
    assert_eq!(jsonl::emit(&jsonl::parse(EVENTS).unwrap()), EVENTS);
}

/// The logger is process-global; this is the only test in this binary
/// that logs.
#[test]
fn log_lines_match_the_fixture_after_ts_ms() {
    logging::capture_for_test();
    logging::set_level(Level::Debug);
    logging::log(Level::Debug, "engine", "plain");
    {
        let _trace = logging::trace_scope("00c0ffee00c0ffee");
        logging::log_with(
            Level::Warn,
            NAMES[1],
            NAMES[2],
            &[("session", "7"), (NAMES[0], NAMES[3])],
        );
        let _tenant = logging::tenant_scope(NAMES[4]);
        logging::log_with(Level::Error, "store", NAMES[4], &[("path", "/tmp/x")]);
    }
    let _tenant = logging::tenant_scope("acme");
    logging::log_with(Level::Info, "serve", "", &[]);
    logging::set_level(Level::Info);
    let output = String::from_utf8(logging::capture_for_test()).unwrap();
    let got: Vec<&str> = output.lines().map(after_ts_ms).collect();
    let want: Vec<&str> = LOG_LINES.lines().map(after_ts_ms).collect();
    assert_eq!(got, want);
}
