//! Golden `GET /debug/requests` bytes: a trace ring holding the trace
//! crate's fixture traces must answer the body in
//! `crates/trace/tests/fixtures/debug_requests.json` byte for byte.

use approxrank_graph::DiGraph;
use approxrank_serve::http::Request;
use approxrank_serve::{handlers, AppState, ServeConfig};
use approxrank_trace::request;

const TRACES: &str = include_str!("../../trace/tests/fixtures/request_traces.jsonl");
const BODY: &str = include_str!("../../trace/tests/fixtures/debug_requests.json");

#[test]
fn debug_requests_body_matches_the_fixture() {
    let state = AppState::new(
        DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
        ServeConfig::default(),
    )
    .unwrap();
    for line in TRACES.lines() {
        state.traces.push(request::parse_line(line).unwrap());
    }
    let get = Request {
        method: "GET".into(),
        path: "/debug/requests".into(),
        headers: vec![],
        body: vec![],
    };
    let (_, response) = handlers::route(&state, &get, approxrank_trace::null());
    assert_eq!(response.status, 200);
    assert_eq!(String::from_utf8(response.body).unwrap(), BODY.trim_end());
}
