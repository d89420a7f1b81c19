//! Golden response bytes: a fixed script of requests against a fixed
//! small graph, single-shard and 2-shard, whose response bodies must
//! match `fixtures/golden_bodies.tsv` byte for byte.
//!
//! The fixture pins the wire format of every ranked answer (envelope key
//! order, number formatting, the `estimate` block, a `null` lambda,
//! `top` truncation, cached flags), keyword answers by base and by text,
//! the session lifecycle, and the 400 bodies of malformed id lists. Each
//! fixture line is `name<TAB>status<TAB>body`.

use approxrank_graph::DiGraph;
use approxrank_serve::http::Request;
use approxrank_serve::{handlers, AppState, ServeConfig};

/// 60 pages with varied in-degrees and a few dangling pages.
fn golden_graph() -> DiGraph {
    let n = 60u32;
    let mut edges = Vec::new();
    for i in 0..n {
        if i % 11 == 10 {
            continue;
        }
        edges.push((i, (i + 1) % n));
        edges.push((i, (i * 7 + 3) % n));
        if i % 3 == 0 {
            edges.push((i, (i * i + 5) % n));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    DiGraph::from_edges(n as usize, &edges)
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

/// The request script, in order: `(name, method, path, body)`. Order
/// matters — repeats are cache hits and sessions build on each other.
const SINGLE: &[(&str, &str, &str, &str)] = &[
    (
        "rank_approxrank",
        "POST",
        "/rank",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19],"tolerance":1e-10}"#,
    ),
    (
        "rank_approxrank_cached",
        "POST",
        "/rank",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19],"tolerance":1e-10}"#,
    ),
    (
        "rank_idealrank",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"idealrank"}"#,
    ),
    (
        "rank_local",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"local"}"#,
    ),
    (
        "rank_lpr2",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"lpr2"}"#,
    ),
    (
        "rank_sc",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"sc"}"#,
    ),
    (
        "rank_mc",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"mc","walks":64,"seed":7}"#,
    ),
    (
        "rank_push",
        "POST",
        "/rank",
        r#"{"members":[3,5,8,13,21,34,55],"algorithm":"push","epsilon":0.001}"#,
    ),
    (
        "rank_top3",
        "POST",
        "/rank",
        r#"{"members":[40,41,42,43,44,45,46,47,48,49],"top":3,"damping":0.7}"#,
    ),
    (
        "rank_unusual_ids",
        "POST",
        "/rank",
        r#"{"members":[1.0,-0,2e0,3,3,1]}"#,
    ),
    (
        "rank_duplicate_key",
        "POST",
        "/rank",
        r#"{"members":[1,"x"],"members":[4,2,9],"top":1,"top":2}"#,
    ),
    (
        "rank_bad_member",
        "POST",
        "/rank",
        r#"{"members":[1,2,"x",3]}"#,
    ),
    (
        "rank_bad_member_object",
        "POST",
        "/rank",
        r#"{"members":[1,{"a":[0.5,null]}]}"#,
    ),
    (
        "rank_member_beyond_u32",
        "POST",
        "/rank",
        r#"{"members":[1,4294967296]}"#,
    ),
    (
        "rank_member_out_of_range",
        "POST",
        "/rank",
        r#"{"members":[1,60,"x"]}"#,
    ),
    (
        "rank_member_huge",
        "POST",
        "/rank",
        r#"{"members":[99999999999999999999]}"#,
    ),
    (
        "rank_members_not_array",
        "POST",
        "/rank",
        r#"{"members":{"0":1}}"#,
    ),
    ("rank_members_empty", "POST", "/rank", r#"{"members":[ ]}"#),
    (
        "rank_syntax_after_members",
        "POST",
        "/rank",
        r#"{"members":[1,2],"top":}"#,
    ),
    (
        "rank_syntax_inside_members",
        "POST",
        "/rank",
        r#"{"members":[1,2 3]}"#,
    ),
    ("rank_trailing", "POST", "/rank", r#"{"members":[1,2]} x"#),
    ("rank_not_object", "POST", "/rank", r#"[1,2]"#),
    ("rank_bad_key", "POST", "/rank", r#"{members:[1]}"#),
    (
        "keyword_base",
        "POST",
        "/keyword",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9],"base":[30,1,30],"tolerance":1e-9}"#,
    ),
    (
        "keyword_text",
        "POST",
        "/keyword",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9],"keyword":"PAGE-3","tolerance":1e-9}"#,
    ),
    (
        "keyword_base_cached",
        "POST",
        "/keyword",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9],"base":[30,1],"tolerance":1e-9}"#,
    ),
    (
        "keyword_top3",
        "POST",
        "/keyword",
        r#"{"members":[20,21,22,23,24,25],"keyword":"age-2","top":3}"#,
    ),
    (
        "keyword_bad_base_page",
        "POST",
        "/keyword",
        r#"{"members":[1,2],"base":[3,true]}"#,
    ),
    (
        "keyword_base_out_of_range",
        "POST",
        "/keyword",
        r#"{"members":[1,2],"base":[3,77]}"#,
    ),
    (
        "keyword_no_match",
        "POST",
        "/keyword",
        r#"{"members":[1,2],"keyword":"zebra"}"#,
    ),
    (
        "keyword_non_ascii",
        "POST",
        "/keyword",
        r#"{"members":[1,2],"keyword":"pagé"}"#,
    ),
    (
        "session_create",
        "POST",
        "/session",
        r#"{"members":[10,11,12,13,14,15],"tolerance":1e-9}"#,
    ),
    (
        "session_update",
        "POST",
        "/session/1/update",
        r#"{"add":[16,17],"remove":[10],"top":4}"#,
    ),
    ("session_get", "GET", "/session/1", ""),
    (
        "session_update_bad_id",
        "POST",
        "/session/1/update",
        r#"{"add":[16,"y"]}"#,
    ),
    (
        "session_update_out_of_range",
        "POST",
        "/session/1/update",
        r#"{"remove":[600]}"#,
    ),
    (
        "session_update_not_array",
        "POST",
        "/session/1/update",
        r#"{"add":3}"#,
    ),
    (
        "session_mc_create",
        "POST",
        "/session",
        r#"{"members":[30,31,32,33],"algorithm":"mc","walks":32,"seed":5}"#,
    ),
    (
        "session_mc_update",
        "POST",
        "/session/2/update",
        r#"{"add":[34]}"#,
    ),
    ("session_mc_get", "GET", "/session/2", ""),
    (
        "graph_edges",
        "POST",
        "/graph/edges",
        r#"{"insert":[[1,2],[3,4]],"delete":[[0,1]]}"#,
    ),
    (
        "rank_after_write",
        "POST",
        "/rank",
        r#"{"members":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19],"tolerance":1e-10}"#,
    ),
    ("session_get_after_write", "GET", "/session/1", ""),
];

/// Against the 2-shard deployment (pages 0..30 on shard 0).
const SHARDED: &[(&str, &str, &str, &str)] = &[
    (
        "sharded_rank_resident",
        "POST",
        "/rank",
        r#"{"members":[31,32,33,34,35],"tolerance":1e-9}"#,
    ),
    (
        "sharded_rank_cross",
        "POST",
        "/rank",
        r#"{"members":[27,28,29,30,31,32],"tolerance":1e-9}"#,
    ),
    (
        "sharded_rank_cross_mc",
        "POST",
        "/rank",
        r#"{"members":[27,28,29,30,31,32],"algorithm":"mc","walks":16,"seed":3}"#,
    ),
    (
        "sharded_keyword_cross",
        "POST",
        "/keyword",
        r#"{"members":[27,28,29,30,31,32],"base":[5,50],"tolerance":1e-9}"#,
    ),
    (
        "sharded_keyword_text",
        "POST",
        "/keyword",
        r#"{"members":[40,41,42],"keyword":"page-4"}"#,
    ),
];

fn run(state: &AppState, script: &[(&str, &str, &str, &str)], out: &mut String) {
    for &(name, method, path, body) in script {
        let (_, response) = handlers::route(
            state,
            &request(method, path, body),
            approxrank_trace::null(),
        );
        let text = String::from_utf8(response.body).expect("UTF-8 body");
        assert!(
            !text.contains(['\t', '\n']),
            "{name}: body must fit one line"
        );
        out.push_str(&format!("{name}\t{}\t{text}\n", response.status));
    }
}

/// Every scripted response, one fixture line each.
fn render_all() -> String {
    let mut out = String::new();
    let single = AppState::new(golden_graph(), ServeConfig::default()).unwrap();
    run(&single, SINGLE, &mut out);
    let sharded = AppState::new(
        golden_graph(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    run(&sharded, SHARDED, &mut out);
    out
}

#[test]
fn response_bodies_match_the_golden_fixture() {
    let want = include_str!("fixtures/golden_bodies.tsv");
    let got = render_all();
    let (want_lines, got_lines): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    for (w, g) in want_lines.iter().zip(&got_lines) {
        assert_eq!(g, w, "response differs from the golden fixture");
    }
    assert_eq!(got_lines.len(), want_lines.len(), "case count");
}
