//! `subrank keyword` — ObjectRank keyword ranking for a subgraph.
//!
//! This is the offline mirror of `POST /keyword`: it builds the same
//! [`AppState`] a single-shard server would boot with and drives the
//! *served* handler with a synthetic request, so the bytes printed here
//! are identical to the body a server would answer for the same graph,
//! members, and base set — by construction, not by parallel
//! implementation.

use approxrank_serve::{handlers, http::Request, AppState, ServeConfig};
use approxrank_store::json::Writer;

use crate::args::KeywordArgs;
use crate::commands::{load_graph, load_node_ids};

/// Builds the `POST /keyword` JSON body for the parsed flags.
fn body_from(args: &KeywordArgs, members: &[u32]) -> String {
    let ids = |out: &mut Writer, v: &[u32]| {
        out.raw("[");
        for (i, &id) in v.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            out.uint(id.into());
        }
        out.raw("]");
    };
    let mut out = Writer::default();
    out.raw("{\"members\":");
    ids(&mut out, members);
    if let Some(kw) = &args.keyword {
        out.raw(",\"keyword\":");
        out.str(kw);
    } else {
        out.raw(",\"base\":");
        ids(&mut out, &args.base);
    }
    out.raw(",\"damping\":");
    out.num(args.damping);
    out.raw(",\"tolerance\":");
    out.num(args.tolerance);
    out.raw(",\"top\":");
    out.uint(args.top as u64);
    out.raw("}");
    out.finish()
}

/// Runs the keyword ranking and returns the served JSON body (plus a
/// trailing newline for the terminal).
pub fn run(args: &KeywordArgs) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let members = load_node_ids(&args.subgraph)?;
    let config = ServeConfig {
        labels: args.labels.as_ref().map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let state = AppState::new(graph, config)?;
    let request = Request {
        method: "POST".into(),
        path: "/keyword".into(),
        headers: Vec::new(),
        body: body_from(args, &members).into_bytes(),
    };
    let (_, response) = handlers::route(&state, &request, &state.metrics);
    let body = String::from_utf8_lossy(&response.body).into_owned();
    if response.status != 200 {
        return Err(format!(
            "keyword ranking failed ({}): {body}",
            response.status
        ));
    }
    Ok(format!("{body}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{io, DiGraph};
    use approxrank_store::json::parse;

    fn fixture(test: &str) -> (String, String) {
        let dir = crate::commands::test_dir(test);
        // A small ring with chords so every page is reachable.
        let edges: Vec<(u32, u32)> = (0..20u32)
            .flat_map(|i| vec![(i, (i + 1) % 20), (i, (i + 7) % 20)])
            .collect();
        let graph = DiGraph::from_edges(20, &edges);
        let g = dir.join("g.bin");
        io::write_binary_file(&graph, &g).unwrap();
        let s = dir.join("members.txt");
        std::fs::write(&s, "0\n1\n2\n3\n4\n5\n6\n7\n").unwrap();
        (
            g.to_string_lossy().into_owned(),
            s.to_string_lossy().into_owned(),
        )
    }

    fn args(graph: &str, subgraph: &str) -> KeywordArgs {
        KeywordArgs {
            graph: graph.into(),
            subgraph: subgraph.into(),
            keyword: None,
            base: vec![3],
            labels: None,
            damping: 0.85,
            tolerance: 1e-6,
            top: 0,
        }
    }

    #[test]
    fn explicit_base_matches_generated_label_keyword() {
        let (g, s) = fixture("keyword-explicit-base");
        let by_base = run(&args(&g, &s)).unwrap();
        // Without a labels file pages are named `page-<id>`; "page-3"
        // resolves to exactly {3}, so the body must be byte-identical
        // apart from the keyword echo and the cache flag. Compare the
        // scores payload instead of the whole body.
        let mut by_keyword = args(&g, &s);
        by_keyword.base = Vec::new();
        by_keyword.keyword = Some("page-3".into());
        let by_keyword = run(&by_keyword).unwrap();
        let scores = |body: &str| {
            let start = body.find("\"scores\":").unwrap();
            let end = body[start..].find(']').unwrap();
            body[start..start + end].to_string()
        };
        assert_eq!(scores(&by_base), scores(&by_keyword));
        assert!(by_base.contains("\"algorithm\":\"objectrank\""));
    }

    #[test]
    fn unmatched_keyword_is_an_error() {
        let (g, s) = fixture("keyword-unmatched");
        let mut a = args(&g, &s);
        a.base = Vec::new();
        a.keyword = Some("no-such-page".into());
        let err = run(&a).unwrap_err();
        assert!(err.contains("404"), "{err}");
        assert!(err.contains("matches no page"), "{err}");
    }

    #[test]
    fn keyword_is_escaped_in_the_body() {
        let mut a = args("g", "s");
        for keyword in ["plain", "a\"b\\c", "tab\there", "\u{1}é"] {
            a.keyword = Some(keyword.into());
            let body = parse(&body_from(&a, &[0, 7])).unwrap();
            assert_eq!(body.get("keyword").and_then(|k| k.as_str()), Some(keyword));
        }
    }
}
