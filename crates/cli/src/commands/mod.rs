//! Subcommand implementations.

pub mod compare;
pub mod generate;
pub mod global;
pub mod keyword;
pub mod partition;
pub mod rank;
pub mod report;
pub mod serve;
pub mod stats;

use approxrank_graph::{io, DiGraph, GraphError};
use approxrank_trace::Event;

use crate::args::TraceOpts;

/// Loads a graph, auto-detecting the binary format by its magic bytes.
pub fn load_graph(path: &str) -> Result<DiGraph, String> {
    let try_binary = io::read_binary_file(path);
    match try_binary {
        Ok(g) => Ok(g),
        Err(GraphError::InvalidFormat(_)) | Err(GraphError::Io(_)) => {
            io::read_edge_list_file(path).map_err(|e| format!("cannot read {path}: {e}"))
        }
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

/// Reads a whitespace/newline-separated list of node ids.
pub fn load_node_ids(path: &str) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut ids = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        for tok in t.split_whitespace() {
            ids.push(
                tok.parse::<u32>()
                    .map_err(|e| format!("{path}:{}: bad node id {tok:?}: {e}", lineno + 1))?,
            );
        }
    }
    if ids.is_empty() {
        return Err(format!("{path} contains no node ids"));
    }
    Ok(ids)
}

/// Reads one floating-point score per line.
pub fn load_scores(path: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut scores = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        scores.push(
            t.parse::<f64>()
                .map_err(|e| format!("{path}:{}: bad score {t:?}: {e}", lineno + 1))?,
        );
    }
    Ok(scores)
}

/// Honors the telemetry flags for a finished command: writes the JSONL
/// event file if `--trace-json` was given and returns the human-readable
/// run report as `#` comment lines if `--trace` was given.
pub fn render_trace(events: &[Event], trace: &TraceOpts) -> Result<String, String> {
    if let Some(path) = &trace.trace_json {
        std::fs::write(path, approxrank_trace::jsonl::emit(events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if !trace.trace {
        return Ok(String::new());
    }
    let report = approxrank_trace::RunReport::from_events(events);
    let mut out = String::new();
    for line in report.render().lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Renders a `page<TAB>score` listing, optionally truncated to the top-k
/// by score. Total order (`total_cmp`) so NaN scores in user-supplied
/// files sort deterministically instead of panicking.
pub fn render_scores(pairs: &mut [(u32, f64)], top: usize) -> String {
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let take = if top == 0 {
        pairs.len()
    } else {
        top.min(pairs.len())
    };
    let mut out = String::from("page\tscore\n");
    for &(page, score) in pairs.iter().take(take) {
        out.push_str(&format!("{page}\t{score:.10e}\n"));
    }
    out
}

/// A private directory for one unit test, named after the test and the
/// process id: tests running in parallel threads, or in concurrent test
/// processes, never share (and race on) a fixture file.
#[cfg(test)]
pub(crate) fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("subrank-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(test: &str, name: &str, contents: &str) -> String {
        let p = test_dir(test).join(name);
        std::fs::write(&p, contents).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn node_ids_parsing() {
        let p = tmp("node-ids", "ids.txt", "# comment\n1 2\n3\n\n4\n");
        assert_eq!(load_node_ids(&p).unwrap(), vec![1, 2, 3, 4]);
        let bad = tmp("node-ids", "bad-ids.txt", "1\nxyz\n");
        assert!(load_node_ids(&bad).unwrap_err().contains("xyz"));
        let empty = tmp("node-ids", "empty-ids.txt", "# nothing\n");
        assert!(load_node_ids(&empty).is_err());
    }

    #[test]
    fn scores_parsing() {
        let p = tmp("scores", "scores.txt", "0.5\n# c\n1e-3\n");
        assert_eq!(load_scores(&p).unwrap(), vec![0.5, 1e-3]);
    }

    #[test]
    fn graph_loading_both_formats() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let dir = test_dir("graph-loading");
        let t = dir.join("g.edges");
        let b = dir.join("g.bin");
        io::write_edge_list_file(&g, &t).unwrap();
        io::write_binary_file(&g, &b).unwrap();
        assert_eq!(load_graph(&t.to_string_lossy()).unwrap(), g);
        assert_eq!(load_graph(&b.to_string_lossy()).unwrap(), g);
        assert!(load_graph("/nonexistent/file").is_err());
    }

    #[test]
    fn score_rendering_top_k() {
        let mut pairs = vec![(0, 0.1), (1, 0.5), (2, 0.3)];
        let out = render_scores(&mut pairs, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[1].starts_with("1\t"));
        assert!(lines[2].starts_with("2\t"));
    }
}
