//! `subrank compare` — run every subgraph algorithm side by side.

use std::time::Instant;

use approxrank_core::baselines::{LocalPageRank, Lpr2};
use approxrank_core::{ApproxRank, StochasticComplementation, SubgraphRanker};
use approxrank_graph::{NodeSet, Subgraph};
use approxrank_metrics::footrule::footrule_from_scores;
use approxrank_metrics::l1_distance;
use approxrank_pagerank::{pagerank, PageRankOptions};

use crate::args::CompareArgs;
use crate::commands::{load_graph, load_node_ids};

/// Runs the command: every algorithm on the same subgraph, one row each,
/// optionally scored against a freshly computed global PageRank.
pub fn run(args: &CompareArgs) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let ids = load_node_ids(&args.subgraph)?;
    for &id in &ids {
        if id as usize >= graph.num_nodes() {
            return Err(format!(
                "subgraph id {id} out of range (graph has {} nodes)",
                graph.num_nodes()
            ));
        }
    }
    let nodes = NodeSet::from_sorted(graph.num_nodes(), ids);
    let subgraph = Subgraph::extract(&graph, nodes);
    let options = PageRankOptions::paper()
        .with_damping(args.damping)
        .with_tolerance(args.tolerance);

    // Ground truth (optional; costs a global solve).
    let truth_restricted = if args.with_truth {
        let t0 = Instant::now();
        let truth = pagerank(&graph, &options);
        let secs = t0.elapsed().as_secs_f64();
        Some((subgraph.nodes().restrict(&truth.scores), secs))
    } else {
        None
    };

    let rankers: Vec<Box<dyn SubgraphRanker>> = vec![
        Box::new(ApproxRank::new(options.clone())),
        Box::new(LocalPageRank::new(options.clone())),
        Box::new(Lpr2::new(options.clone())),
        Box::new(StochasticComplementation {
            options: options.clone(),
            ..StochasticComplementation::default()
        }),
    ];

    let mut out = format!(
        "# comparing {} algorithms on {} local pages of {}\n",
        rankers.len(),
        subgraph.len(),
        graph.num_nodes()
    );
    if let Some((_, secs)) = &truth_restricted {
        out.push_str(&format!("# global PageRank (for scoring): {secs:.3}s\n"));
    }
    out.push_str("algorithm\tseconds\titerations\tfootrule\tL1(normalized)\n");
    let normalize = |v: &[f64]| -> Vec<f64> {
        let m: f64 = v.iter().sum();
        v.iter().map(|x| x / m.max(f64::MIN_POSITIVE)).collect()
    };
    for ranker in &rankers {
        let t0 = Instant::now();
        let r = ranker.rank(&graph, &subgraph);
        let secs = t0.elapsed().as_secs_f64();
        let (fr, l1) = match &truth_restricted {
            Some((truth, _)) => (
                format!("{:.6}", footrule_from_scores(&r.local_scores, truth)),
                format!(
                    "{:.6}",
                    l1_distance(&normalize(&r.local_scores), &normalize(truth))
                ),
            ),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{}\t{secs:.3}\t{}\t{fr}\t{l1}\n",
            ranker.name(),
            r.iterations
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{io, DiGraph};

    fn setup(test: &str) -> (String, String) {
        let dir = crate::commands::test_dir(test);
        let mut edges = Vec::new();
        for i in 0..60u32 {
            edges.push((i, (i + 1) % 60));
            edges.push((i, (i * 7 + 2) % 60));
        }
        let g = DiGraph::from_edges(60, &edges);
        let gpath = dir.join("g.edges");
        io::write_edge_list_file(&g, &gpath).unwrap();
        let spath = dir.join("s.txt");
        std::fs::write(
            &spath,
            (0..20)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        (
            gpath.to_string_lossy().into_owned(),
            spath.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn compares_all_algorithms_with_truth() {
        let (g, s) = setup("compare-with-truth");
        let out = run(&CompareArgs {
            graph: g,
            subgraph: s,
            damping: 0.85,
            tolerance: 1e-8,
            with_truth: true,
        })
        .unwrap();
        let data_lines: Vec<&str> = out
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("algorithm"))
            .collect();
        assert_eq!(data_lines.len(), 4, "{out}");
        for l in &data_lines {
            assert!(!l.contains("\t-\t"), "truth columns must be filled: {l}");
        }
        assert!(out.contains("ApproxRank"));
        assert!(out.contains("SC"));
    }

    #[test]
    fn compare_without_truth_leaves_dashes() {
        let (g, s) = setup("compare-without-truth");
        let out = run(&CompareArgs {
            graph: g,
            subgraph: s,
            damping: 0.85,
            tolerance: 1e-8,
            with_truth: false,
        })
        .unwrap();
        assert!(out.contains("\t-\t-"), "{out}");
        assert!(!out.contains("global PageRank (for scoring)"));
    }
}
