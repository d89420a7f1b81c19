//! `subrank rank` — rank a subgraph of a global graph.

use approxrank_core::baselines::{LocalPageRank, Lpr2};
use approxrank_core::{ApproxRank, IdealRank, StochasticComplementation, SubgraphRanker};
use approxrank_graph::{NodeSet, Subgraph};
use approxrank_pagerank::PageRankOptions;
use approxrank_trace::{Observer, Recorder};
use approxrank_walk::{LocalPushRank, McApproxRank};

use crate::args::{Algorithm, RankArgs};
use crate::commands::{load_graph, load_node_ids, load_scores, render_scores, render_trace};

/// Runs the command, returning the rendered ranking.
pub fn run(args: &RankArgs) -> Result<String, String> {
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
        .with_tolerance(args.tolerance)
        .with_threads(args.threads.max(1));

    let ranker: Box<dyn SubgraphRanker> = match args.algorithm {
        Algorithm::ApproxRank => Box::new(ApproxRank::new(options)),
        Algorithm::Local => Box::new(LocalPageRank::new(options)),
        Algorithm::Lpr2 => Box::new(Lpr2::new(options)),
        Algorithm::Sc => Box::new(StochasticComplementation {
            options,
            ..StochasticComplementation::default()
        }),
        Algorithm::Mc => Box::new(McApproxRank {
            options,
            walks: args.walks,
            epsilon: args.epsilon,
            seed: args.seed,
        }),
        Algorithm::Push => Box::new(LocalPushRank {
            options,
            epsilon: args.epsilon,
        }),
        Algorithm::IdealRank => {
            let Some(path) = args.scores.as_ref() else {
                return Err("idealrank requires --scores FILE".into());
            };
            let scores = load_scores(path)?;
            if scores.len() != graph.num_nodes() {
                return Err(format!(
                    "{path} has {} scores but the graph has {} nodes",
                    scores.len(),
                    graph.num_nodes()
                ));
            }
            Box::new(IdealRank {
                options,
                global_scores: scores.into(),
            })
        }
    };

    let recorder = Recorder::new();
    let obs: &dyn Observer = if args.trace.enabled() {
        &recorder
    } else {
        approxrank_trace::null()
    };
    let result = ranker.rank_observed(&graph, &subgraph, obs);
    let mut pairs: Vec<(u32, f64)> = subgraph
        .nodes()
        .members()
        .iter()
        .zip(&result.local_scores)
        .map(|(&g, &s)| (g, s))
        .collect();
    let mut out = String::new();
    if !args.trace.quiet {
        out.push_str(&format!(
            "# {} on {} local pages of {} (converged: {}, iterations: {})\n",
            ranker.name(),
            subgraph.len(),
            graph.num_nodes(),
            result.converged,
            result.iterations
        ));
        if let Some(lambda) = result.lambda_score {
            out.push_str(&format!(
                "# external node Λ holds {lambda:.6} of the mass\n"
            ));
        }
        if let Some(est) = result.estimate {
            out.push_str(&format!(
                "# estimate: {} walks, epsilon {:e}, residual bound {:.3e}\n",
                est.walks, est.epsilon, est.residual
            ));
        }
    }
    out.push_str(&render_scores(&mut pairs, args.top));
    out.push_str(&render_trace(&recorder.events(), &args.trace)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_dir;
    use approxrank_graph::{io, DiGraph};

    fn setup(dir: &std::path::Path) -> (String, String) {
        let g = DiGraph::from_edges(
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
        );
        let gpath = dir.join("fig4.edges");
        io::write_edge_list_file(&g, &gpath).unwrap();
        let spath = dir.join("sub.txt");
        std::fs::write(&spath, "0\n1\n2\n3\n").unwrap();
        (
            gpath.to_string_lossy().into_owned(),
            spath.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn ranks_with_every_algorithm() {
        let (g, s) = setup(&test_dir("rank-every-algorithm"));
        for algo in [
            Algorithm::ApproxRank,
            Algorithm::Local,
            Algorithm::Lpr2,
            Algorithm::Sc,
            Algorithm::Mc,
            Algorithm::Push,
        ] {
            let out = run(&RankArgs {
                graph: g.clone(),
                subgraph: s.clone(),
                algorithm: algo,
                tolerance: 1e-8,
                ..Default::default()
            })
            .unwrap();
            assert_eq!(out.lines().filter(|l| !l.starts_with('#')).count(), 5);
        }
    }

    #[test]
    fn mc_is_seed_deterministic_and_reports_estimate() {
        let (g, s) = setup(&test_dir("rank-mc-seed"));
        let args = RankArgs {
            graph: g,
            subgraph: s,
            algorithm: Algorithm::Mc,
            walks: 64,
            seed: 7,
            ..Default::default()
        };
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a, b, "same seed must reproduce the output bitwise");
        assert!(a.contains("# estimate: 256 walks"), "{a}");
        let c = run(&RankArgs { seed: 8, ..args }).unwrap();
        assert_ne!(a, c, "a different seed draws different walks");
    }

    #[test]
    fn top_k_truncates() {
        let (g, s) = setup(&test_dir("rank-top-k"));
        let out = run(&RankArgs {
            graph: g,
            subgraph: s,
            tolerance: 1e-8,
            top: 2,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(out.lines().filter(|l| !l.starts_with('#')).count(), 3);
    }

    #[test]
    fn trace_flags_drive_report_and_json() {
        use crate::args::TraceOpts;
        let dir = test_dir("rank-trace-flags");
        let (g, s) = setup(&dir);
        let jsonl = dir.join("trace.jsonl").to_string_lossy().into_owned();
        let out = run(&RankArgs {
            graph: g.clone(),
            subgraph: s.clone(),
            tolerance: 1e-8,
            trace: TraceOpts {
                trace: true,
                trace_json: Some(jsonl.clone()),
                quiet: false,
            },
            ..Default::default()
        })
        .unwrap();
        // The report rides along as comment lines mentioning the solver.
        assert!(out.contains("extended"), "{out}");
        // The JSONL file parses back into the same event stream shape.
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let events = approxrank_trace::jsonl::parse(&text).unwrap();
        assert!(!events.is_empty());

        // --quiet strips every comment line.
        let out = run(&RankArgs {
            graph: g,
            subgraph: s,
            tolerance: 1e-8,
            trace: TraceOpts {
                quiet: true,
                ..TraceOpts::default()
            },
            ..Default::default()
        })
        .unwrap();
        assert!(out.lines().all(|l| !l.starts_with('#')), "{out}");
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let dir = test_dir("rank-out-of-range");
        let (g, _) = setup(&dir);
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "99\n").unwrap();
        let err = run(&RankArgs {
            graph: g,
            subgraph: bad.to_string_lossy().into_owned(),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("out of range"));
    }
}
