//! `subrank global` — compute global PageRank by power iteration.

use approxrank_pagerank::{pagerank_observed, PageRankOptions};
use approxrank_trace::{Observer, Recorder};

use crate::args::GlobalArgs;
use crate::commands::{load_graph, render_scores, render_trace};

/// Runs the command, returning the rendered scores.
pub fn run(args: &GlobalArgs) -> Result<String, String> {
    let graph = load_graph(&args.graph)?;
    let options = PageRankOptions::paper()
        .with_damping(args.damping)
        .with_tolerance(args.tolerance)
        .with_threads(args.threads.max(1));
    let recorder = Recorder::new();
    let obs: &dyn Observer = if args.trace.enabled() {
        &recorder
    } else {
        approxrank_trace::null()
    };
    let result = pagerank_observed(&graph, &options, obs);
    let mut pairs: Vec<(u32, f64)> = result
        .scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .collect();
    let mut out = String::new();
    if !args.trace.quiet {
        out.push_str(&format!(
            "# global PageRank via power iteration on {} pages: {}\n",
            graph.num_nodes(),
            result.summary()
        ));
    }
    out.push_str(&render_scores(&mut pairs, args.top));
    out.push_str(&render_trace(&recorder.events(), &args.trace)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{io, DiGraph};

    fn graph_file(test: &str) -> String {
        let dir = crate::commands::test_dir(test);
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let p = dir.join("g.edges");
        io::write_edge_list_file(&g, &p).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn threads_do_not_change_scores_and_trace_shows_pool() {
        use crate::args::TraceOpts;
        let g = graph_file("global-threads");
        let run_with = |threads: usize, trace: bool| {
            run(&GlobalArgs {
                graph: g.clone(),
                damping: 0.85,
                tolerance: 1e-10,
                top: 0,
                threads,
                trace: TraceOpts {
                    trace,
                    ..TraceOpts::default()
                },
            })
            .unwrap()
        };
        let strip = |out: &str| {
            out.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let sequential = run_with(1, false);
        let pooled = run_with(3, true);
        assert_eq!(strip(&sequential), strip(&pooled));
        // The run report surfaces the pool's efficiency line.
        assert!(pooled.contains("parallel:"), "{pooled}");
        assert!(pooled.contains("pool_threads"), "{pooled}");
    }
}
