//! # approxrank
//!
//! A from-scratch Rust reproduction of *ApproxRank: Estimating Rank for a
//! Subgraph* (Wu & Raschid, ICDE 2009): PageRank-style ranking of a
//! subgraph that reflects the global link structure without a global
//! computation.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`exec`] | `approxrank-exec` | persistent work-pool executor: chunk partitions, `for_each_chunk` / `map_reduce`, pool stats |
//! | [`graph`] | `approxrank-graph` | CSR graphs, subgraphs, boundaries, traversals, I/O |
//! | [`gen`] | `approxrank-gen` | synthetic web-graph datasets and crawlers |
//! | [`pagerank`] | `approxrank-pagerank` | global PageRank and authority flow |
//! | [`core`] | `approxrank-core` | IdealRank, ApproxRank, baselines, SC, Theorem 2 |
//! | [`metrics`] | `approxrank-metrics` | L1, Spearman footrule with ties, Kendall, top-k |
//! | [`objectrank`] | `approxrank-objectrank` | semantic ranking: schema graphs, authority transfer, keyword base sets |
//! | [`trace`] | `approxrank-trace` | solver telemetry: observers, recorders, JSONL export, run reports |
//! | [`walk`] | `approxrank-walk` | sublinear estimator tier: Monte-Carlo walks, local push, warm visit-count sessions |
//! | [`bench`](mod@bench) | `approxrank-bench` | the experiment harness behind `repro` |
//!
//! The most common types are re-exported at the root:
//!
//! ```
//! use approxrank::{ApproxRank, DiGraph, NodeSet, Subgraph, SubgraphRanker};
//!
//! let global = DiGraph::from_edges(5, &[(0, 1), (1, 0), (2, 0), (3, 0), (4, 2)]);
//! let local = Subgraph::extract(&global, NodeSet::from_sorted(5, [0, 1]));
//! let scores = ApproxRank::default().rank(&global, &local);
//! assert_eq!(scores.local_scores.len(), 2);
//! assert!(scores.local_scores[0] > scores.local_scores[1],
//!         "page 0 has external endorsements page 1 lacks");
//! ```
//!
//! See `examples/` for complete scenarios (focused crawler, semantic
//! ranking, incremental update) and `DESIGN.md` / `EXPERIMENTS.md` for the
//! reproduction methodology and measured results.

pub use approxrank_bench as bench;
pub use approxrank_core as core;
pub use approxrank_exec as exec;
pub use approxrank_gen as gen;
pub use approxrank_graph as graph;
pub use approxrank_metrics as metrics;
pub use approxrank_objectrank as objectrank;
pub use approxrank_pagerank as pagerank;
pub use approxrank_trace as trace;
pub use approxrank_walk as walk;

pub use approxrank_core::{
    ApproxRank, Estimate, GlobalPrecomputation, GlobalScores, IdealRank, RankScores,
    StochasticComplementation, SubgraphRanker,
};
pub use approxrank_graph::{DiGraph, NodeSet, Subgraph};
pub use approxrank_pagerank::{PageRankOptions, PageRankResult};
pub use approxrank_walk::{LocalPushRank, McApproxRank};
