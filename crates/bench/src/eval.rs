//! Evaluating a ranking estimate against the global ground truth.
//!
//! Mirrors the paper's §V-B: the global PageRank vector restricted to the
//! subgraph (`R₁`) is compared to the estimate (`R₂`) with
//!
//! * the **L1 distance** over scores — both vectors normalized to unit
//!   mass on the subgraph, so algorithms that split mass with an external
//!   node (ApproxRank, LPR2) and algorithms that keep the full unit mass
//!   (local PageRank, SC's supergraph restriction) are compared on
//!   distribution *shape*;
//! * **Spearman's footrule** over the induced partial rankings (with
//!   tied buckets), which is normalization-invariant.

use std::time::Instant;

use approxrank_core::{RankScores, SubgraphRanker};
use approxrank_graph::{DiGraph, Subgraph};
use approxrank_metrics::footrule::footrule_from_scores;
use approxrank_metrics::l1_distance;

/// One algorithm's accuracy and cost on one subgraph.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Algorithm display name.
    pub name: &'static str,
    /// Normalized L1 distance to the restricted global PageRank.
    pub l1: f64,
    /// Spearman's footrule distance (partial rankings with ties).
    pub footrule: f64,
    /// Wall-clock seconds of the `rank` call.
    pub seconds: f64,
    /// Power iterations the algorithm's final solve took.
    pub iterations: usize,
    /// Whether the solve converged.
    pub converged: bool,
}

/// Normalizes a score vector to unit mass (no-op on zero mass).
pub fn normalize(scores: &[f64]) -> Vec<f64> {
    let mass: f64 = scores.iter().sum();
    if mass <= 0.0 {
        return scores.to_vec();
    }
    scores.iter().map(|s| s / mass).collect()
}

/// Scores an already-computed estimate against the truth restriction.
pub fn score_estimate(
    name: &'static str,
    estimate: &RankScores,
    truth_restricted: &[f64],
    seconds: f64,
) -> Evaluation {
    let est_norm = normalize(&estimate.local_scores);
    let truth_norm = normalize(truth_restricted);
    Evaluation {
        name,
        l1: l1_distance(&est_norm, &truth_norm),
        footrule: footrule_from_scores(&estimate.local_scores, truth_restricted),
        seconds,
        iterations: estimate.iterations,
        converged: estimate.converged,
    }
}

/// Runs `ranker` on the subgraph, timing it, and scores the result.
///
/// `global_scores` is the converged global PageRank vector (length `N`).
pub fn evaluate(
    ranker: &dyn SubgraphRanker,
    global: &DiGraph,
    subgraph: &Subgraph,
    global_scores: &[f64],
) -> Evaluation {
    let start = Instant::now();
    let estimate = ranker.rank(global, subgraph);
    let seconds = start.elapsed().as_secs_f64();
    let truth_restricted = subgraph.nodes().restrict(global_scores);
    score_estimate(ranker.name(), &estimate, &truth_restricted, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_core::{ApproxRank, GlobalScores, IdealRank};
    use approxrank_graph::NodeSet;
    use approxrank_pagerank::{pagerank, PageRankOptions};

    fn figure4() -> DiGraph {
        DiGraph::from_edges(
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
        )
    }

    #[test]
    fn ideal_rank_evaluates_to_zero_distance() {
        let g = figure4();
        let opts = PageRankOptions::paper().with_tolerance(1e-13);
        let truth = pagerank(&g, &opts);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let ideal = IdealRank {
            options: opts,
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
        };
        let e = evaluate(&ideal, &g, &sub, &truth.scores);
        assert!(e.l1 < 1e-8, "L1 {}", e.l1);
        assert_eq!(e.footrule, 0.0);
        assert!(e.converged);
    }

    #[test]
    fn approx_rank_evaluates_small_distance() {
        let g = figure4();
        let opts = PageRankOptions::paper().with_tolerance(1e-12);
        let truth = pagerank(&g, &opts);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let e = evaluate(&ApproxRank::new(opts), &g, &sub, &truth.scores);
        assert!(e.l1 < 0.3, "L1 {}", e.l1);
        assert!(e.footrule <= 0.5);
        assert!(e.seconds >= 0.0);
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
        let n = normalize(&[1.0, 3.0]);
        assert!((n[0] - 0.25).abs() < 1e-15);
    }
}
