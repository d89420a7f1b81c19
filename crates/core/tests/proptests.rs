//! Property-based tests for the core algorithms: the collapsed matrices
//! stay stochastic, Theorem 1 exactness, and the Theorem 2 bound, on
//! arbitrary random graphs and subgraph choices.

use approxrank_core::theory::{external_assumption_gap, lockstep_gaps, theorem2_bound};
use approxrank_core::{ApproxRank, IdealRank, SubgraphRanker};
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_pagerank::{pagerank, PageRankOptions};
use proptest::prelude::*;

/// Random graphs over 4..40 nodes including dangling pages, with a
/// nonempty proper subgraph selection.
fn graph_and_subgraph() -> impl Strategy<Value = (DiGraph, NodeSet)> {
    (4usize..40).prop_flat_map(|n| {
        let edge = (0u32..n as u32, 0u32..n as u32);
        let edges = proptest::collection::vec(edge, 1..150);
        let picks = proptest::collection::vec(any::<bool>(), n);
        (edges, picks).prop_map(move |(es, picks)| {
            let g = DiGraph::from_edges(n, &es);
            let mut members: Vec<u32> = (0..n as u32).filter(|&u| picks[u as usize]).collect();
            if members.is_empty() {
                members.push(0);
            }
            if members.len() == n {
                members.pop();
            }
            (g, NodeSet::from_sorted(n, members))
        })
    })
}

fn tight() -> PageRankOptions {
    PageRankOptions::paper().with_tolerance(1e-12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_approx_is_always_stochastic((g, set) in graph_and_subgraph()) {
        let sub = Subgraph::extract(&g, set);
        let ext = ApproxRank::default().extended_graph(&g, &sub);
        prop_assert!(ext.max_row_sum_error() < 1e-9);
    }

    #[test]
    fn a_ideal_is_always_stochastic((g, set) in graph_and_subgraph()) {
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, set);
        let ideal = IdealRank { options: tight(), global_scores: truth.scores.into() };
        let ext = ideal.extended_graph(&g, &sub);
        prop_assert!(ext.max_row_sum_error() < 1e-9);
    }

    #[test]
    fn theorem1_exactness((g, set) in graph_and_subgraph()) {
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, set);
        let ideal = IdealRank { options: tight(), global_scores: truth.scores.clone().into() };
        let r = ideal.rank(&g, &sub);
        let restricted = sub.nodes().restrict(&truth.scores);
        let err: f64 = r
            .local_scores
            .iter()
            .zip(&restricted)
            .map(|(a, b)| (a - b).abs())
            .sum();
        prop_assert!(err < 1e-8, "L1 error {err}");
        let ext_mass = 1.0 - restricted.iter().sum::<f64>();
        prop_assert!((r.lambda_score.unwrap() - ext_mass).abs() < 1e-8);
    }

    #[test]
    fn theorem2_bound_holds((g, set) in graph_and_subgraph()) {
        let eps = 0.85;
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, set);
        let ideal = IdealRank { options: tight(), global_scores: truth.scores.clone().into() };
        let ie = ideal.extended_graph(&g, &sub);
        let ae = ApproxRank::new(tight()).extended_graph(&g, &sub);
        let gap = external_assumption_gap(&truth.scores, &sub);
        for (i, measured) in lockstep_gaps(&ie, &ae, eps, 20).iter().enumerate() {
            let bound = theorem2_bound(eps, Some(i + 1), gap);
            prop_assert!(*measured <= bound + 1e-10,
                "iteration {}: {measured} > {bound}", i + 1);
        }
    }

    #[test]
    fn approx_scores_form_distribution((g, set) in graph_and_subgraph()) {
        let sub = Subgraph::extract(&g, set);
        let r = ApproxRank::new(tight()).rank(&g, &sub);
        prop_assert!(r.local_scores.iter().all(|&s| s >= 0.0 && s.is_finite()));
        let total = r.local_mass() + r.lambda_score.unwrap();
        prop_assert!((total - 1.0).abs() < 1e-8, "total {total}");
    }

    #[test]
    fn rankers_are_deterministic((g, set) in graph_and_subgraph()) {
        let sub = Subgraph::extract(&g, set);
        let a1 = ApproxRank::default().rank(&g, &sub);
        let a2 = ApproxRank::default().rank(&g, &sub);
        prop_assert_eq!(a1, a2);
    }

    /// The keyword serving contract: the path the engine runs —
    /// [`GlobalAggregates`](approxrank_core::GlobalAggregates) →
    /// `rank_keyword_aggregated_observed` — answers bitwise what the
    /// full-graph Λ-collapse answers for the same sparse base-set
    /// personalization, on random graphs, memberships, and base sets
    /// (base pages outside the membership teleport into Λ).
    #[test]
    fn keyword_path_is_bitwise_full_graph_solve(
        (g, set, base) in graph_and_subgraph().prop_flat_map(|(g, set)| {
            let n = g.num_nodes() as u32;
            let base = proptest::collection::vec(0u32..n, 1..6).prop_map(|mut b| {
                b.sort_unstable();
                b.dedup();
                b
            });
            (Just(g), Just(set), base)
        }),
    ) {
        use approxrank_core::GlobalAggregates;
        let sub = Subgraph::extract(&g, set);
        let ranker = ApproxRank::new(tight());
        let served = ranker.rank_keyword_aggregated_observed(
            GlobalAggregates::compute(&g), &sub, &base, approxrank_trace::null(),
        );
        let ext = ranker.extended_graph(&g, &sub);
        let p = ext.collapse_sparse_personalization(sub.nodes(), &base, 1.0 / base.len() as f64);
        let full = ext.solve_personalized(&tight(), &p);
        prop_assert_eq!(served.iterations, full.iterations);
        prop_assert_eq!(served.converged, full.converged);
        prop_assert_eq!(
            served.lambda_score.unwrap().to_bits(),
            full.scores[sub.len()].to_bits()
        );
        for (v, (a, b)) in served.local_scores.iter().zip(&full.scores).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "node {}: {} vs {}", v, a, b);
        }
    }
}
