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

    /// The batched keyword contract one layer up from the raw power
    /// iteration: a k-base-set multi-column keyword solve over one
    /// Λ-collapse answers every column bitwise identically to k
    /// one-column solves — on random graphs, random memberships, and
    /// random base sets. This is the identity the engine's batch
    /// scheduler relies on when it coalesces concurrent `/keyword`
    /// requests.
    #[test]
    fn keyword_batch_is_bitwise_singleton(
        (g, set) in graph_and_subgraph(),
        k in 1usize..4,
        seed in 1u64..1_000_000,
    ) {
        use approxrank_core::GlobalAggregates;
        let n = g.num_nodes() as u64;
        let sub = Subgraph::extract(&g, set);
        // k deterministic base sets over the *global* graph (base pages
        // outside the membership teleport into Λ).
        let bases: Vec<Vec<u32>> = (0..k as u64)
            .map(|j| {
                let mut base: Vec<u32> = (0..=(seed.wrapping_mul(j + 1) % 4))
                    .map(|i| ((seed.wrapping_add(i * 13 + j * 31)) % n) as u32)
                    .collect();
                base.sort_unstable();
                base.dedup();
                base
            })
            .collect();
        let agg = GlobalAggregates::compute(&g);
        let ranker = ApproxRank::new(tight());
        let batch = ranker.rank_keyword_multi_aggregated_observed(
            agg, &sub, &bases, approxrank_trace::null(),
        );
        prop_assert_eq!(batch.len(), k);
        for (j, base) in bases.iter().enumerate() {
            let single = ranker.rank_keyword_multi_aggregated_observed(
                agg, &sub, std::slice::from_ref(base), approxrank_trace::null(),
            );
            prop_assert_eq!(single.len(), 1);
            prop_assert_eq!(batch[j].iterations, single[0].iterations, "column {}", j);
            prop_assert_eq!(
                batch[j].lambda_score.unwrap().to_bits(),
                single[0].lambda_score.unwrap().to_bits()
            );
            for (v, (a, b)) in batch[j]
                .local_scores
                .iter()
                .zip(&single[0].local_scores)
                .enumerate()
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "column {} node {}: {} vs {}", j, v, a, b);
            }
        }
    }
}
