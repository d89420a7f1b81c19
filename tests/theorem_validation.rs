//! Cross-crate validation of the paper's two theorems on realistic
//! generated graphs with randomized subgraph choices.

use approxrank::core::theory::{
    converged_gap, external_assumption_gap, lockstep_gaps, theorem2_bound,
};
use approxrank::gen::{politics_like, PoliticsConfig};
use approxrank::metrics::l1_distance;
use approxrank::pagerank::pagerank;
use approxrank::{ApproxRank, GlobalScores, IdealRank, NodeSet, PageRankOptions, Subgraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dataset() -> approxrank::gen::TopicDataset {
    politics_like(&PoliticsConfig {
        pages: 9_000,
        categories: 12,
        ..PoliticsConfig::default()
    })
}

fn random_subgraph(n_total: usize, rng: &mut StdRng, size: usize) -> NodeSet {
    let mut ids = Vec::with_capacity(size);
    for _ in 0..size {
        ids.push(rng.random_range(0..n_total as u32));
    }
    NodeSet::from_sorted(n_total, ids)
}

#[test]
fn theorem1_holds_on_random_subgraphs() {
    let data = dataset();
    let g = data.graph();
    let opts = PageRankOptions::paper().with_tolerance(1e-11);
    let truth = pagerank(g, &opts);
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..5 {
        let size = 50 + trial * 170;
        let sub = Subgraph::extract(g, random_subgraph(g.num_nodes(), &mut rng, size));
        let ideal = IdealRank {
            options: opts.clone(),
            global_scores: GlobalScores::new(g, truth.scores.clone()).into(),
        };
        let r = ideal.rank_subgraph(g, &sub);
        let restricted = sub.nodes().restrict(&truth.scores);
        let err = l1_distance(&r.local_scores, &restricted);
        assert!(err < 1e-7, "trial {trial} (n={}): L1 {err}", sub.len());
        // Λ picks up exactly the external mass.
        let ext_mass = 1.0 - restricted.iter().sum::<f64>();
        assert!((r.lambda_score.unwrap() - ext_mass).abs() < 1e-7);
    }
}

#[test]
fn theorem2_bound_holds_on_random_subgraphs() {
    let data = dataset();
    let g = data.graph();
    let opts = PageRankOptions::paper().with_tolerance(1e-11);
    let eps = opts.damping;
    let truth = pagerank(g, &opts);
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..4 {
        let sub = Subgraph::extract(g, random_subgraph(g.num_nodes(), &mut rng, 300));
        let ideal = IdealRank {
            options: opts.clone(),
            global_scores: GlobalScores::new(g, truth.scores.clone()).into(),
        };
        let ie = ideal.extended_graph(g, &sub);
        let ae = ApproxRank::new(opts.clone()).extended_graph(g, &sub);
        let gap = external_assumption_gap(&truth.scores, &sub);
        for (i, measured) in lockstep_gaps(&ie, &ae, eps, 25).iter().enumerate() {
            let bound = theorem2_bound(eps, Some(i + 1), gap);
            assert!(
                *measured <= bound + 1e-12,
                "trial {trial}, iteration {}: {measured} > {bound}",
                i + 1
            );
        }
        // The converged solutions also respect the limit bound (the
        // paper's practical reading of Theorem 2).
        let ri = ideal.rank_subgraph(g, &sub);
        let ra = ApproxRank::new(opts.clone()).rank_subgraph(g, &sub);
        let cg = converged_gap(&ri.local_scores, &ra.local_scores);
        let limit = theorem2_bound(eps, None, gap);
        assert!(
            cg <= limit,
            "trial {trial}: converged gap {cg} > limit {limit}"
        );
    }
}

#[test]
fn approxrank_error_correlates_with_assumption_gap() {
    // When external pages really are uniform, ApproxRank = IdealRank.
    // Construct a graph whose external region is a symmetric cycle.
    let mut edges = vec![(0u32, 1u32), (1, 0)];
    let ext = 40u32;
    for i in 0..ext {
        let a = 2 + i;
        let b = 2 + ((i + 1) % ext);
        edges.push((a, b));
        edges.push((a, 0)); // every external page endorses local page 0
        edges.push((0, a)); // and receives a symmetric local endorsement
    }
    let g = approxrank::DiGraph::from_edges(2 + ext as usize, &edges);
    let opts = PageRankOptions::paper().with_tolerance(1e-12);
    let truth = pagerank(&g, &opts);
    let sub = Subgraph::extract(&g, NodeSet::from_sorted(g.num_nodes(), [0, 1]));
    let gap = external_assumption_gap(&truth.scores, &sub);
    assert!(gap < 1e-9, "symmetric externals → zero gap, got {gap}");
    let ideal = IdealRank {
        options: opts.clone(),
        global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
    };
    let ri = ideal.rank_subgraph(&g, &sub);
    let ra = ApproxRank::new(opts).rank_subgraph(&g, &sub);
    assert!(
        converged_gap(&ri.local_scores, &ra.local_scores) < 1e-9,
        "zero gap → ApproxRank is exact"
    );
}
