//! End-to-end integration: dataset generation → global ground truth →
//! every ranking algorithm → metric comparison, across crate boundaries.

use approxrank::core::baselines::{LocalPageRank, Lpr2};
use approxrank::gen::{au_like, AuConfig, BfsCrawler};
use approxrank::metrics::footrule::footrule_from_scores;
use approxrank::pagerank::pagerank;
use approxrank::{
    ApproxRank, GlobalScores, IdealRank, NodeSet, PageRankOptions, StochasticComplementation,
    Subgraph, SubgraphRanker,
};

fn dataset() -> approxrank::gen::DomainDataset {
    au_like(&AuConfig {
        pages: 12_000,
        ..AuConfig::default()
    })
}

#[test]
fn all_rankers_run_and_order_sanely_on_a_domain() {
    let data = dataset();
    let g = data.graph();
    let options = PageRankOptions::paper();
    let truth = pagerank(g, &options);

    let domain = data.domain_index("bond.edu.au").unwrap();
    let sub = Subgraph::extract(g, data.ds_subgraph(domain));
    let truth_restricted = sub.nodes().restrict(&truth.scores);

    let rankers: Vec<Box<dyn SubgraphRanker>> = vec![
        Box::new(LocalPageRank::new(options.clone())),
        Box::new(Lpr2::new(options.clone())),
        Box::new(ApproxRank::new(options.clone())),
        Box::new(StochasticComplementation::default()),
        Box::new(IdealRank {
            options: options.clone(),
            global_scores: GlobalScores::new(g, truth.scores.clone()).into(),
        }),
    ];
    let mut footrules = Vec::new();
    for r in &rankers {
        let scores = r.rank(g, &sub);
        assert!(scores.converged, "{} did not converge", r.name());
        assert_eq!(scores.local_scores.len(), sub.len());
        assert!(
            scores
                .local_scores
                .iter()
                .all(|&s| s.is_finite() && s >= 0.0),
            "{} produced invalid scores",
            r.name()
        );
        footrules.push((
            r.name(),
            footrule_from_scores(&scores.local_scores, &truth_restricted),
        ));
    }
    let get = |name: &str| footrules.iter().find(|(n, _)| *n == name).unwrap().1;
    // IdealRank is exact; ApproxRank beats both baselines; local PR worst.
    assert!(get("IdealRank") < 1e-3);
    assert!(get("ApproxRank") < get("local PageRank"));
    assert!(get("ApproxRank") < get("LPR2"));
    assert!(get("ApproxRank") < get("SC"));
}

#[test]
fn bfs_subgraphs_are_harder_than_ds_subgraphs() {
    let data = dataset();
    let g = data.graph();
    let options = PageRankOptions::paper();
    let truth = pagerank(g, &options);
    let approx = ApproxRank::new(options);

    // A DS subgraph and a BFS subgraph of comparable size.
    let domain = data.domain_index("adelaide.edu.au").unwrap();
    let ds = Subgraph::extract(g, data.ds_subgraph(domain));
    let seed = (0..g.num_nodes() as u32)
        .find(|&u| g.out_degree(u) >= 3)
        .unwrap();
    let bfs_nodes = BfsCrawler::new(seed).crawl_limit(g, ds.len());
    let bfs = Subgraph::extract(
        g,
        NodeSet::from_iter_order(g.num_nodes(), bfs_nodes.members().iter().copied()),
    );

    // The BFS cut crosses far more edges relative to its size.
    let ds_boundary = ds.boundary().in_edges.len() as f64 / ds.len() as f64;
    let bfs_boundary = bfs.boundary().in_edges.len() as f64 / bfs.len() as f64;
    assert!(
        bfs_boundary > ds_boundary,
        "BFS boundary {bfs_boundary:.2} vs DS boundary {ds_boundary:.2}"
    );

    // And the local-only baseline suffers more on the BFS subgraph.
    let local = LocalPageRank::default();
    let fr_ds = footrule_from_scores(
        &local.rank(g, &ds).local_scores,
        &ds.nodes().restrict(&truth.scores),
    );
    let fr_bfs = footrule_from_scores(
        &local.rank(g, &bfs).local_scores,
        &bfs.nodes().restrict(&truth.scores),
    );
    assert!(
        fr_bfs > fr_ds,
        "BFS {fr_bfs:.4} should exceed DS {fr_ds:.4}"
    );
    // ApproxRank still handles the BFS subgraph far better than local PR.
    let fr_bfs_approx = footrule_from_scores(
        &approx.rank(g, &bfs).local_scores,
        &bfs.nodes().restrict(&truth.scores),
    );
    assert!(fr_bfs_approx < fr_bfs);
}

#[test]
fn precomputation_reused_across_subgraphs() {
    let data = dataset();
    let g = data.graph();
    let pre = approxrank::GlobalPrecomputation::compute(g);
    let approx = ApproxRank::default();
    for d in 0..4 {
        let sub = Subgraph::extract(g, data.ds_subgraph(d));
        let fast = approx.rank_subgraph_precomputed(&pre, &sub);
        let slow = approx.rank_subgraph(g, &sub);
        assert_eq!(fast, slow, "domain {d}");
    }
}
