//! Contract tests: every [`SubgraphRanker`] implementation must satisfy
//! the same behavioural contract across a battery of graph shapes —
//! convergence, finite non-negative scores, one score per local page,
//! determinism, and sane `Λ` semantics where applicable.

use approxrank_core::baselines::{LocalPageRank, Lpr2};
use approxrank_core::{
    ApproxRank, GlobalScores, IdealRank, StochasticComplementation, SubgraphRanker,
};
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_pagerank::{pagerank, PageRankOptions};

fn opts() -> PageRankOptions {
    PageRankOptions::paper().with_tolerance(1e-10)
}

/// The battery: (name, graph, local members).
fn battery() -> Vec<(&'static str, DiGraph, Vec<u32>)> {
    // Paper Figure 4.
    let mut cases = vec![(
        "figure4",
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
        ),
        vec![0, 1, 2, 3],
    )];
    // Subgraph with a locally-dangling page and a dangling external page.
    cases.push((
        "dangling_both_sides",
        DiGraph::from_edges(6, &[(0, 1), (0, 3), (1, 2), (3, 1), (3, 4), (4, 0), (4, 5)]),
        vec![0, 1, 2],
    ));
    // Subgraph that is internally disconnected.
    cases.push((
        "disconnected_local",
        DiGraph::from_edges(
            8,
            &[
                (0, 4),
                (4, 1),
                (1, 5),
                (5, 2),
                (2, 6),
                (6, 3),
                (3, 7),
                (7, 0),
            ],
        ),
        vec![0, 1, 2, 3],
    ));
    // Singleton subgraph.
    cases.push((
        "singleton",
        DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),
        vec![2],
    ));
    // Subgraph with no external in-links at all.
    cases.push((
        "no_inbound_boundary",
        DiGraph::from_edges(5, &[(0, 1), (1, 0), (0, 2), (2, 3), (3, 4), (4, 2)]),
        vec![0, 1],
    ));
    // Larger pseudo-random case.
    let n = 120u32;
    let mut edges = Vec::new();
    let mut state = 99u64;
    for u in 0..n {
        if u % 13 == 5 {
            continue; // dangling
        }
        for _ in 0..3 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.push((u, ((state >> 33) % n as u64) as u32));
        }
    }
    cases.push((
        "pseudo_random",
        DiGraph::from_edges(n as usize, &edges),
        (30..75u32).collect(),
    ));
    cases
}

fn rankers(g: &DiGraph, truth: &[f64]) -> Vec<Box<dyn SubgraphRanker>> {
    vec![
        Box::new(ApproxRank::new(opts())),
        Box::new(LocalPageRank::new(opts())),
        Box::new(Lpr2::new(opts())),
        Box::new(StochasticComplementation {
            options: opts(),
            expansion_rounds: 5,
            ..StochasticComplementation::default()
        }),
        Box::new(IdealRank {
            options: opts(),
            global_scores: GlobalScores::new(g, truth.to_vec()).into(),
        }),
    ]
}

#[test]
fn every_ranker_satisfies_the_contract_on_every_case() {
    for (name, g, members) in battery() {
        let truth = pagerank(&g, &opts());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(g.num_nodes(), members));
        for ranker in rankers(&g, &truth.scores) {
            let r = ranker.rank(&g, &sub);
            let label = format!("{} on {name}", ranker.name());
            assert!(r.converged, "{label}: did not converge");
            assert_eq!(
                r.local_scores.len(),
                sub.len(),
                "{label}: wrong score count"
            );
            assert!(
                r.local_scores.iter().all(|s| s.is_finite() && *s >= 0.0),
                "{label}: invalid scores {:?}",
                r.local_scores
            );
            assert!(
                r.local_mass() > 0.0,
                "{label}: all-zero scores are never valid (teleport floor)"
            );
            if let Some(lambda) = r.lambda_score {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&lambda),
                    "{label}: Λ = {lambda}"
                );
                // Λ-based rankers are mass-conserving overall.
                assert!(
                    (r.local_mass() + lambda - 1.0).abs() < 1e-6,
                    "{label}: mass {} + Λ {lambda} != 1",
                    r.local_mass()
                );
            }
            // Determinism.
            let again = ranker.rank(&g, &sub);
            assert_eq!(r, again, "{label}: nondeterministic");
        }
    }
}

#[test]
fn idealrank_is_exact_on_every_case() {
    for (name, g, members) in battery() {
        let truth = pagerank(&g, &PageRankOptions::paper().with_tolerance(1e-12));
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(g.num_nodes(), members));
        let ideal = IdealRank {
            options: PageRankOptions::paper().with_tolerance(1e-12),
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
        };
        let r = ideal.rank(&g, &sub);
        let restricted = sub.nodes().restrict(&truth.scores);
        let err: f64 = r
            .local_scores
            .iter()
            .zip(&restricted)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 1e-8, "{name}: IdealRank L1 error {err}");
    }
}

#[test]
fn approxrank_never_loses_to_local_pagerank_badly() {
    // ApproxRank may tie local PageRank on boundary-free cases but must
    // never be substantially worse on any battery case.
    use approxrank_metrics::footrule::footrule_from_scores;
    for (name, g, members) in battery() {
        let truth = pagerank(&g, &opts());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(g.num_nodes(), members));
        if sub.len() < 3 {
            continue; // footrule on <3 items is degenerate
        }
        let restricted = sub.nodes().restrict(&truth.scores);
        let fr_a = footrule_from_scores(
            &ApproxRank::new(opts()).rank(&g, &sub).local_scores,
            &restricted,
        );
        let fr_l = footrule_from_scores(
            &LocalPageRank::new(opts()).rank(&g, &sub).local_scores,
            &restricted,
        );
        assert!(
            fr_a <= fr_l + 0.05,
            "{name}: ApproxRank {fr_a} much worse than local {fr_l}"
        );
    }
}
