//! Thread-count determinism: every pool-backed solver and ranker must
//! produce **bit-identical** scores at every worker width, because chunk
//! grids are a function of the data only and reductions fold per-chunk
//! partials in a fixed order (see DESIGN.md, "Execution model").
//!
//! These run the full battery at release-sized datasets, so they are
//! `#[ignore]`d in the default test pass; CI runs them via
//! `cargo test --release -- --ignored`.

use approxrank::gen::{au_like, AuConfig, BfsCrawler};
use approxrank::graph::{DiGraph, Subgraph};
use approxrank::pagerank::pagerank;
use approxrank::{
    ApproxRank, GlobalScores, IdealRank, McApproxRank, PageRankOptions, StochasticComplementation,
    SubgraphRanker,
};

/// Widths compared against the sequential (width-1) reference.
const WIDTHS: [usize; 2] = [2, 7];

fn options(threads: usize) -> PageRankOptions {
    PageRankOptions::paper().with_threads(threads)
}

/// A release-sized dataset plus the two subgraph shapes the paper
/// evaluates: a link-cohesive domain (DS) and a boundary-heavy BFS crawl.
fn battery() -> (DiGraph, Vec<Subgraph>) {
    let data = au_like(&AuConfig {
        pages: 20_000,
        ..AuConfig::default()
    });
    let g = data.graph().clone();
    let ds = Subgraph::extract(&g, data.ds_subgraph(1));
    let seed = (0..g.num_nodes() as u32)
        .find(|&u| g.out_degree(u) >= 3)
        .expect("generator produces hub pages");
    let bfs = Subgraph::extract(&g, BfsCrawler::new(seed).crawl_fraction(&g, 0.05));
    (g, vec![ds, bfs])
}

fn assert_bitwise(reference: &[f64], scores: &[f64], what: &str) {
    assert_eq!(reference.len(), scores.len(), "{what}: length changed");
    for (i, (a, b)) in reference.iter().zip(scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: score {i} diverged ({a:e} vs {b:e})"
        );
    }
}

#[test]
#[ignore = "release-sized; CI runs with --ignored"]
fn power_iteration_is_bitwise_stable_across_widths() {
    let (g, _) = battery();
    let reference = pagerank(&g, &options(1)).scores;
    for w in WIDTHS {
        let r = pagerank(&g, &options(w));
        assert_bitwise(&reference, &r.scores, &format!("power @ {w} threads"));
    }
}

#[test]
#[ignore = "release-sized; CI runs with --ignored"]
fn mc_estimator_is_bitwise_stable_across_widths_and_seeded() {
    let (g, subgraphs) = battery();
    for (si, sub) in subgraphs.iter().enumerate() {
        let mc = |threads: usize| McApproxRank {
            options: options(threads),
            walks: 128,
            ..McApproxRank::default()
        };
        let reference = mc(1).rank(&g, sub);
        for w in WIDTHS {
            let got = mc(w).rank(&g, sub);
            assert_bitwise(
                &reference.local_scores,
                &got.local_scores,
                &format!("mc on subgraph {si} @ {w} threads"),
            );
            assert_eq!(
                reference.lambda_score.map(f64::to_bits),
                got.lambda_score.map(f64::to_bits),
                "mc on subgraph {si} @ {w} threads: lambda diverged"
            );
            assert_eq!(reference.estimate, got.estimate);
        }
        // Same seed re-run reproduces the walks exactly; a different
        // seed draws different ones.
        let again = mc(1).rank(&g, sub);
        assert_bitwise(
            &reference.local_scores,
            &again.local_scores,
            &format!("mc on subgraph {si}: same-seed re-run"),
        );
        let other = McApproxRank { seed: 99, ..mc(1) }.rank(&g, sub);
        assert!(
            reference
                .local_scores
                .iter()
                .zip(&other.local_scores)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "mc on subgraph {si}: a different seed must change the walks"
        );
    }
}

#[test]
#[ignore = "release-sized; CI runs with --ignored"]
fn rankers_are_bitwise_stable_across_widths() {
    let (g, subgraphs) = battery();
    let truth = pagerank(&g, &options(1)).scores;
    for (si, sub) in subgraphs.iter().enumerate() {
        let rankers = |threads: usize| -> Vec<(&'static str, Box<dyn SubgraphRanker>)> {
            vec![
                ("approxrank", Box::new(ApproxRank::new(options(threads)))),
                (
                    "idealrank",
                    Box::new(IdealRank {
                        options: options(threads),
                        global_scores: GlobalScores::new(&g, truth.clone()).into(),
                    }),
                ),
                (
                    "sc",
                    Box::new(StochasticComplementation {
                        options: options(threads),
                        ..StochasticComplementation::default()
                    }),
                ),
            ]
        };
        let reference: Vec<_> = rankers(1)
            .into_iter()
            .map(|(name, r)| (name, r.rank(&g, sub)))
            .collect();
        for w in WIDTHS {
            for ((name, r), (_, baseline)) in rankers(w).into_iter().zip(&reference) {
                let got = r.rank(&g, sub);
                assert_bitwise(
                    &baseline.local_scores,
                    &got.local_scores,
                    &format!("{name} on subgraph {si} @ {w} threads"),
                );
                assert_eq!(
                    baseline.lambda_score.map(f64::to_bits),
                    got.lambda_score.map(f64::to_bits),
                    "{name} on subgraph {si} @ {w} threads: lambda diverged"
                );
            }
        }
    }
}
