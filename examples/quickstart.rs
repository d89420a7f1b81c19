//! Quickstart: rank a subgraph three ways and compare against the truth.
//!
//! Walks the paper's own running example (Figures 4–6): a seven-page web
//! with local pages A–D and external pages X–Z. We compute the true
//! global PageRank, then estimate the local ranking with ApproxRank,
//! IdealRank, and the local-PageRank baseline, and print the worked
//! transition probabilities the paper derives by hand.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use approxrank::core::baselines::LocalPageRank;
use approxrank::core::theory;
use approxrank::pagerank::pagerank;
use approxrank::{
    ApproxRank, DiGraph, IdealRank, NodeSet, PageRankOptions, Subgraph, SubgraphRanker,
};

fn main() {
    // The paper's Figure 4 (X's and Y's extra external edges reconstructed
    // from the worked probabilities in Figure 6).
    let names = ["A", "B", "C", "D", "X", "Y", "Z"];
    let global = DiGraph::from_edges(
        7,
        &[
            (0, 1), // A -> B
            (0, 2), // A -> C
            (0, 4), // A -> X
            (0, 6), // A -> Z
            (1, 3), // B -> D
            (2, 1), // C -> B
            (2, 3), // C -> D
            (3, 0), // D -> A
            (4, 2), // X -> C
            (4, 5), // X -> Y
            (4, 6), // X -> Z
            (5, 2), // Y -> C
            (5, 6), // Y -> Z
            (6, 2), // Z -> C
            (6, 3), // Z -> D
        ],
    );

    // Local pages: A, B, C, D. External: X, Y, Z (collapsed into Λ).
    let subgraph = Subgraph::extract(&global, NodeSet::from_sorted(7, [0, 1, 2, 3]));
    let options = PageRankOptions::paper().with_tolerance(1e-12);

    // 1. Ground truth: global PageRank (what subgraph ranking avoids).
    let truth = pagerank(&global, &options);
    println!("== true global PageRank ==");
    for (i, name) in names.iter().enumerate() {
        println!("  {name}: {:.6}", truth.scores[i]);
    }

    // 2. The paper's worked transition probabilities (§IV-B / Figure 6).
    let approx = ApproxRank::new(options.clone());
    let ext = approx.extended_graph(&global, &subgraph);
    println!("\n== A_approx entries the paper derives by hand ==");
    println!("  P(A -> Λ)  = {:.4}  (paper: 1/2)", ext.to_lambda()[0]);
    println!("  P(Λ -> C)  = {:.4}  (paper: 4/9)", ext.from_lambda()[2]);
    println!("  P(Λ -> Λ)  = {:.4}  (paper: 7/18)", ext.lambda_self());

    // 3. Estimates.
    let approx_scores = approx.rank(&global, &subgraph);
    let ideal = IdealRank {
        options: options.clone(),
        global_scores: truth.scores.clone().into(),
    };
    let ideal_scores = ideal.rank(&global, &subgraph);
    let local_scores = LocalPageRank::new(options.clone()).rank(&global, &subgraph);

    println!("\n== local page scores: truth vs estimates ==");
    println!("  page   truth     IdealRank  ApproxRank  localPR(norm)");
    let truth_restricted = subgraph.nodes().restrict(&truth.scores);
    let truth_mass: f64 = truth_restricted.iter().sum();
    for k in 0..4 {
        println!(
            "  {}      {:.6}  {:.6}   {:.6}    {:.6}",
            names[k],
            truth_restricted[k],
            ideal_scores.local_scores[k],
            approx_scores.local_scores[k],
            local_scores.local_scores[k] * truth_mass, // rescaled for comparison
        );
    }
    println!(
        "  Λ      {:.6}  {:.6}   {:.6}    -",
        1.0 - truth_mass,
        ideal_scores.lambda_score.unwrap(),
        approx_scores.lambda_score.unwrap(),
    );

    // 4. Theorem 2: ApproxRank's error is bounded a priori.
    let gap = theory::external_assumption_gap(&truth.scores, &subgraph);
    let bound = theory::theorem2_bound(options.damping, None, gap);
    let measured = theory::converged_gap(&ideal_scores.local_scores, &approx_scores.local_scores);
    println!("\n== Theorem 2 ==");
    println!("  ‖E − E_approx‖₁          = {gap:.6}");
    println!("  bound ε/(1−ε)·gap        = {bound:.6}");
    println!("  measured ‖ideal−approx‖₁ = {measured:.6}");
    assert!(measured <= bound, "Theorem 2 must hold");
    println!("  bound holds ✓");
}
