//! The paper's update scenario (§I, §III): a region of the web changes —
//! new pages, new links — while the rest of the graph keeps its old
//! PageRank scores. IdealRank re-ranks just the changed subgraph using
//! the stale external scores, avoiding a global recomputation.
//!
//! We build an AU-like graph, compute its global PageRank once, then
//! mutate one domain (adding pages and rewiring links) and compare:
//!
//! * **IdealRank on the changed domain** (stale external scores) vs
//! * **fresh global PageRank** (the expensive exact answer) vs
//! * **stale scores** (doing nothing).
//!
//! ```text
//! cargo run --release --example incremental_update
//! ```

use approxrank::gen::{au_like, AuConfig};
use approxrank::metrics::footrule::footrule_from_scores;
use approxrank::metrics::l1_distance;
use approxrank::pagerank::pagerank;
use approxrank::{DiGraph, GlobalScores, IdealRank, NodeSet, PageRankOptions, Subgraph};
use std::time::Instant;

fn main() {
    let dataset = au_like(&AuConfig {
        pages: 60_000,
        ..AuConfig::default()
    });
    let graph = dataset.graph();
    let options = PageRankOptions::paper();

    // Yesterday's global PageRank.
    let t0 = Instant::now();
    let old_truth = pagerank(graph, &options);
    let global_secs = t0.elapsed().as_secs_f64();
    println!(
        "initial graph: {} pages; global PageRank took {global_secs:.2}s ({} iterations)",
        graph.num_nodes(),
        old_truth.iterations
    );

    // Overnight, one university domain restructures its site: every page
    // gains a link to the domain's new portal page, and the portal links
    // out to the domain's top pages and a few external ones.
    let domain = dataset.domain_index("bond.edu.au").expect("domain exists");
    let members: Vec<u32> = dataset.ds_subgraph(domain).members().to_vec();
    let n_old = graph.num_nodes();
    let portal = n_old as u32;
    let mut edges: Vec<(u32, u32)> = graph.edges().collect();
    for &m in &members {
        edges.push((m, portal));
    }
    for &m in members.iter().take(20) {
        edges.push((portal, m));
    }
    edges.push((portal, 0)); // one external link from the portal
    let new_graph = DiGraph::from_edges(n_old + 1, &edges);
    println!(
        "updated domain 'bond.edu.au': +1 portal page, +{} links",
        members.len() + 21
    );

    // The changed subgraph: the domain plus its new portal.
    let mut changed: Vec<u32> = members.clone();
    changed.push(portal);
    let subgraph = Subgraph::extract(&new_graph, NodeSet::from_sorted(n_old + 1, changed));

    // IdealRank with *stale* external scores (new pages get no old score;
    // the vector is padded with 0 for the portal, which is local anyway).
    let mut stale = old_truth.scores.clone();
    stale.push(0.0);
    let ideal = IdealRank {
        options: options.clone(),
        global_scores: GlobalScores::new(&new_graph, stale.clone()).into(),
    };
    let t0 = Instant::now();
    let estimate = ideal.rank_subgraph(&new_graph, &subgraph);
    let ideal_secs = t0.elapsed().as_secs_f64();

    // The exact answer: fresh global PageRank on the updated graph.
    let t0 = Instant::now();
    let new_truth = pagerank(&new_graph, &options);
    let fresh_secs = t0.elapsed().as_secs_f64();
    let truth_restricted = subgraph.nodes().restrict(&new_truth.scores);

    // Doing nothing: yesterday's scores for the domain.
    let stale_restricted = subgraph.nodes().restrict(&stale);

    let l1_ideal = l1_distance(&estimate.local_scores, &truth_restricted);
    let l1_stale = l1_distance(&stale_restricted, &truth_restricted);
    let fr_ideal = footrule_from_scores(&estimate.local_scores, &truth_restricted);
    let fr_stale = footrule_from_scores(&stale_restricted, &truth_restricted);

    println!("\naccuracy on the changed domain (vs fresh global PageRank):");
    println!(
        "  IdealRank (stale externals): L1 {l1_ideal:.6}, footrule {fr_ideal:.6}, {ideal_secs:.3}s"
    );
    println!("  stale scores (do nothing):   L1 {l1_stale:.6}, footrule {fr_stale:.6}");
    println!("  fresh global recompute:      exact, {fresh_secs:.2}s");
    println!(
        "\nIdealRank recovered the updated ranking {:.0}x faster than the \
         global recompute (footrule {:.1}x better than doing nothing)",
        fresh_secs / ideal_secs.max(1e-9),
        fr_stale / fr_ideal.max(1e-12)
    );
    assert!(
        fr_ideal <= fr_stale,
        "re-ranking must not be worse than stale scores"
    );
}
