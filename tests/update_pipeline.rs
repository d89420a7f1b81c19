//! Cross-crate integration: the update scenario end-to-end — generate a
//! corpus, evolve it with localized churn, and refresh rankings three
//! ways; plus the incremental crawler session.

use approxrank::core::updating::IadUpdate;
use approxrank::core::SubgraphSession;
use approxrank::gen::{au_like, evolve, AuConfig, ChurnConfig, ScoreGuidedCrawler};
use approxrank::metrics::footrule::footrule_from_scores;
use approxrank::metrics::l1_distance;
use approxrank::pagerank::pagerank;
use approxrank::{IdealRank, NodeSet, PageRankOptions, Subgraph};

fn opts() -> PageRankOptions {
    PageRankOptions::paper().with_tolerance(1e-9)
}

#[test]
fn evolve_then_update_pipeline() {
    let data = au_like(&AuConfig {
        pages: 8_000,
        ..AuConfig::default()
    });
    let g = data.graph();
    let old = pagerank(g, &opts());

    // Churn confined to one domain plus a handful of new pages.
    let domain = data.domain_index("cdu.edu.au").unwrap();
    let members = data.ds_subgraph(domain);
    let (lo, hi) = (
        *members.members().first().unwrap(),
        *members.members().last().unwrap() + 1,
    );
    let evo = evolve(
        g,
        &ChurnConfig {
            region: lo..hi,
            drop_link_frac: 0.25,
            add_links_per_page: 1.0,
            new_pages: 20,
            seed: 4,
        },
    );
    assert!(evo.dropped_links > 0 && evo.added_links > 0);

    let fresh = pagerank(&evo.graph, &opts());
    let subgraph = Subgraph::extract(
        &evo.graph,
        NodeSet::from_sorted(evo.graph.num_nodes(), evo.changed.members().iter().copied()),
    );
    let truth_restricted = subgraph.nodes().restrict(&fresh.scores);

    // Stale scores, padded for the new pages.
    let mut stale = old.scores.clone();
    stale.resize(evo.graph.num_nodes(), 0.0);

    // IdealRank with stale externals.
    let ideal = IdealRank {
        options: opts(),
        global_scores: stale.clone().into(),
    };
    let r_ideal = ideal.rank_subgraph(&evo.graph, &subgraph);
    let fr_ideal = footrule_from_scores(&r_ideal.local_scores, &truth_restricted);
    let fr_stale = footrule_from_scores(&subgraph.nodes().restrict(&stale), &truth_restricted);
    assert!(
        fr_ideal < fr_stale,
        "IdealRank ({fr_ideal}) must beat stale scores ({fr_stale})"
    );

    // IAD reaches the exact new PageRank.
    let iad = IadUpdate {
        options: opts(),
        tolerance: 1e-9,
        max_outer: 100,
        ..IadUpdate::default()
    };
    let updated = iad.update(&evo.graph, &evo.changed, &stale);
    let err = l1_distance(&updated.scores, &fresh.scores);
    assert!(err < 1e-4, "IAD L1 to fresh: {err}");
}

#[test]
fn crawler_session_incremental_ranking() {
    let data = au_like(&AuConfig {
        pages: 6_000,
        ..AuConfig::default()
    });
    let g = data.graph();
    let seed = (0..g.num_nodes() as u32)
        .find(|&u| g.out_degree(u) >= 3)
        .unwrap();

    // Crawl in batches, re-ranking the growing fragment with a session.
    let crawler = ScoreGuidedCrawler::new(vec![seed], 50);
    let mut session: Option<SubgraphSession> = None;
    let fragment = crawler.crawl_limit(g, 400, |fragment, frontier| {
        // Rank the fragment so far (warm across batches via the session).
        let scores = match session.as_mut() {
            None => {
                let mut s = SubgraphSession::new(
                    g,
                    NodeSet::from_iter_order(g.num_nodes(), fragment.members().iter().copied()),
                    opts(),
                );
                let r = s.solve();
                session = Some(s);
                r
            }
            Some(s) => {
                let current: std::collections::HashSet<u32> = s.members().iter().copied().collect();
                let fresh: Vec<u32> = fragment
                    .members()
                    .iter()
                    .copied()
                    .filter(|p| !current.contains(p))
                    .collect();
                if !fresh.is_empty() {
                    s.add_pages(g, &fresh);
                }
                s.solve()
            }
        };
        // Frontier priority: authority flowing toward the page from the
        // ranked fragment.
        frontier
            .iter()
            .map(|&f| {
                g.in_neighbors(f)
                    .iter()
                    .filter_map(|&u| {
                        fragment
                            .local_id(u)
                            .map(|li| scores.local_scores[li as usize] / g.out_degree(u) as f64)
                    })
                    .sum()
            })
            .collect()
    });
    assert_eq!(fragment.len(), 400);

    // The harvested fragment should be biased toward globally important
    // pages: its mean true score beats a BFS fragment of the same size.
    let truth = pagerank(g, &opts());
    let guided_mass: f64 = fragment
        .members()
        .iter()
        .map(|&p| truth.scores[p as usize])
        .sum();
    let bfs = approxrank::gen::BfsCrawler::new(seed).crawl_limit(g, 400);
    let bfs_mass: f64 = bfs
        .members()
        .iter()
        .map(|&p| truth.scores[p as usize])
        .sum();
    assert!(
        guided_mass > bfs_mass * 0.9,
        "guided crawl harvested {guided_mass:.5} vs BFS {bfs_mass:.5}"
    );
}
