//! Delta-overlay equivalence and incremental-repair acceptance.
//!
//! The contract behind live mutation (`crates/delta`) is that a
//! [`DeltaGraph`] is *indistinguishable* from a [`DiGraph`] rebuilt
//! from scratch over the mutated edge set: same shape, same degrees,
//! same adjacency order, same extracted subgraphs, and bitwise the same
//! ApproxRank scores — before and after compaction. The property tests
//! here drive random mutation batches against a `BTreeSet` edge model
//! and check all of it — down to whole [`Engine`] answers served live
//! from the overlay, which must never need a CSR rebuild for the
//! Λ-collapse family. The deterministic tests pin the acceptance
//! criteria for incremental repair (fewer re-walked sources, fewer
//! invalidated cache entries than a full rebuild would cost).

use std::collections::BTreeSet;
use std::sync::Arc;

use approxrank_core::{ApproxRank, GlobalAggregates};
use approxrank_engine::{
    Algorithm, CachedResult, DeltaGraph, Engine, EngineConfig, EstimatorOptions, RankRequest,
};
use approxrank_graph::{DiGraph, GraphView, NodeSet, Subgraph};
use approxrank_pagerank::PageRankOptions;
use approxrank_trace::{Event, Recorder};
use proptest::prelude::*;

/// Arbitrary base graphs over up to 40 nodes.
fn base_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..40).prop_flat_map(|n| {
        let edge = (0u32..n as u32, 0u32..n as u32);
        proptest::collection::vec(edge, 0..120).prop_map(move |es| (n, es))
    })
}

/// One mutation batch: edges to insert, edges to delete.
type Batch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Mutation batches whose endpoints may run a little past the base page
/// count, so inserts exercise node appends.
fn batches_strategy(n: usize) -> impl Strategy<Value = Vec<Batch>> {
    let hi = (n + 4) as u32;
    let edge = (0u32..hi, 0u32..hi);
    let batch = (
        proptest::collection::vec(edge.clone(), 0..8),
        proptest::collection::vec(edge, 0..8),
    );
    proptest::collection::vec(batch, 1..5)
}

/// The reference model: applies one batch the way `DeltaGraph::apply`
/// documents it (inserts first — growing the page count to cover their
/// endpoints — then deletes, which never grow anything).
fn model_apply(
    n: &mut usize,
    edges: &mut BTreeSet<(u32, u32)>,
    insert: &[(u32, u32)],
    delete: &[(u32, u32)],
) {
    for &(u, v) in insert {
        *n = (*n).max(u as usize + 1).max(v as usize + 1);
        edges.insert((u, v));
    }
    for e in delete {
        edges.remove(e);
    }
}

fn rebuild(n: usize, edges: &BTreeSet<(u32, u32)>) -> DiGraph {
    let list: Vec<(u32, u32)> = edges.iter().copied().collect();
    DiGraph::from_edges(n, &list)
}

/// Shape, degrees, and full adjacency (both directions, in order).
fn assert_same_structure(delta: &DeltaGraph, rebuilt: &DiGraph) {
    assert_eq!(delta.num_nodes(), rebuilt.num_nodes());
    assert_eq!(delta.num_edges(), rebuilt.num_edges());
    assert_eq!(delta.num_dangling(), rebuilt.dangling_nodes().len());
    for u in 0..rebuilt.num_nodes() as u32 {
        assert_eq!(
            GraphView::out_degree(delta, u),
            rebuilt.out_degree(u),
            "out-degree of {u}"
        );
        assert_eq!(
            GraphView::in_degree(delta, u),
            rebuilt.in_degree(u),
            "in-degree of {u}"
        );
        assert_eq!(
            delta.out_neighbors_vec(u),
            rebuilt.out_neighbors(u).to_vec(),
            "out-row of {u}"
        );
        let mut ins = Vec::new();
        delta.for_each_in(u, &mut |s| ins.push(s));
        assert_eq!(ins, rebuilt.in_neighbors(u).to_vec(), "in-row of {u}");
    }
}

/// A proper, non-empty member subset: every third page.
fn sample_members(n: usize) -> Vec<u32> {
    (0..n as u32).step_by(3).collect()
}

/// Extracts the members through both views and solves ApproxRank from
/// shard-style aggregates; every score must match bitwise.
fn assert_same_scores(delta: &DeltaGraph, rebuilt: &DiGraph, members: &[u32]) {
    let n = rebuilt.num_nodes();
    let nodes = NodeSet::from_sorted(n, members.iter().copied());
    let via_delta = Subgraph::extract(delta, nodes.clone());
    let via_rebuilt = Subgraph::extract(rebuilt, nodes);
    let approx = ApproxRank::new(PageRankOptions::paper().with_tolerance(1e-10));
    let agg = GlobalAggregates {
        num_nodes: n,
        num_dangling: rebuilt.dangling_nodes().len(),
    };
    let a = approx.rank_subgraph_aggregated(agg, &via_delta);
    let b = approx.rank_subgraph_aggregated(agg, &via_rebuilt);
    assert_eq!(a.local_scores.len(), b.local_scores.len());
    for (i, (sa, sb)) in a.local_scores.iter().zip(&b.local_scores).enumerate() {
        assert_eq!(sa.to_bits(), sb.to_bits(), "local page {i}");
    }
    assert_eq!(
        a.lambda_score.map(f64::to_bits),
        b.lambda_score.map(f64::to_bits)
    );
    assert_eq!(a.iterations, b.iterations);
}

/// Two engine answers agree in every field, floats by bit pattern.
fn assert_same_answer(live: &CachedResult, rebuilt: &CachedResult, what: &str) {
    assert_eq!(live.scores.len(), rebuilt.scores.len(), "{what}");
    for (&(pa, sa), &(pb, sb)) in live.scores.iter().zip(rebuilt.scores.iter()) {
        assert_eq!(pa, pb, "{what}");
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: page {pa}");
    }
    assert_eq!(
        live.lambda.map(f64::to_bits),
        rebuilt.lambda.map(f64::to_bits),
        "{what}"
    );
    assert_eq!(live.iterations, rebuilt.iterations, "{what}");
    assert_eq!(live.converged, rebuilt.converged, "{what}");
    // `Debug` prints each f64 in its shortest round-trip form, so equal
    // text means equal bits.
    assert_eq!(
        format!("{:?}", live.estimate),
        format!("{:?}", rebuilt.estimate),
        "{what}"
    );
}

fn rank_request(algorithm: Algorithm, members: Vec<u32>) -> RankRequest {
    RankRequest {
        members,
        algorithm,
        damping: 0.85,
        tolerance: 1e-10,
        estimator: EstimatorOptions::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The serving read path: a global engine over the live delta answers
    /// the Λ-collapse family (`approxrank`, `mc`, `push`) byte-identically
    /// to an engine built over the rebuilt graph after every batch — node
    /// appends and dangling flips included, cache hits included — and
    /// never materializes a CSR to do it. One whole-graph read
    /// (`idealrank`) then materializes the current epoch exactly once.
    #[test]
    fn live_engine_matches_an_engine_over_the_rebuilt_graph(
        (n0, base_edges, batches) in base_strategy().prop_flat_map(|(n, es)| {
            batches_strategy(n).prop_map(move |b| (n, es.clone(), b))
        }),
    ) {
        let base = Arc::new(DiGraph::from_edges(n0, &base_edges));
        let mut n = n0;
        let mut edges: BTreeSet<(u32, u32)> = base.edges().collect();
        let delta = Arc::new(DeltaGraph::new(Arc::clone(&base)));
        let live = Engine::new_delta(Arc::clone(&delta), EngineConfig::default());
        let obs = approxrank_trace::null();

        for (insert, delete) in &batches {
            live.mutate_graph(insert, delete, obs).expect("batch within ceiling");
            model_apply(&mut n, &mut edges, insert, delete);
            let rebuilt = Engine::new_global(Arc::new(rebuild(n, &edges)), EngineConfig::default());
            for algorithm in [Algorithm::ApproxRank, Algorithm::Mc, Algorithm::Push] {
                let request = rank_request(algorithm, sample_members(n));
                let got = live.rank(&request, obs).expect("live read");
                let want = rebuilt.rank(&request, obs).expect("rebuilt read");
                assert_same_answer(&got.result, &want.result, algorithm.name());
            }
            prop_assert_eq!(delta.materializations(), 0, "Λ-collapse reads rebuilt the CSR");
        }

        let request = rank_request(Algorithm::IdealRank, sample_members(n));
        let got = live.rank(&request, obs).expect("live idealrank");
        let rebuilt = Engine::new_global(Arc::new(rebuild(n, &edges)), EngineConfig::default());
        let want = rebuilt.rank(&request, obs).expect("rebuilt idealrank");
        assert_same_answer(&got.result, &want.result, "idealrank");
        // Batches that net out to the base graph need no rebuild at all.
        let materialized = !Arc::ptr_eq(&delta.compacted(), &base);
        prop_assert_eq!(delta.materializations(), u64::from(materialized));
    }

    /// The tentpole equivalence: after every batch the overlay matches a
    /// from-scratch rebuild structurally, and at the end it matches on
    /// exact ApproxRank scores — then still does after compaction.
    #[test]
    fn delta_is_bitwise_equivalent_to_rebuilt_graph(
        (n0, base_edges, batches) in base_strategy().prop_flat_map(|(n, es)| {
            batches_strategy(n).prop_map(move |b| (n, es.clone(), b))
        }),
    ) {
        let base = DiGraph::from_edges(n0, &base_edges);
        let mut n = n0;
        let mut edges: BTreeSet<(u32, u32)> = base.edges().collect();
        let delta = DeltaGraph::new(Arc::new(base));

        for (batch_no, (insert, delete)) in batches.iter().enumerate() {
            delta.apply(insert, delete).expect("batch within ceiling");
            model_apply(&mut n, &mut edges, insert, delete);
            let rebuilt = rebuild(n, &edges);
            assert_same_structure(&delta, &rebuilt);
            prop_assert!(
                delta.epoch() <= batch_no as u64 + 1,
                "epoch grows at most once per batch"
            );
        }

        let rebuilt = rebuild(n, &edges);
        let members = sample_members(n);
        assert_same_scores(&delta, &rebuilt, &members);

        // Compaction folds the overlay into a new CSR generation; nothing
        // observable may move.
        let epoch_before = delta.epoch();
        delta.compact();
        prop_assert_eq!(delta.epoch(), epoch_before, "compaction is not a mutation");
        assert_same_structure(&delta, &rebuilt);
        assert_same_scores(&delta, &rebuilt, &members);

        // The compacted snapshot itself is the rebuilt graph.
        let compacted = delta.compacted();
        assert_same_structure(&DeltaGraph::new(Arc::clone(&compacted)), &rebuilt);
    }

    /// Incremental session repair lands within the declared epsilon of a
    /// cold full re-solve on the rebuilt graph, with the same top pages
    /// (modulo genuine near-ties at the cut).
    #[test]
    fn repaired_sessions_track_a_full_resolve(
        (n, base_edges) in base_strategy(),
        insert in proptest::collection::vec((0u32..40, 0u32..40), 0..6),
        delete in proptest::collection::vec((0u32..40, 0u32..40), 0..6),
    ) {
        // Keep mutation endpoints inside the base graph so the member
        // set stays a proper subset throughout.
        let insert: Vec<(u32, u32)> = insert
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let delete: Vec<(u32, u32)> = delete
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();

        let base = DiGraph::from_edges(n, &base_edges);
        let mut n_model = n;
        let mut edges: BTreeSet<(u32, u32)> = base.edges().collect();
        let delta = Arc::new(DeltaGraph::new(Arc::new(base)));
        let live = Engine::new_delta(Arc::clone(&delta), EngineConfig::default());

        let request = RankRequest {
            members: sample_members(n),
            algorithm: Algorithm::ApproxRank,
            damping: 0.85,
            tolerance: 1e-12,
            estimator: EstimatorOptions::default(),
        };
        let obs = approxrank_trace::null();
        let (id, _) = live.session_create(&request, obs).expect("create");
        live.mutate_graph(&insert, &delete, obs).expect("mutate");
        model_apply(&mut n_model, &mut edges, &insert, &delete);

        let repaired = live
            .session_view(id)
            .and_then(|v| v.solution)
            .expect("repaired solution");
        let cold_engine = Engine::new_global(
            Arc::new(rebuild(n_model, &edges)),
            EngineConfig::default(),
        );
        let (_, cold) = cold_engine.session_create(&request, obs).expect("re-solve");

        // Within epsilon: both runs converge to the same fixed point, so
        // scores agree far tighter than the declared 1e-8.
        const EPS: f64 = 1e-8;
        prop_assert_eq!(repaired.0.len(), cold.scores.len());
        for (&(pa, sa), &(pb, sb)) in repaired.0.iter().zip(cold.scores.iter()) {
            prop_assert_eq!(pa, pb);
            prop_assert!((sa - sb).abs() <= EPS, "page {}: {} vs {}", pa, sa, sb);
        }
        prop_assert!((repaired.1 - cold.lambda.unwrap_or(0.0)).abs() <= EPS);

        // Top-5 identical, tolerating order flips only between pages
        // whose scores are closer than the comparison epsilon.
        let top5 = |scores: &[(u32, f64)]| -> Vec<(u32, f64)> {
            let mut v = scores.to_vec();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            v.truncate(5);
            v
        };
        let ta = top5(&repaired.0);
        let tb = top5(&cold.scores);
        for (&(pa, sa), &(pb, sb)) in ta.iter().zip(&tb) {
            prop_assert!(
                pa == pb || (sa - sb).abs() <= EPS,
                "top-5 disagree beyond a near-tie: {} ({}) vs {} ({})",
                pa, sa, pb, sb
            );
        }
    }
}

/// A sparse directed ring with one long chord: localized mutations touch
/// a handful of rows, which is what makes incremental repair measurable.
fn ring(n: u32) -> DiGraph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.push((0, n / 2));
    DiGraph::from_edges(n as usize, &edges)
}

/// Acceptance: one localized mutation must invalidate strictly fewer
/// cache entries than a full rebuild (which drops all of them).
#[test]
fn localized_mutation_invalidates_strictly_fewer_cache_entries() {
    let delta = Arc::new(DeltaGraph::new(Arc::new(ring(60))));
    let engine = Engine::new_delta(delta, EngineConfig::default());
    let obs = approxrank_trace::null();

    // Warm three disjoint resident answers.
    let near = rank_request(Algorithm::ApproxRank, (0..6).collect());
    let mid = rank_request(Algorithm::ApproxRank, (20..26).collect());
    let far = rank_request(Algorithm::ApproxRank, (40..46).collect());
    for request in [&near, &mid, &far] {
        assert!(!engine.rank(request, obs).expect("cold solve").cached);
    }

    // Add one chord inside `near`'s neighborhood. (An insert on a page
    // that already has out-links keeps the mutation non-structural; a
    // structural batch floors every entry by design.)
    let outcome = engine.mutate_graph(&[(2, 5)], &[], obs).expect("mutate");
    assert_eq!(outcome.epoch, 1);
    assert!(!outcome.structural);

    // The touched answer re-solves; the two untouched answers are still
    // served from cache — strictly fewer invalidations than a rebuild.
    assert!(!engine.rank(&near, obs).expect("touched").cached);
    assert!(engine.rank(&mid, obs).expect("untouched").cached);
    assert!(engine.rank(&far, obs).expect("untouched").cached);
}

/// Acceptance: Monte-Carlo session repair re-walks strictly fewer
/// sources than the cold build walked, reusing the rest.
#[test]
fn localized_mutation_rewalks_strictly_fewer_sources() {
    let delta = Arc::new(DeltaGraph::new(Arc::new(ring(60))));
    let engine = Engine::new_delta(delta, EngineConfig::default());
    let obs = approxrank_trace::null();

    let request = rank_request(Algorithm::Mc, (0..20).collect());
    let (_, cold) = engine.session_create(&request, obs).expect("create");
    let walked = cold.iterations;
    assert_eq!(walked, 20, "cold build walks every member source");

    // Mutating one row deep inside the membership repairs the session
    // through the incremental path.
    let recorder = Recorder::new();
    let outcome = engine
        .mutate_graph(&[], &[(5, 6)], &recorder)
        .expect("mutate");
    assert_eq!(outcome.sessions_repaired, 1);

    let counter = |name: &str| -> u64 {
        recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .next_back()
            .expect(name)
    };
    let rewalked = counter("walk_sources_rewalked");
    let reused = counter("walk_sources_reused");
    assert_eq!(rewalked + reused, walked as u64);
    assert!(
        rewalked < walked as u64,
        "repair re-walked all {walked} sources"
    );
    assert!(rewalked > 0, "the mutated row must re-walk");
    assert!(reused > 0, "untouched rows must be reused");
}
