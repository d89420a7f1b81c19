//! Property-based tests for the graph substrate.

use approxrank_graph::{io, BitSet, Csr, DiGraph, NodeSet, Subgraph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, HashSet};
use std::io::Cursor;

/// Arbitrary edge lists over up to 64 nodes.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..64).prop_flat_map(|n| {
        let edge = (0u32..n as u32, 0u32..n as u32);
        proptest::collection::vec(edge, 0..200).prop_map(move |es| (n, es))
    })
}

proptest! {
    #[test]
    fn csr_matches_hashset_model((n, edges) in edges_strategy()) {
        let csr = Csr::from_edges(n, &edges);
        let model: HashSet<(u32, u32)> = edges.iter().copied().collect();
        prop_assert_eq!(csr.num_edges(), model.len());
        for &(s, t) in &model {
            prop_assert!(csr.has_edge(s, t));
        }
        for u in 0..n as u32 {
            let row = csr.neighbors(u);
            // Sorted strictly ascending (deduplicated).
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn transpose_is_involution((n, edges) in edges_strategy()) {
        let csr = Csr::from_edges(n, &edges);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_preserves_edges((n, edges) in edges_strategy()) {
        let csr = Csr::from_edges(n, &edges);
        let t = csr.transpose();
        prop_assert_eq!(csr.num_edges(), t.num_edges());
        for (s, tgt) in csr.edges() {
            prop_assert!(t.has_edge(tgt, s));
        }
    }

    #[test]
    fn digraph_degree_sums_agree((n, edges) in edges_strategy()) {
        let g = DiGraph::from_edges(n, &edges);
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
    }

    #[test]
    fn binary_io_roundtrips((n, edges) in edges_strategy()) {
        let g = DiGraph::from_edges(n, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(io::read_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn edge_list_io_roundtrips((n, edges) in edges_strategy()) {
        let g = DiGraph::from_edges(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(Cursor::new(buf), n).unwrap();
        prop_assert_eq!(g2, g);
    }

    #[test]
    fn bitset_matches_hashset_model(ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..300)) {
        let mut bs = BitSet::new(128);
        let mut model: HashSet<usize> = HashSet::new();
        for (idx, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(idx), model.insert(idx));
            } else {
                prop_assert_eq!(bs.remove(idx), model.remove(&idx));
            }
        }
        prop_assert_eq!(bs.len(), model.len());
        let mut sorted: Vec<usize> = model.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn subgraph_partitions_all_member_edges(
        (n, edges) in edges_strategy(),
        pick in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let members: Vec<u32> = (0..n as u32).filter(|&u| pick[u as usize]).collect();
        prop_assume!(!members.is_empty());
        let set = NodeSet::from_sorted(n, members.iter().copied());
        let sub = Subgraph::extract(&g, set);

        // Every member's global out-degree is preserved and decomposes as
        // local edges + external edges.
        for (li, &gid) in sub.nodes().members().iter().enumerate() {
            let local_out = sub.local_graph().out_degree(li as u32);
            let ext_out = sub.boundary().out_external[li];
            prop_assert_eq!(local_out + ext_out, g.out_degree(gid));
            prop_assert_eq!(sub.global_out_degree(li as u32), g.out_degree(gid));
        }
        // Boundary in-edges exactly match the global cross-edges.
        let expected: usize = sub
            .nodes()
            .members()
            .iter()
            .map(|&gid| {
                g.in_neighbors(gid)
                    .iter()
                    .filter(|&&s| !sub.nodes().contains(s))
                    .count()
            })
            .sum();
        prop_assert_eq!(sub.boundary().in_edges.len(), expected);
    }

    #[test]
    fn nodeset_maps_are_inverse(
        n in 4usize..200,
        ids in proptest::collection::vec(0u32..200, 1..100),
    ) {
        let ids: Vec<u32> = ids.into_iter().filter(|&i| (i as usize) < n).collect();
        prop_assume!(!ids.is_empty());
        let set = NodeSet::from_iter_order(n, ids.iter().copied());
        for li in 0..set.len() as u32 {
            prop_assert_eq!(set.local_id(set.global_id(li)), Some(li));
        }
        for gid in 0..n as u32 {
            match set.local_id(gid) {
                Some(li) => prop_assert_eq!(set.global_id(li), gid),
                None => prop_assert!(!set.contains(gid)),
            }
        }
    }
}

/// A random `N` and ids below it, with duplicates, in random order. When
/// `edges` is drawn, the word-boundary ids 0, 63, 64 and `N − 1` are
/// spliced in at salted positions.
fn nodeset_case() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (1usize..700).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0u32..n as u32, 0..120),
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(n, mut ids, edges, salt)| {
                if edges {
                    for (i, e) in [0, 63, 64, n - 1].into_iter().enumerate() {
                        if e < n {
                            let at = (salt >> (16 * i)) as usize % (ids.len() + 1);
                            ids.insert(at, e as u32);
                        }
                    }
                }
                (n, ids)
            })
    })
}

/// Checks every `NodeSet` query against a `BTreeMap` model of the
/// expected local numbering (`order[local] = global`).
fn check_nodeset(set: &NodeSet, n: usize, order: &[u32]) -> Result<(), TestCaseError> {
    let model: BTreeMap<u32, u32> = order
        .iter()
        .enumerate()
        .map(|(local, &g)| (g, local as u32))
        .collect();
    prop_assert_eq!(set.members(), order);
    prop_assert_eq!(set.len(), order.len());
    prop_assert_eq!(set.is_empty(), order.is_empty());
    prop_assert_eq!(set.global_nodes(), n);
    prop_assert_eq!(set.num_external(), n - order.len());
    for g in (0..n as u32).chain([n as u32, n as u32 + 64, u32::MAX]) {
        prop_assert_eq!(set.contains(g), model.contains_key(&g), "contains({})", g);
        prop_assert_eq!(set.local_id(g), model.get(&g).copied(), "local_id({})", g);
    }
    for (&g, &local) in &model {
        prop_assert_eq!(set.global_id(local), g);
    }
    let scores: Vec<f64> = (0..n).map(|g| 0.5 + g as f64).collect();
    let want: Vec<f64> = order.iter().map(|&g| scores[g as usize]).collect();
    prop_assert_eq!(set.restrict(&scores), want);
    Ok(())
}

proptest! {
    /// Both constructors agree with a map model: `from_iter_order`
    /// numbers distinct ids by first occurrence, `from_sorted` in
    /// ascending order, and the empty set answers every query.
    #[test]
    fn nodeset_matches_btreemap_model((n, ids) in nodeset_case()) {
        let mut first_seen = Vec::new();
        for &id in &ids {
            if !first_seen.contains(&id) {
                first_seen.push(id);
            }
        }
        check_nodeset(&NodeSet::from_iter_order(n, ids.iter().copied()), n, &first_seen)?;
        let mut ascending = first_seen.clone();
        ascending.sort_unstable();
        check_nodeset(&NodeSet::from_sorted(n, ids.iter().copied()), n, &ascending)?;
        check_nodeset(&NodeSet::from_sorted(n, std::iter::empty()), n, &[])?;
        check_nodeset(&NodeSet::from_iter_order(n, std::iter::empty()), n, &[])?;
    }
}

proptest! {
    /// Fuzz the binary reader: corrupting any single byte of a valid file
    /// must yield an error (or, at absolute worst, a valid graph — never
    /// a panic), and truncation must always error.
    #[test]
    fn binary_reader_survives_corruption(
        (n, edges) in edges_strategy(),
        flip_pos_seed in any::<u64>(),
        flip_mask in 1u8..=255,
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();

        // Single-byte corruption at a pseudo-random position.
        let pos = (flip_pos_seed as usize) % buf.len();
        let mut corrupted = buf.clone();
        corrupted[pos] ^= flip_mask;
        match io::read_binary(Cursor::new(corrupted)) {
            Err(_) => {}                       // detected — the common case
            Ok(g2) => {
                // The checksum covers degrees and targets; a flip that
                // still round-trips must reproduce the original graph
                // (e.g. it hit padding-free but self-cancelling bits is
                // impossible — so equality is the only acceptable Ok).
                prop_assert_eq!(g2, g);
            }
        }

        // Truncation anywhere must error, never panic.
        let cut = buf.len() / 2;
        prop_assert!(io::read_binary(Cursor::new(buf[..cut].to_vec())).is_err());
    }

    /// The edge-list parser never panics on arbitrary text.
    #[test]
    fn edge_list_parser_total(text in "\\PC{0,300}") {
        let _ = io::read_edge_list(Cursor::new(text), 0);
    }

    /// SCC ids are consistent with mutual reachability on small graphs.
    #[test]
    fn scc_matches_reachability((n, edges) in edges_strategy()) {
        prop_assume!(n <= 24); // O(n^2) reachability check
        let g = DiGraph::from_edges(n, &edges);
        let scc = approxrank_graph::strongly_connected_components(&g);
        let reach = |from: u32| -> Vec<bool> {
            let order = approxrank_graph::traversal::bfs_order(&g, from);
            let mut r = vec![false; n];
            for v in order {
                r[v as usize] = true;
            }
            r
        };
        let reachable: Vec<Vec<bool>> = (0..n as u32).map(reach).collect();
        #[allow(clippy::needless_range_loop)] // symmetric 2-D index walk
        for a in 0..n {
            for b in 0..n {
                let mutually = reachable[a][b] && reachable[b][a];
                let same = scc.component_of[a] == scc.component_of[b];
                prop_assert_eq!(mutually, same, "nodes {} and {}", a, b);
            }
        }
    }
}

proptest! {
    /// Every partitioning strategy covers each node exactly once and
    /// preserves each edge as either intra-shard or cross-shard.
    #[test]
    fn partitioning_covers_nodes_and_edges(
        (n, edges) in edges_strategy(),
        shards in 1usize..6,
        strategy_pick in 0usize..3,
    ) {
        use approxrank_graph::{PartitionStrategy, PartitionedGraph};
        let g = DiGraph::from_edges(n, &edges);
        let strategy = [
            PartitionStrategy::Range,
            PartitionStrategy::Scc,
            PartitionStrategy::Hash,
        ][strategy_pick];
        let pg = PartitionedGraph::build(&g, shards, strategy);

        // Node coverage: exactly once, agreeing with the assignment map.
        let mut covered = vec![0usize; n];
        for shard in pg.shards() {
            for &m in shard.members() {
                covered[m as usize] += 1;
                prop_assert_eq!(pg.shard_of(m), shard.id());
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));

        // Edge preservation: intra-shard and cross-shard cover the graph.
        let intra: usize = pg
            .shards()
            .iter()
            .map(|s| s.view().local_graph().num_edges())
            .sum();
        prop_assert_eq!(intra + pg.cross_edges().len(), g.num_edges());
        for &(s, t) in pg.cross_edges() {
            prop_assert_ne!(pg.shard_of(s), pg.shard_of(t));
        }
        for shard in pg.shards() {
            for (ls, lt) in shard.view().local_graph().edges() {
                let gs = shard.view().nodes().global_id(ls);
                let gt = shard.view().nodes().global_id(lt);
                prop_assert!(g.has_edge(gs, gt));
            }
        }
    }

    /// A shard's nested extraction is indistinguishable from extracting
    /// the same member set directly from the global graph.
    #[test]
    fn nested_extraction_matches_direct(
        (n, edges) in edges_strategy(),
        shards in 1usize..4,
        pick in proptest::collection::vec(any::<bool>(), 64),
    ) {
        use approxrank_graph::{PartitionStrategy, PartitionedGraph, SubgraphSource};
        let g = DiGraph::from_edges(n, &edges);
        let pg = PartitionedGraph::build(&g, shards, PartitionStrategy::Range);
        let shard = pg.shard(0);
        let members: Vec<u32> = shard
            .members()
            .iter()
            .copied()
            .filter(|&m| pick[m as usize])
            .collect();
        prop_assume!(!members.is_empty());
        let nodes = || NodeSet::from_iter_order(n, members.iter().copied());
        let direct = Subgraph::extract(&g, nodes());
        let nested = shard.extract_nodes(nodes());
        prop_assert_eq!(nested.nodes().members(), direct.nodes().members());
        prop_assert_eq!(nested.local_graph(), direct.local_graph());
        prop_assert_eq!(nested.global_out_degrees(), direct.global_out_degrees());
        prop_assert_eq!(&nested.boundary().out_external, &direct.boundary().out_external);
        prop_assert_eq!(&nested.boundary().in_edges, &direct.boundary().in_edges);
        prop_assert_eq!(&nested.boundary().in_sources, &direct.boundary().in_sources);
    }
}
