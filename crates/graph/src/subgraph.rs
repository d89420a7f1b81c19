//! Subgraph selection: node sets, induced local graphs, and boundaries.
//!
//! The paper's algorithms all start from a *local* node set inside a global
//! graph. [`NodeSet`] gives O(1) membership plus a stable local numbering;
//! [`Subgraph`] materializes the induced local graph in local ids together
//! with the boundary information ([`BoundaryEdges`]) the extended local
//! graph (`Λ` collapse) is built from.

use crate::{DiGraph, GraphView, NodeId};

/// A set of global node ids with a dense local numbering `0..len`.
///
/// Local ids follow the insertion order of [`NodeSet::from_iter_order`] or
/// ascending global order for [`NodeSet::from_sorted`].
///
/// Membership is a bit set over the members' span only — `[min & !63,
/// max]` — with a per-word rank directory, so `contains` and `local_id`
/// are one word read plus a popcount and the set costs O(span/8 + n)
/// bytes, never O(N).
#[derive(Clone, Debug)]
pub struct NodeSet {
    members: Vec<NodeId>,
    global_nodes: usize,
    /// Global id of bit 0 of `words[0]`: the smallest member rounded down
    /// to a multiple of 64.
    base: usize,
    /// Membership bits over `[base, max member]`.
    words: Vec<u64>,
    /// `rank[w]` counts the members in `words[..w]`, so a member's
    /// position in ascending global order is its word's rank plus the
    /// set bits below it.
    rank: Vec<u32>,
    /// Ascending position → local id; empty when the local ids already
    /// ascend with the global ids.
    local_of_pos: Vec<u32>,
}

impl NodeSet {
    /// Builds a set from global ids in the given order (order defines the
    /// local numbering). Duplicates are ignored after first occurrence.
    ///
    /// # Panics
    /// Panics if an id is not below `global_nodes`.
    pub fn from_iter_order<I: IntoIterator<Item = NodeId>>(global_nodes: usize, ids: I) -> Self {
        let ids: Vec<NodeId> = ids.into_iter().collect();
        let (base, mut words) = match (ids.iter().min(), ids.iter().max()) {
            (Some(&lo), Some(&hi)) => {
                assert!(
                    (hi as usize) < global_nodes,
                    "node {hi} out of bounds (graph has {global_nodes} nodes)"
                );
                let base = lo as usize & !63;
                (base, vec![0u64; (hi as usize - base) / 64 + 1])
            }
            _ => (0, Vec::new()),
        };
        let mut members = Vec::with_capacity(ids.len());
        for g in ids {
            let o = g as usize - base;
            let (w, bit) = (o / 64, 1u64 << (o % 64));
            if words[w] & bit == 0 {
                words[w] |= bit;
                members.push(g);
            }
        }
        let mut rank = Vec::with_capacity(words.len());
        let mut below = 0u32;
        for w in &words {
            rank.push(below);
            below += w.count_ones();
        }
        let mut set = NodeSet {
            members,
            global_nodes,
            base,
            words,
            rank,
            local_of_pos: Vec::new(),
        };
        if !set.members.windows(2).all(|w| w[0] < w[1]) {
            let mut local_of_pos = vec![0u32; set.members.len()];
            for (local, &g) in set.members.iter().enumerate() {
                let pos = set.position(g).expect("member");
                local_of_pos[pos as usize] = local as u32;
            }
            set.local_of_pos = local_of_pos;
        }
        set
    }

    /// Builds a set from ids, numbering locals in ascending global order.
    ///
    /// # Panics
    /// Panics if an id is not below `global_nodes`.
    pub fn from_sorted<I: IntoIterator<Item = NodeId>>(global_nodes: usize, ids: I) -> Self {
        let mut v: Vec<NodeId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self::from_iter_order(global_nodes, v)
    }

    /// The position of `global` among the members in ascending order, if
    /// it is one: its word's rank plus the set bits below it.
    #[inline]
    fn position(&self, global: NodeId) -> Option<u32> {
        let o = (global as usize).checked_sub(self.base)?;
        let word = *self.words.get(o / 64)?;
        let bit = 1u64 << (o % 64);
        (word & bit != 0).then(|| self.rank[o / 64] + (word & (bit - 1)).count_ones())
    }

    /// Number of local pages `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// O(1) membership test on a global id.
    #[inline]
    pub fn contains(&self, global: NodeId) -> bool {
        let Some(o) = (global as usize).checked_sub(self.base) else {
            return false;
        };
        self.words
            .get(o / 64)
            .is_some_and(|w| w & (1u64 << (o % 64)) != 0)
    }

    /// Local id of a global id, if a member.
    #[inline]
    pub fn local_id(&self, global: NodeId) -> Option<u32> {
        let pos = self.position(global)?;
        Some(match self.local_of_pos.get(pos as usize) {
            Some(&local) => local,
            None => pos,
        })
    }

    /// Global id of a local id.
    ///
    /// # Panics
    /// Panics if `local >= len`.
    #[inline]
    pub fn global_id(&self, local: u32) -> NodeId {
        self.members[local as usize]
    }

    /// The members in local-id order.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Capacity of the surrounding global graph `N`.
    #[inline]
    pub fn global_nodes(&self) -> usize {
        self.global_nodes
    }

    /// Number of external pages `N - n`.
    #[inline]
    pub fn num_external(&self) -> usize {
        self.global_nodes() - self.len()
    }

    /// Restricts a global score vector to the members, in local order.
    pub fn restrict(&self, global_scores: &[f64]) -> Vec<f64> {
        self.members
            .iter()
            .map(|&g| global_scores[g as usize])
            .collect()
    }
}

/// One in-edge crossing the boundary: an external source (with its global
/// out-degree) pointing at a local page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundaryInEdge {
    /// Global id of the external source page.
    pub source: NodeId,
    /// Global out-degree of the source (denominator of its transition row).
    pub source_out_degree: usize,
    /// Local id of the target page.
    pub target_local: u32,
}

/// Boundary structure of a subgraph: everything the `Λ` collapse needs.
#[derive(Clone, Debug, Default)]
pub struct BoundaryEdges {
    /// For each local page `i` (indexed by local id), the number of its
    /// out-links whose target is external.
    pub out_external: Vec<usize>,
    /// All boundary in-edges (external source → local target).
    pub in_edges: Vec<BoundaryInEdge>,
    /// Distinct external pages with at least one edge into the subgraph.
    pub in_sources: Vec<NodeId>,
}

/// An induced subgraph in local ids, plus its boundary.
#[derive(Clone, Debug)]
pub struct Subgraph {
    nodes: NodeSet,
    local: DiGraph,
    /// Global out-degrees of local pages, in local order.
    global_out_degrees: Vec<usize>,
    boundary: BoundaryEdges,
}

impl Subgraph {
    /// Extracts the induced subgraph of `nodes` from `global`, computing
    /// local edges, per-page global out-degrees, and the full boundary.
    ///
    /// Generic over [`GraphView`] so an overlay graph extracts through
    /// the exact same scan order as a materialized CSR — the bit-identity
    /// guarantees between backends depend on that.
    ///
    /// ```
    /// use approxrank_graph::{DiGraph, NodeSet, Subgraph};
    ///
    /// let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 1)]);
    /// let sub = Subgraph::extract(&g, NodeSet::from_sorted(4, [0, 1]));
    /// assert_eq!(sub.len(), 2);
    /// assert_eq!(sub.local_graph().num_edges(), 1);      // 0 -> 1
    /// assert_eq!(sub.boundary().out_external, vec![0, 1]); // 1 -> 2 leaves
    /// assert_eq!(sub.boundary().in_edges.len(), 2);      // 2 -> 0, 3 -> 1
    /// ```
    pub fn extract<G: GraphView + ?Sized>(global: &G, nodes: NodeSet) -> Self {
        let n = nodes.len();
        let mut local_edges = Vec::new();
        let mut out_external = vec![0usize; n];
        let mut global_out_degrees = vec![0usize; n];
        for (li, &g) in nodes.members().iter().enumerate() {
            global_out_degrees[li] = global.out_degree(g);
            global.for_each_out(g, &mut |t| match nodes.local_id(t) {
                Some(lt) => local_edges.push((li as NodeId, lt)),
                None => out_external[li] += 1,
            });
        }
        // Boundary in-edges: scan the reverse adjacency of each member.
        let mut in_edges = Vec::new();
        for (li, &g) in nodes.members().iter().enumerate() {
            global.for_each_in(g, &mut |s| {
                if !nodes.contains(s) {
                    in_edges.push(BoundaryInEdge {
                        source: s,
                        source_out_degree: global.out_degree(s),
                        target_local: li as u32,
                    });
                }
            });
        }
        let mut in_sources: Vec<NodeId> = in_edges.iter().map(|e| e.source).collect();
        in_sources.sort_unstable();
        in_sources.dedup();
        let local = DiGraph::from_edges(n, &local_edges);
        Subgraph {
            nodes,
            local,
            global_out_degrees,
            boundary: BoundaryEdges {
                out_external,
                in_edges,
                in_sources,
            },
        }
    }

    /// Assembles a subgraph from already-materialized parts. The partition
    /// layer uses this to rebuild extractions from per-shard data (and the
    /// sharded on-disk layout) without ever touching the global graph; the
    /// caller is responsible for the parts agreeing with what
    /// [`Subgraph::extract`] would have produced.
    ///
    /// # Panics
    /// Panics if the part shapes disagree (local graph, degree array, and
    /// boundary out-counts must all cover exactly `nodes.len()` pages).
    pub fn from_parts(
        nodes: NodeSet,
        local: DiGraph,
        global_out_degrees: Vec<usize>,
        boundary: BoundaryEdges,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(local.num_nodes(), n, "local graph covers the node set");
        assert_eq!(global_out_degrees.len(), n, "one degree per local page");
        assert_eq!(boundary.out_external.len(), n, "one out-count per page");
        debug_assert!(boundary
            .in_edges
            .iter()
            .all(|e| (e.target_local as usize) < n));
        Subgraph {
            nodes,
            local,
            global_out_degrees,
            boundary,
        }
    }

    /// The node set (id maps).
    #[inline]
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// The induced local graph over local ids.
    #[inline]
    pub fn local_graph(&self) -> &DiGraph {
        &self.local
    }

    /// Global out-degree of the local page with local id `li`.
    #[inline]
    pub fn global_out_degree(&self, li: u32) -> usize {
        self.global_out_degrees[li as usize]
    }

    /// All global out-degrees in local order.
    #[inline]
    pub fn global_out_degrees(&self) -> &[usize] {
        &self.global_out_degrees
    }

    /// The boundary structure.
    #[inline]
    pub fn boundary(&self) -> &BoundaryEdges {
        &self.boundary
    }

    /// `n`, the number of local pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the subgraph has no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `N`, the number of pages in the global graph.
    #[inline]
    pub fn global_nodes(&self) -> usize {
        self.nodes.global_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper (Fig. 4): local pages A,B,C,D =
    /// 0,1,2,3 and external pages X,Y,Z = 4,5,6.
    /// Edges: A->B, A->C, A->X, A->Z, B->D, C->B, C->D, D->A,
    ///        X->C, X->Y, X->Z, Y->C, Y->Z, Z->C, Z->D
    /// (reconstructed from the paper's worked probabilities in Fig. 6).
    pub(crate) fn figure4() -> (DiGraph, NodeSet) {
        let g = DiGraph::from_edges(
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
        );
        let s = NodeSet::from_sorted(7, [0, 1, 2, 3]);
        (g, s)
    }

    #[test]
    fn nodeset_maps() {
        let s = NodeSet::from_iter_order(10, [7, 2, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.local_id(7), Some(0));
        assert_eq!(s.local_id(2), Some(1));
        assert_eq!(s.local_id(5), Some(2));
        assert_eq!(s.local_id(3), None);
        assert_eq!(s.global_id(1), 2);
        assert!(s.contains(5));
        assert!(!s.contains(0));
        assert_eq!(s.num_external(), 7);
    }

    #[test]
    fn nodeset_dedup_and_sorted_order() {
        let s = NodeSet::from_sorted(10, [5, 1, 5, 3]);
        assert_eq!(s.members(), &[1, 3, 5]);
    }

    #[test]
    fn restrict_scores() {
        let s = NodeSet::from_iter_order(4, [3, 0]);
        assert_eq!(s.restrict(&[0.1, 0.2, 0.3, 0.4]), vec![0.4, 0.1]);
    }

    #[test]
    fn extract_figure4() {
        let (g, s) = figure4();
        let sub = Subgraph::extract(&g, s);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.global_nodes(), 7);
        // Local edges: A->B, A->C, B->D, C->B, C->D, D->A (6 edges)
        assert_eq!(sub.local_graph().num_edges(), 6);
        // A (local 0) has 2 external out-links (X, Z).
        assert_eq!(sub.boundary().out_external, vec![2, 0, 0, 0]);
        // Boundary in-edges: X->C, Y->C, Z->C, Z->D = 4 edges.
        assert_eq!(sub.boundary().in_edges.len(), 4);
        assert_eq!(sub.boundary().in_sources, vec![4, 5, 6]);
        // Global out-degrees preserved: A has 4 (B,C,X,Z).
        assert_eq!(sub.global_out_degree(0), 4);
        assert_eq!(sub.global_out_degree(1), 1);
    }

    #[test]
    fn extract_whole_graph_has_empty_boundary() {
        let (g, _) = figure4();
        let all = NodeSet::from_sorted(7, 0..7);
        let sub = Subgraph::extract(&g, all);
        assert_eq!(sub.local_graph().num_edges(), g.num_edges());
        assert!(sub.boundary().in_edges.is_empty());
        assert!(sub.boundary().out_external.iter().all(|&c| c == 0));
    }

    #[test]
    fn boundary_in_edge_outdegrees() {
        let (g, s) = figure4();
        let sub = Subgraph::extract(&g, s);
        for e in &sub.boundary().in_edges {
            assert_eq!(e.source_out_degree, g.out_degree(e.source));
            assert!(e.source_out_degree >= 1);
        }
    }
}
