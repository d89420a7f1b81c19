//! Global precomputation for multi-subgraph workloads.
//!
//! The paper (§IV-B, last paragraph) points out that ApproxRank "is
//! suitable to adopt precomputation for various subgraphs": with the same
//! global graph, `A_approx` can be assembled from the difference between
//! local and global aggregates. [`GlobalAggregates`] captures the global
//! side of that difference — the page count and the dangling count — so
//! that building `A_approx` for any subgraph afterwards touches only the
//! subgraph and its boundary.
//!
//! The criterion bench `construction` measures that difference: a fresh
//! global scan per subgraph against one [`GlobalAggregates`] reused.

use approxrank_graph::DiGraph;

/// Per-page out-degrees plus the dangling count of one global graph.
///
/// Nothing in the workspace uses it: the Λ-collapse needs only
/// [`GlobalAggregates`]. It stays because the benchmark harness under
/// `perfbench/` times [`Self::compute`]; ROADMAP.md removes it together
/// with that timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalPrecomputation {
    out_degrees: Vec<u32>,
    num_dangling: usize,
}

impl GlobalPrecomputation {
    /// One `O(N)` pass over the degree array.
    pub fn compute(global: &DiGraph) -> Self {
        let mut out_degrees = Vec::with_capacity(global.num_nodes());
        let mut num_dangling = 0;
        for u in global.nodes() {
            let d = global.out_degree(u) as u32;
            num_dangling += usize::from(d == 0);
            out_degrees.push(d);
        }
        GlobalPrecomputation {
            out_degrees,
            num_dangling,
        }
    }

    /// `N`, the global node count this precomputation belongs to.
    pub fn num_nodes(&self) -> usize {
        self.out_degrees.len()
    }

    /// Number of dangling pages in the whole graph.
    pub fn num_dangling(&self) -> usize {
        self.num_dangling
    }

    /// Global out-degree of a page.
    pub fn out_degree(&self, node: u32) -> u32 {
        self.out_degrees[node as usize]
    }
}

/// The two global scalars the Λ-collapse actually consumes: everything
/// else `A_approx` needs comes from the [`approxrank_graph::Subgraph`]
/// itself (local edges, boundary in-edges with source out-degrees, and
/// external out-link counts). A shard can therefore carry these two
/// numbers instead of the whole graph — the foundation of bit-identical
/// sharded serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalAggregates {
    /// `N`, the global node count.
    pub num_nodes: usize,
    /// Number of dangling pages in the whole global graph.
    pub num_dangling: usize,
}

impl GlobalAggregates {
    /// One `O(N)` pass over the degree array.
    pub fn compute(global: &DiGraph) -> Self {
        GlobalAggregates {
            num_nodes: global.num_nodes(),
            num_dangling: global.nodes().filter(|&u| global.is_dangling(u)).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_match_precomputation() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3)]);
        let pre = GlobalPrecomputation::compute(&g);
        let agg = GlobalAggregates::compute(&g);
        assert_eq!(agg.num_nodes, pre.num_nodes());
        assert_eq!(agg.num_dangling, pre.num_dangling());
        assert_eq!(agg.num_nodes, 5);
        assert_eq!(agg.num_dangling, 3);
    }

    #[test]
    fn counts_match_graph() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3)]);
        let pre = GlobalPrecomputation::compute(&g);
        assert_eq!(pre.num_nodes(), 5);
        assert_eq!(pre.num_dangling(), 3); // 2, 3, 4
        assert_eq!(pre.out_degree(0), 2);
        assert_eq!(pre.out_degree(4), 0);
    }
}
