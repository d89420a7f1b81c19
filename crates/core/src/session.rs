//! Incremental re-ranking sessions for evolving subgraphs.
//!
//! The paper's motivating applications keep *changing* their subgraph: a
//! focused crawler adds pages batch by batch (Figure 1), an index ingests
//! and expires documents. Rebuilding `A_approx` is cheap (`O(n +
//! boundary)` with the §IV-B precomputation), but a cold power iteration
//! is not. A [`SubgraphSession`] owns the global aggregates and the previous
//! solution, maps it onto each revised member set as the starting vector,
//! and re-solves warm — the same trick SC's 25-round loop depends on,
//! offered as a first-class API.

use approxrank_graph::{DiGraph, NodeId, NodeSet, Subgraph, SubgraphSource};
use approxrank_pagerank::PageRankOptions;

use crate::approx::ApproxRank;
use crate::precompute::GlobalAggregates;
use crate::ranker::RankScores;

/// A long-lived ApproxRank session over one global graph.
///
/// The session never needs the global graph itself between solves: the
/// Λ-collapse consumes only the extracted subgraph plus two global
/// scalars ([`GlobalAggregates`]). Membership edits re-extract either
/// from the global graph directly ([`Self::add_pages`]) or through any
/// [`SubgraphSource`] ([`Self::add_pages_via`]) — e.g. a
/// [`approxrank_graph::Shard`], which yields bit-identical solves for
/// shard-resident subgraphs.
pub struct SubgraphSession {
    options: PageRankOptions,
    aggregates: GlobalAggregates,
    members: Vec<NodeId>,
    subgraph: Subgraph,
    /// Last solution in extended-state order (`n` locals + Λ), kept in
    /// global-id terms for remapping across membership changes.
    last_scores: Option<(Vec<(NodeId, f64)>, f64)>,
    last_iterations: usize,
}

impl SubgraphSession {
    /// Opens a session for an initial member set.
    ///
    /// # Panics
    /// Panics if `initial` is empty.
    pub fn new(global: &DiGraph, initial: NodeSet, options: PageRankOptions) -> Self {
        assert!(!initial.is_empty(), "session needs a non-empty subgraph");
        let members = initial.members().to_vec();
        let subgraph = Subgraph::extract(global, initial);
        SubgraphSession {
            options,
            aggregates: GlobalAggregates::compute(global),
            members,
            subgraph,
            last_scores: None,
            last_iterations: 0,
        }
    }

    /// Opens a session whose extractions go through a [`SubgraphSource`]
    /// instead of the global graph — the sharded serving path. With a
    /// [`approxrank_graph::GlobalView`] source this is equivalent to
    /// [`Self::new`]; with a [`approxrank_graph::Shard`] every member must
    /// be owned by that shard.
    ///
    /// # Panics
    /// Panics if `initial` is empty, if its universe size differs from the
    /// source's global node count, or if the source does not own a member.
    pub fn with_source(
        source: &dyn SubgraphSource,
        initial: NodeSet,
        options: PageRankOptions,
    ) -> Self {
        assert!(!initial.is_empty(), "session needs a non-empty subgraph");
        assert_eq!(
            initial.global_nodes(),
            source.global_nodes(),
            "member set belongs to a different graph"
        );
        let members = initial.members().to_vec();
        let subgraph = source.extract_nodes(initial);
        SubgraphSession {
            options,
            aggregates: GlobalAggregates {
                num_nodes: source.global_nodes(),
                num_dangling: source.num_dangling(),
            },
            members,
            subgraph,
            last_scores: None,
            last_iterations: 0,
        }
    }

    /// Current members in local-id order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The current extracted subgraph.
    pub fn subgraph(&self) -> &Subgraph {
        &self.subgraph
    }

    /// Iterations the most recent solve took (0 before the first solve).
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// The options this session was opened with.
    pub fn options(&self) -> &PageRankOptions {
        &self.options
    }

    /// The last converged solution in global-id terms — per-member
    /// `(global id, score)` pairs plus Λ's score — or `None` before the
    /// first solve. This is the stable serialization surface a durability
    /// layer persists and later feeds back through [`Self::restore`].
    pub fn last_solution(&self) -> Option<(&[(NodeId, f64)], f64)> {
        self.last_scores
            .as_ref()
            .map(|(scores, lambda)| (scores.as_slice(), *lambda))
    }

    /// Reinstates a previously persisted solution so the next
    /// [`Self::solve`] warm-starts from it exactly as if this process had
    /// computed it. Scores are taken verbatim; pairs whose page is no
    /// longer a member are simply ignored at solve time by the warm-start
    /// remapping, so a solution saved before a membership edit is still a
    /// valid (if weaker) starting point.
    pub fn restore(&mut self, scores: Vec<(NodeId, f64)>, lambda: f64, iterations: usize) {
        self.last_scores = Some((scores, lambda));
        self.last_iterations = iterations;
    }

    /// Adds pages (ignoring duplicates) and re-extracts the subgraph.
    ///
    /// # Panics
    /// Panics if a page id is out of range for the global graph.
    pub fn add_pages(&mut self, global: &DiGraph, pages: &[NodeId]) {
        for &p in pages {
            assert!((p as usize) < global.num_nodes(), "page {p} out of range");
        }
        let current = NodeSet::from_iter_order(
            global.num_nodes(),
            self.members.iter().copied().chain(pages.iter().copied()),
        );
        self.members = current.members().to_vec();
        self.subgraph = Subgraph::extract(global, current);
    }

    /// Removes pages (ignoring non-members) and re-extracts the subgraph.
    ///
    /// # Panics
    /// Panics if the removal would empty the subgraph.
    pub fn remove_pages(&mut self, global: &DiGraph, pages: &[NodeId]) {
        let drop: std::collections::HashSet<NodeId> = pages.iter().copied().collect();
        let remaining: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|p| !drop.contains(p))
            .collect();
        assert!(!remaining.is_empty(), "cannot empty the subgraph");
        let current = NodeSet::from_iter_order(global.num_nodes(), remaining);
        self.members = current.members().to_vec();
        self.subgraph = Subgraph::extract(global, current);
    }

    /// [`Self::add_pages`] through a [`SubgraphSource`].
    ///
    /// # Panics
    /// Panics if a page id is out of range, or (inside the source) if the
    /// source does not own a page.
    pub fn add_pages_via(&mut self, source: &dyn SubgraphSource, pages: &[NodeId]) {
        let big_n = source.global_nodes();
        for &p in pages {
            assert!((p as usize) < big_n, "page {p} out of range");
        }
        let current = NodeSet::from_iter_order(
            big_n,
            self.members.iter().copied().chain(pages.iter().copied()),
        );
        self.members = current.members().to_vec();
        self.subgraph = source.extract_nodes(current);
    }

    /// [`Self::remove_pages`] through a [`SubgraphSource`].
    ///
    /// # Panics
    /// Panics if the removal would empty the subgraph.
    pub fn remove_pages_via(&mut self, source: &dyn SubgraphSource, pages: &[NodeId]) {
        let drop: std::collections::HashSet<NodeId> = pages.iter().copied().collect();
        let remaining: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|p| !drop.contains(p))
            .collect();
        assert!(!remaining.is_empty(), "cannot empty the subgraph");
        let current = NodeSet::from_iter_order(source.global_nodes(), remaining);
        self.members = current.members().to_vec();
        self.subgraph = source.extract_nodes(current);
    }

    /// Re-extracts the current membership and refreshes the global
    /// aggregates after the underlying graph mutated — the warm-restart
    /// path for live mutation. The previous solution is kept, so the
    /// next [`Self::solve`] warm-starts from it; since the membership is
    /// unchanged, every page keeps its score as the starting point.
    pub fn refresh_via(&mut self, source: &dyn SubgraphSource) {
        let current = NodeSet::from_iter_order(source.global_nodes(), self.members.iter().copied());
        self.subgraph = source.extract_nodes(current);
        self.aggregates = GlobalAggregates {
            num_nodes: source.global_nodes(),
            num_dangling: source.num_dangling(),
        };
    }

    /// Solves ApproxRank for the current membership, warm-starting from
    /// the previous solution when one exists: retained pages keep their
    /// scores, new pages enter at the teleport floor, Λ absorbs the rest.
    pub fn solve(&mut self) -> RankScores {
        let approx = ApproxRank::new(self.options.clone());
        let ext = approx.extended_graph_aggregated(self.aggregates, &self.subgraph);
        let n = self.subgraph.len();
        let result = match &self.last_scores {
            None => ext.solve(&self.options),
            Some((prev, prev_lambda)) => {
                let floor = (1.0 - self.options.damping) / ext.num_global() as f64;
                let mut start = vec![floor; n + 1];
                for &(g, s) in prev {
                    if let Some(li) = self.subgraph.nodes().local_id(g) {
                        start[li as usize] = s;
                    }
                }
                start[n] = *prev_lambda;
                // Project back onto the simplex.
                let mass: f64 = start.iter().sum();
                if mass > 0.0 {
                    for v in start.iter_mut() {
                        *v /= mass;
                    }
                }
                ext.solve_from(&self.options, &start)
            }
        };
        self.last_iterations = result.iterations;
        let lambda = result.scores[n];
        let locals: Vec<(NodeId, f64)> = self
            .subgraph
            .nodes()
            .members()
            .iter()
            .zip(&result.scores[..n])
            .map(|(&g, &s)| (g, s))
            .collect();
        self.last_scores = Some((locals, lambda));
        RankScores {
            local_scores: result.scores[..n].to_vec(),
            lambda_score: Some(lambda),
            iterations: result.iterations,
            converged: result.converged,
            estimate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring-of-rings graph big enough that warm starts visibly pay off.
    fn global() -> DiGraph {
        let n = 600u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, (i * 13 + 7) % n));
            if i % 9 == 0 {
                edges.push((i, (i + n / 2) % n));
            }
        }
        DiGraph::from_edges(n as usize, &edges)
    }

    fn opts() -> PageRankOptions {
        PageRankOptions::paper().with_tolerance(1e-10)
    }

    #[test]
    fn session_matches_fresh_approxrank() {
        let g = global();
        let initial = NodeSet::from_sorted(g.num_nodes(), 100..250u32);
        let mut session = SubgraphSession::new(&g, initial, opts());
        session.add_pages(&g, &[250, 251, 252]);
        let scores = session.solve();

        let fresh_set = NodeSet::from_sorted(g.num_nodes(), (100..253u32).collect::<Vec<_>>());
        let fresh_sub = Subgraph::extract(&g, fresh_set);
        let fresh = ApproxRank::new(opts()).rank_subgraph(&g, &fresh_sub);
        for (a, b) in scores.local_scores.iter().zip(&fresh.local_scores) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_start_saves_iterations_on_small_changes() {
        let g = global();
        let initial = NodeSet::from_sorted(g.num_nodes(), 0..300u32);
        let mut session = SubgraphSession::new(&g, initial, opts());
        let first = session.solve();
        assert!(first.converged);
        let cold_iterations = first.iterations;

        // Small membership change: a handful of pages in, one out.
        session.add_pages(&g, &[300, 301, 302, 303]);
        session.remove_pages(&g, &[0]);
        let second = session.solve();
        assert!(second.converged);
        assert!(
            second.iterations < cold_iterations,
            "warm {} vs cold {}",
            second.iterations,
            cold_iterations
        );
    }

    #[test]
    fn membership_bookkeeping() {
        let g = global();
        let mut session =
            SubgraphSession::new(&g, NodeSet::from_sorted(g.num_nodes(), [5, 6, 7]), opts());
        assert_eq!(session.members(), &[5, 6, 7]);
        session.add_pages(&g, &[7, 8]); // 7 is a duplicate
        assert_eq!(session.members(), &[5, 6, 7, 8]);
        session.remove_pages(&g, &[6, 999]); // 999 is not a member
        assert_eq!(session.members(), &[5, 7, 8]);
        assert_eq!(session.subgraph().len(), 3);
    }

    #[test]
    fn source_backed_session_matches_global_bitwise() {
        use approxrank_graph::{GlobalView, PartitionStrategy, PartitionedGraph};
        use std::sync::Arc;

        let g = global();
        let n = g.num_nodes();

        // GlobalView source ≡ direct construction.
        let view = GlobalView::new(Arc::new(g.clone()));
        let mut direct = SubgraphSession::new(&g, NodeSet::from_sorted(n, 40..90u32), opts());
        let mut via =
            SubgraphSession::with_source(&view, NodeSet::from_sorted(n, 40..90u32), opts());
        direct.add_pages(&g, &[90, 91]);
        via.add_pages_via(&view, &[90, 91]);
        direct.remove_pages(&g, &[41]);
        via.remove_pages_via(&view, &[41]);
        assert_eq!(direct.members(), via.members());
        assert_eq!(direct.solve(), via.solve());

        // Shard source: a member set resident on shard 0 of a 2-way range
        // partitioning solves bit-identically to the unsharded session.
        let pg = PartitionedGraph::build(&g, 2, PartitionStrategy::Range);
        let shard = pg.shard(0);
        let members = NodeSet::from_sorted(n, 40..90u32);
        let mut global_side = SubgraphSession::new(&g, members.clone(), opts());
        let mut shard_side = SubgraphSession::with_source(shard, members, opts());
        assert_eq!(global_side.solve(), shard_side.solve());
        global_side.add_pages(&g, &[90, 91]);
        shard_side.add_pages_via(shard, &[90, 91]);
        assert_eq!(global_side.solve(), shard_side.solve());
    }

    #[test]
    fn refresh_tracks_graph_mutation() {
        use approxrank_graph::GlobalView;
        use std::sync::Arc;

        let g = global();
        let n = g.num_nodes();
        let before = GlobalView::new(Arc::new(g.clone()));
        let mut session =
            SubgraphSession::with_source(&before, NodeSet::from_sorted(n, 100..160u32), opts());
        session.solve();

        // The graph changes under the session: one edge into, one out of
        // the member range.
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.push((120, 140));
        edges.retain(|&e| e != (100, 101));
        let mutated = DiGraph::from_edges(n, &edges);
        let after = GlobalView::new(Arc::new(mutated.clone()));
        session.refresh_via(&after);
        let repaired = session.solve();

        let fresh_sub = Subgraph::extract(&mutated, NodeSet::from_sorted(n, 100..160u32));
        let fresh = ApproxRank::new(opts()).rank_subgraph(&mutated, &fresh_sub);
        for (a, b) in repaired.local_scores.iter().zip(&fresh.local_scores) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot empty")]
    fn refuses_to_empty() {
        let g = global();
        let mut session =
            SubgraphSession::new(&g, NodeSet::from_sorted(g.num_nodes(), [5]), opts());
        session.remove_pages(&g, &[5]);
    }
}
