//! IdealRank (paper §III): the exact solution when external PageRank
//! scores are known.
//!
//! The `Λ` row of the collapsed matrix weights each external page `j` by
//! `R[j] / EXTSum` (Equation 4), so `Λ` redistributes authority exactly as
//! the external region of the true global walk does. Theorem 1: the fixed
//! point's local entries equal the true global PageRank scores and the
//! `Λ` entry equals the total external mass — `tests` and the repro
//! harness verify this to solver tolerance.

use std::sync::Arc;

use approxrank_exec::{Executor, Partition};
use approxrank_graph::{DiGraph, Subgraph};
use approxrank_pagerank::{emit_exec_stats, PageRankOptions};
use approxrank_trace::Observer;

use crate::extended::ExtendedLocalGraph;
use crate::par::boundary_partition;
use crate::ranker::{RankScores, SubgraphRanker};

/// The IdealRank algorithm. Holds the known global score vector
/// (length `N`; only the external entries are consulted) behind an
/// `Arc`, so a server ranking many subgraphs against one global solve
/// shares the vector instead of copying it per request.
#[derive(Clone, Debug)]
pub struct IdealRank {
    /// Solver settings (damping, tolerance, iteration cap).
    pub options: PageRankOptions,
    /// Known global PageRank scores, indexed by global node id.
    pub global_scores: Arc<Vec<f64>>,
}

impl IdealRank {
    /// Creates an IdealRank solver with the paper's default options.
    pub fn new(global_scores: Vec<f64>) -> Self {
        IdealRank {
            options: PageRankOptions::paper(),
            global_scores: Arc::new(global_scores),
        }
    }

    /// Builds the collapsed transition structure `A_ideal` for `subgraph`.
    ///
    /// Requires the global graph only to locate dangling external pages;
    /// every per-edge quantity comes from the subgraph's boundary.
    ///
    /// # Panics
    /// Panics if the score vector's length differs from the global node
    /// count or the subgraph has no external pages with positive mass.
    pub fn extended_graph(&self, global: &DiGraph, subgraph: &Subgraph) -> ExtendedLocalGraph {
        self.extended_graph_on(global, subgraph, &self.executor(subgraph))
    }

    /// An executor sized from `self.options.threads`, clamped so tiny
    /// subgraphs never pay for idle workers.
    fn executor(&self, subgraph: &Subgraph) -> Executor {
        Executor::new(self.options.threads.min(subgraph.len().max(1)))
    }

    /// [`Self::extended_graph`] on a caller-supplied executor: the
    /// dangling-mass census, the score-weighted Λ-row accumulation, and
    /// the CSR assembly fan out over the pool; the chunk grid depends
    /// only on the data, so the structure is bit-identical at any thread
    /// count.
    pub fn extended_graph_on(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        exec: &Executor,
    ) -> ExtendedLocalGraph {
        let n = subgraph.len();
        let big_n = subgraph.global_nodes();
        assert_eq!(
            self.global_scores.len(),
            big_n,
            "global score vector must cover all N pages"
        );
        let r = &self.global_scores;

        // EXTSum = Σ_ext R[j]; dangling external mass for the 1/N rows.
        let local_mass: f64 = subgraph
            .nodes()
            .members()
            .iter()
            .map(|&g| r[g as usize])
            .sum();
        let global_part = Partition::uniform(big_n, Partition::auto_chunks(big_n));
        let total_mass = exec
            .map_reduce(
                &global_part,
                |_, range| r[range].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        let ext_sum = total_mass - local_mass;
        assert!(
            big_n == n || ext_sum > 0.0,
            "external pages must hold positive mass"
        );
        let dang_ext_mass = exec
            .map_reduce(
                &global_part,
                |_, range| {
                    let mut acc = 0.0;
                    for u in range {
                        let u = u as u32;
                        if global.is_dangling(u) && !subgraph.nodes().contains(u) {
                            acc += r[u as usize];
                        }
                    }
                    acc
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);

        // Λ → k: score-weighted boundary in-flow plus the dangling share.
        // `boundary_flow` is Σ_{ext j non-dangling} R[j]·(local targets of
        // j)/D_j, needed for the Λ self-loop via complement.
        let edges = &subgraph.boundary().in_edges;
        let (edge_part, target_part) = boundary_partition(edges, n);
        let mut from_lambda = vec![0.0f64; n];
        let boundary_flow = exec
            .map_chunks(
                &mut from_lambda,
                &target_part,
                |c, trange, slot| {
                    let mut flow = 0.0;
                    for e in &edges[edge_part.range(c)] {
                        let w = r[e.source as usize] / e.source_out_degree as f64;
                        slot[e.target_local as usize - trange.start] += w;
                        flow += w;
                    }
                    flow
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        if big_n > n {
            let inv_big_n = 1.0 / big_n as f64;
            let per_local_dangling = dang_ext_mass * inv_big_n;
            let node_part = Partition::uniform(n, Partition::auto_chunks(n));
            exec.for_each_chunk(&mut from_lambda, &node_part, |_, _, slot| {
                for f in slot {
                    *f = (*f + per_local_dangling) / ext_sum;
                }
            });
            // Non-dangling external mass flows either to local pages
            // (boundary_flow) or among external pages; dangling external
            // mass sends (N−n)/N of itself to Λ.
            let nondangling_ext_mass = ext_sum - dang_ext_mass;
            let lambda_self = ((nondangling_ext_mass - boundary_flow)
                + dang_ext_mass * (big_n - n) as f64 * inv_big_n)
                / ext_sum;
            ExtendedLocalGraph::new_on(subgraph, from_lambda, lambda_self, exec)
        } else {
            ExtendedLocalGraph::new_on(subgraph, vec![0.0; n], 0.0, exec)
        }
    }

    /// Runs IdealRank with a non-uniform *global* personalization vector
    /// (topic-sensitive PageRank). Theorem 1 carries over: the proof's
    /// `Q₂ᵀ(εAᵀR + (1−ε)P)` step never uses uniformity of `P`, so the
    /// local scores equal the personalized global PageRank exactly —
    /// provided `self.global_scores` holds that same personalized
    /// solution.
    pub fn rank_subgraph_personalized(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        global_personalization: &[f64],
    ) -> RankScores {
        let ext = self.extended_graph(global, subgraph);
        let p = ext.collapse_personalization(subgraph.nodes(), global_personalization);
        let result = ext.solve_personalized(&self.options, &p);
        let n = subgraph.len();
        let mut scores = result.scores;
        let lambda = scores.pop().expect("n+1 states");
        debug_assert_eq!(scores.len(), n);
        RankScores {
            local_scores: scores,
            lambda_score: Some(lambda),
            iterations: result.iterations,
            converged: result.converged,
            estimate: None,
        }
    }

    /// Runs IdealRank, returning local scores plus `Λ`'s score.
    pub fn rank_subgraph(&self, global: &DiGraph, subgraph: &Subgraph) -> RankScores {
        self.rank_subgraph_observed(global, subgraph, approxrank_trace::null())
    }

    /// [`Self::rank_subgraph`] with telemetry: a `collapse_lambda` span
    /// around the `A_ideal` assembly, solver events from the power
    /// iteration, and a `normalize` span around the score split.
    pub fn rank_subgraph_observed(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        let exec = self.executor(subgraph);
        let ext = {
            let _span = obs.span("collapse_lambda");
            self.extended_graph_on(global, subgraph, &exec)
        };
        let result = ext.solve_observed(&self.options, obs);
        emit_exec_stats(&exec, obs);
        let _span = obs.span("normalize");
        let n = subgraph.len();
        let mut scores = result.scores;
        let lambda = scores.pop().expect("n+1 states");
        debug_assert_eq!(scores.len(), n);
        RankScores {
            local_scores: scores,
            lambda_score: Some(lambda),
            iterations: result.iterations,
            converged: result.converged,
            estimate: None,
        }
    }
}

impl SubgraphRanker for IdealRank {
    fn name(&self) -> &'static str {
        "IdealRank"
    }

    fn rank(&self, global: &DiGraph, subgraph: &Subgraph) -> RankScores {
        self.rank_subgraph(global, subgraph)
    }

    fn rank_observed(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        obs: &dyn Observer,
    ) -> RankScores {
        self.rank_subgraph_observed(global, subgraph, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::NodeSet;
    use approxrank_pagerank::pagerank;

    /// Paper Figure 4 (with X→Y, X→Z reconstructed from the worked
    /// probabilities).
    fn figure4() -> DiGraph {
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
        )
    }

    fn tight() -> PageRankOptions {
        PageRankOptions::paper().with_tolerance(1e-13)
    }

    /// Theorem 1 on the Figure-4 graph: IdealRank's local scores equal
    /// the true global PageRank restricted to the subgraph, and Λ's score
    /// equals the external mass.
    #[test]
    fn theorem1_exactness_figure4() {
        let g = figure4();
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let ideal = IdealRank {
            options: tight(),
            global_scores: truth.scores.clone().into(),
        };
        let r = ideal.rank_subgraph(&g, &sub);
        assert!(r.converged);
        for (k, &g_id) in sub.nodes().members().iter().enumerate() {
            let want = truth.scores[g_id as usize];
            assert!(
                (r.local_scores[k] - want).abs() < 1e-9,
                "page {g_id}: {} vs {}",
                r.local_scores[k],
                want
            );
        }
        let ext_mass: f64 = [4usize, 5, 6].iter().map(|&j| truth.scores[j]).sum();
        assert!((r.lambda_score.unwrap() - ext_mass).abs() < 1e-9);
    }

    /// Theorem 1 with dangling pages on both sides of the boundary.
    #[test]
    fn theorem1_with_dangling_pages() {
        // 0,1,2 local (2 dangling); 3,4,5 external (5 dangling).
        let g = DiGraph::from_edges(6, &[(0, 1), (0, 3), (1, 2), (3, 1), (3, 4), (4, 0), (4, 3)]);
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(6, [0, 1, 2]));
        let ideal = IdealRank {
            options: tight(),
            global_scores: truth.scores.clone().into(),
        };
        let e = ideal.extended_graph(&g, &sub);
        assert!(e.max_row_sum_error() < 1e-12, "A_ideal must be stochastic");
        let r = ideal.rank_subgraph(&g, &sub);
        for (k, &g_id) in sub.nodes().members().iter().enumerate() {
            assert!(
                (r.local_scores[k] - truth.scores[g_id as usize]).abs() < 1e-9,
                "page {g_id}"
            );
        }
    }

    /// Theorem 1 on a randomized graph with an arbitrary subgraph.
    #[test]
    fn theorem1_random_graph() {
        // A deterministic pseudo-random graph without pulling in rand:
        // a multiplicative-congruential edge pattern.
        let n = 60u32;
        let mut edges = Vec::new();
        let mut state = 7u64;
        for u in 0..n {
            if u % 11 == 3 {
                continue; // dangling
            }
            let deg = 1 + (u % 4);
            for _ in 0..deg {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) % n as u64) as u32;
                edges.push((u, v));
            }
        }
        let g = DiGraph::from_edges(n as usize, &edges);
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(
            &g,
            NodeSet::from_sorted(n as usize, (10..30).collect::<Vec<_>>()),
        );
        let ideal = IdealRank {
            options: tight(),
            global_scores: truth.scores.clone().into(),
        };
        let r = ideal.rank_subgraph(&g, &sub);
        let restricted = sub.nodes().restrict(&truth.scores);
        let err: f64 = r
            .local_scores
            .iter()
            .zip(&restricted)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 1e-8, "L1 error {err}");
    }

    #[test]
    fn whole_graph_subgraph() {
        let g = figure4();
        let truth = pagerank(&g, &tight());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, 0..7));
        let ideal = IdealRank {
            options: tight(),
            global_scores: truth.scores.clone().into(),
        };
        let r = ideal.rank_subgraph(&g, &sub);
        for k in 0..7 {
            assert!((r.local_scores[k] - truth.scores[k]).abs() < 1e-8);
        }
    }

    /// Theorem 1 under topic-sensitive (non-uniform) personalization.
    #[test]
    fn theorem1_personalized() {
        use approxrank_pagerank::power::pagerank_personalized;
        let g = figure4();
        // Teleport prefers pages 0 and 5 heavily.
        let mut p = vec![0.05; 7];
        p[0] = 0.4;
        p[5] = 0.35;
        let total: f64 = p.iter().sum();
        for v in p.iter_mut() {
            *v /= total;
        }
        let truth = pagerank_personalized(&g, &tight(), &p);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let ideal = IdealRank {
            options: tight(),
            global_scores: truth.scores.clone().into(),
        };
        let r = ideal.rank_subgraph_personalized(&g, &sub, &p);
        assert!(r.converged);
        for (k, &g_id) in sub.nodes().members().iter().enumerate() {
            assert!(
                (r.local_scores[k] - truth.scores[g_id as usize]).abs() < 1e-9,
                "page {g_id}: {} vs {}",
                r.local_scores[k],
                truth.scores[g_id as usize]
            );
        }
    }

    #[test]
    #[should_panic(expected = "cover all N pages")]
    fn wrong_score_length_panics() {
        let g = figure4();
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1]));
        IdealRank::new(vec![0.1; 3]).extended_graph(&g, &sub);
    }
}
