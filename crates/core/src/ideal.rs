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
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_pagerank::{emit_exec_stats, PageRankOptions};
use approxrank_trace::Observer;

use crate::extended::ExtendedLocalGraph;
use crate::par::boundary_partition;
use crate::ranker::{RankScores, SubgraphRanker};

/// Known global PageRank scores plus a per-chunk census of the graph
/// they were taken on, so an IdealRank collapse never rescans all `N`
/// pages.
///
/// The census cuts `0..N` into the data-only grid
/// `Partition::uniform(N, Partition::auto_chunks(N))` and stores, per
/// chunk, `Σ R[u]` and `Σ R[u]` over the chunk's dangling pages, each
/// summed in ascending `u`. A collapse folds the cached values left in
/// chunk order and rescans only the chunks that hold a member, so its
/// totals are bitwise what two full scans folded the same way give.
#[derive(Clone, Debug)]
pub struct GlobalScores {
    scores: Vec<f64>,
    grid: Partition,
    chunk_mass: Vec<f64>,
    chunk_dangling_mass: Vec<f64>,
    num_nodes: usize,
    num_edges: usize,
}

impl GlobalScores {
    /// Takes the census of `scores` on `global`: one O(N) pass.
    ///
    /// # Panics
    /// Panics if `scores` does not hold one entry per page of `global`.
    pub fn new(global: &DiGraph, scores: Vec<f64>) -> Self {
        let big_n = global.num_nodes();
        assert_eq!(
            scores.len(),
            big_n,
            "global score vector must cover all N pages"
        );
        let grid = Partition::uniform(big_n, Partition::auto_chunks(big_n));
        let chunks = 0..grid.len();
        let chunk_mass = chunks
            .clone()
            .map(|c| scores[grid.range(c)].iter().sum::<f64>())
            .collect();
        let chunk_dangling_mass = chunks
            .map(|c| dangling_mass(global, &scores, grid.range(c), None))
            .collect();
        GlobalScores {
            scores,
            grid,
            chunk_mass,
            chunk_dangling_mass,
            num_nodes: big_n,
            num_edges: global.num_edges(),
        }
    }

    /// The scores, indexed by global node id.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// `(Σ R, Σ R over dangling non-members, pages rescanned)` for the
    /// members of `nodes`. Untouched chunks contribute their cached
    /// sums; chunks holding a member are rescanned on `exec`.
    fn masses(&self, global: &DiGraph, nodes: &NodeSet, exec: &Executor) -> (f64, f64, usize) {
        let mut touched = vec![false; self.grid.len()];
        let mut last = 0..0;
        for &g in nodes.members() {
            let g = g as usize;
            if !last.contains(&g) {
                let c = self.grid.bounds().partition_point(|&b| b <= g) - 1;
                touched[c] = true;
                last = self.grid.range(c);
            }
        }
        let total_mass = self.chunk_mass.iter().copied().reduce(|a, b| a + b);
        let dang_ext_mass = exec.map_reduce(
            &self.grid,
            |c, range| match touched[c] {
                true => dangling_mass(global, &self.scores, range, Some(nodes)),
                false => self.chunk_dangling_mass[c],
            },
            |a, b| a + b,
        );
        let rescanned = (0..self.grid.len())
            .filter(|&c| touched[c])
            .map(|c| self.grid.range(c).len())
            .sum();
        (
            total_mass.unwrap_or(0.0),
            dang_ext_mass.unwrap_or(0.0),
            rescanned,
        )
    }
}

/// `Σ R[u]` over the dangling pages of `range` outside `skip`, in
/// ascending `u`.
fn dangling_mass(
    global: &DiGraph,
    r: &[f64],
    range: std::ops::Range<usize>,
    skip: Option<&NodeSet>,
) -> f64 {
    let mut acc = 0.0;
    for u in range {
        let u = u as u32;
        if global.is_dangling(u) && !skip.is_some_and(|s| s.contains(u)) {
            acc += r[u as usize];
        }
    }
    acc
}

/// The IdealRank algorithm. Holds the known global score vector
/// (length `N`; only the external entries are consulted) and its chunk
/// census behind an `Arc`, so a server ranking many subgraphs against
/// one global solve shares both instead of copying them per request.
#[derive(Clone, Debug)]
pub struct IdealRank {
    /// Solver settings (damping, tolerance, iteration cap).
    pub options: PageRankOptions,
    /// Known global PageRank scores, indexed by global node id, with
    /// the census of the graph they rank on.
    pub global_scores: Arc<GlobalScores>,
}

impl IdealRank {
    /// Creates an IdealRank solver with the paper's default options over
    /// `global_scores`, taking their census on `global` — the graph the
    /// solver will rank on.
    pub fn new(global: &DiGraph, global_scores: Vec<f64>) -> Self {
        IdealRank {
            options: PageRankOptions::paper(),
            global_scores: Arc::new(GlobalScores::new(global, global_scores)),
        }
    }

    /// Builds the collapsed transition structure `A_ideal` for `subgraph`.
    ///
    /// `global` must be the graph the scores' census was taken on. Only
    /// the chunks holding a member are read from it, to find their
    /// dangling non-member pages; every other page enters through the
    /// census, and every per-edge quantity comes from the subgraph's
    /// boundary.
    ///
    /// # Panics
    /// Panics if the census was taken on another graph (a different
    /// page or edge count) or the subgraph has no external pages with
    /// positive mass.
    pub fn extended_graph(&self, global: &DiGraph, subgraph: &Subgraph) -> ExtendedLocalGraph {
        self.extended_graph_on(global, subgraph, &self.executor(subgraph))
    }

    /// An executor sized from `self.options.threads`, clamped so tiny
    /// subgraphs never pay for idle workers.
    fn executor(&self, subgraph: &Subgraph) -> Executor {
        Executor::new(self.options.threads.min(subgraph.len().max(1)))
    }

    /// [`Self::extended_graph`] on a caller-supplied executor: the
    /// rescans of member chunks, the score-weighted Λ-row accumulation,
    /// and the CSR assembly fan out over the pool; every chunk grid
    /// depends only on the data, so the structure is bit-identical at
    /// any thread count.
    pub fn extended_graph_on(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        exec: &Executor,
    ) -> ExtendedLocalGraph {
        self.collapse(global, subgraph, exec).0
    }

    /// The collapse plus the number of pages its census rescanned.
    fn collapse(
        &self,
        global: &DiGraph,
        subgraph: &Subgraph,
        exec: &Executor,
    ) -> (ExtendedLocalGraph, usize) {
        let census = &self.global_scores;
        assert!(
            census.num_nodes == subgraph.global_nodes()
                && census.num_nodes == global.num_nodes()
                && census.num_edges == global.num_edges(),
            "global scores must cover all N pages of the graph they rank on: \
             census has N = {}, E = {}; graph has N = {}, E = {}",
            census.num_nodes,
            census.num_edges,
            global.num_nodes(),
            global.num_edges()
        );
        let (total_mass, dang_ext_mass, rescanned) = census.masses(global, subgraph.nodes(), exec);
        let ext = self.assemble(subgraph, total_mass, dang_ext_mass, exec);
        (ext, rescanned)
    }

    /// `A_ideal` from the two global totals: `total_mass = Σ_j R[j]`
    /// and `dang_ext_mass`, the mass of the dangling external pages.
    fn assemble(
        &self,
        subgraph: &Subgraph,
        total_mass: f64,
        dang_ext_mass: f64,
        exec: &Executor,
    ) -> ExtendedLocalGraph {
        let n = subgraph.len();
        let big_n = subgraph.global_nodes();
        let r = self.global_scores.scores();

        // EXTSum = Σ_ext R[j]; dangling external mass for the 1/N rows.
        let local_mass: f64 = subgraph
            .nodes()
            .members()
            .iter()
            .map(|&g| r[g as usize])
            .sum();
        let ext_sum = total_mass - local_mass;
        assert!(
            big_n == n || ext_sum > 0.0,
            "external pages must hold positive mass"
        );

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
    /// around the `A_ideal` assembly (with an `ideal_rescan_pages`
    /// counter: the pages of member chunks the census rescanned), solver
    /// events from the power
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
            let (ext, rescanned) = self.collapse(global, subgraph, &exec);
            obs.counter("ideal_rescan_pages", rescanned as u64);
            ext
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
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
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
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
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
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
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
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
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
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
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
        IdealRank::new(&figure4(), vec![0.1; 3]);
    }

    /// A census taken on one graph is refused on another of the same
    /// size, so stale scores can never mix two graphs' dangling sets.
    #[test]
    #[should_panic(expected = "cover all N pages")]
    fn census_from_another_graph_panics() {
        let g = figure4();
        let other = DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 0)]);
        let sub = Subgraph::extract(&other, NodeSet::from_sorted(7, [0, 1]));
        IdealRank::new(&g, vec![1.0 / 7.0; 7]).extended_graph(&other, &sub);
    }

    /// A pseudo-random graph on `n` pages where about one page in nine
    /// is dangling, plus positive scores of varied magnitude.
    fn random_case(n: usize, seed: u64) -> (DiGraph, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            if next().is_multiple_of(9) {
                continue;
            }
            for _ in 0..1 + next() % 4 {
                edges.push((u, (next() % n as u64) as u32));
            }
        }
        let scores = (0..n)
            .map(|_| (1 + next() % 1_000_000) as f64 * 1e-6 / (1 + next() % 7) as f64)
            .collect();
        (DiGraph::from_edges(n, &edges), scores)
    }

    /// The census's totals, computed the way the collapse did before
    /// the census existed: two full scans of all `N` pages over the same
    /// grid, folded in chunk order.
    fn two_scan_masses(r: &[f64], g: &DiGraph, nodes: &NodeSet, exec: &Executor) -> (f64, f64) {
        let part = Partition::uniform(g.num_nodes(), Partition::auto_chunks(g.num_nodes()));
        let total = exec.map_reduce(&part, |_, range| r[range].iter().sum::<f64>(), |a, b| a + b);
        let dangling = exec.map_reduce(
            &part,
            |_, range| {
                let mut acc = 0.0;
                for u in range {
                    let u = u as u32;
                    if g.is_dangling(u) && !nodes.contains(u) {
                        acc += r[u as usize];
                    }
                }
                acc
            },
            |a, b| a + b,
        );
        (total.unwrap_or(0.0), dangling.unwrap_or(0.0))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// The census collapse and its scores match the two-scan oracle
        /// bit for bit, at widths 1, 2 and 7, for contiguous, scattered,
        /// single-page and all-but-one memberships.
        #[test]
        fn census_matches_two_scan_oracle_bitwise(
            n in 64usize..3000,
            seed in proptest::prelude::any::<u64>(),
            kind in 0usize..4,
            at in 0usize..3000,
        ) {
            let (g, scores) = random_case(n, seed);
            let start = (at % n) as u32;
            let members: Vec<u32> = match kind {
                0 => (start..(start + 40).min(n as u32)).collect(),
                1 => (0..n as u32).filter(|u| (u ^ start).is_multiple_of(13)).collect(),
                2 => vec![start],
                _ => (0..n as u32).filter(|&u| u != start).collect(),
            };
            let sub = Subgraph::extract(&g, NodeSet::from_sorted(n, members));
            for width in [1, 2, 7] {
                let ideal = IdealRank {
                    options: PageRankOptions::paper().with_threads(width),
                    global_scores: GlobalScores::new(&g, scores.clone()).into(),
                };
                let exec = Executor::new(width);
                let (total, dangling) = two_scan_masses(&scores, &g, sub.nodes(), &exec);
                let want = ideal.assemble(&sub, total, dangling, &exec);
                let got = ideal.extended_graph_on(&g, &sub, &exec);
                proptest::prop_assert_eq!(bits(got.from_lambda()), bits(want.from_lambda()));
                proptest::prop_assert_eq!(bits(got.to_lambda()), bits(want.to_lambda()));
                proptest::prop_assert_eq!(got.lambda_self().to_bits(), want.lambda_self().to_bits());
                let ranked = ideal.rank_subgraph(&g, &sub);
                let mut solved = want.solve(&ideal.options).scores;
                let lambda = solved.pop();
                proptest::prop_assert_eq!(bits(&ranked.local_scores), bits(&solved));
                proptest::prop_assert_eq!(
                    ranked.lambda_score.map(f64::to_bits),
                    lambda.map(f64::to_bits)
                );
            }
        }
    }

    /// The collapse's work is bounded by the chunks its members touch,
    /// not by `N`: a host-independent count, read off the
    /// `ideal_rescan_pages` counter.
    #[test]
    fn rescans_only_member_chunks() {
        use approxrank_trace::{Event, Recorder};
        let n = 100_000usize;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .filter(|u| !u.is_multiple_of(7))
            .flat_map(|u| [(u, (u + 1) % n as u32), (u, (u * 31 + 5) % n as u32)])
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        let ideal = IdealRank::new(&g, vec![1.0 / n as f64; n]);
        let rescanned = |members: Vec<u32>| {
            let sub = Subgraph::extract(&g, NodeSet::from_sorted(n, members));
            let rec = Recorder::new();
            ideal.rank_subgraph_observed(&g, &sub, &rec);
            let pages: Vec<u64> = rec
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::Counter { name, value } if name == "ideal_rescan_pages" => Some(value),
                    _ => None,
                })
                .collect();
            assert_eq!(pages.len(), 1, "one counter per collapse");
            pages[0] as usize
        };
        let chunk = n.div_ceil(64);
        // 16 contiguous pages straddle at most one chunk boundary.
        let contiguous = rescanned((chunk as u32 - 8..chunk as u32 + 8).collect());
        assert!(contiguous <= 2 * chunk, "rescanned {contiguous} pages");
        let scattered = rescanned((0..n as u32).step_by(997).collect());
        assert!(scattered <= n, "rescanned {scattered} pages");
        assert!(contiguous < scattered);
    }
}
