//! The extended local graph: the `Λ`-collapsed transition structure
//! shared by IdealRank and ApproxRank, and its power-iteration solver.
//!
//! States `0..n` are the local pages (in the subgraph's local-id order);
//! state `n` is the external node `Λ`. The transition matrix is
//! `A_x = Q₁ A_eff Q₂` (paper §III-B / §IV-B) where `A_eff` is the
//! *effective* global transition matrix — `1/out_degree` along edges,
//! uniform `1/N` rows for dangling pages — so the collapse is exact even
//! in the presence of dangling pages.
//!
//! The matrix is stored in four pieces instead of a dense `(n+1)²` array:
//!
//! * the `n × n` local block, as in-edge lists with weights
//!   `1/D_source` (**global** out-degree — a local page that also links
//!   outside spreads its probability over all its links);
//! * `to_lambda[i]` — the aggregated probability `i → Λ`;
//! * `from_lambda[k]` — the aggregated probability `Λ → k`;
//! * `lambda_self` — the `Λ → Λ` self-loop;
//!
//! plus the list of locally dangling pages, whose uniform `1/N` rows are
//! applied as a rank-1 correction inside the matvec.

use std::time::Instant;

use approxrank_exec::{Executor, Partition};
use approxrank_graph::Subgraph;
use approxrank_pagerank::{PageRankOptions, PageRankResult};
use approxrank_trace::{IterationEvent, Observer, Stopwatch};

/// The `(n+1)`-state collapsed transition structure. Construct via
/// [`crate::IdealRank`] or [`crate::ApproxRank`], or directly through
/// [`ExtendedLocalGraph::new`] with a custom `Λ` row.
#[derive(Clone, Debug)]
pub struct ExtendedLocalGraph {
    n: usize,
    big_n: usize,
    /// CSR of local in-edges: for target k, sources and weights.
    in_offsets: Vec<usize>,
    in_sources: Vec<u32>,
    in_weights: Vec<f64>,
    to_lambda: Vec<f64>,
    from_lambda: Vec<f64>,
    lambda_self: f64,
    dangling_local: Vec<u32>,
}

impl ExtendedLocalGraph {
    /// Assembles the extended graph from a subgraph and a `Λ` row.
    ///
    /// `from_lambda` must have length `n`; together with `lambda_self` it
    /// must sum to 1 (the `Λ` row of a stochastic matrix). The local block
    /// and `to_lambda` are derived from the subgraph itself.
    ///
    /// # Panics
    /// Panics if the `Λ` row has the wrong length or is not a probability
    /// distribution (within 1e-9), unless the subgraph covers the whole
    /// graph (no external pages), in which case the row must be all zero.
    pub fn new(subgraph: &Subgraph, from_lambda: Vec<f64>, lambda_self: f64) -> Self {
        Self::new_on(subgraph, from_lambda, lambda_self, &Executor::sequential())
    }

    /// [`Self::new`] on a caller-supplied executor: the in-edge CSR fill,
    /// the weight computation, and the `to_lambda`/dangling scan all fan
    /// out over the pool. The chunk grid is a function of the subgraph
    /// only, so the assembled structure is bit-identical at any thread
    /// count (and identical to what [`Self::new`] builds).
    pub fn new_on(
        subgraph: &Subgraph,
        from_lambda: Vec<f64>,
        lambda_self: f64,
        exec: &Executor,
    ) -> Self {
        let n = subgraph.len();
        let big_n = subgraph.global_nodes();
        assert_eq!(from_lambda.len(), n, "Λ row length must be n");
        let row_sum: f64 = from_lambda.iter().sum::<f64>() + lambda_self;
        if big_n > n {
            assert!(
                (row_sum - 1.0).abs() < 1e-9,
                "Λ row must be stochastic, sums to {row_sum}"
            );
        } else {
            assert!(row_sum.abs() < 1e-12, "no external pages: Λ row must be 0");
        }

        let local = subgraph.local_graph();
        // Build in-edge CSR with weights 1/global_out_degree(source).
        let mut in_offsets = vec![0usize; n + 1];
        for k in 0..n as u32 {
            in_offsets[k as usize + 1] = in_offsets[k as usize] + local.in_degree(k);
        }
        let num_edges = in_offsets[n];
        // Degree-aware grid over targets, and the same cuts in edge space:
        // chunk c of `node_part` owns exactly chunk c of `edge_part`.
        let node_part = Partition::by_offsets(&in_offsets, Partition::auto_chunks(n));
        let edge_part =
            Partition::from_bounds(node_part.bounds().iter().map(|&b| in_offsets[b]).collect());

        let mut in_sources = vec![0u32; num_edges];
        exec.for_each_chunk(&mut in_sources, &edge_part, |c, _range, out| {
            let mut pos = 0;
            for k in node_part.range(c) {
                for &s in local.in_neighbors(k as u32) {
                    out[pos] = s;
                    pos += 1;
                }
            }
        });
        let mut in_weights = vec![0.0f64; num_edges];
        exec.for_each_chunk(&mut in_weights, &edge_part, |_, range, out| {
            for (w, &s) in out.iter_mut().zip(&in_sources[range]) {
                let d = subgraph.global_out_degree(s);
                debug_assert!(d > 0, "a page with out-edges cannot be dangling");
                *w = 1.0 / d as f64;
            }
        });

        let mut to_lambda = vec![0.0f64; n];
        let uniform_part = Partition::uniform(n, Partition::auto_chunks(n));
        let dangling_local = exec
            .map_chunks(
                &mut to_lambda,
                &uniform_part,
                |_, range, slot| {
                    let mut dang = Vec::new();
                    for (i, t) in range.zip(slot.iter_mut()) {
                        let d = subgraph.global_out_degree(i as u32);
                        if d == 0 {
                            dang.push(i as u32);
                        } else {
                            *t = subgraph.boundary().out_external[i] as f64 / d as f64;
                        }
                    }
                    dang
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
            .unwrap_or_default();

        ExtendedLocalGraph {
            n,
            big_n,
            in_offsets,
            in_sources,
            in_weights,
            to_lambda,
            from_lambda,
            lambda_self,
            dangling_local,
        }
    }

    /// Assembles an extended graph from explicit parts — the entry point
    /// for *weighted* (ObjectRank-style) collapses, where the local block
    /// is not derivable from out-degrees (see [`crate::weighted`]).
    ///
    /// `in_csr` is the local block as in-edge lists: for each local
    /// target `k`, parallel slices of sources and transition weights.
    /// `to_lambda[i]` is the aggregated `i → Λ` probability and
    /// `dangling_local` lists local states whose effective row is the
    /// uniform `1/N` jump.
    ///
    /// # Panics
    /// Panics if any non-dangling local row (local weights + `to_lambda`)
    /// or the `Λ` row fails to sum to 1 within 1e-9.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        big_n: usize,
        in_offsets: Vec<usize>,
        in_sources: Vec<u32>,
        in_weights: Vec<f64>,
        to_lambda: Vec<f64>,
        from_lambda: Vec<f64>,
        lambda_self: f64,
        dangling_local: Vec<u32>,
    ) -> Self {
        let n = to_lambda.len();
        assert_eq!(in_offsets.len(), n + 1, "offsets cover n targets");
        assert_eq!(from_lambda.len(), n, "Λ row length");
        assert_eq!(in_sources.len(), in_weights.len());
        assert_eq!(*in_offsets.last().unwrap(), in_sources.len());
        let g = ExtendedLocalGraph {
            n,
            big_n,
            in_offsets,
            in_sources,
            in_weights,
            to_lambda,
            from_lambda,
            lambda_self,
            dangling_local,
        };
        let err = g.max_row_sum_error();
        assert!(err < 1e-9, "collapsed matrix not stochastic (error {err})");
        g
    }

    /// `n`, the number of local pages.
    pub fn num_local(&self) -> usize {
        self.n
    }

    /// `N`, the number of pages in the global graph.
    pub fn num_global(&self) -> usize {
        self.big_n
    }

    /// The aggregated `i → Λ` probabilities.
    pub fn to_lambda(&self) -> &[f64] {
        &self.to_lambda
    }

    /// The aggregated `Λ → k` probabilities.
    pub fn from_lambda(&self) -> &[f64] {
        &self.from_lambda
    }

    /// The `Λ → Λ` self-loop probability.
    pub fn lambda_self(&self) -> f64 {
        self.lambda_self
    }

    /// The personalization vector of the paper's Equation (5):
    /// `1/N` per local page and `(N−n)/N` for `Λ`.
    pub fn personalization(&self) -> Vec<f64> {
        let mut p = vec![1.0 / self.big_n as f64; self.n + 1];
        p[self.n] = (self.big_n - self.n) as f64 / self.big_n as f64;
        p
    }

    /// One application of `εAᵀx + (1−ε)P_x` into `out`, with the
    /// default personalization of Equation (5).
    ///
    /// `x` and `out` have length `n + 1` (state `n` is `Λ`).
    pub fn step(&self, x: &[f64], out: &mut [f64], damping: f64) {
        let p = self.personalization();
        self.step_with(x, out, damping, &p);
    }

    /// One application of `εAᵀx + (1−ε)p` into `out`, with an explicit
    /// collapsed personalization vector `p` of length `n + 1`
    /// (entry `n` is `Λ`'s share; see [`Self::collapse_personalization`]).
    pub fn step_with(&self, x: &[f64], out: &mut [f64], damping: f64, p: &[f64]) {
        let n = self.n;
        debug_assert_eq!(x.len(), n + 1);
        debug_assert_eq!(out.len(), n + 1);
        debug_assert_eq!(p.len(), n + 1);
        let inv_big_n = 1.0 / self.big_n as f64;
        let ext = (self.big_n - n) as f64;
        let dangling_mass: f64 = self.dangling_local.iter().map(|&i| x[i as usize]).sum();
        let lambda_x = x[n];
        for k in 0..n {
            let mut acc = 0.0;
            for idx in self.in_offsets[k]..self.in_offsets[k + 1] {
                acc += x[self.in_sources[idx] as usize] * self.in_weights[idx];
            }
            acc += dangling_mass * inv_big_n;
            acc += lambda_x * self.from_lambda[k];
            out[k] = damping * acc + (1.0 - damping) * p[k];
        }
        let mut lacc = lambda_x * self.lambda_self;
        for (xi, t) in x[..n].iter().zip(&self.to_lambda) {
            lacc += xi * t;
        }
        lacc += dangling_mass * ext * inv_big_n;
        out[n] = damping * lacc + (1.0 - damping) * p[n];
    }

    /// Collapses a *global* personalization vector (length `N`, indexed
    /// by global id) into the `n + 1` extended states: `P_x = Q₂ᵀP` —
    /// local pages keep their entries, `Λ` takes the external sum. The
    /// Theorem-1 argument goes through for any `P`, so IdealRank is exact
    /// for topic-sensitive PageRank too.
    pub fn collapse_personalization(
        &self,
        nodes: &approxrank_graph::NodeSet,
        global_p: &[f64],
    ) -> Vec<f64> {
        assert_eq!(global_p.len(), self.big_n, "P must cover all N pages");
        assert_eq!(nodes.len(), self.n, "node set must match the subgraph");
        let mut p = Vec::with_capacity(self.n + 1);
        let mut local_sum = 0.0;
        for &g in nodes.members() {
            let v = global_p[g as usize];
            local_sum += v;
            p.push(v);
        }
        let total: f64 = global_p.iter().sum();
        p.push(total - local_sum);
        p
    }

    /// Collapses a *sparse* global personalization — `weight` on each id
    /// in `base` (sorted global ids), zero elsewhere — into the `n + 1`
    /// extended states without materializing a length-`N` vector. Local
    /// members of the base set keep `weight`; `Λ` takes the external
    /// share (`weight` × the number of base ids outside the subgraph).
    /// Numerically this matches [`Self::collapse_personalization`] on
    /// the dense expansion (`weight` at each base id, `0.0` elsewhere);
    /// the `Λ` entry is computed directly as a product rather than by
    /// dense summation, so it is the *sharper* of the two.
    ///
    /// This is the keyword-query entry: ObjectRank teleports uniformly
    /// into a base set `B`, so `weight = 1/|B|`.
    ///
    /// # Panics
    /// Panics if `base` is not strictly sorted or contains ids outside
    /// the global graph.
    pub fn collapse_sparse_personalization(
        &self,
        nodes: &approxrank_graph::NodeSet,
        base: &[u32],
        weight: f64,
    ) -> Vec<f64> {
        assert_eq!(nodes.len(), self.n, "node set must match the subgraph");
        let members = nodes.members();
        let mut p = vec![0.0f64; self.n + 1];
        let mut i = 0usize;
        let mut external = 0usize;
        let mut prev: Option<u32> = None;
        for &b in base {
            assert!(
                prev.is_none_or(|pv| pv < b),
                "base set must be strictly sorted"
            );
            prev = Some(b);
            assert!((b as usize) < self.big_n, "base id {b} out of range");
            while i < members.len() && members[i] < b {
                i += 1;
            }
            if i < members.len() && members[i] == b {
                p[i] = weight;
            } else {
                external += 1;
            }
        }
        p[self.n] = external as f64 * weight;
        p
    }

    /// Verifies column-stochasticity of `A_xᵀ` (row-stochasticity of the
    /// collapsed matrix): every state's outgoing probability sums to 1.
    /// Used by tests and debug assertions; `O(n + local edges)`.
    pub fn max_row_sum_error(&self) -> f64 {
        let n = self.n;
        let mut row_sums = vec![0.0f64; n + 1];
        // Local block contributions (source-indexed).
        for k in 0..n {
            for idx in self.in_offsets[k]..self.in_offsets[k + 1] {
                row_sums[self.in_sources[idx] as usize] += self.in_weights[idx];
            }
        }
        for (r, t) in row_sums[..n].iter_mut().zip(&self.to_lambda) {
            *r += t;
        }
        // Dangling local rows are uniform by construction: exact.
        for &i in &self.dangling_local {
            row_sums[i as usize] = 1.0;
        }
        row_sums[n] = self.from_lambda.iter().sum::<f64>() + self.lambda_self;
        if self.big_n == n {
            // Degenerate: no external pages; Λ is unreachable and empty.
            row_sums[n] = 1.0;
        }
        row_sums.iter().map(|s| (s - 1.0).abs()).fold(0.0, f64::max)
    }

    /// Power iteration to the fixed point of
    /// `R = εA_xᵀR + (1−ε)P_ideal`, starting from `P_ideal`.
    ///
    /// Returns scores of length `n + 1`; entry `n` is `Λ`'s score.
    pub fn solve(&self, options: &PageRankOptions) -> PageRankResult {
        self.solve_observed(options, approxrank_trace::null())
    }

    /// [`Self::solve`] with telemetry: per-iteration events under solver
    /// name `"extended"` flow to `obs`.
    pub fn solve_observed(&self, options: &PageRankOptions, obs: &dyn Observer) -> PageRankResult {
        self.solve_from_with(
            options,
            &self.personalization(),
            &self.personalization(),
            obs,
        )
    }

    /// Power iteration from an explicit start vector of length `n + 1`.
    pub fn solve_from(&self, options: &PageRankOptions, start: &[f64]) -> PageRankResult {
        self.solve_from_with(
            options,
            start,
            &self.personalization(),
            approxrank_trace::null(),
        )
    }

    /// Power iteration with an explicit collapsed personalization vector
    /// (see [`Self::collapse_personalization`]).
    pub fn solve_personalized(
        &self,
        options: &PageRankOptions,
        personalization: &[f64],
    ) -> PageRankResult {
        self.solve_personalized_observed(options, personalization, approxrank_trace::null())
    }

    /// [`Self::solve_personalized`] with telemetry.
    pub fn solve_personalized_observed(
        &self,
        options: &PageRankOptions,
        personalization: &[f64],
        obs: &dyn Observer,
    ) -> PageRankResult {
        self.solve_from_with(options, personalization, personalization, obs)
    }

    fn solve_from_with(
        &self,
        options: &PageRankOptions,
        start: &[f64],
        personalization: &[f64],
        obs: &dyn Observer,
    ) -> PageRankResult {
        assert_eq!(start.len(), self.n + 1, "start vector length");
        assert_eq!(personalization.len(), self.n + 1, "personalization length");
        let t0 = Instant::now();
        let _span = obs.span("extended");
        let mut sweep = Stopwatch::start(obs);
        let mut x = start.to_vec();
        let mut next = vec![0.0f64; self.n + 1];
        let mut iterations = 0;
        let mut converged = false;
        let mut residuals = Vec::new();
        while iterations < options.max_iterations {
            iterations += 1;
            self.step_with(&x, &mut next, options.damping, personalization);
            let delta: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut x, &mut next);
            if obs.enabled() {
                // `step_with` folds the dangling correction into the matvec;
                // recompute the mass it used (from the pre-step vector, which
                // sits in `next` after the swap) only when someone listens.
                let dangling_mass: f64 =
                    self.dangling_local.iter().map(|&i| next[i as usize]).sum();
                obs.iteration(IterationEvent {
                    solver: "extended",
                    iteration: iterations - 1,
                    residual: delta,
                    dangling_mass,
                    elapsed_ns: sweep.lap_ns(),
                });
            }
            if options.record_residuals {
                residuals.push(delta);
            }
            if delta < options.tolerance {
                converged = true;
                break;
            }
        }
        PageRankResult {
            scores: x,
            iterations,
            converged,
            residuals,
            elapsed: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_graph::{DiGraph, NodeSet, Subgraph};

    /// Paper Figure 4. Local A,B,C,D = 0..3; external X,Y,Z = 4..6.
    fn figure4() -> (DiGraph, Subgraph) {
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
        let s = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        (g, s)
    }

    fn uniform_lambda_row(sub: &Subgraph) -> (Vec<f64>, f64) {
        // ApproxRank-style row for this test fixture (no dangling pages):
        // from_lambda[k] = Σ_ext A[j,k] / (N−n).
        let ext = (sub.global_nodes() - sub.len()) as f64;
        let mut row = vec![0.0; sub.len()];
        for e in &sub.boundary().in_edges {
            row[e.target_local as usize] += 1.0 / e.source_out_degree as f64 / ext;
        }
        let lambda_self = 1.0 - row.iter().sum::<f64>();
        (row, lambda_self)
    }

    #[test]
    fn figure6_probabilities() {
        // The paper's worked example (§IV-B): edge (A,Λ) = 1/2,
        // (Λ,C) = 4/9, Λ self-loop = 7/18.
        let (_, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        // A is local id 0; C is local id 2.
        assert!((e.to_lambda()[0] - 0.5).abs() < 1e-12, "A→Λ");
        assert!((e.from_lambda()[2] - 4.0 / 9.0).abs() < 1e-12, "Λ→C");
        assert!((e.lambda_self() - 7.0 / 18.0).abs() < 1e-12, "Λ→Λ");
        // Λ→D: only Z→D, Z has outdegree 2 → (1/2)/3 = 1/6.
        assert!((e.from_lambda()[3] - 1.0 / 6.0).abs() < 1e-12, "Λ→D");
        // Λ→A, Λ→B: no external in-links.
        assert_eq!(e.from_lambda()[0], 0.0);
        assert_eq!(e.from_lambda()[1], 0.0);
    }

    #[test]
    fn rows_are_stochastic() {
        let (_, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        assert!(e.max_row_sum_error() < 1e-12);
    }

    #[test]
    fn personalization_matches_equation5() {
        let (_, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        let p = e.personalization();
        assert_eq!(p.len(), 5);
        assert!((p[0] - 1.0 / 7.0).abs() < 1e-15);
        assert!((p[4] - 3.0 / 7.0).abs() < 1e-15);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_conserves_mass() {
        let (_, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        let r = e.solve(&PageRankOptions::paper().with_tolerance(1e-12));
        assert!(r.converged);
        assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // All scores strictly positive (teleport guarantees it).
        assert!(r.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn dangling_local_pages_handled() {
        // 0 -> Λ-side page 2 only; 1 is locally dangling; external 2 -> 1.
        let g = DiGraph::from_edges(3, &[(0, 2), (2, 1)]);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(3, [0, 1]));
        // External page 2 links to local 1 with outdegree 1:
        // from_lambda = [0, 1/1]/1 = [0, 1], lambda_self = 0.
        let e = ExtendedLocalGraph::new(&sub, vec![0.0, 1.0], 0.0);
        assert!(e.max_row_sum_error() < 1e-12);
        let r = e.solve(&PageRankOptions::paper().with_tolerance(1e-12));
        assert!((r.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "stochastic")]
    fn rejects_non_stochastic_lambda_row() {
        let (_, sub) = figure4();
        ExtendedLocalGraph::new(&sub, vec![0.1, 0.1, 0.1, 0.1], 0.1);
    }

    #[test]
    fn new_on_pool_builds_identical_structure() {
        // Large enough for several chunks; compare every exposed piece
        // bit-for-bit between the sequential and pooled constructions.
        let n_total = 400u32;
        let mut edges = Vec::new();
        for i in 0..n_total {
            if i % 13 == 5 {
                continue; // dangling
            }
            edges.push((i, (i + 1) % n_total));
            edges.push((i, (i * 31 + 7) % n_total));
            if i % 5 == 0 {
                edges.push((i, (i / 2) % n_total));
            }
        }
        let g = DiGraph::from_edges(n_total as usize, &edges);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(n_total as usize, 0..250u32));
        let approx = crate::ApproxRank::default();
        let reference = approx.extended_graph(&g, &sub);
        for threads in [2usize, 7] {
            let exec = approxrank_exec::Executor::new(threads);
            let pooled = ExtendedLocalGraph::new_on(
                &sub,
                reference.from_lambda().to_vec(),
                reference.lambda_self(),
                &exec,
            );
            assert!(reference
                .to_lambda()
                .iter()
                .zip(pooled.to_lambda())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(reference.max_row_sum_error(), pooled.max_row_sum_error());
            let opts = PageRankOptions::paper().with_tolerance(1e-10);
            let a = reference.solve(&opts);
            let b = pooled.solve(&opts);
            assert_eq!(a.iterations, b.iterations);
            assert!(
                a.scores
                    .iter()
                    .zip(&b.scores)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sparse_collapse_matches_dense_expansion() {
        let (g, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        // Base set {1, 2, 5}: 1 and 2 are local, 5 is external.
        let base = [1u32, 2, 5];
        let w = 1.0 / base.len() as f64;
        let sparse = e.collapse_sparse_personalization(sub.nodes(), &base, w);
        let mut dense = vec![0.0; g.num_nodes()];
        for &b in &base {
            dense[b as usize] = w;
        }
        let collapsed = e.collapse_personalization(sub.nodes(), &dense);
        assert_eq!(sparse.len(), collapsed.len());
        // Local entries are bit-equal; the Λ entry may differ in the last
        // ulp because the dense path derives it by summation.
        for (a, b) in sparse[..sub.len()].iter().zip(&collapsed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!((sparse[sub.len()] - collapsed[sub.len()]).abs() < 1e-15);
        // And the solves agree to solver precision.
        let opts = PageRankOptions::paper().with_tolerance(1e-12);
        let ra = e.solve_personalized(&opts, &sparse);
        let rb = e.solve_personalized(&opts, &collapsed);
        for (x, y) in ra.scores.iter().zip(&rb.scores) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn sparse_collapse_rejects_unsorted_base() {
        let (_, sub) = figure4();
        let (row, lambda_self) = uniform_lambda_row(&sub);
        let e = ExtendedLocalGraph::new(&sub, row, lambda_self);
        e.collapse_sparse_personalization(sub.nodes(), &[2, 1], 0.5);
    }

    #[test]
    fn whole_graph_subgraph_degenerate() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(3, 0..3));
        let e = ExtendedLocalGraph::new(&sub, vec![0.0; 3], 0.0);
        let r = e.solve(&PageRankOptions::paper().with_tolerance(1e-12));
        // Λ gets no teleport and no in-flow: its score decays to zero and
        // the locals recover plain PageRank (uniform on the cycle).
        assert!(r.scores[3] < 1e-6);
        for k in 0..3 {
            assert!((r.scores[k] - 1.0 / 3.0).abs() < 1e-6);
        }
    }
}
