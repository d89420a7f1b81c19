//! Iterative aggregation/disaggregation (IAD) updating of PageRank —
//! the Langville & Meyer approach the paper's §II-E contrasts with
//! (reference \[15\], building on Stewart \[30\]).
//!
//! Scenario: the graph changed inside a known region `S` (the paper's
//! update motivation — the web frontier, a restructured site) and
//! yesterday's scores are still good for the rest. Each outer iteration:
//!
//! 1. **aggregate** — collapse the unchanged region into `Λ` weighted by
//!    the current external estimates (exactly the IdealRank construction)
//!    and solve the small `(|S|+1)`-state chain;
//! 2. **disaggregate** — scale the external estimates so they sum to
//!    `Λ`'s new mass, keeping their relative distribution;
//! 3. **smooth** — run a few global power-iteration steps to let the
//!    external region react to the new flow out of `S`.
//!
//! The outer loop converges to the exact new PageRank; because the
//! external relative ranking barely moves, it typically needs far fewer
//! *global* step-equivalents than recomputing from scratch — which is
//! the trade-off IdealRank sidesteps entirely by never touching the
//! external region (at the cost of freezing its scores).

use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_pagerank::{PageRankOptions, PageRankResult};

use crate::ideal::{GlobalScores, IdealRank};

/// Configuration of the IAD update.
#[derive(Clone, Debug)]
pub struct IadUpdate {
    /// Solver settings for the aggregated (small) chain.
    pub options: PageRankOptions,
    /// Global power-iteration steps per outer iteration (the
    /// disaggregation smoothing). Langville & Meyer use 1–2.
    pub smoothing_steps: usize,
    /// Outer-iteration cap.
    pub max_outer: usize,
    /// Convergence threshold on the global L1 change per outer iteration.
    pub tolerance: f64,
}

impl Default for IadUpdate {
    fn default() -> Self {
        IadUpdate {
            options: PageRankOptions::paper(),
            smoothing_steps: 2,
            max_outer: 50,
            tolerance: 1e-5,
        }
    }
}

/// Outcome of an IAD update.
#[derive(Clone, Debug)]
pub struct IadResult {
    /// Updated global scores (length `N`).
    pub scores: Vec<f64>,
    /// Outer (aggregate/disaggregate) iterations executed.
    pub outer_iterations: usize,
    /// Total global power-iteration steps spent on smoothing — the
    /// expensive currency; compare against a from-scratch solve.
    pub global_steps: usize,
    /// Whether the outer loop converged.
    pub converged: bool,
}

/// One global power-iteration step `x' = εAᵀx + (1−ε)/N` (uniform
/// personalization, uniform dangling jumps), writing into `out`.
fn global_step(graph: &DiGraph, x: &[f64], out: &mut [f64], damping: f64) {
    let n = graph.num_nodes();
    let inv_n = 1.0 / n as f64;
    let mut dangling_mass = 0.0;
    let mut contrib = vec![0.0f64; n];
    for u in 0..n {
        let d = graph.out_degree(u as u32);
        if d == 0 {
            dangling_mass += x[u];
        } else {
            contrib[u] = x[u] / d as f64;
        }
    }
    for (v, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for &u in graph.in_neighbors(v as u32) {
            acc += contrib[u as usize];
        }
        *slot = damping * (acc + dangling_mass * inv_n) + (1.0 - damping) * inv_n;
    }
}

impl IadUpdate {
    /// Updates `old_scores` (length `N`, padded with anything sensible —
    /// e.g. `0` — for newly created pages) to the PageRank of `new_graph`,
    /// exploiting that changes are confined to `changed`.
    ///
    /// # Panics
    /// Panics if lengths disagree or `changed` is empty.
    pub fn update(&self, new_graph: &DiGraph, changed: &NodeSet, old_scores: &[f64]) -> IadResult {
        let n = new_graph.num_nodes();
        assert_eq!(old_scores.len(), n, "one old score per page");
        assert!(!changed.is_empty(), "the changed set must be non-empty");

        // Current estimate, normalized (padding may have broken the sum).
        let mut x: Vec<f64> = old_scores.to_vec();
        let mass: f64 = x.iter().sum();
        if mass > 0.0 {
            for v in x.iter_mut() {
                *v /= mass;
            }
        } else {
            x.fill(1.0 / n as f64);
        }
        // Give brand-new (zero-score) pages a teleport floor so the
        // aggregated chain sees them at all.
        let floor = (1.0 - self.options.damping) / n as f64;
        for v in x.iter_mut() {
            if *v <= 0.0 {
                *v = floor;
            }
        }

        let subgraph = Subgraph::extract(
            new_graph,
            NodeSet::from_iter_order(n, changed.members().iter().copied()),
        );
        let mut outer_iterations = 0;
        let mut global_steps = 0;
        let mut converged = false;
        let mut scratch = vec![0.0f64; n];

        while outer_iterations < self.max_outer {
            outer_iterations += 1;
            let before = x.clone();

            // (1) Aggregate + solve the small chain with current external
            // estimates as the Λ weighting.
            let ideal = IdealRank {
                options: self.options.clone(),
                global_scores: GlobalScores::new(new_graph, x.clone()).into(),
            };
            let r = ideal.rank_subgraph(new_graph, &subgraph);

            // (2) Disaggregate: changed pages take their new scores; the
            // external region is rescaled to Λ's mass.
            let old_ext_mass: f64 = x
                .iter()
                .enumerate()
                .filter(|(i, _)| !changed.contains(*i as u32))
                .map(|(_, v)| v)
                .sum();
            let new_ext_mass = r.lambda_score.unwrap_or(0.0);
            let scale = if old_ext_mass > 0.0 {
                new_ext_mass / old_ext_mass
            } else {
                0.0
            };
            for (i, v) in x.iter_mut().enumerate() {
                if !changed.contains(i as u32) {
                    *v *= scale;
                }
            }
            for (li, &g) in subgraph.nodes().members().iter().enumerate() {
                x[g as usize] = r.local_scores[li];
            }

            // (3) Smooth with a few global steps.
            for _ in 0..self.smoothing_steps {
                global_step(new_graph, &x, &mut scratch, self.options.damping);
                std::mem::swap(&mut x, &mut scratch);
                global_steps += 1;
            }

            let delta: f64 = x.iter().zip(&before).map(|(a, b)| (a - b).abs()).sum();
            if delta < self.tolerance {
                converged = true;
                break;
            }
        }

        IadResult {
            scores: x,
            outer_iterations,
            global_steps,
            converged,
        }
    }
}

/// From-scratch baseline cost: iterations a cold power-iteration solve
/// needs on the same graph (for the update-vs-recompute comparison).
pub fn cold_solve(graph: &DiGraph, options: &PageRankOptions) -> PageRankResult {
    approxrank_pagerank::pagerank(graph, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxrank_pagerank::pagerank;

    /// A ring-of-clusters graph plus a perturbation confined to cluster 0.
    fn before_after() -> (DiGraph, DiGraph, NodeSet) {
        let n = 120usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32));
            edges.push((i, (i * 3 + 7) % n as u32));
        }
        let before = DiGraph::from_edges(n, &edges);
        // Change: pages 0..12 rewire to all point at page 3.
        let mut after_edges: Vec<(u32, u32)> =
            edges.iter().copied().filter(|&(s, _)| s >= 12).collect();
        for i in 0..12u32 {
            after_edges.push((i, 3));
            after_edges.push((i, (i + 1) % 12));
        }
        let after = DiGraph::from_edges(n, &after_edges);
        let changed = NodeSet::from_sorted(n, 0..12u32);
        (before, after, changed)
    }

    #[test]
    fn converges_to_fresh_pagerank() {
        let (before, after, changed) = before_after();
        let opts = PageRankOptions::paper().with_tolerance(1e-10);
        let old = pagerank(&before, &opts);
        let fresh = pagerank(&after, &opts);
        let iad = IadUpdate {
            options: opts,
            tolerance: 1e-10,
            max_outer: 200,
            ..IadUpdate::default()
        };
        let updated = iad.update(&after, &changed, &old.scores);
        assert!(updated.converged);
        let err: f64 = updated
            .scores
            .iter()
            .zip(&fresh.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 1e-6, "L1 to fresh PageRank: {err}");
    }

    #[test]
    fn cheaper_than_cold_recompute() {
        let (before, after, changed) = before_after();
        let opts = PageRankOptions::paper().with_tolerance(1e-10);
        let old = pagerank(&before, &opts);
        let cold = cold_solve(&after, &opts);
        let iad = IadUpdate {
            options: opts,
            tolerance: 1e-10,
            max_outer: 200,
            ..IadUpdate::default()
        };
        let updated = iad.update(&after, &changed, &old.scores);
        assert!(
            updated.global_steps < cold.iterations,
            "IAD global steps {} vs cold iterations {}",
            updated.global_steps,
            cold.iterations
        );
    }

    #[test]
    fn handles_new_pages_with_zero_old_score() {
        let (_, after, _) = before_after();
        // Pretend pages 0..12 are brand new: zero old scores.
        let n = after.num_nodes();
        let opts = PageRankOptions::paper().with_tolerance(1e-9);
        let fresh = pagerank(&after, &opts);
        let mut old = fresh.scores.clone();
        for v in old.iter_mut().take(12) {
            *v = 0.0;
        }
        let changed = NodeSet::from_sorted(n, 0..12u32);
        let iad = IadUpdate {
            options: opts,
            tolerance: 1e-9,
            max_outer: 200,
            ..IadUpdate::default()
        };
        let updated = iad.update(&after, &changed, &old);
        let err: f64 = updated
            .scores
            .iter()
            .zip(&fresh.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 1e-5, "L1 {err}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_changed_set() {
        let (_, after, _) = before_after();
        let n = after.num_nodes();
        IadUpdate::default().update(&after, &NodeSet::from_sorted(n, []), &vec![0.0; n]);
    }
}
