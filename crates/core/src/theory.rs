//! The error analysis of §IV-C: Theorem 2 and its empirical validation.
//!
//! Theorem 2 bounds the gap between IdealRank and ApproxRank after `m`
//! iterations (from a common start) by
//!
//! ```text
//! ‖R_ideal^m − R_approx^m‖₁ ≤ (ε + ε² + … + ε^m) · ‖E − E_approx‖₁
//! ```
//!
//! with limit `ε/(1−ε) · ‖E − E_approx‖₁` — a factor 5.67 at ε = 0.85.
//! `E` is the true relative importance of the external pages
//! (`R[j]/EXTSum`) and `E_approx` the uniform assumption (`1/(N−n)`).

use approxrank_graph::Subgraph;

use crate::extended::ExtendedLocalGraph;

/// `‖E − E_approx‖₁` — the a-priori error of the uniform external
/// assumption, computed from the true global scores:
/// `Σ_ext |R[j]/EXTSum − 1/(N−n)|`.
///
/// Always in `[0, 2)`; zero exactly when external pages are equally
/// important (then ApproxRank *is* IdealRank).
///
/// # Panics
/// Panics if the score vector's length differs from `N`.
pub fn external_assumption_gap(global_scores: &[f64], subgraph: &Subgraph) -> f64 {
    let big_n = subgraph.global_nodes();
    assert_eq!(global_scores.len(), big_n, "scores must cover all N pages");
    let num_ext = big_n - subgraph.len();
    if num_ext == 0 {
        return 0.0;
    }
    let local_mass: f64 = subgraph
        .nodes()
        .members()
        .iter()
        .map(|&g| global_scores[g as usize])
        .sum();
    let ext_sum: f64 = global_scores.iter().sum::<f64>() - local_mass;
    let uniform = 1.0 / num_ext as f64;
    let mut gap = 0.0;
    for (j, &r) in global_scores.iter().enumerate() {
        if !subgraph.nodes().contains(j as u32) {
            gap += (r / ext_sum - uniform).abs();
        }
    }
    gap
}

/// The Theorem-2 bound after `m` iterations:
/// `(ε + ε² + … + ε^m) · gap`. Pass `m = None` for the limit
/// `ε/(1−ε) · gap`.
pub fn theorem2_bound(damping: f64, m: Option<usize>, gap: f64) -> f64 {
    assert!((0.0..1.0).contains(&damping), "damping in [0,1)");
    let factor = match m {
        None => damping / (1.0 - damping),
        Some(m) => {
            // ε·(1−ε^m)/(1−ε)
            damping * (1.0 - damping.powi(m as i32)) / (1.0 - damping)
        }
    };
    factor * gap
}

/// Runs IdealRank and ApproxRank side by side for `m` iterations from the
/// same start vector and records `‖R_ideal^i − R_approx^i‖₁` over the
/// local entries after each iteration — the quantity Theorem 2 bounds.
///
/// Following the proof model of Lemmas 1–2 exactly, the `Λ` state is held
/// at weight 1 in both chains (the lemmas write the external contribution
/// as `ε·Σ_j A_jk E[j]` with no `Λ`-mass factor), so the recorded gaps
/// satisfy the stated bound rigorously, not just empirically.
pub fn lockstep_gaps(
    ideal: &ExtendedLocalGraph,
    approx: &ExtendedLocalGraph,
    damping: f64,
    iterations: usize,
) -> Vec<f64> {
    let n = ideal.num_local();
    assert_eq!(n, approx.num_local(), "same subgraph required");
    let mut start = ideal.personalization();
    start[n] = 1.0;
    let mut xi = start.clone();
    let mut xa = start;
    let mut ni = vec![0.0; n + 1];
    let mut na = vec![0.0; n + 1];
    let mut gaps = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        ideal.step(&xi, &mut ni, damping);
        approx.step(&xa, &mut na, damping);
        std::mem::swap(&mut xi, &mut ni);
        std::mem::swap(&mut xa, &mut na);
        // Pin Λ's weight, per the proof model.
        xi[n] = 1.0;
        xa[n] = 1.0;
        let gap: f64 = xi[..n]
            .iter()
            .zip(&xa[..n])
            .map(|(a, b)| (a - b).abs())
            .sum();
        gaps.push(gap);
    }
    gaps
}

/// `‖R_ideal − R_approx‖₁` over local pages for the *converged* solutions
/// of both algorithms — the quantity the limit form of Theorem 2 bounds
/// in practice (the paper's §IV-C closing remark).
pub fn converged_gap(ideal_scores: &[f64], approx_scores: &[f64]) -> f64 {
    assert_eq!(ideal_scores.len(), approx_scores.len());
    ideal_scores
        .iter()
        .zip(approx_scores)
        .map(|(a, b)| (a - b).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxRank, GlobalScores, IdealRank};
    use approxrank_graph::{DiGraph, NodeSet};
    use approxrank_pagerank::{pagerank, PageRankOptions};

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

    #[test]
    fn bound_formula() {
        assert!((theorem2_bound(0.85, None, 1.0) - 0.85 / 0.15).abs() < 1e-12);
        assert!((theorem2_bound(0.85, Some(1), 1.0) - 0.85).abs() < 1e-12);
        assert!((theorem2_bound(0.85, Some(2), 1.0) - (0.85 + 0.85 * 0.85)).abs() < 1e-12);
        // Monotone in m, approaching the limit.
        assert!(theorem2_bound(0.85, Some(50), 1.0) < theorem2_bound(0.85, None, 1.0));
    }

    #[test]
    fn gap_zero_when_external_uniform() {
        // Two symmetric external pages: E is exactly uniform.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (0, 2), (0, 3), (2, 0), (3, 0)]);
        let truth = pagerank(&g, &PageRankOptions::paper().with_tolerance(1e-13));
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(4, [0, 1]));
        let gap = external_assumption_gap(&truth.scores, &sub);
        assert!(gap < 1e-9, "gap {gap}");
    }

    #[test]
    fn theorem2_holds_per_iteration() {
        let g = figure4();
        let opts = PageRankOptions::paper().with_tolerance(1e-13);
        let truth = pagerank(&g, &opts);
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let ideal = IdealRank {
            options: opts.clone(),
            global_scores: GlobalScores::new(&g, truth.scores.clone()).into(),
        };
        let ie = ideal.extended_graph(&g, &sub);
        let ae = ApproxRank::new(opts).extended_graph(&g, &sub);
        let gap = external_assumption_gap(&truth.scores, &sub);
        let eps = 0.85;
        let measured = lockstep_gaps(&ie, &ae, eps, 30);
        for (i, &m) in measured.iter().enumerate() {
            let bound = theorem2_bound(eps, Some(i + 1), gap);
            assert!(
                m <= bound + 1e-12,
                "iteration {}: measured {m} > bound {bound}",
                i + 1
            );
        }
        // The limit bound also holds for the converged solutions.
        let limit = theorem2_bound(eps, None, gap);
        assert!(measured.last().unwrap() <= &limit);
    }

    #[test]
    fn gap_bounded_by_two() {
        let g = figure4();
        let truth = pagerank(&g, &PageRankOptions::paper());
        let sub = Subgraph::extract(&g, NodeSet::from_sorted(7, [0, 1, 2, 3]));
        let gap = external_assumption_gap(&truth.scores, &sub);
        assert!((0.0..2.0).contains(&gap));
    }
}
