//! Theorem 2 validation and tightness study (paper §IV-C).
//!
//! Runs IdealRank and ApproxRank in lockstep on a real TS subgraph and
//! compares the measured per-iteration gap `‖R_ideal^m − R_approx^m‖₁`
//! against the bound `(ε + … + ε^m)·‖E − E_approx‖₁`, then reports how
//! tight the bound is at convergence (the paper leaves exploiting this
//! relationship as future work; the tightness ratio quantifies the slack
//! available).

use approxrank_core::theory::{external_assumption_gap, lockstep_gaps, theorem2_bound};
use approxrank_core::{ApproxRank, IdealRank};
use approxrank_gen::politics::PAPER_TOPICS;
use approxrank_graph::Subgraph;

use crate::datasets::DatasetScale;
use crate::experiments::{experiment_options, ExperimentOutput, PoliticsContext};
use crate::report::Table;

/// Per-iteration measurement.
#[derive(Clone, Debug)]
pub struct IterationRow {
    /// Iteration number `m` (1-based).
    pub m: usize,
    /// Measured `‖R_ideal^m − R_approx^m‖₁`.
    pub measured: f64,
    /// Theorem 2 bound for this `m`.
    pub bound: f64,
}

/// Full result of the validation.
#[derive(Clone, Debug)]
pub struct Theorem2Result {
    /// Subgraph used.
    pub subgraph: &'static str,
    /// `‖E − E_approx‖₁`.
    pub assumption_gap: f64,
    /// Per-iteration rows.
    pub iterations: Vec<IterationRow>,
    /// The limit bound `ε/(1−ε)·gap`.
    pub limit_bound: f64,
}

/// Runs the validation on one TS subgraph of the politics-like dataset.
pub fn run_with(ctx: &PoliticsContext, iterations: usize) -> (Theorem2Result, ExperimentOutput) {
    let (name, _) = PAPER_TOPICS[2]; // socialism: the smallest subgraph
    let topic = ctx.data.topic_index(name).expect("paper topic exists");
    let sub = Subgraph::extract(ctx.data.graph(), ctx.data.ts_subgraph(topic, 3));
    let opts = experiment_options();
    let eps = opts.damping;

    let ideal = IdealRank {
        options: opts.clone(),
        global_scores: ctx.truth.result.scores.clone().into(),
    };
    let ie = ideal.extended_graph(ctx.data.graph(), &sub);
    let ae = ApproxRank::new(opts).extended_graph(ctx.data.graph(), &sub);
    let gap = external_assumption_gap(&ctx.truth.result.scores, &sub);
    let measured = lockstep_gaps(&ie, &ae, eps, iterations);

    let rows: Vec<IterationRow> = measured
        .iter()
        .enumerate()
        .map(|(i, &m)| IterationRow {
            m: i + 1,
            measured: m,
            bound: theorem2_bound(eps, Some(i + 1), gap),
        })
        .collect();
    let result = Theorem2Result {
        subgraph: name,
        assumption_gap: gap,
        iterations: rows,
        limit_bound: theorem2_bound(eps, None, gap),
    };

    let mut t = Table::new(
        format!(
            "Theorem 2 — measured gap vs bound on '{name}' \
             (‖E − E_approx‖₁ = {gap:.6})"
        ),
        &[
            "iteration m",
            "measured ‖Rᵢ−Rₐ‖₁",
            "bound (ε+…+ε^m)·gap",
            "tightness",
        ],
    );
    for r in &result.iterations {
        t.push_row(vec![
            r.m.to_string(),
            format!("{:.6e}", r.measured),
            format!("{:.6e}", r.bound),
            format!(
                "{:.1}%",
                100.0 * r.measured / r.bound.max(f64::MIN_POSITIVE)
            ),
        ]);
    }
    let out = ExperimentOutput {
        tables: vec![t],
        notes: vec![format!(
            "limit bound ε/(1−ε)·gap = {:.6e}; every measured gap must stay below \
             its per-iteration bound (Theorem 2)",
            result.limit_bound
        )],
    };
    (result, out)
}

/// Builds the context and runs 20 lockstep iterations.
pub fn run(scale: DatasetScale) -> ExperimentOutput {
    run_with(&PoliticsContext::build(scale), 20).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support;

    #[test]
    fn bound_holds_at_dataset_scale() {
        let ctx = test_support::politics();
        let (result, _) = run_with(&ctx, 15);
        assert!(result.assumption_gap > 0.0);
        assert!(result.assumption_gap < 2.0);
        for r in &result.iterations {
            assert!(
                r.measured <= r.bound + 1e-12,
                "iteration {}: {} > {}",
                r.m,
                r.measured,
                r.bound
            );
        }
        // Gaps must be converging, not oscillating upward.
        let first = result.iterations.first().unwrap().measured;
        let last = result.iterations.last().unwrap().measured;
        assert!(last <= result.limit_bound);
        assert!(first <= result.limit_bound);
    }
}
