//! The update scenario (paper §I / §III): compare the three ways to
//! refresh rankings after a localized graph change.
//!
//! * **stale** — keep yesterday's scores (free, wrong);
//! * **IdealRank** — re-rank only the changed domain against frozen
//!   external scores (the paper's intended IdealRank application);
//! * **IAD** — iterative aggregation/disaggregation to the *exact* new
//!   global PageRank (Langville & Meyer, the §II-E contrast);
//! * **cold** — recompute global PageRank from scratch (exact, and the
//!   cost everything above is avoiding).

use std::time::Instant;

use approxrank_core::updating::IadUpdate;
use approxrank_core::{GlobalScores, IdealRank};
use approxrank_graph::{DiGraph, NodeSet, Subgraph};
use approxrank_metrics::footrule::footrule_from_scores;
use approxrank_pagerank::pagerank;

use crate::datasets::{au_dataset, DatasetScale};
use crate::experiments::{experiment_options, ExperimentOutput};
use crate::report::{fmt_dist, fmt_secs, Table};

/// One strategy's outcome on the changed domain.
#[derive(Clone, Debug)]
pub struct Row {
    /// Strategy name.
    pub strategy: &'static str,
    /// Footrule distance to the fresh global ranking, on the domain.
    pub footrule: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs the scenario: one domain of the AU-like graph gains a portal
/// page linked from every domain page.
pub fn run(scale: DatasetScale) -> ExperimentOutput {
    run_rows(scale).1
}

/// Runs the scenario, returning structured rows too.
pub fn run_rows(scale: DatasetScale) -> (Vec<Row>, ExperimentOutput) {
    let data = au_dataset(DatasetScale(scale.0 * 0.5));
    let g = data.graph();
    let opts = experiment_options();
    let old = pagerank(g, &opts);

    // Mutation: bond.edu.au gains a portal page.
    let domain = data.domain_index("bond.edu.au").expect("domain");
    let members: Vec<u32> = data.ds_subgraph(domain).members().to_vec();
    let n_old = g.num_nodes();
    let portal = n_old as u32;
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for &m in &members {
        edges.push((m, portal));
    }
    for &m in members.iter().take(25) {
        edges.push((portal, m));
    }
    let new_graph = DiGraph::from_edges(n_old + 1, &edges);
    let mut changed: Vec<u32> = members.clone();
    changed.push(portal);
    let changed_set = NodeSet::from_sorted(n_old + 1, changed);
    let subgraph = Subgraph::extract(
        &new_graph,
        NodeSet::from_sorted(n_old + 1, changed_set.members().iter().copied()),
    );

    // Fresh exact answer (also the "cold" row's cost).
    let t0 = Instant::now();
    let fresh = pagerank(&new_graph, &opts);
    let cold_secs = t0.elapsed().as_secs_f64();
    let truth_restricted = subgraph.nodes().restrict(&fresh.scores);

    let mut stale_scores = old.scores.clone();
    stale_scores.push(0.0);

    let mut rows = Vec::new();
    rows.push(Row {
        strategy: "stale (do nothing)",
        footrule: footrule_from_scores(
            &subgraph.nodes().restrict(&stale_scores),
            &truth_restricted,
        ),
        seconds: 0.0,
    });
    {
        let ideal = IdealRank {
            options: opts.clone(),
            global_scores: GlobalScores::new(&new_graph, stale_scores.clone()).into(),
        };
        let t0 = Instant::now();
        let r = ideal.rank_subgraph(&new_graph, &subgraph);
        rows.push(Row {
            strategy: "IdealRank (frozen externals)",
            footrule: footrule_from_scores(&r.local_scores, &truth_restricted),
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    {
        let iad = IadUpdate {
            options: opts.clone(),
            ..IadUpdate::default()
        };
        let t0 = Instant::now();
        let r = iad.update(&new_graph, &changed_set, &stale_scores);
        rows.push(Row {
            strategy: "IAD (exact update)",
            footrule: footrule_from_scores(
                &subgraph.nodes().restrict(&r.scores),
                &truth_restricted,
            ),
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    rows.push(Row {
        strategy: "cold global recompute",
        footrule: 0.0,
        seconds: cold_secs,
    });

    let mut t = Table::new(
        format!(
            "Update scenario — domain 'bond.edu.au' restructured ({} pages changed of {})",
            subgraph.len(),
            new_graph.num_nodes()
        ),
        &["strategy", "footrule vs fresh", "seconds"],
    );
    for r in &rows {
        t.push_row(vec![
            r.strategy.to_string(),
            fmt_dist(r.footrule),
            fmt_secs(r.seconds),
        ]);
    }
    let out = ExperimentOutput {
        tables: vec![t],
        notes: vec![
            "IdealRank fixes the changed region at a fraction of the global cost; \
             IAD reaches the exact new ranking; stale scores misrank the domain"
                .to_string(),
        ],
    };
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_strategies_order_correctly() {
        let (rows, _) = run_rows(DatasetScale(0.1));
        let get = |name: &str| rows.iter().find(|r| r.strategy.starts_with(name)).unwrap();
        let stale = get("stale");
        let ideal = get("IdealRank");
        let iad = get("IAD");
        assert!(ideal.footrule <= stale.footrule, "re-ranking beats stale");
        assert!(iad.footrule <= stale.footrule);
        assert!(ideal.footrule < 0.05, "IdealRank is near-exact here");
    }
}
