//! `repro bench` — the measured performance baseline behind
//! `PERFORMANCE.md`.
//!
//! Times pool-backed power iteration at a fixed iteration count across
//! thread widths, and verifies on the spot that every width produces
//! bit-identical scores.
//! Fixed iterations (rather than convergence) make the per-width work
//! exactly equal, so the wall-clock ratio is a pure scheduling
//! measurement.
//!
//! Every number in `PERFORMANCE.md` is generated by this module — run
//! `repro bench --markdown` and paste; nothing there is hand-typed.

use std::time::Duration;

use approxrank_exec::Executor;
use approxrank_graph::DiGraph;
use approxrank_pagerank::{pagerank_with_start_observed_on, PageRankOptions};

use crate::datasets::{politics_dataset, DatasetScale};
use crate::report::Table;

use super::ExperimentOutput;

/// Thread widths measured; 1 is the sequential baseline the speedup and
/// bit-identity columns compare against.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 7];

/// Fixed sweep count per solve: enough work to dominate pool dispatch
/// overhead, small enough that the full grid stays under a minute at the
/// default scale.
const ITERATIONS: usize = 40;

/// Timing repetitions per cell; the median is reported.
const REPS: usize = 3;

fn bench_options(threads: usize) -> PageRankOptions {
    // A tolerance no solver can reach pins every run at ITERATIONS
    // sweeps, so all widths do identical work.
    PageRankOptions::paper()
        .with_tolerance(1e-300)
        .with_max_iterations(ITERATIONS)
        .with_threads(threads)
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

struct Measurement {
    threads: usize,
    wall: Duration,
    scores: Vec<f64>,
    imbalance: f64,
}

fn measure(graph: &DiGraph, uniform: &[f64]) -> Vec<Measurement> {
    WIDTHS
        .iter()
        .map(|&threads| {
            let options = bench_options(threads);
            let exec = Executor::new(threads);
            let mut times = Vec::with_capacity(REPS);
            let mut scores = Vec::new();
            for _ in 0..REPS {
                let r = pagerank_with_start_observed_on(
                    graph,
                    &options,
                    uniform,
                    uniform,
                    approxrank_trace::null(),
                    &exec,
                );
                times.push(r.elapsed);
                scores = r.scores;
            }
            Measurement {
                threads,
                wall: median(times),
                scores,
                imbalance: exec.stats().imbalance(),
            }
        })
        .collect()
}

fn scaling_table(caption: &str, runs: &[Measurement]) -> (Table, bool) {
    let mut table = Table::new(
        caption,
        &[
            "threads",
            "wall ms",
            "speedup",
            "bitwise vs 1 thread",
            "imbalance",
        ],
    );
    let base = &runs[0];
    let mut all_identical = true;
    for m in runs {
        let identical = m.scores.len() == base.scores.len()
            && m.scores
                .iter()
                .zip(&base.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        all_identical &= identical;
        table.push_row(vec![
            m.threads.to_string(),
            fmt_ms(m.wall),
            format!("{:.2}x", base.wall.as_secs_f64() / m.wall.as_secs_f64()),
            if identical { "identical" } else { "DIVERGED" }.to_string(),
            format!("{:.2}", m.imbalance),
        ]);
    }
    (table, all_identical)
}

/// Runs the thread-scaling benchmark at the given dataset scale.
pub fn run(scale: DatasetScale) -> ExperimentOutput {
    let data = politics_dataset(scale);
    let g = data.graph();
    let n = g.num_nodes();
    let uniform = vec![1.0 / n.max(1) as f64; n];

    let (table, identical) = scaling_table(
        &format!(
            "Power iteration, {} pages / {} edges, {} sweeps (median of {})",
            n,
            g.num_edges(),
            ITERATIONS,
            REPS
        ),
        &measure(g, &uniform),
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out = ExperimentOutput {
        tables: vec![table],
        notes: Vec::new(),
    };
    out.notes.push(format!(
        "host: {cores} hardware thread(s) available; speedup beyond that width is not physically possible"
    ));
    out.notes.push(if identical {
        "determinism: every width produced bit-identical scores".to_string()
    } else {
        "DETERMINISM VIOLATION: some width diverged from the single-thread scores".to_string()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_tables_and_stays_deterministic() {
        let out = run(DatasetScale(0.05));
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].rows.len(), WIDTHS.len());
        assert!(
            out.notes.iter().any(|n| n.contains("bit-identical")),
            "determinism note missing: {:?}",
            out.notes
        );
    }
}
