//! Power iteration on the persistent work pool.
//!
//! One [`Executor`] is created per solve and reused by every iteration;
//! its workers park between jobs, so nothing is spawned per sweep. All
//! three passes of an iteration run on the pool:
//!
//! 1. contribution + dangling mass (`x[u]/deg(u)`, reduced over chunks),
//! 2. the pull sweep over the reverse adjacency (disjoint output chunks,
//!    partitioned by in-degree so hub-heavy graphs stay balanced),
//! 3. the L1 convergence residual (reduced over chunks).
//!
//! # Determinism
//!
//! The chunk grid depends only on the graph, and partial sums fold in
//! ascending chunk order on the dispatching thread, so scores are
//! bit-for-bit identical at any `threads` setting — including 1, which
//! runs the very same chunk walk inline ([`Executor::sequential`]).

use std::time::Instant;

use approxrank_exec::{Executor, Partition};
use approxrank_graph::DiGraph;
use approxrank_trace::{IterationEvent, Observer, Stopwatch};

use crate::{DanglingMode, PageRankOptions, PageRankResult};

/// Power iteration from an explicit start vector on a caller-supplied
/// executor. This is the single implementation behind both the serial and
/// parallel public entry points; see [`crate::pagerank_with_start`] for
/// the semantics and [`crate::emit_exec_stats`] for the telemetry hookup.
///
/// `options.threads` is ignored here — parallelism is whatever `exec`
/// provides. Reuse one executor across repeated solves (warm restarts,
/// the SC expansion loop) to amortize thread startup.
///
/// # Panics
/// Panics if vector lengths disagree with the node count.
pub fn pagerank_with_start_observed_on(
    graph: &DiGraph,
    options: &PageRankOptions,
    personalization: &[f64],
    start: &[f64],
    obs: &dyn Observer,
    exec: &Executor,
) -> PageRankResult {
    let n = graph.num_nodes();
    assert_eq!(personalization.len(), n, "personalization length mismatch");
    assert_eq!(start.len(), n, "start vector length mismatch");
    let t0 = Instant::now();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
            elapsed: t0.elapsed(),
        };
    }
    let solver = if exec.is_parallel() {
        "parallel"
    } else {
        "power"
    };
    let _span = obs.span(solver);
    if exec.is_parallel() {
        obs.counter("threads", exec.threads() as u64);
    }
    let mut sweep = Stopwatch::start(obs);

    let eps = options.damping;
    let inv_n = 1.0 / n as f64;
    let dangling_mode = options.dangling;
    // Fixed chunk grids: a function of the graph only, never of the
    // thread count (the determinism guarantee hangs on this). The pull
    // sweep is partitioned by in-degree; the O(n) passes uniformly.
    let chunks = Partition::auto_chunks(n);
    let node_part = Partition::uniform(n, chunks);
    let edge_part = Partition::by_offsets(graph.reverse().offsets(), chunks);

    let mut x = start.to_vec();
    let mut next = vec![0.0f64; n];
    let mut contrib = vec![0.0f64; n];
    let mut residuals = Vec::new();
    let mut iterations = 0;
    let mut converged = false;

    while iterations < options.max_iterations {
        iterations += 1;
        // Pass 1: per-node contributions and the dangling-mass reduction.
        let xs = &x;
        let dangling_mass = exec
            .map_chunks(
                &mut contrib,
                &node_part,
                |_, range, slot| {
                    let mut dm = 0.0;
                    for (u, c) in range.zip(slot.iter_mut()) {
                        let d = graph.out_degree(u as u32);
                        if d == 0 {
                            dm += xs[u];
                            *c = 0.0;
                        } else {
                            *c = xs[u] / d as f64;
                        }
                    }
                    dm
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        // Pass 2: the pull sweep, each task owning a disjoint slice of
        // `next`. Per-node summation order is the in-neighbor order, same
        // as ever.
        let cs = &contrib;
        exec.for_each_chunk(&mut next, &edge_part, |_, range, out| {
            for (v, slot) in range.zip(out.iter_mut()) {
                let mut acc = 0.0;
                for &u in graph.in_neighbors(v as u32) {
                    acc += cs[u as usize];
                }
                let jump = match dangling_mode {
                    DanglingMode::UniformJump => dangling_mass * inv_n,
                    DanglingMode::Personalization => dangling_mass * personalization[v],
                };
                *slot = eps * (acc + jump) + (1.0 - eps) * personalization[v];
            }
        });
        // Pass 3: L1 residual, reduced over the same fixed grid.
        let delta = exec
            .map_reduce(
                &node_part,
                |_, range| {
                    let mut s = 0.0;
                    for v in range {
                        s += (next[v] - x[v]).abs();
                    }
                    s
                },
                |a, b| a + b,
            )
            .unwrap_or(0.0);
        std::mem::swap(&mut x, &mut next);
        obs.iteration(IterationEvent {
            solver,
            iteration: iterations - 1,
            residual: delta,
            dangling_mass,
            elapsed_ns: sweep.lap_ns(),
        });
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

/// Builds the executor `options.threads` asks for, clamped so a tiny
/// graph never spawns more workers than it has nodes.
pub fn executor_for(graph: &DiGraph, options: &PageRankOptions) -> Executor {
    Executor::new(options.threads.min(graph.num_nodes().max(1)))
}

/// Forwards an executor's lifetime telemetry to an observer: counters
/// `pool_threads` / `pool_jobs` / `pool_tasks`, one `pool_worker_busy_ms`
/// gauge per lane (the spread across lanes is the imbalance story in
/// `subrank report`), and the `pool_imbalance` gauge (busiest lane ÷ mean
/// lane; 1.0 is perfectly balanced).
///
/// No-op for sequential executors and disabled observers.
pub fn emit_exec_stats(exec: &Executor, obs: &dyn Observer) {
    if !obs.enabled() || !exec.is_parallel() {
        return;
    }
    let s = exec.stats();
    obs.counter("pool_threads", s.threads as u64);
    obs.counter("pool_jobs", s.jobs);
    obs.counter("pool_tasks", s.tasks);
    for &ns in &s.busy_ns {
        obs.gauge("pool_worker_busy_ms", ns as f64 / 1e6);
    }
    obs.gauge("pool_imbalance", s.imbalance());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank;
    use approxrank_graph::DiGraph;

    fn ring_with_chords(n: usize) -> DiGraph {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n as u32));
            }
        }
        // Add a few dangling pages: n..n+4 receive links but emit none.
        let base = n as u32;
        for k in 0..4u32 {
            edges.push((k, base + k));
        }
        DiGraph::from_edges(n + 4, &edges)
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let g = ring_with_chords(197);
        let serial = pagerank(&g, &PageRankOptions::paper().with_tolerance(1e-10));
        for threads in [2, 3, 8] {
            let par = pagerank(
                &g,
                &PageRankOptions::paper()
                    .with_tolerance(1e-10)
                    .with_threads(threads),
            );
            assert_eq!(serial.iterations, par.iterations);
            for (a, b) in serial.scores.iter().zip(&par.scores) {
                assert_eq!(a, b, "bit-identical summation order expected");
            }
        }
    }

    #[test]
    fn regression_byte_identical_across_one_two_seven_threads() {
        // The ISSUE's contract, on a graph big enough for several chunks
        // and with dangling pages so every reduction path is exercised.
        let g = ring_with_chords(1000);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 7] {
            let r = pagerank(
                &g,
                &PageRankOptions::paper()
                    .with_tolerance(1e-12)
                    .with_threads(threads),
            );
            runs.push((threads, r));
        }
        let (_, reference) = &runs[0];
        for (threads, r) in &runs[1..] {
            assert_eq!(reference.iterations, r.iterations, "threads={threads}");
            let same_bytes = reference
                .scores
                .iter()
                .zip(&r.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bytes, "threads={threads}: scores differ in some bit");
        }
    }

    #[test]
    fn shared_executor_reused_across_solves() {
        // The SC pattern: many warm-started solves over one pool. The
        // whole sequence must be bit-identical to the same sequence run
        // sequentially, and the pool's telemetry must accumulate.
        let g = ring_with_chords(300);
        let o = PageRankOptions::paper().with_tolerance(1e-10);
        let n = g.num_nodes();
        let p = vec![1.0 / n as f64; n];
        let chain = |exec: &Executor| {
            let mut warm = p.clone();
            for _ in 0..3 {
                let r = pagerank_with_start_observed_on(
                    &g,
                    &o,
                    &p,
                    &warm,
                    approxrank_trace::null(),
                    exec,
                );
                warm = r.scores;
            }
            warm
        };
        let pooled = Executor::new(4);
        let par = chain(&pooled);
        let seq = chain(&Executor::sequential());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a, b);
        }
        assert!(pooled.stats().jobs > 0, "the pool actually ran the solves");
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let r = pagerank(&g, &PageRankOptions::paper().with_threads(64));
        assert!(r.converged);
        assert!((r.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_stats_reach_the_observer() {
        use approxrank_trace::{Event, Recorder};
        let g = ring_with_chords(500);
        let rec = Recorder::new();
        crate::pagerank_with_start_observed(
            &g,
            &PageRankOptions::paper().with_threads(3),
            &vec![1.0 / g.num_nodes() as f64; g.num_nodes()],
            &vec![1.0 / g.num_nodes() as f64; g.num_nodes()],
            &rec,
        );
        let events = rec.events();
        let counter = |name: &str| {
            events.iter().any(
                |e| matches!(e, Event::Counter { name: n, value, .. } if n == name && *value > 0),
            )
        };
        assert!(counter("pool_threads"));
        assert!(counter("pool_jobs"));
        assert!(counter("pool_tasks"));
        let busy = events
            .iter()
            .filter(|e| matches!(e, Event::Gauge { name, .. } if name == "pool_worker_busy_ms"))
            .count();
        assert_eq!(busy, 3, "one busy gauge per lane");
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Gauge { name, .. } if name == "pool_imbalance")));
    }
}

#[cfg(test)]
mod edge_case_tests {
    use crate::{pagerank, pagerank_with_start, PageRankOptions};
    use approxrank_graph::DiGraph;

    #[test]
    fn single_node_graph_parallel() {
        let g = DiGraph::from_edges(1, &[]);
        let r = pagerank(&g, &PageRankOptions::paper().with_threads(8));
        assert!(r.converged);
        assert!((r.scores[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_personalized_matches_serial() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1];
        let start = vec![1.0 / 6.0; 6];
        let o_serial = PageRankOptions::paper().with_tolerance(1e-11);
        let o_par = o_serial.clone().with_threads(3);
        let a = pagerank_with_start(&g, &o_serial, &p, &start);
        let b = pagerank_with_start(&g, &o_par, &p, &start);
        assert_eq!(a.scores, b.scores);
    }
}
