//! Telemetry contracts of the instrumented solvers: the disabled path
//! records nothing, the enabled path tells a consistent story about the
//! iteration it just ran.

use approxrank_graph::DiGraph;
use approxrank_pagerank::{pagerank, pagerank_observed, PageRankOptions};
use approxrank_trace::{Event, NullObserver, Observer, Recorder};

fn fixture() -> DiGraph {
    let n = 50u32;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        edges.push((i, (i * 7 + 3) % n));
        if i % 5 == 0 {
            edges.push((i, 0));
        }
    }
    DiGraph::from_edges(n as usize, &edges)
}

fn opts() -> PageRankOptions {
    PageRankOptions::paper().with_tolerance(1e-10)
}

#[test]
fn noop_observer_adds_zero_events_and_identical_scores() {
    let g = fixture();
    let null = NullObserver;
    let obs: &dyn Observer = &null;
    assert!(!obs.enabled());
    // Spans, counters, gauges against the no-op observer are all inert.
    {
        let _span = obs.span("anything");
        obs.counter("c", 1);
        obs.gauge("g", 0.5);
    }
    let plain = pagerank(&g, &opts());
    let observed = pagerank_observed(&g, &opts(), approxrank_trace::null());
    assert_eq!(
        plain, observed,
        "the disabled path must not perturb results"
    );
}

#[test]
fn power_iteration_residuals_monotonically_non_increasing() {
    let g = fixture();
    let rec = Recorder::new();
    let result = pagerank_observed(&g, &opts(), &rec);
    assert!(result.converged);
    let residuals: Vec<f64> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Iteration {
                solver, residual, ..
            } if solver == "power" => Some(*residual),
            _ => None,
        })
        .collect();
    assert_eq!(residuals.len(), result.iterations);
    for w in residuals.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-12),
            "power-iteration residual rose: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn iteration_events_are_sequential_and_span_brackets_them() {
    let g = fixture();
    let rec = Recorder::new();
    let result = pagerank_observed(&g, &opts(), &rec);
    let events = rec.events();
    assert!(matches!(&events[0], Event::SpanStart { name } if name == "power"));
    assert!(
        matches!(events.last().unwrap(), Event::SpanEnd { name, .. } if name == "power"),
        "span must close after the last iteration"
    );
    let mut expected = 0usize;
    for e in &events {
        if let Event::Iteration { iteration, .. } = e {
            assert_eq!(*iteration, expected);
            expected += 1;
        }
    }
    assert_eq!(expected, result.iterations);
}

#[test]
fn elapsed_wall_time_is_plausible() {
    let g = fixture();
    let result = pagerank(&g, &opts());
    // Generous sanity bounds only: positive, and far below a minute.
    assert!(result.elapsed.as_nanos() > 0);
    assert!(result.elapsed.as_secs() < 60);
}
