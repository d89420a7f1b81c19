//! The telemetry event vocabulary.

/// One telemetry event. Owned (no borrowed data) so collectors can store
/// and export events long after the instrumented call returned.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A named interval opened.
    SpanStart {
        /// Span name, e.g. `"collapse_lambda"`.
        name: String,
    },
    /// A named interval closed.
    SpanEnd {
        /// Span name matching the corresponding [`Event::SpanStart`].
        name: String,
        /// Wall-clock length of the interval.
        elapsed_ns: u64,
    },
    /// A named integer measurement (sizes, node counts, rounds).
    Counter {
        /// Counter name, e.g. `"boundary_nodes"`.
        name: String,
        /// The measured value.
        value: u64,
    },
    /// A named float measurement (masses, fractions, tolerances).
    Gauge {
        /// Gauge name, e.g. `"pool_imbalance"`.
        name: String,
        /// The measured value.
        value: f64,
    },
    /// One sweep of an iterative solver.
    Iteration {
        /// Solver name: `"power"`, `"parallel"`, `"extended"`, or
        /// `"authority_flow"`.
        solver: String,
        /// Zero-based iteration index.
        iteration: usize,
        /// L1 change between successive score vectors.
        residual: f64,
        /// Probability mass on dangling pages this sweep.
        dangling_mass: f64,
        /// Wall-clock cost of this sweep.
        elapsed_ns: u64,
    },
}

impl Event {
    /// The event's name field: span/counter/gauge name, or the solver
    /// name for iterations.
    pub fn name(&self) -> &str {
        match self {
            Event::SpanStart { name }
            | Event::SpanEnd { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. } => name,
            Event::Iteration { solver, .. } => solver,
        }
    }
}

/// Borrowed per-sweep measurements, passed to `obs.iteration(..)`.
///
/// Borrowing the solver name keeps the disabled path allocation-free;
/// the observer copies into an owned [`Event::Iteration`] only when
/// enabled.
#[derive(Clone, Copy, Debug)]
pub struct IterationEvent<'a> {
    /// Solver name (see [`Event::Iteration`]).
    pub solver: &'a str,
    /// Zero-based iteration index.
    pub iteration: usize,
    /// L1 change between successive score vectors.
    pub residual: f64,
    /// Probability mass on dangling pages this sweep.
    pub dangling_mass: f64,
    /// Wall-clock cost of this sweep.
    pub elapsed_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_accessor_covers_all_variants() {
        let events = [
            Event::SpanStart { name: "a".into() },
            Event::SpanEnd {
                name: "b".into(),
                elapsed_ns: 1,
            },
            Event::Counter {
                name: "c".into(),
                value: 2,
            },
            Event::Gauge {
                name: "d".into(),
                value: 3.0,
            },
            Event::Iteration {
                solver: "e".into(),
                iteration: 0,
                residual: 0.5,
                dangling_mass: 0.1,
                elapsed_ns: 4,
            },
        ];
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e"]);
    }
}
