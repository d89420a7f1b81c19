//! Solver telemetry for the ApproxRank workspace.
//!
//! Every solver and ranker accepts a `&dyn Observer`. Instrumentation is
//! structured around three primitives:
//!
//! * **Spans** — named wall-clock intervals ([`Span`], created via
//!   `obs.span("solve")`), closed automatically on drop.
//! * **Counters / gauges** — one-off named values (`obs.counter`,
//!   `obs.gauge`).
//! * **Iteration events** — one [`Event::Iteration`] per solver sweep,
//!   carrying the iteration index, L1 residual, dangling mass, and the
//!   sweep's elapsed time.
//!
//! The disabled path is free by construction: every helper checks
//! [`Observer::enabled`] before reading the clock or allocating, so a
//! solver instrumented against [`null()`] performs no `Instant::now()`
//! calls and no heap traffic beyond what it already did.
//!
//! Collectors live in [`recorder`] (thread-safe in-memory [`Recorder`]),
//! with exporters in [`jsonl`] (line-delimited JSON) and [`report`]
//! (aggregated human-readable tables). Every text format here is written
//! and read by the workspace's one JSON codec, `approxrank_store::json`
//! — this crate's only dependency. The serving stack's request-scoped layer lives in
//! [`request`] (trace ids, per-request span trees, the `/debug/requests`
//! ring) and [`logging`] (structured leveled JSONL logging that stamps
//! every line with the active trace id); [`Tee`] fans one event stream
//! out to two observers so a request recorder and the process metrics
//! both see every span.
//!
//! # Example
//!
//! Record a span, a counter, and a gauge, then aggregate them into a
//! run report:
//!
//! ```
//! use approxrank_trace::{Observer, Recorder, RunReport};
//!
//! let rec = Recorder::new();
//! let obs: &dyn Observer = &rec;
//! {
//!     let _span = obs.span("solve");
//!     obs.counter("pages", 4);
//!     obs.gauge("dangling_mass", 0.25);
//! }
//! let report = RunReport::from_events(&rec.events());
//! assert_eq!(report.spans[0].name, "solve");
//! assert_eq!(report.counters[0].last, 4);
//! assert_eq!(report.gauges[0].last, 0.25);
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod jsonl;
pub mod logging;
pub mod recorder;
pub mod report;
pub mod request;

pub use event::{Event, IterationEvent};
pub use recorder::Recorder;
pub use report::RunReport;
pub use request::{RequestRecorder, RequestTrace, TraceId, TraceRing};

use std::time::Instant;

/// A sink for telemetry [`Event`]s.
///
/// Implementations must be cheap to query via [`enabled`](Self::enabled):
/// instrumented code calls it on hot paths to decide whether to read the
/// clock at all.
pub trait Observer: Sync {
    /// Whether this observer wants events. When `false`, instrumented
    /// code skips all timing and allocation.
    fn enabled(&self) -> bool;

    /// Accepts one event. Only called when [`enabled`](Self::enabled)
    /// returns `true`.
    fn record(&self, event: Event);
}

impl dyn Observer + '_ {
    /// Opens a named span; the matching [`Event::SpanEnd`] is recorded
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        if self.enabled() {
            self.record(Event::SpanStart {
                name: name.to_string(),
            });
            Span {
                obs: self,
                live: Some((name.to_string(), Instant::now())),
            }
        } else {
            Span {
                obs: self,
                live: None,
            }
        }
    }

    /// Records a named integer value.
    pub fn counter(&self, name: &str, value: u64) {
        if self.enabled() {
            self.record(Event::Counter {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Records a named float value.
    pub fn gauge(&self, name: &str, value: f64) {
        if self.enabled() {
            self.record(Event::Gauge {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Records one solver sweep.
    pub fn iteration(&self, it: IterationEvent<'_>) {
        if self.enabled() {
            self.record(Event::Iteration {
                solver: it.solver.to_string(),
                iteration: it.iteration,
                residual: it.residual,
                dangling_mass: it.dangling_mass,
                elapsed_ns: it.elapsed_ns,
            });
        }
    }
}

/// RAII guard for a span: records [`Event::SpanEnd`] with the elapsed
/// time when dropped. Obtained from `obs.span(..)`.
pub struct Span<'a> {
    obs: &'a dyn Observer,
    live: Option<(String, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            self.obs.record(Event::SpanEnd {
                name,
                elapsed_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// A clock that only ticks when the observer is enabled.
///
/// Solvers use this for per-iteration timings: on the disabled path it
/// holds no `Instant` and every query returns zero.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts the clock if `obs` is enabled; otherwise a no-op watch.
    pub fn start(obs: &dyn Observer) -> Self {
        Stopwatch {
            start: obs.enabled().then(Instant::now),
        }
    }

    /// Nanoseconds since start (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Nanoseconds since start or the previous `lap_ns` call, restarting
    /// the interval (0 when disabled).
    pub fn lap_ns(&mut self) -> u64 {
        match self.start {
            Some(ref mut s) => {
                let now = Instant::now();
                let ns = now.duration_since(*s).as_nanos() as u64;
                *s = now;
                ns
            }
            None => 0,
        }
    }
}

/// Fans one event stream out to two observers — the serving layer tees
/// each request's [`RequestRecorder`] with the process-wide metrics
/// aggregator so both see every span.
pub struct Tee<'a>(
    /// First sink (receives each event first).
    pub &'a dyn Observer,
    /// Second sink.
    pub &'a dyn Observer,
);

impl Observer for Tee<'_> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn record(&self, event: Event) {
        if self.0.enabled() {
            if self.1.enabled() {
                self.1.record(event.clone());
            }
            self.0.record(event);
        } else if self.1.enabled() {
            self.1.record(event);
        }
    }
}

/// The observer that ignores everything. [`enabled`](Observer::enabled)
/// is `false`, so instrumented code short-circuits before any work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// The shared no-op observer — the default argument for every
/// instrumented entry point.
pub fn null() -> &'static dyn Observer {
    static NULL: NullObserver = NullObserver;
    &NULL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        let obs = null();
        assert!(!obs.enabled());
        // None of these should do anything (or panic).
        let _span = obs.span("noop");
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.iteration(IterationEvent {
            solver: "power",
            iteration: 0,
            residual: 0.0,
            dangling_mass: 0.0,
            elapsed_ns: 0,
        });
    }

    #[test]
    fn span_records_start_and_end() {
        let rec = Recorder::new();
        let obs: &dyn Observer = &rec;
        {
            let _span = obs.span("solve");
            obs.counter("inner", 7);
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            Event::SpanStart {
                name: "solve".into()
            }
        );
        assert!(matches!(
            events[1],
            Event::Counter { ref name, value: 7 } if name == "inner"
        ));
        assert!(matches!(
            events[2],
            Event::SpanEnd { ref name, .. } if name == "solve"
        ));
    }

    #[test]
    fn stopwatch_disabled_returns_zero() {
        let mut watch = Stopwatch::start(null());
        assert_eq!(watch.elapsed_ns(), 0);
        assert_eq!(watch.lap_ns(), 0);
    }

    #[test]
    fn stopwatch_enabled_ticks() {
        let rec = Recorder::new();
        let obs: &dyn Observer = &rec;
        let mut watch = Stopwatch::start(obs);
        std::hint::black_box((0..1000).sum::<u64>());
        let first = watch.lap_ns();
        let _second = watch.lap_ns();
        assert!(watch.elapsed_ns() > 0 || first > 0);
    }
}
