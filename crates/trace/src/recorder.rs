//! The in-memory event collector.

use std::sync::Mutex;

use crate::{Event, Observer};

/// Thread-safe in-memory collector: every recorded [`Event`] is appended
/// to an internal vector under a mutex.
///
/// Safe to share across the pool threads of a parallel solve;
/// contention is negligible because solvers emit one event per sweep,
/// not per node.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A snapshot of all events recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Removes and returns all events recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("recorder poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Observer for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().expect("recorder poisoned").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let rec = Recorder::new();
        let obs: &dyn Observer = &rec;
        obs.counter("a", 1);
        obs.counter("b", 2);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name(), "a");
        assert_eq!(events[1].name(), "b");
    }

    #[test]
    fn take_drains() {
        let rec = Recorder::new();
        let obs: &dyn Observer = &rec;
        obs.gauge("x", 0.5);
        assert_eq!(rec.take().len(), 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn shared_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    let obs: &dyn Observer = rec;
                    for i in 0..25 {
                        obs.counter("thread", t * 100 + i);
                    }
                });
            }
        });
        assert_eq!(rec.len(), 100);
    }
}
