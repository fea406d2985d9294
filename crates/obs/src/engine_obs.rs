//! Adapters between the engine's observer hook and the metrics
//! registry.
//!
//! [`EngineMetrics`] implements [`ic_sim::observe::EngineObserver`] over
//! a shared [`MetricsHandle`], so the driver keeps a clone of the handle
//! and reads the numbers after (or during) the run:
//!
//! * `engine_events_total{kind}` — counter, one per executed event
//! * `engine_queue_depth` — gauge, pending events after the last handler
//! * `engine_queue_depth_max` — gauge, high-water mark
//! * `engine_event_seconds{kind}` — histogram of wall-clock handler time
//!
//! Wall-clock timings are host noise and stay out of trace output; they
//! exist so a profile of "which event kind dominates runtime" falls out
//! of any instrumented run. The core engine never reads the host clock —
//! this observer stamps its own [`Instant`] in `on_event_start` and
//! measures the elapsed time when the post-event record arrives.

use crate::flight::FlightHandle;
use crate::metrics::MetricsHandle;
use ic_sim::observe::{EngineObserver, EventRecord};
use std::time::Instant;

/// First bin edge for handler-time histograms: 100 ns.
const EVENT_SECONDS_FIRST_EDGE: f64 = 1e-7;
/// Geometric growth per bin.
const EVENT_SECONDS_GROWTH: f64 = 2.0;
/// 36 bins: 100 ns … ~6.9 s, plenty for a single event handler.
const EVENT_SECONDS_BINS: usize = 36;

/// An [`EngineObserver`] that feeds a shared [`MetricsHandle`].
///
/// # Example
///
/// ```
/// use ic_obs::engine_obs::EngineMetrics;
/// use ic_obs::metrics::shared_registry;
/// use ic_sim::engine::Engine;
/// use ic_sim::time::SimTime;
///
/// let metrics = shared_registry();
/// let mut engine: Engine<u32> = Engine::new();
/// engine.set_observer(Box::new(EngineMetrics::new(metrics.clone())));
/// engine.schedule_labeled(SimTime::from_secs(1), "arrival", |c, _| *c += 1);
/// let mut count = 0;
/// engine.run(&mut count);
/// assert_eq!(metrics.borrow().counter("engine_events_total{arrival}"), 1);
/// ```
pub struct EngineMetrics {
    metrics: MetricsHandle,
    max_depth: usize,
    started: Option<Instant>,
}

impl EngineMetrics {
    /// Creates an observer writing into `metrics`.
    pub fn new(metrics: MetricsHandle) -> Self {
        EngineMetrics {
            metrics,
            max_depth: 0,
            started: None,
        }
    }
}

impl EngineObserver for EngineMetrics {
    fn on_event_start(&mut self) {
        self.started = Some(Instant::now());
    }

    fn on_event(&mut self, record: &EventRecord) {
        let wall_seconds = self
            .started
            .take()
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        self.max_depth = self.max_depth.max(record.queue_depth);
        let mut m = self.metrics.borrow_mut();
        m.counter_add(&format!("engine_events_total{{{}}}", record.kind), 1);
        m.gauge_set("engine_queue_depth", record.queue_depth as f64);
        m.gauge_set("engine_queue_depth_max", self.max_depth as f64);
        let hist_name = format!("engine_event_seconds{{{}}}", record.kind);
        m.register_histogram(
            &hist_name,
            EVENT_SECONDS_FIRST_EDGE,
            EVENT_SECONDS_GROWTH,
            EVENT_SECONDS_BINS,
        );
        m.histogram_record(&hist_name, wall_seconds);
    }
}

/// An [`EngineObserver`] that feeds the flight recorder's per-event-kind
/// phase accumulator: one [`FlightRecorder::phase_event`] call per
/// executed event, stamped with the *simulation* clock (never wall
/// clock, so traces stay byte-reproducible). The driver holding the same
/// [`FlightHandle`] calls `flush_phases` at window boundaries to turn
/// the accumulation into one coalesced span per event kind.
///
/// [`FlightRecorder::phase_event`]: crate::flight::FlightRecorder::phase_event
pub struct EngineSpans {
    flight: FlightHandle,
    /// The phase target label, e.g. `"engine"`.
    target: &'static str,
}

impl EngineSpans {
    /// Creates an observer accumulating phases under `target` (use
    /// `"engine"` unless several engines share one recorder).
    pub fn new(flight: FlightHandle, target: &'static str) -> Self {
        EngineSpans { flight, target }
    }
}

impl EngineObserver for EngineSpans {
    fn on_event(&mut self, record: &EventRecord) {
        self.flight
            .borrow_mut()
            .phase_event(self.target, record.kind, record.at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::shared_flight;
    use crate::metrics::shared_registry;
    use ic_sim::engine::Engine;
    use ic_sim::time::{SimDuration, SimTime};

    #[test]
    fn engine_run_populates_registry() {
        let metrics = shared_registry();
        let mut engine: Engine<u32> = Engine::new();
        engine.set_observer(Box::new(EngineMetrics::new(metrics.clone())));
        engine.schedule_labeled(SimTime::from_secs(1), "arrival", |c, e| {
            *c += 1;
            e.schedule_in_labeled(SimDuration::from_secs(1), "departure", |c, _| *c += 1);
        });
        engine.schedule_labeled(SimTime::from_secs(5), "arrival", |c, _| *c += 1);
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 3);

        let m = metrics.borrow();
        assert_eq!(m.counter("engine_events_total{arrival}"), 2);
        assert_eq!(m.counter("engine_events_total{departure}"), 1);
        assert_eq!(m.gauge("engine_queue_depth"), Some(0.0));
        assert_eq!(m.gauge("engine_queue_depth_max"), Some(2.0));
        let h = m.histogram("engine_event_seconds{arrival}").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn per_kind_totals_sum_to_events_processed() {
        let metrics = shared_registry();
        let mut engine: Engine<()> = Engine::new();
        engine.set_observer(Box::new(EngineMetrics::new(metrics.clone())));
        for i in 0..10 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            engine.schedule_labeled(SimTime::from_secs(i), kind, |_, _| {});
        }
        engine.run(&mut ());
        let m = metrics.borrow();
        let total = m.counter("engine_events_total{even}") + m.counter("engine_events_total{odd}");
        assert_eq!(total, engine.events_processed());
    }

    #[test]
    fn engine_spans_accumulate_phases_by_kind() {
        let flight = shared_flight(1024);
        let mut engine: Engine<u32> = Engine::new();
        engine.set_observer(Box::new(EngineSpans::new(flight.clone(), "engine")));
        engine.schedule_labeled(SimTime::from_secs(1), "arrival", |c, e| {
            *c += 1;
            e.schedule_in_labeled(SimDuration::from_secs(1), "departure", |c, _| *c += 1);
        });
        engine.schedule_labeled(SimTime::from_secs(5), "arrival", |c, _| *c += 1);
        let mut count = 0;
        engine.run(&mut count);
        flight.borrow_mut().flush_phases();

        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        assert_eq!(counts[&("engine", "arrival")], 1, "one coalesced span");
        assert_eq!(counts[&("engine", "departure")], 1);
        let arrival = rec
            .spans()
            .find(|s| s.name == "arrival")
            .expect("arrival phase span");
        assert_eq!(arrival.start, SimTime::from_secs(1));
        assert_eq!(arrival.end, SimTime::from_secs(5));
        assert_eq!(arrival.fields, vec![("events", crate::json::Value::U64(2))]);
    }
}
