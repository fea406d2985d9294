//! Engine observation hooks.
//!
//! The engine stays dependency-free: it only knows this small trait, and
//! the `ic-obs` crate supplies implementations that feed a metrics
//! registry. An observer sees one [`EventRecord`] per executed event —
//! after the handler returns, so queue depth reflects any follow-up
//! events the handler scheduled.
//!
//! Observation must never perturb the simulation: records carry only
//! the simulation clock, and the engine behaves identically with or
//! without an observer attached. Wall-clock handler timing is the
//! observer's business — the core engine never reads the host clock.
//! An observer that wants it stamps its own timestamp in
//! [`EngineObserver::on_event_start`] and measures the elapsed time in
//! [`EngineObserver::on_event`] (see `ic-obs`'s `EngineMetrics`).

use crate::time::SimTime;

/// What the engine reports about one executed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulation time at which the event fired.
    pub at: SimTime,
    /// The label given at scheduling time (`"event"` for unlabeled
    /// events).
    pub kind: &'static str,
    /// Events still pending after the handler ran.
    pub queue_depth: usize,
}

/// A sink for per-event engine telemetry.
pub trait EngineObserver {
    /// Called immediately before an event's handler runs. The default
    /// does nothing; observers that time handlers capture their own
    /// wall-clock timestamp here.
    fn on_event_start(&mut self) {}

    /// Called once per executed event, after its handler returns.
    fn on_event(&mut self, record: &EventRecord);
}
