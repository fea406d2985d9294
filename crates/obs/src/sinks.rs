//! The observability sink bundle.
//!
//! Every instrumented component carries the same two optional handles
//! — `Option<MetricsHandle>` and `Option<FlightHandle>`. [`ObsSinks`]
//! is that pair as one value: build it once, clone it into every
//! component (handles are cheap `Rc` clones), attach it with the
//! component's one `attach_sinks`/`with_sinks` call, and emit through
//! [`ObsSinks::instant`].

use crate::flight::FlightHandle;
use crate::json::Value;
use crate::metrics::MetricsHandle;
use crate::trace::TraceLevel;
use ic_sim::time::SimTime;

/// A bundle of optional observability sinks: metrics registry and
/// flight recorder.
#[derive(Clone, Default)]
pub struct ObsSinks {
    metrics: Option<MetricsHandle>,
    flight: Option<FlightHandle>,
}

/// Sinks compare by *identity* (two bundles are equal when they point
/// at the same recorders), so components that derive `PartialEq` can
/// carry an `ObsSinks` without comparing recorder contents.
impl PartialEq for ObsSinks {
    fn eq(&self, other: &Self) -> bool {
        fn same<T>(a: &Option<std::rc::Rc<T>>, b: &Option<std::rc::Rc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => std::rc::Rc::ptr_eq(a, b),
                _ => false,
            }
        }
        same(&self.metrics, &other.metrics) && same(&self.flight, &other.flight)
    }
}

impl std::fmt::Debug for ObsSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSinks")
            .field("metrics", &self.metrics.is_some())
            .field("flight", &self.flight.is_some())
            .finish()
    }
}

impl ObsSinks {
    /// An empty bundle: nothing attached, every emit is a no-op.
    pub fn none() -> Self {
        ObsSinks::default()
    }

    /// Adds a metrics registry (builder style).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Adds a flight recorder (builder style).
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The metrics registry, if attached.
    pub fn metrics(&self) -> Option<&MetricsHandle> {
        self.metrics.as_ref()
    }

    /// The flight recorder, if attached.
    pub fn flight(&self) -> Option<&FlightHandle> {
        self.flight.as_ref()
    }

    /// Emits one structured event at simulation time `at` as an
    /// instant on the flight timeline. `fields` runs only when a flight
    /// recorder is attached, so an untraced component pays nothing for
    /// its payload.
    pub fn instant(
        &self,
        at: SimTime,
        target: &'static str,
        level: TraceLevel,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if let Some(flight) = &self.flight {
            flight
                .borrow_mut()
                .instant_at(at, target, kind, level, fields());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::shared_flight;
    use crate::metrics::shared_registry;

    #[test]
    fn quiet_bundle_swallows_events() {
        let sinks = ObsSinks::none();
        assert!(sinks.metrics().is_none() && sinks.flight().is_none());
        sinks.instant(SimTime::from_secs(1), "t", TraceLevel::Info, "k", || {
            vec![("x", Value::U64(1))]
        });
    }

    #[test]
    fn instant_lands_on_the_flight_timeline() {
        let flight = shared_flight(16);
        let sinks = ObsSinks::none().with_flight(flight.clone());
        assert!(sinks.flight().is_some());
        sinks.instant(
            SimTime::from_secs(2),
            "ctrl",
            TraceLevel::Info,
            "tick",
            || vec![("n", Value::U64(3))],
        );
        let rec = flight.borrow();
        assert_eq!(rec.counts_by_kind()[&("ctrl", "tick")], 1);
        let span = rec.spans().next().unwrap();
        assert_eq!(span.start, SimTime::from_secs(2));
        assert_eq!(span.fields, vec![("n", Value::U64(3))]);
    }

    #[test]
    fn metrics_only_bundle_never_builds_fields() {
        let sinks = ObsSinks::none().with_metrics(shared_registry());
        assert!(sinks.metrics().is_some());
        sinks.instant(SimTime::from_secs(1), "t", TraceLevel::Warn, "k", || {
            panic!("fields built without a flight recorder")
        });
    }

    #[test]
    fn bundles_compare_by_identity() {
        let flight = shared_flight(8);
        let a = ObsSinks::none().with_flight(flight.clone());
        assert_eq!(a, ObsSinks::none().with_flight(flight));
        assert_ne!(a, ObsSinks::none().with_flight(shared_flight(8)));
        assert_ne!(a, ObsSinks::none());
    }
}
