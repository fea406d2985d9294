//! `ic-obs`: structured tracing and metrics for the simulation stack.
//!
//! The paper's control plane (Fig. 14) runs entirely on telemetry —
//! Aperf/Pperf counters feeding Equation 1 — yet a reproduction is only
//! trustworthy if its *own* decisions are observable: which constraint
//! bound a governor grant, which Equation-1 inputs triggered a scale-up,
//! when a VM was created and where it landed. This crate is that layer:
//!
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of labeled counters,
//!   gauges, and constant-memory log-bin histograms (reusing
//!   [`ic_sim::hist::LogHistogram`]), with deterministic iteration order
//!   and a JSON snapshot.
//! * [`trace`] — the [`trace::TraceLevel`] severity scale and the
//!   `IC_OBS_LEVEL` filter ([`trace::LEVEL_ENV`]) every recorder honors.
//! * [`flight`] — the flight recorder, the crate's one event sink:
//!   deterministic *hierarchical* spans and instants
//!   ([`flight::FlightRecorder`])
//!   keyed by simulation time plus a recorder sequence number (never
//!   wall clock — two same-seed runs export byte-identical traces), with
//!   per-event-kind engine phases, submission-order merging of parallel
//!   sweep tasks, and three exporters — Chrome Trace Event JSON
//!   (loadable in Perfetto / `chrome://tracing`), JSONL, and a human
//!   self-time summary table backed by [`ic_sim::hist::LogHistogram`].
//! * [`sinks`] — the [`sinks::ObsSinks`] bundle: one value carrying
//!   the optional metrics/flight handles that every instrumented
//!   component attaches in one call, with a single
//!   [`sinks::ObsSinks::instant`] emit onto the flight timeline.
//! * [`engine_obs`] — adapters implementing
//!   [`ic_sim::observe::EngineObserver`] so the discrete-event engine
//!   feeds the registry ([`engine_obs::EngineMetrics`]) or the flight
//!   recorder ([`engine_obs::EngineSpans`]) without `ic-sim` depending
//!   on this crate.
//!
//! Everything is single-threaded (like the simulator) and heap-bounded;
//! the only code it uses beyond `std` is `ic-sim`.
//!
//! # Environment: `IC_OBS_LEVEL`
//!
//! The `IC_OBS_LEVEL` environment variable ([`trace::LEVEL_ENV`]) sets
//! the minimum recorded severity — `error`, `warn`, `info`, or `debug`
//! (case-insensitive) — for every recorder built through a `from_env`
//! constructor: [`flight::FlightRecorder::from_env`] and
//! [`flight::shared_flight_from_env`]. Unset or unparseable values keep
//! each recorder's default (`debug`: record everything). Hot loops can
//! therefore emit debug-level events unconditionally; a production run
//! sets `IC_OBS_LEVEL=info` and pays neither memory nor serialization
//! cost for them — suppressed events consume no sequence numbers, so a
//! filtered run is still byte-deterministic.
//!
//! # Example
//!
//! ```
//! use ic_obs::flight::FlightRecorder;
//! use ic_obs::json::Value;
//! use ic_obs::trace::TraceLevel;
//! use ic_sim::time::SimTime;
//!
//! let mut rec = FlightRecorder::new(1024);
//! rec.instant_at(
//!     SimTime::from_secs(3),
//!     "asc",
//!     "scale_out",
//!     TraceLevel::Info,
//!     vec![("active_vms", Value::U64(2)), ("util", Value::F64(0.61))],
//! );
//! let jsonl = rec.to_jsonl();
//! assert!(jsonl.contains("\"name\":\"scale_out\""));
//! assert!(jsonl.contains("\"start_ns\":3000000000"));
//! ```

pub mod engine_obs;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sinks;
pub mod trace;

pub use engine_obs::{EngineMetrics, EngineSpans};
pub use flight::{
    shared_flight, shared_flight_from_env, FlightHandle, FlightRecorder, Span, SpanKind, SpanToken,
};
pub use json::Value;
pub use metrics::{shared_registry, MetricsHandle, MetricsRegistry};
pub use sinks::ObsSinks;
pub use trace::TraceLevel;
