//! Trace determinism: two same-seed runs must emit byte-identical
//! structured output.
//!
//! Flight-recorder spans and instants are keyed by simulation time plus
//! a recorder-assigned sequence number — never wall-clock — so the
//! Chrome-trace and JSONL exports of a seeded run are reproducible down
//! to the byte. Wall-clock only ever appears in metric histograms
//! (`ic-obs`'s `EngineMetrics` times handlers itself via
//! `EngineObserver::on_event_start`), which these tests deliberately
//! avoid asserting on.

use immersion_cloud::autoscale::policy::Policy;
use immersion_cloud::autoscale::runner::{ramp_schedule, Runner, RunnerConfig};
use immersion_cloud::obs::{shared_flight, shared_registry, FlightHandle, ObsSinks};

fn short_config() -> RunnerConfig {
    let mut config = RunnerConfig::paper();
    // A 500->1500 QPS ramp with 1-minute steps: long enough to trigger
    // scale-out and frequency decisions, short enough for a unit test.
    config.schedule = ramp_schedule(500.0, 1500.0, 500.0, 60.0);
    config
}

/// One fully instrumented run: the flight recorder plus the metrics
/// registry's JSON snapshot.
fn traced_run(policy: Policy, seed: u64) -> (FlightHandle, String) {
    let flight = shared_flight(1 << 16);
    let metrics = shared_registry();
    Runner::new(short_config(), policy, seed)
        .with_sinks(
            ObsSinks::none()
                .with_flight(flight.clone())
                .with_metrics(metrics.clone()),
        )
        .run();
    {
        let recorder = flight.borrow();
        assert!(!recorder.is_empty(), "run must record spans");
        assert_eq!(
            recorder.dropped(),
            0,
            "ring must not overflow in a short run"
        );
    }
    let metrics_json = metrics.borrow().to_json();
    (flight, metrics_json)
}

/// Both exports of a run: `(chrome, jsonl)`.
fn exports(policy: Policy, seed: u64) -> (String, String) {
    let (flight, _) = traced_run(policy, seed);
    let recorder = flight.borrow();
    (recorder.to_chrome_trace(), recorder.to_jsonl())
}

#[test]
fn same_seed_runs_emit_identical_jsonl() {
    let (_, a) = exports(Policy::OcA, 42);
    let (_, b) = exports(Policy::OcA, 42);
    assert_eq!(a, b, "JSONL exports diverged");
    // The auto-scaler's decision instants land in the JSONL stream.
    assert!(a.contains("\"target\":\"asc\""), "{a}");
}

#[test]
fn same_seed_runs_emit_identical_chrome_traces() {
    let (a, _) = exports(Policy::OcA, 42);
    let (b, _) = exports(Policy::OcA, 42);
    assert_eq!(a, b, "Chrome-trace exports diverged");
    // The export carries the expected track structure.
    assert!(a.contains("\"traceEvents\":["));
    assert!(a.contains("\"displayTimeUnit\":\"ms\""));
    assert!(a.contains("\"name\":\"run\""));
}

#[test]
fn same_seed_runs_emit_identical_metric_snapshots() {
    let (_, a) = traced_run(Policy::OcE, 7);
    let (_, b) = traced_run(Policy::OcE, 7);
    assert_eq!(a, b, "metric snapshots diverged");
    assert!(a.contains("asc_decisions_total{step}"));
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the byte-equality above is not vacuous: the
    // trace actually depends on the stochastic workload.
    let (_, a) = exports(Policy::OcA, 1);
    let (_, b) = exports(Policy::OcA, 2);
    assert_ne!(
        a, b,
        "flight instants must depend on the stochastic workload"
    );
}

#[test]
fn different_seed_flight_traces_diverge() {
    let (a, _) = exports(Policy::OcA, 1);
    let (b, _) = exports(Policy::OcA, 2);
    assert_ne!(a, b, "flight spans must depend on the stochastic workload");
}

#[test]
fn traces_never_contain_wall_clock_fields() {
    let (chrome, jsonl) = exports(Policy::OcA, 42);
    for line in chrome.lines().chain(jsonl.lines()) {
        assert!(
            !line.contains("wall"),
            "wall-clock leaked into trace: {line}"
        );
    }
}
