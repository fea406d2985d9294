//! The benchmark's self-tests: the probes are transparent, the checks
//! reject corrupted records, and the output matches `BENCHMARK.json`.
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use crate::layers::{self, Summary};
use crate::probe::{Depth, Recorder, TimedController, TimedWorld};
use crate::workloads::{
    check_chaos_churn, check_fleet_cap, check_serve_ramp, run_replica, Mode, Replica, Workload,
    WorldRun,
};
use crate::{parse_args, result_line, Metric, Verdicts, END_TO_END};
use ic_controlplane::controllers::{GovernorController, PowerCapController};
use ic_controlplane::{ControlPlane, Controller, FleetConfigBuilder, FleetWorld};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_power::capping::PowerAllocator;
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::CompositeLifetimeModel;
use ic_reliability::stability::StabilityModel;
use ic_scenario::json::{self, Json};
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;

fn serve_ramp_world(mode: Mode) -> WorldRun {
    let mut r = run_replica(Workload::ServeRamp, 7, mode);
    assert_eq!(r.check, Ok(()));
    r.worlds.remove(0)
}

#[test]
fn timed_controller_forwards_name_and_downcasts() {
    let rec = Recorder::shared(Depth::Layers, 64);
    let config = FleetConfigBuilder::small(3).build();
    let budget_w = config.budget_w;
    let mut plane = ControlPlane::new(TimedWorld::new(FleetWorld::new(config), rec.clone()));
    let governor = OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    );
    let cap: Box<dyn Controller> = Box::new(TimedController::new(
        Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
        rec.clone(),
    ));
    assert_eq!(cap.name(), "powercap");
    let cap_id = plane.register(cap, SimDuration::from_secs(30));
    let gov_id = plane.register(
        Box::new(TimedController::new(
            Box::new(GovernorController::new(
                governor,
                Frequency::from_ghz(4.1),
                Frequency::from_ghz(3.4),
            )),
            rec.clone(),
        )),
        SimDuration::from_secs(30),
    );
    plane.run_until(SimTime::from_secs(120));

    assert!(plane.controller::<PowerCapController>(cap_id).is_some());
    assert!(plane.controller::<TimedController>(gov_id).is_none());
    let gov = plane
        .controller_mut::<GovernorController>(gov_id)
        .expect("the wrapper forwards as_any_mut");
    assert!(gov.last_decision().is_some());
    drop(plane);
    let rec = rec.borrow();
    assert_eq!(rec.observe[1].calls, 4, "powercap ticked every 30 s");
    assert_eq!(rec.observe[2].calls, 4, "governor ticked every 30 s");
    assert_eq!(rec.step_ns.len(), 8);
    assert!(rec.advance.calls >= 4);
}

#[test]
fn wrapped_runs_reproduce_the_bare_digest() {
    let bare = run_replica(Workload::ServeRamp, 5, Mode::Bare);
    assert_eq!(bare.check, Ok(()));
    for mode in [Mode::Steps, Mode::Layers(1_000), Mode::Layers(0)] {
        let wrapped = run_replica(Workload::ServeRamp, 5, mode);
        assert_eq!(wrapped.check, Ok(()), "{mode:?}");
        assert_eq!(
            wrapped.digest, bare.digest,
            "{mode:?} changed the simulation"
        );
        assert_eq!(wrapped.worlds[0].stats, bare.worlds[0].stats, "{mode:?}");
    }
}

#[test]
fn parallel_fleets_are_deterministic_and_wrappable() {
    let bare = run_replica(Workload::ChaosChurn, 2, Mode::Bare);
    assert_eq!(bare.check, Ok(()));
    let traced = run_replica(Workload::ChaosChurn, 2, Mode::Layers(100));
    assert_eq!(traced.digest, bare.digest);
    let s = Summary::of(&traced);
    assert_eq!(
        s.stats.chaos_failures,
        bare.worlds
            .iter()
            .map(|w| w.stats.chaos_failures)
            .sum::<u64>()
    );
    assert!(
        s.rec.apply[crate::probe::verb_index(&ic_controlplane::Action::FailServer { server: 0 })]
            .calls
            > 0
    );
    assert_eq!(s.spans, 200, "two worlds, 100 kept spans each");
    assert!(s.rec.spans_dropped > 0);
}

#[test]
fn different_seeds_simulate_different_inputs() {
    let a = run_replica(Workload::ServeRamp, 1, Mode::Bare);
    let b = run_replica(Workload::ServeRamp, 2, Mode::Bare);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn serve_ramp_check_rejects_corrupted_records() {
    let good = serve_ramp_world(Mode::Bare);
    assert_eq!(check_serve_ramp(&good), Ok(()));
    let corruptions: [fn(&mut WorldRun); 5] = [
        |w| w.stats.completed = 0,
        |w| w.stats.cp_ticks += 1,
        |w| w.stats.governor_ghz = Some(4.2),
        |w| w.stats.governor_ghz = None,
        |w| w.stats.failed_end = 1,
    ];
    for (i, corrupt) in corruptions.iter().enumerate() {
        let mut bad = good.clone();
        corrupt(&mut bad);
        assert!(check_serve_ramp(&bad).is_err(), "corruption {i} passed");
    }
}

#[test]
fn fleet_cap_check_rejects_corrupted_records() {
    let mut good = serve_ramp_world(Mode::Bare);
    good.stats.bins = 4;
    good.stats.demand_refreshes = 2;
    good.stats.cache_misses = 12;
    let ghz = good.stats.governor_ghz;
    assert_eq!(check_fleet_cap(&good, &ghz), Ok(()));
    assert!(check_fleet_cap(&good, &ghz.map(|g| g - 0.1)).is_err());
    assert!(check_fleet_cap(&good, &None).is_err());
    let mut bad = good.clone();
    bad.stats.cache_misses = 13;
    assert!(check_fleet_cap(&bad, &ghz).is_err());
}

#[test]
fn chaos_check_rejects_broken_coupling() {
    let base = serve_ramp_world(Mode::Bare);
    let mut b2 = base.clone();
    let mut oc3 = base;
    b2.label = "b2";
    oc3.label = "oc3";
    b2.stats.chaos_failures = 10;
    oc3.stats.chaos_failures = 12;
    b2.stats.availability = 0.95;
    oc3.stats.availability = 0.90;
    assert_eq!(check_chaos_churn(&b2, &oc3), Ok(()));
    let mut fewer = oc3.clone();
    fewer.stats.chaos_failures = 9;
    assert!(check_chaos_churn(&b2, &fewer).is_err());
    let mut healthier = oc3.clone();
    healthier.stats.availability = 0.96;
    assert!(check_chaos_churn(&b2, &healthier).is_err());
    let mut impossible = oc3;
    impossible.stats.availability = -0.1;
    assert!(check_chaos_churn(&b2, &impossible).is_err());
}

#[test]
fn verdicts_fail_panics_checks_and_digest_drift() {
    let replica = run_replica(Workload::ServeRamp, 9, Mode::Bare);
    let mut v = Verdicts::new();
    assert!(v.judge(Ok(replica.clone())).is_some());
    assert!(v.judge(Ok(replica.clone())).is_some());
    let drifted = Replica {
        digest: replica.digest ^ 1,
        ..replica.clone()
    };
    assert!(v.judge(Ok(drifted)).is_none());
    let broken = Replica {
        check: Err("corrupted".into()),
        ..replica
    };
    assert!(v.judge(Ok(broken)).is_none());
    assert!(v.judge(Err("replica panicked".into())).is_none());
    assert_eq!((v.attempted, v.failed), (5, 3));
}

#[test]
fn digest_ignores_event_counts_but_not_outcomes() {
    let w = serve_ramp_world(Mode::Bare);
    let mut coalesced = w.stats.clone();
    coalesced.sim_events /= 2;
    coalesced.cp_events += 1;
    assert_eq!(coalesced.digest("fleet"), w.stats.digest("fleet"));
    let mut moved = w.stats.clone();
    moved.p95_s = f64::from_bits(moved.p95_s.to_bits() + 1);
    assert_ne!(moved.digest("fleet"), w.stats.digest("fleet"));
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let ok = args("--workload fleet_cap --seed 4 --seconds 2 --trace 1").expect("valid");
    assert_eq!(ok.workload, Workload::FleetCap);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2.0, true));
    for bad in [
        "",
        "--workload nope",
        "--workload serve_ramp --trace 2",
        "--workload serve_ramp --seconds 0",
        "--workload serve_ramp --seed",
        "--workload serve_ramp --bogus 1",
    ] {
        assert!(args(bad).is_err(), "{bad:?} accepted");
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, section: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("{section} is an array");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("bad name {other:?}"),
        })
        .collect()
}

#[test]
fn output_matches_benchmark_json() {
    let spec = benchmark_json();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&spec, "end_to_end"), e2e);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&spec, "workloads"), workloads);

    let traced = run_replica(Workload::ServeRamp, 3, Mode::Layers(0));
    let summary = Summary::of(&traced);
    let per_layer: Vec<String> = layers::metrics(&[summary], 0.0)
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    assert_eq!(names(&spec, "per_layer"), per_layer);
}

#[test]
fn result_line_has_the_documented_json_shape() {
    let metrics = [
        Metric {
            name: "sim_speedup".into(),
            value: 1234.5,
            unit: "x",
        },
        Metric {
            name: "dropped".into(),
            value: f64::NAN,
            unit: "s",
        },
    ];
    let line = json::parse(&result_line(true, 3, 0, &metrics)).expect("valid JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("attempted"), Some(&Json::Num(3.0)));
    assert_eq!(line.get("failed"), Some(&Json::Num(0.0)));
    let Some(Json::Obj(ms)) = line.get("metrics") else {
        panic!("metrics object");
    };
    assert_eq!(ms.len(), 1, "non-finite values are left out");
    assert_eq!(
        ms[0].1.get("value"),
        Some(&Json::Num(1234.5)),
        "values keep every digit"
    );
}

#[test]
fn probe_name_tables_agree() {
    use crate::probe::{verb_index, Call, CONTROLLERS, VERBS};
    use ic_controlplane::{Action, FreqTarget};
    let t = SimTime::ZERO;
    let d = SimDuration::from_secs(1);
    let actions = [
        Action::ScaleOut {
            latency: d,
            interference: 0.0,
        },
        Action::ScaleIn { vm: 0 },
        Action::SetFrequency {
            target: FreqTarget::Fleet,
            ratio: 1.0,
        },
        Action::SetShare { share: 1.0 },
        Action::GrantPower {
            domain: 0,
            watts: 1.0,
        },
        Action::RevokePower { domain: 0 },
        Action::Migrate { vm: 0 },
        Action::FailServer { server: 0 },
        Action::RepairServer { server: 0 },
        Action::InjectErrorBurst {
            server: 0,
            count: 1,
        },
        Action::FreezeTelemetry { until: t },
        Action::DropVmSensor { vm: 0, until: t },
    ];
    assert_eq!(actions.len(), VERBS.len());
    for a in &actions {
        let v = verb_index(a);
        assert_eq!(VERBS[v], a.verb());
        assert_eq!(
            Call::Apply(v as u8).names().1,
            format!("apply.{}", a.verb())
        );
    }
    for (c, name) in CONTROLLERS.iter().enumerate() {
        assert_eq!(Call::Observe(c as u8).names().0, format!("ctl.{name}"));
    }
}
