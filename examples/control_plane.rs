//! The unified control plane: auto-scaling, priority power capping,
//! the overclock governor, and virtual failover buffers all driving
//! one simulated fleet on one clock (paper Sections IV-VI).
//!
//! Each loop is a `Controller` registered with the `ControlPlane`
//! scheduler at its own cadence; a scripted mid-run server failure
//! exercises the failover path end to end.
//!
//! ```sh
//! cargo run --release --example control_plane
//! ```

use immersion_cloud::autoscale::asc::AutoScaler;
use immersion_cloud::autoscale::policy::{AscConfig, Policy};
use immersion_cloud::controlplane::controllers::{
    FailoverController, GovernorController, PowerCapController, ScriptController,
};
use immersion_cloud::controlplane::{Action, ControlPlane, FleetConfigBuilder, FleetWorld, World};
use immersion_cloud::core::governor::{GovernorConfig, OverclockGovernor};
use immersion_cloud::power::capping::PowerAllocator;
use immersion_cloud::power::cpu::CpuSku;
use immersion_cloud::power::units::Frequency;
use immersion_cloud::reliability::lifetime::CompositeLifetimeModel;
use immersion_cloud::reliability::stability::StabilityModel;
use immersion_cloud::sim::stats::Tally;
use immersion_cloud::sim::time::{SimDuration, SimTime};
use immersion_cloud::thermal::fluid::DielectricFluid;
use immersion_cloud::thermal::junction::ThermalInterface;

fn main() {
    println!("== one fleet, four control loops, one clock ==\n");

    // A small oversubscribed fleet: 4 immersed servers, a 500 W power
    // budget split across a critical and a batch domain, and a QPS
    // schedule that ramps 500 -> 1500 over ten minutes.
    let config = FleetConfigBuilder::small(42).build();
    let budget_w = config.budget_w;
    let last_s = config.schedule.last().map(|&(t, _)| t).unwrap_or(0.0);
    let end_s = last_s + 300.0;
    let (fail_at_s, repair_at_s) = (450.0, 750.0);
    println!(
        "fleet: {} servers, {:.0} W budget, horizon {end_s:.0} s",
        config.servers, budget_w
    );
    println!(
        "injected fault: server 0 fails at {fail_at_s:.0} s, repaired at {repair_at_s:.0} s\n"
    );

    let world = FleetWorld::new(config);
    let mut plane = ControlPlane::new(world);

    // The auto-scaler reacts fastest (scale-up-then-out, OC-A policy).
    let asc_cfg = AscConfig::paper();
    let asc_period = SimDuration::from_secs_f64(asc_cfg.decision_period_s);
    plane.register(Box::new(AutoScaler::new(asc_cfg, Policy::OcA)), asc_period);

    // Power capping re-plans every 30 s; the governor shares the
    // cadence and is registered after it so fresh grants land first.
    plane.register(
        Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
        SimDuration::from_secs(30),
    );
    let governor = OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    );
    let gov_id = plane.register(
        Box::new(GovernorController::new(
            governor,
            Frequency::from_ghz(4.1),
            Frequency::from_ghz(3.4),
        )),
        SimDuration::from_secs(30),
    );

    // The fault script injects the failure/repair; the failover
    // controller watches for it and boosts the survivors (the virtual
    // buffer of Section V).
    plane.register(
        Box::new(
            ScriptController::new(vec![
                (
                    SimTime::from_secs_f64(fail_at_s),
                    Action::FailServer { server: 0 },
                ),
                (
                    SimTime::from_secs_f64(repair_at_s),
                    Action::RepairServer { server: 0 },
                ),
            ])
            .expect("script events are time-sorted"),
        ),
        SimDuration::from_secs(15),
    );
    let fo_id = plane.register(
        Box::new(FailoverController::new(1.2)),
        SimDuration::from_secs(15),
    );

    plane.run_until(SimTime::from_secs_f64(end_s));

    println!(
        "after {:.0} s and {} control ticks:",
        end_s,
        plane.ticks_total()
    );
    let decision = plane
        .controller::<GovernorController>(gov_id)
        .and_then(|g| g.last_decision().cloned())
        .expect("governor ticked");
    let boosted = plane
        .controller::<FailoverController>(fo_id)
        .map(|f| f.boosted())
        .unwrap_or(false);

    let end = SimTime::from_secs_f64(end_s);
    let mut world = plane.into_world();
    print!("  power grants:");
    for (domain, watts) in world.grants() {
        print!(" domain {domain} -> {watts:.0} W;");
    }
    println!();
    println!(
        "  governor settled at {:.2} GHz on the squeezed grant (bound by {:?})",
        decision.frequency.ghz(),
        decision.binding
    );

    let mut latencies: Tally = world
        .sim_mut()
        .take_completions()
        .into_iter()
        .map(|(_, lat)| lat)
        .collect();
    let cluster = world
        .telemetry(end)
        .cluster
        .clone()
        .expect("fleet models placement");
    println!(
        "  served {} requests, P95 {:.1} ms",
        world.sim().completed_requests(),
        latencies.percentile(0.95) * 1e3
    );
    println!(
        "  end state: {} serving VMs, {} parked, {} failed servers, survivor boost {}",
        world.sim().active_vms().len(),
        world.parked().len(),
        cluster.failed_servers.len(),
        if boosted { "engaged" } else { "released" }
    );
    println!(
        "\nThe same wiring runs as a recorded experiment: \
         `cargo run --release -p ic-bench --bin run_all -- --only composed`."
    );
}
