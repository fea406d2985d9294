//! The chaos, degradation, and stall controllers.
//!
//! * [`ChaosController`] drives a [`FaultProcess`] from live fleet
//!   telemetry: each tick it derives the fleet's physical operating
//!   point (V, Tj) from the current frequency ratio, accrues hazard,
//!   and turns crossings into [`Action::FailServer`] /
//!   [`Action::InjectErrorBurst`] actuations — plus the matching
//!   [`Action::RepairServer`] once the drawn repair delay elapses.
//! * [`DegradationController`] is the response side: watch the fault
//!   telemetry, de-overclock the fleet when the correctable-error rate
//!   spikes, and proactively drain (fail over) a server whose own
//!   counters burst — the paper's "watch the rate of change of
//!   correctable errors" mitigation, closed-loop.
//! * [`StalledController`] wraps any controller and suppresses its
//!   ticks inside configured windows — the "stalled controller"
//!   control-plane fault.

use crate::process::{FaultEvent, FaultProcess};
use ic_controlplane::{Action, Controller, FreqTarget, TelemetrySnapshot};
use ic_power::cpu::CpuSku;
use ic_power::units::{Frequency, Voltage};
use ic_reliability::lifetime::OperatingConditions;
use ic_scenario::FaultWindow;
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::junction::ThermalInterface;

/// Turns wear-model crossings into control-plane actions, keyed to the
/// fleet's actual V/f/Tj trajectory.
pub struct ChaosController {
    process: FaultProcess,
    sku: CpuSku,
    iface: ThermalInterface,
    base: Frequency,
    voltage_offset_v: f64,
    last_now: SimTime,
    /// Pending repair instants for servers this controller failed.
    repair_due: Vec<Option<SimTime>>,
    /// The last derived operating point, keyed by exact ratio — the
    /// governor's change suppression means the ratio moves rarely.
    op_cache: Option<(f64, OperatingConditions)>,
    failures: u64,
    bursts: u64,
}

impl ChaosController {
    /// A chaos controller over `process`, deriving operating points
    /// from `sku` in `iface`. `base` is the frequency that telemetry
    /// ratio 1.0 refers to; `voltage_offset_v` is added on top of the
    /// V/f curve (the paper's overclocked configs pin +50 mV).
    pub fn new(
        process: FaultProcess,
        sku: CpuSku,
        iface: ThermalInterface,
        base: Frequency,
        voltage_offset_v: f64,
    ) -> Self {
        let servers = process.len();
        ChaosController {
            process,
            sku,
            iface,
            base,
            voltage_offset_v,
            last_now: SimTime::ZERO,
            repair_due: vec![None; servers],
            op_cache: None,
            failures: 0,
            bursts: 0,
        }
    }

    /// Failures injected so far.
    pub fn failures_injected(&self) -> u64 {
        self.failures
    }

    /// Error bursts injected so far.
    pub fn bursts_injected(&self) -> u64 {
        self.bursts
    }

    /// The physical operating point at a frequency ratio: voltage off
    /// the sku's V/f curve plus the configured offset, junction
    /// temperature from the solved steady state, Tj swing floor at the
    /// cooling medium's reference temperature.
    fn conditions_for(&mut self, ratio: f64) -> OperatingConditions {
        if let Some((r, cond)) = &self.op_cache {
            if *r == ratio {
                return *cond;
            }
        }
        let freq = Frequency::from_ghz(self.base.ghz() * ratio.max(0.1));
        let volts = self.sku.voltage_for(freq).volts() + self.voltage_offset_v;
        let steady = self
            .sku
            .steady_state(&self.iface, freq, Voltage::from_volts(volts));
        let cond = OperatingConditions::new(volts, steady.tj_c, self.iface.reference_temp_c());
        self.op_cache = Some((ratio, cond));
        cond
    }
}

impl Controller for ChaosController {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let now = snapshot.now;
        let dt_s = (now - self.last_now).as_secs_f64();
        self.last_now = now;
        let ratio = snapshot
            .faults
            .as_ref()
            .map(|f| f.fleet_ratio)
            .unwrap_or(1.0);
        let cond = self.conditions_for(ratio);
        let mut actions = Vec::new();
        for server in 0..self.process.len() {
            if let Some(due) = self.repair_due[server] {
                if now >= due {
                    self.repair_due[server] = None;
                    self.process.repair(server);
                    actions.push(Action::RepairServer { server });
                }
                continue;
            }
            for event in self.process.advance(server, &cond, ratio, dt_s) {
                match event {
                    FaultEvent::ErrorBurst { server, count } => {
                        self.bursts += 1;
                        actions.push(Action::InjectErrorBurst { server, count });
                    }
                    FaultEvent::Failure { server } => {
                        self.failures += 1;
                        let delay = self.process.repair_delay_s(server);
                        self.repair_due[server] = Some(now + SimDuration::from_secs_f64(delay));
                        actions.push(Action::FailServer { server });
                    }
                }
            }
        }
        actions
    }

    ic_controlplane::impl_controller_downcast!();
}

/// Thresholds and responses for [`DegradationController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Fleet-wide correctable errors in one tick window that trigger
    /// the de-overclock.
    pub fleet_errors_per_tick: u64,
    /// Errors on a single server in one tick window that trigger a
    /// proactive drain of that server.
    pub server_burst_errors: u64,
    /// The frequency ratio to fall back to when de-overclocking
    /// (1.0 = base clock).
    pub deoc_ratio: f64,
    /// How long a drained server stays out of rotation.
    pub drain_cooldown_s: f64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            fleet_errors_per_tick: 6,
            server_burst_errors: 4,
            deoc_ratio: 1.0,
            drain_cooldown_s: 120.0,
        }
    }
}

/// Graceful degradation: de-overclock on a fleet-wide error-rate
/// spike (held with hysteresis — the response stays armed-off while
/// errors keep arriving and re-arms after a fully quiet tick, so every
/// spike gets a brake, not just the first) and drain individual
/// servers whose counters burst, returning them after a cooldown.
/// Failover boost and VM re-placement stay the `FailoverController`'s
/// job; this controller only decides *when* a server should leave the
/// rotation early.
pub struct DegradationController {
    policy: DegradationPolicy,
    last_errors: Vec<u64>,
    last_total: u64,
    deoc_latched: bool,
    deocs: u32,
    drains: u32,
    drain_due: Vec<Option<SimTime>>,
}

impl DegradationController {
    /// A degradation controller with `policy`.
    pub fn new(policy: DegradationPolicy) -> Self {
        DegradationController {
            policy,
            last_errors: Vec::new(),
            last_total: 0,
            deoc_latched: false,
            deocs: 0,
            drains: 0,
            drain_due: Vec::new(),
        }
    }

    /// De-overclock actions issued (one per distinct error spike —
    /// the response re-arms after a quiet tick).
    pub fn deocs(&self) -> u32 {
        self.deocs
    }

    /// Proactive server drains issued.
    pub fn drains(&self) -> u32 {
        self.drains
    }
}

impl Controller for DegradationController {
    fn name(&self) -> &'static str {
        "degradation"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let Some(faults) = &snapshot.faults else {
            return Vec::new();
        };
        let now = snapshot.now;
        let servers = faults.errors_by_server.len();
        self.last_errors.resize(servers, 0);
        self.drain_due.resize(servers, None);

        let mut actions = Vec::new();
        for server in 0..servers {
            if let Some(due) = self.drain_due[server] {
                if now >= due {
                    self.drain_due[server] = None;
                    actions.push(Action::RepairServer { server });
                }
            }
        }

        let already_down = |server: usize| {
            snapshot
                .cluster
                .as_ref()
                .is_some_and(|c| c.failed_servers.contains(&server))
        };
        let total: u64 = faults.errors_by_server.iter().sum();
        for (server, (&current, last)) in faults
            .errors_by_server
            .iter()
            .zip(self.last_errors.iter_mut())
            .enumerate()
        {
            let delta = current.saturating_sub(*last);
            *last = current;
            if delta >= self.policy.server_burst_errors
                && self.drain_due[server].is_none()
                && !already_down(server)
            {
                self.drains += 1;
                self.drain_due[server] =
                    Some(now + SimDuration::from_secs_f64(self.policy.drain_cooldown_s));
                actions.push(Action::FailServer { server });
            }
        }
        let delta_total = total.saturating_sub(self.last_total);
        self.last_total = total;
        if self.deoc_latched {
            // Hysteresis: hold while errors keep arriving, re-arm only
            // after a fully quiet tick.
            if delta_total == 0 {
                self.deoc_latched = false;
            }
        } else if delta_total >= self.policy.fleet_errors_per_tick {
            self.deoc_latched = true;
            self.deocs += 1;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: self.policy.deoc_ratio,
            });
        }
        actions
    }

    ic_controlplane::impl_controller_downcast!();
}

/// Wraps a controller and suppresses its ticks inside stall windows —
/// the controller simply does not decide while stalled (its `applied`
/// notifications still flow, matching a wedged decision loop whose
/// actuation callbacks keep arriving).
pub struct StalledController {
    inner: Box<dyn Controller>,
    windows: Vec<(SimTime, SimTime)>,
    stalled_ticks: u64,
}

impl StalledController {
    /// Wraps `inner`, stalling it inside each `[from, until)` window.
    pub fn new(inner: Box<dyn Controller>, windows: Vec<(SimTime, SimTime)>) -> Self {
        StalledController {
            inner,
            windows,
            stalled_ticks: 0,
        }
    }

    /// Wraps `inner` using scenario-level fault windows.
    pub fn from_windows(inner: Box<dyn Controller>, windows: &[FaultWindow]) -> Self {
        Self::new(
            inner,
            windows
                .iter()
                .map(|w| {
                    (
                        SimTime::from_secs_f64(w.from_s),
                        SimTime::from_secs_f64(w.until_s),
                    )
                })
                .collect(),
        )
    }

    /// Ticks swallowed by stall windows so far.
    pub fn stalled_ticks(&self) -> u64 {
        self.stalled_ticks
    }

    /// Downcasts the wrapped controller.
    pub fn inner_as<T: 'static>(&self) -> Option<&T> {
        self.inner.as_any().downcast_ref()
    }
}

impl Controller for StalledController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let now = snapshot.now;
        if self
            .windows
            .iter()
            .any(|&(from, until)| from <= now && now < until)
        {
            self.stalled_ticks += 1;
            return Vec::new();
        }
        self.inner.observe(snapshot)
    }

    fn applied(
        &mut self,
        now: SimTime,
        action: &Action,
        outcome: &ic_controlplane::Outcome,
    ) -> Vec<Action> {
        self.inner.applied(now, action, outcome)
    }

    ic_controlplane::impl_controller_downcast!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_controlplane::telemetry::FaultTelemetry;

    fn snap_with_faults(
        now_s: u64,
        fleet_ratio: f64,
        errors_by_server: Vec<u64>,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::at(SimTime::from_secs(now_s));
        snap.faults = Some(FaultTelemetry {
            version: 0,
            fleet_ratio,
            error_bursts: 0,
            errors_by_server,
        });
        snap
    }

    #[test]
    fn degradation_deocs_once_on_fleet_spike() {
        let mut d = DegradationController::new(DegradationPolicy {
            fleet_errors_per_tick: 5,
            server_burst_errors: 100,
            deoc_ratio: 1.0,
            drain_cooldown_s: 60.0,
        });
        assert!(d.observe(&snap_with_faults(10, 1.2, vec![1, 1])).is_empty());
        let actions = d.observe(&snap_with_faults(20, 1.2, vec![4, 4]));
        assert_eq!(
            actions,
            vec![Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: 1.0
            }]
        );
        assert_eq!(d.deocs(), 1);
        // Latched: an even bigger spike does not re-issue.
        assert!(d
            .observe(&snap_with_faults(30, 1.0, vec![40, 40]))
            .is_empty());
    }

    #[test]
    fn degradation_drains_and_returns_a_bursting_server() {
        let mut d = DegradationController::new(DegradationPolicy {
            fleet_errors_per_tick: 1000,
            server_burst_errors: 3,
            deoc_ratio: 1.0,
            drain_cooldown_s: 50.0,
        });
        assert!(d.observe(&snap_with_faults(10, 1.2, vec![0, 0])).is_empty());
        let actions = d.observe(&snap_with_faults(20, 1.2, vec![0, 5]));
        assert_eq!(actions, vec![Action::FailServer { server: 1 }]);
        assert_eq!(d.drains(), 1);
        // Still inside the cooldown: nothing new even if errors repeat.
        assert!(d.observe(&snap_with_faults(40, 1.2, vec![0, 9])).is_empty());
        // Past the cooldown the server returns.
        let actions = d.observe(&snap_with_faults(70, 1.2, vec![0, 9]));
        assert_eq!(actions, vec![Action::RepairServer { server: 1 }]);
    }

    #[test]
    fn degradation_skips_servers_already_down() {
        let mut d = DegradationController::new(DegradationPolicy {
            fleet_errors_per_tick: 1000,
            server_burst_errors: 2,
            deoc_ratio: 1.0,
            drain_cooldown_s: 50.0,
        });
        let mut snap = snap_with_faults(10, 1.2, vec![5, 0]);
        snap.cluster = Some(ic_controlplane::ClusterTelemetry {
            healthy_servers: 1,
            failed_servers: vec![0],
            packing_density: 1.0,
            parked_vms: Vec::new(),
        });
        assert!(d.observe(&snap).is_empty(), "server 0 is already down");
    }

    #[test]
    fn stalled_controller_swallows_ticks_in_window() {
        struct Counter(u32);
        impl Controller for Counter {
            fn name(&self) -> &'static str {
                "counter"
            }
            fn observe(&mut self, _: &TelemetrySnapshot) -> Vec<Action> {
                self.0 += 1;
                vec![Action::SetShare { share: 1.0 }]
            }
            ic_controlplane::impl_controller_downcast!();
        }
        let mut stalled = StalledController::new(
            Box::new(Counter(0)),
            vec![(SimTime::from_secs(10), SimTime::from_secs(20))],
        );
        assert_eq!(stalled.name(), "counter");
        assert_eq!(
            stalled
                .observe(&TelemetrySnapshot::at(SimTime::from_secs(5)))
                .len(),
            1
        );
        assert!(stalled
            .observe(&TelemetrySnapshot::at(SimTime::from_secs(10)))
            .is_empty());
        assert!(stalled
            .observe(&TelemetrySnapshot::at(SimTime::from_secs(19)))
            .is_empty());
        assert_eq!(stalled.stalled_ticks(), 2);
        // Window end is exclusive.
        assert_eq!(
            stalled
                .observe(&TelemetrySnapshot::at(SimTime::from_secs(20)))
                .len(),
            1
        );
        let inner = stalled.inner_as::<Counter>().expect("downcast");
        assert_eq!(inner.0, 2);
    }
}
