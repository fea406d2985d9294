//! Ports of the previously free-standing control loops onto
//! [`Controller`].
//!
//! Each wraps the domain logic that already lives in its home crate —
//! [`OverclockGovernor`] (ic-core), [`PowerAllocator`] (ic-power) —
//! and adapts it to the observe/decide cycle: read the relevant
//! telemetry section, run the existing algorithm, emit typed
//! [`Action`]s. Two smaller loops round out the set: a scripted fault
//! injector (deterministic chaos) and a failover controller
//! implementing the paper's *virtual buffer* — boost the survivors
//! instead of reserving idle hardware.

use crate::action::{Action, FreqTarget};
use crate::controller::Controller;
use crate::telemetry::{DomainPower, TelemetrySnapshot};
use ic_core::governor::{GovernorDecision, OverclockGovernor};
use ic_power::capping::{PowerAllocator, PowerRequest};
use ic_power::units::Frequency;
use ic_sim::time::SimTime;
use std::fmt;

/// Ratios closer than this are "the same frequency" — matches the
/// epsilon the auto-scaler has always used for change suppression.
const RATIO_EPS: f64 = 1e-12;

/// The overclock governor as a controller: each tick it re-derives the
/// highest safe frequency from the stability / lifetime / power
/// ceilings (power from the capping controller's latest grant, seen
/// through telemetry) and emits a fleet-wide [`Action::SetFrequency`]
/// whenever the safe bin changes.
pub struct GovernorController {
    governor: OverclockGovernor,
    /// The frequency the workload wants (typically the stability
    /// ceiling: "as fast as safely possible").
    requested: Frequency,
    /// The base bin ratios are expressed against.
    base: Frequency,
    last_ratio: f64,
    last_decision: Option<GovernorDecision>,
    /// The power-section version the last decision was derived from.
    /// The decision is a pure function of that section (plus fixed
    /// controller state), so an unchanged version means an unchanged
    /// decision — and the change-suppressed action set is empty.
    last_power_version: Option<u64>,
}

impl GovernorController {
    /// Wraps `governor`, requesting `requested` each tick, with ratios
    /// expressed against `base`. The governor's ceiling-search ladder
    /// is batch-prewarmed so the first tick pays no per-point solves.
    pub fn new(governor: OverclockGovernor, requested: Frequency, base: Frequency) -> Self {
        governor.prewarm();
        GovernorController {
            governor,
            requested,
            base,
            last_ratio: 1.0,
            last_decision: None,
            last_power_version: None,
        }
    }

    /// The most recent decision, if any tick has run.
    pub fn last_decision(&self) -> Option<&GovernorDecision> {
        self.last_decision.as_ref()
    }

    /// The watts this controller's socket may draw: the smallest grant
    /// across power domains, or `f64::MAX` when the world models no
    /// power delivery (the power ceiling then never binds).
    fn granted_w(snapshot: &TelemetrySnapshot) -> f64 {
        snapshot
            .power
            .as_ref()
            .map(|p| {
                p.domains
                    .iter()
                    .map(|d| d.granted_w)
                    .fold(f64::MAX, f64::min)
            })
            .unwrap_or(f64::MAX)
    }
}

impl Controller for GovernorController {
    fn name(&self) -> &'static str {
        "governor"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        if let Some(p) = &snapshot.power {
            if self.last_power_version == Some(p.version) {
                // Same inputs as last tick ⇒ same decision ⇒ the ratio
                // cannot have moved ⇒ no actions, without rescanning
                // the domains or re-deriving the ceilings.
                return Vec::new();
            }
            self.last_power_version = Some(p.version);
        }
        let granted_w = Self::granted_w(snapshot);
        let decision = self.governor.decide(self.requested, granted_w);
        let ratio = decision.frequency.ratio_to(self.base);
        self.last_decision = Some(decision);
        if (ratio - self.last_ratio).abs() > RATIO_EPS {
            self.last_ratio = ratio;
            vec![Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio,
            }]
        } else {
            Vec::new()
        }
    }

    crate::impl_controller_downcast!();
}

/// Priority-aware power capping as a controller: each tick it re-plans
/// the [`PowerAllocator`] over the power domains' current demand and
/// emits [`Action::GrantPower`] for every domain whose grant moved.
///
/// A tick is two sequential passes over the domain rows — one to plan,
/// one to diff each row's grant against the plan — with nothing
/// materialised per domain.
pub struct PowerCapController {
    allocator: PowerAllocator,
    /// See [`GovernorController::last_power_version`]: the allocation
    /// is a pure function of the power section, so an unchanged
    /// version short-circuits the whole scan.
    last_power_version: Option<u64>,
}

impl PowerCapController {
    /// A capping controller enforcing `allocator`'s budget.
    pub fn new(allocator: PowerAllocator) -> Self {
        PowerCapController {
            allocator,
            last_power_version: None,
        }
    }

    /// The enforced budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.allocator.budget_w()
    }
}

/// The capping request a power row stands for.
fn request(row: &DomainPower) -> PowerRequest {
    PowerRequest {
        id: row.domain,
        priority: row.priority,
        floor_w: row.floor_w,
        demand_w: row.demand_w,
    }
}

impl Controller for PowerCapController {
    fn name(&self) -> &'static str {
        "powercap"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let Some(power) = &snapshot.power else {
            return Vec::new();
        };
        if self.last_power_version == Some(power.version) {
            return Vec::new();
        }
        self.last_power_version = Some(power.version);
        let plan = self
            .allocator
            .try_plan(power.domains.iter().map(request))
            .unwrap_or_else(|e| panic!("{e}"));
        power
            .domains
            .iter()
            .filter_map(|row| {
                let watts = plan.grant(&request(row)).granted_w;
                (row.granted_w != watts).then_some(Action::GrantPower {
                    domain: row.domain,
                    watts,
                })
            })
            .collect()
    }

    crate::impl_controller_downcast!();
}

/// A [`ScriptController`] construction error: the script's entries were
/// not in non-decreasing time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptError {
    /// Index of the first entry whose time precedes its predecessor's.
    pub index: usize,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "script entry {} is earlier than its predecessor: entries must be sorted by time",
            self.index
        )
    }
}

impl std::error::Error for ScriptError {}

/// Deterministic fault injection: a fixed script of `(at, action)`
/// pairs, each fired at the first tick at or after its time. Used to
/// inject server failures and repairs into composed experiments
/// without any randomness outside the seeded workload.
#[derive(Debug)]
pub struct ScriptController {
    script: Vec<(SimTime, Action)>,
    next: usize,
}

impl ScriptController {
    /// A script controller; entries must be in non-decreasing time
    /// order, else this returns [`ScriptError`] naming the first
    /// out-of-order entry.
    pub fn new(script: Vec<(SimTime, Action)>) -> Result<Self, ScriptError> {
        if let Some(pos) = script.windows(2).position(|w| w[0].0 > w[1].0) {
            return Err(ScriptError { index: pos + 1 });
        }
        Ok(ScriptController { script, next: 0 })
    }
}

impl Controller for ScriptController {
    fn name(&self) -> &'static str {
        "script"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let mut actions = Vec::new();
        while self.next < self.script.len() && self.script[self.next].0 <= snapshot.now {
            actions.push(self.script[self.next].1.clone());
            self.next += 1;
        }
        actions
    }

    crate::impl_controller_downcast!();
}

/// The paper's virtual buffer as a controller: when servers fail, boost
/// the survivors' frequency to absorb the lost capacity instead of
/// holding idle spares; while failed-over VMs remain unplaced, keep
/// asking the world to migrate them back as capacity returns, and drop
/// the boost once the fleet is whole again.
pub struct FailoverController {
    boost_ratio: f64,
    restore_ratio: f64,
    boosted: bool,
}

impl FailoverController {
    /// A failover controller that boosts survivors to `boost_ratio`
    /// (e.g. 1.2 = +20 %) while any server is down.
    pub fn new(boost_ratio: f64) -> Self {
        Self::with_restore(boost_ratio, 1.0)
    }

    /// Like [`FailoverController::new`], but when the fleet heals the
    /// frequency returns to `restore_ratio` instead of base — pass the
    /// governor's standing grant so a failover cycle does not silently
    /// de-overclock a fleet whose governor only re-issues on change.
    pub fn with_restore(boost_ratio: f64, restore_ratio: f64) -> Self {
        FailoverController {
            boost_ratio,
            restore_ratio,
            boosted: false,
        }
    }

    /// Whether the survivor boost is currently engaged.
    pub fn boosted(&self) -> bool {
        self.boosted
    }
}

impl Controller for FailoverController {
    fn name(&self) -> &'static str {
        "failover"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let Some(cluster) = &snapshot.cluster else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        if !cluster.failed_servers.is_empty() && !self.boosted {
            self.boosted = true;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: self.boost_ratio,
            });
        } else if cluster.failed_servers.is_empty() && self.boosted {
            self.boosted = false;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: self.restore_ratio,
            });
        }
        for vm in &cluster.parked_vms {
            actions.push(Action::Migrate { vm: *vm });
        }
        actions
    }

    crate::impl_controller_downcast!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ClusterTelemetry, PowerTelemetry};
    use ic_power::capping::Priority;

    fn snapshot_with_power(
        domains: Vec<DomainPower>,
        budget_w: f64,
        version: u64,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::at(SimTime::from_secs(1));
        snap.power = Some(PowerTelemetry {
            budget_w,
            version,
            domains,
        });
        snap
    }

    #[test]
    fn script_fires_in_order_and_only_once() {
        let mut script = ScriptController::new(vec![
            (SimTime::from_secs(10), Action::FailServer { server: 0 }),
            (SimTime::from_secs(20), Action::RepairServer { server: 0 }),
        ])
        .expect("sorted script");
        let early = TelemetrySnapshot::at(SimTime::from_secs(5));
        assert!(script.observe(&early).is_empty());
        let mid = TelemetrySnapshot::at(SimTime::from_secs(12));
        assert_eq!(script.observe(&mid), vec![Action::FailServer { server: 0 }]);
        assert_eq!(script.next, 1);
        let late = TelemetrySnapshot::at(SimTime::from_secs(30));
        assert_eq!(
            script.observe(&late),
            vec![Action::RepairServer { server: 0 }]
        );
        assert!(script.observe(&late).is_empty());
    }

    #[test]
    fn script_rejects_unsorted_entries_with_typed_error() {
        let err = ScriptController::new(vec![
            (SimTime::from_secs(20), Action::FailServer { server: 0 }),
            (SimTime::from_secs(10), Action::RepairServer { server: 0 }),
        ])
        .expect_err("unsorted script must be rejected");
        assert_eq!(err, ScriptError { index: 1 });
        assert!(err.to_string().contains("sorted"));
    }

    #[test]
    fn powercap_regrants_only_on_change() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        let domains = vec![
            DomainPower {
                domain: 0,
                priority: Priority::Batch,
                floor_w: 50.0,
                demand_w: 200.0,
                granted_w: 50.0,
            },
            DomainPower {
                domain: 1,
                priority: Priority::Critical,
                floor_w: 50.0,
                demand_w: 200.0,
                granted_w: 50.0,
            },
        ];
        let snap = snapshot_with_power(domains.clone(), 300.0, 0);
        let actions = cap.observe(&snap);
        // Critical gets its full demand; batch absorbs the shortfall.
        assert!(actions.contains(&Action::GrantPower {
            domain: 1,
            watts: 200.0
        }));
        assert!(actions.contains(&Action::GrantPower {
            domain: 0,
            watts: 100.0
        }));
        // Re-observing with the grants already in telemetry is quiet.
        let mut settled = domains;
        settled[0].granted_w = 100.0;
        settled[1].granted_w = 200.0;
        // A bumped version forces a genuine re-allocation (not the
        // version short-circuit); it must still be quiet.
        let snap = snapshot_with_power(settled, 300.0, 2);
        assert!(cap.observe(&snap).is_empty());
    }

    #[test]
    fn powercap_skips_rescan_when_power_version_is_unchanged() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        let domains = vec![DomainPower {
            domain: 0,
            priority: Priority::Batch,
            floor_w: 50.0,
            demand_w: 200.0,
            granted_w: 50.0,
        }];
        let snap = snapshot_with_power(domains, 300.0, 7);
        assert_eq!(cap.observe(&snap).len(), 1);
        // Same version again: short-circuits before re-allocating —
        // correct because an identical section yields the identical
        // allocation, whose actions the change suppression would drop.
        assert!(cap.observe(&snap).is_empty());
    }

    #[test]
    fn powercap_ignores_worlds_without_power() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        assert!(cap
            .observe(&TelemetrySnapshot::at(SimTime::ZERO))
            .is_empty());
    }

    #[test]
    fn failover_boosts_once_and_releases() {
        let mut fo = FailoverController::new(1.2);
        let mut snap = TelemetrySnapshot::at(SimTime::from_secs(1));
        snap.cluster = Some(ClusterTelemetry {
            healthy_servers: 11,
            failed_servers: vec![3],
            packing_density: 1.1,
            parked_vms: vec![42],
        });
        let actions = fo.observe(&snap);
        assert_eq!(
            actions,
            vec![
                Action::SetFrequency {
                    target: FreqTarget::Fleet,
                    ratio: 1.2
                },
                Action::Migrate { vm: 42 },
            ]
        );
        assert!(fo.boosted());
        // Same failure state again: no duplicate boost, keep migrating.
        let again = fo.observe(&snap);
        assert_eq!(again, vec![Action::Migrate { vm: 42 }]);
        // Fleet whole again: release the boost.
        snap.cluster = Some(ClusterTelemetry {
            healthy_servers: 12,
            failed_servers: Vec::new(),
            packing_density: 1.0,
            parked_vms: Vec::new(),
        });
        assert_eq!(
            fo.observe(&snap),
            vec![Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: 1.0
            }]
        );
        assert!(!fo.boosted());
    }
}
