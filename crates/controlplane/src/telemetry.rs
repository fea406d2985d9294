//! The telemetry bus: one snapshot per control tick.
//!
//! Every controller sees the same [`TelemetrySnapshot`], assembled by
//! the [`crate::World`] from whatever subsystems it composes — VM
//! hardware counters (ic-workloads / ic-telemetry), power-domain demand
//! and grants (ic-power), and cluster placement state (ic-cluster).
//! Sections a world does not model are simply `None`/empty; controllers
//! are expected to no-op on missing sections rather than panic, so the
//! same controller runs unmodified against a single-sim world (the ASC
//! runner) or the full fleet world.

use ic_power::capping::Priority;
use ic_sim::time::SimTime;
use ic_telemetry::counters::CounterSample;

/// Per-VM telemetry: the cumulative counter sample plus instantaneous
/// queue state, exactly what the paper's Equation-1 control loop reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmTelemetry {
    /// The VM id (stable across ticks while the VM lives).
    pub vm: u64,
    /// Cumulative Aperf/Pperf/busy/wall counters at the tick instant.
    pub sample: CounterSample,
    /// Requests queued (not yet in service) at the tick instant.
    pub queue_depth: usize,
    /// Virtual cores backing the VM.
    pub vcores: u32,
}

/// One power domain's demand and current grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainPower {
    /// Domain id (socket or server index).
    pub domain: u64,
    /// Capping priority under contention.
    pub priority: Priority,
    /// Watts the domain cannot run below.
    pub floor_w: f64,
    /// Watts the domain wants right now.
    pub demand_w: f64,
    /// Watts currently granted (floor if never granted).
    pub granted_w: f64,
}

/// Fleet-level power state.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTelemetry {
    /// The provisioned budget shared by all domains.
    pub budget_w: f64,
    /// Monotone change counter: the world bumps this whenever any
    /// domain's demand or grant changes. Controllers whose decision is
    /// a pure function of the power section may skip their scan when
    /// the version matches the previous tick's — the inputs are
    /// guaranteed identical, so the decision (and emitted actions)
    /// would be too.
    pub version: u64,
    /// Per-domain demand/grant, in stable domain-id order.
    pub domains: Vec<DomainPower>,
}

/// Cluster placement state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTelemetry {
    /// Servers currently healthy.
    pub healthy_servers: usize,
    /// Indices of failed servers, ascending.
    pub failed_servers: Vec<usize>,
    /// Allocated vcores / healthy pcores.
    pub packing_density: f64,
    /// VMs evicted by failures and still awaiting placement, in
    /// eviction order.
    pub parked_vms: Vec<u64>,
}

/// Fault-injection state (present only in worlds with a fault config).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTelemetry {
    /// Monotone change counter, bumped whenever any field below moves
    /// (same skip contract as [`PowerTelemetry::version`]).
    pub version: u64,
    /// The last fleet-wide commanded frequency ratio (1.0 = base).
    /// Degradation controllers step down from here; the fault process
    /// derives the wear operating point from it.
    pub fleet_ratio: f64,
    /// Correctable-error bursts injected so far, fleet-wide.
    pub error_bursts: u64,
    /// Cumulative injected correctable errors per server index.
    pub errors_by_server: Vec<u64>,
}

/// Everything a controller may observe at one control tick.
///
/// Handed out by [`crate::World::telemetry`] each tick as a borrowed
/// view into state the world maintains incrementally — observing cannot
/// mutate the world (controllers get `&TelemetrySnapshot`) and every
/// controller at the same tick sees identical state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// The tick's simulation time.
    pub now: SimTime,
    /// Per-VM counters, in ascending VM-id order.
    pub vms: Vec<VmTelemetry>,
    /// Power section, if the world models power delivery.
    pub power: Option<PowerTelemetry>,
    /// Cluster section, if the world models placement.
    pub cluster: Option<ClusterTelemetry>,
    /// Fault-injection section, if the world has a fault config.
    pub faults: Option<FaultTelemetry>,
}

impl TelemetrySnapshot {
    /// A snapshot with only a timestamp (every section empty).
    pub fn at(now: SimTime) -> Self {
        TelemetrySnapshot {
            now,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_has_no_sections() {
        let snap = TelemetrySnapshot::at(SimTime::from_secs(5));
        assert_eq!(snap.now, SimTime::from_secs(5));
        assert!(snap.vms.is_empty());
        assert!(snap.power.is_none());
        assert!(snap.cluster.is_none());
        assert!(snap.faults.is_none());
    }
}
