//! The cluster inventory: VM lifecycle, failure handling, and density
//! accounting.

use crate::placement::{Oversubscription, PlacementPolicy};
use crate::server::{Server, ServerSpec};
use crate::vm::{VmId, VmInstance, VmSpec};
use ic_obs::json::Value;
use ic_obs::trace::TraceLevel;
use ic_obs::ObsSinks;
use ic_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No server has room for the requested VM.
    InsufficientCapacity,
    /// The VM id is unknown (or already deleted).
    UnknownVm,
    /// The server index is out of range.
    UnknownServer,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InsufficientCapacity => f.write_str("no server has sufficient capacity"),
            ClusterError::UnknownVm => f.write_str("unknown VM id"),
            ClusterError::UnknownServer => f.write_str("unknown server index"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The outcome of a server failure: which VMs were re-created and which
/// could not be placed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// VMs successfully re-created elsewhere (old id → new host index),
    /// in ascending old-id order.
    pub recreated: Vec<(VmId, usize)>,
    /// The fresh id each re-created VM runs under, parallel to
    /// `recreated` (so also ascending: ids are issued in displacement
    /// order).
    pub new_ids: Vec<VmId>,
    /// VMs that found no capacity and are down.
    pub unplaced: Vec<VmId>,
}

/// A fleet of servers and the VMs placed on them.
///
/// Besides the authoritative state (servers, the VM table, placement
/// settings, the id counter) the cluster keeps derived state that every
/// mutator updates in place, so no placement write scans the fleet:
///
/// * `hosted` — the live VM ids per host, keyed `(host, id)`, so one
///   host's VMs are a range read that comes back in ascending id order
///   (the order the whole-table scan produced, which decides where each
///   displaced VM lands and which fresh id it gets);
/// * `healthy_pcores` / `allocated_vcores` — running integer totals
///   behind an O(1) [`packing_density`](Self::packing_density).
///
/// [`Cluster::new`] builds the authoritative state (`ClusterState`) and
/// derives the rest from it in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    servers: Vec<Server>,
    vms: BTreeMap<VmId, VmInstance>,
    policy: PlacementPolicy,
    oversub: Oversubscription,
    next_id: u64,
    pub(crate) sinks: ObsSinks,
    hosted: BTreeSet<(usize, VmId)>,
    healthy_pcores: u32,
    allocated_vcores: u32,
}

/// The authoritative state of a [`Cluster`]. Converting it rebuilds the
/// per-host index and the running totals.
#[derive(Debug, Clone)]
struct ClusterState {
    servers: Vec<Server>,
    vms: BTreeMap<VmId, VmInstance>,
    policy: PlacementPolicy,
    oversub: Oversubscription,
    next_id: u64,
}

impl From<ClusterState> for Cluster {
    fn from(state: ClusterState) -> Self {
        let hosted = state.vms.values().map(|vm| (vm.host, vm.id)).collect();
        let healthy_pcores = state
            .servers
            .iter()
            .filter(|s| !s.is_failed())
            .map(|s| s.spec().pcores())
            .sum();
        let allocated_vcores = state.vms.values().map(|vm| vm.spec.vcores()).sum();
        Cluster {
            servers: state.servers,
            vms: state.vms,
            policy: state.policy,
            oversub: state.oversub,
            next_id: state.next_id,
            sinks: ObsSinks::none(),
            hosted,
            healthy_pcores,
            allocated_vcores,
        }
    }
}

impl Cluster {
    /// Creates a cluster from server shapes.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<ServerSpec>, policy: PlacementPolicy, oversub: Oversubscription) -> Self {
        assert!(!specs.is_empty(), "a cluster needs servers");
        Cluster::from(ClusterState {
            servers: specs.into_iter().map(Server::new).collect(),
            vms: BTreeMap::new(),
            policy,
            oversub,
            next_id: 0,
        })
    }

    /// Attaches the observability bundle: VM lifecycle (create,
    /// delete, failover migration) and server failures/repairs land as
    /// instants on the flight timeline at each event's simulation time.
    /// The cluster has no clock of its own — every mutating method takes
    /// the current simulation time, which flows from the driving event
    /// loop (the control plane's tick time or the lifecycle engine's
    /// `now`).
    pub fn attach_sinks(&mut self, sinks: ObsSinks) {
        self.sinks = sinks;
    }

    /// Allocates `spec` on `host` under a fresh id and records it in the
    /// VM table, the per-host index, and the vcore total.
    fn place(&mut self, spec: VmSpec, host: usize) -> VmId {
        self.servers[host].allocate(spec.vcores(), spec.memory_gb());
        let id = VmId(self.next_id);
        self.next_id += 1;
        self.vms.insert(id, VmInstance { id, spec, host });
        self.hosted.insert((host, id));
        self.allocated_vcores += spec.vcores();
        id
    }

    /// Removes a VM from the VM table, the per-host index, and the
    /// vcore total (its host's allocation is the caller's business).
    fn unlink(&mut self, id: VmId) -> Option<VmInstance> {
        let vm = self.vms.remove(&id)?;
        self.hosted.remove(&(vm.host, id));
        self.allocated_vcores -= vm.spec.vcores();
        Some(vm)
    }

    /// The ids of the live VMs on `host`, ascending — a range read of
    /// the per-host index.
    fn hosted_ids(&self, host: usize) -> impl Iterator<Item = VmId> + '_ {
        self.hosted
            .range((host, VmId(0))..=(host, VmId(u64::MAX)))
            .map(|&(_, id)| id)
    }

    /// The servers, in index order.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Mutable access to one server (e.g. to set its frequency).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn server_mut(&mut self, index: usize) -> Result<&mut Server, ClusterError> {
        self.servers
            .get_mut(index)
            .ok_or(ClusterError::UnknownServer)
    }

    /// Changes the oversubscription ratio for *future* placements.
    pub fn set_oversubscription(&mut self, oversub: Oversubscription) {
        self.oversub = oversub;
    }

    /// Places a VM at simulation time `now` (stamped onto the emitted
    /// lifecycle event).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientCapacity`] if no healthy
    /// server can host it.
    pub fn create_vm(&mut self, now: SimTime, spec: VmSpec) -> Result<VmId, ClusterError> {
        let host =
            match self
                .policy
                .choose(&self.servers, spec.vcores(), spec.memory_gb(), self.oversub)
            {
                Some(host) => host,
                None => {
                    self.sinks
                        .instant(now, "cluster", TraceLevel::Warn, "vm_reject", || {
                            vec![
                                ("vcores", Value::U64(spec.vcores() as u64)),
                                ("memory_gb", Value::F64(spec.memory_gb())),
                                ("density", Value::F64(self.packing_density())),
                            ]
                        });
                    return Err(ClusterError::InsufficientCapacity);
                }
            };
        let id = self.place(spec, host);
        self.sinks
            .instant(now, "cluster", TraceLevel::Info, "vm_create", || {
                vec![
                    ("vm", Value::U64(id.0)),
                    ("host", Value::U64(host as u64)),
                    ("vcores", Value::U64(spec.vcores() as u64)),
                    ("memory_gb", Value::F64(spec.memory_gb())),
                    ("density", Value::F64(self.packing_density())),
                ]
            });
        Ok(id)
    }

    /// Deletes a VM and releases its resources.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVm`] if the id is not live.
    pub fn delete_vm(&mut self, now: SimTime, id: VmId) -> Result<(), ClusterError> {
        let vm = self.unlink(id).ok_or(ClusterError::UnknownVm)?;
        // The host may have failed since placement; failed servers have
        // already zeroed their allocations.
        if !self.servers[vm.host].is_failed() {
            self.servers[vm.host].release(vm.spec.vcores(), vm.spec.memory_gb());
        }
        self.sinks
            .instant(now, "cluster", TraceLevel::Debug, "vm_delete", || {
                vec![
                    ("vm", Value::U64(id.0)),
                    ("host", Value::U64(vm.host as u64)),
                    ("density", Value::F64(self.packing_density())),
                ]
            });
        Ok(())
    }

    /// A VM's current placement.
    pub fn vm(&self, id: VmId) -> Option<&VmInstance> {
        self.vms.get(&id)
    }

    /// The number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// All live VMs hosted on a server, in ascending id order. Reads
    /// only that host's VMs.
    pub fn vms_on(&self, host: usize) -> Vec<&VmInstance> {
        self.hosted_ids(host).map(|id| &self.vms[&id]).collect()
    }

    /// Fails a server and re-creates its VMs elsewhere (the paper's
    /// buffer scenario, Figure 6). VMs that cannot be placed are
    /// reported and removed.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn fail_server(
        &mut self,
        now: SimTime,
        index: usize,
    ) -> Result<FailoverReport, ClusterError> {
        if index >= self.servers.len() {
            return Err(ClusterError::UnknownServer);
        }
        if !self.servers[index].is_failed() {
            self.servers[index].fail();
            self.healthy_pcores -= self.servers[index].spec().pcores();
        }
        // Ascending id order, as the placement decisions below depend
        // on it.
        let displaced: Vec<VmId> = self.hosted_ids(index).collect();
        self.sinks
            .instant(now, "cluster", TraceLevel::Warn, "server_fail", || {
                vec![
                    ("server", Value::U64(index as u64)),
                    ("displaced_vms", Value::U64(displaced.len() as u64)),
                ]
            });
        let mut report = FailoverReport {
            recreated: Vec::with_capacity(displaced.len()),
            new_ids: Vec::with_capacity(displaced.len()),
            unplaced: Vec::new(),
        };
        for old in displaced {
            let vm = self.unlink(old).expect("indexed VMs are live");
            match self.policy.choose(
                &self.servers,
                vm.spec.vcores(),
                vm.spec.memory_gb(),
                self.oversub,
            ) {
                Some(host) => {
                    let id = self.place(vm.spec, host);
                    self.sinks
                        .instant(now, "cluster", TraceLevel::Info, "vm_migrate", || {
                            vec![
                                ("vm", Value::U64(old.0)),
                                ("from", Value::U64(index as u64)),
                                ("to", Value::U64(host as u64)),
                                ("new_vm", Value::U64(id.0)),
                            ]
                        });
                    report.recreated.push((old, host));
                    report.new_ids.push(id);
                }
                None => {
                    self.sinks
                        .instant(now, "cluster", TraceLevel::Warn, "vm_unplaced", || {
                            vec![
                                ("vm", Value::U64(old.0)),
                                ("from", Value::U64(index as u64)),
                                ("vcores", Value::U64(vm.spec.vcores() as u64)),
                            ]
                        });
                    report.unplaced.push(old);
                }
            }
        }
        Ok(report)
    }

    /// Repairs a failed server, returning it to service empty.
    /// Repairing a healthy server is a no-op (its live allocations must
    /// not be clobbered).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn repair_server(&mut self, now: SimTime, index: usize) -> Result<(), ClusterError> {
        if index >= self.servers.len() {
            return Err(ClusterError::UnknownServer);
        }
        if !self.servers[index].is_failed() {
            return Ok(());
        }
        self.servers[index].repair();
        self.healthy_pcores += self.servers[index].spec().pcores();
        self.sinks
            .instant(now, "cluster", TraceLevel::Info, "server_repair", || {
                vec![("server", Value::U64(index as u64))]
            });
        Ok(())
    }

    /// Total pcores across healthy servers (a running total, O(1)).
    pub fn healthy_pcores(&self) -> u32 {
        self.healthy_pcores
    }

    /// Total allocated vcores of the live VMs (a running total, O(1)).
    pub fn allocated_vcores(&self) -> u32 {
        self.allocated_vcores
    }

    /// Packing density: allocated vcores per healthy pcore. Exceeds 1.0
    /// only under oversubscription. O(1): both sides are running totals.
    pub fn packing_density(&self) -> f64 {
        let pcores = self.healthy_pcores();
        if pcores == 0 {
            0.0
        } else {
            self.allocated_vcores() as f64 / pcores as f64
        }
    }

    /// Packs as many copies of `spec` as fit, returning the created ids —
    /// the primitive behind the capacity-crisis experiments.
    pub fn fill_with(&mut self, now: SimTime, spec: VmSpec) -> Vec<VmId> {
        let mut out = Vec::new();
        while let Ok(id) = self.create_vm(now, spec) {
            out.push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_power::units::Frequency;

    fn cluster(n: usize, pcores: u32, oversub: f64) -> Cluster {
        Cluster::new(
            vec![
                ServerSpec::custom(
                    pcores,
                    128.0,
                    Frequency::from_ghz(2.7),
                    Frequency::from_ghz(3.3),
                );
                n
            ],
            PlacementPolicy::FirstFit,
            if oversub > 1.0 {
                Oversubscription::ratio(oversub)
            } else {
                Oversubscription::none()
            },
        )
    }

    #[test]
    fn create_and_delete_round_trip() {
        let mut c = cluster(2, 16, 1.0);
        let id = c.create_vm(SimTime::ZERO, VmSpec::new(4, 16.0)).unwrap();
        assert_eq!(c.vm_count(), 1);
        assert_eq!(c.allocated_vcores(), 4);
        c.delete_vm(SimTime::ZERO, id).unwrap();
        assert_eq!(c.vm_count(), 0);
        assert_eq!(c.allocated_vcores(), 0);
        assert_eq!(c.delete_vm(SimTime::ZERO, id), Err(ClusterError::UnknownVm));
    }

    #[test]
    fn capacity_enforced_without_oversubscription() {
        let mut c = cluster(1, 16, 1.0);
        assert!(c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).is_ok());
        assert_eq!(
            c.create_vm(SimTime::ZERO, VmSpec::new(1, 1.0)),
            Err(ClusterError::InsufficientCapacity)
        );
    }

    #[test]
    fn oversubscription_adds_20_pct_density() {
        // The paper's headline: overclocking-backed oversubscription
        // raises packing density by 20 %.
        let mut base = cluster(4, 20, 1.0);
        let mut dense = cluster(4, 20, 1.2);
        let spec = VmSpec::new(4, 8.0);
        let n_base = base.fill_with(SimTime::ZERO, spec).len();
        let n_dense = dense.fill_with(SimTime::ZERO, spec).len();
        assert_eq!(n_base, 20); // 5 VMs per 20-pcore server
        assert_eq!(n_dense, 24); // 24 vcores per server → 6 VMs: +20 %
        assert!((dense.packing_density() - 1.2).abs() < 1e-9);
        assert_eq!(base.packing_density(), 1.0);
    }

    #[test]
    fn failover_recreates_on_surviving_servers() {
        let mut c = cluster(3, 16, 1.0);
        let spec = VmSpec::new(8, 16.0);
        for _ in 0..4 {
            c.create_vm(SimTime::ZERO, spec).unwrap();
        }
        // Two VMs per... FirstFit: server0 holds 2, server1 holds 2.
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(report.recreated.len(), 2);
        assert!(report.unplaced.is_empty());
        assert_eq!(c.vm_count(), 4);
        assert!(c.vms_on(0).is_empty());
    }

    #[test]
    fn failover_reports_unplaced_when_full() {
        let mut c = cluster(2, 16, 1.0);
        let spec = VmSpec::new(16, 16.0);
        c.create_vm(SimTime::ZERO, spec).unwrap();
        c.create_vm(SimTime::ZERO, spec).unwrap();
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(report.recreated.len(), 0);
        assert_eq!(report.unplaced.len(), 1);
        assert_eq!(c.vm_count(), 1);
    }

    #[test]
    fn failover_new_ids_ascend_parallel_to_recreated() {
        // Server 0 hosts three VMs (FirstFit); failing it re-creates all
        // three elsewhere under fresh, ascending ids.
        let mut c = cluster(4, 16, 1.0);
        let spec = VmSpec::new(4, 8.0);
        let originals: Vec<VmId> = (0..6)
            .map(|_| c.create_vm(SimTime::ZERO, spec).unwrap())
            .collect();
        let on_zero: Vec<VmId> = c.vms_on(0).iter().map(|vm| vm.id).collect();
        assert_eq!(on_zero, originals[..4], "vms_on lists ascending ids");
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert!(report.unplaced.is_empty());
        assert_eq!(report.new_ids.len(), report.recreated.len());
        let old: Vec<VmId> = report.recreated.iter().map(|&(id, _)| id).collect();
        assert_eq!(old, on_zero, "displaced in ascending id order");
        assert!(report.new_ids.windows(2).all(|w| w[0] < w[1]));
        assert!(report.new_ids[0] > *originals.last().unwrap());
        for (&(_, host), &new_id) in report.recreated.iter().zip(&report.new_ids) {
            assert_eq!(c.vm(new_id).unwrap().host, host);
            assert!(c.vms_on(host).iter().any(|vm| vm.id == new_id));
        }
        assert!(c.vms_on(0).is_empty());
    }

    /// The derived state as a from-scratch scan computes it: per-host
    /// VM ids (ascending) and the two running totals.
    fn scanned(c: &Cluster) -> (Vec<Vec<VmId>>, u32, u32) {
        let hosts = (0..c.servers().len())
            .map(|h| {
                c.vms
                    .values()
                    .filter(|vm| vm.host == h)
                    .map(|vm| vm.id)
                    .collect()
            })
            .collect();
        let pcores = c
            .servers()
            .iter()
            .filter(|s| !s.is_failed())
            .map(|s| s.spec().pcores())
            .sum();
        let vcores = c.vms.values().map(|vm| vm.spec.vcores()).sum();
        (hosts, pcores, vcores)
    }

    #[test]
    fn incremental_index_matches_full_scan_under_random_churn() {
        use ic_sim::rng::SimRng;
        for seed in [3, 17, 29] {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut c = cluster(6, 16, 1.25);
            let mut live: Vec<VmId> = Vec::new();
            for step in 0..400 {
                let now = SimTime::from_secs(step);
                match rng.index(5) {
                    0 | 1 => {
                        let spec = VmSpec::new(1 + rng.index(8) as u32, 4.0);
                        if let Ok(id) = c.create_vm(now, spec) {
                            live.push(id);
                        }
                    }
                    2 if !live.is_empty() => {
                        let id = live.swap_remove(rng.index(live.len()));
                        c.delete_vm(now, id).unwrap();
                    }
                    3 => {
                        let report = c.fail_server(now, rng.index(6)).unwrap();
                        live.retain(|id| c.vm(*id).is_some());
                        live.extend(&report.new_ids);
                    }
                    _ => c.repair_server(now, rng.index(6)).unwrap(),
                }
                let (hosts, pcores, vcores) = scanned(&c);
                for (h, ids) in hosts.iter().enumerate() {
                    let indexed: Vec<VmId> = c.vms_on(h).iter().map(|vm| vm.id).collect();
                    assert_eq!(&indexed, ids, "host {h} at step {step} (seed {seed})");
                }
                assert_eq!(c.healthy_pcores(), pcores);
                assert_eq!(c.allocated_vcores(), vcores);
                assert_eq!(c.vm_count(), live.len());
            }
        }
    }

    #[test]
    fn derived_state_rebuilds_from_authoritative_state() {
        let mut c = cluster(3, 16, 1.0);
        for _ in 0..5 {
            c.create_vm(SimTime::ZERO, VmSpec::new(4, 8.0)).unwrap();
        }
        c.fail_server(SimTime::ZERO, 0).unwrap();
        let rebuilt = Cluster::from(ClusterState {
            servers: c.servers.clone(),
            vms: c.vms.clone(),
            policy: c.policy,
            oversub: c.oversub,
            next_id: c.next_id,
        });
        assert_eq!(rebuilt, c);
    }

    #[test]
    fn repair_restores_capacity() {
        let mut c = cluster(2, 16, 1.0);
        c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(c.healthy_pcores(), 16);
        c.repair_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(c.healthy_pcores(), 32);
        assert!(c.create_vm(SimTime::ZERO, VmSpec::new(16, 1.0)).is_ok());
    }

    #[test]
    fn delete_vm_on_failed_host_is_safe() {
        let mut c = cluster(2, 16, 1.0);
        let a = c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).unwrap();
        let b = c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).unwrap();
        // Fill the cluster so failover cannot re-place.
        let report = c
            .fail_server(SimTime::ZERO, c.vm(a).map(|v| v.host).unwrap_or(0))
            .unwrap();
        assert_eq!(report.unplaced.len(), 1);
        // The surviving VM deletes cleanly.
        let survivor = if c.vm(a).is_some() { a } else { b };
        assert!(c.delete_vm(SimTime::ZERO, survivor).is_ok());
    }

    #[test]
    fn unknown_server_errors() {
        let mut c = cluster(1, 8, 1.0);
        assert_eq!(
            c.fail_server(SimTime::ZERO, 5),
            Err(ClusterError::UnknownServer)
        );
        assert_eq!(
            c.repair_server(SimTime::ZERO, 5),
            Err(ClusterError::UnknownServer)
        );
        assert!(c.server_mut(5).is_err());
    }

    #[test]
    fn traced_cluster_emits_lifecycle_events() {
        use ic_obs::flight::{shared_flight, SpanKind};
        use ic_obs::trace::TraceLevel;

        let flight = shared_flight(64);
        let mut c = cluster(2, 16, 1.0);
        c.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
        let t10 = SimTime::from_secs(10);
        let a = c.create_vm(t10, VmSpec::new(16, 16.0)).unwrap();
        let _b = c.create_vm(t10, VmSpec::new(16, 16.0)).unwrap();
        // Cluster is full: the next create is rejected at Warn level.
        assert!(c.create_vm(t10, VmSpec::new(1, 1.0)).is_err());
        // Failing a full host leaves its VM unplaced.
        let t20 = SimTime::from_secs(20);
        let host = c.vm(a).unwrap().host;
        c.fail_server(t20, host).unwrap();
        c.repair_server(t20, host).unwrap();
        let survivor = c.vms_on(1 - host)[0].id;
        c.delete_vm(SimTime::from_secs(30), survivor).unwrap();

        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        assert_eq!(counts[&("cluster", "vm_create")], 2);
        assert_eq!(counts[&("cluster", "vm_reject")], 1);
        assert_eq!(counts[&("cluster", "server_fail")], 1);
        assert_eq!(counts[&("cluster", "vm_unplaced")], 1);
        assert_eq!(counts[&("cluster", "server_repair")], 1);
        assert_eq!(counts[&("cluster", "vm_delete")], 1);
        // Every cluster event is an instant.
        assert!(rec.spans().all(|s| s.kind == SpanKind::Instant));
        // Rejections and failures are anomalies: Warn level.
        assert!(rec
            .spans()
            .filter(|s| s.name == "vm_reject" || s.name == "server_fail")
            .all(|s| s.level == TraceLevel::Warn));
        // Timestamps come from the driver-maintained clock.
        assert!(rec.spans().any(|s| s.start == t20));
        let delete = rec.spans().find(|s| s.name == "vm_delete").unwrap();
        assert_eq!(delete.start, SimTime::from_secs(30));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ClusterError::InsufficientCapacity.to_string(),
            "no server has sufficient capacity"
        );
    }
}
