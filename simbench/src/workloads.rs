//! The three benchmark workloads, built only from the public
//! `ic-controlplane` API (`FleetConfigBuilder` → `FleetWorld::new` →
//! `ControlPlane::register` / `run_until`), and the checks each replica
//! must pass.
//!
//! A workload's inputs are a pure function of the seed: ramp levels,
//! scripted fault times and servers, and the fault-process seed all
//! derive from it, so every replica of one seed must produce the same
//! [`digest`](Replica::digest).

use crate::probe::{Depth, Recorder, TimedController, TimedWorld};
use ic_autoscale::asc::AutoScaler;
use ic_autoscale::policy::{AscConfig, Policy};
use ic_chaos::{ChaosController, DegradationController, DegradationPolicy, FaultProcess};
use ic_controlplane::controllers::{
    FailoverController, GovernorController, PowerCapController, ScriptController,
};
use ic_controlplane::{
    Action, ControlPlane, Controller, DomainSpec, FaultPlan, FleetConfig, FleetConfigBuilder,
    FleetWorld, PowerModelSpec, World,
};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_par::ParPool;
use ic_power::capping::{PowerAllocator, Priority};
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::CompositeLifetimeModel;
use ic_reliability::stability::StabilityModel;
use ic_scenario::{FaultConfig, FaultWindow};
use ic_sim::rng::{SimRng, StreamVersion};
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-shaped small fleet under an auto-scaled QPS ramp.
    ServeRamp,
    /// 250 000 power domains under capping and the governor.
    FleetCap,
    /// B2 and OC3 fleets under wear-coupled faults, as two ic-par tasks.
    ChaosChurn,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeRamp,
        Workload::FleetCap,
        Workload::ChaosChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRamp => "serve_ramp",
            Workload::FleetCap => "fleet_cap",
            Workload::ChaosChurn => "chaos_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a replica is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers at all (self-tests only).
    Bare,
    /// Wrapped world timing step boundaries only.
    Steps,
    /// Wrapped world and controllers timing every layer call; spans are
    /// kept up to the given capacity per world.
    Layers(usize),
}

/// The physics of one composed world, before anything is built.
struct WorldSpec {
    label: &'static str,
    config: FleetConfig,
    controllers: Vec<(Box<dyn Controller>, SimDuration)>,
    faults: Option<FaultPlan>,
    horizon_s: u64,
}

/// What one world reports after its horizon. Every field except the
/// host timings and the recorder is a deterministic function of the
/// seed.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// Fleet label (`fleet`, `b2`, `oc3`).
    pub label: &'static str,
    /// Host ns inside `FleetWorld::new`.
    pub new_ns: u64,
    /// Host ns inside `ControlPlane::run_until`.
    pub run_ns: u64,
    /// Host instant `run_until` started.
    pub run_start: Instant,
    /// Host instant `run_until` returned.
    pub run_end: Instant,
    /// Host ns of the whole task (set-up, run and extraction).
    pub task_ns: u64,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Physical servers.
    pub servers: usize,
    /// Request sojourn times of every completion, seconds.
    pub latencies: Vec<f64>,
    /// Deterministic outcomes.
    pub stats: WorldStats,
    /// The probes' record, for probed modes.
    pub rec: Option<Recorder>,
}

/// Deterministic outcomes of one world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// P95 sojourn over all completions, seconds.
    pub p95_s: f64,
    /// Mean sojourn, seconds.
    pub mean_s: f64,
    /// `FleetWorld::availability` at the horizon.
    pub availability: f64,
    /// Control ticks `run_until` executed.
    pub cp_ticks: u64,
    /// Control ticks the cadences imply for the horizon.
    pub expected_ticks: u64,
    /// Control-plane engine events.
    pub cp_events: u64,
    /// Serving-sim engine events.
    pub sim_events: u64,
    /// Serving-sim events that fell back to boxed closures.
    pub boxed_events: u64,
    /// Servers still failed at the horizon.
    pub failed_end: usize,
    /// VMs parked at the horizon.
    pub parked_end: usize,
    /// Serving VMs at the horizon.
    pub vms_end: usize,
    /// The governor's last granted frequency, GHz (`None` if the
    /// governor never decided or could not be reached by downcast).
    pub governor_ghz: Option<f64>,
    /// FNV-1a digest of the final `(domain, watts)` grants.
    pub grants_digest: u64,
    /// Domains holding a grant at the horizon.
    pub grants: usize,
    /// Power-model steady-state cache hits.
    pub cache_hits: u64,
    /// Power-model steady-state cache misses.
    pub cache_misses: u64,
    /// Power-model fleet-wide demand refreshes.
    pub demand_refreshes: u64,
    /// Thermal bins of the power model (0 without one).
    pub bins: u64,
    /// Accepted healthy → failed transitions.
    pub failures_applied: u64,
    /// Parked VMs migrated back into service.
    pub recovered_vms: u64,
    /// Wear failures the chaos controller injected.
    pub chaos_failures: u64,
    /// Error bursts the chaos controller injected.
    pub chaos_bursts: u64,
    /// Fleet de-overclocks the degradation controller issued.
    pub deocs: u64,
    /// Server drains the degradation controller issued.
    pub drains: u64,
}

/// FNV-1a, 64-bit: a stable hash for digests (the std hasher is not
/// stable across releases).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a word in (little-endian bytes).
    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl WorldStats {
    /// Digest of every simulated statistic: counts, P95 and mean bits,
    /// availability, final grants and fault counts. Engine event counts
    /// are left out — a change that coalesces events without changing
    /// the model must keep the digest.
    pub fn digest(&self, label: &str) -> u64 {
        let opt = self.governor_ghz.map_or(u64::MAX, f64::to_bits);
        [
            self.completed,
            self.dropped,
            self.p95_s.to_bits(),
            self.mean_s.to_bits(),
            self.availability.to_bits(),
            self.cp_ticks,
            self.failed_end as u64,
            self.parked_end as u64,
            self.vms_end as u64,
            opt,
            self.grants_digest,
            self.grants as u64,
            self.failures_applied,
            self.recovered_vms,
            self.chaos_failures,
            self.chaos_bursts,
            self.deocs,
            self.drains,
        ]
        .into_iter()
        .fold(Fnv::new().bytes(label.as_bytes()), Fnv::word)
        .finish()
    }
}

/// One replica of a workload: every world it ran, plus the ic-par
/// figures for the parallel workload.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The worlds, in submission order.
    pub worlds: Vec<WorldRun>,
    /// Host seconds from the first `run_until` start to the last end.
    pub run_wall_s: f64,
    /// Host seconds of the whole scatter-gather (or the single task).
    pub par_wall_s: f64,
    /// ic-par workers used.
    pub par_workers: usize,
    /// Replica digest over every world.
    pub digest: u64,
    /// The replica's correctness verdict.
    pub check: Result<(), String>,
}

impl Replica {
    /// Simulated seconds over all worlds.
    pub fn sim_s(&self) -> f64 {
        self.worlds.iter().map(|w| w.horizon_s).sum()
    }

    /// P95 sojourn over every completion of every world, seconds.
    pub fn p95_s(&self) -> f64 {
        if self.worlds.len() == 1 {
            return self.worlds[0].stats.p95_s;
        }
        let mut all: Vec<f64> = Vec::new();
        for w in &self.worlds {
            all.extend_from_slice(&w.latencies);
        }
        nearest_rank(&mut all, 0.95)
    }

    /// Server-time-weighted availability over every world.
    pub fn availability(&self) -> f64 {
        let weight = |w: &WorldRun| w.servers as f64 * w.horizon_s;
        let total: f64 = self.worlds.iter().map(weight).sum();
        self.worlds
            .iter()
            .map(|w| w.stats.availability * weight(w))
            .sum::<f64>()
            / total
    }
}

/// Nearest-rank quantile `q` of `xs` (reordered in place); 0 if empty.
pub fn nearest_rank(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len();
    let rank = (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1);
    let (_, &mut v, _) = xs.select_nth_unstable_by(rank, f64::total_cmp);
    v
}

/// Runs one replica of `workload` for `seed`.
pub fn run_replica(workload: Workload, seed: u64, mode: Mode) -> Replica {
    match workload {
        Workload::ServeRamp => single(serve_ramp(seed), mode, check_serve_ramp),
        Workload::FleetCap => single(fleet_cap(seed, FLEET_CAP_DOMAINS), mode, |w| {
            check_fleet_cap(w, &fleet_cap_reference(seed))
        }),
        Workload::ChaosChurn => chaos_churn(seed, mode),
    }
}

/// Host seconds to build `workload`'s worlds, controllers, and fault
/// processes and register them — the set-up of one replica without
/// running it, world after world on the calling thread.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let builds: Vec<Box<dyn FnOnce() -> WorldSpec>> = match workload {
        Workload::ServeRamp => vec![Box::new(serve_ramp(seed))],
        Workload::FleetCap => vec![Box::new(fleet_cap(seed, FLEET_CAP_DOMAINS))],
        Workload::ChaosChurn => vec![
            Box::new(chaos_fleet(seed, ChaosFleet::B2)),
            Box::new(chaos_fleet(seed, ChaosFleet::Oc3)),
        ],
    };
    builds
        .into_iter()
        .map(|build| {
            let t0 = Instant::now();
            let spec = build();
            let mut plane = ControlPlane::new(FleetWorld::new(spec.config));
            for (ctl, cadence) in spec.controllers {
                plane.register(ctl, cadence);
            }
            if let Some(plan) = spec.faults {
                plane.schedule_faults(plan);
            }
            let setup_s = t0.elapsed().as_secs_f64();
            drop(plane);
            setup_s
        })
        .sum()
}

fn single(
    build: impl FnOnce() -> WorldSpec,
    mode: Mode,
    check: impl FnOnce(&WorldRun) -> Result<(), String>,
) -> Replica {
    let t0 = Instant::now();
    let world = execute(build, mode);
    let par_wall_s = t0.elapsed().as_secs_f64();
    let check = check(&world);
    let digest = Fnv::new().word(world.stats.digest(world.label)).finish();
    Replica {
        run_wall_s: world.run_ns as f64 * 1e-9,
        par_wall_s,
        par_workers: 1,
        digest,
        check,
        worlds: vec![world],
    }
}

/// Builds, runs, and extracts one world.
fn execute(build: impl FnOnce() -> WorldSpec, mode: Mode) -> WorldRun {
    let t0 = Instant::now();
    let WorldSpec {
        label,
        config,
        controllers,
        faults,
        horizon_s,
    } = build();
    let shape = Shape {
        label,
        servers: config.servers,
        bins: config
            .power_model
            .as_ref()
            .map_or(0, |m| m.bins.len() as u64),
        horizon_s,
    };
    let t_new = Instant::now();
    let world = FleetWorld::new(config);
    let new_ns = t_new.elapsed().as_nanos() as u64;
    let setup = Setup {
        t0,
        new_ns,
        shape,
        controllers,
        faults,
    };
    match mode {
        Mode::Bare => drive(setup, ControlPlane::new(world), |c| c, None),
        Mode::Steps | Mode::Layers(_) => {
            let (depth, cap) = match mode {
                Mode::Layers(cap) => (Depth::Layers, cap),
                _ => (Depth::Steps, 0),
            };
            let rec = Recorder::shared(depth, cap);
            let plane = ControlPlane::new(TimedWorld::new(world, rec.clone()));
            let wrap_rec = rec.clone();
            let wrap = move |c: Box<dyn Controller>| -> Box<dyn Controller> {
                if depth == Depth::Layers {
                    Box::new(TimedController::new(c, wrap_rec.clone()))
                } else {
                    c
                }
            };
            drive(setup, plane, wrap, Some(rec))
        }
    }
}

/// The parts of a [`WorldSpec`] the extraction still needs after the
/// config moved into the world.
struct Shape {
    label: &'static str,
    servers: usize,
    bins: u64,
    horizon_s: u64,
}

/// A world mid-set-up: built, not yet wired to its controllers.
struct Setup {
    t0: Instant,
    new_ns: u64,
    shape: Shape,
    controllers: Vec<(Box<dyn Controller>, SimDuration)>,
    faults: Option<FaultPlan>,
}

/// Access to the [`FleetWorld`] under any wrapping.
trait AsFleet: World + 'static {
    fn fleet(&mut self) -> &mut FleetWorld;
}

impl AsFleet for FleetWorld {
    fn fleet(&mut self) -> &mut FleetWorld {
        self
    }
}

impl AsFleet for TimedWorld<FleetWorld> {
    fn fleet(&mut self) -> &mut FleetWorld {
        self.inner_mut()
    }
}

fn drive<W: AsFleet>(
    setup: Setup,
    mut plane: ControlPlane<W>,
    wrap: impl Fn(Box<dyn Controller>) -> Box<dyn Controller>,
    rec: Option<Rc<RefCell<Recorder>>>,
) -> WorldRun {
    let Setup {
        t0,
        new_ns,
        shape,
        controllers,
        faults,
    } = setup;
    let horizon = SimTime::from_secs(shape.horizon_s);
    let mut expected_ticks = 0;
    let mut ids = Vec::with_capacity(controllers.len());
    for (ctl, cadence) in controllers {
        let cadence_s = cadence.as_nanos() / 1_000_000_000;
        expected_ticks += shape.horizon_s.div_ceil(cadence_s);
        let name = ctl.name();
        ids.push((name, plane.register(wrap(ctl), cadence)));
    }
    drop(wrap);
    if let Some(plan) = faults {
        plane.schedule_faults(plan);
    }
    let run_start = Instant::now();
    plane.run_until(horizon);
    let run_end = Instant::now();

    let mut stats = WorldStats {
        cp_ticks: plane.ticks_total(),
        cp_events: plane.events_processed(),
        expected_ticks,
        ..WorldStats::default()
    };
    for &(name, id) in &ids {
        match name {
            "governor" => {
                stats.governor_ghz = plane
                    .controller::<GovernorController>(id)
                    .and_then(|g| g.last_decision())
                    .map(|d| d.frequency.ghz());
            }
            "chaos" => {
                if let Some(c) = plane.controller::<ChaosController>(id) {
                    stats.chaos_failures = c.failures_injected();
                    stats.chaos_bursts = c.bursts_injected();
                }
            }
            "degradation" => {
                if let Some(d) = plane.controller::<DegradationController>(id) {
                    stats.deocs = d.deocs() as u64;
                    stats.drains = d.drains() as u64;
                }
            }
            _ => {}
        }
    }

    let world = plane.world_mut().fleet();
    let mut latencies: Vec<f64> = world
        .sim_mut()
        .take_completions()
        .into_iter()
        .map(|(_, lat)| lat)
        .collect();
    stats.completed = world.sim().completed_requests();
    stats.dropped = world.sim().dropped_requests();
    stats.sim_events = world.sim().events_processed();
    stats.boxed_events = world.sim().boxed_events();
    stats.vms_end = world.sim().active_ids().len();
    stats.parked_end = world.parked().len();
    stats.failed_end = world
        .cluster()
        .servers()
        .iter()
        .filter(|s| s.is_failed())
        .count();
    stats.availability = world.availability(horizon);
    stats.grants = world.grants().len();
    stats.grants_digest = world
        .grants()
        .iter()
        .fold(Fnv::new(), |h, (&d, &w)| h.word(d).word(w.to_bits()))
        .finish();
    (stats.cache_hits, stats.cache_misses) = world.model_cache_counters();
    stats.demand_refreshes = world.demand_refreshes();
    stats.bins = shape.bins;
    stats.failures_applied = world.failures_applied();
    stats.recovered_vms = world.recovered_vms();
    if !latencies.is_empty() {
        stats.mean_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
        stats.p95_s = nearest_rank(&mut latencies, 0.95);
    }
    drop(plane);
    let rec = rec.map(|r| {
        Rc::try_unwrap(r)
            .unwrap_or_else(|_| panic!("the plane and its wrappers are dropped"))
            .into_inner()
    });
    WorldRun {
        label: shape.label,
        new_ns,
        run_ns: (run_end - run_start).as_nanos() as u64,
        run_start,
        run_end,
        task_ns: t0.elapsed().as_nanos() as u64,
        horizon_s: shape.horizon_s as f64,
        servers: shape.servers,
        latencies,
        stats,
        rec,
    }
}

/// The paper's 2PIC HFE-7000 Skylake tank interface.
fn tank() -> ThermalInterface {
    ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0)
}

fn governor(stability: StabilityModel, target_lifetime_years: f64) -> OverclockGovernor {
    OverclockGovernor::new(
        CpuSku::skylake_8180(),
        tank(),
        CompositeLifetimeModel::fitted_5nm(),
        stability,
        GovernorConfig {
            target_lifetime_years,
            ..GovernorConfig::default()
        },
    )
}

/// The envelope an overclocking operator validates: +40 % over base
/// instead of the measured +23 % (the OC3 configuration).
fn oc_envelope() -> StabilityModel {
    StabilityModel::new(1.40, 1.60, 0.05, 0.75)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn script(entries: Vec<(f64, Action)>) -> Box<dyn Controller> {
    let entries = entries
        .into_iter()
        .map(|(t, a)| (SimTime::from_secs_f64(t), a))
        .collect();
    Box::new(ScriptController::new(entries).expect("script entries are time-sorted"))
}

/// A seed-derived input stream, disjoint per workload.
fn inputs(seed: u64, workload: Workload) -> SimRng {
    SimRng::stream(seed, workload as u64)
}

// ---------------------------------------------------------------- serve_ramp

/// serve_ramp horizon, seconds.
pub const SERVE_RAMP_HORIZON_S: u64 = 1500;

/// Physical servers of the serve_ramp fleet.
const SERVE_RAMP_SERVERS: usize = 8;

/// Per-domain power ask: full overclock needs more than the budget
/// leaves the batch domain, so capping squeezes it.
const SERVE_RAMP_DEMAND_W: f64 = 450.0;

/// The 800 → 3000 → 1600 QPS ramp as `(start_s, qps)` steps. The short
/// 800 QPS phase keeps the median control step inside the 1500–1600 QPS
/// steps rather than on the edge between two load levels.
const SERVE_RAMP: [(f64, f64); 6] = [
    (0.0, 800.0),
    (100.0, 1500.0),
    (400.0, 2200.0),
    (650.0, 3000.0),
    (900.0, 2300.0),
    (1150.0, 1600.0),
];

fn serve_ramp(seed: u64) -> impl FnOnce() -> WorldSpec {
    move || {
        let mut rng = inputs(seed, Workload::ServeRamp);
        let config = FleetConfigBuilder::small(rng.next_u64())
            .servers(SERVE_RAMP_SERVERS)
            .initial_vms(3)
            .budget_w(800.0)
            .schedule(SERVE_RAMP.to_vec())
            .rng_stream(StreamVersion::V2)
            .build();
        let mut config = config;
        for d in &mut config.domains {
            d.demand_w = SERVE_RAMP_DEMAND_W;
        }
        let budget_w = config.budget_w;
        // One scripted failure of a VM host in the descending phase (worst
        // fit places the first VMs on the highest-numbered servers); the
        // repair lands two to four minutes later.
        let server = SERVE_RAMP_SERVERS - 1 - rng.index(2);
        let fail_at = rng.uniform_range(1000.0, 1100.0);
        let repair_at = fail_at + rng.uniform_range(150.0, 250.0);
        let asc = AscConfig::paper();
        let asc_period = SimDuration::from_secs_f64(asc.decision_period_s);
        WorldSpec {
            label: "fleet",
            config,
            controllers: vec![
                (Box::new(AutoScaler::new(asc, Policy::OcA)), asc_period),
                (
                    Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
                    secs(30),
                ),
                (
                    Box::new(GovernorController::new(
                        governor(oc_envelope(), 1.0),
                        Frequency::from_ghz(4.1),
                        Frequency::from_ghz(3.4),
                    )),
                    secs(30),
                ),
                (
                    script(vec![
                        (fail_at, Action::FailServer { server }),
                        (repair_at, Action::RepairServer { server }),
                    ]),
                    secs(15),
                ),
                (Box::new(FailoverController::new(1.2)), secs(15)),
            ],
            faults: None,
            horizon_s: SERVE_RAMP_HORIZON_S,
        }
    }
}

pub(crate) fn check_serve_ramp(w: &WorldRun) -> Result<(), String> {
    let s = &w.stats;
    ensure(s.completed > 0, "no request completed")?;
    ensure(
        s.cp_ticks == s.expected_ticks,
        &format!("{} ticks, cadences imply {}", s.cp_ticks, s.expected_ticks),
    )?;
    let ghz = s.governor_ghz.ok_or("governor decision unreachable")?;
    ensure(
        (3.4..=4.1).contains(&ghz),
        &format!("governor grant {ghz} GHz outside [3.4, 4.1]"),
    )?;
    ensure(
        s.failed_end == 0,
        &format!("{} servers still failed at the horizon", s.failed_end),
    )
}

// ---------------------------------------------------------------- fleet_cap

/// Power domains (and servers) of the fleet_cap fleet.
pub const FLEET_CAP_DOMAINS: usize = 250_000;

/// Domains of the reference fleet the governor must agree with.
pub const FLEET_CAP_REFERENCE_DOMAINS: usize = 100;

/// fleet_cap horizon, seconds.
pub const FLEET_CAP_HORIZON_S: u64 = 1200;

/// Serving VMs of the fleet_cap fleet.
const FLEET_CAP_VMS: usize = 64;

/// Aggregate client load, QPS. Flat, so step costs do not cluster by
/// load level around the median.
const FLEET_CAP_QPS: f64 = 150.0;

/// Scripted fail/repair pairs, staggered over the horizon.
const FLEET_CAP_FAILURES: usize = 20;

fn fleet_cap(seed: u64, domains: usize) -> impl FnOnce() -> WorldSpec {
    move || {
        let mut rng = inputs(seed, Workload::FleetCap);
        // 64 VMs sharing 150 QPS: the serving sim stays a small share
        // of the host time, which the power path dominates.
        let config = FleetConfigBuilder::small(rng.next_u64())
            .servers(domains)
            .initial_vms(FLEET_CAP_VMS)
            .schedule(vec![(0.0, FLEET_CAP_QPS)])
            .rng_stream(StreamVersion::V2)
            .budget_w(100.0 * domains as f64)
            .domains(
                (0..domains)
                    .map(|i| DomainSpec {
                        domain: i as u64,
                        priority: if i % 4 == 0 {
                            Priority::Critical
                        } else {
                            Priority::Batch
                        },
                        floor_w: 60.0,
                        demand_w: 130.0,
                    })
                    .collect(),
            )
            .power_model(PowerModelSpec {
                sku: CpuSku::skylake_8180(),
                bins: [0.080, 0.084, 0.088, 0.092]
                    .iter()
                    .map(|&r| ThermalInterface::two_phase(DielectricFluid::hfe7000(), r, 0.0))
                    .collect(),
                base_ghz: 3.4,
            })
            .build();
        let budget_w = config.budget_w;
        // Twenty distinct servers that host no VM in this fleet or the
        // reference one (worst fit fills the highest-numbered servers
        // first), so failures drive failover boosts through the power
        // path, not placement. Failed at staggered instants and repaired
        // 20–30 s later: failures never overlap, and every seed runs
        // the same number of boost/restore cycles.
        let mut servers: Vec<usize> = (0..FLEET_CAP_REFERENCE_DOMAINS - FLEET_CAP_VMS).collect();
        for i in 0..FLEET_CAP_FAILURES {
            let j = i + rng.index(servers.len() - i);
            servers.swap(i, j);
        }
        let spacing = 0.85 * FLEET_CAP_HORIZON_S as f64 / FLEET_CAP_FAILURES as f64;
        let mut entries = Vec::with_capacity(2 * FLEET_CAP_FAILURES);
        for (k, &server) in servers[..FLEET_CAP_FAILURES].iter().enumerate() {
            let fail_at = 30.0 + spacing * k as f64 + rng.uniform_range(0.0, 10.0);
            let repair_at = fail_at + rng.uniform_range(20.0, 30.0);
            entries.push((fail_at, Action::FailServer { server }));
            entries.push((repair_at, Action::RepairServer { server }));
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        WorldSpec {
            label: "fleet",
            config,
            controllers: vec![
                (
                    Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
                    secs(30),
                ),
                (
                    Box::new(GovernorController::new(
                        governor(StabilityModel::paper_characterization(), 5.0),
                        Frequency::from_ghz(4.1),
                        Frequency::from_ghz(3.4),
                    )),
                    secs(30),
                ),
                (script(entries), secs(10)),
                (Box::new(FailoverController::new(1.2)), secs(15)),
            ],
            faults: None,
            horizon_s: FLEET_CAP_HORIZON_S,
        }
    }
}

/// The governor GHz of the 100-domain fleet with fleet_cap's
/// per-domain shape and the same seed, memoized per seed.
pub fn fleet_cap_reference(seed: u64) -> Option<f64> {
    use std::sync::Mutex;
    static MEMO: Mutex<Option<(u64, Option<f64>)>> = Mutex::new(None);
    let mut memo = MEMO.lock().expect("reference memo is never poisoned");
    if let Some((s, ghz)) = *memo {
        if s == seed {
            return ghz;
        }
    }
    let ghz = execute(fleet_cap(seed, FLEET_CAP_REFERENCE_DOMAINS), Mode::Bare)
        .stats
        .governor_ghz;
    *memo = Some((seed, ghz));
    ghz
}

pub(crate) fn check_fleet_cap(w: &WorldRun, reference_ghz: &Option<f64>) -> Result<(), String> {
    let s = &w.stats;
    ensure(s.completed > 0, "no request completed")?;
    ensure(
        s.cp_ticks == s.expected_ticks,
        &format!("{} ticks, cadences imply {}", s.cp_ticks, s.expected_ticks),
    )?;
    let ghz = s.governor_ghz.ok_or("governor decision unreachable")?;
    let reference = reference_ghz.ok_or("reference governor never decided")?;
    ensure(
        ghz == reference,
        &format!(
            "governor {ghz} GHz at {FLEET_CAP_DOMAINS} domains vs {reference} GHz at \
             {FLEET_CAP_REFERENCE_DOMAINS}"
        ),
    )?;
    ensure(
        s.cache_misses <= (s.demand_refreshes + 1) * s.bins,
        &format!(
            "{} cache misses exceed ({} refreshes + 1) x {} bins",
            s.cache_misses, s.demand_refreshes, s.bins
        ),
    )?;
    ensure(
        s.failed_end == 0,
        &format!("{} servers still failed at the horizon", s.failed_end),
    )
}

// ---------------------------------------------------------------- chaos_churn

/// Servers per chaos fleet.
pub const CHAOS_SERVERS: usize = 2048;

/// Serving VMs per chaos fleet at t = 0.
const CHAOS_VMS: usize = 256;

/// chaos_churn horizon, seconds.
pub const CHAOS_HORIZON_S: u64 = 900;

/// Accelerated-aging factor on the wear model's failure rate.
const CHAOS_HAZARD_SCALE: f64 = 1.0e5;

/// Correctable-error acceleration.
const CHAOS_ERROR_SCALE: f64 = 3.0e4;

/// Chaos fleets' power budget and per-domain ask: capping must not
/// flatten the B2/OC3 frequency difference.
const CHAOS_BUDGET_W: f64 = 1500.0;
const CHAOS_DEMAND_W: f64 = 450.0;

/// Which side of the B2/OC3 comparison a fleet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosFleet {
    B2,
    Oc3,
}

/// The true stability envelope driving correctable errors, relative to
/// the 3.4 GHz base clock.
fn chaos_stability() -> StabilityModel {
    StabilityModel::new(1.0, 1.6, 0.05, 0.35)
}

fn chaos_fleet(seed: u64, fleet: ChaosFleet) -> impl FnOnce() -> WorldSpec {
    move || {
        let mut rng = inputs(seed, Workload::ChaosChurn);
        let workload_seed = rng.next_u64();
        let mut faults = FaultConfig::disabled();
        // One fault seed for both fleets: the CRN coupling.
        faults.seed = rng.next_u64();
        faults.hazard_scale = CHAOS_HAZARD_SCALE;
        faults.error_scale = CHAOS_ERROR_SCALE;
        faults.repair_min_s = 45.0;
        faults.repair_max_s = 90.0;
        let freeze_at = rng.uniform_range(300.0, 500.0);
        faults.stale_telemetry = vec![FaultWindow {
            from_s: freeze_at,
            until_s: freeze_at + 60.0,
        }];
        // 20 QPS per VM, flat, so step costs do not cluster by load
        // level around the median.
        let config = FleetConfigBuilder::small(workload_seed)
            .servers(CHAOS_SERVERS)
            .initial_vms(CHAOS_VMS)
            .schedule(vec![(0.0, 20.0 * CHAOS_VMS as f64)])
            .rng_stream(StreamVersion::V2)
            .budget_w(CHAOS_BUDGET_W)
            .faults(faults.clone())
            .build();
        let mut config = config;
        for d in &mut config.domains {
            d.demand_w = CHAOS_DEMAND_W;
        }
        let (requested_ghz, lifetime_years, gov_stability, offset_v, deoc_ratio, policy) =
            match fleet {
                ChaosFleet::B2 => (
                    3.4,
                    5.0,
                    StabilityModel::paper_characterization(),
                    0.0,
                    1.0,
                    Policy::Baseline,
                ),
                ChaosFleet::Oc3 => (4.1, 1.0, oc_envelope(), 0.050, 1.08, Policy::OcA),
            };
        let gov = governor(gov_stability, lifetime_years);
        let restore_ratio = gov
            .decide(Frequency::from_ghz(requested_ghz), CHAOS_BUDGET_W)
            .frequency
            .ratio_to(Frequency::from_ghz(3.4));
        let mut asc = AscConfig::paper();
        // The ASC's selectable bins stop at the governor's grant.
        asc.freq_ratios.retain(|&r| r <= restore_ratio + 1e-9);
        if asc.freq_ratios.is_empty() {
            asc.freq_ratios.push(1.0);
        }
        asc.min_vms = CHAOS_VMS - 32;
        asc.max_vms = CHAOS_VMS + 64;
        let asc_period = SimDuration::from_secs_f64(asc.decision_period_s);
        let process = FaultProcess::new(
            faults.clone(),
            CHAOS_SERVERS,
            CompositeLifetimeModel::fitted_5nm(),
            chaos_stability(),
        );
        let plan = FaultPlan::new(
            faults
                .stale_telemetry
                .iter()
                .map(|w| {
                    (
                        SimTime::from_secs_f64(w.from_s),
                        Action::FreezeTelemetry {
                            until: SimTime::from_secs_f64(w.until_s),
                        },
                    )
                })
                .collect(),
        );
        WorldSpec {
            label: match fleet {
                ChaosFleet::B2 => "b2",
                ChaosFleet::Oc3 => "oc3",
            },
            config,
            controllers: vec![
                (Box::new(AutoScaler::new(asc, policy)), asc_period),
                (
                    Box::new(PowerCapController::new(PowerAllocator::new(CHAOS_BUDGET_W))),
                    secs(30),
                ),
                (
                    Box::new(GovernorController::new(
                        gov,
                        Frequency::from_ghz(requested_ghz),
                        Frequency::from_ghz(3.4),
                    )),
                    secs(30),
                ),
                (
                    Box::new(ChaosController::new(
                        process,
                        CpuSku::skylake_8180(),
                        tank(),
                        Frequency::from_ghz(3.4),
                        offset_v,
                    )),
                    secs(15),
                ),
                (
                    Box::new(DegradationController::new(DegradationPolicy {
                        fleet_errors_per_tick: 400,
                        server_burst_errors: 6,
                        deoc_ratio,
                        drain_cooldown_s: 60.0,
                    })),
                    secs(15),
                ),
                (
                    Box::new(FailoverController::with_restore(1.1, restore_ratio)),
                    secs(15),
                ),
            ],
            faults: Some(plan),
            horizon_s: CHAOS_HORIZON_S,
        }
    }
}

fn chaos_churn(seed: u64, mode: Mode) -> Replica {
    let fleets = vec![ChaosFleet::B2, ChaosFleet::Oc3];
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(fleets.len());
    let pool = ParPool::with_workers(workers);
    let t0 = Instant::now();
    let worlds = pool.scatter_gather(fleets, |_, fleet| execute(chaos_fleet(seed, fleet), mode));
    let par_wall_s = t0.elapsed().as_secs_f64();
    let run_start = worlds
        .iter()
        .map(|w| w.run_start)
        .min()
        .expect("two fleets");
    let run_end = worlds.iter().map(|w| w.run_end).max().expect("two fleets");
    let check = check_chaos_churn(&worlds[0], &worlds[1]);
    let digest = worlds
        .iter()
        .fold(Fnv::new(), |h, w| h.word(w.stats.digest(w.label)))
        .finish();
    Replica {
        run_wall_s: (run_end - run_start).as_secs_f64(),
        par_wall_s,
        par_workers: pool.workers(),
        digest,
        check,
        worlds,
    }
}

pub(crate) fn check_chaos_churn(b2: &WorldRun, oc3: &WorldRun) -> Result<(), String> {
    for w in [b2, oc3] {
        let a = w.stats.availability;
        ensure(
            (0.0..=1.0).contains(&a),
            &format!("{} availability {a} outside [0, 1]", w.label),
        )?;
        ensure(
            w.stats.completed > 0,
            &format!("{} completed no request", w.label),
        )?;
    }
    ensure(
        oc3.stats.chaos_failures >= b2.stats.chaos_failures,
        &format!(
            "OC3 {} wear failures < B2 {}",
            oc3.stats.chaos_failures, b2.stats.chaos_failures
        ),
    )?;
    ensure(
        oc3.stats.availability <= b2.stats.availability,
        &format!(
            "OC3 availability {} > B2 {}",
            oc3.stats.availability, b2.stats.availability
        ),
    )
}

fn ensure(ok: bool, why: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why.to_string())
    }
}
