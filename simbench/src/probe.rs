//! Host-time probes around the public layer boundaries of a composed
//! run.
//!
//! [`TimedWorld`] wraps any [`World`] and [`TimedController`] wraps any
//! [`Controller`]; both forward every call unchanged and time it from
//! outside into a shared [`Recorder`]. In [`Depth::Steps`] only the
//! control-step boundaries (`pre_tick` → `post_tick`) are timed — the
//! cheapest probe that still yields per-step latency, used for the
//! untraced end-to-end runs. [`Depth::Layers`] additionally times every
//! world and controller call, counts outcomes, and keeps a bounded span
//! log.
//!
//! Per-call bookkeeping is allocation-free: calls are keyed by small
//! integer ids into fixed arrays, and spans go into a vector reserved
//! up front.

use ic_controlplane::{Action, Controller, Outcome, TelemetrySnapshot, TickReport, World};
use ic_sim::time::SimTime;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// One epoch for every recorder in the process, so spans of worlds run
/// on different threads share a time axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Action verbs in [`Action::verb`] spelling; a verb's index keys the
/// per-verb counters.
pub const VERBS: [&str; 12] = [
    "scale_out",
    "scale_in",
    "set_frequency",
    "set_share",
    "grant_power",
    "revoke_power",
    "migrate",
    "fail_server",
    "repair_server",
    "inject_error_burst",
    "freeze_telemetry",
    "drop_vm_sensor",
];

/// Controller names the probes attribute time to; anything else lands
/// in the last slot.
pub const CONTROLLERS: [&str; 8] = [
    "asc",
    "powercap",
    "governor",
    "chaos",
    "degradation",
    "script",
    "failover",
    "other",
];

/// The index of `action`'s verb in [`VERBS`].
pub fn verb_index(action: &Action) -> usize {
    match action {
        Action::ScaleOut { .. } => 0,
        Action::ScaleIn { .. } => 1,
        Action::SetFrequency { .. } => 2,
        Action::SetShare { .. } => 3,
        Action::GrantPower { .. } => 4,
        Action::RevokePower { .. } => 5,
        Action::Migrate { .. } => 6,
        Action::FailServer { .. } => 7,
        Action::RepairServer { .. } => 8,
        Action::InjectErrorBurst { .. } => 9,
        Action::FreezeTelemetry { .. } => 10,
        Action::DropVmSensor { .. } => 11,
    }
}

fn controller_index(name: &str) -> usize {
    CONTROLLERS[..CONTROLLERS.len() - 1]
        .iter()
        .position(|&n| n == name)
        .unwrap_or(CONTROLLERS.len() - 1)
}

/// One timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One control step, `pre_tick` to `post_tick`.
    Step,
    /// `World::advance_to` — the serving sim (ic-workloads + ic-sim).
    Advance,
    /// `World::telemetry`.
    Telemetry,
    /// `World::complete_scale_out`.
    CompleteScaleOut,
    /// `World::apply`, by verb index.
    Apply(u8),
    /// `Controller::observe`, by controller index.
    Observe(u8),
    /// `Controller::applied`, by controller index.
    Applied(u8),
}

impl Call {
    /// `(layer, call)` names for traces and tables.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Call::Step => ("controlplane", "step"),
            Call::Advance => ("workloads", "advance_to"),
            Call::Telemetry => ("controlplane", "telemetry"),
            Call::CompleteScaleOut => ("controlplane", "complete_scale_out"),
            Call::Apply(v) => ("controlplane", APPLY_NAMES[v as usize]),
            Call::Observe(c) => (CTL_LAYERS[c as usize], "observe"),
            Call::Applied(c) => (CTL_LAYERS[c as usize], "applied"),
        }
    }
}

const APPLY_NAMES: [&str; 12] = [
    "apply.scale_out",
    "apply.scale_in",
    "apply.set_frequency",
    "apply.set_share",
    "apply.grant_power",
    "apply.revoke_power",
    "apply.migrate",
    "apply.fail_server",
    "apply.repair_server",
    "apply.inject_error_burst",
    "apply.freeze_telemetry",
    "apply.drop_vm_sensor",
];

const CTL_LAYERS: [&str; 8] = [
    "ctl.asc",
    "ctl.powercap",
    "ctl.governor",
    "ctl.chaos",
    "ctl.degradation",
    "ctl.script",
    "ctl.failover",
    "ctl.other",
];

/// One recorded span: host nanoseconds since the recorder's epoch and
/// the control step it belongs to (0 = outside any step).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub call: Call,
    /// Host start, ns since the recorder epoch.
    pub start_ns: u64,
    /// Host end, ns since the recorder epoch.
    pub end_ns: u64,
    /// The enclosing step's id.
    pub step: u32,
}

/// Calls and host time at one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub busy_ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
    }

    fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
    }
}

/// How much a probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Step boundaries only.
    Steps,
    /// Every layer call, plus spans.
    Layers,
}

/// Everything the probes of one world record.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    depth: Depth,
    /// Host ns of timed calls made inside a control step.
    pub in_step_ns: u64,
    step: u32,
    step_start_ns: Option<u64>,
    /// Host ns of every completed control step, in order.
    pub step_ns: Vec<u64>,
    /// `World::advance_to`.
    pub advance: Tally,
    /// `World::telemetry`.
    pub telemetry: Tally,
    /// VM rows in the snapshots `telemetry` returned.
    pub telemetry_rows: u64,
    /// `World::complete_scale_out`.
    pub complete_scale_out: Tally,
    /// `World::apply`, by verb.
    pub apply: [Tally; VERBS.len()],
    /// Rejected `apply` outcomes, by verb.
    pub rejected: [u64; VERBS.len()],
    /// `Controller::observe`, by controller.
    pub observe: [Tally; CONTROLLERS.len()],
    /// `Controller::applied`, by controller.
    pub applied: [Tally; CONTROLLERS.len()],
    /// Actions returned by `observe` and `applied`, by controller.
    pub actions: [u64; CONTROLLERS.len()],
    /// VMs re-created on healthy servers by accepted failovers.
    pub recreated: u64,
    /// VMs parked because failover found no capacity.
    pub unplaced: u64,
    spans: Vec<Span>,
    span_cap: usize,
    /// Spans not kept because the log was full.
    pub spans_dropped: u64,
}

impl Recorder {
    /// A recorder keeping at most `span_cap` spans (spans are recorded
    /// only at [`Depth::Layers`]).
    pub fn new(depth: Depth, span_cap: usize) -> Self {
        let span_cap = if depth == Depth::Layers { span_cap } else { 0 };
        Recorder {
            epoch: epoch(),
            depth,
            in_step_ns: 0,
            step: 0,
            step_start_ns: None,
            step_ns: Vec::with_capacity(4096),
            advance: Tally::default(),
            telemetry: Tally::default(),
            telemetry_rows: 0,
            complete_scale_out: Tally::default(),
            apply: [Tally::default(); VERBS.len()],
            rejected: [0; VERBS.len()],
            observe: [Tally::default(); CONTROLLERS.len()],
            applied: [Tally::default(); CONTROLLERS.len()],
            actions: [0; CONTROLLERS.len()],
            recreated: 0,
            unplaced: 0,
            spans: Vec::with_capacity(span_cap),
            span_cap,
            spans_dropped: 0,
        }
    }

    /// Shared handle for the probes of one world.
    pub fn shared(depth: Depth, span_cap: usize) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder::new(depth, span_cap)))
    }

    /// Host ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Kept spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn span(&mut self, call: Call, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.span_cap {
            self.spans.push(Span {
                call,
                start_ns,
                end_ns,
                step: self.step_start_ns.map_or(0, |_| self.step),
            });
        } else if self.depth == Depth::Layers {
            self.spans_dropped += 1;
        }
    }

    /// Closes a call opened at `start_ns`: tallies it under `call` and
    /// logs its span.
    fn record(&mut self, call: Call, start_ns: u64) {
        let end_ns = self.now_ns();
        let ns = end_ns - start_ns;
        match call {
            Call::Step => {}
            Call::Advance => self.advance.add(ns),
            Call::Telemetry => self.telemetry.add(ns),
            Call::CompleteScaleOut => self.complete_scale_out.add(ns),
            Call::Apply(v) => self.apply[v as usize].add(ns),
            Call::Observe(c) => self.observe[c as usize].add(ns),
            Call::Applied(c) => self.applied[c as usize].add(ns),
        }
        if self.step_start_ns.is_some() {
            self.in_step_ns += ns;
        }
        self.span(call, start_ns, end_ns);
    }

    fn begin_step(&mut self) {
        self.step += 1;
        self.step_start_ns = Some(self.now_ns());
    }

    fn end_step(&mut self) {
        if let Some(start_ns) = self.step_start_ns {
            let end_ns = self.now_ns();
            self.step_ns.push(end_ns - start_ns);
            if self.depth == Depth::Layers {
                self.span(Call::Step, start_ns, end_ns);
            }
            self.step_start_ns = None;
        }
    }

    fn outcome(&mut self, verb: usize, outcome: &Outcome) {
        match outcome {
            Outcome::Rejected { .. } => self.rejected[verb] += 1,
            Outcome::FailedOver {
                recreated,
                unplaced,
            } => {
                self.recreated += *recreated as u64;
                self.unplaced += *unplaced as u64;
            }
            _ => {}
        }
    }

    /// Host ns inside every timed world and controller call (steps
    /// excluded — they enclose the others).
    pub fn wrapped_ns(&self) -> u64 {
        let sum = |t: &[Tally]| t.iter().map(|t| t.busy_ns).sum::<u64>();
        self.advance.busy_ns
            + self.telemetry.busy_ns
            + self.complete_scale_out.busy_ns
            + sum(&self.apply)
            + sum(&self.observe)
            + sum(&self.applied)
    }

    /// Adds `other`'s tallies and counts into `self` (steps and spans
    /// are left alone).
    pub fn merge_counts(&mut self, other: &Recorder) {
        self.in_step_ns += other.in_step_ns;
        self.advance.merge(&other.advance);
        self.telemetry.merge(&other.telemetry);
        self.telemetry_rows += other.telemetry_rows;
        self.complete_scale_out.merge(&other.complete_scale_out);
        for i in 0..VERBS.len() {
            self.apply[i].merge(&other.apply[i]);
            self.rejected[i] += other.rejected[i];
        }
        for i in 0..CONTROLLERS.len() {
            self.observe[i].merge(&other.observe[i]);
            self.applied[i].merge(&other.applied[i]);
            self.actions[i] += other.actions[i];
        }
        self.recreated += other.recreated;
        self.unplaced += other.unplaced;
        self.spans_dropped += other.spans_dropped;
    }
}

/// A [`World`] that times the calls into `inner`.
pub struct TimedWorld<W> {
    inner: W,
    rec: Rc<RefCell<Recorder>>,
}

impl<W: World> TimedWorld<W> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: W, rec: Rc<RefCell<Recorder>>) -> Self {
        TimedWorld { inner, rec }
    }

    /// The wrapped world, mutably.
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    fn layers(&self) -> bool {
        self.rec.borrow().depth == Depth::Layers
    }
}

impl<W: World> World for TimedWorld<W> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        if !self.layers() {
            return self.inner.advance_to(t);
        }
        let start = self.rec.borrow().now_ns();
        self.inner.advance_to(t);
        self.rec.borrow_mut().record(Call::Advance, start);
    }

    fn pre_tick(&mut self, tick_at: SimTime) {
        self.rec.borrow_mut().begin_step();
        self.inner.pre_tick(tick_at);
    }

    fn telemetry(&mut self, now: SimTime) -> &TelemetrySnapshot {
        if !self.layers() {
            return self.inner.telemetry(now);
        }
        let start = self.rec.borrow().now_ns();
        let snap = self.inner.telemetry(now);
        let mut rec = self.rec.borrow_mut();
        rec.record(Call::Telemetry, start);
        rec.telemetry_rows += snap.vms.len() as u64;
        snap
    }

    fn apply(&mut self, now: SimTime, source: &'static str, action: &Action) -> Outcome {
        if !self.layers() {
            return self.inner.apply(now, source, action);
        }
        let verb = verb_index(action);
        let start = self.rec.borrow().now_ns();
        let outcome = self.inner.apply(now, source, action);
        let mut rec = self.rec.borrow_mut();
        rec.record(Call::Apply(verb as u8), start);
        rec.outcome(verb, &outcome);
        outcome
    }

    fn complete_scale_out(&mut self, now: SimTime) -> Outcome {
        if !self.layers() {
            return self.inner.complete_scale_out(now);
        }
        let start = self.rec.borrow().now_ns();
        let outcome = self.inner.complete_scale_out(now);
        let mut rec = self.rec.borrow_mut();
        rec.record(Call::CompleteScaleOut, start);
        rec.outcome(0, &outcome);
        outcome
    }

    fn post_tick(&mut self, now: SimTime, controller: &dyn Controller, report: &TickReport) {
        self.inner.post_tick(now, controller, report);
        self.rec.borrow_mut().end_step();
    }
}

/// A [`Controller`] that times the calls into `inner` and forwards its
/// downcasts, so `ControlPlane::controller::<T>` still reaches `T`.
pub struct TimedController {
    inner: Box<dyn Controller>,
    slot: u8,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedController {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Controller>, rec: Rc<RefCell<Recorder>>) -> Self {
        let slot = controller_index(inner.name()) as u8;
        TimedController { inner, slot, rec }
    }
}

impl Controller for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let start = self.rec.borrow().now_ns();
        let actions = self.inner.observe(snapshot);
        let mut rec = self.rec.borrow_mut();
        rec.record(Call::Observe(self.slot), start);
        rec.actions[self.slot as usize] += actions.len() as u64;
        actions
    }

    fn applied(&mut self, now: SimTime, action: &Action, outcome: &Outcome) -> Vec<Action> {
        let start = self.rec.borrow().now_ns();
        let follow = self.inner.applied(now, action, outcome);
        let mut rec = self.rec.borrow_mut();
        rec.record(Call::Applied(self.slot), start);
        rec.actions[self.slot as usize] += follow.len() as u64;
        follow
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
