//! Per-layer attribution of a traced replica: the metric set, the
//! self-time table, and the Chrome trace export.

use crate::probe::{Call, Recorder, Tally, CONTROLLERS, VERBS};
use crate::workloads::{Replica, WorldStats};
use ic_obs::flight::FlightRecorder;
use ic_obs::json::Value;
use ic_obs::trace::TraceLevel;
use ic_sim::time::SimTime;

/// Verbs reported per-layer (the rest never fire in these workloads).
const METRIC_VERBS: [&str; 10] = [
    "grant_power",
    "fail_server",
    "repair_server",
    "inject_error_burst",
    "migrate",
    "scale_out",
    "scale_in",
    "set_frequency",
    "set_share",
    "freeze_telemetry",
];

/// Controllers reported per-layer.
const METRIC_CONTROLLERS: [&str; 7] = [
    "asc",
    "powercap",
    "governor",
    "chaos",
    "degradation",
    "script",
    "failover",
];

/// Directory, relative to the working directory, for trace files.
pub const TRACE_DIR: &str = ".bench_out";

/// One traced replica folded over its worlds.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Every world's probe tallies, merged.
    pub rec: Recorder,
    /// Summed deterministic outcomes.
    pub stats: WorldStats,
    /// Σ host ns inside `run_until`.
    pub run_ns: u64,
    /// Σ host ns inside `FleetWorld::new`.
    pub new_ns: u64,
    /// Σ host ns of control steps.
    pub step_ns: u64,
    /// Control steps timed.
    pub steps: u64,
    /// ic-par workers.
    pub par_workers: usize,
    /// Σ host ns the ic-par tasks were busy.
    pub par_busy_ns: u64,
    /// Host seconds of the scatter-gather.
    pub par_wall_s: f64,
    /// Spans kept.
    pub spans: u64,
}

fn verb(name: &str) -> usize {
    VERBS
        .iter()
        .position(|&v| v == name)
        .expect("metric verbs are action verbs")
}

fn controller(name: &str) -> usize {
    CONTROLLERS
        .iter()
        .position(|&c| c == name)
        .expect("metric controllers are probe slots")
}

impl Summary {
    /// Folds `replica`'s worlds (which must all carry recorders).
    pub fn of(replica: &Replica) -> Summary {
        let mut worlds = replica.worlds.iter().map(|w| {
            (
                w,
                w.rec
                    .as_ref()
                    .expect("traced replicas carry a recorder per world"),
            )
        });
        let (w0, r0) = worlds.next().expect("a replica has at least one world");
        let mut s = Summary {
            rec: r0.clone(),
            stats: w0.stats.clone(),
            run_ns: w0.run_ns,
            new_ns: w0.new_ns,
            step_ns: r0.step_ns.iter().sum(),
            steps: r0.step_ns.len() as u64,
            par_workers: replica.par_workers,
            par_busy_ns: w0.task_ns,
            par_wall_s: replica.par_wall_s,
            spans: r0.spans().len() as u64,
        };
        for (w, r) in worlds {
            s.rec.merge_counts(r);
            let (a, b) = (&mut s.stats, &w.stats);
            a.cp_ticks += b.cp_ticks;
            a.cp_events += b.cp_events;
            a.sim_events += b.sim_events;
            a.boxed_events += b.boxed_events;
            a.cache_hits += b.cache_hits;
            a.cache_misses += b.cache_misses;
            a.demand_refreshes += b.demand_refreshes;
            a.chaos_failures += b.chaos_failures;
            a.chaos_bursts += b.chaos_bursts;
            a.deocs += b.deocs;
            a.drains += b.drains;
            s.run_ns += w.run_ns;
            s.new_ns += w.new_ns;
            s.step_ns += r.step_ns.iter().sum::<u64>();
            s.steps += r.step_ns.len() as u64;
            s.par_busy_ns += w.task_ns;
            s.spans += r.spans().len() as u64;
        }
        s
    }

    /// Every count the run must repeat exactly.
    pub fn counts(&self) -> Vec<u64> {
        let r = &self.rec;
        let mut c = vec![
            r.advance.calls,
            r.telemetry.calls,
            r.telemetry_rows,
            r.complete_scale_out.calls,
            r.recreated,
            r.unplaced,
            self.steps,
            self.stats.cp_ticks,
            self.stats.cp_events,
            self.stats.sim_events,
            self.stats.boxed_events,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.stats.demand_refreshes,
            self.stats.chaos_failures,
            self.stats.chaos_bursts,
            self.stats.deocs,
            self.stats.drains,
        ];
        c.extend(r.apply.iter().map(|t| t.calls));
        c.extend(r.rejected);
        c.extend(r.observe.iter().map(|t| t.calls));
        c.extend(r.applied.iter().map(|t| t.calls));
        c.extend(r.actions);
        c
    }

    /// Host ns of `run_until` not spent inside a timed call: the
    /// plane's own tick engine and bookkeeping.
    fn sched_self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.rec.wrapped_ns())
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(summaries: &[Summary], f: impl Fn(&Summary) -> f64) -> f64 {
    let mut v: Vec<f64> = summaries.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The per-layer metric set: host times are medians over the traced
/// replicas, counts come from the first (the run checks they repeat).
pub fn metrics(summaries: &[Summary], trace_overhead: f64) -> Vec<(String, f64, &'static str)> {
    let s0 = &summaries[0];
    let (r, st) = (&s0.rec, &s0.stats);
    let busy = |f: &dyn Fn(&Summary) -> u64| median_of(summaries, |s| secs(f(s)));
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));

    let advance_s = busy(&|s| s.rec.advance.busy_ns);
    push("workloads.advance_calls", r.advance.calls as f64, "count");
    push("workloads.advance_busy_s", advance_s, "s");
    push("workloads.events", st.sim_events as f64, "count");
    push(
        "workloads.ns_per_event",
        ratio(advance_s * 1e9, st.sim_events as f64),
        "ns",
    );
    push("workloads.boxed_events", st.boxed_events as f64, "count");

    let telemetry_s = busy(&|s| s.rec.telemetry.busy_ns);
    push("controlplane.setup_s", busy(&|s| s.new_ns), "s");
    push(
        "controlplane.telemetry_calls",
        r.telemetry.calls as f64,
        "count",
    );
    push("controlplane.telemetry_busy_s", telemetry_s, "s");
    push(
        "controlplane.telemetry_ns_per_vm_row",
        ratio(telemetry_s * 1e9, r.telemetry_rows as f64),
        "ns",
    );
    for name in METRIC_VERBS {
        let v = verb(name);
        push(
            &format!("controlplane.apply_calls.{name}"),
            r.apply[v].calls as f64,
            "count",
        );
        push(
            &format!("controlplane.apply_busy_s.{name}"),
            busy(&|s| s.rec.apply[v].busy_ns),
            "s",
        );
        push(
            &format!("controlplane.apply_rejected.{name}"),
            r.rejected[v] as f64,
            "count",
        );
    }
    push(
        "controlplane.complete_scale_out_calls",
        r.complete_scale_out.calls as f64,
        "count",
    );
    push(
        "controlplane.complete_scale_out_busy_s",
        busy(&|s| s.rec.complete_scale_out.busy_ns),
        "s",
    );
    push("controlplane.run_s", busy(&|s| s.run_ns), "s");
    push(
        "controlplane.sched_self_s",
        busy(&|s| s.sched_self_ns()),
        "s",
    );
    push(
        "controlplane.step_self_s",
        busy(&|s| s.step_ns.saturating_sub(s.rec.in_step_ns)),
        "s",
    );
    push("controlplane.ticks", st.cp_ticks as f64, "count");
    push("controlplane.events", st.cp_events as f64, "count");

    for name in METRIC_CONTROLLERS {
        let c = controller(name);
        push(
            &format!("ctl.{name}.ticks"),
            r.observe[c].calls as f64,
            "count",
        );
        push(&format!("ctl.{name}.actions"), r.actions[c] as f64, "count");
        push(
            &format!("ctl.{name}.observe_busy_s"),
            busy(&|s| s.rec.observe[c].busy_ns),
            "s",
        );
        push(
            &format!("ctl.{name}.applied_busy_s"),
            busy(&|s| s.rec.applied[c].busy_ns),
            "s",
        );
    }

    let placed = (r.recreated + r.unplaced) as f64;
    push("cluster.recreated", r.recreated as f64, "count");
    push("cluster.unplaced", r.unplaced as f64, "count");
    push(
        "cluster.placement_ratio",
        if placed > 0.0 {
            r.recreated as f64 / placed
        } else {
            1.0
        },
        "frac",
    );

    let lookups = (st.cache_hits + st.cache_misses) as f64;
    push("power.cache_hits", st.cache_hits as f64, "count");
    push("power.cache_misses", st.cache_misses as f64, "count");
    push(
        "power.cache_hit_ratio",
        ratio(st.cache_hits as f64, lookups),
        "frac",
    );
    push(
        "power.demand_refreshes",
        st.demand_refreshes as f64,
        "count",
    );

    push("par.workers", s0.par_workers as f64, "count");
    push("par.busy_s", busy(&|s| s.par_busy_ns), "s");
    push(
        "par.idle_frac",
        median_of(summaries, |s| {
            1.0 - secs(s.par_busy_ns) / (s.par_workers as f64 * s.par_wall_s)
        }),
        "frac",
    );

    push("obs.trace_overhead_frac", trace_overhead, "frac");
    push("obs.spans", s0.spans as f64, "count");
    push("obs.spans_dropped", r.spans_dropped as f64, "count");

    push("chaos.failures_injected", st.chaos_failures as f64, "count");
    push("chaos.bursts_injected", st.chaos_bursts as f64, "count");
    push("degradation.deocs", st.deocs as f64, "count");
    push("degradation.drains", st.drains as f64, "count");
    m
}

/// The human self-time table: every timed call site with calls, host
/// seconds, and share of `run_until` wall time, largest first. World
/// and controller calls never nest, so their self time is their busy
/// time; the step row's self time excludes the calls inside it.
pub fn self_time_table(s: &Summary) -> String {
    let r = &s.rec;
    let mut rows: Vec<(String, Tally)> = Vec::new();
    let mut add = |call: Call, t: Tally| {
        if t.calls > 0 {
            let (layer, name) = call.names();
            rows.push((format!("{layer} {name}"), t));
        }
    };
    add(Call::Advance, r.advance);
    add(Call::Telemetry, r.telemetry);
    add(Call::CompleteScaleOut, r.complete_scale_out);
    for (v, t) in r.apply.iter().enumerate() {
        add(Call::Apply(v as u8), *t);
    }
    for c in 0..CONTROLLERS.len() {
        add(Call::Observe(c as u8), r.observe[c]);
        add(Call::Applied(c as u8), r.applied[c]);
    }
    rows.push((
        "controlplane sched_self".into(),
        Tally {
            calls: s.stats.cp_events,
            busy_ns: s.sched_self_ns(),
        },
    ));
    rows.sort_by(|a, b| b.1.busy_ns.cmp(&a.1.busy_ns).then_with(|| a.0.cmp(&b.0)));
    let run_s = secs(s.run_ns);
    let mut out = format!(
        "== self time by layer (one traced replica; run_until {run_s:.4} s) ==\n{:<40} {:>10} {:>12} {:>7}\n",
        "layer call", "calls", "self_s", "share"
    );
    for (name, t) in &rows {
        out.push_str(&format!(
            "{name:<40} {:>10} {:>12.6} {:>6.2}%\n",
            t.calls,
            secs(t.busy_ns),
            100.0 * ratio(secs(t.busy_ns), run_s)
        ));
    }
    let step_self = s.step_ns.saturating_sub(r.in_step_ns);
    out.push_str(&format!(
        "{:<40} {:>10} {:>12.6} {:>6.2}%   (step bookkeeping outside the calls)\n",
        "controlplane step_self",
        s.steps,
        secs(step_self),
        100.0 * ratio(secs(step_self), run_s)
    ));
    out.push_str(&format!(
        "timed calls cover {:.2}% of run_until\n",
        100.0 * ratio(secs(r.wrapped_ns()), run_s)
    ));
    out
}

/// Writes the kept spans of `replica` as a Chrome trace (one track per
/// world) through the ic-obs exporter; returns the path. Timestamps are
/// host microseconds since the process's probe epoch.
pub fn write_chrome_trace(workload: &str, replica: &Replica) -> std::io::Result<String> {
    let total: usize = replica
        .worlds
        .iter()
        .filter_map(|w| w.rec.as_ref())
        .map(|r| r.spans().len())
        .sum();
    let mut trace = FlightRecorder::new(total.max(1));
    for w in &replica.worlds {
        let Some(rec) = &w.rec else { continue };
        let mut track = FlightRecorder::new(rec.spans().len().max(1));
        for span in rec.spans() {
            let (layer, call) = span.call.names();
            track.record_complete(
                SimTime::from_nanos(span.start_ns),
                SimTime::from_nanos(span.end_ns),
                layer,
                call,
                TraceLevel::Info,
                vec![("step", Value::U64(span.step as u64))],
            );
        }
        trace.absorb(track, w.label);
    }
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{workload}.trace.json");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace.write_trace(&mut file, true)?;
    std::io::Write::flush(&mut file)?;
    Ok(path)
}
