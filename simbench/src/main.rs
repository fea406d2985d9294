//! End-to-end simulator benchmark.
//!
//! ```text
//! simbench --workload <serve_ramp|fleet_cap|chaos_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs replicas of one workload for `--seconds` of host time and prints
//! a human summary followed, as the last line, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end figures (probes time control steps only);
//! with `--trace 1` they are the per-layer figures from replicas whose
//! every world and controller call is timed, and the kept spans are
//! written as a Chrome trace under `.bench_out/`.
//!
//! A replica fails when it panics, breaks a workload check, or its
//! digest differs from the first replica of the run (every replica of
//! one seed simulates the same inputs). `attempted`/`failed` count
//! replicas, so `failed / attempted` is the failure fraction.

mod layers;
mod probe;
#[cfg(test)]
mod tests;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_replica, Mode, Replica, Workload};

const USAGE: &str = "usage: simbench --workload <serve_ramp|fleet_cap|chaos_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Spans kept per world of the first traced replica.
const SPAN_CAP: usize = 50_000;

/// Timed replicas a run makes even when `--seconds` is already spent.
const MIN_REPLICAS: usize = 3;

/// Set-up-only builds behind the `setup_s` median.
const SETUP_SAMPLES: usize = 15;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Replica bookkeeping shared by both modes: the reference digest and
/// the pass/fail tally.
struct Verdicts {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Verdicts {
    fn new() -> Self {
        Verdicts {
            reference: None,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// Runs one replica, catching panics, and judges it.
    fn run(&mut self, args: &Args, mode: Mode) -> Option<Replica> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_replica(args.workload, args.seed, mode)
        }));
        self.judge(result.map_err(|_| "replica panicked".to_string()))
    }

    /// Counts one attempted replica; returns it only if it completed,
    /// passed its workload checks, and reproduced the run's first
    /// digest.
    fn judge(&mut self, result: Result<Replica, String>) -> Option<Replica> {
        self.attempted += 1;
        let verdict = result.and_then(|r| match (&r.check, self.reference) {
            (Err(why), _) => Err(why.clone()),
            (Ok(()), Some(d)) if d != r.digest => Err(format!(
                "digest {:016x} differs from the run's first {d:016x}",
                r.digest
            )),
            (Ok(()), _) => {
                self.reference.get_or_insert(r.digest);
                Ok(r)
            }
        });
        match verdict {
            Ok(r) => Some(r),
            Err(why) => {
                self.failed += 1;
                self.reasons.push(why);
                None
            }
        }
    }
}

/// The end-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_speedup", "x"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("sim_p95_ms", "ms"),
    ("sim_availability", "frac"),
];

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Control steps in one percentile group: p99 of a group has at least
/// ten samples beyond it.
const GROUP_STEPS: usize = 1000;

/// Step-time percentiles `qs` in milliseconds, as the median over
/// groups of consecutive replicas holding at least [`GROUP_STEPS`]
/// steps each (a short trailing group joins the one before it), so one
/// noisy stretch of a run moves one group, not the whole tail. Returns
/// the group count too.
fn step_percentiles_ms(replica_steps: &[Vec<f64>], qs: &[f64]) -> (Vec<f64>, usize) {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for steps in replica_steps {
        open.extend_from_slice(steps);
        if open.len() >= GROUP_STEPS {
            groups.push(std::mem::take(&mut open));
        }
    }
    match groups.last_mut() {
        Some(last) => last.extend(open),
        None if !open.is_empty() => groups.push(open),
        None => {}
    }
    let values = qs
        .iter()
        .map(|&q| {
            let per_group: Vec<f64> = groups
                .iter_mut()
                .map(|g| workloads::nearest_rank(g, q) * 1e-6)
                .collect();
            median(&per_group)
        })
        .collect();
    (values, groups.len())
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args, v: &mut Verdicts) -> Vec<Metric> {
    // Warm-up replica: fixes the reference digest and lets lazy set-up
    // (page faults, memo tables) finish before timing.
    let warm = v.run(args, Mode::Steps);
    // Set-up is timed on its own, one build after another on this
    // thread: inside replicas it would overlap sibling fleets' work.
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| workloads::setup_only(args.workload, args.seed))
        .collect();
    let start = Instant::now();
    let mut speedup = Vec::new();
    let mut steps: Vec<Vec<f64>> = Vec::new();
    let mut outcome = warm.as_ref().map(|r| (r.p95_s(), r.availability()));
    let mut timed = 0;
    while timed < MIN_REPLICAS || start.elapsed().as_secs_f64() < args.seconds {
        timed += 1;
        let Some(r) = v.run(args, Mode::Steps) else {
            continue;
        };
        speedup.push(r.sim_s() / r.run_wall_s);
        steps.push(
            r.worlds
                .iter()
                .flat_map(|w| {
                    let rec = w.rec.as_ref().expect("probed replicas carry a recorder");
                    rec.step_ns.iter().map(|&ns| ns as f64)
                })
                .collect(),
        );
        outcome.get_or_insert((r.p95_s(), r.availability()));
    }
    let (p95_s, availability) = outcome.unwrap_or((f64::NAN, f64::NAN));
    let (step_ms, groups) = step_percentiles_ms(&steps, &[0.50, 0.99]);
    println!(
        "timed replicas: {timed}; control steps sampled: {} in {groups} percentile groups",
        steps.iter().map(Vec::len).sum::<usize>()
    );
    let values = [
        median(&setup),
        median(&speedup),
        step_ms[0],
        step_ms[1],
        peak_rss_mib(),
        p95_s * 1e3,
        availability,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect()
}

/// The traced run: per-layer metrics, the self-time table, and the
/// Chrome trace.
fn per_layer(args: &Args, v: &mut Verdicts) -> Vec<Metric> {
    let mut untraced = Vec::new();
    if let Some(r) = v.run(args, Mode::Steps) {
        untraced.push(r.run_wall_s);
    }
    let start = Instant::now();
    // Only the first traced replica is kept whole, for its spans; the
    // others are folded into summaries as they finish.
    let mut first: Option<Replica> = None;
    let mut summaries: Vec<layers::Summary> = Vec::new();
    let mut traced_wall = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_REPLICAS || start.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let cap = if first.is_none() { SPAN_CAP } else { 0 };
        if let Some(mut r) = v.run(args, Mode::Layers(cap)) {
            traced_wall.push(r.run_wall_s);
            summaries.push(layers::Summary::of(&r));
            for w in &mut r.worlds {
                w.latencies = Vec::new();
            }
            first.get_or_insert(r);
        }
        if let Some(r) = v.run(args, Mode::Steps) {
            untraced.push(r.run_wall_s);
        }
    }
    let Some(first) = first else {
        return Vec::new();
    };
    let overhead = median(&traced_wall) / median(&untraced) - 1.0;
    if let Some(i) = summaries
        .iter()
        .position(|s| s.counts() != summaries[0].counts())
    {
        v.failed += 1;
        v.reasons.push(format!(
            "traced replica {i} repeated the first's counts inexactly"
        ));
    }
    print!("{}", layers::self_time_table(&summaries[0]));
    match layers::write_chrome_trace(args.workload.name(), &first) {
        Ok(path) => println!("trace: {path}"),
        Err(e) => eprintln!("simbench: could not write the trace: {e}"),
    }
    layers::metrics(&summaries, overhead)
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect()
}

fn json_number(x: f64) -> String {
    // `{:?}` prints the shortest representation that round-trips.
    let s = format!("{x:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The machine-readable last line: `correct`, `attempted`, `failed`,
/// and every finite metric with its unit.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut v = Verdicts::new();
    let metrics = if args.trace {
        per_layer(&args, &mut v)
    } else {
        end_to_end(&args, &mut v)
    };
    let finite = !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let correct = v.failed == 0 && finite;

    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Some(d) = v.reference {
        println!("digest {d:016x}");
    }
    for m in &metrics {
        println!("{:<44} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "failed_frac {} frac ({} of {} replicas)",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    for why in &v.reasons {
        println!("failure: {why}");
    }
    if !finite {
        println!("failure: a metric is missing or not finite");
    }

    println!("{}", result_line(correct, v.attempted, v.failed, &metrics));
    ExitCode::SUCCESS
}
