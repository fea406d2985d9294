//! The application suite of Table IX, with bottleneck profiles.
//!
//! Each application carries the paper's metadata (core count, origin,
//! metric of interest) plus a *bottleneck decomposition*: the shares of
//! its execution time that scale with the core clock, the uncore/LLC
//! clock, the memory clock, and a frequency-insensitive residue (I/O,
//! OS, network). The shares are calibrated so the Figure 9 overclocking
//! bars reproduce — see `perfmodel` for the resulting numbers.

use ic_scenario::{AppSpec, WorkloadCalibration};
use std::fmt;

/// The metric of interest for an application (Table IX's last column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// 95th-percentile latency; lower is better.
    P95Latency,
    /// 99th-percentile latency; lower is better.
    P99Latency,
    /// Wall-clock completion time in seconds; lower is better.
    Seconds,
    /// Operations per second; higher is better.
    OpsPerSec,
    /// Sustained bandwidth in MB/s; higher is better.
    MbPerSec,
}

impl Metric {
    /// Parses the scenario-file spelling of a metric (one of
    /// [`ic_scenario::METRICS`]).
    pub fn from_key(key: &str) -> Option<Metric> {
        match key {
            "p95_latency" => Some(Metric::P95Latency),
            "p99_latency" => Some(Metric::P99Latency),
            "seconds" => Some(Metric::Seconds),
            "ops_per_sec" => Some(Metric::OpsPerSec),
            "mb_per_sec" => Some(Metric::MbPerSec),
            _ => None,
        }
    }

    /// `true` when a smaller metric value is an improvement.
    pub fn lower_is_better(self) -> bool {
        matches!(
            self,
            Metric::P95Latency | Metric::P99Latency | Metric::Seconds
        )
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Metric::P95Latency => "P95 Lat",
            Metric::P99Latency => "P99 Lat",
            Metric::Seconds => "Seconds",
            Metric::OpsPerSec => "OPS/S",
            Metric::MbPerSec => "MB/S",
        };
        f.write_str(s)
    }
}

/// Where the application comes from (Table IX's "(I)"/"(P)" tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Microsoft-internal workload.
    InHouse,
    /// Publicly available benchmark.
    Public,
}

/// How an application's execution time decomposes across frequency
/// domains. Shares must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bottleneck {
    /// Share scaling with the core clock.
    pub core: f64,
    /// Share scaling with the uncore/LLC clock.
    pub llc: f64,
    /// Share scaling with the memory clock.
    pub memory: f64,
    /// Frequency-insensitive share (I/O, network, OS).
    pub fixed: f64,
}

impl Bottleneck {
    /// Creates a decomposition.
    ///
    /// # Panics
    ///
    /// Panics if any share is negative or the shares do not sum to 1
    /// (±1e-6).
    pub fn new(core: f64, llc: f64, memory: f64, fixed: f64) -> Self {
        for s in [core, llc, memory, fixed] {
            assert!(s >= 0.0 && s.is_finite(), "negative share {s}");
        }
        let sum = core + llc + memory + fixed;
        assert!((sum - 1.0).abs() < 1e-6, "shares sum to {sum}, expected 1");
        Bottleneck {
            core,
            llc,
            memory,
            fixed,
        }
    }

    /// The stall fraction this profile implies for the Aperf/Pperf
    /// counters: the share of active cycles not scaling with the core
    /// clock (uncore + memory stalls), normalized to on-core time.
    pub fn stall_fraction(&self) -> f64 {
        let on_core = self.core + self.llc + self.memory;
        if on_core <= 0.0 {
            0.0
        } else {
            (self.llc + self.memory) / on_core
        }
    }
}

/// One Table IX application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: &'static str,
    cores: u32,
    origin: Origin,
    description: &'static str,
    metric: Metric,
    latency_sensitive: bool,
    bottleneck: Bottleneck,
    /// Peak memory-bandwidth demand at B2, GB/s — drives the
    /// shared-bandwidth contention model of Figure 13.
    mem_bw_gbps: f64,
}

impl AppProfile {
    /// Builds a profile from a scenario's Table IX entry.
    ///
    /// # Panics
    ///
    /// Panics if the metric key is unknown or the bottleneck shares do
    /// not sum to 1; a spec from a validated [`ic_scenario::Scenario`]
    /// never does.
    pub fn from_spec(spec: &AppSpec) -> Self {
        let metric = Metric::from_key(&spec.metric)
            .unwrap_or_else(|| panic!("unknown metric key {:?}", spec.metric));
        AppProfile {
            name: ic_scenario::intern(&spec.name),
            cores: spec.cores,
            origin: if spec.in_house {
                Origin::InHouse
            } else {
                Origin::Public
            },
            description: ic_scenario::intern(&spec.description),
            metric,
            latency_sensitive: spec.latency_sensitive,
            bottleneck: Bottleneck::new(
                spec.core_share,
                spec.llc_share,
                spec.memory_share,
                spec.fixed_share,
            ),
            mem_bw_gbps: spec.mem_bw_gbps,
        }
    }

    fn paper_app(name: &str) -> Self {
        Self::from_spec(
            WorkloadCalibration::paper()
                .app(name)
                .expect("paper catalog has the app"),
        )
    }

    /// BenchCraft standard OLTP — memory-bound SQL, P95 latency.
    pub fn sql() -> Self {
        Self::paper_app("SQL")
    }

    /// TensorFlow CPU model training — compute-bound with an effective
    /// prefetcher, so cache/memory overclocks barely help.
    pub fn training() -> Self {
        Self::paper_app("Training")
    }

    /// Distributed key-value store, P99 latency.
    pub fn key_value() -> Self {
        Self::paper_app("Key-Value")
    }

    /// Business intelligence — only core overclocking helps; anything
    /// else burns power for nothing (the paper's cautionary example).
    pub fn bi() -> Self {
        Self::paper_app("BI")
    }

    /// The M/G/k queueing application driving the auto-scaler study.
    pub fn client_server() -> Self {
        Self::paper_app("Client-Server")
    }

    /// Pmbench paging microbenchmark — LLC/paging path dominates.
    pub fn pmbench() -> Self {
        Self::paper_app("Pmbench")
    }

    /// Microsoft DiskSpd I/O benchmark — uncore-sensitive, core-light.
    pub fn diskspeed() -> Self {
        Self::paper_app("DiskSpeed")
    }

    /// SPECjbb 2000 — Java middleware throughput.
    pub fn specjbb() -> Self {
        Self::paper_app("SPECJBB")
    }

    /// Hadoop TeraSort — shuffle-heavy; cache and memory clocks matter
    /// more than the core clock.
    pub fn terasort() -> Self {
        Self::paper_app("TeraSort")
    }

    /// VGG CNN training on the GPU — see `gpu` for its dedicated model.
    pub fn vgg() -> Self {
        Self::paper_app("VGG")
    }

    /// STREAM memory bandwidth — see `stream` for its dedicated model.
    pub fn stream() -> Self {
        Self::paper_app("STREAM")
    }

    /// The Table IX suite of a workload calibration, in row order.
    pub fn catalog_from(cal: &WorkloadCalibration) -> Vec<AppProfile> {
        cal.apps.iter().map(AppProfile::from_spec).collect()
    }

    /// The full Table IX suite in row order.
    pub fn catalog() -> Vec<AppProfile> {
        Self::catalog_from(&WorkloadCalibration::paper())
    }

    /// The nine CPU applications (everything but VGG and STREAM), i.e.
    /// the Figure 9 suite.
    pub fn cpu_suite() -> Vec<AppProfile> {
        Self::catalog()
            .into_iter()
            .filter(|a| a.name != "VGG" && a.name != "STREAM")
            .collect()
    }

    /// Looks an application up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<AppProfile> {
        Self::catalog()
            .into_iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// The application name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The number of cores the application needs (Table IX).
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// In-house or public.
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// Table IX's description.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The metric of interest.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The bottleneck decomposition.
    pub fn bottleneck(&self) -> Bottleneck {
        self.bottleneck
    }

    /// Peak memory-bandwidth demand at B2, GB/s.
    pub fn mem_bw_gbps(&self) -> f64 {
        self.mem_bw_gbps
    }

    /// `true` for latency-sensitive applications. Follows the paper's
    /// classification: the latency-metric apps plus SPECJBB, which
    /// Table X groups with SQL as latency-sensitive despite its
    /// throughput metric (interactive Java middleware).
    pub fn is_latency_sensitive(&self) -> bool {
        self.latency_sensitive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_inventory() {
        let apps = AppProfile::catalog();
        assert_eq!(apps.len(), 11);
        assert_eq!(
            apps.iter()
                .filter(|a| a.origin() == Origin::InHouse)
                .count(),
            5
        );
        assert_eq!(
            apps.iter().filter(|a| a.origin() == Origin::Public).count(),
            6
        );
    }

    #[test]
    fn table9_core_counts() {
        for (name, cores) in [
            ("SQL", 4),
            ("Training", 4),
            ("Key-Value", 8),
            ("BI", 4),
            ("Client-Server", 4),
            ("Pmbench", 2),
            ("DiskSpeed", 2),
            ("SPECJBB", 4),
            ("TeraSort", 4),
            ("VGG", 16),
            ("STREAM", 16),
        ] {
            assert_eq!(AppProfile::by_name(name).unwrap().cores(), cores, "{name}");
        }
    }

    #[test]
    fn metrics_match_table9() {
        assert_eq!(AppProfile::sql().metric(), Metric::P95Latency);
        assert_eq!(AppProfile::key_value().metric(), Metric::P99Latency);
        assert_eq!(AppProfile::diskspeed().metric(), Metric::OpsPerSec);
        assert_eq!(AppProfile::stream().metric(), Metric::MbPerSec);
        assert_eq!(AppProfile::terasort().metric(), Metric::Seconds);
    }

    #[test]
    fn all_bottlenecks_sum_to_one() {
        for app in AppProfile::catalog() {
            let b = app.bottleneck();
            assert!(
                (b.core + b.llc + b.memory + b.fixed - 1.0).abs() < 1e-9,
                "{}",
                app.name()
            );
        }
    }

    #[test]
    fn latency_sensitivity_classification() {
        assert!(AppProfile::sql().is_latency_sensitive());
        assert!(AppProfile::key_value().is_latency_sensitive());
        assert!(!AppProfile::terasort().is_latency_sensitive());
        assert!(!AppProfile::bi().is_latency_sensitive());
    }

    #[test]
    fn sql_is_the_most_memory_bound_cloud_app() {
        let sql_mem = AppProfile::sql().bottleneck().memory;
        for app in AppProfile::cpu_suite() {
            if app.name() != "SQL" && app.name() != "TeraSort" {
                assert!(app.bottleneck().memory < sql_mem, "{}", app.name());
            }
        }
    }

    #[test]
    fn stall_fraction_consistent_with_decomposition() {
        let b = Bottleneck::new(0.5, 0.2, 0.2, 0.1);
        assert!((b.stall_fraction() - 0.4 / 0.9).abs() < 1e-12);
        // Purely fixed workload has no on-core stalls by convention.
        assert_eq!(Bottleneck::new(0.0, 0.0, 0.0, 1.0).stall_fraction(), 0.0);
    }

    #[test]
    fn cpu_suite_excludes_gpu_and_stream() {
        let suite = AppProfile::cpu_suite();
        assert_eq!(suite.len(), 9);
        assert!(suite
            .iter()
            .all(|a| a.name() != "VGG" && a.name() != "STREAM"));
    }

    #[test]
    fn metric_direction() {
        assert!(Metric::P95Latency.lower_is_better());
        assert!(Metric::Seconds.lower_is_better());
        assert!(!Metric::OpsPerSec.lower_is_better());
        assert!(!Metric::MbPerSec.lower_is_better());
    }

    #[test]
    #[should_panic(expected = "shares sum to")]
    fn invalid_bottleneck_panics() {
        let _ = Bottleneck::new(0.5, 0.5, 0.5, 0.5);
    }
}
