//! The Figure 9 performance and power model: how each Table IX
//! application responds to each Table VII frequency configuration.
//!
//! Execution time decomposes over frequency domains (see
//! [`crate::apps::Bottleneck`]):
//!
//! ```text
//! T(cfg) / T(ref) = w_core·(f_core,ref/f_core) + w_llc·(f_llc,ref/f_llc)
//!                 + w_mem·(f_mem,ref/f_mem)    + w_fixed
//! ```
//!
//! Latency and completion-time metrics follow the time ratio; throughput
//! metrics follow its inverse. Server power is the tank #1 Xeon W-3175X
//! platform model, calibrated against the Figure 12 oversubscription
//! measurements (B2: 120/130 W at 12/16 active cores; OC3: 160/173 W,
//! a 29–33 % increase).

use crate::apps::AppProfile;
use crate::configs::CpuConfig;
use ic_power::units::Voltage;

/// The relative execution-time of running `app` under `cfg`, against
/// reference configuration `reference`. Values below 1 are speedups.
pub fn time_ratio(app: &AppProfile, cfg: &CpuConfig, reference: &CpuConfig) -> f64 {
    let b = app.bottleneck();
    b.core / cfg.core_ratio_to(reference)
        + b.llc / cfg.llc_ratio_to(reference)
        + b.memory / cfg.memory_ratio_to(reference)
        + b.fixed
}

/// The normalized metric of interest (1.0 = reference). For lower-is-
/// better metrics this is the time ratio; for throughput metrics, its
/// inverse.
pub fn normalized_metric(app: &AppProfile, cfg: &CpuConfig, reference: &CpuConfig) -> f64 {
    let t = time_ratio(app, cfg, reference);
    if app.metric().lower_is_better() {
        t
    } else {
        1.0 / t
    }
}

/// The percentage improvement of the metric of interest over the
/// reference (positive = better, regardless of metric direction).
pub fn improvement_pct(app: &AppProfile, cfg: &CpuConfig, reference: &CpuConfig) -> f64 {
    (1.0 - time_ratio(app, cfg, reference)) * 100.0
}

/// The small-tank-#1 server power model.
///
/// # Example
///
/// ```
/// use ic_workloads::configs::CpuConfig;
/// use ic_workloads::perfmodel::ServerPowerModel;
///
/// let m = ServerPowerModel::tank1();
/// // Figure 12's calibration points: B2 with 12/16 active cores.
/// assert!((m.avg_power_w(&CpuConfig::b2(), 12) - 120.0).abs() < 2.0);
/// assert!((m.avg_power_w(&CpuConfig::b2(), 16) - 130.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    /// Frequency-independent platform power (storage, board, NIC), W.
    rest_w: f64,
    /// Uncore power at 2.4 GHz / 0.90 V, W. Scales with `f·V²`.
    uncore_w: f64,
    /// Memory-system power at 2.4 GHz, W. Scales with `(f/f0)²`
    /// (frequency and the accompanying DIMM voltage bump).
    mem_w: f64,
    /// Per-active-core power at 3.4 GHz / 0.90 V, W. Scales with `f·V²`.
    per_core_w: f64,
}

impl ServerPowerModel {
    /// The model calibrated to the Figure 12 measurements.
    pub fn tank1() -> Self {
        ServerPowerModel {
            rest_w: 45.0,
            uncore_w: 15.0,
            mem_w: 30.0,
            per_core_w: 2.5,
        }
    }

    /// Average server power under `cfg` with `active_cores` busy cores
    /// (inactive cores sit in low-power idle).
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` exceeds the 28 cores of the W-3175X.
    pub fn avg_power_w(&self, cfg: &CpuConfig, active_cores: u32) -> f64 {
        assert!(active_cores <= 28, "tank #1 has 28 physical cores");
        let b2 = CpuConfig::b2();
        let v_ratio2 = cfg
            .core_voltage()
            .squared_ratio_to(Voltage::from_volts(0.90));
        let uncore = self.uncore_w * cfg.llc_ratio_to(&b2) * v_ratio2;
        let mem = self.mem_w * cfg.memory_ratio_to(&b2).powi(2);
        let cores = self.per_core_w * active_cores as f64 * cfg.core_ratio_to(&b2) * v_ratio2;
        self.rest_w + uncore + mem + cores
    }

    /// P99 server power: average plus the application's burst headroom
    /// (latency-sensitive applications burst harder).
    pub fn p99_power_w(&self, cfg: &CpuConfig, active_cores: u32, app: &AppProfile) -> f64 {
        let factor = if app.is_latency_sensitive() {
            1.08
        } else {
            1.03
        };
        self.avg_power_w(cfg, active_cores) * factor
    }
}

/// One bar group of Figure 9: an application's normalized metric and
/// power under a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure9Point {
    /// Application name.
    pub app: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// Metric normalized to B2 (direction per the app's metric).
    pub normalized_metric: f64,
    /// Improvement over B2, percent.
    pub improvement_pct: f64,
    /// Average server power, W.
    pub avg_power_w: f64,
    /// P99 server power, W.
    pub p99_power_w: f64,
}

/// Computes the full Figure 9 sweep: every CPU-suite application under
/// B2 (reference) and OC1–OC3.
pub fn figure9_sweep() -> Vec<Figure9Point> {
    let reference = CpuConfig::b2();
    let power = ServerPowerModel::tank1();
    let configs = [
        CpuConfig::b2(),
        CpuConfig::oc1(),
        CpuConfig::oc2(),
        CpuConfig::oc3(),
    ];
    let mut out = Vec::new();
    for app in AppProfile::cpu_suite() {
        for cfg in &configs {
            out.push(Figure9Point {
                app: app.name(),
                config: cfg.name(),
                normalized_metric: normalized_metric(&app, cfg, &reference),
                improvement_pct: improvement_pct(&app, cfg, &reference),
                avg_power_w: power.avg_power_w(cfg, app.cores()),
                p99_power_w: power.p99_power_w(cfg, app.cores(), &app),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(app: &AppProfile, cfg: &CpuConfig) -> f64 {
        improvement_pct(app, cfg, &CpuConfig::b2())
    }

    #[test]
    fn all_overclocks_improve_all_apps() {
        for app in AppProfile::cpu_suite() {
            for cfg in [CpuConfig::oc1(), CpuConfig::oc2(), CpuConfig::oc3()] {
                assert!(imp(&app, &cfg) > 0.0, "{} under {}", app.name(), cfg.name());
            }
        }
    }

    #[test]
    fn best_improvements_within_paper_band() {
        // Figure 9: overclocking improves the metric 10–25 %.
        for app in AppProfile::cpu_suite() {
            let best = imp(&app, &CpuConfig::oc3());
            assert!(
                (10.0..=25.0).contains(&best),
                "{}: best improvement {best:.1}%",
                app.name()
            );
        }
    }

    #[test]
    fn core_overclock_is_largest_increment_except_terasort_diskspeed() {
        for app in AppProfile::cpu_suite() {
            let oc1_step = imp(&app, &CpuConfig::oc1());
            let llc_step = imp(&app, &CpuConfig::oc2()) - oc1_step;
            let mem_step = imp(&app, &CpuConfig::oc3()) - imp(&app, &CpuConfig::oc2());
            let core_dominates = oc1_step >= llc_step && oc1_step >= mem_step;
            match app.name() {
                "TeraSort" | "DiskSpeed" => {
                    assert!(
                        !core_dominates,
                        "{} should not be core-dominated",
                        app.name()
                    )
                }
                _ => assert!(core_dominates, "{} should be core-dominated", app.name()),
            }
        }
    }

    #[test]
    fn sql_gains_most_from_memory_overclock() {
        let sql = AppProfile::sql();
        let mem_step = imp(&sql, &CpuConfig::oc3()) - imp(&sql, &CpuConfig::oc2());
        for app in AppProfile::cpu_suite() {
            if app.name() == "SQL" || app.name() == "TeraSort" {
                continue;
            }
            let step = imp(&app, &CpuConfig::oc3()) - imp(&app, &CpuConfig::oc2());
            assert!(step < mem_step, "{} memory step {step}", app.name());
        }
    }

    #[test]
    fn bi_and_training_ignore_cache_and_memory() {
        for app in [AppProfile::bi(), AppProfile::training()] {
            let extra = imp(&app, &CpuConfig::oc3()) - imp(&app, &CpuConfig::oc1());
            assert!(extra < 2.0, "{}: non-core gain {extra:.2}%", app.name());
        }
    }

    #[test]
    fn fig12_power_calibration_points() {
        let m = ServerPowerModel::tank1();
        assert!((m.avg_power_w(&CpuConfig::b2(), 12) - 120.0).abs() < 2.0);
        assert!((m.avg_power_w(&CpuConfig::b2(), 16) - 130.0).abs() < 2.0);
        let oc12 = m.avg_power_w(&CpuConfig::oc3(), 12);
        let oc16 = m.avg_power_w(&CpuConfig::oc3(), 16);
        assert!((oc12 - 160.0).abs() < 8.0, "OC3@12 = {oc12}");
        assert!((oc16 - 173.0).abs() < 8.0, "OC3@16 = {oc16}");
    }

    #[test]
    fn oc3_power_increase_29_to_33_pct() {
        let m = ServerPowerModel::tank1();
        for cores in [12u32, 16] {
            let ratio =
                m.avg_power_w(&CpuConfig::oc3(), cores) / m.avg_power_w(&CpuConfig::b2(), cores);
            assert!(
                (1.28..=1.36).contains(&ratio),
                "{cores} cores: ratio {ratio:.3}"
            );
        }
    }

    #[test]
    fn cache_overclock_power_is_marginal() {
        // Figure 9: OC2 accelerates Pmbench/DiskSpeed "while incurring
        // only marginal power overheads" relative to OC1.
        let m = ServerPowerModel::tank1();
        let oc1 = m.avg_power_w(&CpuConfig::oc1(), 4);
        let oc2 = m.avg_power_w(&CpuConfig::oc2(), 4);
        let oc3 = m.avg_power_w(&CpuConfig::oc3(), 4);
        assert!(
            (oc2 - oc1) / oc1 < 0.05,
            "llc adds {:.1}%",
            (oc2 - oc1) / oc1 * 100.0
        );
        assert!(
            oc3 - oc2 > oc2 - oc1,
            "memory OC should dominate the power adders"
        );
    }

    #[test]
    fn throughput_metrics_invert() {
        let jbb = AppProfile::specjbb();
        let n = normalized_metric(&jbb, &CpuConfig::oc1(), &CpuConfig::b2());
        assert!(n > 1.0, "throughput should rise: {n}");
        let sql = AppProfile::sql();
        let n = normalized_metric(&sql, &CpuConfig::oc1(), &CpuConfig::b2());
        assert!(n < 1.0, "latency should fall: {n}");
    }

    #[test]
    fn figure9_sweep_shape() {
        let sweep = figure9_sweep();
        assert_eq!(sweep.len(), 9 * 4);
        // Reference points are exactly 1.0.
        for p in sweep.iter().filter(|p| p.config == "B2") {
            assert!((p.normalized_metric - 1.0).abs() < 1e-12);
            assert!(p.improvement_pct.abs() < 1e-9);
        }
        // P99 never below average.
        for p in &sweep {
            assert!(p.p99_power_w >= p.avg_power_w);
        }
    }

    #[test]
    fn identity_configuration_is_identity() {
        for app in AppProfile::catalog() {
            assert!((time_ratio(&app, &CpuConfig::b2(), &CpuConfig::b2()) - 1.0).abs() < 1e-12);
        }
    }
}
