//! Mixed batch + latency-sensitive oversubscription (Table X,
//! Figure 13).
//!
//! Three scenarios pack 20 vcores of mixed VMs onto 16 pcores (20 %
//! oversubscription) and compare configuration B2 against OC3, each
//! normalized to a dedicated 20-pcore B2 baseline. The contention model
//! has three effects, each tied to a physical mechanism:
//!
//! 1. **CPU time-sharing** — when aggregate core demand exceeds the
//!    (frequency-scaled) pcore supply, everything dilates by the excess
//!    `F = demand/supply`; latency-sensitive apps dilate as `F^2.5`
//!    (queueing amplifies contention at the tail) while batch apps
//!    dilate linearly. Latency-sensitive demand shrinks when clocks rise
//!    (fixed request rate, shorter busy time); batch demand is
//!    work-conserving and does not.
//! 2. **Cache/bandwidth crosstalk between co-located batch VMs** —
//!    time-multiplexing more vcores than pcores forces cache refills
//!    that frequency cannot hide. The penalty scales with the victim's
//!    uncore+memory sensitivity and the cache pressure of *other batch*
//!    VMs, and vanishes when vcores fit in pcores (so the dedicated
//!    baseline is clean). This is what keeps TeraSort from improving in
//!    Scenario 1, where a second TeraSort thrashes it.
//! 3. **Component speedups** — the same per-app frequency response as
//!    Figure 9.

use crate::apps::AppProfile;
use crate::configs::CpuConfig;
use crate::perfmodel::time_ratio;

/// Tail-amplification exponent for latency-sensitive apps under CPU
/// contention.
const GAMMA_LS: f64 = 2.5;
/// Cache-crosstalk coefficient between co-located batch VMs.
const CACHE_CROSSTALK: f64 = 1.4;

/// Steady-state core demand (busy pcores) of one VM of `app` at B2.
fn cpu_demand_b2(app: &AppProfile) -> f64 {
    let util = match app.name() {
        "SQL" => 0.75,
        "SPECJBB" => 0.825,
        "BI" => 0.875,
        "TeraSort" => 0.925,
        _ => 0.80,
    };
    util * app.cores() as f64
}

/// One VM entry in an oversubscription scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct VmEntry {
    /// The application running in the VM.
    pub app: AppProfile,
    /// How many identical VMs of this application the scenario runs.
    pub count: u32,
}

/// A Table X oversubscription scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: &'static str,
    entries: Vec<VmEntry>,
    pcores: u32,
}

impl Scenario {
    /// Scenario 1: 1×SQL, 1×BI, 1×SPECJBB, 2×TeraSort on 16 pcores.
    pub fn scenario1() -> Self {
        Scenario {
            name: "Scenario 1",
            entries: vec![
                VmEntry {
                    app: AppProfile::sql(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::bi(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::specjbb(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::terasort(),
                    count: 2,
                },
            ],
            pcores: 16,
        }
    }

    /// Scenario 2: 1×SQL, 1×BI, 2×SPECJBB, 1×TeraSort on 16 pcores.
    pub fn scenario2() -> Self {
        Scenario {
            name: "Scenario 2",
            entries: vec![
                VmEntry {
                    app: AppProfile::sql(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::bi(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::specjbb(),
                    count: 2,
                },
                VmEntry {
                    app: AppProfile::terasort(),
                    count: 1,
                },
            ],
            pcores: 16,
        }
    }

    /// Scenario 3: 2×SQL, 1×BI, 1×SPECJBB, 1×TeraSort on 16 pcores.
    pub fn scenario3() -> Self {
        Scenario {
            name: "Scenario 3",
            entries: vec![
                VmEntry {
                    app: AppProfile::sql(),
                    count: 2,
                },
                VmEntry {
                    app: AppProfile::bi(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::specjbb(),
                    count: 1,
                },
                VmEntry {
                    app: AppProfile::terasort(),
                    count: 1,
                },
            ],
            pcores: 16,
        }
    }

    /// All three Table X scenarios.
    pub fn table10() -> Vec<Scenario> {
        vec![Self::scenario1(), Self::scenario2(), Self::scenario3()]
    }

    /// Total vcores requested by all VMs (20 in every Table X scenario).
    pub fn total_vcores(&self) -> u32 {
        self.entries.iter().map(|e| e.app.cores() * e.count).sum()
    }

    /// Evaluates the scenario under `cfg`: returns, per VM entry, the
    /// percentage improvement of the app's metric versus the dedicated
    /// 20-pcore B2 baseline (negative = degradation).
    pub fn evaluate(&self, cfg: &CpuConfig) -> Vec<ScenarioResult> {
        let b2 = CpuConfig::b2();
        let supply = self.pcores as f64 * cfg.core_ratio_to(&b2);
        let oversubscribed = self.total_vcores() > self.pcores;

        // Aggregate CPU demand: LS demand shrinks with per-app speedup,
        // batch demand is work-conserving.
        let mut demand = 0.0;
        for e in &self.entries {
            let d = cpu_demand_b2(&e.app) * e.count as f64;
            demand += if e.app.is_latency_sensitive() {
                d * time_ratio(&e.app, cfg, &b2)
            } else {
                d
            };
        }
        let f = (demand / supply).max(1.0);

        self.entries
            .iter()
            .map(|e| {
                let gamma = if e.app.is_latency_sensitive() {
                    GAMMA_LS
                } else {
                    1.0
                };
                let contention = f.powf(gamma);
                let crosstalk = if oversubscribed && !e.app.is_latency_sensitive() {
                    let sens = |a: &AppProfile| a.bottleneck().llc + a.bottleneck().memory;
                    // Cache pressure from the *other* batch VMs.
                    let pressure: f64 = self
                        .entries
                        .iter()
                        .flat_map(|other| (0..other.count).map(move |_| other))
                        .filter(|other| !other.app.is_latency_sensitive())
                        .map(|other| sens(&other.app) * other.app.cores() as f64)
                        .sum::<f64>()
                        - sens(&e.app) * e.app.cores() as f64; // exclude self once
                    let pressure = pressure.max(0.0) / self.pcores as f64;
                    1.0 + CACHE_CROSSTALK * sens(&e.app) * pressure
                } else {
                    1.0
                };
                let t = time_ratio(&e.app, cfg, &b2) * contention * crosstalk;
                ScenarioResult {
                    scenario: self.name,
                    app: e.app.name(),
                    count: e.count,
                    config: cfg.name(),
                    improvement_pct: (1.0 - t) * 100.0,
                }
            })
            .collect()
    }
}

/// The outcome for one application in one scenario/configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario label.
    pub scenario: &'static str,
    /// Application name.
    pub app: &'static str,
    /// Number of VMs of this application.
    pub count: u32,
    /// Configuration label.
    pub config: &'static str,
    /// Metric improvement versus the dedicated 20-pcore B2 baseline,
    /// percent (negative = degradation).
    pub improvement_pct: f64,
}

/// The full Figure 13 sweep: all three scenarios under B2 and OC3.
pub fn figure13_sweep() -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    for s in Scenario::table10() {
        out.extend(s.evaluate(&CpuConfig::b2()));
        out.extend(s.evaluate(&CpuConfig::oc3()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table10_shape() {
        for s in Scenario::table10() {
            // 20 vcores on 16 pcores: 1.25× oversubscribed.
            assert_eq!(s.total_vcores(), 20, "{}", s.name);
            assert_eq!(s.pcores, 16);
        }
        assert_eq!(
            Scenario::scenario1()
                .entries
                .iter()
                .map(|e| e.count)
                .sum::<u32>(),
            5
        );
    }

    #[test]
    fn b2_oversubscription_degrades_everything() {
        for s in Scenario::table10() {
            for r in s.evaluate(&CpuConfig::b2()) {
                assert!(
                    r.improvement_pct < 0.0,
                    "{} {} should degrade: {:.1}%",
                    r.scenario,
                    r.app,
                    r.improvement_pct
                );
            }
        }
    }

    #[test]
    fn latency_sensitive_apps_suffer_most_under_b2() {
        for s in Scenario::table10() {
            let results = s.evaluate(&CpuConfig::b2());
            let worst_ls = results
                .iter()
                .filter(|r| r.app == "SQL" || r.app == "SPECJBB")
                .map(|r| r.improvement_pct)
                .fold(f64::INFINITY, f64::min);
            for r in results
                .iter()
                .filter(|r| r.app == "BI" || r.app == "TeraSort")
            {
                assert!(
                    r.improvement_pct > worst_ls,
                    "{}: batch {} ({:.1}%) should degrade less than worst LS ({:.1}%)",
                    r.scenario,
                    r.app,
                    r.improvement_pct,
                    worst_ls
                );
            }
        }
    }

    #[test]
    fn oc3_improves_all_but_terasort_scenario1() {
        for s in Scenario::table10() {
            for r in s.evaluate(&CpuConfig::oc3()) {
                if r.scenario == "Scenario 1" && r.app == "TeraSort" {
                    assert!(
                        r.improvement_pct < 6.0,
                        "TeraSort S1 should stay below 6%: {:.1}%",
                        r.improvement_pct
                    );
                    assert!(r.improvement_pct > -3.0, "but not collapse");
                } else {
                    assert!(
                        r.improvement_pct >= 6.0,
                        "{} {} should improve ≥ 6%: {:.1}%",
                        r.scenario,
                        r.app,
                        r.improvement_pct
                    );
                }
            }
        }
    }

    #[test]
    fn oc3_improvements_peak_near_17_pct() {
        let best = figure13_sweep()
            .into_iter()
            .filter(|r| r.config == "OC3")
            .map(|r| r.improvement_pct)
            .fold(0.0, f64::max);
        assert!(
            (13.0..=18.0).contains(&best),
            "best OC3 improvement {best:.1}%"
        );
    }

    #[test]
    fn sweep_covers_both_configs() {
        let sweep = figure13_sweep();
        // 3 scenarios × 4 app entries × 2 configs.
        assert_eq!(sweep.len(), 3 * 4 * 2);
        assert!(sweep.iter().any(|r| r.config == "B2"));
        assert!(sweep.iter().any(|r| r.config == "OC3"));
    }

    #[test]
    fn dedicated_allocation_has_no_crosstalk() {
        // A scenario that fits in its pcores shows pure frequency response.
        let s = Scenario {
            name: "fits",
            entries: vec![VmEntry {
                app: AppProfile::terasort(),
                count: 2,
            }],
            pcores: 16,
        };
        let r = s.evaluate(&CpuConfig::oc3());
        let expected = (1.0
            - time_ratio(&AppProfile::terasort(), &CpuConfig::oc3(), &CpuConfig::b2()))
            * 100.0;
        assert!((r[0].improvement_pct - expected).abs() < 1e-9);
    }
}
