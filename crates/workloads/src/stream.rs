//! The STREAM memory-bandwidth model (Figure 10).
//!
//! Sustainable bandwidth is a harmonic blend of the DRAM channel peak
//! (scaling with memory clock) and the core/uncore request-issue rate
//! (scaling mostly with the uncore clock):
//!
//! ```text
//! 1 / BW = α / BW_mem(f_mem)  +  (1 − α) / Issue(f_core, f_llc)
//! ```
//!
//! with `Issue ∝ f_core^0.4 · f_llc^0.6` and the memory-bound share
//! `α = 0.305` calibrated so the paper's headline deltas reproduce:
//! **B4 +17 % and OC3 +24 % over B1**, with roughly 10 % average power
//! increase across the sweep.

use crate::configs::CpuConfig;
use crate::perfmodel::ServerPowerModel;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s·c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s·c[i]`
    Triad,
}

impl StreamKernel {
    /// All four kernels in STREAM's reporting order.
    pub fn all() -> [StreamKernel; 4] {
        [
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ]
    }

    /// The kernel's name as STREAM prints it.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }

    /// Baseline (B1) sustainable bandwidth, MB/s. Two-operand kernels
    /// sustain slightly less than the three-operand ones on Skylake
    /// (write-allocate traffic amortizes better with more streams).
    fn base_mbps(self) -> f64 {
        match self {
            StreamKernel::Copy => 90_000.0,
            StreamKernel::Scale => 88_000.0,
            StreamKernel::Add => 98_000.0,
            StreamKernel::Triad => 97_000.0,
        }
    }
}

/// The calibrated STREAM bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamModel {
    /// Memory-bound blend share α.
    alpha: f64,
    /// Core-clock exponent of the issue rate.
    core_exp: f64,
}

impl StreamModel {
    /// The model calibrated to Figure 10 (α = 0.305, core exponent 0.4).
    pub fn calibrated() -> Self {
        StreamModel {
            alpha: 0.305,
            core_exp: 0.4,
        }
    }

    /// Sustainable bandwidth for `kernel` under `cfg`, MB/s.
    pub fn bandwidth_mbps(&self, kernel: StreamKernel, cfg: &CpuConfig) -> f64 {
        let b1 = CpuConfig::b1();
        let mem_ratio = cfg.memory_ratio_to(&b1);
        let issue_ratio = cfg.core_ratio_to(&b1).powf(self.core_exp)
            * cfg.llc_ratio_to(&b1).powf(1.0 - self.core_exp);
        let blend = self.alpha / mem_ratio + (1.0 - self.alpha) / issue_ratio;
        kernel.base_mbps() / blend
    }

    /// Bandwidth relative to the B1 baseline.
    pub fn speedup_over_b1(&self, kernel: StreamKernel, cfg: &CpuConfig) -> f64 {
        self.bandwidth_mbps(kernel, cfg) / self.bandwidth_mbps(kernel, &CpuConfig::b1())
    }
}

/// One Figure 10 data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure10Point {
    /// Configuration name (B1–B4, OC1–OC3).
    pub config: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Sustainable bandwidth, MB/s.
    pub bandwidth_mbps: f64,
    /// Average server power, W (STREAM drives 16 cores).
    pub avg_power_w: f64,
}

/// The full Figure 10 sweep: all seven configurations × four kernels.
pub fn figure10_sweep() -> Vec<Figure10Point> {
    let model = StreamModel::calibrated();
    let power = ServerPowerModel::tank1();
    let mut out = Vec::new();
    for cfg in CpuConfig::catalog() {
        for kernel in StreamKernel::all() {
            out.push(Figure10Point {
                config: cfg.name(),
                kernel: kernel.name(),
                bandwidth_mbps: model.bandwidth_mbps(kernel, &cfg),
                avg_power_w: power.avg_power_w(&cfg, 16),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b4_and_oc3_headline_speedups() {
        let m = StreamModel::calibrated();
        for k in StreamKernel::all() {
            let b4 = m.speedup_over_b1(k, &CpuConfig::b4());
            let oc3 = m.speedup_over_b1(k, &CpuConfig::oc3());
            assert!((b4 - 1.17).abs() < 0.02, "{}: B4 {b4:.3}", k.name());
            assert!((oc3 - 1.24).abs() < 0.02, "{}: OC3 {oc3:.3}", k.name());
        }
    }

    #[test]
    fn memory_overclock_gives_largest_single_step() {
        // "The highest performance improvement happens when the memory
        // system is overclocked."
        let m = StreamModel::calibrated();
        let k = StreamKernel::Triad;
        let b3 = m.speedup_over_b1(k, &CpuConfig::b3());
        let b4 = m.speedup_over_b1(k, &CpuConfig::b4());
        let b2 = m.speedup_over_b1(k, &CpuConfig::b2());
        assert!(b4 - b3 > b2 - 1.0, "memory step should beat the turbo step");
        assert!(b4 - b3 > b3 - b2, "memory step should beat the uncore step");
    }

    #[test]
    fn core_and_cache_also_help() {
        // "Increasing core and cache frequencies also has a positive
        // impact on the peak memory bandwidth."
        let m = StreamModel::calibrated();
        let k = StreamKernel::Copy;
        assert!(m.speedup_over_b1(k, &CpuConfig::b2()) > 1.0);
        assert!(m.speedup_over_b1(k, &CpuConfig::b3()) > m.speedup_over_b1(k, &CpuConfig::b2()));
        assert!(m.speedup_over_b1(k, &CpuConfig::oc1()) > m.speedup_over_b1(k, &CpuConfig::b2()));
    }

    #[test]
    fn sweep_power_increase_around_10_pct() {
        // "As expected, the power draw increases with the aggressiveness
        // of overclocking (10 % average power increase)."
        let sweep = figure10_sweep();
        let b1_power = sweep.iter().find(|p| p.config == "B1").unwrap().avg_power_w;
        let mean: f64 = sweep.iter().map(|p| p.avg_power_w).sum::<f64>() / sweep.len() as f64;
        let increase = mean / b1_power - 1.0;
        assert!(
            (0.05..=0.20).contains(&increase),
            "average power increase {:.1}%",
            increase * 100.0
        );
    }

    #[test]
    fn add_and_triad_sustain_more_than_copy_scale() {
        let m = StreamModel::calibrated();
        let cfg = CpuConfig::b2();
        assert!(
            m.bandwidth_mbps(StreamKernel::Add, &cfg) > m.bandwidth_mbps(StreamKernel::Copy, &cfg)
        );
        assert!(
            m.bandwidth_mbps(StreamKernel::Triad, &cfg)
                > m.bandwidth_mbps(StreamKernel::Scale, &cfg)
        );
    }

    #[test]
    fn sweep_covers_all_configs_and_kernels() {
        let sweep = figure10_sweep();
        assert_eq!(sweep.len(), 7 * 4);
        assert!(sweep
            .iter()
            .any(|p| p.config == "OC3" && p.kernel == "triad"));
    }

    #[test]
    fn bandwidth_monotone_in_memory_clock() {
        let m = StreamModel::calibrated();
        // B3 → B4 changes only the memory clock.
        for k in StreamKernel::all() {
            assert!(m.bandwidth_mbps(k, &CpuConfig::b4()) > m.bandwidth_mbps(k, &CpuConfig::b3()));
        }
    }
}
