//! GPU overclocking: the Table VIII configurations and the Figure 11
//! VGG-training model.
//!
//! Small tank #2 hosts an overclockable Nvidia RTX 2080 Ti (250 W TDP).
//! Training time decomposes into a compute share (scaling with the GPU
//! core clock) and a memory share (scaling with the GDDR clock); the
//! batch-optimized VGG16B variant is almost purely compute-bound, which
//! is why the paper finds GPU-memory overclocking (OCG2/OCG3) buys it
//! nothing while raising P99 power 9.5 %.

use ic_power::units::Frequency;
use ic_scenario::{GpuConfigSpec, WorkloadCalibration};
use std::fmt;

/// One Table VIII row: a GPU operating configuration.
///
/// # Example
///
/// ```
/// use ic_workloads::gpu::GpuConfig;
///
/// let base = GpuConfig::base();
/// let ocg3 = GpuConfig::ocg3();
/// assert_eq!(base.power_limit_w(), 250.0);
/// assert_eq!(ocg3.power_limit_w(), 300.0);
/// assert!(ocg3.memory().ghz() > base.memory().ghz());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpuConfig {
    name: &'static str,
    power_limit_w_tenths: u32,
    base: Frequency,
    turbo: Frequency,
    memory: Frequency,
    voltage_offset_mv: i32,
}

impl GpuConfig {
    /// Builds a configuration from a scenario's Table VIII entry.
    pub fn from_spec(spec: &GpuConfigSpec) -> Self {
        GpuConfig {
            name: ic_scenario::intern(&spec.name),
            power_limit_w_tenths: (spec.power_limit_w * 10.0).round() as u32,
            base: Frequency::from_ghz(spec.base_ghz),
            turbo: Frequency::from_ghz(spec.turbo_ghz),
            memory: Frequency::from_ghz(spec.memory_ghz),
            voltage_offset_mv: spec.voltage_offset_mv,
        }
    }

    fn paper_config(name: &str) -> Self {
        Self::from_spec(
            WorkloadCalibration::paper()
                .gpu_config(name)
                .expect("paper catalog has the config"),
        )
    }

    /// Base: 250 W, 1.35/1.950 GHz core, 6.8 GHz memory.
    pub fn base() -> Self {
        Self::paper_config("Base")
    }

    /// OCG2: 300 W, OCG1 plus memory at 8.1 GHz and +100 mV.
    pub fn ocg2() -> Self {
        Self::paper_config("OCG2")
    }

    /// OCG3: 300 W, memory pushed to 8.3 GHz.
    pub fn ocg3() -> Self {
        Self::paper_config("OCG3")
    }

    /// The Table VIII rows of a workload calibration, in row order.
    pub fn catalog_from(cal: &WorkloadCalibration) -> Vec<GpuConfig> {
        cal.gpu_configs.iter().map(GpuConfig::from_spec).collect()
    }

    /// All four configurations in Table VIII row order.
    pub fn catalog() -> Vec<GpuConfig> {
        Self::catalog_from(&WorkloadCalibration::paper())
    }

    /// The Table VIII row label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Board power limit, W.
    pub fn power_limit_w(&self) -> f64 {
        self.power_limit_w_tenths as f64 / 10.0
    }

    /// Sustained (base) core clock.
    pub fn base_clock(&self) -> Frequency {
        self.base
    }

    /// Boost (turbo) core clock.
    pub fn turbo_clock(&self) -> Frequency {
        self.turbo
    }

    /// GDDR memory clock.
    pub fn memory(&self) -> Frequency {
        self.memory
    }

    /// Voltage offset, mV.
    pub fn voltage_offset_mv(&self) -> i32 {
        self.voltage_offset_mv
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} W, core {}/{}, mem {}",
            self.name,
            self.power_limit_w(),
            self.base,
            self.turbo,
            self.memory
        )
    }
}

/// A VGG variant's sensitivity to GPU clocks: compute share scales with
/// the sustained core clock, memory share with the GDDR clock.
#[derive(Debug, Clone, PartialEq)]
pub struct VggModel {
    name: &'static str,
    compute_share: f64,
    memory_share: f64,
    fixed_share: f64,
}

impl VggModel {
    /// The six variants the paper trains, from small to the
    /// batch-optimized VGG16B.
    pub fn suite() -> Vec<VggModel> {
        // Larger models are more compute-dense; the batch-optimized
        // variants (B) keep the GPU's arithmetic units saturated, so
        // their memory share is minimal.
        vec![
            VggModel {
                name: "VGG11",
                compute_share: 0.72,
                memory_share: 0.18,
                fixed_share: 0.10,
            },
            VggModel {
                name: "VGG13",
                compute_share: 0.75,
                memory_share: 0.16,
                fixed_share: 0.09,
            },
            VggModel {
                name: "VGG16",
                compute_share: 0.78,
                memory_share: 0.14,
                fixed_share: 0.08,
            },
            VggModel {
                name: "VGG19",
                compute_share: 0.80,
                memory_share: 0.13,
                fixed_share: 0.07,
            },
            VggModel {
                name: "VGG11B",
                compute_share: 0.86,
                memory_share: 0.06,
                fixed_share: 0.08,
            },
            VggModel {
                name: "VGG16B",
                compute_share: 0.91,
                memory_share: 0.02,
                fixed_share: 0.07,
            },
        ]
    }

    /// Looks a variant up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<VggModel> {
        Self::suite()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// The variant name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Normalized training time under `cfg`, relative to [`GpuConfig::base`]
    /// (1.0 = baseline; smaller is faster). Compute scales with the
    /// sustained base clock, memory with the GDDR clock.
    pub fn normalized_time(&self, cfg: &GpuConfig) -> f64 {
        let b = GpuConfig::base();
        self.compute_share / cfg.base_clock().ratio_to(b.base_clock())
            + self.memory_share / cfg.memory().ratio_to(b.memory())
            + self.fixed_share
    }
}

/// GPU board power under a configuration: the paper measured P99 board
/// power of 193 W at Base rising to 231 W at OCG3 (+19 %), i.e. roughly
/// 77 % of the configured power limit at P99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPowerModel {
    p99_fraction_of_limit: f64,
}

impl GpuPowerModel {
    /// The model calibrated to the Figure 11 measurements.
    pub fn rtx2080ti() -> Self {
        GpuPowerModel {
            p99_fraction_of_limit: 0.77,
        }
    }

    /// P99 board power under `cfg`, W.
    pub fn p99_power_w(&self, cfg: &GpuConfig) -> f64 {
        cfg.power_limit_w() * self.p99_fraction_of_limit
    }
}

/// One Figure 11 data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure11Point {
    /// VGG variant name.
    pub model: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// Training time normalized to Base.
    pub normalized_time: f64,
    /// P99 board power, W.
    pub p99_power_w: f64,
}

/// The full Figure 11 sweep: six VGG variants × four GPU configurations.
pub fn figure11_sweep() -> Vec<Figure11Point> {
    let power = GpuPowerModel::rtx2080ti();
    let mut out = Vec::new();
    for model in VggModel::suite() {
        for cfg in GpuConfig::catalog() {
            out.push(Figure11Point {
                model: model.name(),
                config: cfg.name(),
                normalized_time: model.normalized_time(&cfg),
                p99_power_w: power.p99_power_w(&cfg),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_values() {
        let rows = GpuConfig::catalog();
        let expect: [(&str, f64, f64, f64, f64, i32); 4] = [
            ("Base", 250.0, 1.35, 1.950, 6.8, 0),
            ("OCG1", 250.0, 1.55, 2.085, 6.8, 0),
            ("OCG2", 300.0, 1.55, 2.085, 8.1, 100),
            ("OCG3", 300.0, 1.55, 2.085, 8.3, 100),
        ];
        for (row, (name, p, base, turbo, mem, off)) in rows.iter().zip(expect) {
            assert_eq!(row.name(), name);
            assert_eq!(row.power_limit_w(), p);
            assert_eq!(row.base_clock(), Frequency::from_ghz(base));
            assert_eq!(row.turbo_clock(), Frequency::from_ghz(turbo));
            assert_eq!(row.memory(), Frequency::from_ghz(mem));
            assert_eq!(row.voltage_offset_mv(), off);
        }
    }

    #[test]
    fn execution_time_up_to_15_pct_faster() {
        // "execution time decreases by up to 15 %, proportional to the
        // frequency increase" (base clock +14.8 %).
        let best: f64 = VggModel::suite()
            .iter()
            .map(|m| 1.0 - m.normalized_time(&GpuConfig::ocg3()))
            .fold(0.0, f64::max);
        assert!((0.12..=0.16).contains(&best), "best {best:.3}");
    }

    #[test]
    fn all_models_improve_under_every_overclock() {
        for m in VggModel::suite() {
            for cfg in [
                GpuConfig::paper_config("OCG1"),
                GpuConfig::ocg2(),
                GpuConfig::ocg3(),
            ] {
                assert!(
                    m.normalized_time(&cfg) < 1.0,
                    "{} under {}",
                    m.name(),
                    cfg.name()
                );
            }
        }
    }

    #[test]
    fn vgg16b_ignores_memory_overclocking() {
        let m = VggModel::by_name("VGG16B").unwrap();
        let ocg1 = m.normalized_time(&GpuConfig::paper_config("OCG1"));
        let ocg2 = m.normalized_time(&GpuConfig::ocg2());
        let ocg3 = m.normalized_time(&GpuConfig::ocg3());
        // OCG2 offers only marginal improvement over OCG1...
        assert!(ocg1 - ocg2 < 0.005, "ocg2 gain {}", ocg1 - ocg2);
        // ...and OCG3 adds essentially nothing over OCG2.
        assert!(ocg2 - ocg3 < 0.001, "ocg3 gain {}", ocg2 - ocg3);
    }

    #[test]
    fn non_batch_models_do_benefit_from_memory() {
        let m = VggModel::by_name("VGG11").unwrap();
        let gain = m.normalized_time(&GpuConfig::paper_config("OCG1"))
            - m.normalized_time(&GpuConfig::ocg2());
        assert!(gain > 0.02, "VGG11 memory gain {gain}");
    }

    #[test]
    fn p99_power_193_to_231_w() {
        let p = GpuPowerModel::rtx2080ti();
        let base = p.p99_power_w(&GpuConfig::base());
        let ocg3 = p.p99_power_w(&GpuConfig::ocg3());
        assert!((base - 193.0).abs() < 3.0, "base {base}");
        assert!((ocg3 - 231.0).abs() < 3.0, "ocg3 {ocg3}");
        assert!((ocg3 / base - 1.19).abs() < 0.02);
    }

    #[test]
    fn ocg2_to_ocg3_power_step_without_perf() {
        // The paper: +9.5 % P99 power between OCG1 and OCG3 for little
        // to no improvement on VGG16B. (OCG1 is at the 250 W limit;
        // OCG2/OCG3 raise it to 300 W.)
        let p = GpuPowerModel::rtx2080ti();
        let step =
            p.p99_power_w(&GpuConfig::ocg3()) / p.p99_power_w(&GpuConfig::paper_config("OCG1"));
        assert!(step > 1.05, "power step {step}");
    }

    #[test]
    fn sweep_shape() {
        let sweep = figure11_sweep();
        assert_eq!(sweep.len(), 6 * 4);
        for p in sweep.iter().filter(|p| p.config == "Base") {
            assert!((p.normalized_time - 1.0).abs() < 1e-12);
        }
    }
}
