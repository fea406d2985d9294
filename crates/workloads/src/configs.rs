//! The experimental CPU frequency configurations of Table VII.
//!
//! Seven configurations of small tank #1's Xeon W-3175X: two production
//! baselines (B1 without turbo, B2 with turbo — "the configuration of
//! most datacenters today"), two that overclock only the uncore/memory
//! (B3, B4), and three that overclock combinations of all components
//! (OC1–OC3). Core overclocks carry a +50 mV voltage offset.

use ic_power::units::{Frequency, Voltage};
use ic_scenario::{CpuConfigSpec, WorkloadCalibration};
use std::fmt;

/// One Table VII row: the frequency of each overclockable component.
///
/// # Example
///
/// ```
/// use ic_workloads::configs::CpuConfig;
///
/// let b2 = CpuConfig::b2();
/// let oc3 = CpuConfig::oc3();
/// assert!((oc3.core_ratio_to(&b2) - 4.1 / 3.4).abs() < 1e-9);
/// assert!((oc3.memory_ratio_to(&b2) - 3.0 / 2.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CpuConfig {
    name: &'static str,
    core: Frequency,
    voltage_offset_mv: i32,
    turbo: bool,
    llc: Frequency,
    memory: Frequency,
}

impl CpuConfig {
    /// Builds a configuration from a scenario's Table VII entry.
    pub fn from_spec(spec: &CpuConfigSpec) -> Self {
        CpuConfig {
            name: ic_scenario::intern(&spec.name),
            core: Frequency::from_ghz(spec.core_ghz),
            voltage_offset_mv: spec.voltage_offset_mv,
            turbo: spec.turbo,
            llc: Frequency::from_ghz(spec.llc_ghz),
            memory: Frequency::from_ghz(spec.memory_ghz),
        }
    }

    fn paper_config(name: &str) -> Self {
        Self::from_spec(
            WorkloadCalibration::paper()
                .cpu_config(name)
                .expect("paper catalog has the config"),
        )
    }

    /// B1: 3.1 GHz core (turbo off), 2.4 GHz LLC, 2.4 GHz memory.
    pub fn b1() -> Self {
        Self::paper_config("B1")
    }

    /// B2: 3.4 GHz all-core turbo — the production baseline the paper
    /// normalizes against.
    pub fn b2() -> Self {
        Self::paper_config("B2")
    }

    /// B4: B3 plus memory overclocked to 3.0 GHz.
    pub fn b4() -> Self {
        Self::paper_config("B4")
    }

    /// OC1: core overclocked to 4.1 GHz (+50 mV), stock uncore/memory.
    pub fn oc1() -> Self {
        Self::paper_config("OC1")
    }

    /// OC2: OC1 plus 2.8 GHz uncore/LLC.
    pub fn oc2() -> Self {
        Self::paper_config("OC2")
    }

    /// OC3: OC2 plus 3.0 GHz memory — everything overclocked.
    pub fn oc3() -> Self {
        Self::paper_config("OC3")
    }

    /// The Table VII rows of a workload calibration, in row order.
    pub fn catalog_from(cal: &WorkloadCalibration) -> Vec<CpuConfig> {
        cal.cpu_configs.iter().map(CpuConfig::from_spec).collect()
    }

    /// All seven configurations in Table VII row order.
    pub fn catalog() -> Vec<CpuConfig> {
        Self::catalog_from(&WorkloadCalibration::paper())
    }

    /// Looks a configuration up by its Table VII name (case-insensitive).
    pub fn by_name(name: &str) -> Option<CpuConfig> {
        Self::catalog()
            .into_iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The Table VII row label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Core frequency.
    pub fn core(&self) -> Frequency {
        self.core
    }

    /// Uncore/LLC frequency.
    pub fn llc(&self) -> Frequency {
        self.llc
    }

    /// System memory frequency.
    pub fn memory(&self) -> Frequency {
        self.memory
    }

    /// Whether opportunistic turbo is enabled (baselines only).
    pub fn turbo(&self) -> bool {
        self.turbo
    }

    /// The configured voltage offset in millivolts.
    pub fn voltage_offset_mv(&self) -> i32 {
        self.voltage_offset_mv
    }

    /// The core voltage: nominal 0.90 V scaled along the measured V/f
    /// slope for core overclocks, plus the configured offset.
    pub fn core_voltage(&self) -> Voltage {
        let base = Voltage::from_volts(0.90);
        let v = if self.core > Frequency::from_ghz(3.5) {
            // Interpolate toward 0.98 V at +23 % (≈ 4.18 GHz).
            let span = 3.4 * 1.23 - 3.5;
            let frac = ((self.core.ghz() - 3.5) / span).clamp(0.0, 1.0);
            Voltage::from_mv((900.0 + 80.0 * frac).round() as u32)
        } else {
            base
        };
        v.with_offset_mv(self.voltage_offset_mv)
    }

    /// Core clock ratio relative to another configuration.
    pub fn core_ratio_to(&self, other: &CpuConfig) -> f64 {
        self.core.ratio_to(other.core)
    }

    /// LLC clock ratio relative to another configuration.
    pub fn llc_ratio_to(&self, other: &CpuConfig) -> f64 {
        self.llc.ratio_to(other.llc)
    }

    /// Memory clock ratio relative to another configuration.
    pub fn memory_ratio_to(&self, other: &CpuConfig) -> f64 {
        self.memory.ratio_to(other.memory)
    }
}

impl fmt::Display for CpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: core {}, LLC {}, mem {}{}",
            self.name,
            self.core,
            self.llc,
            self.memory,
            if self.voltage_offset_mv != 0 {
                format!(", +{} mV", self.voltage_offset_mv)
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_values() {
        let rows = CpuConfig::catalog();
        let expect: [(&str, f64, i32, f64, f64); 7] = [
            ("B1", 3.1, 0, 2.4, 2.4),
            ("B2", 3.4, 0, 2.4, 2.4),
            ("B3", 3.4, 0, 2.8, 2.4),
            ("B4", 3.4, 0, 2.8, 3.0),
            ("OC1", 4.1, 50, 2.4, 2.4),
            ("OC2", 4.1, 50, 2.8, 2.4),
            ("OC3", 4.1, 50, 2.8, 3.0),
        ];
        for (row, (name, core, off, llc, mem)) in rows.iter().zip(expect) {
            assert_eq!(row.name(), name);
            assert_eq!(row.core(), Frequency::from_ghz(core));
            assert_eq!(row.voltage_offset_mv(), off);
            assert_eq!(row.llc(), Frequency::from_ghz(llc));
            assert_eq!(row.memory(), Frequency::from_ghz(mem));
        }
    }

    #[test]
    fn only_baselines_use_turbo() {
        assert!(!CpuConfig::b1().turbo());
        assert!(CpuConfig::b2().turbo());
        assert!(CpuConfig::b4().turbo());
        assert!(!CpuConfig::oc1().turbo());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(CpuConfig::by_name("oc3"), Some(CpuConfig::oc3()));
        assert_eq!(CpuConfig::by_name("B2"), Some(CpuConfig::b2()));
        assert_eq!(CpuConfig::by_name("nope"), None);
    }

    #[test]
    fn oc_voltage_rises_with_core_clock() {
        let b2 = CpuConfig::b2().core_voltage();
        let oc1 = CpuConfig::oc1().core_voltage();
        assert_eq!(b2.volts(), 0.90);
        assert!(oc1 > b2);
        // 4.1 GHz ≈ 0.97 V on the measured curve, +50 mV offset ≈ 1.02 V.
        assert!((oc1.volts() - 1.02).abs() < 0.02, "{oc1}");
    }

    #[test]
    fn ratios_against_b2() {
        let b2 = CpuConfig::b2();
        assert!((CpuConfig::oc1().core_ratio_to(&b2) - 1.2059).abs() < 1e-3);
        assert!((CpuConfig::paper_config("B3").llc_ratio_to(&b2) - 2.8 / 2.4).abs() < 1e-9);
        assert_eq!(CpuConfig::b2().core_ratio_to(&b2), 1.0);
    }
}
