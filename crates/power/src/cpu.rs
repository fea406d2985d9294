//! Whole-socket CPU power with thermal feedback.
//!
//! Socket power is dynamic switching power plus leakage:
//!
//! ```text
//! P = C_eff · V² · f  +  P_static(T_j, V),      T_j = T_ref + R_th · P
//! ```
//!
//! Leakage depends on junction temperature, which depends on total power,
//! so the steady state is a fixed point; [`CpuSku::steady_state`] solves
//! it iteratively. `C_eff` is calibrated per SKU so the air-cooled
//! operating point of Table III reproduces: the 24-core Skylake 8168
//! draws its 205 W TDP at 3.1 GHz all-core turbo in air, the 28-core
//! 8180 at 2.6 GHz. With the same TDP budget in a 2PIC tank, reduced
//! leakage buys exactly one additional 100 MHz turbo bin — the paper's
//! headline characterization result.

use crate::leakage::LeakageModel;
use crate::units::{Frequency, Voltage};
use crate::vf::VfCurve;
use ic_thermal::junction::ThermalInterface;

/// A processor SKU with a calibrated power model.
///
/// # Example
///
/// ```
/// use ic_power::cpu::CpuSku;
/// use ic_thermal::junction::ThermalInterface;
/// use ic_thermal::fluid::DielectricFluid;
///
/// let sku = CpuSku::skylake_8168();
/// let air = ThermalInterface::air(35.0, 12.0, 0.22);
/// let ss = sku.steady_state(&air, sku.air_turbo(), sku.nominal_voltage());
/// assert!((ss.power_w - 205.0).abs() < 3.0);
/// assert!((ss.tj_c - 92.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSku {
    name: String,
    cores: u32,
    tdp_w: f64,
    base_f: Frequency,
    air_turbo_f: Frequency,
    nominal_v: Voltage,
    vf: VfCurve,
    leakage: LeakageModel,
    c_eff_w_per_v2_ghz: f64,
}

/// A solved steady-state operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Total socket power in watts.
    pub power_w: f64,
    /// Junction temperature in °C.
    pub tj_c: f64,
    /// Static (leakage) share of the power, watts.
    pub static_w: f64,
}

impl CpuSku {
    /// Builds a SKU, calibrating effective capacitance so that the socket
    /// draws exactly `tdp_w` at (`air_turbo_f`, `nominal_v`) with the
    /// junction at `tj_cal_c` — the measured air-cooled operating point.
    ///
    /// The V/f curve is anchored one bin above air turbo (the whole turbo
    /// domain runs at nominal voltage; overclocking beyond it climbs the
    /// measured W-3175X slope to +23 % frequency at 0.98 V-equivalent).
    ///
    /// # Panics
    ///
    /// Panics if the TDP is not positive, the core count is zero, or the
    /// calibration point leaves no dynamic power budget.
    #[allow(clippy::too_many_arguments)] // mirrors the datasheet parameter set
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        tdp_w: f64,
        base_f: Frequency,
        air_turbo_f: Frequency,
        nominal_v: Voltage,
        tj_cal_c: f64,
        leakage: LeakageModel,
    ) -> Self {
        assert!(tdp_w > 0.0 && tdp_w.is_finite(), "invalid TDP {tdp_w}");
        assert!(cores > 0, "a CPU needs at least one core");
        assert!(base_f <= air_turbo_f, "base above turbo");
        let static_w = leakage.power_w(tj_cal_c, nominal_v);
        let dyn_w = tdp_w - static_w;
        assert!(
            dyn_w > 0.0,
            "leakage {static_w} W exceeds TDP {tdp_w} W at calibration point"
        );
        let c_eff = dyn_w / (nominal_v.volts().powi(2) * air_turbo_f.ghz());
        let flat_top = air_turbo_f.step_bins(1);
        let oc_point = Frequency::from_mhz((flat_top.mhz() as f64 * 1.23).round() as u32);
        let vf = VfCurve::from_points(
            (flat_top, nominal_v),
            (
                oc_point,
                Voltage::from_mv((nominal_v.mv() as f64 * 0.98 / 0.90).round() as u32),
            ),
        );
        CpuSku {
            name: name.into(),
            cores,
            tdp_w,
            base_f,
            air_turbo_f,
            nominal_v,
            vf,
            leakage,
            c_eff_w_per_v2_ghz: c_eff,
        }
    }

    /// The 24-core Intel Skylake 8168 (205 W TDP) from the large tank:
    /// 3.1 GHz all-core turbo at 92 °C in air (Table III).
    pub fn skylake_8168() -> Self {
        CpuSku::new(
            "Skylake 8168",
            24,
            205.0,
            Frequency::from_ghz(2.7),
            Frequency::from_ghz(3.1),
            Voltage::from_volts(0.90),
            // Self-consistent with the air interface: 47 + 0.22 × 205.
            92.1,
            LeakageModel::skylake(),
        )
    }

    /// The 28-core Intel Skylake 8180 (205 W TDP) from the large tank:
    /// 2.6 GHz all-core turbo at 90 °C in air (Table III).
    pub fn skylake_8180() -> Self {
        CpuSku::new(
            "Skylake 8180",
            28,
            205.0,
            Frequency::from_ghz(2.1),
            Frequency::from_ghz(2.6),
            Voltage::from_volts(0.90),
            // Self-consistent with the air interface: 47.1 + 0.21 × 205.
            90.15,
            LeakageModel::skylake(),
        )
    }

    /// The 28-core overclockable Xeon W-3175X (255 W TDP) from small tank
    /// #1: 3.1 GHz base, 3.4 GHz all-core turbo (config B2), overclocked
    /// to 4.1 GHz in configs OC1–OC3.
    pub fn xeon_w3175x() -> Self {
        CpuSku::new(
            "Xeon W-3175X",
            28,
            255.0,
            Frequency::from_ghz(3.1),
            Frequency::from_ghz(3.4),
            Voltage::from_volts(0.90),
            90.0,
            LeakageModel::skylake(),
        )
    }

    /// The 8-core Intel i9-9900K (95 W TDP) from small tank #2, host of
    /// the RTX 2080 Ti GPU experiments.
    pub fn i9_9900k() -> Self {
        CpuSku::new(
            "Core i9-9900K",
            8,
            95.0,
            Frequency::from_ghz(3.6),
            Frequency::from_ghz(4.7),
            Voltage::from_volts(1.0),
            90.0,
            LeakageModel::skylake(),
        )
    }

    /// Looks a preset SKU up by its marketing name (case-insensitive);
    /// scenario platform specs reference SKUs through these names.
    pub fn by_name(name: &str) -> Option<CpuSku> {
        [
            Self::skylake_8168(),
            Self::skylake_8180(),
            Self::xeon_w3175x(),
            Self::i9_9900k(),
        ]
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// The SKU's marketing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Rated thermal design power, watts.
    pub fn tdp_w(&self) -> f64 {
        self.tdp_w
    }

    /// Guaranteed base frequency.
    pub fn base(&self) -> Frequency {
        self.base_f
    }

    /// All-core turbo frequency achieved in air at TDP.
    pub fn air_turbo(&self) -> Frequency {
        self.air_turbo_f
    }

    /// Nominal rail voltage.
    pub fn nominal_voltage(&self) -> Voltage {
        self.nominal_v
    }

    /// The leakage model.
    pub fn leakage(&self) -> &LeakageModel {
        &self.leakage
    }

    /// The calibrated effective capacitance, W/(V²·GHz).
    pub fn c_eff(&self) -> f64 {
        self.c_eff_w_per_v2_ghz
    }

    /// Dynamic power at frequency `f` and voltage `v`, all cores active.
    pub fn dynamic_power_w(&self, f: Frequency, v: Voltage) -> f64 {
        self.c_eff_w_per_v2_ghz * v.volts().powi(2) * f.ghz()
    }

    /// The voltage the V/f curve requires to run at `f`.
    pub fn voltage_for(&self, f: Frequency) -> Voltage {
        self.vf.voltage_for(f).max(self.nominal_v)
    }

    /// Solves the power/temperature fixed point for running all cores at
    /// (`f`, `v`) through the given thermal interface.
    pub fn steady_state(&self, iface: &ThermalInterface, f: Frequency, v: Voltage) -> SteadyState {
        let dyn_w = self.dynamic_power_w(f, v);
        let mut power = dyn_w;
        let mut tj = iface.junction_temp_c(power);
        for _ in 0..64 {
            let static_w = self.leakage.power_w(tj.min(149.0), v);
            let next = dyn_w + static_w;
            tj = iface.junction_temp_c(next);
            if (next - power).abs() < 1e-9 {
                power = next;
                break;
            }
            power = next;
        }
        SteadyState {
            power_w: power,
            tj_c: tj,
            static_w: power - dyn_w,
        }
    }

    /// The highest all-core frequency, stepped in 100 MHz bins from base,
    /// whose steady-state power stays at or below `power_limit_w` under
    /// `iface`, using the V/f curve for voltage. This is how Table III's
    /// "max turbo" column is produced.
    pub fn max_turbo(&self, iface: &ThermalInterface, power_limit_w: f64) -> Frequency {
        let mut best = self.base_f;
        let mut f = self.base_f;
        // Search up to +30 bins (3 GHz) above base; far beyond any
        // physically reachable point for these SKUs.
        for _ in 0..30 {
            f = f.step_bins(1);
            let v = self.voltage_for(f);
            if self.steady_state(iface, f, v).power_w <= power_limit_w {
                best = f;
            } else {
                break;
            }
        }
        best
    }

    /// The steady state at the paper's overclocked operating point:
    /// +23 % frequency over the 2PIC turbo at the 0.98/0.90-scaled
    /// voltage, nominally 305 W for the Skylake server parts.
    pub fn overclocked_state(&self, iface: &ThermalInterface) -> SteadyState {
        let f2pic = self.air_turbo_f.step_bins(1);
        let f = Frequency::from_mhz((f2pic.mhz() as f64 * 1.23).round() as u32);
        let v = self.voltage_for(f);
        self.steady_state(iface, f, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_thermal::fluid::DielectricFluid;

    fn air_8168() -> ThermalInterface {
        ThermalInterface::air(35.0, 12.0, 0.22)
    }
    fn air_8180() -> ThermalInterface {
        ThermalInterface::air(35.0, 12.1, 0.21)
    }
    fn tank_8168() -> ThermalInterface {
        ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.12, 0.4)
    }
    fn tank_8180() -> ThermalInterface {
        ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6)
    }

    #[test]
    fn calibration_point_reproduces_tdp_and_tj() {
        let sku = CpuSku::skylake_8180();
        let ss = sku.steady_state(&air_8180(), sku.air_turbo(), sku.nominal_voltage());
        assert!((ss.power_w - 205.0).abs() < 3.0, "power {}", ss.power_w);
        assert!((ss.tj_c - 90.0).abs() < 1.5, "tj {}", ss.tj_c);
    }

    #[test]
    fn table3_one_extra_bin_in_2pic() {
        for (sku, air, tank, air_ghz, tank_ghz) in [
            (CpuSku::skylake_8168(), air_8168(), tank_8168(), 3.1, 3.2),
            (CpuSku::skylake_8180(), air_8180(), tank_8180(), 2.6, 2.7),
        ] {
            let t_air = sku.max_turbo(&air, sku.tdp_w());
            let t_tank = sku.max_turbo(&tank, sku.tdp_w());
            assert_eq!(t_air, Frequency::from_ghz(air_ghz), "{} air", sku.name());
            assert_eq!(t_tank, Frequency::from_ghz(tank_ghz), "{} 2PIC", sku.name());
        }
    }

    #[test]
    fn iso_power_iso_turbo_between_air_and_tank() {
        // Table III: measured power is ~204.4–204.5 W in both environments;
        // the tank's advantage is temperature, not power.
        let sku = CpuSku::skylake_8168();
        let a = sku.steady_state(&air_8168(), Frequency::from_ghz(3.1), sku.nominal_voltage());
        let t = sku.steady_state(
            &tank_8168(),
            Frequency::from_ghz(3.1),
            sku.nominal_voltage(),
        );
        assert!(a.power_w > t.power_w, "leakage should drop in the tank");
        assert!((a.tj_c - t.tj_c) > 15.0, "tank should run much cooler");
    }

    #[test]
    fn overclocked_state_near_305w() {
        // Section IV: 205 W @ 0.90 V → 305 W @ 0.98 V per socket. Our
        // composite model lands within ~5 % (uncore/memory scaling is
        // carried by the server model, not the socket model).
        let sku = CpuSku::skylake_8180();
        let ss = sku.overclocked_state(&tank_8180());
        assert!(
            (ss.power_w - 305.0).abs() < 20.0,
            "overclocked power {}",
            ss.power_w
        );
        assert!(ss.tj_c < 80.0, "2PIC keeps the OC junction below 80 °C");
    }

    #[test]
    fn dynamic_power_scales_v2f() {
        let sku = CpuSku::skylake_8180();
        let f = Frequency::from_ghz(2.0);
        let p1 = sku.dynamic_power_w(f, Voltage::from_volts(0.9));
        let p2 = sku.dynamic_power_w(f.step_bins(10), Voltage::from_volts(0.9));
        assert!((p2 / p1 - 1.5).abs() < 1e-9);
        let p3 = sku.dynamic_power_w(f, Voltage::from_volts(1.8));
        assert!((p3 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_static_share_is_positive_and_minor() {
        let sku = CpuSku::skylake_8168();
        let ss = sku.steady_state(&air_8168(), sku.air_turbo(), sku.nominal_voltage());
        assert!(ss.static_w > 0.0);
        assert!(ss.static_w < ss.power_w * 0.3);
    }

    #[test]
    fn max_turbo_honours_lower_power_caps() {
        let sku = CpuSku::skylake_8180();
        let capped = sku.max_turbo(&air_8180(), 150.0);
        let uncapped = sku.max_turbo(&air_8180(), 205.0);
        assert!(capped < uncapped);
    }

    #[test]
    fn voltage_never_below_nominal() {
        let sku = CpuSku::skylake_8180();
        assert_eq!(
            sku.voltage_for(Frequency::from_ghz(1.0)),
            sku.nominal_voltage()
        );
        assert!(sku.voltage_for(Frequency::from_ghz(3.3)) > sku.nominal_voltage());
    }

    #[test]
    fn sku_catalog_core_counts() {
        assert_eq!(CpuSku::skylake_8168().cores(), 24);
        assert_eq!(CpuSku::skylake_8180().cores(), 28);
        assert_eq!(CpuSku::xeon_w3175x().cores(), 28);
        assert_eq!(CpuSku::i9_9900k().cores(), 8);
    }
}
