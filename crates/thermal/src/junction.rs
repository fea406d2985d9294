//! The lumped junction-temperature model.
//!
//! The paper characterizes each (processor, cooling) pair by an effective
//! thermal resistance `R_th` (°C/W) between the junction and a reference
//! temperature — the thermal-chamber-supplied case environment for air,
//! or the fluid's boiling point (plus a small wall-superheat offset) for
//! 2PIC. Steady-state junction temperature is then
//!
//! ```text
//! T_j = T_ref + R_th × P
//! ```
//!
//! Table III gives measured `R_th` values: 0.22 / 0.21 °C/W in air and
//! 0.12 / 0.08 °C/W in FC-3284 for the Skylake 8168 / 8180; we calibrate
//! reference temperatures from the table's observed junction temperatures
//! and reuse the same structure for the Table V lifetime configurations.

use crate::fluid::{BoilingCoating, DielectricFluid};
use ic_scenario::{CoolingSpec, PlatformSpec, ThermalCalibration};

/// A calibrated junction-to-coolant thermal interface.
///
/// # Example
///
/// ```
/// use ic_thermal::junction::ThermalInterface;
///
/// // The air-cooled Skylake 8168 baseline of Table III: R_th = 0.22 °C/W,
/// // observed T_j = 92 °C at 204.4 W in a 35 °C thermal chamber.
/// let air = ThermalInterface::air(35.0, 12.0, 0.22);
/// assert!((air.junction_temp_c(204.4) - 92.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalInterface {
    reference_temp_c: f64,
    resistance_c_per_w: f64,
    medium: CoolingMedium,
}

/// What the junction ultimately rejects heat into.
#[derive(Debug, Clone, PartialEq)]
pub enum CoolingMedium {
    /// Forced air: reference is inlet temperature plus a case rise.
    Air,
    /// Two-phase immersion: reference is the fluid boiling point plus a
    /// wall-superheat offset.
    TwoPhase(DielectricFluid),
}

impl ThermalInterface {
    /// An air-cooled interface: `inlet_c` is the supplied air temperature
    /// (the paper's thermal chamber supplies 35 °C), `case_rise_c` the
    /// temperature rise from inlet to the heatsink base, and
    /// `resistance_c_per_w` the junction-to-case thermal resistance.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is not positive or temperatures are
    /// non-finite.
    pub fn air(inlet_c: f64, case_rise_c: f64, resistance_c_per_w: f64) -> Self {
        assert!(inlet_c.is_finite() && case_rise_c.is_finite());
        assert!(
            resistance_c_per_w > 0.0 && resistance_c_per_w.is_finite(),
            "invalid thermal resistance {resistance_c_per_w}"
        );
        ThermalInterface {
            reference_temp_c: inlet_c + case_rise_c,
            resistance_c_per_w,
            medium: CoolingMedium::Air,
        }
    }

    /// A 2PIC interface: the reference temperature is the fluid's boiling
    /// point plus `superheat_c` (the small wall superheat needed to sustain
    /// nucleate boiling).
    ///
    /// # Panics
    ///
    /// Panics if the resistance is not positive or `superheat_c` is
    /// negative.
    pub fn two_phase(fluid: DielectricFluid, resistance_c_per_w: f64, superheat_c: f64) -> Self {
        assert!(
            resistance_c_per_w > 0.0 && resistance_c_per_w.is_finite(),
            "invalid thermal resistance {resistance_c_per_w}"
        );
        assert!(
            superheat_c >= 0.0 && superheat_c.is_finite(),
            "invalid superheat {superheat_c}"
        );
        ThermalInterface {
            reference_temp_c: fluid.boiling_point_c() + superheat_c,
            resistance_c_per_w,
            medium: CoolingMedium::TwoPhase(fluid),
        }
    }

    /// Applies a boiling-enhancing coating, which divides the boiling-side
    /// thermal resistance by the coating's performance factor. Only
    /// meaningful for two-phase interfaces; a no-op on air.
    pub fn with_coating(mut self, coating: BoilingCoating) -> Self {
        if matches!(self.medium, CoolingMedium::TwoPhase(_)) {
            self.resistance_c_per_w /= coating.performance_factor();
        }
        self
    }

    /// The effective reference temperature in °C.
    pub fn reference_temp_c(&self) -> f64 {
        self.reference_temp_c
    }

    /// The junction-to-reference thermal resistance in °C/W.
    pub fn resistance_c_per_w(&self) -> f64 {
        self.resistance_c_per_w
    }

    /// The cooling medium.
    pub fn medium(&self) -> &CoolingMedium {
        &self.medium
    }

    /// An identity key over the two parameters that determine
    /// [`junction_temp_c`](Self::junction_temp_c) (bit patterns of the
    /// reference temperature and thermal resistance). Two interfaces
    /// with equal keys produce identical junction temperatures for every
    /// power input, so the key is safe to memoize steady-state solves
    /// on; the medium is deliberately excluded because it does not enter
    /// the temperature model.
    pub fn thermal_key(&self) -> (u64, u64) {
        (
            self.reference_temp_c.to_bits(),
            self.resistance_c_per_w.to_bits(),
        )
    }

    /// Steady-state junction temperature for a component dissipating
    /// `power_w`.
    ///
    /// # Panics
    ///
    /// Panics if `power_w` is negative or non-finite.
    pub fn junction_temp_c(&self, power_w: f64) -> f64 {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "invalid power {power_w}"
        );
        self.reference_temp_c + self.resistance_c_per_w * power_w
    }

    /// The maximum power, in watts, that keeps the junction at or below
    /// `tj_max_c`. Returns 0 if the reference temperature already exceeds
    /// the limit.
    pub fn max_power_for_tj(&self, tj_max_c: f64) -> f64 {
        ((tj_max_c - self.reference_temp_c) / self.resistance_c_per_w).max(0.0)
    }

    /// The junction-temperature *swing* (ΔT_j) between idle (`idle_w`) and
    /// peak (`peak_w`) power — the thermal-cycling input of the lifetime
    /// model (Table V's "DTj" column).
    ///
    /// # Panics
    ///
    /// Panics if `idle_w > peak_w`.
    pub fn temp_swing_c(&self, idle_w: f64, peak_w: f64) -> f64 {
        assert!(idle_w <= peak_w, "idle power exceeds peak power");
        self.junction_temp_c(peak_w) - self.junction_temp_c(idle_w)
    }

    /// Builds the interface described by a scenario platform, resolving
    /// any two-phase fluid against the calibration's fluid list.
    ///
    /// # Panics
    ///
    /// Panics if the platform names a fluid absent from `cal`; a spec
    /// from a validated [`ic_scenario::Scenario`] never does.
    pub fn from_platform(spec: &PlatformSpec, cal: &ThermalCalibration) -> Self {
        match &spec.cooling {
            CoolingSpec::Air {
                inlet_c,
                case_rise_c,
            } => ThermalInterface::air(*inlet_c, *case_rise_c, spec.r_th_c_per_w),
            CoolingSpec::TwoPhase { fluid, superheat_c } => {
                let fluid_spec = cal
                    .fluid(fluid)
                    .unwrap_or_else(|| panic!("platform {}: unknown fluid '{fluid}'", spec.label));
                ThermalInterface::two_phase(
                    DielectricFluid::from_spec(fluid_spec),
                    spec.r_th_c_per_w,
                    *superheat_c,
                )
            }
        }
    }
}

/// The characterization rows of a thermal calibration: the calibrated
/// interface per platform, in table order.
///
/// Returns `(label, interface, measured_power_w, observed_tj_c)`.
pub fn table3_platforms_from(
    cal: &ThermalCalibration,
) -> Vec<(&'static str, ThermalInterface, f64, f64)> {
    cal.platforms
        .iter()
        .map(|p| {
            (
                ic_scenario::intern(&p.label),
                ThermalInterface::from_platform(p, cal),
                p.measured_power_w,
                p.observed_tj_c,
            )
        })
        .collect()
}

/// The Table III characterization rows: (platform, cooling, observed
/// power) with the calibrated interfaces for air (0.22 / 0.21 °C/W) and
/// FC-3284 2PIC (BEC on a copper plate: 0.12 °C/W; BEC directly on the
/// CPU IHS: 0.08 °C/W).
///
/// Returns `(label, interface, measured_power_w, paper_observed_tj_c)`.
pub fn table3_platforms() -> Vec<(&'static str, ThermalInterface, f64, f64)> {
    table3_platforms_from(&ThermalCalibration::paper())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_junction_temps_reproduce() {
        for (label, iface, power, observed_tj) in table3_platforms() {
            let tj = iface.junction_temp_c(power);
            assert!(
                (tj - observed_tj).abs() < 1.0,
                "{label}: model {tj:.1} vs observed {observed_tj}"
            );
        }
    }

    #[test]
    fn immersion_drops_tj_17_to_22_c() {
        let rows = table3_platforms();
        let drop_8168 = rows[0].1.junction_temp_c(204.4) - rows[1].1.junction_temp_c(204.5);
        let drop_8180 = rows[2].1.junction_temp_c(204.5) - rows[3].1.junction_temp_c(204.4);
        assert!((17.0..=22.5).contains(&drop_8168), "drop {drop_8168}");
        assert!((17.0..=22.5).contains(&drop_8180), "drop {drop_8180}");
    }

    #[test]
    fn junction_temp_is_monotone_in_power() {
        let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.1, 1.0);
        let mut last = iface.junction_temp_c(0.0);
        for p in [50.0, 100.0, 200.0, 305.0] {
            let tj = iface.junction_temp_c(p);
            assert!(tj > last);
            last = tj;
        }
    }

    #[test]
    fn zero_power_sits_at_reference() {
        let iface = ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0);
        assert_eq!(iface.junction_temp_c(0.0), 34.0);
    }

    #[test]
    fn max_power_inverts_junction_temp() {
        let iface = ThermalInterface::air(35.0, 12.0, 0.22);
        let p = iface.max_power_for_tj(92.0);
        assert!((iface.junction_temp_c(p) - 92.0).abs() < 1e-9);
        // Below the reference temperature no power is allowed.
        assert_eq!(iface.max_power_for_tj(20.0), 0.0);
    }

    #[test]
    fn coating_halves_two_phase_resistance_only() {
        let bare = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.16, 1.0);
        let coated = bare.clone().with_coating(BoilingCoating::L20227);
        assert!((coated.resistance_c_per_w() - 0.08).abs() < 1e-12);
        let air = ThermalInterface::air(35.0, 12.0, 0.22).with_coating(BoilingCoating::L20227);
        assert_eq!(air.resistance_c_per_w(), 0.22);
    }

    #[test]
    fn temp_swing_matches_resistance_times_power_delta() {
        let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.1, 0.0);
        assert!((iface.temp_swing_c(5.0, 205.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn hfe_runs_cooler_than_fc() {
        let fc = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 0.0);
        let hfe = ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.08, 0.0);
        assert!(hfe.junction_temp_c(205.0) < fc.junction_temp_c(205.0));
    }

    #[test]
    #[should_panic(expected = "invalid thermal resistance")]
    fn zero_resistance_panics() {
        let _ = ThermalInterface::air(35.0, 0.0, 0.0);
    }
}
