//! The three wear-out mechanisms of the paper's Table IV.
//!
//! | Failure mode | T | ΔT | V |
//! |---|---|---|---|
//! | Gate-oxide breakdown | ✓ | ✗ | ✓ |
//! | Electromigration | ✓ | ✗ | ✗ |
//! | Thermal cycling | ✗ | ✓ | ✗ |
//!
//! Each mechanism contributes a failure *rate* (1/years); the composite
//! model in [`crate::lifetime`] sums rates (series system). Parameter
//! values are fitted to Table V — see the crate-level table.

use ic_scenario::{
    ElectromigrationSpec, GateOxideSpec, ReliabilityCalibration, ThermalCyclingSpec,
};
use std::fmt;

/// Boltzmann constant in eV/K.
pub const KB_EV_PER_K: f64 = 8.617e-5;

/// The operating point a mechanism is evaluated at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingConditions {
    voltage_v: f64,
    tj_max_c: f64,
    tj_min_c: f64,
}

impl OperatingConditions {
    /// Creates an operating point: rail voltage, peak junction
    /// temperature, and the minimum junction temperature the part cycles
    /// down to (ambient for air, fluid boiling point for 2PIC).
    ///
    /// # Panics
    ///
    /// Panics if the voltage is outside (0, 2] V, temperatures are
    /// outside (−50, 150) °C, or `tj_min_c > tj_max_c`.
    pub fn new(voltage_v: f64, tj_max_c: f64, tj_min_c: f64) -> Self {
        assert!(
            voltage_v > 0.0 && voltage_v <= 2.0,
            "implausible core voltage {voltage_v} V"
        );
        for t in [tj_max_c, tj_min_c] {
            assert!(
                t.is_finite() && (-50.0..150.0).contains(&t),
                "implausible temperature {t} °C"
            );
        }
        assert!(tj_min_c <= tj_max_c, "tj_min above tj_max");
        OperatingConditions {
            voltage_v,
            tj_max_c,
            tj_min_c,
        }
    }

    /// The rail voltage in volts.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_v
    }

    /// Peak junction temperature, °C.
    pub fn tj_max_c(&self) -> f64 {
        self.tj_max_c
    }

    /// Minimum junction temperature, °C.
    pub fn tj_min_c(&self) -> f64 {
        self.tj_min_c
    }

    /// Peak junction temperature in Kelvin.
    pub fn tj_max_k(&self) -> f64 {
        self.tj_max_c + 273.15
    }

    /// The thermal-cycling swing ΔT_j, °C (Table V's "DTj").
    pub fn delta_tj_c(&self) -> f64 {
        self.tj_max_c - self.tj_min_c
    }
}

/// A wear-out process contributing a failure rate at a given operating
/// point.
///
/// This trait is sealed in spirit: the composite model is fitted as a
/// whole, so mixing in foreign mechanisms invalidates the calibration.
/// It is left open so tests can inject synthetic mechanisms.
pub trait FailureMechanism: fmt::Debug {
    /// The mechanism's name as it appears in Table IV.
    fn name(&self) -> &'static str;

    /// Failure rate contribution, in 1/years, at the given conditions.
    fn rate_per_year(&self, cond: &OperatingConditions) -> f64;

    /// Whether the rate depends on absolute junction temperature
    /// (Table IV's "T" column).
    fn depends_on_temperature(&self) -> bool;

    /// Whether the rate depends on the temperature swing ("ΔT").
    fn depends_on_delta_t(&self) -> bool;

    /// Whether the rate depends on voltage ("V").
    fn depends_on_voltage(&self) -> bool;
}

/// Time-dependent gate-oxide breakdown (TDDB): a low-impedance
/// source-to-drain path forms through the gate dielectric. Rate grows
/// exponentially in voltage (E-model) with a weak, non-Arrhenius
/// temperature dependence at these thin oxides (DiMaria & Stathis \[19\]).
///
/// `rate = A · exp(γ·V) · exp(−Ea / kT)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOxideBreakdown {
    /// Pre-factor, 1/years.
    pub a: f64,
    /// Voltage acceleration, 1/V.
    pub gamma: f64,
    /// Activation energy, eV.
    pub ea_ev: f64,
}

impl GateOxideBreakdown {
    /// Builds the mechanism from a scenario's fit coefficients.
    pub fn from_spec(spec: &GateOxideSpec) -> Self {
        GateOxideBreakdown {
            a: spec.ln_a.exp(),
            gamma: spec.gamma_per_v,
            ea_ev: spec.ea_ev,
        }
    }

    /// The fitted 5 nm-composite parameters.
    pub fn fitted() -> Self {
        Self::from_spec(&ReliabilityCalibration::paper().gate_oxide)
    }
}

impl FailureMechanism for GateOxideBreakdown {
    fn name(&self) -> &'static str {
        "Gate oxide breakdown"
    }
    fn rate_per_year(&self, cond: &OperatingConditions) -> f64 {
        self.a
            * (self.gamma * cond.voltage_v()).exp()
            * (-self.ea_ev / (KB_EV_PER_K * cond.tj_max_k())).exp()
    }
    fn depends_on_temperature(&self) -> bool {
        true
    }
    fn depends_on_delta_t(&self) -> bool {
        false
    }
    fn depends_on_voltage(&self) -> bool {
        true
    }
}

/// Electromigration: conductor material diffuses under current stress,
/// compromising interconnect structure. Black's-equation form with a
/// high activation energy, so the rate is negligible below ~70 °C but
/// grows steeply toward the air-cooled overclocked operating point.
///
/// `rate = A · exp(−Ea / kT)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Electromigration {
    /// Pre-factor, 1/years.
    pub a: f64,
    /// Activation energy, eV.
    pub ea_ev: f64,
}

impl Electromigration {
    /// Builds the mechanism from a scenario's fit coefficients.
    pub fn from_spec(spec: &ElectromigrationSpec) -> Self {
        Electromigration {
            a: spec.ln_a.exp(),
            ea_ev: spec.ea_ev,
        }
    }

    /// The fitted 5 nm-composite parameters.
    pub fn fitted() -> Self {
        Self::from_spec(&ReliabilityCalibration::paper().electromigration)
    }
}

impl FailureMechanism for Electromigration {
    fn name(&self) -> &'static str {
        "Electro-migration"
    }
    fn rate_per_year(&self, cond: &OperatingConditions) -> f64 {
        self.a * (-self.ea_ev / (KB_EV_PER_K * cond.tj_max_k())).exp()
    }
    fn depends_on_temperature(&self) -> bool {
        true
    }
    fn depends_on_delta_t(&self) -> bool {
        false
    }
    fn depends_on_voltage(&self) -> bool {
        false
    }
}

/// Thermal cycling: expansion/contraction micro-cracks driven by the
/// junction-temperature swing (Coffin–Manson). The fitted exponent is
/// high (brittle low-k dielectric fracture regime), which is what makes
/// the air-cooled swing (20–101 °C when overclocked) so damaging while
/// immersion's narrow swing (50–74 °C) contributes almost nothing —
/// the paper's core reliability argument for 2PIC.
///
/// `rate = B · ΔT^q`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCycling {
    /// Pre-factor, 1/years.
    pub b: f64,
    /// Coffin–Manson exponent.
    pub q: f64,
}

impl ThermalCycling {
    /// Builds the mechanism from a scenario's fit coefficients.
    pub fn from_spec(spec: &ThermalCyclingSpec) -> Self {
        ThermalCycling {
            b: spec.ln_b.exp(),
            q: spec.q,
        }
    }

    /// The fitted 5 nm-composite parameters.
    pub fn fitted() -> Self {
        Self::from_spec(&ReliabilityCalibration::paper().thermal_cycling)
    }
}

impl FailureMechanism for ThermalCycling {
    fn name(&self) -> &'static str {
        "Thermal cycling"
    }
    fn rate_per_year(&self, cond: &OperatingConditions) -> f64 {
        let dt = cond.delta_tj_c();
        if dt <= 0.0 {
            0.0
        } else {
            self.b * dt.powf(self.q)
        }
    }
    fn depends_on_temperature(&self) -> bool {
        false
    }
    fn depends_on_delta_t(&self) -> bool {
        true
    }
    fn depends_on_voltage(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> OperatingConditions {
        OperatingConditions::new(0.98, 101.0, 20.0)
    }
    fn cool() -> OperatingConditions {
        OperatingConditions::new(0.90, 66.0, 50.0)
    }

    #[test]
    fn table4_dependency_matrix() {
        let tddb = GateOxideBreakdown::fitted();
        let em = Electromigration::fitted();
        let tc = ThermalCycling::fitted();
        assert!(tddb.depends_on_temperature() && tddb.depends_on_voltage());
        assert!(!tddb.depends_on_delta_t());
        assert!(em.depends_on_temperature() && !em.depends_on_voltage());
        assert!(!em.depends_on_delta_t());
        assert!(tc.depends_on_delta_t() && !tc.depends_on_temperature());
        assert!(!tc.depends_on_voltage());
    }

    #[test]
    fn tddb_accelerates_with_voltage_and_temperature() {
        let m = GateOxideBreakdown::fitted();
        let base = m.rate_per_year(&OperatingConditions::new(0.90, 70.0, 50.0));
        let hot_v = m.rate_per_year(&OperatingConditions::new(0.98, 70.0, 50.0));
        let hot_t = m.rate_per_year(&OperatingConditions::new(0.90, 90.0, 50.0));
        assert!(hot_v > base * 2.0, "0.08 V should accelerate >2x");
        assert!(hot_t > base, "higher T accelerates TDDB");
    }

    #[test]
    fn em_negligible_when_cool_dominant_when_hot() {
        let m = Electromigration::fitted();
        let r_cool = m.rate_per_year(&cool());
        let r_hot = m.rate_per_year(&hot());
        assert!(r_cool < 0.01, "EM at 66 °C should be negligible: {r_cool}");
        assert!(r_hot > 0.1, "EM at 101 °C should matter: {r_hot}");
    }

    #[test]
    fn thermal_cycling_driven_by_swing_only() {
        let m = ThermalCycling::fitted();
        // Same ΔT, different absolute temperature → same rate.
        let a = m.rate_per_year(&OperatingConditions::new(0.9, 70.0, 40.0));
        let b = m.rate_per_year(&OperatingConditions::new(0.9, 110.0, 80.0));
        assert!((a - b).abs() < 1e-15);
        // Wider swing → dramatically higher rate.
        let wide = m.rate_per_year(&OperatingConditions::new(0.9, 101.0, 20.0));
        assert!(wide / a > 100.0);
        // Zero swing → zero rate.
        assert_eq!(
            m.rate_per_year(&OperatingConditions::new(0.9, 70.0, 70.0)),
            0.0
        );
    }

    #[test]
    fn conditions_accessors() {
        let c = OperatingConditions::new(0.98, 74.0, 50.0);
        assert_eq!(c.delta_tj_c(), 24.0);
        assert!((c.tj_max_k() - 347.15).abs() < 1e-9);
        assert_eq!(c.voltage_v(), 0.98);
        assert_eq!(c.tj_min_c(), 50.0);
    }

    #[test]
    #[should_panic(expected = "tj_min above tj_max")]
    fn inverted_swing_panics() {
        let _ = OperatingConditions::new(0.9, 50.0, 60.0);
    }

    #[test]
    #[should_panic(expected = "implausible core voltage")]
    fn absurd_voltage_panics() {
        let _ = OperatingConditions::new(5.0, 50.0, 20.0);
    }
}
