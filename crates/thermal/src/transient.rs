//! Transient thermal behaviour: why immersion's junction-temperature
//! *swing* is so narrow.
//!
//! Table V's lifetime story hinges on ΔT_j: the air-cooled part cycles
//! 20–101 °C while the immersed one cycles 50–74 °C. The physical
//! reason is thermal mass and the boiling clamp: a 2PIC tank's bulk
//! liquid sits pinned at the fluid's boiling point no matter the load
//! (heat leaves as latent heat, not sensible heat), while an air-cooled
//! heatsink's reference temperature rides up and down with every load
//! change. [`ThermalNode`] is a first-order lumped RC model of a
//! junction over either reference; stepping a load profile through both
//! shows the swing difference directly.

use crate::fluid::DielectricFluid;

/// A first-order thermal node: `C·dT/dt = P − (T − T_ref)/R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalNode {
    /// Thermal resistance junction→reference, °C/W.
    resistance_c_per_w: f64,
    /// Thermal capacitance, J/°C.
    capacitance_j_per_c: f64,
    /// Current junction temperature, °C.
    temp_c: f64,
    /// Reference (coolant) temperature, °C.
    reference_c: f64,
}

impl ThermalNode {
    /// Creates a node at thermal equilibrium with its reference.
    ///
    /// # Panics
    ///
    /// Panics if resistance or capacitance is not strictly positive.
    pub fn new(resistance_c_per_w: f64, capacitance_j_per_c: f64, reference_c: f64) -> Self {
        assert!(resistance_c_per_w > 0.0, "invalid resistance");
        assert!(capacitance_j_per_c > 0.0, "invalid capacitance");
        ThermalNode {
            resistance_c_per_w,
            capacitance_j_per_c,
            temp_c: reference_c,
            reference_c,
        }
    }

    /// An immersed junction: the reference is clamped at the fluid's
    /// boiling point; the die+boiler stack has small thermal mass
    /// (~60 J/°C for a lidded server CPU with a copper boiler).
    pub fn immersed(fluid: &DielectricFluid, resistance_c_per_w: f64) -> Self {
        ThermalNode::new(resistance_c_per_w, 60.0, fluid.boiling_point_c())
    }

    /// An air-cooled junction: larger heatsink mass, but the reference
    /// itself will be moved by [`Self::set_reference`] as load heats the
    /// airstream.
    pub fn air_cooled(resistance_c_per_w: f64, inlet_c: f64) -> Self {
        ThermalNode::new(resistance_c_per_w, 450.0, inlet_c)
    }

    /// Current junction temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Current reference temperature, °C.
    pub fn reference_c(&self) -> f64 {
        self.reference_c
    }

    /// The node's time constant `τ = R·C`, seconds.
    pub fn time_constant_s(&self) -> f64 {
        self.resistance_c_per_w * self.capacitance_j_per_c
    }

    /// Moves the reference temperature (airstream heating under load;
    /// never used for 2PIC, whose reference is the boiling clamp).
    pub fn set_reference(&mut self, reference_c: f64) {
        self.reference_c = reference_c;
    }

    /// Advances the node by `dt_s` seconds at dissipation `power_w`
    /// (exact exponential update of the first-order ODE). Returns the
    /// new junction temperature.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` or `power_w` is negative/non-finite.
    pub fn step(&mut self, power_w: f64, dt_s: f64) -> f64 {
        assert!(dt_s >= 0.0 && dt_s.is_finite(), "invalid dt");
        assert!(power_w >= 0.0 && power_w.is_finite(), "invalid power");
        let steady = self.reference_c + self.resistance_c_per_w * power_w;
        let alpha = (-dt_s / self.time_constant_s()).exp();
        self.temp_c = steady + (self.temp_c - steady) * alpha;
        self.temp_c
    }

    /// Runs a `(duration_s, power_w)` load profile and returns
    /// `(min, max)` junction temperature seen (sampled every second).
    pub fn run_profile(&mut self, profile: &[(f64, f64)]) -> (f64, f64) {
        let mut min = self.temp_c;
        let mut max = self.temp_c;
        for &(duration_s, power_w) in profile {
            let steps = duration_s.ceil() as usize;
            for _ in 0..steps.max(1) {
                let t = self.step(power_w, (duration_s / steps.max(1) as f64).max(1e-9));
                min = min.min(t);
                max = max.max(t);
            }
        }
        (min, max)
    }
}

/// Runs the same idle/burst load profile through an air-cooled and an
/// immersed junction and returns their `(ΔT_air, ΔT_2pic)` swings —
/// the Table V "DTj" comparison from first principles. For the air
/// node, the airstream reference is modelled as rising 0.05 °C/W with
/// sustained load (shared hot aisle).
pub fn swing_comparison(
    fluid: &DielectricFluid,
    idle_w: f64,
    peak_w: f64,
    cycle_s: f64,
    cycles: u32,
) -> (f64, f64) {
    let mut air = ThermalNode::air_cooled(0.16, 20.0);
    let mut tank = ThermalNode::immersed(fluid, 0.0785);
    let mut air_min = f64::MAX;
    let mut air_max = f64::MIN;
    let mut tank_min = f64::MAX;
    let mut tank_max = f64::MIN;
    for _ in 0..cycles {
        for &(p, frac) in &[(peak_w, 0.5), (idle_w, 0.5)] {
            // Air reference rides with the load; the tank's stays at the
            // boiling point.
            air.set_reference(20.0 + 0.05 * p);
            let (lo_a, hi_a) = air.run_profile(&[(cycle_s * frac, p)]);
            let (lo_t, hi_t) = tank.run_profile(&[(cycle_s * frac, p)]);
            air_min = air_min.min(lo_a);
            air_max = air_max.max(hi_a);
            tank_min = tank_min.min(lo_t);
            tank_max = tank_max.max(hi_t);
        }
    }
    (air_max - air_min, tank_max - tank_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_settles_to_steady_state() {
        let mut n = ThermalNode::new(0.1, 100.0, 50.0);
        n.step(200.0, 1000.0); // many time constants
        assert!((n.temp_c() - 70.0).abs() < 1e-6);
    }

    #[test]
    fn exponential_approach_with_correct_time_constant() {
        let mut n = ThermalNode::new(0.1, 100.0, 50.0);
        // One time constant (10 s): 63.2 % of the way to steady state.
        n.step(200.0, n.time_constant_s());
        let progress = (n.temp_c() - 50.0) / 20.0;
        assert!((progress - 0.632).abs() < 0.002, "progress {progress}");
    }

    #[test]
    fn immersed_node_has_short_time_constant() {
        let tank = ThermalNode::immersed(&DielectricFluid::fc3284(), 0.0785);
        let air = ThermalNode::air_cooled(0.16, 20.0);
        assert!(tank.time_constant_s() < air.time_constant_s() / 5.0);
    }

    #[test]
    fn swing_comparison_matches_table5_shape() {
        // Idle 5 W / peak 305 W cycles: air swings far wider than 2PIC.
        let (air_swing, tank_swing) =
            swing_comparison(&DielectricFluid::fc3284(), 5.0, 305.0, 1200.0, 4);
        assert!(
            air_swing > 2.0 * tank_swing,
            "air {air_swing:.1} vs tank {tank_swing:.1}"
        );
        // Table V magnitudes: air ~81 °C (20–101), FC-3284 ~24 °C.
        assert!(
            (60.0..100.0).contains(&air_swing),
            "air swing {air_swing:.1}"
        );
        assert!(
            (15.0..35.0).contains(&tank_swing),
            "tank swing {tank_swing:.1}"
        );
    }

    #[test]
    fn tank_temperature_never_drops_below_boiling_point() {
        let fluid = DielectricFluid::hfe7000();
        let mut tank = ThermalNode::immersed(&fluid, 0.084);
        tank.run_profile(&[(600.0, 300.0), (600.0, 0.0)]);
        assert!(tank.temp_c() >= fluid.boiling_point_c() - 1e-9);
    }

    #[test]
    fn profile_reports_extremes() {
        let mut n = ThermalNode::new(0.1, 10.0, 40.0);
        let (lo, hi) = n.run_profile(&[(100.0, 300.0), (100.0, 0.0)]);
        assert!((hi - 70.0).abs() < 0.5);
        assert!((lo - 40.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid capacitance")]
    fn zero_capacitance_panics() {
        let _ = ThermalNode::new(0.1, 0.0, 40.0);
    }
}
