//! The three 2PIC tank prototypes of Section III.
//!
//! * **Small tank #1** — one 28-core Xeon W-3175X (255 W TDP,
//!   overclockable) in HFE-7000; the platform for every CPU overclocking
//!   experiment in Section VI.
//! * **Small tank #2** — an 8-core i9-9900K plus an overclockable Nvidia
//!   RTX 2080 Ti (250 W TDP) in FC-3284; the GPU overclocking platform.
//! * **Large tank** — 36 Open Compute two-socket blades (half Skylake
//!   8168, half 8180, 205 W TDP each, locked) in FC-3284, used for thermal
//!   and reliability characterization and later deployed in production.

use crate::fluid::DielectricFluid;
use crate::junction::ThermalInterface;
use ic_scenario::{TankSpec, ThermalCalibration};

/// A 2PIC tank hosting a fixed set of server slots.
///
/// # Example
///
/// ```
/// use ic_thermal::tank::TankPrototype;
///
/// let tank = TankPrototype::large();
/// assert_eq!(tank.server_slots(), 36);
/// // 36 servers × 658 W (immersed: no fans) is within condenser capacity.
/// assert!(tank.can_dissipate(36.0 * 658.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TankPrototype {
    name: String,
    fluid: DielectricFluid,
    server_slots: u32,
    condenser_capacity_w: f64,
    sealed: bool,
}

impl TankPrototype {
    /// Builds a tank from a scenario specification, resolving its fluid
    /// against the calibration's fluid list.
    ///
    /// # Panics
    ///
    /// Panics if the spec names a fluid absent from `cal`; a spec from a
    /// validated [`ic_scenario::Scenario`] never does.
    pub fn from_spec(spec: &TankSpec, cal: &ThermalCalibration) -> Self {
        let fluid = cal
            .fluid(&spec.fluid)
            .unwrap_or_else(|| panic!("tank {}: unknown fluid '{}'", spec.name, spec.fluid));
        TankPrototype {
            name: spec.name.clone(),
            fluid: DielectricFluid::from_spec(fluid),
            server_slots: spec.server_slots,
            condenser_capacity_w: spec.condenser_capacity_w,
            sealed: spec.sealed,
        }
    }

    fn paper_tank(index: usize) -> Self {
        let cal = ThermalCalibration::paper();
        Self::from_spec(&cal.tanks[index], &cal)
    }

    /// Small tank #1: Xeon W-3175X in HFE-7000, 2 server slots. The
    /// condenser capacity is generous single-server headroom: the
    /// W-3175X alone can pull >500 W when overclocked.
    pub fn small_tank_1() -> Self {
        Self::paper_tank(0)
    }

    /// Small tank #2: i9-9900K + RTX 2080 Ti in FC-3284, 2 server slots.
    pub fn small_tank_2() -> Self {
        Self::paper_tank(1)
    }

    /// The large tank: 36 Open Compute blades in FC-3284. Its condenser
    /// handles 36 × 700 W air-equivalent servers plus the paper's
    /// +200 W/server overclocking headroom (Section IV).
    pub fn large() -> Self {
        Self::paper_tank(2)
    }

    /// The tank's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The immersion fluid in this tank.
    pub fn fluid(&self) -> &DielectricFluid {
        &self.fluid
    }

    /// The number of server slots.
    pub fn server_slots(&self) -> u32 {
        self.server_slots
    }

    /// The condenser's maximum continuous heat rejection, in watts.
    pub fn condenser_capacity_w(&self) -> f64 {
        self.condenser_capacity_w
    }

    /// `true` if the tank is sealed against vapor loss (Takeaway 4).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Whether the condenser can reject `heat_w` continuously.
    pub fn can_dissipate(&self, heat_w: f64) -> bool {
        heat_w <= self.condenser_capacity_w
    }

    /// The steady-state vapor generation rate, kg/s, at heat load
    /// `heat_w`. The condenser returns the same mass as liquid, so no
    /// fluid is lost while sealed.
    pub fn vapor_rate_kg_per_s(&self, heat_w: f64) -> f64 {
        self.fluid.boil_rate_kg_per_s(heat_w)
    }

    /// Builds a junction interface for a component immersed in this tank
    /// with the given boiling-side thermal resistance and superheat.
    pub fn interface(&self, resistance_c_per_w: f64, superheat_c: f64) -> ThermalInterface {
        ThermalInterface::two_phase(self.fluid.clone(), resistance_c_per_w, superheat_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_inventory() {
        assert_eq!(TankPrototype::small_tank_1().server_slots(), 2);
        assert_eq!(TankPrototype::small_tank_2().server_slots(), 2);
        assert_eq!(TankPrototype::large().server_slots(), 36);
    }

    #[test]
    fn fluids_match_section_3() {
        assert_eq!(TankPrototype::small_tank_1().fluid().name(), "3M HFE-7000");
        assert_eq!(TankPrototype::small_tank_2().fluid().name(), "3M FC-3284");
        assert_eq!(TankPrototype::large().fluid().name(), "3M FC-3284");
    }

    #[test]
    fn large_tank_handles_full_load_with_overclocking() {
        let tank = TankPrototype::large();
        // 36 servers at 700 W (air envelope) each.
        assert!(tank.can_dissipate(36.0 * 700.0));
        // Plus the paper's +200 W/server overclocking allowance.
        assert!(tank.can_dissipate(36.0 * 900.0));
        // But not unbounded.
        assert!(!tank.can_dissipate(36.0 * 1200.0));
    }

    #[test]
    fn vapor_rate_uses_fluid_latent_heat() {
        let tank = TankPrototype::large();
        let rate = tank.vapor_rate_kg_per_s(10_500.0);
        assert!((rate - 0.1).abs() < 1e-9); // 10.5 kW / 105 kJ/kg
    }

    #[test]
    fn interface_uses_tank_fluid() {
        let tank = TankPrototype::small_tank_1();
        let iface = tank.interface(0.084, 0.0);
        // HFE-7000 boils at 34 °C.
        assert_eq!(iface.reference_temp_c(), 34.0);
    }

    #[test]
    fn tanks_are_sealed() {
        assert!(TankPrototype::large().is_sealed());
    }
}
