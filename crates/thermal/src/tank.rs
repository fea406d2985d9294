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

/// A 2PIC tank: its fluid and the junction interface it gives the
/// components immersed in it.
///
/// # Example
///
/// ```
/// use ic_thermal::tank::TankPrototype;
///
/// let tank = TankPrototype::small_tank_1();
/// // HFE-7000 boils at 34 °C: the junction reference of every part in it.
/// assert_eq!(tank.interface(0.084, 0.0).reference_temp_c(), 34.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TankPrototype {
    name: String,
    fluid: DielectricFluid,
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

    /// The tank's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The immersion fluid in this tank.
    pub fn fluid(&self) -> &DielectricFluid {
        &self.fluid
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
    fn fluids_match_section_3() {
        assert_eq!(TankPrototype::small_tank_1().fluid().name(), "3M HFE-7000");
        assert_eq!(TankPrototype::paper_tank(1).fluid().name(), "3M FC-3284");
        assert_eq!(TankPrototype::paper_tank(2).fluid().name(), "3M FC-3284");
        // Slots and condenser capacity come straight from the calibration:
        // the large tank holds 36 blades at 700 W plus the paper's
        // +200 W/server overclocking allowance, but is not unbounded.
        let tanks = ThermalCalibration::paper().tanks;
        let slots: Vec<u32> = tanks.iter().map(|t| t.server_slots).collect();
        assert_eq!(slots, [2, 2, 36]);
        assert!(36.0 * 900.0 <= tanks[2].condenser_capacity_w);
        assert!(36.0 * 1200.0 > tanks[2].condenser_capacity_w);
    }

    #[test]
    fn interface_uses_tank_fluid() {
        let tank = TankPrototype::small_tank_1();
        let iface = tank.interface(0.084, 0.0);
        // HFE-7000 boils at 34 °C.
        assert_eq!(iface.reference_temp_c(), 34.0);
    }
}
