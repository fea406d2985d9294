//! Engineered dielectric fluids for immersion cooling (paper Table II).
//!
//! Fluorinated fluids are designed to boil at specific temperatures, are
//! non-conductive and chemically inert, and have a useful life beyond 30
//! years. The paper uses 3M FC-3284 (Fluorinert) in small tank #2 and the
//! large tank, and 3M HFE-7000 (Novec 7000) in small tank #1.

use ic_scenario::{FluidSpec, ThermalCalibration};
use std::fmt;

/// A dielectric fluid engineered for immersion cooling.
///
/// # Example
///
/// ```
/// use ic_thermal::fluid::DielectricFluid;
///
/// let fc = DielectricFluid::fc3284();
/// assert_eq!(fc.boiling_point_c(), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DielectricFluid {
    name: String,
    boiling_point_c: f64,
    dielectric_constant: f64,
    latent_heat_j_per_g: f64,
    useful_life_years: f64,
}

impl DielectricFluid {
    /// Builds a fluid from a scenario specification.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`DielectricFluid::custom`];
    /// a spec from a validated [`ic_scenario::Scenario`] never does.
    pub fn from_spec(spec: &FluidSpec) -> Self {
        Self::custom(
            spec.name.clone(),
            spec.boiling_point_c,
            spec.dielectric_constant,
            spec.latent_heat_j_per_g,
            spec.useful_life_years,
        )
    }

    fn paper_fluid(name: &str) -> Self {
        Self::from_spec(
            ThermalCalibration::paper()
                .fluid(name)
                .expect("paper calibration fluid"),
        )
    }

    /// 3M Fluorinert FC-3284: boils at 50 °C, latent heat 105 J/g
    /// (Table II). Used in small tank #2 and the 36-blade large tank.
    pub fn fc3284() -> Self {
        Self::paper_fluid("3M FC-3284")
    }

    /// 3M Novec HFE-7000: boils at 34 °C, latent heat 142 J/g (Table II).
    /// Used in small tank #1 with the overclockable Xeon W-3175X; its lower
    /// boiling point yields the lowest junction temperatures, which is what
    /// lets overclocked lifetime match the air-cooled baseline (Table V).
    pub fn hfe7000() -> Self {
        Self::paper_fluid("3M HFE-7000")
    }

    /// Creates a custom fluid, e.g. to explore the lower-GWP alternatives
    /// the paper mentions but had not yet tested.
    ///
    /// # Panics
    ///
    /// Panics if the boiling point is outside a plausible (0, 100] °C
    /// range, or if the latent heat or useful life are not positive.
    pub fn custom(
        name: impl Into<String>,
        boiling_point_c: f64,
        dielectric_constant: f64,
        latent_heat_j_per_g: f64,
        useful_life_years: f64,
    ) -> Self {
        assert!(
            boiling_point_c > 0.0 && boiling_point_c <= 100.0,
            "implausible boiling point {boiling_point_c} °C"
        );
        assert!(latent_heat_j_per_g > 0.0, "latent heat must be positive");
        assert!(useful_life_years > 0.0, "useful life must be positive");
        DielectricFluid {
            name: name.into(),
            boiling_point_c,
            dielectric_constant,
            latent_heat_j_per_g,
            useful_life_years,
        }
    }

    /// The fluid's marketing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The boiling point in °C — the bulk liquid temperature of a 2PIC
    /// tank in steady state, and therefore the reference temperature of
    /// the junction model.
    pub fn boiling_point_c(&self) -> f64 {
        self.boiling_point_c
    }

    /// The relative dielectric constant.
    pub fn dielectric_constant(&self) -> f64 {
        self.dielectric_constant
    }

    /// The latent heat of vaporization in J/g.
    pub fn latent_heat_j_per_g(&self) -> f64 {
        self.latent_heat_j_per_g
    }

    /// The engineered useful life in years (">30 years" in Table II).
    pub fn useful_life_years(&self) -> f64 {
        self.useful_life_years
    }
}

impl fmt::Display for DielectricFluid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (boils at {} °C)", self.name, self.boiling_point_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_fc3284() {
        let f = DielectricFluid::fc3284();
        assert_eq!(f.boiling_point_c(), 50.0);
        assert_eq!(f.dielectric_constant(), 1.86);
        assert_eq!(f.latent_heat_j_per_g(), 105.0);
        assert!(f.useful_life_years() >= 30.0);
    }

    #[test]
    fn table2_hfe7000() {
        let f = DielectricFluid::hfe7000();
        assert_eq!(f.boiling_point_c(), 34.0);
        assert_eq!(f.dielectric_constant(), 7.4);
        assert_eq!(f.latent_heat_j_per_g(), 142.0);
    }

    #[test]
    fn custom_fluid_validates() {
        let f = DielectricFluid::custom("LowGWP-X", 45.0, 2.0, 120.0, 25.0);
        assert_eq!(f.name(), "LowGWP-X");
    }

    #[test]
    #[should_panic(expected = "implausible boiling point")]
    fn custom_fluid_rejects_bad_boiling_point() {
        let _ = DielectricFluid::custom("X", 150.0, 2.0, 120.0, 25.0);
    }

    #[test]
    fn display_mentions_boiling_point() {
        assert!(DielectricFluid::hfe7000().to_string().contains("34"));
    }
}
