//! Server-level power: the Open Compute component breakdown and the
//! immersion savings arithmetic of Section IV.
//!
//! Each large-tank blade consumes up to 700 W: 410 W for the two
//! processor sockets, 120 W for 24 DDR4 DIMMs (5 W each), 26 W for the
//! motherboard, 30 W for the FPGA, 72 W for six flash drives (12 W each),
//! and 42 W for the fans. Immersion removes the fans, and the paper's
//! savings estimate stacks three effects: 2 × 11 W of static power,
//! 42 W of fans, and 118 W of facility (PUE) overhead — about 182 W per
//! server.

use crate::leakage::LeakageModel;
use crate::units::{Frequency, Voltage};
use ic_thermal::technology::CoolingTechnology;

/// One power-drawing server component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component label, e.g. `"cpu"`, `"memory"`, `"fans"`.
    pub name: String,
    /// Maximum power draw in watts.
    pub power_w: f64,
}

/// A server's component-level power budget.
///
/// # Example
///
/// ```
/// use ic_power::server::ServerPower;
///
/// let air = ServerPower::open_compute_air();
/// assert_eq!(air.total_w(), 700.0);
/// let immersed = air.immersed();
/// assert_eq!(immersed.total_w(), 658.0); // fans removed
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPower {
    components: Vec<Component>,
}

impl ServerPower {
    /// The Open Compute two-socket blade as configured for air cooling
    /// (Section III): 700 W total.
    pub fn open_compute_air() -> Self {
        ServerPower {
            components: vec![
                Component {
                    name: "cpu".into(),
                    power_w: 410.0,
                },
                Component {
                    name: "memory".into(),
                    power_w: 120.0,
                },
                Component {
                    name: "motherboard".into(),
                    power_w: 26.0,
                },
                Component {
                    name: "fpga".into(),
                    power_w: 30.0,
                },
                Component {
                    name: "storage".into(),
                    power_w: 72.0,
                },
                Component {
                    name: "fans".into(),
                    power_w: 42.0,
                },
            ],
        }
    }

    /// Builds a custom breakdown.
    ///
    /// # Panics
    ///
    /// Panics if any component has negative or non-finite power.
    pub fn from_components(components: Vec<Component>) -> Self {
        assert!(
            components
                .iter()
                .all(|c| c.power_w.is_finite() && c.power_w >= 0.0),
            "component power must be finite and non-negative"
        );
        ServerPower { components }
    }

    /// The same server prepared for immersion: fans removed or disabled.
    pub fn immersed(&self) -> ServerPower {
        ServerPower {
            components: self
                .components
                .iter()
                .filter(|c| c.name != "fans")
                .cloned()
                .collect(),
        }
    }

    /// The same server with each socket allowed `extra_w_per_socket` of
    /// overclocking headroom. The paper assumes up to +100 W per socket
    /// (205 W → 305 W), i.e. +200 W for the dual-socket blade.
    ///
    /// # Panics
    ///
    /// Panics if `extra_w_per_socket` is negative or non-finite.
    pub fn overclocked(&self, extra_w_per_socket: f64, sockets: u32) -> ServerPower {
        assert!(
            extra_w_per_socket.is_finite() && extra_w_per_socket >= 0.0,
            "invalid overclock headroom"
        );
        let mut components = self.components.clone();
        for c in &mut components {
            if c.name == "cpu" {
                c.power_w += extra_w_per_socket * sockets as f64;
            }
        }
        ServerPower { components }
    }

    /// Total server power in watts.
    pub fn total_w(&self) -> f64 {
        self.components.iter().map(|c| c.power_w).sum()
    }

    /// The power of a named component, or `None` if absent.
    pub fn component_w(&self, name: &str) -> Option<f64> {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.power_w)
    }

    /// All components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }
}

/// DIMM power scaling with memory frequency: roughly linear in clock over
/// the 2.4–3.0 GHz range Table VII explores.
///
/// # Example
///
/// ```
/// use ic_power::server::MemoryPower;
/// use ic_power::units::Frequency;
///
/// let m = MemoryPower::ddr4_dimm();
/// // 5 W at DDR4-2400; 25 % more at 3.0 GHz.
/// assert_eq!(m.dimm_w(Frequency::from_ghz(2.4)), 5.0);
/// assert!((m.dimm_w(Frequency::from_ghz(3.0)) - 6.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPower {
    base_w: f64,
    base_f: Frequency,
}

impl MemoryPower {
    /// The large-tank server's DDR4 DIMM: 5 W at 2.4 GHz.
    pub fn ddr4_dimm() -> Self {
        MemoryPower {
            base_w: 5.0,
            base_f: Frequency::from_ghz(2.4),
        }
    }

    /// Per-DIMM power at memory frequency `f` (linear in clock).
    pub fn dimm_w(&self, f: Frequency) -> f64 {
        self.base_w * f.ratio_to(self.base_f)
    }

    /// Power for a bank of `dimms` DIMMs at frequency `f`.
    pub fn bank_w(&self, dimms: u32, f: Frequency) -> f64 {
        self.dimm_w(f) * dimms as f64
    }
}

/// The Section IV per-server power-savings decomposition for moving a
/// server from an air-cooled datacenter into 2PIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImmersionSavings {
    /// Static-power saving from cooler junctions, both sockets, watts.
    pub static_w: f64,
    /// Fan power eliminated, watts.
    pub fans_w: f64,
    /// Facility-overhead saving from the PUE reduction, watts.
    pub pue_w: f64,
}

impl ImmersionSavings {
    /// Computes the paper's decomposition: per-socket leakage saving at
    /// the measured junction temperatures, the server's fan power, and
    /// the peak-PUE facility saving.
    #[allow(clippy::too_many_arguments)] // mirrors the physical parameter set
    pub fn compute(
        server: &ServerPower,
        sockets: u32,
        leakage: &LeakageModel,
        air_tj_c: f64,
        tank_tj_c: f64,
        v: Voltage,
        from: &CoolingTechnology,
        to: &CoolingTechnology,
    ) -> Self {
        let static_w = leakage.saving_w(air_tj_c, tank_tj_c, v) * sockets as f64;
        let fans_w = server.component_w("fans").unwrap_or(0.0);
        let pue_w = from.peak_power_saving_w(to, server.total_w());
        ImmersionSavings {
            static_w,
            fans_w,
            pue_w,
        }
    }

    /// Total saving in watts.
    pub fn total_w(&self) -> f64 {
        self.static_w + self.fans_w + self.pue_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_thermal::fluid::DielectricFluid;

    #[test]
    fn open_compute_breakdown_sums_to_700() {
        let s = ServerPower::open_compute_air();
        assert_eq!(s.total_w(), 700.0);
        assert_eq!(s.component_w("cpu"), Some(410.0));
        assert_eq!(s.component_w("memory"), Some(120.0));
        assert_eq!(s.component_w("fans"), Some(42.0));
        assert_eq!(s.component_w("gpu"), None);
    }

    #[test]
    fn immersion_removes_fans() {
        let s = ServerPower::open_compute_air().immersed();
        assert_eq!(s.total_w(), 658.0);
        assert_eq!(s.component_w("fans"), None);
    }

    #[test]
    fn overclocking_adds_per_socket_headroom() {
        let s = ServerPower::open_compute_air()
            .immersed()
            .overclocked(100.0, 2);
        assert_eq!(s.component_w("cpu"), Some(610.0));
        assert_eq!(s.total_w(), 858.0);
    }

    #[test]
    fn memory_power_scales_linearly() {
        let m = MemoryPower::ddr4_dimm();
        assert_eq!(m.bank_w(24, Frequency::from_ghz(2.4)), 120.0);
        assert!((m.bank_w(24, Frequency::from_ghz(3.0)) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn paper_182w_savings_decomposition() {
        // 2 × 11 W static + 42 W fans + 118 W PUE ≈ 182 W (Section IV).
        let server = ServerPower::open_compute_air();
        let savings = ImmersionSavings::compute(
            &server,
            2,
            &LeakageModel::skylake(),
            92.0,
            68.0,
            Voltage::from_volts(0.90),
            &CoolingTechnology::direct_evaporative(),
            &CoolingTechnology::immersion_2p(DielectricFluid::fc3284()),
        );
        assert!((savings.static_w - 22.0).abs() < 0.5, "{:?}", savings);
        assert_eq!(savings.fans_w, 42.0);
        assert!((savings.pue_w - 118.0).abs() < 2.0, "{:?}", savings);
        assert!((savings.total_w() - 182.0).abs() < 3.0, "{:?}", savings);
    }

    #[test]
    fn savings_offset_a_substantial_portion_of_overclock_power() {
        // The paper: savings "can alleviate a substantial portion" of the
        // +200 W overclocking increase.
        let server = ServerPower::open_compute_air();
        let savings = ImmersionSavings::compute(
            &server,
            2,
            &LeakageModel::skylake(),
            92.0,
            68.0,
            Voltage::from_volts(0.90),
            &CoolingTechnology::direct_evaporative(),
            &CoolingTechnology::immersion_2p(DielectricFluid::fc3284()),
        );
        let fraction = savings.total_w() / 200.0;
        assert!(fraction > 0.8, "offsets {fraction:.0}% of the OC power");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_component_power_panics() {
        let _ = ServerPower::from_components(vec![Component {
            name: "x".into(),
            power_w: -1.0,
        }]);
    }
}
