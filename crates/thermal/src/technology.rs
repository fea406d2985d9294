//! The datacenter cooling-technology catalog (paper Table I).
//!
//! Each technology is characterized by the quantities the paper's TCO and
//! power analyses consume: average and peak PUE, the fraction of server
//! power spent on fans, and the maximum per-server heat removal.

use crate::fluid::DielectricFluid;
use std::fmt;

/// A datacenter cooling technology with its published efficiency envelope.
///
/// # Example
///
/// ```
/// use ic_thermal::technology::CoolingTechnology;
///
/// let evap = CoolingTechnology::direct_evaporative();
/// let tpic = CoolingTechnology::immersion_2p(ic_thermal::DielectricFluid::fc3284());
/// // Switching from evaporative peak PUE 1.20 to 2PIC's 1.03 reclaims 14 %
/// // of total datacenter power (Section IV, "Power consumption").
/// let saved = evap.peak_pue_reduction_to(&tpic);
/// assert!((saved - 0.1417).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoolingTechnology {
    kind: CoolingKind,
    avg_pue: f64,
    peak_pue: f64,
    fan_overhead: f64,
    max_server_cooling_w: f64,
}

/// The family a [`CoolingTechnology`] belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum CoolingKind {
    /// Chiller-based closed-loop air cooling.
    Chiller,
    /// Water-side economized air cooling.
    WaterSide,
    /// Direct evaporative ("free") air cooling — the paper's air baseline.
    DirectEvaporative,
    /// Cold plates on the most power-hungry components.
    CpuColdPlate,
    /// Single-phase immersion cooling.
    Immersion1P(DielectricFluid),
    /// Two-phase immersion cooling — the paper's focus.
    Immersion2P(DielectricFluid),
}

impl CoolingTechnology {
    /// Chiller-based cooling: PUE 1.70 avg / 2.00 peak, 5 % fans, 700 W max.
    pub fn chiller() -> Self {
        CoolingTechnology {
            kind: CoolingKind::Chiller,
            avg_pue: 1.70,
            peak_pue: 2.00,
            fan_overhead: 0.05,
            max_server_cooling_w: 700.0,
        }
    }

    /// Water-side economized: PUE 1.19 avg / 1.25 peak, 6 % fans, 700 W max.
    pub fn water_side() -> Self {
        CoolingTechnology {
            kind: CoolingKind::WaterSide,
            avg_pue: 1.19,
            peak_pue: 1.25,
            fan_overhead: 0.06,
            max_server_cooling_w: 700.0,
        }
    }

    /// Direct evaporative: PUE 1.12 avg / 1.20 peak, 6 % fans, 700 W max.
    /// This is the air-cooled hyperscale baseline of the paper's TCO
    /// analysis.
    pub fn direct_evaporative() -> Self {
        CoolingTechnology {
            kind: CoolingKind::DirectEvaporative,
            avg_pue: 1.12,
            peak_pue: 1.20,
            fan_overhead: 0.06,
            max_server_cooling_w: 700.0,
        }
    }

    /// CPU cold plates: PUE 1.08 avg / 1.13 peak, 3 % fans, 2 kW max.
    pub fn cpu_cold_plate() -> Self {
        CoolingTechnology {
            kind: CoolingKind::CpuColdPlate,
            avg_pue: 1.08,
            peak_pue: 1.13,
            fan_overhead: 0.03,
            max_server_cooling_w: 2000.0,
        }
    }

    /// Single-phase immersion: PUE 1.05 avg / 1.07 peak, no fans, 2 kW max.
    pub fn immersion_1p(fluid: DielectricFluid) -> Self {
        CoolingTechnology {
            kind: CoolingKind::Immersion1P(fluid),
            avg_pue: 1.05,
            peak_pue: 1.07,
            fan_overhead: 0.0,
            max_server_cooling_w: 2000.0,
        }
    }

    /// Two-phase immersion: PUE 1.02 avg / 1.03 peak, no fans, >4 kW max.
    pub fn immersion_2p(fluid: DielectricFluid) -> Self {
        CoolingTechnology {
            kind: CoolingKind::Immersion2P(fluid),
            avg_pue: 1.02,
            peak_pue: 1.03,
            fan_overhead: 0.0,
            max_server_cooling_w: 4000.0,
        }
    }

    /// All six Table I technologies, in the table's row order, with 2PIC
    /// fluids defaulted to FC-3284.
    pub fn catalog() -> Vec<CoolingTechnology> {
        vec![
            Self::chiller(),
            Self::water_side(),
            Self::direct_evaporative(),
            Self::cpu_cold_plate(),
            Self::immersion_1p(DielectricFluid::fc3284()),
            Self::immersion_2p(DielectricFluid::fc3284()),
        ]
    }

    /// The technology family.
    pub fn kind(&self) -> &CoolingKind {
        &self.kind
    }

    /// A short human-readable name matching Table I's row labels.
    pub fn name(&self) -> &'static str {
        match self.kind {
            CoolingKind::Chiller => "Chillers",
            CoolingKind::WaterSide => "Water-side",
            CoolingKind::DirectEvaporative => "Direct evaporative",
            CoolingKind::CpuColdPlate => "CPU cold plates",
            CoolingKind::Immersion1P(_) => "1PIC",
            CoolingKind::Immersion2P(_) => "2PIC",
        }
    }

    /// Average PUE (total datacenter power / IT power).
    pub fn avg_pue(&self) -> f64 {
        self.avg_pue
    }

    /// Peak PUE, reached under worst-case environmental conditions; the
    /// quantity that sizes the power delivery infrastructure.
    pub fn peak_pue(&self) -> f64 {
        self.peak_pue
    }

    /// The fraction of server power consumed by fans under this technology.
    pub fn fan_overhead(&self) -> f64 {
        self.fan_overhead
    }

    /// Maximum per-server heat removal in watts.
    pub fn max_server_cooling_w(&self) -> f64 {
        self.max_server_cooling_w
    }

    /// `true` for 1PIC/2PIC, whose tanks remove heat without server fans.
    pub fn is_immersion(&self) -> bool {
        matches!(
            self.kind,
            CoolingKind::Immersion1P(_) | CoolingKind::Immersion2P(_)
        )
    }

    /// The immersion fluid, if this is an immersion technology.
    pub fn fluid(&self) -> Option<&DielectricFluid> {
        match &self.kind {
            CoolingKind::Immersion1P(f) | CoolingKind::Immersion2P(f) => Some(f),
            _ => None,
        }
    }

    /// Whether a server dissipating `power_w` can be cooled at all.
    pub fn can_cool(&self, power_w: f64) -> bool {
        power_w <= self.max_server_cooling_w
    }

    /// Total facility power for a given IT load at average PUE.
    ///
    /// # Panics
    ///
    /// Panics if `it_power_w` is negative or non-finite.
    pub fn facility_power_w(&self, it_power_w: f64) -> f64 {
        assert!(
            it_power_w.is_finite() && it_power_w >= 0.0,
            "invalid IT power {it_power_w}"
        );
        it_power_w * self.avg_pue
    }

    /// The fractional reduction in *total* datacenter power achieved by
    /// switching from `self` to `to`, at peak PUE. The paper computes
    /// 1 − 1.03/1.20 ≈ 14 % for evaporative → 2PIC, worth 118 W for a
    /// 700 W server (Section IV, "Power consumption").
    pub fn peak_pue_reduction_to(&self, to: &CoolingTechnology) -> f64 {
        1.0 - to.peak_pue / self.peak_pue
    }

    /// The per-server total-power saving, in watts, from switching
    /// technologies at peak PUE: `server_w × peak_pue × reduction`.
    pub fn peak_power_saving_w(&self, to: &CoolingTechnology, server_w: f64) -> f64 {
        server_w * self.peak_pue * self.peak_pue_reduction_to(to)
    }
}

impl fmt::Display for CoolingTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (PUE {:.2}/{:.2}, fans {:.0}%, max {:.0} W)",
            self.name(),
            self.avg_pue,
            self.peak_pue,
            self.fan_overhead * 100.0,
            self.max_server_cooling_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let rows = CoolingTechnology::catalog();
        let expect = [
            ("Chillers", 1.70, 2.00, 0.05, 700.0),
            ("Water-side", 1.19, 1.25, 0.06, 700.0),
            ("Direct evaporative", 1.12, 1.20, 0.06, 700.0),
            ("CPU cold plates", 1.08, 1.13, 0.03, 2000.0),
            ("1PIC", 1.05, 1.07, 0.0, 2000.0),
            ("2PIC", 1.02, 1.03, 0.0, 4000.0),
        ];
        for (row, (name, avg, peak, fan, max)) in rows.iter().zip(expect) {
            assert_eq!(row.name(), name);
            assert_eq!(row.avg_pue(), avg);
            assert_eq!(row.peak_pue(), peak);
            assert_eq!(row.fan_overhead(), fan);
            assert_eq!(row.max_server_cooling_w(), max);
        }
    }

    #[test]
    fn pue_ordering_improves_down_the_table() {
        let rows = CoolingTechnology::catalog();
        for pair in rows.windows(2) {
            assert!(pair[1].avg_pue() <= pair[0].avg_pue());
            assert!(pair[1].peak_pue() <= pair[0].peak_pue());
        }
    }

    #[test]
    fn paper_118w_pue_saving() {
        let evap = CoolingTechnology::direct_evaporative();
        let tpic = CoolingTechnology::immersion_2p(DielectricFluid::fc3284());
        // 700 × 1.20 × 14 % ≈ 118 W (Section IV).
        let saving = evap.peak_power_saving_w(&tpic, 700.0);
        assert!((saving - 118.0).abs() < 2.0, "saving = {saving}");
    }

    #[test]
    fn immersion_has_no_fans_and_knows_its_fluid() {
        let t = CoolingTechnology::immersion_2p(DielectricFluid::hfe7000());
        assert!(t.is_immersion());
        assert_eq!(t.fan_overhead(), 0.0);
        assert_eq!(t.fluid().unwrap().name(), "3M HFE-7000");
        assert!(CoolingTechnology::chiller().fluid().is_none());
    }

    #[test]
    fn cooling_capacity_gates() {
        let air = CoolingTechnology::direct_evaporative();
        let tpic = CoolingTechnology::immersion_2p(DielectricFluid::fc3284());
        // A 900 W overclocked server exceeds the air envelope but not 2PIC.
        assert!(!air.can_cool(900.0));
        assert!(tpic.can_cool(900.0));
    }

    #[test]
    fn facility_power_applies_avg_pue() {
        let t = CoolingTechnology::water_side();
        assert!((t.facility_power_w(1000.0) - 1190.0).abs() < 1e-9);
    }

    #[test]
    fn display_has_key_numbers() {
        let s = CoolingTechnology::chiller().to_string();
        assert!(s.contains("1.70") && s.contains("2.00"));
    }
}
