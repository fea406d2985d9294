//! Operating-domain model (paper Figures 4 and 5).
//!
//! A processor's frequency range splits into bands: the **guaranteed**
//! domain between minimum and base frequency, the opportunistic
//! **turbo** domain up to all-core turbo, the **overclocking** domain
//! beyond turbo, and the **non-operating** region past the physical
//! ceiling. Under 2PIC the overclocking domain further splits into a
//! *green* band (up to +23 % — no lifetime loss versus the air-cooled
//! baseline when immersed in HFE-7000, Table V) and a *red* band
//! (lifetime-consuming, to be spent against wear credit).

use ic_power::units::Frequency;

/// The frequency band boundaries of one (processor, cooling) pair.
///
/// # Example
///
/// ```
/// use ic_core::domains::OperatingDomains;
/// use ic_power::units::Frequency;
///
/// let d = OperatingDomains::skylake_2pic_hfe();
/// // 4.0 GHz is past turbo but inside the green band.
/// let f = Frequency::from_ghz(4.0);
/// assert!(d.turbo() < f && f <= d.green_top());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingDomains {
    minimum: Frequency,
    base: Frequency,
    turbo: Frequency,
    green_top: Frequency,
    ceiling: Frequency,
}

impl OperatingDomains {
    /// Builds a domain map.
    ///
    /// # Panics
    ///
    /// Panics unless `minimum <= base <= turbo <= green_top <= ceiling`.
    pub fn new(
        minimum: Frequency,
        base: Frequency,
        turbo: Frequency,
        green_top: Frequency,
        ceiling: Frequency,
    ) -> Self {
        assert!(
            minimum <= base && base <= turbo && turbo <= green_top && green_top <= ceiling,
            "domain boundaries must be ordered"
        );
        OperatingDomains {
            minimum,
            base,
            turbo,
            green_top,
            ceiling,
        }
    }

    /// The air-cooled Xeon W-3175X: no overclocking domain at all —
    /// anything past turbo is thermally non-operating (Figure 5a).
    pub fn skylake_air() -> Self {
        let turbo = Frequency::from_ghz(3.4);
        OperatingDomains::new(
            Frequency::from_ghz(1.2),
            Frequency::from_ghz(3.1),
            turbo,
            turbo, // empty green band
            turbo, // and no red band: turbo is the ceiling
        )
    }

    /// The same part immersed in HFE-7000: a green band to +23 % over
    /// turbo (lifetime parity with air, Table V) and a red band up to
    /// the crash ceiling (+35 %).
    pub fn skylake_2pic_hfe() -> Self {
        let turbo = Frequency::from_ghz(3.4);
        OperatingDomains::new(
            Frequency::from_ghz(1.2),
            Frequency::from_ghz(3.1),
            turbo,
            Frequency::from_mhz((turbo.mhz() as f64 * 1.23).round() as u32),
            Frequency::from_mhz((turbo.mhz() as f64 * 1.35).round() as u32),
        )
    }

    /// The minimum operating frequency.
    pub fn minimum(&self) -> Frequency {
        self.minimum
    }

    /// The base (guaranteed) frequency.
    pub fn base(&self) -> Frequency {
        self.base
    }

    /// The all-core turbo frequency.
    pub fn turbo(&self) -> Frequency {
        self.turbo
    }

    /// The top of the lifetime-neutral green band.
    pub fn green_top(&self) -> Frequency {
        self.green_top
    }

    /// The physical ceiling (crash boundary).
    pub fn ceiling(&self) -> Frequency {
        self.ceiling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_has_no_overclock_domain() {
        let d = OperatingDomains::skylake_air();
        assert_eq!(d.ceiling(), d.turbo());
    }

    #[test]
    fn immersion_opens_green_and_red_bands() {
        let d = OperatingDomains::skylake_2pic_hfe();
        assert!(d.turbo() < d.green_top() && d.green_top() < d.ceiling());
        assert!((d.green_top().ratio_to(d.turbo()) - 1.23).abs() < 0.01);
        assert!((d.ceiling().ratio_to(d.turbo()) - 1.35).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn disordered_boundaries_panic() {
        let _ = OperatingDomains::new(
            Frequency::from_ghz(3.0),
            Frequency::from_ghz(2.0),
            Frequency::from_ghz(3.4),
            Frequency::from_ghz(4.0),
            Frequency::from_ghz(4.5),
        );
    }
}
