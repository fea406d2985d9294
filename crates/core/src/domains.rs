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

/// Where a frequency falls in the operating range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Below the minimum operating frequency.
    BelowMinimum,
    /// Guaranteed: between minimum and base frequency.
    Guaranteed,
    /// Opportunistic turbo: between base and all-core turbo.
    Turbo,
    /// Green overclocking: above turbo with no lifetime penalty
    /// (immersion only).
    OverclockGreen,
    /// Red overclocking: above the green band; spends lifetime credit.
    OverclockRed,
    /// Beyond the physical ceiling: the part will not operate.
    NonOperating,
}

impl Domain {
    /// `true` for either overclocking band.
    pub fn is_overclocked(self) -> bool {
        matches!(self, Domain::OverclockGreen | Domain::OverclockRed)
    }

    /// `true` if running here consumes lifetime faster than the
    /// air-cooled nominal baseline.
    pub fn consumes_lifetime(self) -> bool {
        matches!(self, Domain::OverclockRed)
    }
}

/// The frequency band boundaries of one (processor, cooling) pair.
///
/// # Example
///
/// ```
/// use ic_core::domains::{Domain, OperatingDomains};
/// use ic_power::units::Frequency;
///
/// let d = OperatingDomains::skylake_2pic_hfe();
/// assert_eq!(d.classify(Frequency::from_ghz(3.0)), Domain::Guaranteed);
/// assert_eq!(d.classify(Frequency::from_ghz(4.0)), Domain::OverclockGreen);
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

    /// Classifies a frequency.
    pub fn classify(&self, f: Frequency) -> Domain {
        if f < self.minimum {
            Domain::BelowMinimum
        } else if f <= self.base {
            Domain::Guaranteed
        } else if f <= self.turbo {
            Domain::Turbo
        } else if f <= self.green_top {
            Domain::OverclockGreen
        } else if f <= self.ceiling {
            Domain::OverclockRed
        } else {
            Domain::NonOperating
        }
    }

    /// `true` if this map has any overclocking headroom (immersion).
    pub fn has_overclock_domain(&self) -> bool {
        self.ceiling > self.turbo
    }

    /// The green-band headroom as a ratio over turbo (e.g. 1.23).
    pub fn green_headroom_ratio(&self) -> f64 {
        self.green_top.ratio_to(self.turbo)
    }

    /// The discrete 100 MHz frequency steps from `from` up to `to`
    /// (inclusive), clamped to the operating range — the "8 frequency
    /// bins" the auto-scaler steps through between B2 and OC1.
    pub fn bins_between(&self, from: Frequency, to: Frequency) -> Vec<Frequency> {
        let from = from.clamp(self.minimum, self.ceiling);
        let to = to.clamp(self.minimum, self.ceiling);
        let mut out = Vec::new();
        let mut f = from;
        while f <= to {
            out.push(f);
            if f == to {
                break;
            }
            f = f.step_bins(1).clamp(from, to);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_has_no_overclock_domain() {
        let d = OperatingDomains::skylake_air();
        assert!(!d.has_overclock_domain());
        assert_eq!(d.classify(Frequency::from_ghz(3.5)), Domain::NonOperating);
    }

    #[test]
    fn immersion_opens_green_and_red_bands() {
        let d = OperatingDomains::skylake_2pic_hfe();
        assert!(d.has_overclock_domain());
        assert_eq!(d.classify(Frequency::from_ghz(3.9)), Domain::OverclockGreen);
        assert_eq!(d.classify(Frequency::from_ghz(4.4)), Domain::OverclockRed);
        assert_eq!(d.classify(Frequency::from_ghz(4.7)), Domain::NonOperating);
        assert!((d.green_headroom_ratio() - 1.23).abs() < 0.01);
    }

    #[test]
    fn classification_covers_low_bands() {
        let d = OperatingDomains::skylake_2pic_hfe();
        assert_eq!(d.classify(Frequency::from_ghz(1.0)), Domain::BelowMinimum);
        assert_eq!(d.classify(Frequency::from_ghz(2.0)), Domain::Guaranteed);
        assert_eq!(d.classify(Frequency::from_ghz(3.3)), Domain::Turbo);
    }

    #[test]
    fn domain_predicates() {
        assert!(Domain::OverclockGreen.is_overclocked());
        assert!(Domain::OverclockRed.is_overclocked());
        assert!(!Domain::Turbo.is_overclocked());
        assert!(Domain::OverclockRed.consumes_lifetime());
        assert!(!Domain::OverclockGreen.consumes_lifetime());
    }

    #[test]
    fn boundaries_are_inclusive_on_the_left_band() {
        let d = OperatingDomains::skylake_2pic_hfe();
        assert_eq!(d.classify(d.base()), Domain::Guaranteed);
        assert_eq!(d.classify(d.turbo()), Domain::Turbo);
        assert_eq!(d.classify(d.green_top()), Domain::OverclockGreen);
        assert_eq!(d.classify(d.ceiling()), Domain::OverclockRed);
    }

    #[test]
    fn bins_between_enumerates_the_autoscaler_range() {
        let d = OperatingDomains::skylake_2pic_hfe();
        let bins = d.bins_between(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1));
        assert_eq!(bins.len(), 8); // 3.4, 3.5, ..., 4.1
        assert_eq!(bins[0], Frequency::from_ghz(3.4));
        assert_eq!(*bins.last().unwrap(), Frequency::from_ghz(4.1));
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
