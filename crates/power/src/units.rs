//! Frequency and voltage newtypes.
//!
//! Processor frequencies move in discrete 100 MHz *bins* (the paper's
//! Table III reports "one frequency bin (3 %, 100 MHz)" gained in 2PIC),
//! so [`Frequency`] is stored in integer megahertz and provides bin
//! arithmetic. [`Voltage`] is stored in integer millivolts, matching the
//! Table VII/VIII "voltage offset (mV)" knobs.

use std::fmt;

/// The size of one processor frequency bin: 100 MHz.
pub const BIN_MHZ: u32 = 100;

/// A processor clock frequency, stored in MHz.
///
/// # Example
///
/// ```
/// use ic_power::units::Frequency;
///
/// let base = Frequency::from_ghz(3.4);
/// let oc = base.step_bins(7); // + 700 MHz
/// assert_eq!(oc, Frequency::from_ghz(4.1));
/// assert!((oc.ratio_to(base) - 1.206).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u32);

impl Frequency {
    /// Zero hertz — the "off" sentinel.
    pub const ZERO: Frequency = Frequency(0);

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u32) -> Self {
        Frequency(mhz)
    }

    /// Creates a frequency from gigahertz, rounded to the nearest MHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is negative, non-finite, or absurdly large
    /// (> 100 GHz).
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(
            ghz.is_finite() && (0.0..=100.0).contains(&ghz),
            "implausible frequency {ghz} GHz"
        );
        Frequency((ghz * 1000.0).round() as u32)
    }

    /// The frequency in megahertz.
    pub const fn mhz(self) -> u32 {
        self.0
    }

    /// The frequency in gigahertz.
    pub fn ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Steps up (positive) or down (negative) by whole 100 MHz bins,
    /// saturating at zero.
    pub fn step_bins(self, bins: i32) -> Frequency {
        let delta = bins * BIN_MHZ as i32;
        Frequency((self.0 as i64 + delta as i64).max(0) as u32)
    }

    /// The number of whole bins between `self` and `lower` (negative if
    /// `self` is slower).
    pub fn bins_above(self, lower: Frequency) -> i32 {
        (self.0 as i64 - lower.0 as i64) as i32 / BIN_MHZ as i32
    }

    /// `self / other` as a ratio of clock rates.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio_to(self, other: Frequency) -> f64 {
        assert!(other.0 > 0, "cannot take ratio to zero frequency");
        self.0 as f64 / other.0 as f64
    }

    /// Clamps this frequency into `[lo, hi]`.
    pub fn clamp(self, lo: Frequency, hi: Frequency) -> Frequency {
        Frequency(self.0.clamp(lo.0, hi.0))
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GHz", self.ghz())
    }
}

/// A supply voltage, stored in millivolts.
///
/// # Example
///
/// ```
/// use ic_power::units::Voltage;
///
/// let nominal = Voltage::from_volts(0.90);
/// let oc = nominal.with_offset_mv(80);
/// assert_eq!(oc, Voltage::from_volts(0.98));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Voltage(u32);

impl Voltage {
    /// Creates a voltage from millivolts.
    pub const fn from_mv(mv: u32) -> Self {
        Voltage(mv)
    }

    /// Creates a voltage from volts, rounded to the nearest millivolt.
    ///
    /// # Panics
    ///
    /// Panics if `volts` is negative, non-finite, or above 5 V (no
    /// processor rail is that high).
    pub fn from_volts(volts: f64) -> Self {
        assert!(
            volts.is_finite() && (0.0..=5.0).contains(&volts),
            "implausible voltage {volts} V"
        );
        Voltage((volts * 1000.0).round() as u32)
    }

    /// The voltage in millivolts.
    pub const fn mv(self) -> u32 {
        self.0
    }

    /// The voltage in volts.
    pub fn volts(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Applies a signed offset in millivolts (the Table VII/VIII knob),
    /// saturating at zero.
    pub fn with_offset_mv(self, offset: i32) -> Voltage {
        Voltage((self.0 as i64 + offset as i64).max(0) as u32)
    }

    /// `self² / other²` — the dynamic-power scaling factor between two
    /// voltage operating points.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn squared_ratio_to(self, other: Voltage) -> f64 {
        assert!(other.0 > 0, "cannot take ratio to zero voltage");
        let r = self.0 as f64 / other.0 as f64;
        r * r
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.volts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_round_trips() {
        assert_eq!(Frequency::from_ghz(2.6).mhz(), 2600);
        assert_eq!(Frequency::from_mhz(3400).ghz(), 3.4);
    }

    #[test]
    fn bin_stepping() {
        let f = Frequency::from_ghz(3.1);
        assert_eq!(f.step_bins(1), Frequency::from_ghz(3.2));
        assert_eq!(f.step_bins(-2), Frequency::from_ghz(2.9));
        assert_eq!(Frequency::from_mhz(50).step_bins(-1), Frequency::ZERO);
    }

    #[test]
    fn bins_above_counts_whole_bins() {
        let hi = Frequency::from_ghz(4.1);
        let lo = Frequency::from_ghz(3.4);
        assert_eq!(hi.bins_above(lo), 7);
        assert_eq!(lo.bins_above(hi), -7);
    }

    #[test]
    fn ratio_between_frequencies() {
        let turbo = Frequency::from_ghz(2.6);
        let oc = Frequency::from_ghz(3.2);
        assert!((oc.ratio_to(turbo) - 1.2308).abs() < 1e-3);
    }

    #[test]
    fn clamp_bounds() {
        let lo = Frequency::from_ghz(3.4);
        let hi = Frequency::from_ghz(4.1);
        assert_eq!(Frequency::from_ghz(5.0).clamp(lo, hi), hi);
        assert_eq!(Frequency::from_ghz(1.0).clamp(lo, hi), lo);
        assert_eq!(
            Frequency::from_ghz(3.7).clamp(lo, hi),
            Frequency::from_ghz(3.7)
        );
    }

    #[test]
    fn voltage_offsets() {
        let v = Voltage::from_volts(0.90);
        assert_eq!(v.with_offset_mv(50).mv(), 950);
        assert_eq!(v.with_offset_mv(-1000).mv(), 0);
    }

    #[test]
    fn squared_ratio() {
        let v0 = Voltage::from_volts(0.90);
        let v1 = Voltage::from_volts(0.98);
        assert!((v1.squared_ratio_to(v0) - 1.1857).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "implausible frequency")]
    fn negative_frequency_panics() {
        let _ = Frequency::from_ghz(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Frequency::from_ghz(3.4).to_string(), "3.4 GHz");
        assert_eq!(Voltage::from_volts(0.98).to_string(), "0.980 V");
    }
}
