//! The voltage/frequency operating curve.
//!
//! The paper's experimental curve, measured on the overclockable Xeon
//! W-3175X in small tank #1, shows that raising socket power from 205 W
//! (0.90 V) to 305 W (0.98 V) buys 23 % more frequency than all-core
//! turbo (Section IV, "Lifetime"). We model V(f) as linear between
//! calibration anchors — accurate over the narrow 0.90–0.98 V span the
//! paper explores — and expose the Table VII-style voltage offset knob.

use crate::units::{Frequency, Voltage};
use ic_scenario::{PowerCalibration, VfAnchors};

/// A linear voltage/frequency curve anchored at the nominal operating
/// point.
///
/// # Example
///
/// ```
/// use ic_power::vf::VfCurve;
/// use ic_power::units::{Frequency, Voltage};
///
/// let curve = VfCurve::xeon_w3175x();
/// // All-core turbo runs at the nominal 0.90 V...
/// assert_eq!(curve.voltage_for(Frequency::from_ghz(3.4)), Voltage::from_volts(0.90));
/// // ...and the paper's +23 % overclock needs 0.98 V.
/// let oc = Frequency::from_ghz(3.4 * 1.23);
/// assert!((curve.voltage_for(oc).volts() - 0.98).abs() < 0.005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    anchor_f: Frequency,
    anchor_v: Voltage,
    /// Millivolts required per additional MHz above the anchor.
    slope_mv_per_mhz: f64,
    /// Voltage floor: below the anchor frequency the rail does not drop
    /// further than this.
    min_v: Voltage,
    offset_mv: i32,
}

impl VfCurve {
    /// Builds a curve through two measured operating points.
    ///
    /// # Panics
    ///
    /// Panics if the two points do not have strictly increasing frequency
    /// and non-decreasing voltage.
    pub fn from_points(low: (Frequency, Voltage), high: (Frequency, Voltage)) -> Self {
        assert!(
            high.0 > low.0,
            "anchor frequencies must increase: {} !> {}",
            high.0,
            low.0
        );
        assert!(high.1 >= low.1, "voltage must not decrease with frequency");
        let slope = (high.1.mv() - low.1.mv()) as f64 / (high.0.mhz() - low.0.mhz()) as f64;
        VfCurve {
            anchor_f: low.0,
            anchor_v: low.1,
            slope_mv_per_mhz: slope,
            min_v: low.1,
            offset_mv: 0,
        }
    }

    /// Builds the curve through a scenario's two V/f anchor points.
    pub fn from_anchors(anchors: &VfAnchors) -> Self {
        VfCurve::from_points(
            (
                Frequency::from_ghz(anchors.nominal_ghz),
                Voltage::from_volts(anchors.nominal_v),
            ),
            (
                Frequency::from_ghz(anchors.nominal_ghz * anchors.oc_frequency_ratio),
                Voltage::from_volts(anchors.oc_v),
            ),
        )
    }

    /// The scenario's curve re-anchored at another nominal frequency:
    /// the anchor voltages and overclock ratio carry over, as the paper
    /// does when extrapolating from the W-3175X to locked SKUs.
    pub fn from_anchors_at(anchors: &VfAnchors, all_core_turbo: Frequency) -> Self {
        let oc = Frequency::from_mhz(
            (all_core_turbo.mhz() as f64 * anchors.oc_frequency_ratio).round() as u32,
        );
        VfCurve::from_points(
            (all_core_turbo, Voltage::from_volts(anchors.nominal_v)),
            (oc, Voltage::from_volts(anchors.oc_v)),
        )
    }

    /// The paper's measured Xeon W-3175X curve: all-core turbo 3.4 GHz at
    /// 0.90 V, +23 % (≈ 4.18 GHz) at 0.98 V.
    pub fn xeon_w3175x() -> Self {
        Self::from_anchors(&PowerCalibration::paper().vf)
    }

    /// The equivalent curve for the locked server Skylakes (8168/8180),
    /// extrapolated from the W-3175X as the paper does: nominal all-core
    /// turbo at 0.90 V, +23 % at 0.98 V.
    pub fn skylake_server(all_core_turbo: Frequency) -> Self {
        Self::from_anchors_at(&PowerCalibration::paper().vf, all_core_turbo)
    }

    /// Returns a copy with an additional fixed voltage offset (the
    /// Table VII "voltage offset (mV)" knob used by configs OC1–OC3).
    pub fn with_offset_mv(mut self, offset: i32) -> Self {
        self.offset_mv = offset;
        self
    }

    /// The rail voltage required to run at `f`, including any offset.
    /// Below the anchor frequency the curve clamps to the anchor voltage
    /// (processor minimum operating voltage dominates).
    pub fn voltage_for(&self, f: Frequency) -> Voltage {
        let base = if f <= self.anchor_f {
            self.min_v
        } else {
            let extra = (f.mhz() - self.anchor_f.mhz()) as f64 * self.slope_mv_per_mhz;
            Voltage::from_mv(self.anchor_v.mv() + extra.round() as u32)
        };
        base.with_offset_mv(self.offset_mv)
    }

    /// The highest frequency whose required voltage stays at or below
    /// `v_max`.
    pub fn max_frequency_at(&self, v_max: Voltage) -> Frequency {
        let v_max = v_max.mv() as i64 - self.offset_mv as i64;
        if v_max < self.anchor_v.mv() as i64 {
            return Frequency::ZERO;
        }
        if self.slope_mv_per_mhz == 0.0 {
            return Frequency::from_mhz(u32::MAX);
        }
        let extra_mhz = (v_max - self.anchor_v.mv() as i64) as f64 / self.slope_mv_per_mhz;
        Frequency::from_mhz(self.anchor_f.mhz() + extra_mhz.floor() as u32)
    }

    /// The anchor (nominal) operating point.
    pub fn anchor(&self) -> (Frequency, Voltage) {
        (self.anchor_f, self.anchor_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w3175x_anchors_match_paper() {
        let c = VfCurve::xeon_w3175x();
        assert_eq!(c.voltage_for(Frequency::from_ghz(3.4)).volts(), 0.90);
        let oc = Frequency::from_mhz((3400.0 * 1.23f64).round() as u32);
        assert!((c.voltage_for(oc).volts() - 0.98).abs() < 0.005);
    }

    #[test]
    fn below_anchor_clamps_to_min_voltage() {
        let c = VfCurve::xeon_w3175x();
        assert_eq!(c.voltage_for(Frequency::from_ghz(2.0)).volts(), 0.90);
    }

    #[test]
    fn voltage_is_monotone_in_frequency() {
        let c = VfCurve::skylake_server(Frequency::from_ghz(2.6));
        let mut last = Voltage::from_mv(0);
        for mhz in (2000..4000).step_by(100) {
            let v = c.voltage_for(Frequency::from_mhz(mhz));
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn offset_shifts_whole_curve() {
        let c = VfCurve::xeon_w3175x().with_offset_mv(50);
        assert_eq!(c.voltage_for(Frequency::from_ghz(3.4)).mv(), 950);
    }

    #[test]
    fn max_frequency_inverts_voltage_for() {
        let c = VfCurve::skylake_server(Frequency::from_ghz(2.7));
        let f = c.max_frequency_at(Voltage::from_volts(0.98));
        // 0.98 V buys ≈ +23 % over 2.7 GHz.
        assert!((f.ghz() - 2.7 * 1.23).abs() < 0.05, "f = {f}");
        // And the voltage at that frequency doesn't exceed the cap.
        assert!(c.voltage_for(f) <= Voltage::from_volts(0.98));
        // Below the floor nothing runs.
        assert_eq!(
            c.max_frequency_at(Voltage::from_volts(0.5)),
            Frequency::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "anchor frequencies must increase")]
    fn degenerate_anchors_panic() {
        let p = (Frequency::from_ghz(3.4), Voltage::from_volts(0.9));
        let _ = VfCurve::from_points(p, p);
    }
}
