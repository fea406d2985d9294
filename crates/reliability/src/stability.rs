//! Computational stability under overclocking (Section IV, Takeaway 3).
//!
//! Excessive overclocking induces bit flips through aggressive circuit
//! timing and voltage droops. The paper's six-month characterization:
//! zero correctable errors in small tank #1, 56 CPU cache correctable
//! errors in small tank #2 under *very aggressive* overclocking, no
//! silent errors, and ungraceful crashes only when voltage/frequency was
//! pushed excessively. Frequencies up to 23 % above all-core turbo were
//! fully stable. [`StabilityModel`] encodes that envelope.

/// The stability envelope of an overclockable part.
///
/// Overclock ratios are relative to all-core turbo (1.0 = turbo,
/// 1.23 = the paper's validated stable ceiling).
///
/// # Example
///
/// ```
/// use ic_reliability::stability::StabilityModel;
///
/// let m = StabilityModel::paper_characterization();
/// assert_eq!(m.stable_ceiling_ratio(), 1.23);
/// assert!(m.crash_risk(1.40));
/// // At the stable ceiling, six months of correctable errors stay tiny.
/// assert!(m.correctable_error_rate_per_month(1.23) * 6.0 < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityModel {
    stable_ceiling_ratio: f64,
    crash_ceiling_ratio: f64,
    /// Correctable errors per month at the stable ceiling.
    errors_per_month_at_ceiling: f64,
    /// e-folding of error rate per 1 % of overclock beyond the ceiling.
    error_growth_per_pct: f64,
}

impl StabilityModel {
    /// The envelope measured on the paper's two small tanks: stable to
    /// +23 %; beyond roughly +35 % the server crashes ungracefully.
    /// The error-rate scale is set so that six months of "very
    /// aggressive" overclocking (~+30 %) yields on the order of the 56
    /// correctable errors logged in small tank #2.
    pub fn paper_characterization() -> Self {
        StabilityModel {
            stable_ceiling_ratio: 1.23,
            crash_ceiling_ratio: 1.35,
            errors_per_month_at_ceiling: 0.05,
            error_growth_per_pct: 0.75,
        }
    }

    /// Builds a custom envelope.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= stable_ceiling < crash_ceiling` and rates are
    /// non-negative.
    pub fn new(
        stable_ceiling_ratio: f64,
        crash_ceiling_ratio: f64,
        errors_per_month_at_ceiling: f64,
        error_growth_per_pct: f64,
    ) -> Self {
        assert!(
            (1.0..crash_ceiling_ratio).contains(&stable_ceiling_ratio),
            "require 1 <= stable ceiling < crash ceiling"
        );
        assert!(errors_per_month_at_ceiling >= 0.0 && error_growth_per_pct >= 0.0);
        StabilityModel {
            stable_ceiling_ratio,
            crash_ceiling_ratio,
            errors_per_month_at_ceiling,
            error_growth_per_pct,
        }
    }

    /// The validated stable overclock ceiling (1.23 in the paper).
    pub fn stable_ceiling_ratio(&self) -> f64 {
        self.stable_ceiling_ratio
    }

    /// `true` if the ratio risks an ungraceful crash.
    pub fn crash_risk(&self, oc_ratio: f64) -> bool {
        oc_ratio > self.crash_ceiling_ratio
    }

    /// Expected correctable-error rate, errors/month, at an overclock
    /// ratio. Within the stable envelope the rate is essentially the
    /// background particle-strike rate; beyond it the rate grows
    /// exponentially with the excess.
    ///
    /// # Panics
    ///
    /// Panics if `oc_ratio < 1.0`.
    pub fn correctable_error_rate_per_month(&self, oc_ratio: f64) -> f64 {
        assert!(oc_ratio >= 1.0, "overclock ratio below 1: {oc_ratio}");
        let excess_pct = ((oc_ratio - self.stable_ceiling_ratio) * 100.0).max(0.0);
        self.errors_per_month_at_ceiling * (self.error_growth_per_pct * excess_pct).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_envelope_23_pct_stable() {
        let m = StabilityModel::paper_characterization();
        assert_eq!(m.stable_ceiling_ratio(), 1.23);
        assert!(!m.crash_risk(1.30));
        assert!(m.crash_risk(1.40));
    }

    #[test]
    fn six_months_aggressive_oc_yields_tens_of_errors() {
        // Small tank #2 logged 56 correctable cache errors over 6 months
        // of very aggressive overclocking (~+30 %).
        let m = StabilityModel::paper_characterization();
        let errors = m.correctable_error_rate_per_month(1.30) * 6.0;
        assert!(
            (10.0..200.0).contains(&errors),
            "expected tens of errors, got {errors}"
        );
    }

    #[test]
    fn six_months_at_stable_ceiling_is_clean() {
        // Small tank #1 logged zero errors: within the envelope the
        // expected count stays below one.
        let m = StabilityModel::paper_characterization();
        assert!(m.correctable_error_rate_per_month(1.23) * 6.0 < 1.0);
    }

    #[test]
    fn error_rate_monotone_in_ratio() {
        let m = StabilityModel::paper_characterization();
        let mut last = 0.0;
        for r in [1.0, 1.1, 1.23, 1.28, 1.33] {
            let rate = m.correctable_error_rate_per_month(r);
            assert!(rate >= last);
            last = rate;
        }
    }
}
