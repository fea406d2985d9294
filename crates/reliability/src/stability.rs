//! Computational stability under overclocking (Section IV, Takeaway 3).
//!
//! Excessive overclocking induces bit flips through aggressive circuit
//! timing and voltage droops. The paper's six-month characterization:
//! zero correctable errors in small tank #1, 56 CPU cache correctable
//! errors in small tank #2 under *very aggressive* overclocking, no
//! silent errors, and ungraceful crashes only when voltage/frequency was
//! pushed excessively. Frequencies up to 23 % above all-core turbo were
//! fully stable. [`StabilityModel`] encodes that envelope;
//! [`StabilityMonitor`] implements the recommended mitigation of watching
//! the *rate of change* of correctable-error counters.

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
/// assert!(m.is_stable(1.23));
/// assert!(!m.is_stable(1.40));
/// // At the stable ceiling, expected correctable errors stay tiny.
/// assert!(m.expected_correctable_errors(1.23, 6.0) < 1.0);
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

    /// The ratio beyond which ungraceful crashes are expected.
    pub fn crash_ceiling_ratio(&self) -> f64 {
        self.crash_ceiling_ratio
    }

    /// `true` if the given overclock ratio is inside the validated
    /// stable envelope.
    pub fn is_stable(&self, oc_ratio: f64) -> bool {
        oc_ratio <= self.stable_ceiling_ratio
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

    /// Expected correctable errors over `months` at a fixed ratio.
    pub fn expected_correctable_errors(&self, oc_ratio: f64, months: f64) -> f64 {
        assert!(months >= 0.0, "negative duration");
        self.correctable_error_rate_per_month(oc_ratio) * months
    }

    /// The highest ratio whose expected error rate stays at or below
    /// `max_errors_per_month` — the "maximum overclocking frequency to
    /// avoid computational instability" the paper is defining with
    /// manufacturers.
    pub fn max_ratio_for_error_budget(&self, max_errors_per_month: f64) -> f64 {
        assert!(max_errors_per_month > 0.0, "need a positive budget");
        if max_errors_per_month >= self.errors_per_month_at_ceiling {
            let headroom = if self.error_growth_per_pct > 0.0 {
                (max_errors_per_month / self.errors_per_month_at_ceiling).ln()
                    / self.error_growth_per_pct
                    / 100.0
            } else {
                f64::INFINITY
            };
            (self.stable_ceiling_ratio + headroom).min(self.crash_ceiling_ratio)
        } else {
            self.stable_ceiling_ratio
        }
    }
}

/// Watches a correctable-error counter and raises an alarm when its rate
/// of change exceeds a threshold — the paper's proposed safety mechanism
/// for balancing overclocking against stability.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityMonitor {
    threshold_per_month: f64,
    last_count: u64,
    last_time_months: f64,
    alarms: u32,
}

impl StabilityMonitor {
    /// Creates a monitor that alarms when the observed error rate
    /// exceeds `threshold_per_month`.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive.
    pub fn new(threshold_per_month: f64) -> Self {
        assert!(threshold_per_month > 0.0, "invalid threshold");
        StabilityMonitor {
            threshold_per_month,
            last_count: 0,
            last_time_months: 0.0,
            alarms: 0,
        }
    }

    /// Feeds a cumulative error-counter sample at `time_months`. Returns
    /// `true` if the rate since the previous sample exceeds the
    /// threshold (and the caller should back off the overclock).
    ///
    /// # Panics
    ///
    /// Panics if the counter or clock went backwards.
    pub fn observe(&mut self, count: u64, time_months: f64) -> bool {
        assert!(count >= self.last_count, "error counter went backwards");
        assert!(time_months >= self.last_time_months, "clock went backwards");
        let dt = time_months - self.last_time_months;
        let de = (count - self.last_count) as f64;
        self.last_count = count;
        self.last_time_months = time_months;
        if dt <= 0.0 {
            return false;
        }
        let rate = de / dt;
        if rate > self.threshold_per_month {
            self.alarms += 1;
            true
        } else {
            false
        }
    }

    /// How many times the monitor has alarmed.
    pub fn alarms(&self) -> u32 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_envelope_23_pct_stable() {
        let m = StabilityModel::paper_characterization();
        assert!(m.is_stable(1.0));
        assert!(m.is_stable(1.23));
        assert!(!m.is_stable(1.24));
        assert!(!m.crash_risk(1.30));
        assert!(m.crash_risk(1.40));
    }

    #[test]
    fn six_months_aggressive_oc_yields_tens_of_errors() {
        // Small tank #2 logged 56 correctable cache errors over 6 months
        // of very aggressive overclocking (~+30 %).
        let m = StabilityModel::paper_characterization();
        let errors = m.expected_correctable_errors(1.30, 6.0);
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
        assert!(m.expected_correctable_errors(1.23, 6.0) < 1.0);
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

    #[test]
    fn max_ratio_for_budget_inverts_rate() {
        let m = StabilityModel::paper_characterization();
        let r = m.max_ratio_for_error_budget(1.0);
        assert!(r > 1.23 && r <= 1.35);
        let rate = m.correctable_error_rate_per_month(r);
        assert!(rate <= 1.0 + 1e-9);
        // A tiny budget pins the ratio to the stable ceiling.
        assert_eq!(m.max_ratio_for_error_budget(1e-6), 1.23);
    }

    #[test]
    fn monitor_alarms_on_rate_spike() {
        let mut mon = StabilityMonitor::new(10.0);
        assert!(!mon.observe(1, 1.0)); // 1 error/month
        assert!(mon.observe(31, 2.0)); // 30 errors/month
        assert!(!mon.observe(32, 3.0));
        assert_eq!(mon.alarms(), 1);
    }

    #[test]
    fn monitor_handles_same_timestamp() {
        let mut mon = StabilityMonitor::new(10.0);
        assert!(!mon.observe(5, 1.0));
        // Identical timestamp: no interval, so no rate and no alarm.
        assert!(!mon.observe(5, 1.0));
    }

    #[test]
    #[should_panic(expected = "error counter went backwards")]
    fn monitor_rejects_decreasing_counter() {
        let mut mon = StabilityMonitor::new(1.0);
        mon.observe(10, 1.0);
        mon.observe(5, 2.0);
    }
}
