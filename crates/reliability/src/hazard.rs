//! Hazard integration for event-driven failure sampling.
//!
//! The lifetime model ([`CompositeLifetimeModel`]) answers "what is the
//! instantaneous failure rate at these operating conditions?" — a
//! *hazard*, in 1/years. A discrete-event simulator needs the other
//! direction: *when* does this server fail, given that its conditions
//! (and therefore its hazard) change every time a governor retunes V/f
//! or a power cap bites?
//!
//! [`HazardIntegrator`] implements the standard inversion: draw a
//! threshold `T ~ Exp(1)` once (the caller owns the randomness — in the
//! simulator that is a per-server [`SimRng`] stream, which is what makes
//! the whole fault process pure in `(seed, server)`), then integrate the
//! piecewise-constant hazard over simulated time and fire when the
//! cumulative hazard crosses `T`. For a constant hazard this reduces to
//! an ordinary exponential time-to-failure; for a server whose governor
//! moves it between B2 and OC3 operating points it gives exactly the
//! non-homogeneous first-passage time, with no per-tick rejection
//! sampling and no rate upper bound required.
//!
//! The same machinery drives correctable-error bursts: the stability
//! model's error rate (errors/month) is a hazard too, just with a much
//! smaller threshold scale.
//!
//! [`SimRng`]: https://docs.rs/ic-sim
//! [`CompositeLifetimeModel`]: crate::lifetime::CompositeLifetimeModel

use crate::lifetime::{CompositeLifetimeModel, OperatingConditions};

/// Seconds per (Julian) year, the conversion used throughout the
/// reproduction when annualized rates meet simulated seconds.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Seconds per month (1/12 year), for the stability model's
/// errors-per-month rates.
pub const SECONDS_PER_MONTH: f64 = SECONDS_PER_YEAR / 12.0;

/// Converts an annualized rate (1/years) to a per-second rate.
pub fn per_year_to_per_second(rate_per_year: f64) -> f64 {
    rate_per_year / SECONDS_PER_YEAR
}

/// Converts a monthly rate (1/months) to a per-second rate.
pub fn per_month_to_per_second(rate_per_month: f64) -> f64 {
    rate_per_month / SECONDS_PER_MONTH
}

/// The composite model's failure rate at `cond`, per second of
/// worst-case-utilization operation.
pub fn failure_rate_per_second(model: &CompositeLifetimeModel, cond: &OperatingConditions) -> f64 {
    per_year_to_per_second(model.failure_rate_per_year(cond))
}

/// Integrates a piecewise-constant hazard toward an `Exp(1)` threshold.
///
/// # Example
///
/// ```
/// use ic_reliability::hazard::HazardIntegrator;
///
/// // Threshold 1.0 is the *mean* of Exp(1): with a constant hazard of
/// // 0.01/s the first event lands exactly at t = 100 s.
/// let mut h = HazardIntegrator::new(1.0);
/// assert!(!h.accrue(0.01, 99.0));
/// assert!(h.accrue(0.01, 1.0));
/// assert!(h.crossed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardIntegrator {
    cumulative: f64,
    threshold: f64,
}

impl HazardIntegrator {
    /// An integrator armed with `threshold` (an `Exp(1)` draw for exact
    /// inversion sampling; any positive value for deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and positive.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "hazard threshold must be finite and positive, got {threshold}"
        );
        HazardIntegrator {
            cumulative: 0.0,
            threshold,
        }
    }

    /// Accrues `rate_per_s × dt_s` of hazard and reports whether the
    /// threshold is crossed *after* this accrual. Negative rates and
    /// durations are rejected; once crossed, the integrator stays
    /// crossed until [`HazardIntegrator::rearm`].
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` or `dt_s` is negative or non-finite.
    pub fn accrue(&mut self, rate_per_s: f64, dt_s: f64) -> bool {
        assert!(
            rate_per_s.is_finite() && rate_per_s >= 0.0,
            "invalid hazard rate {rate_per_s}"
        );
        assert!(dt_s.is_finite() && dt_s >= 0.0, "invalid duration {dt_s}");
        self.cumulative += rate_per_s * dt_s;
        self.crossed()
    }

    /// Whether the cumulative hazard has reached the threshold.
    pub fn crossed(&self) -> bool {
        self.cumulative >= self.threshold
    }

    /// Re-arms after a repair: the part is replaced, so the cumulative
    /// hazard resets to zero and a fresh threshold (the next `Exp(1)`
    /// draw from the owning stream) takes over.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and positive.
    pub fn rearm(&mut self, threshold: f64) {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "hazard threshold must be finite and positive, got {threshold}"
        );
        self.cumulative = 0.0;
        self.threshold = threshold;
    }

    /// Cumulative hazard accrued since the last (re)arm.
    pub fn cumulative(&self) -> f64 {
        self.cumulative
    }

    /// The armed threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_hazard_reduces_to_exponential() {
        // Threshold T with constant rate r crosses exactly at t = T/r.
        let mut h = HazardIntegrator::new(2.0);
        assert!(!h.accrue(0.5, 3.999));
        assert!(h.accrue(0.5, 0.001));
    }

    #[test]
    fn piecewise_rates_accumulate() {
        let mut h = HazardIntegrator::new(1.0);
        assert!(!h.accrue(0.1, 4.0)); // 0.4
        assert!(!h.accrue(0.0, 100.0)); // parked: no wear
        assert!(h.accrue(0.3, 2.0)); // 1.0: crossed
        assert!(h.crossed());
    }

    #[test]
    fn rearm_resets_for_the_next_draw() {
        let mut h = HazardIntegrator::new(1.0);
        assert!(h.accrue(1.0, 1.5));
        h.rearm(0.5);
        assert!(!h.crossed());
        assert_eq!(h.cumulative(), 0.0);
        assert_eq!(h.threshold(), 0.5);
        assert!(h.accrue(1.0, 0.5));
    }

    #[test]
    fn shared_threshold_couples_monotonically() {
        // Common random numbers: with the same Exp(1) draw, the fleet
        // with the pointwise-higher hazard can only fail earlier. This
        // is the argument for OC3 failing strictly more than B2.
        let draw = 0.7;
        let mut b2 = HazardIntegrator::new(draw);
        let mut oc3 = HazardIntegrator::new(draw);
        let mut t_b2 = None;
        let mut t_oc3 = None;
        for step in 0..1000 {
            if t_b2.is_none() && b2.accrue(1e-3, 1.0) {
                t_b2 = Some(step);
            }
            if t_oc3.is_none() && oc3.accrue(3e-3, 1.0) {
                t_oc3 = Some(step);
            }
        }
        assert!(t_oc3.unwrap() < t_b2.unwrap());
    }

    #[test]
    fn unit_conversions_are_consistent() {
        let annual = 0.2; // 1/years → 5-year mean lifetime
        let per_s = per_year_to_per_second(annual);
        assert!((per_s * SECONDS_PER_YEAR - annual).abs() < 1e-15);
        let monthly = per_month_to_per_second(1.0);
        assert!((monthly * SECONDS_PER_MONTH - 1.0).abs() < 1e-15);
        // A rate of 1/month is 12/year.
        assert!((monthly / per_year_to_per_second(12.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_rate_bridges_to_seconds() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let cond = OperatingConditions::new(0.98, 60.0, 35.0);
        let per_s = failure_rate_per_second(&model, &cond);
        let per_y = model.failure_rate_per_year(&cond);
        assert!((per_s * SECONDS_PER_YEAR - per_y).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_threshold_panics() {
        let _ = HazardIntegrator::new(0.0);
    }
}
