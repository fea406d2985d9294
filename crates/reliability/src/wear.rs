//! Wear-out credit accounting.
//!
//! The paper's lifetime model assumes worst-case utilization, so
//! "moderately-utilized servers will accumulate lifetime credit. Such
//! servers can be overclocked beyond the 23 % frequency boost for added
//! performance, but the extent and duration of this additional
//! overclocking has to be balanced against the impact on lifetime"
//! (Section IV). [`WearTracker`] is the wear-out counter the paper says
//! it is pursuing with component manufacturers: it integrates consumed
//! lifetime fraction across operating epochs and answers "can I afford
//! this much overclocking for this long?"

use crate::lifetime::{CompositeLifetimeModel, OperatingConditions};

/// Integrates consumed lifetime across operating epochs.
///
/// Wear is linear damage accumulation (Miner's rule): running for `t`
/// years at conditions with projected lifetime `L` consumes `t / L` of
/// the part's life.
///
/// # Example
///
/// ```
/// use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
/// use ic_reliability::wear::WearTracker;
///
/// let model = CompositeLifetimeModel::fitted_5nm();
/// let mut wear = WearTracker::new(5.0); // 5-year service target
/// // One year at the HFE-7000 nominal point consumes very little life.
/// let nominal = OperatingConditions::new(0.90, 51.0, 35.0);
/// wear.accrue(&model, &nominal, 1.0);
/// assert!(wear.consumed_fraction() < 0.1);
/// assert!(wear.credit_years(1.0) > 0.7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearTracker {
    service_target_years: f64,
    consumed_fraction: f64,
    elapsed_years: f64,
}

impl WearTracker {
    /// Creates a tracker for a part with the given service-life target
    /// (the paper decommissions servers after ~5 years).
    ///
    /// # Panics
    ///
    /// Panics if `service_target_years` is not positive.
    pub fn new(service_target_years: f64) -> Self {
        assert!(
            service_target_years > 0.0 && service_target_years.is_finite(),
            "invalid service target {service_target_years}"
        );
        WearTracker {
            service_target_years,
            consumed_fraction: 0.0,
            elapsed_years: 0.0,
        }
    }

    /// Records `duration_years` of operation at `cond` with worst-case
    /// utilization.
    ///
    /// # Panics
    ///
    /// Panics if `duration_years` is negative or non-finite.
    pub fn accrue(
        &mut self,
        model: &CompositeLifetimeModel,
        cond: &OperatingConditions,
        duration_years: f64,
    ) {
        self.accrue_with_utilization(model, cond, duration_years, 1.0);
    }

    /// Records operation at fractional utilization: stress scales with
    /// the share of time the part spends at the peak operating point
    /// versus idle (where wear is negligible). `utilization` is clamped
    /// to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_years` is negative or non-finite.
    pub fn accrue_with_utilization(
        &mut self,
        model: &CompositeLifetimeModel,
        cond: &OperatingConditions,
        duration_years: f64,
        utilization: f64,
    ) {
        assert!(
            duration_years.is_finite() && duration_years >= 0.0,
            "invalid duration {duration_years}"
        );
        let u = utilization.clamp(0.0, 1.0);
        self.consumed_fraction += duration_years * u / model.lifetime_years(cond);
        self.elapsed_years += duration_years;
    }

    /// The fraction of the part's life consumed so far (may exceed 1 if
    /// the part is run past exhaustion).
    pub fn consumed_fraction(&self) -> f64 {
        self.consumed_fraction
    }

    /// Calendar years of operation recorded.
    pub fn elapsed_years(&self) -> f64 {
        self.elapsed_years
    }

    /// The service-life target.
    pub fn service_target_years(&self) -> f64 {
        self.service_target_years
    }

    /// Lifetime credit in *budget years*: how far the part is ahead of
    /// its nominal wear schedule after `elapsed` years. A part on
    /// schedule consumes `elapsed / target` of its life; consuming less
    /// banks credit that can be spent on overclocking.
    pub fn credit_years(&self, elapsed_years: f64) -> f64 {
        (elapsed_years / self.service_target_years - self.consumed_fraction)
            * self.service_target_years
    }

    /// Whether running `duration_years` at `cond` would still let the
    /// part reach its service target, assuming the rest of its life runs
    /// at `rest_cond`.
    pub fn can_afford(
        &self,
        model: &CompositeLifetimeModel,
        cond: &OperatingConditions,
        duration_years: f64,
        rest_cond: &OperatingConditions,
    ) -> bool {
        let spent = self.consumed_fraction + duration_years / model.lifetime_years(cond);
        let remaining_time =
            (self.service_target_years - self.elapsed_years - duration_years).max(0.0);
        let rest = remaining_time / model.lifetime_years(rest_cond);
        spent + rest <= 1.0
    }

    /// The remaining years at `cond` before the part's life is fully
    /// consumed.
    pub fn remaining_years_at(
        &self,
        model: &CompositeLifetimeModel,
        cond: &OperatingConditions,
    ) -> f64 {
        ((1.0 - self.consumed_fraction) * model.lifetime_years(cond)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CompositeLifetimeModel {
        CompositeLifetimeModel::fitted_5nm()
    }
    fn hfe_nominal() -> OperatingConditions {
        OperatingConditions::new(0.90, 51.0, 35.0)
    }
    fn hfe_oc() -> OperatingConditions {
        OperatingConditions::new(0.98, 60.0, 35.0)
    }
    fn air_oc() -> OperatingConditions {
        OperatingConditions::new(0.98, 101.0, 20.0)
    }

    #[test]
    fn continuous_hfe_overclocking_exactly_spends_the_5_year_budget() {
        // Table V: HFE-7000 overclocked lifetime ≈ the 5-year target, so
        // running overclocked for the whole service life is affordable.
        let m = model();
        let mut wear = WearTracker::new(5.0);
        wear.accrue(&m, &hfe_oc(), 5.0);
        assert!((wear.consumed_fraction() - 1.0).abs() < 0.15);
    }

    #[test]
    fn air_overclocking_burns_life_quickly() {
        let m = model();
        let mut wear = WearTracker::new(5.0);
        wear.accrue(&m, &air_oc(), 0.5);
        assert!(
            wear.consumed_fraction() > 0.5,
            "{}",
            wear.consumed_fraction()
        );
        assert!(!wear.can_afford(&m, &air_oc(), 1.0, &hfe_nominal()));
    }

    #[test]
    fn moderate_utilization_banks_credit() {
        let m = model();
        let mut wear = WearTracker::new(5.0);
        // Two years at 40 % utilization, nominal conditions.
        wear.accrue_with_utilization(&m, &hfe_nominal(), 2.0, 0.4);
        let credit = wear.credit_years(2.0);
        assert!(credit > 1.5, "credit = {credit}");
        // The credit affords a stretch of overclocking.
        assert!(wear.can_afford(&m, &hfe_oc(), 2.0, &hfe_nominal()));
    }

    #[test]
    fn remaining_years_scales_with_conditions() {
        let m = model();
        let wear = WearTracker::new(5.0);
        let nominal = wear.remaining_years_at(&m, &hfe_nominal());
        let oc = wear.remaining_years_at(&m, &hfe_oc());
        assert!(nominal > oc);
        assert!(oc > 4.0 && oc < 6.0);
    }

    #[test]
    fn consumed_fraction_accumulates_across_epochs() {
        let m = model();
        let mut wear = WearTracker::new(5.0);
        wear.accrue(&m, &hfe_nominal(), 1.0);
        let after_one = wear.consumed_fraction();
        wear.accrue(&m, &hfe_oc(), 1.0);
        assert!(wear.consumed_fraction() > after_one);
        assert_eq!(wear.elapsed_years(), 2.0);
    }

    #[test]
    fn zero_duration_is_a_noop() {
        let m = model();
        let mut wear = WearTracker::new(5.0);
        wear.accrue(&m, &air_oc(), 0.0);
        assert_eq!(wear.consumed_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid service target")]
    fn zero_target_panics() {
        let _ = WearTracker::new(0.0);
    }
}
