//! The composite lifetime model and the Table V projections.
//!
//! Mechanisms fail in series, so failure rates add:
//! `1/L = Σ 1/L_i`. The fitted model reproduces every Table V row —
//! see the crate-level documentation for the full comparison.

pub use crate::mechanisms::OperatingConditions;
use crate::mechanisms::{Electromigration, FailureMechanism, GateOxideBreakdown, ThermalCycling};
use ic_scenario::ReliabilityCalibration;

/// A composite (series-system) lifetime model.
///
/// # Example
///
/// ```
/// use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
///
/// let model = CompositeLifetimeModel::fitted_5nm();
/// // Overclocking in air destroys lifetime; in HFE-7000 it matches the
/// // air-cooled baseline (Table V).
/// let air_oc = model.lifetime_years(&OperatingConditions::new(0.98, 101.0, 20.0));
/// let hfe_oc = model.lifetime_years(&OperatingConditions::new(0.98, 60.0, 35.0));
/// assert!(air_oc < 1.0);
/// assert!((hfe_oc - 5.0).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct CompositeLifetimeModel {
    mechanisms: Vec<Box<dyn FailureMechanism>>,
}

/// One mechanism's contribution to the total failure rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RateContribution {
    /// The mechanism name (Table IV row).
    pub mechanism: &'static str,
    /// Failure rate, 1/years.
    pub rate_per_year: f64,
    /// Share of the total rate, in `[0, 1]`.
    pub share: f64,
}

impl CompositeLifetimeModel {
    /// Builds the composite from a scenario's fit coefficients: gate-
    /// oxide breakdown + electromigration + thermal cycling.
    pub fn from_calibration(cal: &ReliabilityCalibration) -> Self {
        CompositeLifetimeModel {
            mechanisms: vec![
                Box::new(GateOxideBreakdown::from_spec(&cal.gate_oxide)),
                Box::new(Electromigration::from_spec(&cal.electromigration)),
                Box::new(ThermalCycling::from_spec(&cal.thermal_cycling)),
            ],
        }
    }

    /// The model fitted to the fab's 5 nm composite model as exposed by
    /// Table V: gate-oxide breakdown + electromigration + thermal
    /// cycling.
    pub fn fitted_5nm() -> Self {
        Self::from_calibration(&ReliabilityCalibration::paper())
    }

    /// Builds a composite from arbitrary mechanisms (primarily for
    /// testing and sensitivity studies; the fitted constructor is the
    /// calibrated model).
    ///
    /// # Panics
    ///
    /// Panics if `mechanisms` is empty.
    pub fn from_mechanisms(mechanisms: Vec<Box<dyn FailureMechanism>>) -> Self {
        assert!(!mechanisms.is_empty(), "need at least one mechanism");
        CompositeLifetimeModel { mechanisms }
    }

    /// Total failure rate at `cond`, 1/years.
    pub fn failure_rate_per_year(&self, cond: &OperatingConditions) -> f64 {
        self.mechanisms.iter().map(|m| m.rate_per_year(cond)).sum()
    }

    /// Projected lifetime at `cond`, years, assuming worst-case
    /// (continuous peak) utilization as the paper's model does.
    pub fn lifetime_years(&self, cond: &OperatingConditions) -> f64 {
        1.0 / self.failure_rate_per_year(cond)
    }

    /// Per-mechanism rate decomposition, in the order the mechanisms were
    /// registered.
    pub fn breakdown(&self, cond: &OperatingConditions) -> Vec<RateContribution> {
        let total = self.failure_rate_per_year(cond);
        self.mechanisms
            .iter()
            .map(|m| {
                let rate = m.rate_per_year(cond);
                RateContribution {
                    mechanism: m.name(),
                    rate_per_year: rate,
                    share: if total > 0.0 { rate / total } else { 0.0 },
                }
            })
            .collect()
    }

    /// Finds the highest peak junction temperature (°C, within
    /// `[tj_min, 149]`) at which the projected lifetime still reaches
    /// `target_years`, by bisection. Returns `None` if even `tj_min`
    /// cannot meet the target. This inverts the model the way the paper
    /// uses it: "we use the model to calculate the temperature, power,
    /// and voltage at which electronics maintain the same predicted
    /// lifetime".
    pub fn max_tj_for_lifetime(
        &self,
        voltage_v: f64,
        tj_min_c: f64,
        target_years: f64,
    ) -> Option<f64> {
        assert!(target_years > 0.0, "target lifetime must be positive");
        let life_at =
            |tj: f64| self.lifetime_years(&OperatingConditions::new(voltage_v, tj, tj_min_c));
        if life_at(tj_min_c) < target_years {
            return None;
        }
        let (mut lo, mut hi) = (tj_min_c, 149.0);
        if life_at(hi) >= target_years {
            return Some(hi);
        }
        for _ in 0..80 {
            let mid = (lo + hi) / 2.0;
            if life_at(mid) >= target_years {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// One row of Table V: a named (cooling, overclocking) configuration and
/// its operating conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Cooling label ("Air cooling", "FC-3284", "HFE-7000").
    pub cooling: &'static str,
    /// Whether the row is overclocked.
    pub overclocked: bool,
    /// The operating conditions of the row.
    pub conditions: OperatingConditions,
    /// The paper's reported lifetime, years (10.0 encodes "> 10 years",
    /// 1.0 encodes "< 1 year").
    pub paper_years: f64,
}

/// The lifetime fit points of a reliability calibration, in table order.
pub fn table5_rows_from(cal: &ReliabilityCalibration) -> Vec<Table5Row> {
    cal.table5
        .iter()
        .map(|p| Table5Row {
            cooling: ic_scenario::intern(&p.cooling),
            overclocked: p.overclocked,
            conditions: OperatingConditions::new(p.voltage_v, p.tj_max_c, p.tj_min_c),
            paper_years: p.paper_years,
        })
        .collect()
}

/// The six Table V configurations with the paper's reported lifetimes.
pub fn table5_rows() -> Vec<Table5Row> {
    table5_rows_from(&ReliabilityCalibration::paper())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_all_rows_reproduce() {
        let model = CompositeLifetimeModel::fitted_5nm();
        for row in table5_rows() {
            let years = model.lifetime_years(&row.conditions);
            match (row.cooling, row.overclocked) {
                ("Air cooling", false) => assert!((years - 5.0).abs() < 0.3, "{years}"),
                ("Air cooling", true) => assert!(years < 1.0, "{years}"),
                ("FC-3284", false) => assert!(years > 10.0, "{years}"),
                ("FC-3284", true) => assert!((years - 4.0).abs() < 0.5, "{years}"),
                ("HFE-7000", false) => assert!(years > 10.0, "{years}"),
                ("HFE-7000", true) => assert!((years - 5.0).abs() < 0.5, "{years}"),
                other => panic!("unexpected row {other:?}"),
            }
        }
    }

    #[test]
    fn hfe_overclocked_matches_air_baseline() {
        // The paper's punchline: overclocking in HFE-7000 preserves the
        // 5-year air-cooled nominal lifetime.
        let model = CompositeLifetimeModel::fitted_5nm();
        let air_nominal = model.lifetime_years(&OperatingConditions::new(0.90, 85.0, 20.0));
        let hfe_oc = model.lifetime_years(&OperatingConditions::new(0.98, 60.0, 35.0));
        assert!((air_nominal - hfe_oc).abs() / air_nominal < 0.1);
    }

    #[test]
    fn lifetime_monotone_in_temperature() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let mut last = f64::INFINITY;
        for tj in [50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
            let l = model.lifetime_years(&OperatingConditions::new(0.9, tj, 35.0));
            assert!(l < last, "lifetime should fall as Tj rises");
            last = l;
        }
    }

    #[test]
    fn lifetime_monotone_in_voltage() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let mut last = f64::INFINITY;
        for v in [0.85, 0.90, 0.95, 1.0, 1.05] {
            let l = model.lifetime_years(&OperatingConditions::new(v, 70.0, 50.0));
            assert!(l < last, "lifetime should fall as V rises");
            last = l;
        }
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let b = model.breakdown(&OperatingConditions::new(0.98, 101.0, 20.0));
        assert_eq!(b.len(), 3);
        let total: f64 = b.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // At the air-overclocked point, thermal cycling dominates.
        let tc = b.iter().find(|c| c.mechanism == "Thermal cycling").unwrap();
        assert!(tc.share > 0.4, "tc share {}", tc.share);
    }

    #[test]
    fn cycling_negligible_in_immersion() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let b = model.breakdown(&OperatingConditions::new(0.98, 74.0, 50.0));
        let tc = b.iter().find(|c| c.mechanism == "Thermal cycling").unwrap();
        assert!(tc.share < 0.01, "tc share {}", tc.share);
    }

    #[test]
    fn max_tj_inversion_is_consistent() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let tj = model.max_tj_for_lifetime(0.98, 35.0, 5.0).unwrap();
        // Table V: 0.98 V with HFE-7000 swing keeps 5 years up to ~60 °C.
        assert!((tj - 60.0).abs() < 3.0, "tj = {tj}");
        let at = model.lifetime_years(&OperatingConditions::new(0.98, tj, 35.0));
        assert!((at - 5.0).abs() < 0.05);
    }

    #[test]
    fn max_tj_none_when_voltage_alone_kills_target() {
        let model = CompositeLifetimeModel::fitted_5nm();
        // At 1.4 V even a cold junction cannot reach 5 years.
        assert_eq!(model.max_tj_for_lifetime(1.4, 35.0, 5.0), None);
    }

    #[test]
    fn table5_rows_inventory() {
        let rows = table5_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.iter().filter(|r| r.overclocked).count(), 3);
    }
}
