//! High-performance VM classes (Section V, Figure 5c).
//!
//! With guaranteed overclocking, a provider can sell VM classes that
//! run above turbo all the time: the regular class stays at base, the
//! turbo class at all-core turbo, and the high-performance class in the
//! green overclocking band — with opportunistic excursions into the red
//! band when the wear budget allows.

use crate::domains::OperatingDomains;
use ic_power::units::Frequency;
use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use ic_reliability::wear::WearTracker;

/// The VM performance classes a provider can sell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmPerformanceClass {
    /// Guaranteed base frequency.
    Regular,
    /// Opportunistic turbo (today's cloud offering).
    Turbo,
    /// Sustained green-band overclocking.
    HighPerformance,
}

impl VmPerformanceClass {
    /// The frequency this class is entitled to under the given domain
    /// map.
    pub fn entitled_frequency(self, domains: &OperatingDomains) -> Frequency {
        match self {
            VmPerformanceClass::Regular => domains.base(),
            VmPerformanceClass::Turbo => domains.turbo(),
            VmPerformanceClass::HighPerformance => domains.green_top(),
        }
    }

    /// The relative price multiplier a provider would charge: scaled by
    /// the frequency entitlement over base (performance is what is
    /// being sold).
    pub fn price_multiplier(self, domains: &OperatingDomains) -> f64 {
        self.entitled_frequency(domains).ratio_to(domains.base())
    }
}

/// Decides red-band excursions for a high-performance VM: allowed only
/// while the host's wear tracker can afford them and the domain map has
/// red headroom.
///
/// # Example
///
/// ```
/// use ic_core::usecases::highperf::{red_band_excursion, VmPerformanceClass};
/// use ic_core::domains::OperatingDomains;
/// use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
/// use ic_reliability::wear::WearTracker;
///
/// let domains = OperatingDomains::skylake_2pic_hfe();
/// let model = CompositeLifetimeModel::fitted_5nm();
/// let wear = WearTracker::new(5.0); // fresh part: credit available
/// let red = OperatingConditions::new(1.02, 68.0, 35.0);
/// let rest = OperatingConditions::new(0.90, 51.0, 35.0);
/// let f = red_band_excursion(&domains, &model, &wear, &red, &rest, 0.25);
/// assert!(f.is_some());
/// ```
pub fn red_band_excursion(
    domains: &OperatingDomains,
    model: &CompositeLifetimeModel,
    wear: &WearTracker,
    red_conditions: &OperatingConditions,
    rest_conditions: &OperatingConditions,
    duration_years: f64,
) -> Option<Frequency> {
    if domains.ceiling() <= domains.green_top() {
        return None; // no red band on this platform
    }
    if wear.can_afford(model, red_conditions, duration_years, rest_conditions) {
        Some(domains.ceiling())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::Domain;

    fn domains() -> OperatingDomains {
        OperatingDomains::skylake_2pic_hfe()
    }

    #[test]
    fn entitlements_are_ordered() {
        let d = domains();
        let r = VmPerformanceClass::Regular.entitled_frequency(&d);
        let t = VmPerformanceClass::Turbo.entitled_frequency(&d);
        let h = VmPerformanceClass::HighPerformance.entitled_frequency(&d);
        assert!(r < t && t < h);
        assert_eq!(d.classify(h), Domain::OverclockGreen);
    }

    #[test]
    fn high_performance_commands_a_premium() {
        let d = domains();
        assert_eq!(VmPerformanceClass::Regular.price_multiplier(&d), 1.0);
        let hp = VmPerformanceClass::HighPerformance.price_multiplier(&d);
        // 4.18 / 3.1 ≈ 1.35.
        assert!((1.3..1.4).contains(&hp), "multiplier {hp}");
    }

    #[test]
    fn fresh_part_can_take_red_excursions() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let wear = WearTracker::new(5.0);
        let red = OperatingConditions::new(1.02, 68.0, 35.0);
        let rest = OperatingConditions::new(0.90, 51.0, 35.0);
        assert!(red_band_excursion(&domains(), &model, &wear, &red, &rest, 0.2).is_some());
    }

    #[test]
    fn worn_part_is_denied_red_band() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let mut wear = WearTracker::new(5.0);
        // Burn most of the part's life at a harsh point.
        wear.accrue(&model, &OperatingConditions::new(0.98, 101.0, 20.0), 0.6);
        let red = OperatingConditions::new(1.02, 68.0, 35.0);
        let rest = OperatingConditions::new(0.90, 51.0, 35.0);
        assert!(red_band_excursion(&domains(), &model, &wear, &red, &rest, 1.0).is_none());
    }

    #[test]
    fn air_platform_has_no_red_band() {
        let model = CompositeLifetimeModel::fitted_5nm();
        let wear = WearTracker::new(5.0);
        let red = OperatingConditions::new(0.98, 85.0, 20.0);
        let rest = OperatingConditions::new(0.90, 85.0, 20.0);
        assert!(red_band_excursion(
            &OperatingDomains::skylake_air(),
            &model,
            &wear,
            &red,
            &rest,
            0.1
        )
        .is_none());
    }
}
