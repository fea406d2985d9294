//! High-performance VM classes (Section V, Figure 5c).
//!
//! With guaranteed overclocking, a provider can sell VM classes that
//! run above turbo all the time: the regular class stays at base, the
//! turbo class at all-core turbo, and the high-performance class in the
//! green overclocking band. Opportunistic red-band excursions, spent
//! against a wear budget, are the [`governor`](crate::governor)'s job.

use crate::domains::OperatingDomains;
use ic_power::units::Frequency;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        // The high-performance class sits in the green band.
        assert!(d.turbo() < h && h <= d.green_top());
    }

    #[test]
    fn high_performance_commands_a_premium() {
        let d = domains();
        assert_eq!(VmPerformanceClass::Regular.price_multiplier(&d), 1.0);
        let hp = VmPerformanceClass::HighPerformance.price_multiplier(&d);
        // 4.18 / 3.1 ≈ 1.35.
        assert!((1.3..1.4).contains(&hp), "multiplier {hp}");
    }
}
