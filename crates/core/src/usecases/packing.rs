//! Dense VM packing via oversubscription + overclocking (Section V,
//! Figure 5d; evaluated in Section VI-C).
//!
//! Oversubscribing pcores lets a provider sell more vcores per server;
//! when co-located VMs do contend, the host overclocks so each vcore
//! still receives its entitled cycles. The planner answers: *given an
//! overclock headroom, how much oversubscription keeps performance
//! whole?* — the frequency ratio must cover the contention ratio.

use ic_cluster::placement::Oversubscription;
use ic_power::units::Frequency;

/// A plan coupling an oversubscription ratio with the overclock that
/// makes it performance-neutral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackingPlan {
    /// The vcore:pcore ratio to sell.
    pub oversubscription: Oversubscription,
    /// The frequency the host must run at when all vcores are busy.
    pub compensating_frequency: Frequency,
    /// The additional vcores per 100 pcores this plan sells.
    pub extra_vcores_per_100_pcores: u32,
}

/// Plans performance-neutral dense packing.
///
/// The worst case is every vcore busy simultaneously: each receives a
/// `pcores/vcores` share of the machine, so compensating requires a
/// frequency of `base × vcores/pcores`, clamped to the green-band
/// ceiling. The sustainable oversubscription ratio is therefore exactly
/// the green headroom ratio (1.23 → up to 23 % more vcores; the paper
/// demonstrates 20 %).
///
/// # Example
///
/// ```
/// use ic_core::usecases::packing::plan_packing;
/// use ic_power::units::Frequency;
///
/// let plan = plan_packing(
///     Frequency::from_ghz(3.4), // base
///     Frequency::from_ghz(4.1), // green ceiling
///     1.20,                      // desired oversubscription
/// ).unwrap();
/// assert_eq!(plan.extra_vcores_per_100_pcores, 20);
/// // 3.4 × 1.2 = 4.08 GHz compensates fully.
/// assert_eq!(plan.compensating_frequency, Frequency::from_mhz(4080));
/// ```
pub fn plan_packing(
    base: Frequency,
    green_ceiling: Frequency,
    desired_ratio: f64,
) -> Option<PackingPlan> {
    assert!(
        desired_ratio >= 1.0 && desired_ratio.is_finite(),
        "invalid oversubscription ratio {desired_ratio}"
    );
    let needed = Frequency::from_mhz((base.mhz() as f64 * desired_ratio).ceil() as u32);
    if needed > green_ceiling {
        return None; // cannot compensate without lifetime cost
    }
    Some(PackingPlan {
        oversubscription: Oversubscription::ratio(desired_ratio),
        compensating_frequency: needed,
        extra_vcores_per_100_pcores: ((desired_ratio - 1.0) * 100.0).round() as u32,
    })
}

/// The maximum performance-neutral oversubscription ratio for a
/// platform: the green headroom.
pub fn max_neutral_ratio(base: Frequency, green_ceiling: Frequency) -> f64 {
    green_ceiling.ratio_to(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_20_pct_packing_plan() {
        let plan = plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1), 1.20).unwrap();
        assert_eq!(plan.extra_vcores_per_100_pcores, 20);
        assert!((plan.oversubscription.as_ratio() - 1.2).abs() < 1e-12);
        assert!(plan.compensating_frequency <= Frequency::from_ghz(4.1));
    }

    #[test]
    fn excessive_ratio_is_rejected() {
        assert!(plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1), 1.30).is_none());
    }

    #[test]
    fn max_neutral_ratio_matches_green_headroom() {
        let r = max_neutral_ratio(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1));
        assert!((r - 4.1 / 3.4).abs() < 1e-9);
        // And a plan at exactly that ratio succeeds.
        assert!(
            plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1), r - 1e-6).is_some()
        );
    }

    #[test]
    fn no_headroom_no_oversubscription() {
        // Air: green ceiling equals base+turbo; ratio 1.0 only.
        assert!(plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(3.4), 1.05).is_none());
        assert!(plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(3.4), 1.0).is_some());
    }

    #[test]
    fn compensating_frequency_scales_with_ratio() {
        let lo = plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1), 1.05).unwrap();
        let hi = plan_packing(Frequency::from_ghz(3.4), Frequency::from_ghz(4.1), 1.15).unwrap();
        assert!(hi.compensating_frequency > lo.compensating_frequency);
    }
}
