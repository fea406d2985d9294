//! Capacity-crisis mitigation (Section V, Figure 7).
//!
//! Capacity planning misses — construction delays, equipment
//! shortages, forecast errors — leave demand above supply until new
//! servers land. Overclocking bridges the gap: the installed fleet
//! sells more (oversubscribed, overclock-compensated) vcores, provided
//! memory and storage still fit.

/// A point-in-time supply/demand picture, in vcores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitySnapshot {
    /// Demand forecast, vcores.
    pub demand_vcores: f64,
    /// Installed sellable capacity at 1:1 packing, vcores.
    pub supply_vcores: f64,
}

impl CapacitySnapshot {
    /// The unmet demand at 1:1 packing (0 when supply covers demand).
    pub fn gap_vcores(&self) -> f64 {
        (self.demand_vcores - self.supply_vcores).max(0.0)
    }

    /// Whether overclock-backed oversubscription at `headroom_ratio`
    /// bridges the gap (subject to memory: `memory_limited_ratio` caps
    /// the effective ratio at what stranded memory allows).
    pub fn bridged_by(&self, headroom_ratio: f64, memory_limited_ratio: f64) -> bool {
        let effective = headroom_ratio.min(memory_limited_ratio);
        self.supply_vcores * effective >= self.demand_vcores
    }

    /// The vcores still unmet after applying the effective
    /// oversubscription ratio.
    pub fn residual_gap(&self, headroom_ratio: f64, memory_limited_ratio: f64) -> f64 {
        let effective = headroom_ratio.min(memory_limited_ratio);
        (self.demand_vcores - self.supply_vcores * effective).max(0.0)
    }
}

/// A demand/supply trajectory: the Figure 7 picture, quarter by
/// quarter.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityTimeline {
    periods: Vec<CapacitySnapshot>,
}

impl CapacityTimeline {
    /// Builds a timeline from per-period snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty.
    pub fn new(periods: Vec<CapacitySnapshot>) -> Self {
        assert!(!periods.is_empty(), "a timeline needs periods");
        CapacityTimeline { periods }
    }

    /// The periods.
    pub fn periods(&self) -> &[CapacitySnapshot] {
        &self.periods
    }

    /// The number of periods with unmet demand at 1:1 packing.
    pub fn crisis_periods(&self) -> usize {
        self.periods.iter().filter(|p| p.gap_vcores() > 0.0).count()
    }

    /// The number of crisis periods that overclocking bridges.
    pub fn bridged_periods(&self, headroom_ratio: f64, memory_limited_ratio: f64) -> usize {
        self.periods
            .iter()
            .filter(|p| p.gap_vcores() > 0.0 && p.bridged_by(headroom_ratio, memory_limited_ratio))
            .count()
    }

    /// Total denied vcore-periods without and with overclocking — the
    /// area of Figure 7's red region.
    pub fn denied_vcore_periods(
        &self,
        headroom_ratio: f64,
        memory_limited_ratio: f64,
    ) -> (f64, f64) {
        let without: f64 = self.periods.iter().map(|p| p.gap_vcores()).sum();
        let with: f64 = self
            .periods
            .iter()
            .map(|p| p.residual_gap(headroom_ratio, memory_limited_ratio))
            .sum();
        (without, with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(demand: f64, supply: f64) -> CapacitySnapshot {
        CapacitySnapshot {
            demand_vcores: demand,
            supply_vcores: supply,
        }
    }

    #[test]
    fn gap_is_zero_when_supply_covers() {
        assert_eq!(snapshot(90.0, 100.0).gap_vcores(), 0.0);
        assert_eq!(snapshot(120.0, 100.0).gap_vcores(), 20.0);
    }

    #[test]
    fn moderate_gap_is_bridged() {
        let s = snapshot(115.0, 100.0);
        assert!(s.bridged_by(1.20, 1.25));
        assert_eq!(s.residual_gap(1.20, 1.25), 0.0);
    }

    #[test]
    fn memory_limits_the_bridge() {
        let s = snapshot(115.0, 100.0);
        // Plenty of frequency headroom, but stranded memory only covers
        // 10 % more VMs.
        assert!(!s.bridged_by(1.23, 1.10));
        assert!((s.residual_gap(1.23, 1.10) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_counts_crises_and_bridges() {
        let t = CapacityTimeline::new(vec![
            snapshot(80.0, 100.0),
            snapshot(110.0, 100.0),
            snapshot(130.0, 100.0),
            snapshot(100.0, 120.0), // new servers landed
        ]);
        assert_eq!(t.crisis_periods(), 2);
        assert_eq!(t.bridged_periods(1.20, 1.25), 1); // 110 yes, 130 no
        let (without, with) = t.denied_vcore_periods(1.20, 1.25);
        assert!((without - 40.0).abs() < 1e-9);
        assert!((with - 10.0).abs() < 1e-9); // only 130−120 remains
    }

    #[test]
    #[should_panic(expected = "needs periods")]
    fn empty_timeline_panics() {
        let _ = CapacityTimeline::new(vec![]);
    }
}
