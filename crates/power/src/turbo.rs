//! Per-active-core turbo behaviour.
//!
//! Figure 4's turbo domain is opportunistic: "Intel offers Turbo Boost
//! v2.0, which opportunistically increases core speed depending on the
//! number of active cores and type of instructions executed", and the
//! paper's telemetry analysis finds overclocking headroom precisely
//! where few cores are active. [`TurboTable`] derives the classic
//! stepped frequency-vs-active-cores curve from the socket power model:
//! with `n` active cores, each core may run as fast as the TDP allows
//! when only `n/total` of the dynamic power is being drawn.

use crate::batch::BatchPoint;
use crate::cache::SteadyStateCache;
use crate::cpu::CpuSku;
use crate::units::Frequency;
use ic_thermal::junction::ThermalInterface;

/// A derived turbo table: the highest per-core frequency for each
/// active-core count, under a given cooling interface and power limit.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboTable {
    /// `entries[n-1]` = max frequency with `n` active cores.
    entries: Vec<Frequency>,
    single_core_cap: Frequency,
}

impl TurboTable {
    /// Derives the table for `sku` under `iface` with a `power_limit_w`
    /// package budget. `single_core_cap` models the silicon's maximum
    /// boost bin (lightly-threaded ceiling) independent of power.
    pub fn derive(
        sku: &CpuSku,
        iface: &ThermalInterface,
        power_limit_w: f64,
        single_core_cap: Frequency,
    ) -> Self {
        let total = sku.cores();
        let mut entries = Vec::with_capacity(total as usize);
        // Every active-core count scans the same frequency ladder, so
        // the (f, v) steady states repeat `total` times over — memoize
        // them across the derivation, and solve the whole ladder up
        // front in one structure-of-arrays pass. The batch solver is
        // bitwise-equal to the scalar path, so every ladder point the
        // scans below read has the exact value a lazy solve would have
        // produced — the derived entries are unchanged.
        let cache = SteadyStateCache::new();
        let mut ladder: Vec<(Frequency, crate::units::Voltage)> = Vec::new();
        let mut f = sku.base();
        for _ in 0..40 {
            f = f.step_bins(1);
            if f > single_core_cap {
                break;
            }
            ladder.push((f, sku.voltage_for(f)));
        }
        let points: Vec<BatchPoint<'_>> = ladder
            .iter()
            .map(|&(f, v)| BatchPoint { iface, f, v })
            .collect();
        cache.steady_state_batch(sku, &points);
        for active in 1..=total {
            // Dynamic power scales with the active share; leakage is
            // whole-die. Find the highest bin whose scaled steady-state
            // power fits the limit.
            let share = active as f64 / total as f64;
            let mut best = sku.base();
            let mut f = sku.base();
            for _ in 0..40 {
                f = f.step_bins(1);
                if f > single_core_cap {
                    break;
                }
                let v = sku.voltage_for(f);
                let full = cache.steady_state(sku, iface, f, v);
                let scaled = full.static_w + (full.power_w - full.static_w) * share;
                if scaled <= power_limit_w {
                    best = f;
                } else {
                    break;
                }
            }
            entries.push(best.clamp(sku.base(), single_core_cap));
        }
        TurboTable {
            entries,
            single_core_cap,
        }
    }

    /// The max per-core frequency with `active` cores busy.
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero or exceeds the core count.
    pub fn frequency_for(&self, active: u32) -> Frequency {
        assert!(
            active >= 1 && active as usize <= self.entries.len(),
            "active core count {active} out of range"
        );
        self.entries[active as usize - 1]
    }

    /// The all-core turbo (every core active).
    pub fn all_core(&self) -> Frequency {
        *self.entries.last().expect("non-empty table")
    }

    /// The single-core boost.
    pub fn single_core(&self) -> Frequency {
        self.entries[0]
    }

    /// The number of core-count steps in the table where the frequency
    /// changes (the "bins" of the classic staircase plot).
    pub fn staircase_steps(&self) -> usize {
        self.entries.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_thermal::fluid::DielectricFluid;

    fn air() -> ThermalInterface {
        ThermalInterface::air(35.0, 12.1, 0.21)
    }
    fn tank() -> ThermalInterface {
        ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6)
    }

    fn table(iface: &ThermalInterface) -> TurboTable {
        let sku = CpuSku::skylake_8180();
        TurboTable::derive(&sku, iface, sku.tdp_w(), Frequency::from_ghz(3.8))
    }

    #[test]
    fn frequency_non_increasing_in_active_cores() {
        let t = table(&air());
        let mut last = Frequency::from_mhz(u32::MAX);
        for n in 1..=28 {
            let f = t.frequency_for(n);
            assert!(f <= last, "{n} cores: {f}");
            last = f;
        }
    }

    #[test]
    fn endpoints_match_the_spec_shape() {
        let t = table(&air());
        // All-core = the Table III air turbo; single-core hits the cap.
        assert_eq!(t.all_core(), Frequency::from_ghz(2.6));
        assert_eq!(t.single_core(), Frequency::from_ghz(3.8));
        assert!(t.staircase_steps() >= 3, "staircase should have steps");
    }

    #[test]
    fn immersion_lifts_the_whole_staircase() {
        let a = table(&air());
        let i = table(&tank());
        for n in 1..=28 {
            assert!(i.frequency_for(n) >= a.frequency_for(n), "{n} cores");
        }
        // And the all-core point gains the Table III bin.
        assert_eq!(i.all_core(), Frequency::from_ghz(2.7));
    }

    #[test]
    fn few_active_cores_reach_the_overclocking_domain() {
        // The paper's telemetry point: with few active cores there is
        // headroom beyond all-core turbo even in air.
        let t = table(&air());
        assert!(t.frequency_for(4) > t.all_core());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_active_cores_panics() {
        table(&air()).frequency_for(0);
    }
}
