//! Load generators: diurnal patterns, spikes, and load-schedule algebra.
//!
//! The paper notes that providers "can overclock during periods of
//! power underutilization in datacenters due to workload variability
//! and diurnal patterns exhibited by long-running workloads"
//! (Section IV). [`DiurnalLoad`] produces such a pattern; [`SpikeTrain`]
//! injects the sudden surges the auto-scaler experiments stress; both
//! compose into QPS schedules for the client-server simulation.

/// A smooth day/night load curve:
/// `base + amplitude · (1 + sin(2π(t − phase)/period)) / 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalLoad {
    base_qps: f64,
    amplitude_qps: f64,
    period_s: f64,
    phase_s: f64,
}

impl DiurnalLoad {
    /// Creates a diurnal curve.
    ///
    /// # Panics
    ///
    /// Panics if the base or amplitude is negative or the period is not
    /// positive.
    pub fn new(base_qps: f64, amplitude_qps: f64, period_s: f64) -> Self {
        assert!(base_qps >= 0.0 && amplitude_qps >= 0.0, "negative load");
        assert!(period_s > 0.0, "period must be positive");
        DiurnalLoad {
            base_qps,
            amplitude_qps,
            period_s,
            phase_s: 0.0,
        }
    }

    /// A 24-hour curve in seconds.
    pub fn daily(base_qps: f64, amplitude_qps: f64) -> Self {
        DiurnalLoad::new(base_qps, amplitude_qps, 86_400.0)
    }

    /// Shifts the peak by `phase_s` seconds.
    pub fn with_phase(mut self, phase_s: f64) -> Self {
        self.phase_s = phase_s;
        self
    }

    /// The load at time `t_s`.
    pub fn at(&self, t_s: f64) -> f64 {
        let angle = 2.0 * std::f64::consts::PI * (t_s - self.phase_s) / self.period_s;
        self.base_qps + self.amplitude_qps * (1.0 + angle.sin()) / 2.0
    }

    /// The trough (minimum) load — the valley where overclocking
    /// headroom is free.
    pub fn trough_qps(&self) -> f64 {
        self.base_qps
    }

    /// The crest (maximum) load.
    pub fn crest_qps(&self) -> f64 {
        self.base_qps + self.amplitude_qps
    }

    /// The fraction of the day the load sits at or below
    /// `threshold_qps` — how often a power-oversubscribed datacenter
    /// has capping-free overclocking headroom.
    pub fn fraction_below(&self, threshold_qps: f64) -> f64 {
        // Sample one period finely; the curve is smooth.
        let n = 10_000;
        let below = (0..n)
            .filter(|i| self.at(*i as f64 / n as f64 * self.period_s) <= threshold_qps)
            .count();
        below as f64 / n as f64
    }

    /// Renders the curve into a step schedule of `(start_s, qps)` pairs
    /// over one period, with `steps` equal intervals — directly
    /// consumable by the auto-scaler runner.
    pub fn to_schedule(&self, steps: u32) -> Vec<(f64, f64)> {
        assert!(steps > 0, "need at least one step");
        (0..steps)
            .map(|i| {
                let t = i as f64 / steps as f64 * self.period_s;
                (t, self.at(t))
            })
            .collect()
    }
}

/// Sudden load surges on top of a baseline: each spike multiplies the
/// load by `factor` for `duration_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeTrain {
    spikes: Vec<(f64, f64, f64)>, // (start_s, duration_s, factor)
}

impl SpikeTrain {
    /// Creates an empty train.
    pub fn new() -> Self {
        SpikeTrain { spikes: Vec::new() }
    }

    /// Adds a spike.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not positive or the factor is below 1.
    pub fn spike(mut self, start_s: f64, duration_s: f64, factor: f64) -> Self {
        assert!(duration_s > 0.0, "spike needs a duration");
        assert!(factor >= 1.0, "spikes amplify load");
        self.spikes.push((start_s, duration_s, factor));
        self
    }

    /// The multiplicative factor in force at `t_s` (1.0 outside spikes;
    /// overlapping spikes multiply).
    pub fn factor_at(&self, t_s: f64) -> f64 {
        self.spikes
            .iter()
            .filter(|&&(s, d, _)| t_s >= s && t_s < s + d)
            .map(|&(_, _, f)| f)
            .product()
    }

    /// Applies the train to a schedule, splitting steps at spike
    /// boundaries.
    pub fn apply(&self, schedule: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut boundaries: Vec<f64> = schedule.iter().map(|&(t, _)| t).collect();
        for &(s, d, _) in &self.spikes {
            boundaries.push(s);
            boundaries.push(s + d);
        }
        boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        boundaries.dedup();
        let base_at = |t: f64| {
            schedule
                .iter()
                .rev()
                .find(|&&(s, _)| s <= t)
                .map(|&(_, q)| q)
                .unwrap_or(0.0)
        };
        boundaries
            .into_iter()
            .map(|t| (t, base_at(t) * self.factor_at(t)))
            .collect()
    }
}

impl Default for SpikeTrain {
    fn default() -> Self {
        SpikeTrain::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_bounds() {
        let d = DiurnalLoad::daily(1000.0, 2000.0);
        assert_eq!(d.trough_qps(), 1000.0);
        assert_eq!(d.crest_qps(), 3000.0);
        for t in [0.0, 10_000.0, 40_000.0, 86_399.0] {
            let q = d.at(t);
            assert!((1000.0..=3000.0).contains(&q), "{q} at {t}");
        }
    }

    #[test]
    fn diurnal_is_periodic() {
        let d = DiurnalLoad::daily(500.0, 1000.0);
        assert!((d.at(1234.0) - d.at(1234.0 + 86_400.0)).abs() < 1e-9);
    }

    #[test]
    fn phase_shifts_the_peak() {
        let d = DiurnalLoad::daily(0.0, 100.0);
        let shifted = d.with_phase(3600.0);
        assert!((d.at(0.0) - shifted.at(3600.0)).abs() < 1e-9);
    }

    #[test]
    fn fraction_below_midpoint_is_half() {
        let d = DiurnalLoad::daily(0.0, 100.0);
        let f = d.fraction_below(50.0);
        assert!((f - 0.5).abs() < 0.01, "fraction {f}");
        assert_eq!(d.fraction_below(200.0), 1.0);
        assert_eq!(d.fraction_below(-1.0), 0.0);
    }

    #[test]
    fn schedule_covers_one_period() {
        let d = DiurnalLoad::new(100.0, 100.0, 1000.0);
        let s = d.to_schedule(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[9].0, 900.0);
    }

    #[test]
    fn spikes_multiply_in_their_window_only() {
        let train = SpikeTrain::new().spike(100.0, 50.0, 3.0);
        assert_eq!(train.factor_at(99.0), 1.0);
        assert_eq!(train.factor_at(100.0), 3.0);
        assert_eq!(train.factor_at(149.9), 3.0);
        assert_eq!(train.factor_at(150.0), 1.0);
    }

    #[test]
    fn overlapping_spikes_compound() {
        let train = SpikeTrain::new()
            .spike(0.0, 100.0, 2.0)
            .spike(50.0, 100.0, 1.5);
        assert_eq!(train.factor_at(75.0), 3.0);
    }

    #[test]
    fn apply_splits_schedule_at_spike_boundaries() {
        let base = vec![(0.0, 100.0), (200.0, 200.0)];
        let train = SpikeTrain::new().spike(50.0, 100.0, 2.0);
        let out = train.apply(&base);
        // Boundaries: 0, 50, 150, 200.
        assert_eq!(
            out,
            vec![(0.0, 100.0), (50.0, 200.0), (150.0, 100.0), (200.0, 200.0)]
        );
    }
}
