//! Per-core Aperf/Pperf counter emulation.
//!
//! Real hardware exposes these as free-running MSRs; the auto-scaler
//! samples them periodically and works with deltas. [`CoreCounters`]
//! plays the MSR role for simulated cores: the workload model advances
//! it with (busy time, frequency, stall fraction) and consumers take
//! [`CounterSample`] snapshots and compute [`CounterDelta`]s.

/// Free-running activity counters for one core.
///
/// # Example
///
/// ```
/// use ic_telemetry::counters::CoreCounters;
///
/// let mut c = CoreCounters::new();
/// let before = c.sample(0.0);
/// // 1 s busy at 3.4 GHz with 25 % of active cycles stalled on memory.
/// c.advance(1.0, 3.4e9, 0.25);
/// let delta = c.sample(1.0).since(&before);
/// assert!((delta.productivity() - 0.75).abs() < 1e-12);
/// assert!((delta.utilization() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreCounters {
    aperf: f64,
    pperf: f64,
    busy_seconds: f64,
}

impl CoreCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CoreCounters::default()
    }

    /// Advances the counters by `busy_s` seconds of active execution at
    /// `freq_hz`, with `stall_fraction` of active cycles stalled on
    /// dependencies (those cycles count toward Aperf but not Pperf).
    ///
    /// # Panics
    ///
    /// Panics if `busy_s` or `freq_hz` is negative/non-finite, or
    /// `stall_fraction` is outside `[0, 1]`.
    pub fn advance(&mut self, busy_s: f64, freq_hz: f64, stall_fraction: f64) {
        assert!(busy_s.is_finite() && busy_s >= 0.0, "invalid busy time");
        assert!(freq_hz.is_finite() && freq_hz >= 0.0, "invalid frequency");
        assert!(
            (0.0..=1.0).contains(&stall_fraction),
            "stall fraction {stall_fraction} outside [0, 1]"
        );
        let cycles = busy_s * freq_hz;
        self.aperf += cycles;
        self.pperf += cycles * (1.0 - stall_fraction);
        self.busy_seconds += busy_s;
    }

    /// Takes a snapshot at wall-clock time `wall_s` (seconds since the
    /// core started).
    pub fn sample(&self, wall_s: f64) -> CounterSample {
        CounterSample {
            aperf: self.aperf,
            pperf: self.pperf,
            busy_seconds: self.busy_seconds,
            wall_seconds: wall_s,
        }
    }
}

/// A point-in-time counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSample {
    aperf: f64,
    pperf: f64,
    busy_seconds: f64,
    wall_seconds: f64,
}

impl CounterSample {
    /// The delta from an `earlier` snapshot to this one.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is actually later (counters are monotonic).
    pub fn since(&self, earlier: &CounterSample) -> CounterDelta {
        assert!(
            self.aperf >= earlier.aperf && self.wall_seconds >= earlier.wall_seconds,
            "snapshots out of order"
        );
        CounterDelta {
            d_aperf: self.aperf - earlier.aperf,
            d_pperf: self.pperf - earlier.pperf,
            d_busy: self.busy_seconds - earlier.busy_seconds,
            d_wall: self.wall_seconds - earlier.wall_seconds,
        }
    }
}

/// The change in counters over a sampling interval — the auto-scaler's
/// raw telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterDelta {
    d_aperf: f64,
    d_pperf: f64,
    d_busy: f64,
    d_wall: f64,
}

impl CounterDelta {
    /// `ΔPperf / ΔAperf`: the fraction of active cycles doing productive
    /// (non-stalled) work. 1.0 means perfectly frequency-scalable; 0.0
    /// means entirely stall-bound. Returns 1.0 for an idle interval
    /// (nothing ran, so nothing limits scaling).
    pub fn productivity(&self) -> f64 {
        if self.d_aperf <= 0.0 {
            1.0
        } else {
            (self.d_pperf / self.d_aperf).clamp(0.0, 1.0)
        }
    }

    /// Busy time / wall time over the interval, in `[0, 1]`. Returns 0
    /// for a zero-length interval.
    pub fn utilization(&self) -> f64 {
        if self.d_wall <= 0.0 {
            0.0
        } else {
            (self.d_busy / self.d_wall).clamp(0.0, 1.0)
        }
    }

    /// Active cycles in the interval.
    pub fn d_aperf(&self) -> f64 {
        self.d_aperf
    }

    /// Busy seconds in the interval (for multi-core aggregates this can
    /// exceed the wall-clock span).
    pub fn d_busy_seconds(&self) -> f64 {
        self.d_busy
    }

    /// Wall-clock seconds in the interval.
    pub fn d_wall_seconds(&self) -> f64 {
        self.d_wall
    }

    /// Productive cycles in the interval.
    pub fn d_pperf(&self) -> f64 {
        self.d_pperf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn productivity_reflects_stall_fraction() {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(2.0, 3.0e9, 0.4);
        let d = c.sample(2.0).since(&t0);
        assert!((d.productivity() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_busy_over_wall() {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(1.5, 3.0e9, 0.0);
        let d = c.sample(3.0).since(&t0);
        assert!((d.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_interval_is_fully_scalable_by_convention() {
        let c = CoreCounters::new();
        let t0 = c.sample(0.0);
        let d = c.sample(10.0).since(&t0);
        assert_eq!(d.productivity(), 1.0);
        assert_eq!(d.utilization(), 0.0);
    }

    #[test]
    fn mixed_phases_average_correctly() {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(1.0, 2.0e9, 0.0); // 2e9 cycles, all productive
        c.advance(1.0, 2.0e9, 1.0); // 2e9 cycles, all stalled
        let d = c.sample(2.0).since(&t0);
        assert!((d.productivity() - 0.5).abs() < 1e-12);
        assert_eq!(d.d_aperf(), 4.0e9);
        assert_eq!(d.d_pperf(), 2.0e9);
    }

    #[test]
    fn deltas_compose_across_intervals() {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(1.0, 1e9, 0.2);
        let t1 = c.sample(1.0);
        c.advance(1.0, 1e9, 0.2);
        let t2 = c.sample(2.0);
        let whole = t2.since(&t0);
        let first = t1.since(&t0);
        let second = t2.since(&t1);
        assert!((whole.d_aperf() - first.d_aperf() - second.d_aperf()).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_snapshots_panic() {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(1.0, 1e9, 0.0);
        let t1 = c.sample(1.0);
        let _ = t0.since(&t1);
    }

    #[test]
    #[should_panic(expected = "stall fraction")]
    fn bad_stall_fraction_panics() {
        CoreCounters::new().advance(1.0, 1e9, 1.5);
    }
}
