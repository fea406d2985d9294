//! Streaming statistics used to report the paper's evaluation metrics.
//!
//! The evaluation section reports tail latencies (P95 for SQL and the
//! client-server app, P99 for the key-value store), average and P99 power
//! draws, and time-averaged CPU utilization. [`Tally`] collects samples and
//! answers percentile queries; [`Welford`] maintains running mean/variance;
//! [`TimeWeighted`] computes time-weighted averages of step signals such as
//! utilization and power; [`SlidingWindow`] provides the 30-second and
//! 3-minute trailing averages the auto-scaler's control loop uses.

use crate::time::{SimDuration, SimTime};

/// A sample collector with exact percentile queries.
///
/// Stores all samples; suitable for simulation-scale data (millions of
/// points). Percentiles use the nearest-rank method on the sorted data.
///
/// Queries never re-sort from scratch: the tally keeps a sorted prefix
/// (`samples[..sorted_len]`) and an unsorted tail of recent records. A
/// query merges a small tail into the prefix in O(n) through a reusable
/// scratch buffer, and answers a large unsorted residue with quickselect
/// (`select_nth_unstable`), promoting to a full sort only when repeated
/// selections would cost more than sorting once. Monotone-ascending
/// record streams (cumulative counters, sim-time series) keep the prefix
/// sorted for free.
///
/// # Example
///
/// ```
/// use ic_sim::stats::Tally;
///
/// let mut t = Tally::new();
/// for i in 1..=100 {
///     t.record(i as f64);
/// }
/// assert_eq!(t.percentile(0.95), 95.0);
/// assert_eq!(t.mean(), 50.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tally {
    samples: Vec<f64>,
    /// `samples[..sorted_len]` is sorted ascending; everything after is
    /// the unsorted tail recorded since the last merge.
    sorted_len: usize,
    sum: f64,
    /// Quickselect queries answered since the last merge; after a few,
    /// one full sort is cheaper than more O(n) selections.
    selects_since_merge: u32,
    /// Reusable merge buffer (kept empty between queries).
    scratch: Vec<f64>,
}

/// How many quickselect answers are tolerated before promoting the whole
/// sample set to fully sorted.
const TALLY_SELECT_PROMOTE: u32 = 3;

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot tally non-finite value {value}");
        // An in-order append extends the sorted prefix instead of
        // starting a tail.
        if self.sorted_len == self.samples.len()
            && self
                .samples
                .last()
                .is_none_or(|last| last.total_cmp(&value) != std::cmp::Ordering::Greater)
        {
            self.sorted_len += 1;
        }
        self.samples.push(value);
        self.sum += value;
    }

    /// The number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// The maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
            .max(0.0)
    }

    /// The `q`-quantile (e.g. `0.95` for P95) by nearest rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`, or if the tally is empty — a
    /// percentile of nothing is a logic error, not a zero.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(
            !self.samples.is_empty(),
            "percentile query on an empty Tally — record at least one sample first"
        );
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
        let rank = rank.min(n - 1);
        let tail = n - self.sorted_len;
        if tail == 0 {
            return self.samples[rank];
        }
        if tail <= n / 8 + 16 || self.selects_since_merge >= TALLY_SELECT_PROMOTE {
            self.merge_tail();
            self.samples[rank]
        } else {
            self.selects_since_merge += 1;
            let (_, v, _) = self.samples.select_nth_unstable_by(rank, f64::total_cmp);
            let v = *v;
            // Selection partitions the whole buffer; the prefix order is
            // gone.
            self.sorted_len = 0;
            v
        }
    }

    /// Sorts the unsorted tail and merges it into the sorted prefix
    /// through the scratch buffer; afterwards the whole sample set is
    /// sorted.
    fn merge_tail(&mut self) {
        let n = self.samples.len();
        self.samples[self.sorted_len..].sort_unstable_by(f64::total_cmp);
        if self.sorted_len > 0 && self.sorted_len < n {
            self.scratch.clear();
            self.scratch.reserve(n);
            let (a, b) = self.samples.split_at(self.sorted_len);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if b[j].total_cmp(&a[i]) == std::cmp::Ordering::Less {
                    self.scratch.push(b[j]);
                    j += 1;
                } else {
                    self.scratch.push(a[i]);
                    i += 1;
                }
            }
            self.scratch.extend_from_slice(&a[i..]);
            self.scratch.extend_from_slice(&b[j..]);
            std::mem::swap(&mut self.samples, &mut self.scratch);
            self.scratch.clear();
        }
        self.sorted_len = n;
        self.selects_since_merge = 0;
    }

    /// Immutable view of the raw samples (unsorted order is unspecified).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sum = 0.0;
        self.sorted_len = 0;
        self.selects_since_merge = 0;
    }
}

impl Extend<f64> for Tally {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut t = Tally::new();
        t.extend(iter);
        t
    }
}

/// Numerically stable running mean and variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use ic_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for v in [2.0, 4.0, 6.0] {
///     w.record(v);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.population_variance(), 8.0 / 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot record non-finite value {value}");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The population variance (dividing by `n`), or 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// The minimum sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. server power
/// or CPU utilization over a simulation run.
///
/// # Example
///
/// ```
/// use ic_sim::stats::TimeWeighted;
/// use ic_sim::time::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 100.0);
/// tw.set(SimTime::from_secs(10), 200.0); // 100 W for 10 s
/// assert_eq!(tw.average(SimTime::from_secs(20)), 150.0); // then 200 W for 10 s
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking a signal whose value is `initial` at `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Updates the signal to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous update.
    pub fn set(&mut self, at: SimTime, value: f64) {
        assert!(at >= self.last_time, "updates must be in time order");
        self.weighted_sum += self.last_value * (at - self.last_time).as_secs_f64();
        self.last_time = at;
        self.last_value = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time-weighted average over `[start, until]`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last update.
    pub fn average(&self, until: SimTime) -> f64 {
        assert!(until >= self.last_time, "cannot average into the past");
        let total = (until - self.start).as_secs_f64();
        if total == 0.0 {
            return self.last_value;
        }
        let sum = self.weighted_sum + self.last_value * (until - self.last_time).as_secs_f64();
        sum / total
    }
}

/// A trailing time-window average of timestamped samples — the primitive
/// behind the auto-scaler's "average CPU utilization over the last 30 s /
/// 3 min" signals (paper Section VI-D).
#[derive(Debug, Clone, Default)]
pub struct SlidingWindow {
    window: SimDuration,
    samples: std::collections::VecDeque<(SimTime, f64)>,
}

impl SlidingWindow {
    /// Creates a window of the given length.
    pub fn new(window: SimDuration) -> Self {
        SlidingWindow {
            window,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Records a sample at `at`, evicting samples older than the window.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the newest recorded sample.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.back() {
            assert!(at >= last, "samples must arrive in time order");
        }
        self.samples.push_back((at, value));
        // Evict strictly-older samples, keeping those inside [at - window, at].
        while let Some(&(t, _)) = self.samples.front() {
            if (at - t) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// The unweighted mean of the samples currently in the window, or
    /// `None` if the window is empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The most recent sample value, if any.
    pub fn latest(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    /// The number of samples in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The least-squares linear trend of the windowed samples, in value
    /// units per second, or `None` with fewer than two samples (or zero
    /// time spread). Used for forecast-based (predictive) control.
    pub fn linear_trend_per_sec(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let n = self.samples.len() as f64;
        let t0 = self.samples.front().expect("non-empty").0;
        // Two passes, no intermediate buffer: recomputing x from the
        // timestamps is cheaper than allocating per query on the
        // auto-scaler's control path.
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        for &(t, v) in &self.samples {
            sum_x += (t - t0).as_secs_f64();
            sum_y += v;
        }
        let mean_x = sum_x / n;
        let mean_y = sum_y / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(t, y) in &self.samples {
            let x = (t - t0).as_secs_f64();
            sxx += (x - mean_x).powi(2);
            sxy += (x - mean_x) * (y - mean_y);
        }
        if sxx == 0.0 {
            None
        } else {
            Some(sxy / sxx)
        }
    }

    /// Extrapolates the windowed mean `horizon_s` seconds ahead along
    /// the linear trend; falls back to the plain mean when no trend can
    /// be estimated.
    pub fn forecast(&self, horizon_s: f64) -> Option<f64> {
        let mean = self.mean()?;
        match self.linear_trend_per_sec() {
            Some(slope) => Some(mean + slope * horizon_s),
            None => Some(mean),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_percentiles_nearest_rank() {
        let mut t: Tally = (1..=10).map(|i| i as f64).collect();
        assert_eq!(t.percentile(0.0), 1.0);
        assert_eq!(t.percentile(0.5), 5.0);
        assert_eq!(t.percentile(0.95), 10.0);
        assert_eq!(t.percentile(1.0), 10.0);
        assert_eq!(t.len(), 10);
        assert_eq!(t.max(), 10.0);
    }

    #[test]
    fn tally_empty_behaviour() {
        let t = Tally::new();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty Tally")]
    fn tally_percentile_on_empty_panics() {
        Tally::new().percentile(0.95);
    }

    #[test]
    fn tally_interleaved_record_and_query() {
        let mut t = Tally::new();
        t.record(5.0);
        assert_eq!(t.percentile(0.5), 5.0);
        t.record(1.0);
        assert_eq!(t.percentile(0.0), 1.0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn tally_rejects_nan() {
        Tally::new().record(f64::NAN);
    }

    /// Property test: under random interleavings of records and queries,
    /// every percentile answer (whether served by the sorted prefix, a
    /// tail merge, or quickselect) equals the nearest-rank value of a
    /// freshly sorted copy of the same samples.
    #[test]
    fn tally_percentiles_match_sorted_reference() {
        use crate::rng::SimRng;
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = Tally::new();
            let mut reference: Vec<f64> = Vec::new();
            for _ in 0..200 {
                let burst = 1 + rng.next_u64() % 24;
                for _ in 0..burst {
                    // Mix of random, duplicate, and monotone values so
                    // both the sorted-append and unsorted-tail paths run.
                    let v = match rng.next_u64() % 4 {
                        0 => (rng.next_u64() % 1000) as f64,
                        1 => 500.0,
                        _ => reference.len() as f64,
                    };
                    t.record(v);
                    reference.push(v);
                }
                let q = (rng.next_u64() % 101) as f64 / 100.0;
                let got = t.percentile(q);
                let mut sorted = reference.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let want = sorted[rank.min(sorted.len() - 1)];
                assert_eq!(got, want, "seed {seed} q {q} n {}", sorted.len());
                assert_eq!(t.len(), reference.len());
            }
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [3.0, 7.0, 7.0, 19.0];
        let mut w = Welford::new();
        for &v in &data {
            w.record(v);
        }
        assert_eq!(w.mean(), 9.0);
        let var = data.iter().map(|v| (v - 9.0f64).powi(2)).sum::<f64>() / 4.0;
        assert!((w.population_variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), 3.0);
        assert_eq!(w.max(), 19.0);
        assert_eq!(w.count(), 4);
    }

    #[test]
    fn welford_empty_defaults() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn time_weighted_average_steps() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 10.0);
        tw.set(SimTime::from_secs(5), 20.0);
        tw.set(SimTime::from_secs(15), 0.0);
        // 10*5 + 20*10 + 0*5 = 250 over 20 s
        assert!((tw.average(SimTime::from_secs(20)) - 12.5).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_zero_span_returns_current() {
        let tw = TimeWeighted::new(SimTime::from_secs(3), 42.0);
        assert_eq!(tw.average(SimTime::from_secs(3)), 42.0);
    }

    #[test]
    fn sliding_window_evicts_old_samples() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(10));
        w.record(SimTime::from_secs(0), 100.0);
        w.record(SimTime::from_secs(5), 50.0);
        assert_eq!(w.mean(), Some(75.0));
        w.record(SimTime::from_secs(12), 20.0);
        // t=0 sample is now outside [2, 12].
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(35.0));
        assert_eq!(w.latest(), Some(20.0));
    }

    #[test]
    fn linear_trend_recovers_a_ramp() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        for i in 0..10 {
            w.record(SimTime::from_secs(i), 2.0 * i as f64 + 5.0);
        }
        let slope = w.linear_trend_per_sec().unwrap();
        assert!((slope - 2.0).abs() < 1e-9);
        // Forecast 10 s ahead: mean (14.0) + 2×10.
        assert!((w.forecast(10.0).unwrap() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn linear_trend_flat_signal_is_zero() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        for i in 0..5 {
            w.record(SimTime::from_secs(i), 7.0);
        }
        assert!(w.linear_trend_per_sec().unwrap().abs() < 1e-12);
        assert_eq!(w.forecast(60.0), Some(7.0));
    }

    #[test]
    fn linear_trend_needs_two_samples() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        assert_eq!(w.linear_trend_per_sec(), None);
        assert_eq!(w.forecast(5.0), None);
        w.record(SimTime::ZERO, 1.0);
        assert_eq!(w.linear_trend_per_sec(), None);
        // Falls back to the mean with one sample.
        assert_eq!(w.forecast(5.0), Some(1.0));
        // Coincident timestamps have zero spread: no trend.
        w.record(SimTime::ZERO, 3.0);
        assert_eq!(w.linear_trend_per_sec(), None);
    }

    #[test]
    fn sliding_window_empty() {
        let w = SlidingWindow::new(SimDuration::from_secs(30));
        assert!(w.is_empty());
        assert_eq!(w.mean(), None);
        assert_eq!(w.latest(), None);
    }
}
