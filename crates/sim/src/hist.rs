//! Logarithmic-bin latency histograms.
//!
//! [`Tally`](crate::stats::Tally) keeps every sample for exact
//! percentiles; [`LogHistogram`] trades exactness for constant memory —
//! the right tool for long auto-scaler runs and for rendering latency
//! distributions in experiment output. Bins are geometric (each bin is
//! `growth`× wider than the last), matching how latency spreads over
//! orders of magnitude.

/// A constant-memory histogram with geometric bin edges.
///
/// # Example
///
/// ```
/// use ic_sim::hist::LogHistogram;
///
/// let mut h = LogHistogram::new(1e-4, 2.0, 24); // 0.1 ms … ~1700 s
/// for i in 1..=1000u32 {
///     h.record(i as f64 * 1e-3);
/// }
/// let p95 = h.quantile(0.95);
/// assert!((0.9..=1.3).contains(&p95), "p95 {p95}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    first_edge: f64,
    growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    sum: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Creates a histogram whose first bin ends at `first_edge` and
    /// whose bins each grow by `growth`×; values beyond the last bin
    /// land in it.
    ///
    /// # Panics
    ///
    /// Panics if `first_edge <= 0`, `growth <= 1`, or `bins == 0`.
    pub fn new(first_edge: f64, growth: f64, bins: usize) -> Self {
        assert!(
            first_edge > 0.0 && first_edge.is_finite(),
            "invalid first edge"
        );
        assert!(growth > 1.0 && growth.is_finite(), "growth must exceed 1");
        assert!(bins > 0, "need at least one bin");
        LogHistogram {
            first_edge,
            growth,
            counts: vec![0; bins],
            underflow: 0,
            total: 0,
            sum: 0.0,
            max_seen: 0.0,
        }
    }

    /// Records one non-negative sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "invalid sample {value}");
        self.total += 1;
        self.sum += value;
        self.max_seen = self.max_seen.max(value);
        if value < self.first_edge {
            self.underflow += 1;
            return;
        }
        let idx = ((value / self.first_edge).ln() / self.growth.ln()).floor() as usize + 1;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// The number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The arithmetic mean (exact, not binned), or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The maximum sample (exact), or 0 if empty.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// The upper edge of bin `i`.
    fn edge(&self, i: usize) -> f64 {
        self.first_edge * self.growth.powi(i as i32)
    }

    /// An approximate `q`-quantile: the upper edge of the bin where the
    /// cumulative count crosses `q` (so the estimate is biased at most
    /// one bin upward). Returns 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= rank {
            return self.first_edge;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The last bin also absorbs overflow, whose edge would
                // understate the tail: report the exact maximum there.
                return if i == self.counts.len() - 1 {
                    self.max_seen
                } else {
                    self.edge(i).min(self.max_seen)
                };
            }
        }
        self.max_seen
    }

    /// Non-empty bins as `(upper_edge, count)` pairs, for rendering.
    pub fn bins(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        if self.underflow > 0 {
            out.push((self.first_edge, self.underflow));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                out.push((self.edge(i), c));
            }
        }
        out
    }

    /// Merges another histogram with identical bin geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.first_edge == other.first_edge
                && self.growth == other.growth
                && self.counts.len() == other.counts.len(),
            "histogram geometries differ"
        );
        self.underflow += other.underflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_within_one_bin_of_truth() {
        let mut h = LogHistogram::new(1e-3, 1.5, 40);
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-3).collect();
        for &v in &values {
            h.record(v);
        }
        let exact_p95 = 9.5; // 9500th of 10000
        let est = h.quantile(0.95);
        assert!(
            est >= exact_p95 && est <= exact_p95 * 1.5,
            "estimate {est} vs exact {exact_p95}"
        );
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LogHistogram::new(0.1, 2.0, 10);
        for v in [0.05, 1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert!((h.mean() - 1.5125).abs() < 1e-12);
        assert_eq!(h.max(), 3.0);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn underflow_counts_toward_quantiles() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        for _ in 0..99 {
            h.record(0.5);
        }
        h.record(100.0);
        assert_eq!(h.quantile(0.5), 1.0); // underflow bin edge
        assert!(h.quantile(1.0) >= 100.0 * 0.9);
    }

    #[test]
    fn overflow_lands_in_last_bin() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        h.record(1e9);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::new(1.0, 2.0, 8);
        let mut b = LogHistogram::new(1.0, 2.0, 8);
        for i in 1..=50 {
            a.record(i as f64);
            b.record((i + 50) as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.max(), 100.0);
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = LogHistogram::new(1.0, 2.0, 4);
        assert_eq!(h.quantile(0.95), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.bins().is_empty());
    }

    #[test]
    #[should_panic(expected = "geometries differ")]
    fn mismatched_merge_panics() {
        let mut a = LogHistogram::new(1.0, 2.0, 8);
        let b = LogHistogram::new(1.0, 3.0, 8);
        a.merge(&b);
    }
}
