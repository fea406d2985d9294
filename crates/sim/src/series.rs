//! Time-series recording for figure regeneration.
//!
//! The paper's Figures 15 and 16 are utilization/frequency traces over
//! time. [`TimeSeries`] records `(time, value)` points during a simulation
//! run, supports fixed-interval resampling for plotting, and renders to
//! CSV so the experiment binaries can emit the exact series each figure
//! plots.

use crate::time::{SimDuration, SimTime};

/// An append-only series of timestamped values.
///
/// # Example
///
/// ```
/// use ic_sim::series::TimeSeries;
/// use ic_sim::time::SimTime;
///
/// let mut s = TimeSeries::new("util_pct");
/// s.push(SimTime::ZERO, 10.0);
/// s.push(SimTime::from_secs(30), 55.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.value_at(SimTime::from_secs(40)), Some(55.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a label used in CSV headers.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded point or `value` is not
    /// finite.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "cannot record non-finite value {value}");
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "points must be recorded in time order");
        }
        self.points.push((at, value));
    }

    /// The number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recorded points in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The last value at or before `at` (sample-and-hold semantics), or
    /// `None` if `at` precedes the first point.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Resamples the series on a fixed grid from the first point to `end`
    /// with sample-and-hold interpolation. Returns `(time, value)` pairs.
    pub fn resample(&self, step: SimDuration, end: SimTime) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "resample step must be positive");
        let Some(&(start, _)) = self.points.first() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            if let Some(v) = self.value_at(t) {
                out.push((t, v));
            }
            t += step;
        }
        out
    }

    /// The time-weighted mean of the series over its recorded span,
    /// treating the signal as piecewise constant. Returns `None` for series
    /// with fewer than two points.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut sum = 0.0;
        for pair in self.points.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, _) = pair[1];
            sum += v0 * (t1 - t0).as_secs_f64();
        }
        let span = (self.points.last().unwrap().0 - self.points[0].0).as_secs_f64();
        Some(sum / span)
    }

    /// The maximum recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Renders the series as a two-column CSV (`time_s,<name>`).
    pub fn to_csv(&self) -> String {
        let mut out = format!("time_s,{}\n", self.name);
        for &(t, v) in &self.points {
            out.push_str(&format!("{:.3},{:.6}\n", t.as_secs_f64(), v));
        }
        out
    }
}

/// Renders several series that share a time grid as a multi-column CSV.
/// Values are sample-and-hold interpolated onto the union of all
/// timestamps.
///
/// # Panics
///
/// Panics if `series` is empty.
pub fn merge_csv(series: &[&TimeSeries]) -> String {
    assert!(!series.is_empty(), "need at least one series");
    let mut grid: Vec<SimTime> = series
        .iter()
        .flat_map(|s| s.points().iter().map(|&(t, _)| t))
        .collect();
    grid.sort();
    grid.dedup();

    let mut out = String::from("time_s");
    for s in series {
        out.push(',');
        out.push_str(s.name());
    }
    out.push('\n');
    for t in grid {
        out.push_str(&format!("{:.3}", t.as_secs_f64()));
        for s in series {
            match s.value_at(t) {
                Some(v) => out.push_str(&format!(",{v:.6}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> TimeSeries {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(10), 2.0);
        s.push(SimTime::from_secs(20), 4.0);
        s
    }

    #[test]
    fn value_at_sample_and_hold() {
        let s = sample_series();
        assert_eq!(s.value_at(SimTime::from_secs(0)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(5)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(10)), Some(2.0));
        assert_eq!(s.value_at(SimTime::from_secs(99)), Some(4.0));
        let empty = TimeSeries::new("e");
        assert_eq!(empty.value_at(SimTime::ZERO), None);
    }

    #[test]
    fn resample_grid() {
        let s = sample_series();
        let grid = s.resample(SimDuration::from_secs(10), SimTime::from_secs(30));
        assert_eq!(
            grid,
            vec![
                (SimTime::from_secs(0), 1.0),
                (SimTime::from_secs(10), 2.0),
                (SimTime::from_secs(20), 4.0),
                (SimTime::from_secs(30), 4.0),
            ]
        );
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let s = sample_series();
        // 1.0 for 10 s + 2.0 for 10 s over 20 s = 1.5
        assert_eq!(s.time_weighted_mean(), Some(1.5));
        assert_eq!(TimeSeries::new("e").time_weighted_mean(), None);
    }

    #[test]
    fn csv_output() {
        let s = sample_series();
        let csv = s.to_csv();
        assert!(csv.starts_with("time_s,x\n"));
        assert!(csv.contains("10.000,2.000000"));
    }

    #[test]
    fn merged_csv_uses_union_grid() {
        let a = sample_series();
        let mut b = TimeSeries::new("y");
        b.push(SimTime::from_secs(5), 9.0);
        let csv = merge_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,x,y");
        // t=0 exists only in `a`; `b` has no value yet.
        assert!(lines[1].starts_with("0.000,1.000000,"));
        assert!(lines[2].starts_with("5.000,1.000000,9.000000"));
    }

    #[test]
    fn max_value() {
        assert_eq!(sample_series().max(), Some(4.0));
        assert_eq!(TimeSeries::new("e").max(), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = sample_series();
        s.push(SimTime::from_secs(1), 0.0);
    }
}
