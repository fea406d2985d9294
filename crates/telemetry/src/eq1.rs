//! The workload frequency-scaling law (paper Equation 1, from
//! Mubeen \[51\]).
//!
//! ```text
//! Util_{t+1} = Util_t × (p × F0/F1 + (1 − p)),   p = ΔPperf/ΔAperf
//! ```
//!
//! Productive (non-stalled) cycles shrink proportionally with a faster
//! clock; stalled cycles (memory waits) do not. The auto-scaler uses the
//! forward form to predict the effect of a frequency change and the
//! inverse form to pick the cheapest frequency that keeps utilization
//! under a threshold.

/// Predicts utilization after changing core frequency from `f0` to `f1`.
///
/// `productivity` is `ΔPperf/ΔAperf ∈ [0, 1]`; frequencies are in any
/// consistent unit (Hz, MHz, GHz).
///
/// # Panics
///
/// Panics if `util` or `productivity` is outside `[0, 1]`, or either
/// frequency is not strictly positive.
///
/// # Example
///
/// ```
/// use ic_telemetry::eq1::predict_utilization;
///
/// // A half-stalled workload benefits only half as much.
/// let u = predict_utilization(0.8, 0.5, 3.4, 4.1);
/// assert!((u - 0.8 * (0.5 * 3.4 / 4.1 + 0.5)).abs() < 1e-12);
/// ```
pub fn predict_utilization(util: f64, productivity: f64, f0: f64, f1: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&util),
        "utilization {util} outside [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&productivity),
        "productivity {productivity} outside [0, 1]"
    );
    assert!(f0 > 0.0 && f1 > 0.0, "frequencies must be positive");
    util * (productivity * f0 / f1 + (1.0 - productivity))
}

/// The minimum frequency from `candidates` (any order) that keeps
/// predicted utilization at or below `threshold`, or `None` if even the
/// fastest candidate cannot. "Minimum" because overclocking costs power
/// and lifetime, so the auto-scaler picks the least frequency that
/// satisfies the constraint (paper Section VI-D).
///
/// # Panics
///
/// Panics on the same invalid inputs as [`predict_utilization`], or if
/// `candidates` is empty.
pub fn min_frequency_for_threshold(
    util: f64,
    productivity: f64,
    f0: f64,
    candidates: &[f64],
    threshold: f64,
) -> Option<f64> {
    assert!(!candidates.is_empty(), "no candidate frequencies");
    let mut sorted: Vec<f64> = candidates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
    sorted
        .into_iter()
        .find(|&f1| predict_utilization(util, productivity, f0, f1) <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_scalable_workload_scales_inversely() {
        let u = predict_utilization(0.6, 1.0, 3.4, 4.1);
        assert!((u - 0.6 * 3.4 / 4.1).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_workload_is_unmoved() {
        let u = predict_utilization(0.6, 0.0, 3.4, 4.1);
        assert_eq!(u, 0.6);
    }

    #[test]
    fn no_frequency_change_is_identity() {
        for p in [0.0, 0.3, 0.7, 1.0] {
            assert!((predict_utilization(0.5, p, 3.4, 3.4) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn downclocking_raises_utilization() {
        let u = predict_utilization(0.4, 0.8, 4.1, 3.4);
        assert!(u > 0.4);
    }

    #[test]
    fn utilization_monotone_decreasing_in_target_frequency() {
        let mut last = f64::INFINITY;
        for f1 in [3.4, 3.5, 3.7, 3.9, 4.1] {
            let u = predict_utilization(0.7, 0.9, 3.4, f1);
            assert!(u < last);
            last = u;
        }
    }

    #[test]
    fn min_frequency_picks_cheapest_sufficient_bin() {
        // The paper's 8 bins between B2 (3.4) and OC1 (4.1).
        let bins: Vec<f64> = (0..8).map(|i| 3.4 + 0.1 * i as f64).collect();
        let f = min_frequency_for_threshold(0.45, 1.0, 3.4, &bins, 0.40).unwrap();
        // Need util×3.4/f1 ≤ 0.40 → f1 ≥ 3.825 → first bin 3.9.
        assert!((f - 3.9).abs() < 1e-9);
    }

    #[test]
    fn min_frequency_none_when_unreachable() {
        let bins = [3.4, 3.5];
        // Memory-bound: no frequency helps.
        assert_eq!(min_frequency_for_threshold(0.6, 0.0, 3.4, &bins, 0.4), None);
    }

    #[test]
    fn candidates_order_does_not_matter() {
        let a = min_frequency_for_threshold(0.5, 1.0, 3.4, &[4.1, 3.4, 3.8], 0.45);
        let b = min_frequency_for_threshold(0.5, 1.0, 3.4, &[3.4, 3.8, 4.1], 0.45);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_utilization_panics() {
        let _ = predict_utilization(1.5, 0.5, 3.4, 4.1);
    }
}
