//! SLO-driven capacity planning: cores required to hold a latency
//! target, with and without overclocking.
//!
//! Figure 12's finding — OC3 with 12 pcores matches B2 with 16 — is one
//! point of a general trade: for any latency SLO, faster cores need
//! fewer of them. This module inverts the analytic M/G/k model: given
//! an arrival rate, a service law, and a P95 target, find the minimum
//! server count; the ratio between the base-frequency and overclocked
//! answers is the capacity the provider reclaims.

use crate::queueing::MgkQueue;

/// A tail-latency service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySlo {
    /// The quantile the target applies to (e.g. 0.95).
    pub quantile: f64,
    /// The latency bound, seconds.
    pub target_s: f64,
}

impl LatencySlo {
    /// Creates an SLO.
    ///
    /// # Panics
    ///
    /// Panics if the quantile is outside `(0, 1)` or the target is not
    /// positive.
    pub fn new(quantile: f64, target_s: f64) -> Self {
        assert!(quantile > 0.0 && quantile < 1.0, "invalid quantile");
        assert!(target_s > 0.0 && target_s.is_finite(), "invalid target");
        LatencySlo { quantile, target_s }
    }
}

/// The minimum number of servers (cores) meeting `slo` at arrival rate
/// `lambda` with the given service law, or `None` if even `max_k`
/// servers cannot (the SLO is below the service time itself).
///
/// # Panics
///
/// Panics if `lambda` or `service_mean` is not positive, or `max_k` is
/// zero.
pub fn required_servers(
    lambda: f64,
    service_mean: f64,
    scv: f64,
    slo: LatencySlo,
    max_k: u32,
) -> Option<u32> {
    assert!(lambda > 0.0 && service_mean > 0.0, "invalid load");
    assert!(max_k > 0, "need a positive search bound");
    let min_k = (lambda * service_mean).floor() as u32 + 1; // stability
    for k in min_k..=max_k {
        let q = MgkQueue::new(k, lambda, service_mean, scv);
        if q.sojourn_quantile(slo.quantile) <= slo.target_s {
            return Some(k);
        }
    }
    None
}

/// The capacity reclaimed by overclocking: how many fewer servers hold
/// the same SLO when service is `speedup`× faster. Returns
/// `(base_servers, overclocked_servers)`.
///
/// # Panics
///
/// Panics if `speedup < 1`, or propagates from [`required_servers`].
pub fn reclaimed_capacity(
    lambda: f64,
    service_mean: f64,
    scv: f64,
    slo: LatencySlo,
    speedup: f64,
    max_k: u32,
) -> Option<(u32, u32)> {
    assert!(speedup >= 1.0 && speedup.is_finite(), "invalid speedup");
    let base = required_servers(lambda, service_mean, scv, slo, max_k)?;
    let oc = required_servers(lambda, service_mean / speedup, scv, slo, max_k)?;
    Some((base, oc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo_ms(ms: f64) -> LatencySlo {
        LatencySlo::new(0.95, ms / 1000.0)
    }

    #[test]
    fn required_servers_monotone_in_load() {
        let mut last = 0;
        for lambda in [200.0, 500.0, 1000.0, 1500.0] {
            let k = required_servers(lambda, 0.01, 1.5, slo_ms(40.0), 64).unwrap();
            assert!(k >= last, "λ={lambda}: k={k}");
            last = k;
        }
    }

    #[test]
    fn tighter_slo_needs_more_servers() {
        let loose = required_servers(1000.0, 0.01, 1.5, slo_ms(60.0), 64).unwrap();
        let tight = required_servers(1000.0, 0.01, 1.5, slo_ms(34.0), 64).unwrap();
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn impossible_slo_returns_none() {
        // The target is below the P95 of the service law itself: no
        // number of servers helps.
        assert_eq!(required_servers(100.0, 0.01, 1.5, slo_ms(5.0), 256), None);
    }

    #[test]
    fn figure12_shape_generalizes() {
        // At the Figure 12 operating point, a 20.6 % core overclock
        // (with SQL's full OC3 speedup ~1.21) frees several of 16 cores.
        let (base, oc) = reclaimed_capacity(1150.0, 0.01, 1.5, slo_ms(34.0), 1.206, 64).unwrap();
        assert!(base >= oc + 2, "base {base} vs oc {oc}");
        assert!((14..=18).contains(&base), "base {base}");
    }

    #[test]
    fn the_answer_actually_meets_the_slo() {
        let slo = slo_ms(40.0);
        let k = required_servers(900.0, 0.01, 1.5, slo, 64).unwrap();
        let q = MgkQueue::new(k, 900.0, 0.01, 1.5);
        assert!(q.sojourn_quantile(0.95) <= slo.target_s);
        // And k−1 must NOT meet it (minimality), unless k−1 is unstable.
        if (k - 1) as f64 > 900.0 * 0.01 {
            let q = MgkQueue::new(k - 1, 900.0, 0.01, 1.5);
            assert!(q.sojourn_quantile(0.95) > slo.target_s);
        }
    }

    #[test]
    fn unit_speedup_reclaims_nothing() {
        let (base, oc) = reclaimed_capacity(800.0, 0.01, 1.0, slo_ms(40.0), 1.0, 64).unwrap();
        assert_eq!(base, oc);
    }

    #[test]
    #[should_panic(expected = "invalid speedup")]
    fn sub_unit_speedup_panics() {
        let _ = reclaimed_capacity(800.0, 0.01, 1.0, slo_ms(40.0), 0.9, 64);
    }
}
