//! Analytic M/M/k and M/G/k approximations.
//!
//! The oversubscription study (Figure 12) needs latency-versus-capacity
//! curves; closed-form queueing gives them without simulation noise.
//! Erlang-C supplies the M/M/k waiting probability; the Allen–Cunneen
//! correction extends mean waiting time to general service laws; tail
//! quantiles use the standard exponential conditional-wait approximation
//! plus a lognormal service quantile.

/// The Erlang-C probability that an arriving job waits, for `k` servers
/// at offered load `a = λ/μ` (in Erlangs).
///
/// # Panics
///
/// Panics if `k == 0`, `a < 0`, or the system is unstable (`a >= k`).
///
/// # Example
///
/// ```
/// use ic_workloads::queueing::erlang_c;
///
/// // Single server: P(wait) equals utilization.
/// assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
/// ```
pub fn erlang_c(k: u32, a: f64) -> f64 {
    assert!(k > 0, "need at least one server");
    assert!(a >= 0.0 && a.is_finite(), "invalid offered load {a}");
    assert!(a < k as f64, "unstable system: a = {a} >= k = {k}");
    if a == 0.0 {
        return 0.0;
    }
    // Iteratively build the Erlang-B blocking probability, then convert.
    let mut b = 1.0; // Erlang-B with 0 servers
    for n in 1..=k {
        b = a * b / (n as f64 + a * b);
    }
    let rho = a / k as f64;
    b / (1.0 - rho + rho * b)
}

/// An M/G/k queue: Poisson arrivals at `lambda`, `k` servers, service
/// with mean `service_mean` and squared coefficient of variation `scv`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgkQueue {
    k: u32,
    lambda: f64,
    service_mean: f64,
    scv: f64,
}

impl MgkQueue {
    /// Creates a queue description.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive/invalid or the system is
    /// unstable (`λ·S >= k`).
    pub fn new(k: u32, lambda: f64, service_mean: f64, scv: f64) -> Self {
        assert!(k > 0, "need at least one server");
        assert!(lambda > 0.0 && lambda.is_finite(), "invalid lambda");
        assert!(
            service_mean > 0.0 && service_mean.is_finite(),
            "invalid service mean"
        );
        assert!(scv >= 0.0 && scv.is_finite(), "invalid SCV");
        let a = lambda * service_mean;
        assert!(a < k as f64, "unstable: offered load {a:.2} >= servers {k}");
        MgkQueue {
            k,
            lambda,
            service_mean,
            scv,
        }
    }

    /// Offered load in Erlangs, `λ·S`.
    pub fn offered_load(&self) -> f64 {
        self.lambda * self.service_mean
    }

    /// Per-server utilization `ρ = λ·S / k`.
    pub fn utilization(&self) -> f64 {
        self.offered_load() / self.k as f64
    }

    /// The probability an arrival waits (Erlang-C on the M/M/k skeleton).
    pub fn wait_probability(&self) -> f64 {
        erlang_c(self.k, self.offered_load())
    }

    /// Mean waiting time (Allen–Cunneen approximation):
    /// `W_q ≈ C(k, a) / (kμ − λ) × (1 + SCV)/2`.
    pub fn mean_wait(&self) -> f64 {
        let mu = 1.0 / self.service_mean;
        let c = self.wait_probability();
        c / (self.k as f64 * mu - self.lambda) * (1.0 + self.scv) / 2.0
    }

    /// Mean sojourn (response) time: wait plus service.
    pub fn mean_sojourn(&self) -> f64 {
        self.mean_wait() + self.service_mean
    }

    /// Approximate `q`-quantile of the sojourn time: the lognormal
    /// service quantile plus the exponential-tail waiting quantile
    /// `max(0, ln(C/(1−q)) / (kμ(1−ρ)))`, with the waiting rate scaled
    /// by the Allen–Cunneen factor.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn sojourn_quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&q) && q > 0.0,
            "quantile {q} outside (0, 1)"
        );
        let c = self.wait_probability();
        let mu = 1.0 / self.service_mean;
        let drain = self.k as f64 * mu * (1.0 - self.utilization()) * 2.0 / (1.0 + self.scv);
        let wait_q = if c > 1.0 - q {
            (c / (1.0 - q)).ln() / drain
        } else {
            0.0
        };
        self.service_quantile(q) + wait_q
    }

    /// The `q`-quantile of a lognormal service law with this queue's
    /// mean and SCV.
    pub fn service_quantile(&self, q: f64) -> f64 {
        let sigma2 = (1.0 + self.scv).ln();
        let sigma = sigma2.sqrt();
        let mu_ln = self.service_mean.ln() - sigma2 / 2.0;
        (mu_ln + sigma * normal_quantile(q)).exp()
    }
}

/// The standard normal quantile (inverse CDF), Acklam's rational
/// approximation (relative error < 1.2e-9 over (0, 1)).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability {p} outside (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_single_server_equals_rho() {
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(1, rho) - rho).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic call-centre example: k = 10, a = 8 → C ≈ 0.409.
        let c = erlang_c(10, 8.0);
        assert!((c - 0.409).abs() < 0.005, "C = {c}");
    }

    #[test]
    fn erlang_c_monotone_in_load() {
        let mut last = 0.0;
        for a in [1.0, 4.0, 8.0, 11.0] {
            let c = erlang_c(12, a);
            assert!(c > last);
            last = c;
        }
    }

    #[test]
    fn mgk_reduces_to_mm1() {
        // M/M/1: W_q = ρ/(μ−λ) with SCV = 1.
        let q = MgkQueue::new(1, 0.5, 1.0, 1.0);
        assert!((q.mean_wait() - 0.5 / 0.5).abs() < 1e-9);
        assert!((q.mean_sojourn() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scv_scales_mean_wait() {
        let exp = MgkQueue::new(4, 3.0, 1.0, 1.0);
        let det = MgkQueue::new(4, 3.0, 1.0, 0.0);
        let heavy = MgkQueue::new(4, 3.0, 1.0, 3.0);
        assert!((det.mean_wait() - exp.mean_wait() / 2.0).abs() < 1e-9);
        assert!((heavy.mean_wait() - exp.mean_wait() * 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_servers_less_waiting() {
        let small = MgkQueue::new(12, 1000.0, 0.01, 1.5);
        let big = MgkQueue::new(16, 1000.0, 0.01, 1.5);
        assert!(big.mean_wait() < small.mean_wait());
        assert!(big.sojourn_quantile(0.95) < small.sojourn_quantile(0.95));
    }

    #[test]
    fn sojourn_quantile_exceeds_mean_components() {
        let q = MgkQueue::new(8, 600.0, 0.01, 1.5);
        let p95 = q.sojourn_quantile(0.95);
        assert!(p95 > q.service_mean);
        assert!(p95 >= q.service_quantile(0.95));
    }

    #[test]
    fn light_load_p95_is_service_p95() {
        let q = MgkQueue::new(16, 10.0, 0.01, 1.0);
        // Essentially no waiting at utilization 0.6 %.
        assert!((q.sojourn_quantile(0.95) - q.service_quantile(0.95)).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_symmetric_and_accurate() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.95996).abs() < 1e-4);
        assert!((normal_quantile(0.95) - 1.64485).abs() < 1e-4);
        assert!((normal_quantile(0.05) + normal_quantile(0.95)).abs() < 1e-9);
        assert!((normal_quantile(0.001) + 3.0902).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_queue_panics() {
        let _ = MgkQueue::new(4, 500.0, 0.01, 1.0);
    }
}
