//! Auto-scaler policies and configuration.

/// Which of the paper's three auto-scaling strategies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Scale-out/in only, at fixed B2 frequency.
    Baseline,
    /// "Overclock while scaling out": jump to the top frequency bin the
    /// moment the scale-out threshold is crossed, and stay there until
    /// the new VM is serving; no scale-up/down thresholds.
    OcE,
    /// "Overclock before scaling out": hold utilization below the
    /// scale-up threshold with the minimum sufficient frequency,
    /// postponing or avoiding scale-out.
    OcA,
    /// Proactive scale-out without overclocking: forecast utilization
    /// one VM-creation-latency ahead (linear trend over the long
    /// window) and scale out when the *forecast* crosses the threshold.
    /// Models the predictive autoscaling the paper cites \[8\] as the
    /// state of the art it complements.
    Predictive,
}

impl Policy {
    /// The label used in Table XI.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Baseline => "Baseline",
            Policy::OcE => "OC-E",
            Policy::OcA => "OC-A",
            Policy::Predictive => "Predictive",
        }
    }
}

/// Which telemetry signal drives the scaling thresholds. "Although CPU
/// utilization is the most common metric for auto-scaling, some users
/// specify others like memory utilization, thread count, or queue
/// length" (paper Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScalingMetric {
    /// Average CPU utilization of the server VMs (the paper's default).
    #[default]
    Utilization,
    /// Mean queued-requests-per-vcore, squashed through `q/(q+1)` so the
    /// same 0–1 thresholds apply (0 queue → 0, deep queue → 1).
    QueueLength,
}

/// The control-loop parameters (paper Section VI-D experimental setup).
#[derive(Debug, Clone, PartialEq)]
pub struct AscConfig {
    /// Scale out when the long-window mean utilization exceeds this.
    pub scale_out_threshold: f64,
    /// Scale in when it falls below this.
    pub scale_in_threshold: f64,
    /// Scale up when the short-window mean utilization exceeds this.
    pub scale_up_threshold: f64,
    /// Scale down toward base frequency below this.
    pub scale_down_threshold: f64,
    /// Long (scale-out/in) averaging window, seconds.
    pub out_window_s: f64,
    /// Short (scale-up/down) averaging window, seconds.
    pub up_window_s: f64,
    /// Control decision period, seconds.
    pub decision_period_s: f64,
    /// How long a scale-out takes before the VM serves, seconds.
    pub scale_out_latency_s: f64,
    /// Fractional capacity the serving VMs lose while a scale-out is in
    /// flight (image transfer / network traffic — the paper emulates "the
    /// impact of network traffic" in its 60-second scale-outs).
    pub scale_out_interference: f64,
    /// Minimum time after a topology change (VM added or removed) before
    /// another scale-out/in decision, seconds — lets the backlog drain
    /// so the utilization windows reflect the new capacity.
    pub cooldown_s: f64,
    /// Never scale in below this many VMs.
    pub min_vms: usize,
    /// Never scale out beyond this many VMs.
    pub max_vms: usize,
    /// The selectable frequency ratios (relative to B2), ascending.
    pub freq_ratios: Vec<f64>,
    /// The signal driving the scale-out/in thresholds.
    pub metric: ScalingMetric,
}

impl AscConfig {
    /// The paper's setup: 50 %/20 % out/in on a 3-minute window,
    /// 40 %/20 % up/down on a 30-second window, 3-second decisions,
    /// 60-second scale-out latency, and 8 bins from 3.4 to 4.1 GHz.
    pub fn paper() -> Self {
        let bins = 8;
        let freq_ratios = (0..bins).map(|i| (3.4 + 0.1 * i as f64) / 3.4).collect();
        AscConfig {
            scale_out_threshold: 0.50,
            scale_in_threshold: 0.20,
            scale_up_threshold: 0.40,
            scale_down_threshold: 0.20,
            out_window_s: 180.0,
            up_window_s: 30.0,
            decision_period_s: 3.0,
            scale_out_latency_s: 60.0,
            scale_out_interference: 0.32,
            cooldown_s: 90.0,
            min_vms: 1,
            max_vms: 10,
            freq_ratios,
            metric: ScalingMetric::Utilization,
        }
    }

    /// The highest selectable ratio.
    pub fn max_ratio(&self) -> f64 {
        *self
            .freq_ratios
            .last()
            .expect("config has at least one frequency ratio")
    }

    /// The lowest (base) ratio.
    pub fn base_ratio(&self) -> f64 {
        *self
            .freq_ratios
            .first()
            .expect("config has at least one frequency ratio")
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are disordered, windows or periods are
    /// non-positive, ratios are not ascending from 1.0, or VM bounds are
    /// inverted.
    pub fn validate(&self) {
        assert!(
            0.0 < self.scale_in_threshold && self.scale_in_threshold < self.scale_out_threshold,
            "scale-in must sit below scale-out"
        );
        assert!(
            self.scale_up_threshold <= self.scale_out_threshold,
            "scale-up must not exceed scale-out"
        );
        assert!(
            self.scale_down_threshold <= self.scale_up_threshold,
            "scale-down must not exceed scale-up"
        );
        assert!(self.decision_period_s > 0.0 && self.out_window_s > 0.0 && self.up_window_s > 0.0);
        assert!(self.scale_out_latency_s >= 0.0);
        assert!(
            (0.0..1.0).contains(&self.scale_out_interference),
            "interference must be in [0, 1)"
        );
        assert!(self.cooldown_s >= 0.0, "cooldown must be non-negative");
        assert!(self.min_vms >= 1 && self.min_vms <= self.max_vms);
        assert!(!self.freq_ratios.is_empty(), "need frequency bins");
        assert!(
            (self.freq_ratios[0] - 1.0).abs() < 1e-9,
            "the lowest ratio must be 1.0 (B2)"
        );
        assert!(
            self.freq_ratios.windows(2).all(|w| w[0] < w[1]),
            "ratios must ascend"
        );
    }
}

impl Default for AscConfig {
    fn default() -> Self {
        AscConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let c = AscConfig::paper();
        c.validate();
        assert_eq!(c.freq_ratios.len(), 8);
        assert!((c.max_ratio() - 4.1 / 3.4).abs() < 1e-9);
        assert_eq!(c.base_ratio(), 1.0);
        assert_eq!(c.scale_out_threshold, 0.50);
        assert_eq!(c.scale_up_threshold, 0.40);
        assert_eq!(c.scale_out_latency_s, 60.0);
    }

    #[test]
    fn labels() {
        assert_eq!(Policy::Baseline.label(), "Baseline");
        assert_eq!(Policy::OcE.label(), "OC-E");
        assert_eq!(Policy::OcA.label(), "OC-A");
    }

    #[test]
    #[should_panic(expected = "scale-in must sit below scale-out")]
    fn disordered_thresholds_panic() {
        let mut c = AscConfig::paper();
        c.scale_in_threshold = 0.9;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "ratios must ascend")]
    fn disordered_ratios_panic() {
        let mut c = AscConfig::paper();
        c.freq_ratios = vec![1.0, 1.2, 1.1];
        c.validate();
    }
}
