//! Temperature- and voltage-dependent static (leakage) power.
//!
//! Operating at higher junction temperatures increases leakage power
//! exponentially (Su et al. \[65\] in the paper). The paper measures that
//! immersion's 17–22 °C junction-temperature reduction saves **11 W of
//! static power per socket** at iso-performance (Section IV, "Power
//! consumption"); this module's default model is calibrated to reproduce
//! exactly that.

use ic_scenario::{LeakageSpec, PowerCalibration};

use crate::units::Voltage;

/// An exponential leakage model: `P_static(T, V) = k · V² · exp(β·T)`.
///
/// # Example
///
/// ```
/// use ic_power::leakage::LeakageModel;
/// use ic_power::units::Voltage;
///
/// let m = LeakageModel::skylake();
/// let v = Voltage::from_volts(0.90);
/// // Cooling the junction from 92 °C (air) to 68 °C (2PIC) saves ~11 W.
/// let saved = m.power_w(92.0, v) - m.power_w(68.0, v);
/// assert!((saved - 11.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Scale factor, watts at V = 1 V and T = 0 °C.
    k: f64,
    /// Exponential temperature coefficient, 1/°C. Silicon leakage roughly
    /// doubles every 30 °C, i.e. β ≈ 0.023.
    beta: f64,
}

impl LeakageModel {
    /// Creates a leakage model from its raw coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is non-positive or non-finite.
    pub fn new(k: f64, beta: f64) -> Self {
        assert!(k.is_finite() && k > 0.0, "invalid k {k}");
        assert!(beta.is_finite() && beta > 0.0, "invalid beta {beta}");
        LeakageModel { k, beta }
    }

    /// Builds a model from a scenario's leakage coefficients.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LeakageModel::new`]; a spec
    /// from a validated [`ic_scenario::Scenario`] never does.
    pub fn from_spec(spec: &LeakageSpec) -> Self {
        Self::new(spec.k_w_per_v2, spec.beta_per_c)
    }

    /// The Skylake-class model calibrated so that a 0.90 V socket leaks
    /// 11 W more at 92 °C (air-cooled Table III junction temperature)
    /// than at 68 °C (2PIC), with β = 0.022/°C.
    pub fn skylake() -> Self {
        Self::from_spec(&PowerCalibration::paper().leakage)
    }

    /// The scale factor `k`, watts at V = 1 V and T = 0 °C.
    pub fn k_w_per_v2(&self) -> f64 {
        self.k
    }

    /// The exponential temperature coefficient `β`, 1/°C.
    pub fn beta_per_c(&self) -> f64 {
        self.beta
    }

    /// Static power in watts at junction temperature `tj_c` and rail
    /// voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `tj_c` is non-finite or outside a physical (−50, 150) °C
    /// range.
    pub fn power_w(&self, tj_c: f64, v: Voltage) -> f64 {
        assert!(
            tj_c.is_finite() && (-50.0..150.0).contains(&tj_c),
            "implausible junction temperature {tj_c} °C"
        );
        let volts = v.volts();
        self.k * volts * volts * (self.beta * tj_c).exp()
    }

    /// The saving from cooling the junction from `hot_c` to `cold_c` at
    /// voltage `v`. Negative if `cold_c > hot_c`.
    pub fn saving_w(&self, hot_c: f64, cold_c: f64, v: Voltage) -> f64 {
        self.power_w(hot_c, v) - self.power_w(cold_c, v)
    }

    /// The exponential temperature coefficient β (1/°C).
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_saves_11w_per_socket() {
        let m = LeakageModel::skylake();
        let saved = m.saving_w(92.0, 68.0, Voltage::from_volts(0.90));
        assert!((saved - 11.0).abs() < 1e-9, "saved = {saved}");
    }

    #[test]
    fn leakage_grows_exponentially_with_temperature() {
        let m = LeakageModel::skylake();
        let v = Voltage::from_volts(0.90);
        let p50 = m.power_w(50.0, v);
        let p80 = m.power_w(80.0, v);
        let p110 = m.power_w(110.0, v);
        // Doubling roughly every 30 °C at β = 0.022 → ×1.93.
        assert!((p80 / p50 - (0.022f64 * 30.0).exp()).abs() < 1e-9);
        assert!(p110 / p80 > 1.9 && p110 / p80 < 2.0);
    }

    #[test]
    fn leakage_scales_with_v_squared() {
        let m = LeakageModel::skylake();
        let lo = m.power_w(70.0, Voltage::from_volts(0.90));
        let hi = m.power_w(70.0, Voltage::from_volts(0.98));
        assert!((hi / lo - (0.98f64 / 0.90).powi(2)).abs() < 1e-6);
    }

    #[test]
    fn magnitude_is_plausible_share_of_tdp() {
        // At the air-cooled operating point leakage should be a modest
        // fraction of the 205 W TDP (10–20 %).
        let m = LeakageModel::skylake();
        let p = m.power_w(92.0, Voltage::from_volts(0.90));
        assert!((20.0..41.0).contains(&p), "leakage = {p} W");
    }

    #[test]
    fn saving_sign_convention() {
        let m = LeakageModel::skylake();
        let v = Voltage::from_volts(0.9);
        assert!(m.saving_w(90.0, 60.0, v) > 0.0);
        assert!(m.saving_w(60.0, 90.0, v) < 0.0);
    }

    #[test]
    #[should_panic(expected = "implausible junction temperature")]
    fn absurd_temperature_panics() {
        let _ = LeakageModel::skylake().power_w(400.0, Voltage::from_volts(0.9));
    }
}
