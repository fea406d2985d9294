//! Counter-based bottleneck analysis.
//!
//! "The problem of which component to overclock and when is harder for
//! cloud providers because they usually manage VMs and have little or
//! no knowledge of the workloads running on the VMs" (Section I). The
//! paper's answer is counter-based models (Section V): the
//! Aperf/Pperf productivity ratio says how much of a VM's active time
//! scales with the core clock; the rest is stall time that only uncore
//! or memory overclocking can shorten.

use ic_telemetry::counters::CounterDelta;

/// The component a workload would benefit most from overclocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverclockTarget {
    /// Productive cycles dominate: overclock the core.
    Core,
    /// Moderate stalls: overclock the uncore/LLC alongside the core.
    CoreAndUncore,
    /// Stall-dominated: memory overclocking is required for gains.
    Memory,
    /// The VM is mostly idle; overclocking anything wastes power.
    None,
}

/// The outcome of analyzing one telemetry interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckAnalysis {
    /// The recommended overclock target.
    pub target: OverclockTarget,
    /// The productivity ratio `ΔPperf/ΔAperf` observed.
    pub productivity: f64,
    /// The interval utilization observed.
    pub utilization: f64,
    /// Expected speedup per 1 % of core-frequency increase, in percent
    /// (equals the productivity ratio).
    pub core_sensitivity: f64,
}

/// Tunable classification thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckThresholds {
    /// Below this utilization the VM is considered idle.
    pub idle_utilization: f64,
    /// Productivity at or above this ⇒ core-bound.
    pub core_bound: f64,
    /// Productivity at or above this (but below `core_bound`) ⇒ mixed;
    /// below ⇒ memory-bound.
    pub mixed: f64,
}

impl Default for BottleneckThresholds {
    fn default() -> Self {
        BottleneckThresholds {
            idle_utilization: 0.10,
            core_bound: 0.80,
            mixed: 0.50,
        }
    }
}

/// Classifies a counter interval.
///
/// # Example
///
/// ```
/// use ic_core::bottleneck::{analyze, OverclockTarget, BottleneckThresholds};
/// use ic_telemetry::counters::CoreCounters;
///
/// let mut c = CoreCounters::new();
/// let t0 = c.sample(0.0);
/// c.advance(0.9, 3.4e9, 0.05); // busy, barely stalled
/// let delta = c.sample(1.0).since(&t0);
/// let a = analyze(&delta, BottleneckThresholds::default());
/// assert_eq!(a.target, OverclockTarget::Core);
/// ```
pub fn analyze(delta: &CounterDelta, thresholds: BottleneckThresholds) -> BottleneckAnalysis {
    let productivity = delta.productivity();
    let utilization = delta.utilization();
    let target = if utilization < thresholds.idle_utilization {
        OverclockTarget::None
    } else if productivity >= thresholds.core_bound {
        OverclockTarget::Core
    } else if productivity >= thresholds.mixed {
        OverclockTarget::CoreAndUncore
    } else {
        OverclockTarget::Memory
    };
    BottleneckAnalysis {
        target,
        productivity,
        utilization,
        core_sensitivity: productivity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_telemetry::counters::CoreCounters;

    fn delta(busy_s: f64, wall_s: f64, stall: f64) -> CounterDelta {
        let mut c = CoreCounters::new();
        let t0 = c.sample(0.0);
        c.advance(busy_s, 3.4e9, stall);
        c.sample(wall_s).since(&t0)
    }

    #[test]
    fn compute_bound_targets_core() {
        let a = analyze(&delta(0.8, 1.0, 0.1), BottleneckThresholds::default());
        assert_eq!(a.target, OverclockTarget::Core);
        assert!((a.productivity - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mixed_targets_core_and_uncore() {
        let a = analyze(&delta(0.8, 1.0, 0.35), BottleneckThresholds::default());
        assert_eq!(a.target, OverclockTarget::CoreAndUncore);
    }

    #[test]
    fn stall_bound_targets_memory() {
        let a = analyze(&delta(0.8, 1.0, 0.7), BottleneckThresholds::default());
        assert_eq!(a.target, OverclockTarget::Memory);
    }

    #[test]
    fn idle_vm_gets_nothing() {
        let a = analyze(&delta(0.05, 1.0, 0.0), BottleneckThresholds::default());
        assert_eq!(a.target, OverclockTarget::None);
    }

    #[test]
    fn core_sensitivity_equals_productivity() {
        let a = analyze(&delta(0.6, 1.0, 0.25), BottleneckThresholds::default());
        assert_eq!(a.core_sensitivity, a.productivity);
        assert!((a.core_sensitivity - 0.75).abs() < 1e-12);
    }

    #[test]
    fn custom_thresholds_respected() {
        let strict = BottleneckThresholds {
            idle_utilization: 0.5,
            ..Default::default()
        };
        let a = analyze(&delta(0.3, 1.0, 0.0), strict);
        assert_eq!(a.target, OverclockTarget::None);
    }
}
