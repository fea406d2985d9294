//! Virtual machine specifications and instances.

use std::fmt;

/// A VM's scheduling class, mirroring the paper's distinction between
/// latency-sensitive and batch workloads and the power-capping priority
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmClass {
    /// Ordinary third-party VM.
    #[default]
    Regular,
    /// Latency-sensitive VM (capped last, never oversubscribed without
    /// consent).
    LatencySensitive,
    /// Preemptible batch VM (oversubscribed and capped first).
    Batch,
    /// A high-performance VM sold with guaranteed overclocking
    /// (Section V, "High-performance VMs").
    HighPerformance,
}

/// What a VM asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    vcores: u32,
    memory_gb: f64,
    class: VmClass,
}

impl VmSpec {
    /// Creates a regular-class VM spec.
    ///
    /// # Panics
    ///
    /// Panics if `vcores` is zero or `memory_gb` is not positive.
    pub fn new(vcores: u32, memory_gb: f64) -> Self {
        assert!(vcores > 0, "a VM needs at least one vcore");
        assert!(
            memory_gb > 0.0 && memory_gb.is_finite(),
            "invalid memory {memory_gb} GB"
        );
        VmSpec {
            vcores,
            memory_gb,
            class: VmClass::Regular,
        }
    }

    /// Sets the scheduling class.
    pub fn with_class(mut self, class: VmClass) -> Self {
        self.class = class;
        self
    }

    /// Virtual core count.
    pub fn vcores(&self) -> u32 {
        self.vcores
    }

    /// Memory request, GB.
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Scheduling class.
    pub fn class(&self) -> VmClass {
        self.class
    }
}

impl fmt::Display for VmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} VM ({} vcores, {} GB)",
            self.class, self.vcores, self.memory_gb
        )
    }
}

/// An opaque VM identifier issued by the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub(crate) u64);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// A placed VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmInstance {
    /// The VM's identifier.
    pub id: VmId,
    /// The requested resources.
    pub spec: VmSpec,
    /// The index of the hosting server in the cluster's server list.
    pub host: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors() {
        let s = VmSpec::new(4, 16.0).with_class(VmClass::Batch);
        assert_eq!(s.vcores(), 4);
        assert_eq!(s.memory_gb(), 16.0);
        assert_eq!(s.class(), VmClass::Batch);
    }

    #[test]
    fn default_class_is_regular() {
        assert_eq!(VmSpec::new(1, 1.0).class(), VmClass::Regular);
    }

    #[test]
    fn display_formats() {
        let s = VmSpec::new(2, 8.0);
        assert!(s.to_string().contains("2 vcores"));
        assert_eq!(VmId(7).to_string(), "vm-7");
    }

    #[test]
    #[should_panic(expected = "at least one vcore")]
    fn zero_vcores_panics() {
        let _ = VmSpec::new(0, 1.0);
    }
}
