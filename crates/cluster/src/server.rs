//! Physical hosts.

use ic_power::units::Frequency;

/// The hardware shape of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    pcores: u32,
    memory_gb: f64,
    base_frequency: Frequency,
    max_overclock: Frequency,
}

impl ServerSpec {
    /// The large-tank Open Compute dual-socket blade: 2 × 24 cores,
    /// 384 GB, 2.7 GHz all-core in 2PIC, overclockable to +23 %.
    pub fn open_compute() -> Self {
        ServerSpec {
            pcores: 48,
            memory_gb: 384.0,
            base_frequency: Frequency::from_ghz(2.7),
            max_overclock: Frequency::from_ghz(3.3),
        }
    }

    /// A custom shape.
    ///
    /// # Panics
    ///
    /// Panics if `pcores` is zero, memory is not positive, or the
    /// overclock ceiling is below the base frequency.
    pub fn custom(
        pcores: u32,
        memory_gb: f64,
        base_frequency: Frequency,
        max_overclock: Frequency,
    ) -> Self {
        assert!(pcores > 0, "a server needs cores");
        assert!(memory_gb > 0.0 && memory_gb.is_finite(), "invalid memory");
        assert!(max_overclock >= base_frequency, "overclock below base");
        ServerSpec {
            pcores,
            memory_gb,
            base_frequency,
            max_overclock,
        }
    }

    /// Physical cores.
    pub fn pcores(&self) -> u32 {
        self.pcores
    }

    /// Installed memory, GB.
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Base (non-overclocked) all-core frequency.
    pub fn base_frequency(&self) -> Frequency {
        self.base_frequency
    }

    /// The highest allowed overclock.
    pub fn max_overclock(&self) -> Frequency {
        self.max_overclock
    }
}

/// A server's live state inside a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    spec: ServerSpec,
    allocated_vcores: u32,
    allocated_memory_gb: f64,
    frequency: Frequency,
    failed: bool,
}

impl Server {
    /// Creates a healthy, empty server at base frequency.
    pub fn new(spec: ServerSpec) -> Self {
        Server {
            spec,
            allocated_vcores: 0,
            allocated_memory_gb: 0.0,
            frequency: spec.base_frequency(),
            failed: false,
        }
    }

    /// The hardware shape.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Currently allocated vcores.
    pub fn allocated_vcores(&self) -> u32 {
        self.allocated_vcores
    }

    /// Currently allocated memory, GB.
    pub fn allocated_memory_gb(&self) -> f64 {
        self.allocated_memory_gb
    }

    /// The server's current all-core frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Sets the all-core frequency, clamped to `[base, max_overclock]`.
    pub fn set_frequency(&mut self, f: Frequency) {
        self.frequency = f.clamp(self.spec.base_frequency(), self.spec.max_overclock());
    }

    /// The overclock ratio versus base frequency (1.0 = base).
    pub fn overclock_ratio(&self) -> f64 {
        self.frequency.ratio_to(self.spec.base_frequency())
    }

    /// `true` if the server has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Marks the server failed (its VMs must be re-created elsewhere).
    pub(crate) fn fail(&mut self) {
        self.failed = true;
    }

    /// Restores a failed server to service, empty.
    pub(crate) fn repair(&mut self) {
        self.failed = false;
        self.allocated_vcores = 0;
        self.allocated_memory_gb = 0.0;
        self.frequency = self.spec.base_frequency();
    }

    /// Whether a request fits under the given vcore capacity (already
    /// scaled for oversubscription).
    pub(crate) fn fits(&self, vcores: u32, memory_gb: f64, vcore_capacity: u32) -> bool {
        !self.failed
            && self.allocated_vcores + vcores <= vcore_capacity
            && self.allocated_memory_gb + memory_gb <= self.spec.memory_gb()
    }

    pub(crate) fn allocate(&mut self, vcores: u32, memory_gb: f64) {
        self.allocated_vcores += vcores;
        self.allocated_memory_gb += memory_gb;
    }

    pub(crate) fn release(&mut self, vcores: u32, memory_gb: f64) {
        assert!(
            self.allocated_vcores >= vcores,
            "releasing unallocated vcores"
        );
        self.allocated_vcores -= vcores;
        self.allocated_memory_gb = (self.allocated_memory_gb - memory_gb).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_compute_shape() {
        let s = ServerSpec::open_compute();
        assert_eq!(s.pcores(), 48);
        assert_eq!(s.memory_gb(), 384.0);
        assert!(s.max_overclock() > s.base_frequency());
    }

    #[test]
    fn frequency_clamped_to_spec() {
        let mut srv = Server::new(ServerSpec::custom(
            28,
            128.0,
            Frequency::from_ghz(3.4),
            Frequency::from_ghz(4.1),
        ));
        srv.set_frequency(Frequency::from_ghz(9.0));
        assert_eq!(srv.frequency(), Frequency::from_ghz(4.1));
        srv.set_frequency(Frequency::from_ghz(1.0));
        assert_eq!(srv.frequency(), Frequency::from_ghz(3.4));
    }

    #[test]
    fn overclock_ratio_tracks_frequency() {
        let mut srv = Server::new(ServerSpec::custom(
            28,
            128.0,
            Frequency::from_ghz(3.4),
            Frequency::from_ghz(4.1),
        ));
        assert_eq!(srv.overclock_ratio(), 1.0);
        srv.set_frequency(Frequency::from_ghz(4.1));
        assert!((srv.overclock_ratio() - 4.1 / 3.4).abs() < 1e-9);
    }

    #[test]
    fn allocation_bookkeeping() {
        let mut srv = Server::new(ServerSpec::open_compute());
        assert!(srv.fits(24, 100.0, 48));
        srv.allocate(24, 100.0);
        assert!(!srv.fits(25, 10.0, 48));
        assert!(srv.fits(24, 10.0, 48));
        srv.release(24, 100.0);
        assert_eq!(srv.allocated_vcores(), 0);
        assert_eq!(srv.allocated_memory_gb(), 0.0);
    }

    #[test]
    fn failed_server_fits_nothing() {
        let mut srv = Server::new(ServerSpec::open_compute());
        srv.fail();
        assert!(!srv.fits(1, 1.0, 48));
        srv.repair();
        assert!(srv.fits(1, 1.0, 48));
    }

    #[test]
    fn memory_is_a_packing_dimension() {
        let mut srv = Server::new(ServerSpec::custom(
            64,
            32.0,
            Frequency::from_ghz(2.0),
            Frequency::from_ghz(2.0),
        ));
        assert!(!srv.fits(1, 33.0, 64));
        srv.allocate(1, 32.0);
        assert!(!srv.fits(1, 0.1, 64));
    }
}
