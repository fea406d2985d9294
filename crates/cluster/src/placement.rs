//! Multi-dimensional VM placement.
//!
//! Providers place VMs with multi-dimensional bin packing (the paper
//! cites Azure's Protean allocator \[28\]); the dense-packing use-case
//! tightens the vcore dimension with an oversubscription ratio and
//! relies on overclocking to absorb the rare contention events.

use crate::server::Server;
use std::fmt;

/// An invalid placement configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementError {
    /// An oversubscription ratio below 1 or non-finite.
    InvalidRatio {
        /// The rejected ratio.
        ratio: f64,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InvalidRatio { ratio } => {
                write!(f, "oversubscription ratio {ratio} must be >= 1 and finite")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// How aggressively pcores are oversubscribed.
///
/// # Example
///
/// ```
/// use ic_cluster::placement::Oversubscription;
///
/// // The paper's TCO case study: 10 % oversubscription, leveraging
/// // stranded memory on Azure servers.
/// let o = Oversubscription::ratio(1.10);
/// assert_eq!(o.vcore_capacity(48), 52);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oversubscription {
    ratio: f64,
}

impl Oversubscription {
    /// No oversubscription: 1 vcore per pcore.
    pub fn none() -> Self {
        Oversubscription { ratio: 1.0 }
    }

    /// A vcore:pcore ratio (e.g. 1.25 for the paper's 20/16 scenarios).
    /// Ratios below 1 are rejected: use live migration, not
    /// undersubscription, to shed load.
    pub fn try_ratio(ratio: f64) -> Result<Self, PlacementError> {
        if ratio >= 1.0 && ratio.is_finite() {
            Ok(Oversubscription { ratio })
        } else {
            Err(PlacementError::InvalidRatio { ratio })
        }
    }

    /// Panicking shorthand for [`Oversubscription::try_ratio`], for
    /// ratios known valid at the call site.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1` or is not finite.
    pub fn ratio(ratio: f64) -> Self {
        Self::try_ratio(ratio).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configured ratio.
    pub fn as_ratio(&self) -> f64 {
        self.ratio
    }

    /// The sellable vcore capacity of a server with `pcores` physical
    /// cores (floor of `pcores × ratio`).
    pub fn vcore_capacity(&self, pcores: u32) -> u32 {
        (pcores as f64 * self.ratio).floor() as u32
    }
}

/// The packing heuristic used to choose a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// First server with room, in index order.
    FirstFit,
    /// The server whose remaining capacity is tightest after placement
    /// (best-fit on the vcore dimension, memory as tiebreaker) —
    /// maximizes density like production allocators do.
    BestFit,
    /// The server with the most free vcores (worst-fit): spreads load,
    /// minimizing interference at the cost of density.
    WorstFit,
}

impl PlacementPolicy {
    /// Chooses a host index for a `(vcores, memory_gb)` request, or
    /// `None` if nothing fits.
    pub fn choose(
        &self,
        servers: &[Server],
        vcores: u32,
        memory_gb: f64,
        oversub: Oversubscription,
    ) -> Option<usize> {
        let fits =
            |s: &Server| s.fits(vcores, memory_gb, oversub.vcore_capacity(s.spec().pcores()));
        match self {
            PlacementPolicy::FirstFit => servers.iter().position(fits),
            PlacementPolicy::BestFit => servers
                .iter()
                .enumerate()
                .filter(|(_, s)| fits(s))
                .min_by(|(_, a), (_, b)| {
                    let rem = |s: &Server| {
                        let cap = oversub.vcore_capacity(s.spec().pcores());
                        (
                            cap - s.allocated_vcores() - vcores,
                            s.spec().memory_gb() - s.allocated_memory_gb() - memory_gb,
                        )
                    };
                    let (av, am) = rem(a);
                    let (bv, bm) = rem(b);
                    av.cmp(&bv).then(am.total_cmp(&bm))
                })
                .map(|(i, _)| i),
            PlacementPolicy::WorstFit => servers
                .iter()
                .enumerate()
                .filter(|(_, s)| fits(s))
                .max_by_key(|(_, s)| {
                    oversub.vcore_capacity(s.spec().pcores()) - s.allocated_vcores()
                })
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;
    use ic_power::units::Frequency;

    fn small(pcores: u32) -> Server {
        Server::new(ServerSpec::custom(
            pcores,
            64.0,
            Frequency::from_ghz(2.7),
            Frequency::from_ghz(3.3),
        ))
    }

    #[test]
    fn oversubscription_capacity() {
        assert_eq!(Oversubscription::none().vcore_capacity(16), 16);
        assert_eq!(Oversubscription::ratio(1.25).vcore_capacity(16), 20);
        assert_eq!(Oversubscription::ratio(1.10).vcore_capacity(48), 52);
    }

    #[test]
    fn first_fit_takes_first_with_room() {
        let mut servers = vec![small(8), small(8), small(8)];
        servers[0].allocate(8, 0.0);
        let idx = PlacementPolicy::FirstFit
            .choose(&servers, 4, 1.0, Oversubscription::none())
            .unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn best_fit_prefers_tightest() {
        let mut servers = vec![small(16), small(16)];
        servers[1].allocate(10, 0.0); // 6 free vs 16 free
        let idx = PlacementPolicy::BestFit
            .choose(&servers, 4, 1.0, Oversubscription::none())
            .unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn worst_fit_prefers_emptiest() {
        let mut servers = vec![small(16), small(16)];
        servers[0].allocate(10, 0.0);
        let idx = PlacementPolicy::WorstFit
            .choose(&servers, 4, 1.0, Oversubscription::none())
            .unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn nothing_fits_returns_none() {
        let servers = vec![small(4)];
        for p in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::BestFit,
            PlacementPolicy::WorstFit,
        ] {
            assert_eq!(p.choose(&servers, 8, 1.0, Oversubscription::none()), None);
        }
    }

    #[test]
    fn oversubscription_expands_fit() {
        let servers = vec![small(16)];
        assert_eq!(
            PlacementPolicy::FirstFit.choose(&servers, 20, 1.0, Oversubscription::none()),
            None
        );
        assert_eq!(
            PlacementPolicy::FirstFit.choose(&servers, 20, 1.0, Oversubscription::ratio(1.25)),
            Some(0)
        );
    }

    #[test]
    fn memory_constrains_even_with_free_cores() {
        let servers = vec![small(16)];
        assert_eq!(
            PlacementPolicy::BestFit.choose(&servers, 1, 100.0, Oversubscription::none()),
            None
        );
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn undersubscription_panics() {
        let _ = Oversubscription::ratio(0.5);
    }

    #[test]
    fn try_ratio_reports_typed_error() {
        assert_eq!(
            Oversubscription::try_ratio(0.5),
            Err(PlacementError::InvalidRatio { ratio: 0.5 })
        );
        assert!(Oversubscription::try_ratio(f64::NAN).is_err());
        assert!(Oversubscription::try_ratio(f64::INFINITY).is_err());
        assert_eq!(
            Oversubscription::try_ratio(1.25).unwrap(),
            Oversubscription::ratio(1.25)
        );
        let msg = PlacementError::InvalidRatio { ratio: 0.5 }.to_string();
        assert!(msg.contains("0.5") && msg.contains(">= 1"));
    }
}
