//! Virtual failover buffers (Section V, Figure 6).
//!
//! Providers reserve idle capacity so that VMs displaced by
//! infrastructure failures can be re-created. With overclocking, the
//! static buffer becomes *virtual*: all servers run VMs during normal
//! operation, and after a failure the survivors overclock to absorb the
//! displaced load.

use ic_cluster::cluster::{Cluster, FailoverReport};
use ic_power::units::Frequency;
use ic_sim::time::SimTime;

/// The outcome of absorbing a failure with a virtual buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualBufferReport {
    /// The underlying re-placement report.
    pub failover: FailoverReport,
    /// The frequency the surviving servers were raised to.
    pub boosted_frequency: Frequency,
    /// The effective compute deficit after boosting, as a fraction of
    /// the lost capacity (0 = fully absorbed).
    pub residual_deficit: f64,
}

/// Sizes a static buffer: the number of spare servers needed to absorb
/// `tolerated_failures` failures of `server_pcores`-core servers, with
/// no overclocking.
pub fn static_buffer_servers(tolerated_failures: u32) -> u32 {
    tolerated_failures
}

/// The number of spare servers a *virtual* buffer needs: zero as long
/// as the fleet's green-band headroom covers the lost capacity.
///
/// With `n` servers, losing `k` means the survivors must supply
/// `n/(n−k)` of their base throughput; they can, if that ratio is
/// within the green headroom.
///
/// # Panics
///
/// Panics if `tolerated_failures >= fleet_size`, or if
/// `green_headroom_ratio <= 1` (without overclocking headroom a virtual
/// buffer is impossible — use [`static_buffer_servers`]).
pub fn virtual_buffer_servers(
    fleet_size: u32,
    tolerated_failures: u32,
    green_headroom_ratio: f64,
) -> u32 {
    assert!(
        fleet_size > tolerated_failures,
        "cannot lose the whole fleet"
    );
    assert!(
        green_headroom_ratio > 1.0,
        "virtual buffers need overclocking headroom > 1, got {green_headroom_ratio}"
    );
    // total/(total − k) <= r  ⇔  total >= k·r/(r − 1).
    let r = green_headroom_ratio;
    let total_needed = (tolerated_failures as f64 * r / (r - 1.0)).ceil() as u32;
    total_needed.saturating_sub(fleet_size)
}

/// Absorbs a server failure at simulation time `now` by re-creating its
/// VMs and overclocking every surviving server that hosts VMs.
///
/// # Errors
///
/// Propagates [`ic_cluster::cluster::ClusterError`] from the failover.
pub fn absorb_failure(
    cluster: &mut Cluster,
    now: SimTime,
    failed_server: usize,
    boost_to: Frequency,
) -> Result<VirtualBufferReport, ic_cluster::cluster::ClusterError> {
    let failover = cluster.fail_server(now, failed_server)?;
    let n_healthy = cluster
        .servers()
        .iter()
        .filter(|s| !s.is_failed())
        .count()
        .max(1);
    for i in 0..cluster.servers().len() {
        if !cluster.servers()[i].is_failed() {
            cluster.server_mut(i)?.set_frequency(boost_to);
        }
    }
    // Capacity accounting: lost one server of base capacity; gained
    // (ratio − 1) on each survivor.
    let boost_ratio = cluster
        .servers()
        .iter()
        .find(|s| !s.is_failed())
        .map(|s| s.overclock_ratio())
        .unwrap_or(1.0);
    let recovered = (boost_ratio - 1.0) * n_healthy as f64;
    let residual_deficit = (1.0 - recovered).max(0.0);
    Ok(VirtualBufferReport {
        failover,
        boosted_frequency: boost_to,
        residual_deficit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_cluster::placement::{Oversubscription, PlacementPolicy};
    use ic_cluster::server::ServerSpec;
    use ic_cluster::vm::VmSpec;

    fn fleet(n: usize) -> Cluster {
        Cluster::new(
            vec![ServerSpec::open_compute(); n],
            PlacementPolicy::WorstFit,
            Oversubscription::ratio(1.25),
        )
    }

    #[test]
    fn static_buffer_is_one_server_per_failure() {
        assert_eq!(static_buffer_servers(2), 2);
    }

    #[test]
    fn virtual_buffer_vanishes_with_headroom() {
        // 10 servers tolerating 1 failure: survivors need 10/9 ≈ 1.11×,
        // well within the 1.23 green band → zero spares.
        assert_eq!(virtual_buffer_servers(10, 1, 1.23), 0);
        // Tolerating 2 of 10 → 10/8 = 1.25 > 1.23 → one spare makes it
        // 11/9 ≈ 1.22 ✓.
        assert_eq!(virtual_buffer_servers(10, 2, 1.23), 1);
    }

    #[test]
    #[should_panic(expected = "overclocking headroom")]
    fn virtual_buffer_without_headroom_panics() {
        let _ = virtual_buffer_servers(10, 2, 1.0);
    }

    #[test]
    fn absorb_failure_recreates_and_boosts() {
        let mut cluster = fleet(4);
        for _ in 0..12 {
            cluster
                .create_vm(SimTime::ZERO, VmSpec::new(12, 32.0))
                .unwrap();
        }
        let report =
            absorb_failure(&mut cluster, SimTime::ZERO, 0, Frequency::from_ghz(3.3)).unwrap();
        assert!(report.failover.unplaced.is_empty(), "{report:?}");
        assert_eq!(cluster.vm_count(), 12);
        // Survivors are overclocked.
        for (i, s) in cluster.servers().iter().enumerate() {
            if i != 0 {
                assert_eq!(s.frequency(), Frequency::from_ghz(3.3));
            }
        }
        // 3 survivors × 22 % headroom recovers ~66 % of the lost server;
        // the residual is reported honestly.
        assert!(report.residual_deficit < 0.5);
    }

    #[test]
    fn large_fleet_fully_absorbs_one_failure() {
        let mut cluster = fleet(8);
        for _ in 0..16 {
            cluster
                .create_vm(SimTime::ZERO, VmSpec::new(12, 32.0))
                .unwrap();
        }
        let report =
            absorb_failure(&mut cluster, SimTime::ZERO, 3, Frequency::from_ghz(3.3)).unwrap();
        assert!(report.failover.unplaced.is_empty());
        assert_eq!(report.residual_deficit, 0.0, "7 × 0.22 > 1 lost server");
    }
}
