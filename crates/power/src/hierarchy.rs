//! Hierarchical power delivery: datacenter → row → rack → server.
//!
//! The paper warns that "overclocking in oversubscribed datacenters
//! increases the chance of hitting limits and triggering power capping
//! mechanisms" at any level of the delivery hierarchy (Section IV,
//! citing Dynamo \[70\] and priority-aware capping \[38\], \[62\]). This
//! module nests [`PowerAllocator`]s: a request must fit under its
//! server's rack budget, the rack under its row, the row under the
//! facility breaker — and capping cascades top-down so a hot row
//! squeezes its own racks before neighbours feel anything.

use crate::capping::{PowerAllocator, PowerGrant, PowerRequest};

/// A node in the power-delivery tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDomain {
    name: String,
    budget_w: f64,
    children: Vec<PowerDomain>,
    /// Leaf domains hold the consumer requests directly.
    requests: Vec<PowerRequest>,
}

impl PowerDomain {
    /// Creates an interior domain with child domains.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive or `children` is empty.
    pub fn interior(name: impl Into<String>, budget_w: f64, children: Vec<PowerDomain>) -> Self {
        assert!(budget_w > 0.0 && budget_w.is_finite(), "invalid budget");
        assert!(!children.is_empty(), "interior domain needs children");
        PowerDomain {
            name: name.into(),
            budget_w,
            children,
            requests: Vec::new(),
        }
    }

    /// Creates a leaf domain (e.g. a rack) with direct consumers.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn leaf(name: impl Into<String>, budget_w: f64, requests: Vec<PowerRequest>) -> Self {
        assert!(budget_w > 0.0 && budget_w.is_finite(), "invalid budget");
        PowerDomain {
            name: name.into(),
            budget_w,
            children: Vec::new(),
            requests,
        }
    }

    /// The domain label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's breaker budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// Total demand underneath this domain, watts.
    pub fn total_demand_w(&self) -> f64 {
        if self.children.is_empty() {
            self.requests.iter().map(|r| r.demand_w).sum()
        } else {
            self.children.iter().map(|c| c.total_demand_w()).sum()
        }
    }

    /// Total floors underneath this domain, watts.
    pub fn total_floor_w(&self) -> f64 {
        if self.children.is_empty() {
            self.requests.iter().map(|r| r.floor_w).sum()
        } else {
            self.children.iter().map(|c| c.total_floor_w()).sum()
        }
    }

    /// The oversubscription ratio of this domain: demand / budget.
    pub fn oversubscription(&self) -> f64 {
        self.total_demand_w() / self.budget_w
    }

    /// Resolves the whole tree top-down: each domain receives
    /// `min(own budget, parent's grant share)` and distributes it to its
    /// children proportionally to their demand (floors always honoured),
    /// with leaves running the priority-aware allocator. Returns all
    /// leaf grants as `(domain name, grant)` pairs in depth-first order.
    pub fn resolve(&self) -> Vec<(String, PowerGrant)> {
        let effective = self.budget_w;
        self.resolve_with(effective)
    }

    fn resolve_with(&self, granted_w: f64) -> Vec<(String, PowerGrant)> {
        let effective = granted_w.min(self.budget_w);
        if self.children.is_empty() {
            return PowerAllocator::new(effective.max(0.0))
                .allocate(&self.requests)
                .into_iter()
                .map(|g| (self.name.clone(), g))
                .collect();
        }
        // Distribute to children: floors first, then remaining budget
        // funds priority classes top-down *across* children (a critical
        // rack outranks a batch rack elsewhere in the row), proportional
        // within a class.
        let floors: Vec<f64> = self.children.iter().map(|c| c.total_floor_w()).collect();
        let class_headrooms: Vec<[f64; 3]> = self
            .children
            .iter()
            .map(|c| c.headroom_by_priority())
            .collect();
        let total_floor: f64 = floors.iter().sum();
        let mut spare = (effective - total_floor).max(0.0);
        let mut funded: Vec<f64> = vec![0.0; self.children.len()];
        // Class index 2 = Critical, 0 = Batch.
        for class in (0..3).rev() {
            let class_total: f64 = class_headrooms.iter().map(|h| h[class]).sum();
            if class_total <= 0.0 {
                continue;
            }
            let ratio = (spare / class_total).min(1.0);
            for (f, h) in funded.iter_mut().zip(&class_headrooms) {
                *f += h[class] * ratio;
            }
            spare -= class_total * ratio;
            if spare <= 0.0 {
                break;
            }
        }
        let mut out = Vec::new();
        for ((child, floor), fund) in self.children.iter().zip(&floors).zip(&funded) {
            out.extend(child.resolve_with(floor + fund));
        }
        out
    }

    /// Above-floor demand underneath this domain, split by priority
    /// class (`[Batch, Normal, Critical]`).
    fn headroom_by_priority(&self) -> [f64; 3] {
        if self.children.is_empty() {
            let mut out = [0.0; 3];
            for r in &self.requests {
                out[r.priority as usize] += (r.demand_w - r.floor_w).max(0.0);
            }
            out
        } else {
            let mut out = [0.0; 3];
            for c in &self.children {
                let h = c.headroom_by_priority();
                for i in 0..3 {
                    out[i] += h[i];
                }
            }
            out
        }
    }

    /// `true` if any domain in the tree is oversubscribed (demand above
    /// its own budget).
    pub fn any_oversubscribed(&self) -> bool {
        if self.oversubscription() > 1.0 {
            return true;
        }
        self.children.iter().any(|c| c.any_oversubscribed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capping::Priority;

    fn req(id: u64, pri: Priority, floor: f64, demand: f64) -> PowerRequest {
        PowerRequest {
            id,
            priority: pri,
            floor_w: floor,
            demand_w: demand,
        }
    }

    fn rack(name: &str, budget: f64, n: usize, pri: Priority) -> PowerDomain {
        PowerDomain::leaf(
            name,
            budget,
            (0..n as u64).map(|i| req(i, pri, 150.0, 305.0)).collect(),
        )
    }

    #[test]
    fn uncontended_tree_grants_demand() {
        let dc = PowerDomain::interior(
            "dc",
            10_000.0,
            vec![rack("rack-a", 4000.0, 8, Priority::Normal)],
        );
        let grants = dc.resolve();
        assert_eq!(grants.len(), 8);
        assert!(grants.iter().all(|(_, g)| !g.capped));
    }

    #[test]
    fn rack_breaker_caps_locally() {
        // The rack budget binds even though the DC has headroom.
        let dc = PowerDomain::interior(
            "dc",
            100_000.0,
            vec![
                rack("rack-a", 2000.0, 8, Priority::Normal), // demand 2440
                rack("rack-b", 4000.0, 8, Priority::Normal),
            ],
        );
        let grants = dc.resolve();
        let a_total: f64 = grants
            .iter()
            .filter(|(n, _)| n == "rack-a")
            .map(|(_, g)| g.granted_w)
            .sum();
        let b_capped = grants
            .iter()
            .filter(|(n, _)| n == "rack-b")
            .any(|(_, g)| g.capped);
        assert!(a_total <= 2000.0 + 1e-6);
        assert!(!b_capped, "rack-b must not pay for rack-a's breaker");
    }

    #[test]
    fn facility_breaker_squeezes_all_rows() {
        let dc = PowerDomain::interior(
            "dc",
            4000.0,
            vec![
                rack("rack-a", 3000.0, 8, Priority::Normal), // demand 2440
                rack("rack-b", 3000.0, 8, Priority::Normal),
            ],
        );
        assert!(dc.any_oversubscribed());
        let grants = dc.resolve();
        let total: f64 = grants.iter().map(|(_, g)| g.granted_w).sum();
        assert!(total <= 4000.0 + 1e-6, "total {total}");
        // Symmetric racks get symmetric shares.
        let a: f64 = grants
            .iter()
            .filter(|(n, _)| n == "rack-a")
            .map(|(_, g)| g.granted_w)
            .sum();
        let b: f64 = grants
            .iter()
            .filter(|(n, _)| n == "rack-b")
            .map(|(_, g)| g.granted_w)
            .sum();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn priorities_matter_inside_a_capped_rack() {
        let mixed = PowerDomain::leaf(
            "rack",
            800.0,
            vec![
                req(0, Priority::Critical, 150.0, 305.0),
                req(1, Priority::Batch, 150.0, 305.0),
                req(2, Priority::Batch, 150.0, 305.0),
            ],
        );
        let grants = mixed.resolve();
        assert_eq!(grants[0].1.granted_w, 305.0);
        assert!(grants[1].1.granted_w < 305.0);
    }

    #[test]
    fn critical_rack_outranks_batch_racks_across_the_row() {
        let row = PowerDomain::interior(
            "row",
            13_000.0,
            vec![
                rack("crit", 6000.0, 16, Priority::Critical),
                rack("b1", 6000.0, 16, Priority::Batch),
                rack("b2", 6000.0, 16, Priority::Batch),
            ],
        );
        let grants = row.resolve();
        let avg = |name: &str| {
            let g: Vec<f64> = grants
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, g)| g.granted_w)
                .collect();
            g.iter().sum::<f64>() / g.len() as f64
        };
        assert!(
            (avg("crit") - 305.0).abs() < 1e-6,
            "critical keeps full demand"
        );
        assert!(avg("b1") < 305.0, "batch absorbs the shortfall");
        assert!(
            (avg("b1") - avg("b2")).abs() < 1e-6,
            "batch racks share equally"
        );
    }

    #[test]
    fn three_level_hierarchy_composes() {
        let row1 = PowerDomain::interior(
            "row-1",
            5000.0,
            vec![
                rack("r1a", 3000.0, 8, Priority::Normal),
                rack("r1b", 3000.0, 8, Priority::Normal),
            ],
        );
        let row2 = PowerDomain::interior(
            "row-2",
            3000.0,
            vec![rack("r2a", 3000.0, 8, Priority::Normal)],
        );
        let dc = PowerDomain::interior("dc", 7000.0, vec![row1, row2]);
        let grants = dc.resolve();
        let total: f64 = grants.iter().map(|(_, g)| g.granted_w).sum();
        assert!(total <= 7000.0 + 1e-6);
        // Row-1's demand (4880) exceeds its share; its racks are capped.
        assert!(grants
            .iter()
            .filter(|(n, _)| n.starts_with("r1"))
            .any(|(_, g)| g.capped));
    }

    #[test]
    fn demand_and_floor_aggregate_recursively() {
        let dc = PowerDomain::interior(
            "dc",
            10_000.0,
            vec![
                rack("a", 4000.0, 4, Priority::Normal),
                rack("b", 4000.0, 2, Priority::Normal),
            ],
        );
        assert_eq!(dc.total_demand_w(), 6.0 * 305.0);
        assert_eq!(dc.total_floor_w(), 6.0 * 150.0);
        assert!((dc.oversubscription() - 1830.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "needs children")]
    fn empty_interior_panics() {
        let _ = PowerDomain::interior("dc", 100.0, vec![]);
    }
}
