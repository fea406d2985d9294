//! Priority-aware power capping for oversubscribed power delivery.
//!
//! Overclocking in power-oversubscribed datacenters increases the chance
//! of hitting circuit-breaker limits and triggering capping mechanisms
//! (e.g. Intel RAPL), which throttle CPU frequency and memory bandwidth —
//! potentially erasing any overclocking gains (Section IV, "Power
//! consumption"). The paper recommends workload-priority-based capping
//! (\[38\], \[62\], \[70\]) so that critical or overclocked workloads are
//! throttled last. [`PowerAllocator`] implements that policy: when
//! demand exceeds the budget it satisfies consumers in priority order,
//! reducing the lowest-priority consumers toward their floors first.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid capping configuration or request.
#[derive(Debug, Clone, PartialEq)]
pub enum CapError {
    /// A negative or non-finite power budget.
    InvalidBudget {
        /// The rejected budget, watts.
        budget_w: f64,
    },
    /// A request with a negative floor, non-finite demand, or
    /// `demand_w < floor_w`.
    InvalidRequest {
        /// The rejected request.
        request: PowerRequest,
    },
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::InvalidBudget { budget_w } => write!(f, "invalid budget {budget_w}"),
            CapError::InvalidRequest { request } => write!(f, "invalid request {request:?}"),
        }
    }
}

impl std::error::Error for CapError {}

/// How important a power consumer is when the budget runs short.
/// Higher variants are throttled later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Preemptible batch work: first to be capped.
    Batch = 0,
    /// Ordinary third-party VMs.
    Normal = 1,
    /// Latency-sensitive or overclocked workloads: capped last.
    Critical = 2,
}

/// One server (or socket) asking for power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerRequest {
    /// Caller-chosen identifier, returned in the grant.
    pub id: u64,
    /// Scheduling priority under contention.
    pub priority: Priority,
    /// The minimum power the consumer needs to stay operational (e.g.
    /// base-frequency draw). Never reduced below this.
    pub floor_w: f64,
    /// The power the consumer wants right now (e.g. overclocked draw).
    pub demand_w: f64,
}

/// A consumer's share of the budget after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerGrant {
    /// Matches the request id.
    pub id: u64,
    /// Granted watts, in `[floor_w, demand_w]`.
    pub granted_w: f64,
    /// `true` if the grant is below demand (the consumer must throttle).
    pub capped: bool,
}

/// How a [`CapPlan`] serves one priority class.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ClassGrant {
    /// Every member receives its full demand.
    Full,
    /// Every member receives `floor + (demand − floor) × share`.
    Share(f64),
}

/// One allocation reduced to its per-class decisions.
///
/// The allocator's policy depends on the requests only through a few
/// aggregates (the floor total and each class's headroom), so a plan is
/// one decision per priority class however many consumers it covers.
/// Built by
/// [`PowerAllocator::try_plan`] in one pass; [`CapPlan::grant`] then
/// turns any of those requests into its grant in O(1), so a caller can
/// stream the grants straight off its own rows instead of collecting a
/// grant vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapPlan {
    /// Indexed by `Priority as usize`.
    classes: [ClassGrant; 3],
}

impl CapPlan {
    /// The grant for `request`, which must be one of the requests the
    /// plan was built from — bitwise what
    /// [`PowerAllocator::try_allocate`] returns for it.
    pub fn grant(&self, request: &PowerRequest) -> PowerGrant {
        let granted_w = match self.classes[request.priority as usize] {
            ClassGrant::Full => request.demand_w,
            ClassGrant::Share(share) => {
                request.floor_w + (request.demand_w - request.floor_w) * share
            }
        };
        PowerGrant {
            id: request.id,
            granted_w,
            capped: granted_w < request.demand_w - 1e-9,
        }
    }
}

/// A fixed power budget shared by prioritized consumers.
///
/// # Example
///
/// ```
/// use ic_power::capping::{PowerAllocator, PowerRequest, Priority};
///
/// let alloc = PowerAllocator::new(500.0);
/// let grants = alloc.allocate(&[
///     PowerRequest { id: 1, priority: Priority::Critical, floor_w: 100.0, demand_w: 300.0 },
///     PowerRequest { id: 2, priority: Priority::Batch, floor_w: 100.0, demand_w: 300.0 },
/// ]);
/// // The critical consumer gets its full demand; batch absorbs the cut.
/// assert_eq!(grants[0].granted_w, 300.0);
/// assert_eq!(grants[1].granted_w, 200.0);
/// assert!(grants[1].capped);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerAllocator {
    budget_w: f64,
}

impl PowerAllocator {
    /// Creates an allocator with the given budget. Negative or
    /// non-finite budgets are rejected.
    pub fn try_new(budget_w: f64) -> Result<Self, CapError> {
        if budget_w.is_finite() && budget_w >= 0.0 {
            Ok(PowerAllocator { budget_w })
        } else {
            Err(CapError::InvalidBudget { budget_w })
        }
    }

    /// Panicking shorthand for [`PowerAllocator::try_new`], for budgets
    /// known valid at the call site.
    ///
    /// # Panics
    ///
    /// Panics if `budget_w` is negative or non-finite.
    pub fn new(budget_w: f64) -> Self {
        Self::try_new(budget_w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The budget in watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// `true` if the sum of demands exceeds the budget (capping will
    /// occur).
    pub fn is_oversubscribed(&self, requests: &[PowerRequest]) -> bool {
        requests.iter().map(|r| r.demand_w).sum::<f64>() > self.budget_w
    }

    /// Plans the allocation of the budget over `requests` in one pass
    /// and O(1) space. Every consumer receives at least its floor
    /// (floors are honoured even if they exceed the budget — tripping a
    /// breaker is modelled upstream, not by starving servers below
    /// operational minimums). Remaining budget is then granted in
    /// priority order, highest first; within a priority class, shortfall
    /// is shared proportionally to each consumer's headroom
    /// (`demand − floor`).
    ///
    /// The first request with `demand_w < floor_w`, a negative floor or
    /// a non-finite demand is rejected.
    pub fn try_plan(
        &self,
        requests: impl IntoIterator<Item = PowerRequest>,
    ) -> Result<CapPlan, CapError> {
        // `Iterator::sum`'s identity for f64: each running total below
        // is then bitwise a `sum()` over the same operands in the same
        // order — the floors in request order, each class's headroom in
        // ascending request order.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut floors = zero;
        let mut headroom = [zero; 3];
        let mut present = [false; 3];
        for r in requests {
            if !(r.floor_w >= 0.0 && r.demand_w >= r.floor_w && r.demand_w.is_finite()) {
                return Err(CapError::InvalidRequest { request: r });
            }
            let class = r.priority as usize;
            floors += r.floor_w;
            headroom[class] += r.demand_w - r.floor_w;
            present[class] = true;
        }
        let mut remaining = (self.budget_w - floors).max(0.0);
        let mut classes = [ClassGrant::Full; 3];
        // Highest class first, skipping empty classes as the sorted
        // scan did: subtracting an empty class's −0.0 headroom would
        // turn a −0.0 `remaining` into +0.0.
        for class in (0..3).rev().filter(|&c| present[c]) {
            let h = headroom[class];
            if h <= remaining {
                remaining -= h;
            } else {
                classes[class] = ClassGrant::Share(if h > 0.0 { remaining / h } else { 0.0 });
                remaining = 0.0;
            }
        }
        Ok(CapPlan { classes })
    }

    /// Distributes the budget as [`try_plan`](Self::try_plan) decides,
    /// returning the grants in the same order as `requests`.
    pub fn try_allocate(&self, requests: &[PowerRequest]) -> Result<Vec<PowerGrant>, CapError> {
        let plan = self.try_plan(requests.iter().cloned())?;
        Ok(requests.iter().map(|r| plan.grant(r)).collect())
    }

    /// Panicking shorthand for [`PowerAllocator::try_allocate`], for
    /// requests known valid at the call site.
    ///
    /// # Panics
    ///
    /// Panics if any request has `demand_w < floor_w` or negative values.
    pub fn allocate(&self, requests: &[PowerRequest]) -> Vec<PowerGrant> {
        self.try_allocate(requests)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::rng::SimRng;

    fn req(id: u64, priority: Priority, floor: f64, demand: f64) -> PowerRequest {
        PowerRequest {
            id,
            priority,
            floor_w: floor,
            demand_w: demand,
        }
    }

    /// The sort-based allocator the class plan replaced, kept verbatim
    /// as the differential oracle: validate, sum the floors, stably
    /// sort an index permutation by descending priority, then walk the
    /// classes granting full demand or a proportional share.
    fn reference_allocate(
        budget_w: f64,
        requests: &[PowerRequest],
    ) -> Result<Vec<PowerGrant>, CapError> {
        for r in requests {
            if !(r.floor_w >= 0.0 && r.demand_w >= r.floor_w && r.demand_w.is_finite()) {
                return Err(CapError::InvalidRequest { request: r.clone() });
            }
        }
        let floors: f64 = requests.iter().map(|r| r.floor_w).sum();
        let mut remaining = (budget_w - floors).max(0.0);
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[b].priority.cmp(&requests[a].priority));
        let mut granted: Vec<f64> = requests.iter().map(|r| r.floor_w).collect();
        let mut i = 0;
        while i < order.len() {
            let class = requests[order[i]].priority;
            let mut j = i;
            while j < order.len() && requests[order[j]].priority == class {
                j += 1;
            }
            let members = &order[i..j];
            let headroom: f64 = members
                .iter()
                .map(|&m| requests[m].demand_w - requests[m].floor_w)
                .sum();
            if headroom <= remaining {
                for &m in members {
                    granted[m] = requests[m].demand_w;
                }
                remaining -= headroom;
            } else {
                let share = if headroom > 0.0 {
                    remaining / headroom
                } else {
                    0.0
                };
                for &m in members {
                    let h = requests[m].demand_w - requests[m].floor_w;
                    granted[m] = requests[m].floor_w + h * share;
                }
                remaining = 0.0;
            }
            i = j;
        }
        Ok(requests
            .iter()
            .zip(&granted)
            .map(|(r, &g)| PowerGrant {
                id: r.id,
                granted_w: g,
                capped: g < r.demand_w - 1e-9,
            })
            .collect())
    }

    /// Asserts the plan path and the reference agree bitwise: the same
    /// grant bits and `capped` flags, or the same error.
    fn assert_matches_reference(budget_w: f64, requests: &[PowerRequest], context: &str) {
        let want = reference_allocate(budget_w, requests);
        let got = PowerAllocator::new(budget_w).try_allocate(requests);
        match (&want, &got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(want.len(), got.len(), "{context}");
                for (w, g) in want.iter().zip(got) {
                    assert_eq!(w.id, g.id, "{context}");
                    assert_eq!(
                        w.granted_w.to_bits(),
                        g.granted_w.to_bits(),
                        "{context}: request {} granted {} vs {}",
                        w.id,
                        w.granted_w,
                        g.granted_w
                    );
                    assert_eq!(w.capped, g.capped, "{context}: request {}", w.id);
                }
            }
            // Debug, not `==`: a rejected NaN floor never equals itself.
            (Err(_), Err(_)) => assert_eq!(format!("{want:?}"), format!("{got:?}"), "{context}"),
            _ => panic!("{context}: reference {want:?} vs plan {got:?}"),
        }
    }

    /// A random request batch: a random subset of the three classes
    /// (so some are empty), floors that are sometimes `-0.0`, some
    /// zero-headroom rows, and — when `invalid` — one malformed row.
    fn random_requests(rng: &mut SimRng, invalid: bool) -> Vec<PowerRequest> {
        const CLASSES: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Critical];
        let classes: Vec<Priority> = loop {
            let picked: Vec<Priority> = CLASSES.into_iter().filter(|_| rng.chance(0.6)).collect();
            if !picked.is_empty() {
                break picked;
            }
        };
        let n = 1 + rng.index(40);
        let mut requests: Vec<PowerRequest> = (0..n)
            .map(|i| {
                let floor_w = match rng.index(6) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.uniform_range(10.0, 150.0),
                };
                let demand_w = match rng.index(5) {
                    0 => floor_w,
                    _ => floor_w + rng.uniform_range(0.0, 250.0),
                };
                req(
                    i as u64,
                    classes[rng.index(classes.len())],
                    floor_w,
                    demand_w,
                )
            })
            .collect();
        if invalid {
            let bad = &mut requests[rng.index(n)];
            match rng.index(4) {
                0 => bad.demand_w = bad.floor_w - 1.0,
                1 => bad.floor_w = -1.0,
                2 => bad.floor_w = f64::NAN,
                _ => bad.demand_w = f64::INFINITY,
            }
        }
        requests
    }

    #[test]
    fn plan_matches_sort_based_reference_bitwise() {
        let mut rng = SimRng::seed_from_u64(0xCA9);
        for case in 0..4000 {
            let requests = random_requests(&mut rng, case % 10 == 9);
            let floors: f64 = requests.iter().map(|r| r.floor_w.max(0.0)).sum();
            let demands: f64 = requests
                .iter()
                .map(|r| r.demand_w)
                .filter(|d| d.is_finite())
                .sum();
            let budget_w = match rng.index(5) {
                0 => 0.0,
                // Floors alone exceed the budget.
                1 => rng.uniform_range(0.0, 1.0) * floors,
                2 => floors + rng.uniform_range(0.0, 1.0) * (demands - floors).max(0.0),
                3 => demands.max(0.0),
                _ => rng.uniform_range(0.0, 1.5) * demands.max(1.0),
            };
            assert_matches_reference(budget_w, &requests, &format!("case {case}"));
        }
    }

    #[test]
    fn plan_matches_reference_on_edge_batches() {
        let cases: Vec<(f64, Vec<PowerRequest>)> = vec![
            (100.0, Vec::new()),
            (0.0, vec![req(1, Priority::Critical, 50.0, 80.0)]),
            // Zero headroom everywhere, budget below the floors.
            (
                10.0,
                vec![
                    req(1, Priority::Batch, 20.0, 20.0),
                    req(2, Priority::Critical, 20.0, 20.0),
                ],
            ),
            // Signed-zero floors and demands.
            (
                0.0,
                vec![
                    req(1, Priority::Batch, -0.0, -0.0),
                    req(2, Priority::Batch, 0.0, 0.0),
                    req(3, Priority::Normal, -0.0, 5.0),
                ],
            ),
            // -0.0 demand over a +0.0 floor: a -0.0 headroom.
            (
                0.0,
                vec![
                    req(1, Priority::Normal, 0.0, -0.0),
                    req(2, Priority::Batch, -0.0, 3.0),
                ],
            ),
            // A -0.0 budget.
            (
                -0.0,
                vec![
                    req(1, Priority::Normal, -0.0, 5.0),
                    req(2, Priority::Batch, 0.0, 0.0),
                ],
            ),
            // Two invalid rows: the first one is reported.
            (
                100.0,
                vec![
                    req(1, Priority::Normal, 10.0, 50.0),
                    req(2, Priority::Batch, 50.0, 10.0),
                    req(3, Priority::Batch, -1.0, 10.0),
                ],
            ),
            // Only the middle class present.
            (
                150.0,
                vec![
                    req(1, Priority::Normal, 50.0, 200.0),
                    req(2, Priority::Normal, 10.0, 30.0),
                ],
            ),
        ];
        for (i, (budget_w, requests)) in cases.iter().enumerate() {
            assert_matches_reference(*budget_w, requests, &format!("edge case {i}"));
        }
    }

    #[test]
    fn no_contention_everyone_gets_demand() {
        let alloc = PowerAllocator::new(1000.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 50.0, 200.0),
            req(2, Priority::Critical, 50.0, 300.0),
        ]);
        assert!(grants.iter().all(|g| !g.capped));
        assert_eq!(grants[0].granted_w, 200.0);
        assert_eq!(grants[1].granted_w, 300.0);
    }

    #[test]
    fn critical_throttled_last() {
        let alloc = PowerAllocator::new(450.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 100.0, 300.0),
            req(2, Priority::Critical, 100.0, 300.0),
        ]);
        assert_eq!(grants[1].granted_w, 300.0);
        assert!((grants[0].granted_w - 150.0).abs() < 1e-9);
        assert!(grants[0].capped && !grants[1].capped);
    }

    #[test]
    fn within_class_proportional_sharing() {
        let alloc = PowerAllocator::new(400.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Normal, 100.0, 300.0), // headroom 200
            req(2, Priority::Normal, 100.0, 200.0), // headroom 100
        ]);
        // Remaining after floors: 200 over headroom 300 → 2/3 share.
        assert!((grants[0].granted_w - (100.0 + 200.0 * 2.0 / 3.0)).abs() < 1e-9);
        assert!((grants[1].granted_w - (100.0 + 100.0 * 2.0 / 3.0)).abs() < 1e-9);
        let total: f64 = grants.iter().map(|g| g.granted_w).sum();
        assert!((total - 400.0).abs() < 1e-9);
    }

    #[test]
    fn floors_always_honoured() {
        let alloc = PowerAllocator::new(100.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 80.0, 200.0),
            req(2, Priority::Critical, 80.0, 200.0),
        ]);
        assert_eq!(grants[0].granted_w, 80.0);
        assert_eq!(grants[1].granted_w, 80.0);
    }

    #[test]
    fn grants_never_exceed_budget_when_floors_fit() {
        let alloc = PowerAllocator::new(777.0);
        let reqs: Vec<PowerRequest> = (0..10)
            .map(|i| {
                req(
                    i,
                    if i % 2 == 0 {
                        Priority::Batch
                    } else {
                        Priority::Normal
                    },
                    10.0,
                    150.0,
                )
            })
            .collect();
        let total: f64 = alloc.allocate(&reqs).iter().map(|g| g.granted_w).sum();
        assert!(total <= 777.0 + 1e-9);
    }

    #[test]
    fn oversubscription_detection() {
        let alloc = PowerAllocator::new(500.0);
        assert!(!alloc.is_oversubscribed(&[req(1, Priority::Normal, 0.0, 400.0)]));
        assert!(alloc.is_oversubscribed(&[
            req(1, Priority::Normal, 0.0, 400.0),
            req(2, Priority::Normal, 0.0, 200.0)
        ]));
    }

    #[test]
    fn three_priority_classes_cascade() {
        let alloc = PowerAllocator::new(350.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 50.0, 200.0),
            req(2, Priority::Normal, 50.0, 200.0),
            req(3, Priority::Critical, 50.0, 200.0),
        ]);
        // Floors: 150. Remaining 200 → Critical +150 (full), Normal +50,
        // Batch +0.
        assert_eq!(grants[2].granted_w, 200.0);
        assert_eq!(grants[1].granted_w, 100.0);
        assert_eq!(grants[0].granted_w, 50.0);
    }

    #[test]
    #[should_panic(expected = "invalid request")]
    fn demand_below_floor_panics() {
        PowerAllocator::new(100.0).allocate(&[req(1, Priority::Batch, 50.0, 10.0)]);
    }

    #[test]
    fn try_new_reports_typed_error() {
        assert_eq!(
            PowerAllocator::try_new(-1.0),
            Err(CapError::InvalidBudget { budget_w: -1.0 })
        );
        assert!(PowerAllocator::try_new(f64::NAN).is_err());
        assert_eq!(PowerAllocator::try_new(500.0).unwrap().budget_w(), 500.0);
        let msg = CapError::InvalidBudget { budget_w: -1.0 }.to_string();
        assert!(msg.contains("invalid budget"));
    }

    #[test]
    fn try_allocate_reports_typed_error() {
        let alloc = PowerAllocator::new(100.0);
        let bad = req(7, Priority::Batch, 50.0, 10.0);
        match alloc.try_allocate(std::slice::from_ref(&bad)) {
            Err(CapError::InvalidRequest { request }) => assert_eq!(request, bad),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        let ok = alloc
            .try_allocate(&[req(1, Priority::Normal, 10.0, 50.0)])
            .unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok[0].capped);
    }
}
