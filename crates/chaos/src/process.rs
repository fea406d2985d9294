//! The wear-coupled fault process.
//!
//! [`FaultProcess`] turns ic-reliability's *rate* models into concrete
//! fault *events* for a simulated fleet. Each server owns two hazard
//! integrators fed by its actual operating history:
//!
//! * **failure** — the composite lifetime model's failure rate at the
//!   server's current (V, Tj) point, scaled by the config's
//!   `hazard_scale` (real lifetimes are years; simulated horizons are
//!   minutes, so the scale is an accelerated-aging knob);
//! * **correctable errors** — the stability model's errors/month at the
//!   server's overclock ratio, scaled by `error_scale`.
//!
//! Both integrators use exact inversion sampling
//! ([`HazardIntegrator`]): a threshold is drawn `Exp(1)` from a
//! per-server [`SimRng`] stream and the piecewise-constant hazard is
//! integrated until it crosses. Because every draw for server `s`
//! comes from `SimRng::stream(seed', 2s)` (failures + repairs) or
//! `SimRng::stream(seed', 2s + 1)` (errors), the whole process is a
//! pure function of `(config.seed, server)` — the order in which
//! servers are advanced, or how the fleet is partitioned across
//! workers, cannot change any event.
//!
//! The common-random-numbers corollary is what the `chaos` experiment
//! leans on: two fleets built from the *same* config draw the *same*
//! thresholds, so the fleet whose hazard is pointwise higher (OC3's
//! higher V and Tj) fails at least as often, server by server — a
//! deterministic, monotone coupling rather than a statistical claim.

use ic_reliability::hazard::{failure_rate_per_second, per_month_to_per_second, HazardIntegrator};
use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use ic_reliability::stability::StabilityModel;
use ic_scenario::FaultConfig;
use ic_sim::rng::SimRng;

/// Domain separation so the fault streams never collide with workload
/// streams derived from the same experiment seed.
const CHAOS_SEED_SALT: u64 = 0x9e3d_79b9_7f4a_7c15;

/// Floor for `Exp(1)` draws: `standard_exp` can in principle return
/// exactly zero, which a hazard threshold must not be.
const MIN_DRAW: f64 = 1e-12;

/// One event produced by [`FaultProcess::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The server's cumulative failure hazard crossed its draw: the
    /// server fails now.
    Failure {
        /// Server index in the cluster.
        server: usize,
    },
    /// `count` correctable-error events landed in the advanced window.
    ErrorBurst {
        /// Server index in the cluster.
        server: usize,
        /// Correctable errors in the burst (≥ 1).
        count: u64,
    },
}

struct ServerProcess {
    /// Failure thresholds and repair delays.
    failure_rng: SimRng,
    /// Correctable-error thresholds.
    error_rng: SimRng,
    failure: HazardIntegrator,
    error: HazardIntegrator,
    down: bool,
}

impl ServerProcess {
    fn new(seed: u64, server: usize) -> Self {
        let mut failure_rng = SimRng::stream(seed, (server as u64) * 2);
        let mut error_rng = SimRng::stream(seed, (server as u64) * 2 + 1);
        let failure = HazardIntegrator::new(failure_rng.standard_exp().max(MIN_DRAW));
        let error = HazardIntegrator::new(error_rng.standard_exp().max(MIN_DRAW));
        ServerProcess {
            failure_rng,
            error_rng,
            failure,
            error,
            down: false,
        }
    }
}

/// Per-server wear-coupled failure and correctable-error sampling for a
/// fleet. See the module docs for the determinism contract.
pub struct FaultProcess {
    config: FaultConfig,
    model: CompositeLifetimeModel,
    stability: StabilityModel,
    servers: Vec<ServerProcess>,
}

impl FaultProcess {
    /// A process over `servers` servers, drawing from `config.seed`.
    /// `model` prices failures; `stability` prices correctable errors.
    pub fn new(
        config: FaultConfig,
        servers: usize,
        model: CompositeLifetimeModel,
        stability: StabilityModel,
    ) -> Self {
        let seed = config.seed ^ CHAOS_SEED_SALT;
        FaultProcess {
            config,
            model,
            stability,
            servers: (0..servers).map(|s| ServerProcess::new(seed, s)).collect(),
        }
    }

    /// Number of servers modeled.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the process models no servers at all.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The failure hazard, 1/s, at `cond` under this process's scale.
    pub fn failure_rate_per_s(&self, cond: &OperatingConditions) -> f64 {
        self.config.hazard_scale * failure_rate_per_second(&self.model, cond)
    }

    /// The correctable-error hazard, 1/s, at overclock ratio
    /// `oc_ratio` (clamped to ≥ 1: the stability model is defined from
    /// turbo upward) under this process's scale.
    pub fn error_rate_per_s(&self, oc_ratio: f64) -> f64 {
        let rate_month = self
            .stability
            .correctable_error_rate_per_month(oc_ratio.max(1.0));
        self.config.error_scale * per_month_to_per_second(rate_month)
    }

    /// Advances `server` by `dt_s` seconds spent at `cond` /
    /// `oc_ratio`, returning the fault events the window produced
    /// (error bursts first, then at most one failure). A failed server
    /// accrues nothing until repaired — dark silicon does not wear.
    pub fn advance(
        &mut self,
        server: usize,
        cond: &OperatingConditions,
        oc_ratio: f64,
        dt_s: f64,
    ) -> Vec<FaultEvent> {
        let failure_rate = self.failure_rate_per_s(cond);
        let error_rate = self.error_rate_per_s(oc_ratio);
        let sp = &mut self.servers[server];
        if sp.down || dt_s <= 0.0 {
            return Vec::new();
        }
        let mut events = Vec::new();

        // Correctable errors: a renewal process, so one window may hold
        // several crossings. Walk the accrued hazard through as many
        // thresholds as it spans.
        let mut budget = error_rate * dt_s;
        let mut count = 0u64;
        loop {
            let room = (sp.error.threshold() - sp.error.cumulative()).max(0.0);
            if budget < room {
                sp.error.accrue(budget, 1.0);
                break;
            }
            budget -= room;
            count += 1;
            sp.error.rearm(sp.error_rng.standard_exp().max(MIN_DRAW));
        }
        if count > 0 {
            events.push(FaultEvent::ErrorBurst { server, count });
        }

        if sp.failure.accrue(failure_rate, dt_s) {
            sp.down = true;
            // Draw the replacement part's threshold immediately so the
            // stream position stays a pure function of how many
            // failures this server has had, not of repair timing.
            sp.failure
                .rearm(sp.failure_rng.standard_exp().max(MIN_DRAW));
            events.push(FaultEvent::Failure { server });
        }
        events
    }

    /// The repair delay, seconds, for `server`'s current failure —
    /// uniform in the config's `[repair_min_s, repair_max_s]`, drawn
    /// from the server's own stream.
    pub fn repair_delay_s(&mut self, server: usize) -> f64 {
        let sp = &mut self.servers[server];
        sp.failure_rng
            .uniform_range(self.config.repair_min_s, self.config.repair_max_s)
    }

    /// Marks `server` repaired: wear accrual resumes on the (already
    /// drawn) replacement part.
    pub fn repair(&mut self, server: usize) {
        self.servers[server].down = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64, hazard_scale: f64, error_scale: f64) -> FaultConfig {
        let mut c = FaultConfig::disabled();
        c.seed = seed;
        c.hazard_scale = hazard_scale;
        c.error_scale = error_scale;
        c
    }

    fn process(seed: u64, servers: usize) -> FaultProcess {
        FaultProcess::new(
            config(seed, 3e5, 5e4),
            servers,
            CompositeLifetimeModel::fitted_5nm(),
            StabilityModel::paper_characterization(),
        )
    }

    fn b2() -> OperatingConditions {
        OperatingConditions::new(0.90, 51.0, 35.0)
    }

    fn oc3() -> OperatingConditions {
        OperatingConditions::new(0.98, 60.0, 35.0)
    }

    /// Drives one server for `steps` windows and logs (step, event).
    fn trajectory(
        p: &mut FaultProcess,
        server: usize,
        cond: &OperatingConditions,
        ratio: f64,
        steps: usize,
    ) -> Vec<(usize, FaultEvent)> {
        let mut log = Vec::new();
        for step in 0..steps {
            for ev in p.advance(server, cond, ratio, 15.0) {
                if matches!(ev, FaultEvent::Failure { .. }) {
                    p.repair(server);
                }
                log.push((step, ev));
            }
        }
        log
    }

    #[test]
    fn pure_in_seed_and_server_regardless_of_interleaving() {
        // Advance servers 0 and 1 round-robin…
        let mut ab = process(7, 2);
        let mut log_ab: Vec<(usize, usize, FaultEvent)> = Vec::new();
        for step in 0..400 {
            for s in [0, 1] {
                for ev in ab.advance(s, &oc3(), 1.21, 15.0) {
                    if matches!(ev, FaultEvent::Failure { .. }) {
                        ab.repair(s);
                    }
                    log_ab.push((step, s, ev));
                }
            }
        }
        // …and each server alone, in the opposite order, on a process
        // with a different server count: identical per-server events.
        let mut ba = process(7, 3);
        let one = trajectory(&mut ba, 1, &oc3(), 1.21, 400);
        let zero = trajectory(&mut ba, 0, &oc3(), 1.21, 400);
        let only = |log: &[(usize, usize, FaultEvent)], s: usize| -> Vec<(usize, FaultEvent)> {
            log.iter()
                .filter(|&&(_, srv, _)| srv == s)
                .map(|&(step, _, ev)| (step, ev))
                .collect()
        };
        assert_eq!(only(&log_ab, 0), zero);
        assert_eq!(only(&log_ab, 1), one);
        assert!(!zero.is_empty() || !one.is_empty(), "scales produce events");
    }

    #[test]
    fn same_seed_same_events_different_seed_different_draws() {
        let mut a = process(11, 1);
        let mut b = process(11, 1);
        let mut c = process(12, 1);
        let ta = trajectory(&mut a, 0, &oc3(), 1.21, 300);
        let tb = trajectory(&mut b, 0, &oc3(), 1.21, 300);
        let tc = trajectory(&mut c, 0, &oc3(), 1.21, 300);
        assert_eq!(ta, tb);
        assert_ne!(ta, tc);
    }

    #[test]
    fn oc3_fails_no_later_than_b2_under_common_draws() {
        // Same seed ⇒ same Exp(1) thresholds; OC3's hazard is pointwise
        // higher, so each server's k-th failure lands no later. Check
        // the first failure time across a few servers.
        for server in 0..4 {
            let mut pb = process(21, 4);
            let mut po = process(21, 4);
            let first = |p: &mut FaultProcess, cond: &OperatingConditions, ratio: f64| {
                (0..10_000).find(|_| {
                    p.advance(server, cond, ratio, 15.0)
                        .iter()
                        .any(|e| matches!(e, FaultEvent::Failure { .. }))
                })
            };
            let t_b2 = first(&mut pb, &b2(), 1.0);
            let t_oc3 = first(&mut po, &oc3(), 1.21);
            let (Some(t_b2), Some(t_oc3)) = (t_b2, t_oc3) else {
                panic!("hazard scale too small for the test horizon");
            };
            assert!(t_oc3 <= t_b2, "server {server}: {t_oc3} vs {t_b2}");
        }
    }

    #[test]
    fn down_servers_do_not_wear() {
        let mut p = process(5, 1);
        // Drive to the first failure.
        let mut failed = false;
        for _ in 0..10_000 {
            if !p
                .advance(0, &oc3(), 1.21, 15.0)
                .iter()
                .any(|e| matches!(e, FaultEvent::Failure { .. }))
            {
                continue;
            }
            failed = true;
            break;
        }
        assert!(failed);
        assert!(p.servers[0].down);
        // While down, no further events accrue no matter the window.
        assert!(p.advance(0, &oc3(), 1.21, 1e9).is_empty());
        p.repair(0);
        assert!(!p.servers[0].down);
    }

    #[test]
    fn error_bursts_scale_with_overclock_ratio() {
        let count = |ratio: f64| -> u64 {
            let mut p = process(31, 1);
            let mut total = 0;
            for _ in 0..400 {
                for ev in p.advance(0, &oc3(), ratio, 15.0) {
                    match ev {
                        FaultEvent::ErrorBurst { count, .. } => total += count,
                        FaultEvent::Failure { .. } => p.repair(0),
                    }
                }
            }
            total
        };
        // Below-turbo ratios clamp to the flat background rate.
        assert_eq!(count(0.9), count(1.0));
        assert!(count(1.33) > count(1.0), "excess overclock must add errors");
    }

    #[test]
    fn repair_delay_is_deterministic_and_in_range() {
        let mut a = process(3, 2);
        let mut b = process(3, 2);
        let da = a.repair_delay_s(1);
        assert_eq!(da, b.repair_delay_s(1));
        let cfg = config(0, 0.0, 0.0);
        assert!((cfg.repair_min_s..=cfg.repair_max_s).contains(&da));
    }
}
