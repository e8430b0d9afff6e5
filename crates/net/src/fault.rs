//! Deterministic fault injection for the virtual internet.
//!
//! The paper's four-year crawl hit expired domains, flaky servers, empty
//! pages and anti-bot blocks (§4.1). [`FaultPlan`] reproduces the
//! *connection-level* failures (refused connections, responses truncated
//! mid-body); HTTP-level failures (4xx anti-bot pages, empty bodies) are
//! the synthetic web generator's job since they depend on the domain model.
//!
//! Faults come in two flavors:
//!
//! * **Permanent** faults are pure functions of `(seed, host)` — the host
//!   is broken the same way every week, every attempt. These model dead
//!   servers and standing anti-bot walls.
//! * **Transient** faults are pure functions of `(seed, host, week,
//!   attempt)` — a host refuses, stalls, or serves a 5xx burst for the
//!   first [`heal_after_attempts`](FaultPlan::heal_after_attempts)
//!   attempts of an afflicted week, then heals. These model restarting
//!   servers and flapping paths: exactly the failures a retry policy is
//!   supposed to absorb.
//!
//! No RNG state anywhere — a crawl is reproducible regardless of
//! worker-thread interleaving.

use webvuln_resilience::mix;

/// Per-crawl fault configuration. Probabilities are in permille (‰).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability that `connect()` is refused (permanent, per host).
    pub connect_fail_permille: u32,
    /// Probability that a response is truncated mid-body (permanent).
    pub truncate_permille: u32,
    /// Probability that a response uses chunked framing (not a fault, but
    /// wire-format diversity that keeps the decoder honest).
    pub chunked_permille: u32,
    /// Probability that connecting fails *transiently* in a given week:
    /// refused for the first `heal_after_attempts` attempts, then fine.
    pub transient_fail_permille: u32,
    /// Probability that a host stalls (read deadline trips) in a given
    /// week, for the first `heal_after_attempts` attempts.
    pub stall_permille: u32,
    /// Probability that a host answers with a 5xx burst in a given week,
    /// for the first `heal_after_attempts` attempts.
    pub flaky_5xx_permille: u32,
    /// How many attempts a transient fault survives before healing.
    pub heal_after_attempts: u32,
}

impl FaultPlan {
    /// No faults, plain content-length framing.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            connect_fail_permille: 0,
            truncate_permille: 0,
            chunked_permille: 0,
            transient_fail_permille: 0,
            stall_permille: 0,
            flaky_5xx_permille: 0,
            heal_after_attempts: 0,
        }
    }

    /// A plan resembling the paper's observed failure rates: occasional
    /// refused connections and rare truncations, with a quarter of servers
    /// speaking chunked. Permanent faults only — identical behavior to the
    /// pre-resilience crawler, which downstream statistics tests rely on.
    pub fn realistic(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            connect_fail_permille: 8,
            truncate_permille: 2,
            chunked_permille: 250,
            ..FaultPlan::none()
        }
    }

    /// A stress plan layering transient refusals, stalls and 5xx bursts on
    /// top of elevated permanent rates. Transients heal after three
    /// attempts, so a retry policy with three retries recovers every
    /// afflicted host while a single-attempt crawl loses them all.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            connect_fail_permille: 15,
            truncate_permille: 5,
            chunked_permille: 250,
            transient_fail_permille: 120,
            stall_permille: 40,
            flaky_5xx_permille: 60,
            heal_after_attempts: 3,
        }
    }

    /// Should connecting to `host` fail permanently?
    pub fn connect_fails(&self, host: &str) -> bool {
        self.decide(host, 0xC0, self.connect_fail_permille)
    }

    /// Truncation point for `host`'s responses, if any.
    pub fn truncate_at(&self, host: &str) -> Option<usize> {
        if self.decide(host, 0x7B, self.truncate_permille) {
            // Cut somewhere in the first kilobyte, but past the status line
            // so the client sees a mid-body drop rather than a dead socket.
            Some(64 + (mix(self.seed ^ 0x7C, host) % 960) as usize)
        } else {
            None
        }
    }

    /// Whether `host` frames responses with chunked transfer encoding.
    pub fn prefers_chunked(&self, host: &str) -> bool {
        self.decide(host, 0x11, self.chunked_permille)
    }

    /// Whether `host`'s week-`week` connection attempt number `attempt`
    /// (0-based) is transiently refused.
    pub fn transient_connect_fails(&self, host: &str, week: usize, attempt: u32) -> bool {
        attempt < self.heal_after_attempts
            && self.decide_weekly(host, week, 0xA1, self.transient_fail_permille)
    }

    /// Whether `host` stalls (the read deadline trips) on this attempt.
    pub fn stalls(&self, host: &str, week: usize, attempt: u32) -> bool {
        attempt < self.heal_after_attempts
            && self.decide_weekly(host, week, 0xA2, self.stall_permille)
    }

    /// Whether `host` answers this attempt with a 503 burst.
    pub fn serves_5xx(&self, host: &str, week: usize, attempt: u32) -> bool {
        attempt < self.heal_after_attempts
            && self.decide_weekly(host, week, 0xA3, self.flaky_5xx_permille)
    }

    /// Whether any transient fault class is configured.
    pub fn has_transients(&self) -> bool {
        self.heal_after_attempts > 0
            && (self.transient_fail_permille > 0
                || self.stall_permille > 0
                || self.flaky_5xx_permille > 0)
    }

    fn decide(&self, host: &str, salt: u64, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        (mix(self.seed ^ salt, host) % 1000) < permille as u64
    }

    fn decide_weekly(&self, host: &str, week: usize, salt: u64, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        let seed = self.seed ^ salt ^ (week as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mix(seed, host) % 1000) < permille as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan::none();
        for host in ["a.com", "b.com", "c.net"] {
            assert!(!plan.connect_fails(host));
            assert!(plan.truncate_at(host).is_none());
            assert!(!plan.prefers_chunked(host));
            assert!(!plan.transient_connect_fails(host, 0, 0));
            assert!(!plan.stalls(host, 3, 0));
            assert!(!plan.serves_5xx(host, 7, 1));
        }
        assert!(!plan.has_transients());
    }

    #[test]
    fn realistic_has_no_transients() {
        // tests/paper_facts.rs pins statistics computed under this plan;
        // it must keep behaving exactly like the pre-resilience crawler.
        let plan = FaultPlan::realistic(42);
        assert!(!plan.has_transients());
        assert_eq!(plan.transient_fail_permille, 0);
        assert_eq!(plan.stall_permille, 0);
        assert_eq!(plan.flaky_5xx_permille, 0);
    }

    #[test]
    fn decisions_are_deterministic_per_host() {
        let plan = FaultPlan::realistic(42);
        for host in ["x.com", "y.com", "z.org"] {
            assert_eq!(plan.connect_fails(host), plan.connect_fails(host));
            assert_eq!(plan.truncate_at(host), plan.truncate_at(host));
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            seed: 7,
            connect_fail_permille: 100, // 10%
            truncate_permille: 50,      // 5%
            chunked_permille: 500,      // 50%
            ..FaultPlan::none()
        };
        let n = 20_000;
        let fails = (0..n)
            .filter(|i| plan.connect_fails(&format!("host{i}.example")))
            .count();
        let chunked = (0..n)
            .filter(|i| plan.prefers_chunked(&format!("host{i}.example")))
            .count();
        assert!((1600..2400).contains(&fails), "{fails} ≈ 2000 expected");
        assert!(
            (9000..11000).contains(&chunked),
            "{chunked} ≈ 10000 expected"
        );
    }

    #[test]
    fn different_seeds_pick_different_victims() {
        let a = FaultPlan {
            seed: 1,
            connect_fail_permille: 100,
            ..FaultPlan::none()
        };
        let b = FaultPlan { seed: 2, ..a };
        let hosts: Vec<String> = (0..5000).map(|i| format!("h{i}.example")).collect();
        let va: Vec<bool> = hosts.iter().map(|h| a.connect_fails(h)).collect();
        let vb: Vec<bool> = hosts.iter().map(|h| b.connect_fails(h)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn truncation_point_is_in_range() {
        let plan = FaultPlan {
            seed: 3,
            truncate_permille: 1000,
            ..FaultPlan::none()
        };
        for i in 0..100 {
            let at = plan
                .truncate_at(&format!("t{i}.example"))
                .expect("always truncates");
            assert!((64..1024).contains(&at));
        }
    }

    #[test]
    fn transient_faults_heal_after_the_configured_attempt() {
        let plan = FaultPlan {
            seed: 11,
            transient_fail_permille: 1000,
            heal_after_attempts: 3,
            ..FaultPlan::none()
        };
        let host = "flappy.example";
        assert!(plan.transient_connect_fails(host, 5, 0));
        assert!(plan.transient_connect_fails(host, 5, 2));
        assert!(!plan.transient_connect_fails(host, 5, 3), "healed");
        assert!(!plan.transient_connect_fails(host, 5, 9));
    }

    #[test]
    fn transient_faults_vary_by_week_but_not_by_replay() {
        let plan = FaultPlan {
            seed: 13,
            transient_fail_permille: 300,
            stall_permille: 300,
            flaky_5xx_permille: 300,
            heal_after_attempts: 2,
            ..FaultPlan::none()
        };
        let hosts: Vec<String> = (0..2000).map(|i| format!("w{i}.example")).collect();
        let week = |w: usize| -> Vec<bool> {
            hosts
                .iter()
                .map(|h| plan.transient_connect_fails(h, w, 0))
                .collect()
        };
        assert_eq!(week(4), week(4), "replay-stable");
        assert_ne!(week(4), week(5), "different weeks afflict different hosts");

        // The three transient classes are decorrelated from each other.
        let stalled: Vec<bool> = hosts.iter().map(|h| plan.stalls(h, 4, 0)).collect();
        let flaky: Vec<bool> = hosts.iter().map(|h| plan.serves_5xx(h, 4, 0)).collect();
        assert_ne!(week(4), stalled);
        assert_ne!(stalled, flaky);
    }

    #[test]
    fn hostile_plan_reports_transients() {
        let plan = FaultPlan::hostile(9);
        assert!(plan.has_transients());
        assert_eq!(plan.heal_after_attempts, 3);
        // Permanent classes stay independent of week/attempt.
        let n = 5000;
        let transient = (0..n)
            .filter(|i| plan.transient_connect_fails(&format!("h{i}.example"), 1, 0))
            .count();
        assert!(
            (400..800).contains(&transient),
            "{transient} ≈ 600 expected at 120‰"
        );
    }

    #[test]
    fn mix_spreads_bits() {
        // Adjacent inputs should not collide.
        use std::collections::HashSet;
        let got: HashSet<u64> = (0..1000).map(|i| mix(0, &format!("d{i}"))).collect();
        assert_eq!(got.len(), 1000);
    }
}
