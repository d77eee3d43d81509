//! Time-stepped reliability simulation with proactive repair.
//!
//! Table 5 assumes "no repair": every failure in the year accumulates. The
//! paper's §6 proposes the opposite regime — a scrubber that "proactively
//! monitors … and reconstructs missing blocks before a stripe approaches
//! the initial failure point". This module quantifies what that buys:
//! device failure times are drawn from an exponential model calibrated to
//! the AFR, scrubs at fixed intervals replace failed devices and re-encode
//! their blocks (possible whenever the stripe is still decodable), and
//! data is lost only if the failures *within a single scrub interval*
//! already defeat the code.
//!
//! With zero scrubs the simulation reduces to the paper's Eq. 2–3
//! composition, which the tests verify.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The simulated horizon, in years: one, the period of the AFR and of
/// Table 5's "annual" probability of data loss.
const YEARS: f64 = 1.0;

/// Configuration for the one-year lifetime simulation.
#[derive(Clone, Copy, Debug)]
pub struct LifetimeConfig {
    /// Annual failure rate of one device (paper: 0.01).
    pub afr: f64,
    /// Scrub/repair passes during the year (`0` = the paper's no-repair
    /// model).
    pub scrubs: usize,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Seed.
    pub seed: u64,
}

/// Result of a lifetime simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LifetimeReport {
    /// Trials simulated.
    pub trials: u64,
    /// Trials that lost data.
    pub losses: u64,
}

impl LifetimeReport {
    /// Estimated probability of data loss within the year.
    pub fn loss_probability(&self) -> f64 {
        self.losses as f64 / self.trials as f64
    }
}

/// Simulates one year of `devices` devices. `fails(pattern)` must return
/// whether the erasure pattern (device indices) loses data — pass a decoder
/// closure for graph codes or a group-tolerance closure for RAID.
pub fn simulate_lifetime<F: FnMut(&[usize]) -> bool>(
    devices: usize,
    cfg: &LifetimeConfig,
    mut fails: F,
) -> LifetimeReport {
    assert!(devices > 0 && cfg.trials > 0);
    assert!((0.0..1.0).contains(&cfg.afr), "AFR must be in [0, 1)");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Exponential rate so that P(fail within 1 year) = afr. ln(1) is -0.0,
    // which would flip failure times to -inf — clamp to a true zero.
    let rate = (-(1.0 - cfg.afr).ln()).max(0.0);
    if rate == 0.0 {
        return LifetimeReport {
            trials: cfg.trials,
            losses: 0,
        };
    }
    let intervals = cfg.scrubs + 1;
    let dt = YEARS / intervals as f64;
    let mut losses = 0u64;
    let mut interval_failures: Vec<Vec<usize>> = vec![Vec::new(); intervals];
    for _ in 0..cfg.trials {
        for v in interval_failures.iter_mut() {
            v.clear();
        }
        for d in 0..devices {
            // Inverse-CDF sample of the exponential failure time.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let t = -u.ln() / rate;
            if t < YEARS {
                let slot = ((t / dt) as usize).min(intervals - 1);
                interval_failures[slot].push(d);
            }
        }
        // A scrub fully restores the system iff the stripe is decodable at
        // the boundary; failures therefore only accumulate within an
        // interval. (If an interval's failures already lose data, no later
        // scrub can help.)
        if interval_failures.iter().any(|f| !f.is_empty() && fails(f)) {
            losses += 1;
        }
    }
    LifetimeReport {
        trials: cfg.trials,
        losses,
    }
}

/// Convenience adapter: lifetime of a graph-coded system (device `i` holds
/// node `i`, so the graph's node count is the device count).
pub fn simulate_graph_lifetime(
    graph: &tornado_graph::Graph,
    cfg: &LifetimeConfig,
) -> LifetimeReport {
    let mut dec = tornado_codec::ErasureDecoder::new(graph);
    simulate_lifetime(graph.num_nodes(), cfg, |pattern| !dec.decode(pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::compose_failure_probability;
    use tornado_gen::mirror::generate_mirror;
    use tornado_sim::mirror::mirrored_profile;

    #[test]
    fn no_repair_matches_the_eq3_composition() {
        // Mirrored 8-pair system, no repair: the simulated annual loss
        // probability must match the analytic composition.
        let g = generate_mirror(8).unwrap();
        let cfg = LifetimeConfig {
            afr: 0.05, // inflated so the MC estimate is well-resolved
            scrubs: 0,
            trials: 300_000,
            seed: 3,
        };
        let sim = simulate_graph_lifetime(&g, &cfg);
        let profile = mirrored_profile(8);
        let analytic = compose_failure_probability(16, 0.05, &profile.conditional_vec());
        let p = sim.loss_probability();
        let sigma = (analytic * (1.0 - analytic) / cfg.trials as f64).sqrt();
        assert!(
            (p - analytic).abs() < 5.0 * sigma,
            "sim {p} vs analytic {analytic} (sigma {sigma})"
        );
    }

    #[test]
    fn scrubbing_improves_reliability() {
        let g = generate_mirror(8).unwrap();
        let base = LifetimeConfig {
            afr: 0.10,
            scrubs: 0,
            trials: 150_000,
            seed: 5,
        };
        let none = simulate_graph_lifetime(&g, &base).loss_probability();
        let monthly =
            simulate_graph_lifetime(&g, &LifetimeConfig { scrubs: 12, ..base }).loss_probability();
        assert!(
            monthly < none / 3.0,
            "monthly scrubs {monthly} vs none {none}"
        );
    }

    #[test]
    fn zero_afr_never_loses() {
        let g = generate_mirror(4).unwrap();
        let cfg = LifetimeConfig {
            afr: 0.0,
            scrubs: 0,
            trials: 1_000,
            seed: 0x11FE,
        };
        assert_eq!(simulate_graph_lifetime(&g, &cfg).losses, 0);
    }

    #[test]
    fn closure_adapter_supports_group_systems() {
        // Striping (any failure is fatal): loss probability equals
        // 1 − (1 − afr)^n regardless of scrubbing (a failure is always
        // immediately fatal, repair never gets a chance).
        let cfg = LifetimeConfig {
            afr: 0.05,
            scrubs: 4,
            trials: 200_000,
            seed: 9,
        };
        let sim = simulate_lifetime(10, &cfg, |pattern| !pattern.is_empty());
        let analytic = 1.0 - (1.0f64 - 0.05).powi(10);
        let p = sim.loss_probability();
        let sigma = (analytic * (1.0 - analytic) / cfg.trials as f64).sqrt();
        assert!((p - analytic).abs() < 5.0 * sigma, "sim {p} vs {analytic}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate_mirror(4).unwrap();
        let cfg = LifetimeConfig {
            afr: 0.1,
            scrubs: 0,
            trials: 10_000,
            seed: 0x11FE,
        };
        let a = simulate_graph_lifetime(&g, &cfg);
        let b = simulate_graph_lifetime(&g, &cfg);
        assert_eq!(a, b);
    }
}
