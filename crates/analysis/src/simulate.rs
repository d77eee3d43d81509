//! Randomized cross-check of the analytic RAID profiles.
//!
//! Mirrors the paper's validation methodology (§3: the sampled mirrored
//! profile was checked against Eq. 1 "to at least 9 significant digits"):
//! the same sampling machinery is pointed at grouped parity systems and
//! compared with the exact convolution counts.

use crate::analytic::GroupSystem;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tornado_sim::FailureProfile;

/// Estimates `P(fail | k)` for a grouped system by sampling `trials`
/// uniform `k`-subsets. Deterministic in `seed`.
pub(crate) fn sample_group_failure(system: &GroupSystem, k: usize, trials: u64, seed: u64) -> f64 {
    let n = system.layout.total_devices();
    assert!(k <= n);
    if k == 0 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut failures = 0u64;
    for _ in 0..trials {
        for i in 0..k {
            let j = rng.gen_range(i..n);
            perm.swap(i, j);
        }
        if system.pattern_fails(&perm[..k]) {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

/// Builds a sampled profile for the system (for comparing against
/// [`GroupSystem::profile`]).
pub(crate) fn sampled_profile(
    system: &GroupSystem,
    trials_per_k: u64,
    seed: u64,
) -> FailureProfile {
    let n = system.layout.total_devices();
    let mut p = FailureProfile::new(n);
    for k in 1..=n {
        let frac = sample_group_failure(system, k, trials_per_k, seed ^ (k as u64) << 17);
        p.record(
            k,
            trials_per_k,
            (frac * trials_per_k as f64).round() as u64,
            false,
        );
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GroupLayout;

    #[test]
    fn sampled_matches_analytic_for_raid5() {
        let sys = GroupSystem::raid5_paper();
        for k in [2usize, 4, 8] {
            let exact = sys.failure_probability(k);
            let trials = 60_000u64;
            let sampled = sample_group_failure(&sys, k, trials, 99);
            let sigma = (exact * (1.0 - exact) / trials as f64).sqrt().max(1e-4);
            assert!(
                (sampled - exact).abs() < 4.0 * sigma,
                "k = {k}: sampled {sampled} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sampled_matches_analytic_for_raid6() {
        let sys = GroupSystem::raid6_paper();
        let exact = sys.failure_probability(6);
        let sampled = sample_group_failure(&sys, 6, 60_000, 7);
        let sigma = (exact * (1.0 - exact) / 60_000f64).sqrt().max(1e-4);
        assert!((sampled - exact).abs() < 4.0 * sigma);
    }

    #[test]
    fn degenerate_small_system_exact_agreement() {
        // 2 groups of 2, tolerance 1, k = 2: fails iff the pair is a group:
        // 2 / C(4,2) = 1/3. Sampling must converge to it.
        let sys = GroupSystem {
            layout: GroupLayout::new(2, 2),
            tolerance: 1,
        };
        let sampled = sample_group_failure(&sys, 2, 90_000, 3);
        assert!((sampled - 1.0 / 3.0).abs() < 0.01, "got {sampled}");
    }

    #[test]
    fn sampled_profile_rows_are_marked_sampled() {
        let sys = GroupSystem {
            layout: GroupLayout::new(2, 3),
            tolerance: 1,
        };
        let p = sampled_profile(&sys, 200, 5);
        assert!(!p.entry(2).exact);
        assert_eq!(p.entry(2).trials, 200);
        assert_eq!(p.entry(6).fraction(), 1.0, "losing everything fails");
    }
}
