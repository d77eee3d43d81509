//! Exact failure probabilities for grouped parity systems.
//!
//! A RAID system of `g` groups of `s` disks with per-group tolerance `t`
//! (RAID5: `t = 1`, RAID6: `t = 2`, striping: `t = 0`) survives an erasure
//! pattern iff every group lost at most `t` disks. The number of surviving
//! placements of `k` losses is the `k`-th coefficient of
//!
//! ```text
//! ( Σ_{j=0..t} C(s, j) · x^j )^g
//! ```
//!
//! computed exactly by integer convolution, so
//! `P(fail | k) = 1 − allowed(k) / C(gs, k)`.

use crate::layout::GroupLayout;
use tornado_numerics::binomial_u128;
use tornado_sim::FailureProfile;

/// A grouped parity system: layout plus per-group loss tolerance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSystem {
    /// Physical layout.
    pub layout: GroupLayout,
    /// Maximum per-group losses survivable (`0` striping, `1` RAID5,
    /// `2` RAID6).
    pub tolerance: usize,
}

impl GroupSystem {
    /// The paper's RAID5 system: 8 × 12, one parity disk per drawer.
    pub fn raid5_paper() -> Self {
        Self {
            layout: GroupLayout::paper_8x12(),
            tolerance: 1,
        }
    }

    /// The paper's RAID6 system: 8 × 12, two parity disks per drawer.
    pub fn raid6_paper() -> Self {
        Self {
            layout: GroupLayout::paper_8x12(),
            tolerance: 2,
        }
    }

    /// The paper's striped system: no redundancy (one 96-disk group, zero
    /// tolerance — any layout gives the same behaviour).
    pub fn striping_paper() -> Self {
        Self {
            layout: GroupLayout::new(1, 96),
            tolerance: 0,
        }
    }

    /// Data devices presented to the user (total minus parity).
    pub fn data_devices(&self) -> usize {
        self.layout.total_devices() - self.parity_devices()
    }

    /// Parity devices consumed by redundancy.
    pub fn parity_devices(&self) -> usize {
        self.layout.groups() * self.tolerance
    }

    /// `P(fail | k devices offline)` — exact.
    pub fn failure_probability(&self, k: usize) -> f64 {
        group_failure_probability(
            self.layout.groups(),
            self.layout.group_size(),
            self.tolerance,
            k,
        )
    }

    /// Whether a specific erasure pattern kills the system.
    pub fn pattern_fails(&self, offline: &[usize]) -> bool {
        self.layout
            .losses_per_group(offline)
            .iter()
            .any(|&c| c > self.tolerance)
    }

    /// The full exact profile (all rows marked exact; counts scaled into
    /// `u64` where the true `C(n, k)` does not fit).
    pub fn profile(&self) -> FailureProfile {
        let n = self.layout.total_devices();
        let mut p = FailureProfile::new(n);
        for k in 1..=n {
            let cases = binomial_u128(n as u64, k as u64);
            let frac = self.failure_probability(k);
            if cases <= u64::MAX as u128 {
                let cases = cases as u64;
                let failures = ((frac * cases as f64).round() as u64).min(cases);
                p.record(k, cases, failures, true);
            } else {
                let scale = 1u64 << 62;
                let failures = ((frac * scale as f64).round() as u64).min(scale);
                p.record(k, scale, failures, true);
            }
        }
        p
    }
}

/// Number of ways to choose `k` of `groups × size` devices with at most
/// `tolerance` per group: coefficient extraction by exact convolution.
pub fn allowed_placements(groups: usize, size: usize, tolerance: usize, k: usize) -> u128 {
    let t = tolerance.min(size);
    // Per-group polynomial coefficients C(size, 0..=t).
    let unit: Vec<u128> = (0..=t)
        .map(|j| binomial_u128(size as u64, j as u64))
        .collect();
    let mut poly: Vec<u128> = vec![1];
    for _ in 0..groups {
        let mut next = vec![0u128; (poly.len() + t).min(k + 1)];
        for (i, &a) in poly.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in unit.iter().enumerate() {
                if i + j < next.len() {
                    next[i + j] = next[i + j]
                        .checked_add(a.checked_mul(b).expect("placement count overflow"))
                        .expect("placement count overflow");
                }
            }
        }
        poly = next;
    }
    poly.get(k).copied().unwrap_or(0)
}

/// `P(fail | k offline)` for `groups × size` devices tolerating
/// `tolerance` losses per group. Exact.
pub fn group_failure_probability(groups: usize, size: usize, tolerance: usize, k: usize) -> f64 {
    let n = (groups * size) as u64;
    if k == 0 {
        return 0.0;
    }
    if k as u64 > n {
        return 1.0;
    }
    let total = binomial_u128(n, k as u64);
    let ok = allowed_placements(groups, size, tolerance, k);
    debug_assert!(ok <= total);
    1.0 - ok as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_fails_on_any_loss() {
        let s = GroupSystem::striping_paper();
        assert_eq!(s.failure_probability(0), 0.0);
        assert_eq!(s.failure_probability(1), 1.0);
        assert_eq!(s.data_devices(), 96);
        assert_eq!(s.parity_devices(), 0);
    }

    #[test]
    fn raid5_paper_shape() {
        let r = GroupSystem::raid5_paper();
        assert_eq!(r.data_devices(), 88);
        assert_eq!(r.parity_devices(), 8);
        assert_eq!(r.failure_probability(1), 0.0, "one loss per drawer is fine");
        // k = 2: fails iff both losses land in one drawer:
        // 8 × C(12,2) / C(96,2).
        let expected = 8.0 * 66.0 / 4560.0;
        assert!((r.failure_probability(2) - expected).abs() < 1e-15);
    }

    #[test]
    fn raid6_paper_shape() {
        let r = GroupSystem::raid6_paper();
        assert_eq!(r.data_devices(), 80);
        assert_eq!(r.parity_devices(), 16);
        assert_eq!(r.failure_probability(2), 0.0);
        // k = 3: all three in one drawer: 8 × C(12,3) / C(96,3).
        let expected = 8.0 * 220.0 / 142_880.0;
        assert!((r.failure_probability(3) - expected).abs() < 1e-15);
    }

    #[test]
    fn worst_case_loss_counts_match_paper_intro() {
        // §3: "a traditional high performance storage system containing 10
        // RAID5 LUNs […] could support the loss of ten drives as long as
        // exactly one drive fails in each LUN. In the case where 11 disks
        // fail, data loss is guaranteed."
        let sys = GroupSystem {
            layout: GroupLayout::new(10, 5),
            tolerance: 1,
        };
        assert!(sys.failure_probability(10) < 1.0);
        assert_eq!(sys.failure_probability(11), 1.0);
    }

    #[test]
    fn allowed_placements_brute_force_small() {
        // 2 groups of 3, tolerance 1: enumerate all 6-bit masks.
        for k in 0..=6usize {
            let mut ok = 0u32;
            for mask in 0u32..64 {
                if mask.count_ones() as usize != k {
                    continue;
                }
                let g0 = (mask & 0b000111).count_ones();
                let g1 = (mask & 0b111000).count_ones();
                if g0 <= 1 && g1 <= 1 {
                    ok += 1;
                }
            }
            assert_eq!(allowed_placements(2, 3, 1, k), ok as u128, "k = {k}");
        }
    }

    #[test]
    fn tolerance_at_least_group_size_never_fails() {
        for k in 0..=12 {
            assert_eq!(group_failure_probability(3, 4, 4, k), 0.0, "k = {k}");
        }
        // But losing more than everything is still nonsense-guarded.
        assert_eq!(group_failure_probability(3, 4, 4, 13), 1.0);
    }

    #[test]
    fn pattern_fails_checks_groups() {
        let r = GroupSystem::raid5_paper();
        assert!(!r.pattern_fails(&[0, 12, 24]));
        assert!(r.pattern_fails(&[0, 1]));
        assert!(!r.pattern_fails(&[]));
    }

    #[test]
    fn profile_is_exact_and_monotone() {
        let r = GroupSystem::raid6_paper();
        let p = r.profile();
        let mut prev = 0.0;
        for k in 1..=96 {
            let f = p.entry(k).fraction();
            assert!(f >= prev - 1e-12, "monotone at {k}");
            assert!(p.entry(k).exact);
            prev = f;
        }
        assert_eq!(p.entry(1).fraction(), 0.0);
        assert_eq!(p.entry(96).fraction(), 1.0);
        assert_eq!(p.first_failure(), Some(3), "RAID6 tolerates any two losses");
    }

    #[test]
    fn probabilities_order_raid5_raid6_mirror() {
        // For the paper's device counts, at moderate k:
        // RAID5 most fragile, then mirror… ordering spot-checks.
        let r5 = GroupSystem::raid5_paper();
        let r6 = GroupSystem::raid6_paper();
        for k in 2..=20 {
            assert!(
                r6.failure_probability(k) <= r5.failure_probability(k) + 1e-15,
                "RAID6 must dominate RAID5 at k = {k}"
            );
        }
    }
}
