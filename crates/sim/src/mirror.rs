//! Closed-form mirrored-system failure probability (paper Eq. 1).
//!
//! For an array of `n` mirrored pairs (`2n` devices), reconstruction fails
//! given `k` offline devices exactly when some pair is completely offline.
//! Counting the complement — `k`-subsets touching every pair at most once —
//! gives
//!
//! ```text
//! P(fail | k) = 1 − C(n, k) · 2^k / C(2n, k)        (k ≤ n; 1 for k > n)
//! ```
//!
//! The paper validates its sampling simulator against this closed form "to
//! at least 9 significant digits"; `tests/` and the `validate_eq1` bench
//! binary reproduce that check.

use crate::profile::FailureProfile;
use tornado_bitset::combinations::binomial;

/// `P(fail | k devices offline)` for `pairs` mirrored pairs.
///
/// ```
/// use tornado_sim::mirrored_failure_probability;
/// // 4 pairs, 2 offline: only the 4 complete pairs fail out of C(8,2)=28.
/// let p = mirrored_failure_probability(4, 2);
/// assert!((p - 4.0 / 28.0).abs() < 1e-15);
/// ```
pub fn mirrored_failure_probability(pairs: usize, k: usize) -> f64 {
    let n = pairs as u64;
    let k64 = k as u64;
    if k == 0 {
        return 0.0;
    }
    if k64 > 2 * n {
        return 1.0; // degenerate: cannot lose more devices than exist
    }
    if k64 > n {
        return 1.0; // pigeonhole: some pair must be complete
    }
    let good = binomial(n, k64) as f64 * (2.0f64).powi(k as i32);
    let all = binomial(2 * n, k64) as f64;
    1.0 - good / all
}

/// The full analytic profile for `pairs` mirrored pairs, with every row
/// marked exact (trial/failure counts use the true combinatorial counts
/// where they fit in `u64`, otherwise a scaled representation preserving
/// the exact fraction to f64 precision).
pub fn mirrored_profile(pairs: usize) -> FailureProfile {
    let n = 2 * pairs;
    let mut p = FailureProfile::new(n);
    for k in 1..=n {
        let frac = mirrored_failure_probability(pairs, k);
        let cases = binomial(n as u64, k as u64);
        if cases <= u64::MAX as u128 {
            let cases = cases as u64;
            // Round to the nearest integer failure count; exact because the
            // fraction is a ratio with this denominator.
            let failures = (frac * cases as f64).round() as u64;
            p.record(k, cases, failures.min(cases), true);
        } else {
            let scale = 1u64 << 62; // exactly representable in f64
            let failures = ((frac * scale as f64).round() as u64).min(scale);
            p.record(k, scale, failures, true);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values() {
        assert_eq!(mirrored_failure_probability(48, 0), 0.0);
        assert_eq!(mirrored_failure_probability(48, 49), 1.0, "pigeonhole");
        assert_eq!(mirrored_failure_probability(48, 96), 1.0);
        assert_eq!(mirrored_failure_probability(48, 1_000), 1.0);
    }

    #[test]
    fn one_loss_never_fails() {
        for pairs in [1usize, 4, 48] {
            assert_eq!(mirrored_failure_probability(pairs, 1), 0.0, "pairs {pairs}");
        }
    }

    #[test]
    fn small_cases_by_hand() {
        // 2 pairs (4 devices), k = 2: failures are the 2 complete pairs of
        // C(4,2) = 6 subsets.
        assert!((mirrored_failure_probability(2, 2) - 2.0 / 6.0).abs() < 1e-15);
        // k = 3 with 2 pairs: every 3-subset contains a complete pair.
        assert_eq!(mirrored_failure_probability(2, 3), 1.0);
    }

    #[test]
    fn brute_force_agreement_for_three_pairs() {
        // Enumerate all subsets of 6 devices and count completions.
        let pairs = 3usize;
        let n = 2 * pairs;
        for k in 0..=n {
            let mut fail = 0u32;
            let mut total = 0u32;
            for mask in 0u32..(1 << n) {
                if mask.count_ones() as usize != k {
                    continue;
                }
                total += 1;
                let complete =
                    (0..pairs).any(|p| mask & (1 << p) != 0 && mask & (1 << (p + pairs)) != 0);
                if complete {
                    fail += 1;
                }
            }
            let expected = if total == 0 {
                0.0
            } else {
                fail as f64 / total as f64
            };
            let got = mirrored_failure_probability(pairs, k);
            assert!(
                (got - expected).abs() < 1e-12,
                "k = {k}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn paper_scale_is_finite_and_monotone() {
        let mut prev = -1.0;
        for k in 0..=96 {
            let p = mirrored_failure_probability(48, k);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-15, "monotone in k at {k}");
            prev = p;
        }
        // Sanity: the paper's Table 1 regime — failure is already likely by
        // k ≈ 12 (P ≈ 0.5 somewhere in the low teens).
        assert!(mirrored_failure_probability(48, 12) > 0.4);
        assert!(mirrored_failure_probability(48, 6) < 0.3);
    }

    #[test]
    fn profile_rows_match_closed_form() {
        let p = mirrored_profile(4);
        for k in 1..=8 {
            let frac = p.entry(k).fraction();
            let expected = mirrored_failure_probability(4, k);
            assert!((frac - expected).abs() < 1e-12, "k = {k}");
            assert!(p.entry(k).exact);
        }
    }
}
