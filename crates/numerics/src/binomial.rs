//! Exact and log-space binomial coefficients.

/// Exact binomial coefficient `C(n, k)` in `u128`.
///
/// Multiplicative formula with interleaved division; every intermediate
/// value is an exact integer. Sufficient for all counts used by the 96- and
/// 192-device analyses (`C(96, 48) ≈ 6.4 × 10²⁷` fits comfortably).
///
/// # Panics
/// Panics when an intermediate product overflows `u128`; the peak
/// intermediate is about `C(n, n/2) · n/2`, so `n ≤ 126` is always safe.
/// Use [`ln_binomial`]/[`binomial_f64`] beyond that.
///
/// ```
/// use tornado_numerics::binomial_u128;
/// assert_eq!(binomial_u128(96, 2), 4560);
/// assert_eq!(binomial_u128(96, 48), 6_435_067_013_866_298_908_421_603_100);
/// ```
pub fn binomial_u128(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul((n - i) as u128)
            .expect("binomial coefficient overflows u128");
        acc /= (i + 1) as u128;
    }
    acc
}

/// Natural log of `n!` via a Lanczos-free exact/Stirling hybrid.
///
/// Values for `n < 256` come from a precomputed table built by exact
/// accumulation of `ln(i)`; larger `n` use the Stirling series with enough
/// terms for full `f64` accuracy in this range.
pub fn ln_factorial(n: u64) -> f64 {
    // Exact accumulation is both simple and accurate for moderate n; the
    // graphs analysed here never exceed a few hundred nodes.
    if n < 2 {
        return 0.0;
    }
    if n <= 4096 {
        let mut acc = 0.0f64;
        let mut c = 0.0f64; // Neumaier compensation
        for i in 2..=n {
            let x = (i as f64).ln();
            let t = acc + x;
            c += if acc.abs() >= x.abs() {
                (acc - t) + x
            } else {
                (x - t) + acc
            };
            acc = t;
        }
        acc + c
    } else {
        // Stirling's series: ln n! ≈ n ln n − n + ½ ln(2πn) + 1/(12n) − …
        let nf = n as f64;
        nf * nf.ln() - nf + 0.5 * (2.0 * std::f64::consts::PI * nf).ln() + 1.0 / (12.0 * nf)
            - 1.0 / (360.0 * nf.powi(3))
    }
}

/// Natural log of `C(n, k)`; `-inf` when `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial coefficient as `f64` (exact for results below 2⁵³, ln-space
/// beyond that).
pub fn binomial_f64(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    // Within the exact function's safe domain the u128 → f64 conversion
    // rounds correctly, so exact integer arithmetic is preferable. Larger
    // arguments use the log-space form.
    if n <= 126 {
        binomial_u128(n, k) as f64
    } else {
        ln_binomial(n, k).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_cases() {
        assert_eq!(binomial_u128(0, 0), 1);
        assert_eq!(binomial_u128(1, 0), 1);
        assert_eq!(binomial_u128(1, 1), 1);
        assert_eq!(binomial_u128(10, 3), 120);
        assert_eq!(binomial_u128(52, 5), 2_598_960);
        assert_eq!(binomial_u128(3, 9), 0);
    }

    #[test]
    fn exact_pascal_rule_holds() {
        for n in 1..60u64 {
            for k in 1..n {
                assert_eq!(
                    binomial_u128(n, k),
                    binomial_u128(n - 1, k - 1) + binomial_u128(n - 1, k)
                );
            }
        }
    }

    #[test]
    fn exact_row_sums_are_powers_of_two() {
        for n in 0..=96u64 {
            let sum: u128 = (0..=n).map(|k| binomial_u128(n, k)).sum();
            assert_eq!(sum, 1u128 << n, "row {n}");
        }
    }

    #[test]
    fn ln_factorial_matches_direct_products() {
        let mut exact = 1.0f64;
        for n in 1..=170u64 {
            exact *= n as f64;
            let rel = (ln_factorial(n) - exact.ln()).abs() / exact.ln().max(1.0);
            assert!(rel < 1e-12, "n = {n}: rel err {rel}");
        }
    }

    #[test]
    fn ln_factorial_stirling_branch_is_continuous() {
        // Compare the table/accumulation branch against Stirling just past
        // the crossover.
        let a = ln_factorial(4096);
        let nf = 4097f64;
        let stirling =
            nf * nf.ln() - nf + 0.5 * (2.0 * std::f64::consts::PI * nf).ln() + 1.0 / (12.0 * nf);
        let b = ln_factorial(4097);
        assert!((b - stirling).abs() < 1e-8);
        assert!(b > a);
    }

    #[test]
    fn ln_binomial_agrees_with_exact() {
        for &(n, k) in &[(96u64, 4u64), (96, 48), (126, 10), (64, 32)] {
            let exact = binomial_u128(n, k) as f64;
            let rel = (ln_binomial(n, k).exp() - exact).abs() / exact;
            assert!(rel < 1e-10, "C({n},{k}) rel err {rel}");
        }
        assert_eq!(ln_binomial(5, 6), f64::NEG_INFINITY);
    }

    #[test]
    fn f64_binomial_is_exact_where_it_can_be() {
        assert_eq!(binomial_f64(96, 4), 3_321_960.0);
        assert_eq!(binomial_f64(10, 11), 0.0);
        let big = binomial_f64(96, 48);
        let exact = binomial_u128(96, 48) as f64;
        assert!((big - exact).abs() / exact < 1e-14);
    }
}
