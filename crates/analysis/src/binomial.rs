//! Log-space binomial coefficients for the Eq. 2 failure-count
//! distribution (the exact `u128` ones are
//! `tornado_bitset::combinations::binomial`).

use crate::sum::NeumaierSum;

/// Natural log of `n!`: exact accumulation of `ln(i)` with Neumaier
/// compensation up to 4096, Stirling's series beyond (the graphs analysed
/// here never exceed a few hundred nodes).
pub(crate) fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= 4096 {
        (2..=n)
            .map(|i| (i as f64).ln())
            .collect::<NeumaierSum>()
            .value()
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

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_bitset::combinations::binomial;

    #[test]
    fn exact_small_cases() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(1, 0), 1);
        assert_eq!(binomial(1, 1), 1);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(3, 9), 0);
    }

    #[test]
    fn exact_pascal_rule_holds() {
        for n in 1..60u64 {
            for k in 1..n {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
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
            let exact = binomial(n, k) as f64;
            let rel = (ln_binomial(n, k).exp() - exact).abs() / exact;
            assert!(rel < 1e-10, "C({n},{k}) rel err {rel}");
        }
        assert_eq!(ln_binomial(5, 6), f64::NEG_INFINITY);
    }
}
