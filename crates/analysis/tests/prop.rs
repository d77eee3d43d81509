//! Property-based tests for the Eq. 2–3 numerics: log-space binomials,
//! the failure-count pmf, the total-probability composition and the
//! compensated sum.

use proptest::prelude::*;
use tornado_analysis::{binomial_pmf, compose_failure_probability, ln_binomial, NeumaierSum};
use tornado_bitset::combinations::binomial;

proptest! {
    #[test]
    fn ln_binomial_tracks_exact(n in 1u64..126, k in 0u64..126) {
        prop_assume!(k <= n);
        let exact = binomial(n, k) as f64;
        let ln = ln_binomial(n, k);
        prop_assert!((ln.exp() - exact).abs() / exact < 1e-9);
    }

    #[test]
    fn pmf_is_a_distribution(n in 1u64..100, p in 0.0f64..1.0) {
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        for k in 0..=n {
            let v = binomial_pmf(n, k, p);
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn composition_is_bounded_and_monotone(
        n in 1usize..40,
        p in 0.001f64..0.2,
        cut in 1usize..40,
    ) {
        prop_assume!(cut <= n);
        // Step profile failing from k = cut.
        let profile: Vec<f64> = (0..=n).map(|k| if k >= cut { 1.0 } else { 0.0 }).collect();
        let v = compose_failure_probability(n as u64, p, &profile);
        prop_assert!((0.0..=1.0).contains(&v));
        // Failing earlier can only be worse.
        if cut > 1 {
            let earlier: Vec<f64> =
                (0..=n).map(|k| if k >= cut - 1 { 1.0 } else { 0.0 }).collect();
            let ve = compose_failure_probability(n as u64, p, &earlier);
            prop_assert!(ve >= v - 1e-15);
        }
    }

    #[test]
    fn neumaier_matches_exact_integer_sums(xs in proptest::collection::vec(-1000i64..1000, 0..200)) {
        let mut s = NeumaierSum::new();
        for &x in &xs {
            s.add(x as f64);
        }
        let exact: i64 = xs.iter().sum();
        prop_assert_eq!(s.value(), exact as f64);
    }
}
