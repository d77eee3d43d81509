//! The device-failure probability model (paper §5.1, Eqs. 2–3).
//!
//! The paper assumes independent device failures with a fixed annual failure
//! rate `p` and no repair. The number of failed devices is then binomial
//! (Eq. 2), and composing it with the *measured* conditional failure profile
//! `P(fail | k devices lost)` by total probability (Eq. 3) yields the system
//! failure probability reported in Table 5.

use crate::binomial::ln_binomial;
use crate::sum::NeumaierSum;

/// Probability that exactly `k` of `n` devices fail, each independently with
/// probability `p` (paper Eq. 2).
///
/// Computed in log space so extreme tails (e.g. `k = 48`, `p = 0.01`) do not
/// underflow prematurely.
///
/// ```
/// use tornado_analysis::binomial_pmf;
/// let p3 = binomial_pmf(96, 3, 0.01);
/// assert!((p3 - 0.056).abs() < 2e-3); // paper §5.1 quotes ≈ 0.056 for "exactly 3"
/// ```
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    // ln(1 - p) via ln_1p(-p) keeps full accuracy at the small p typical of
    // annual failure rates.
    let ln = ln_binomial(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (-p).ln_1p();
    ln.exp()
}

/// Total-probability composition (paper Eq. 3):
/// `P(fail) = Σₖ P(fail | k lost) · P(k lost)`.
///
/// # Panics
/// Panics if `profile.len() != n + 1` or any entry is outside `[0, 1]`.
pub fn compose_failure_probability(n: u64, p: f64, profile: &[f64]) -> f64 {
    assert_eq!(
        profile.len() as u64,
        n + 1,
        "conditional profile must cover k = 0..=n"
    );
    let mut s = NeumaierSum::new();
    for (k, &cond) in profile.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(&cond),
            "profile[{k}] = {cond} is not a probability"
        );
        if cond > 0.0 {
            s.add(cond * binomial_pmf(n, k as u64, p));
        }
    }
    s.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &p in &[0.0, 0.01, 0.3, 0.99, 1.0] {
            let total: f64 = (0..=96).map(|k| binomial_pmf(96, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-12, "p = {p}: total {total}");
        }
    }

    #[test]
    fn pmf_degenerate_endpoints() {
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 1, 0.0), 0.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
        assert_eq!(binomial_pmf(10, 9, 1.0), 0.0);
    }

    #[test]
    fn pmf_matches_direct_formula_small_n() {
        // n = 4, p = 0.25: exact values are easy by hand.
        let pmf = |k| binomial_pmf(4, k, 0.25);
        let q: f64 = 0.75;
        assert!((pmf(0) - q.powi(4)).abs() < 1e-15);
        assert!((pmf(1) - 4.0 * 0.25 * q.powi(3)).abs() < 1e-15);
        assert!((pmf(4) - 0.25f64.powi(4)).abs() < 1e-15);
    }

    #[test]
    fn paper_quoted_values() {
        // §5.1: "P(exactly 3 disks fail) = 0.056" and
        //        "P(exactly 5 disks fail) = 0.0024" for n = 96, p = 0.01.
        let (p3, p5) = (binomial_pmf(96, 3, 0.01), binomial_pmf(96, 5, 0.01));
        assert!((p3 - 0.056).abs() < 2e-3, "pmf(3) = {p3}");
        assert!((p5 - 0.0024).abs() < 3e-4, "pmf(5) = {p5}");
    }

    #[test]
    fn striping_composition_matches_closed_form() {
        // A striped system fails whenever any device fails:
        // P(fail) = 1 − (1 − p)ⁿ. Paper Table 5 reports 0.61895 for n = 96.
        let n = 96u64;
        let p = 0.01;
        let mut profile = vec![1.0; (n + 1) as usize];
        profile[0] = 0.0;
        let composed = compose_failure_probability(n, p, &profile);
        let closed = 1.0 - (1.0f64 - p).powi(n as i32);
        assert!((composed - closed).abs() < 1e-12);
        assert!((composed - 0.61895).abs() < 5e-5, "composed = {composed}");
    }

    #[test]
    fn individual_disk_convention() {
        // "Individual disk" in Table 5 is just p itself: the probability a
        // given disk's data is lost. Sanity-check our model can express the
        // single-device case.
        assert!((compose_failure_probability(1, 0.01, &[0.0, 1.0]) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn survival_function_is_monotone() {
        // P(at least k of 96 fail) is Eq. 3 on the step profile failing
        // from k on.
        let sf = |k: usize| {
            let step: Vec<f64> = (0..=96).map(|j| if j >= k { 1.0 } else { 0.0 }).collect();
            compose_failure_probability(96, 0.01, &step)
        };
        let mut prev = 1.0 + 1e-12;
        for k in 0..=96 {
            let sf = sf(k);
            assert!(sf <= prev + 1e-12, "sf not monotone at k = {k}");
            prev = sf;
        }
        assert!((sf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn compose_rejects_short_profile() {
        compose_failure_probability(4, 0.1, &[0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn compose_rejects_invalid_probability() {
        compose_failure_probability(1, 0.1, &[0.0, 1.5]);
    }
}
