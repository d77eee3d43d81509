//! Density evolution — the asymptotic analysis behind Tornado Codes.
//!
//! Luby's original work characterises edge-degree distribution pairs
//! `(λ, ρ)` by their *erasure threshold*: the largest loss fraction δ such
//! that, as graphs grow, peeling decodes with high probability. The
//! fixed-point recursion on an infinite tree is
//!
//! ```text
//! x_{t+1} = δ · λ(1 − ρ(1 − x_t)),     x_0 = δ
//! ```
//!
//! where `λ, ρ` are the edge-perspective generating polynomials
//! (`λ(x) = Σ λ_d x^(d−1)`). Decoding succeeds iff `x_t → 0`.
//!
//! Plank's critique — which motivates the whole paper — is that this
//! "collective and asymptotic" guarantee says little about 96-node graphs.
//! Having both analyses in one workspace makes that gap measurable: compare
//! [`erasure_threshold`] against the Monte-Carlo transition points of the
//! finite graphs in `tornado-sim`.

use crate::distribution::EdgeDegreeDistribution;

/// Edge-perspective polynomial coefficients: `coeffs[i]` is the fraction of
/// edges attached to degree-`i+1` nodes (so `poly(x) = Σ coeffs[i]·x^i`).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EdgePolynomial {
    coeffs: Vec<f64>,
}

impl EdgePolynomial {
    /// Normalises an [`EdgeDegreeDistribution`] into edge-perspective form.
    pub(crate) fn from_distribution(dist: &EdgeDegreeDistribution) -> Self {
        let total: f64 = dist.weights().iter().map(|&(_, w)| w).sum();
        let max_degree = dist
            .weights()
            .iter()
            .map(|&(d, _)| d)
            .max()
            .expect("distribution is non-empty") as usize;
        let mut coeffs = vec![0.0; max_degree];
        for &(d, w) in dist.weights() {
            coeffs[(d - 1) as usize] += w / total;
        }
        Self { coeffs }
    }

    /// Evaluates the polynomial at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        // Horner, highest degree first.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Mean node degree implied by the edge perspective:
    /// `1 / Σ (coeffs[i] / (i+1))`.
    pub(crate) fn mean_node_degree(&self) -> f64 {
        let inv: f64 = self
            .coeffs
            .iter()
            .enumerate()
            .map(|(i, &c)| c / (i + 1) as f64)
            .sum();
        1.0 / inv
    }
}

/// Whether the recursion converges to zero at loss fraction `delta`.
pub(crate) fn decodes_at(lambda: &EdgePolynomial, rho: &EdgePolynomial, delta: f64) -> bool {
    let mut x = delta;
    for _ in 0..10_000 {
        let next = delta * lambda.eval(1.0 - rho.eval(1.0 - x));
        if next < 1e-9 {
            return true;
        }
        // Stalled: the recursion is monotone non-increasing from x₀ = δ, so
        // negligible progress means a fixed point above zero.
        if x - next < 1e-12 {
            return false;
        }
        x = next;
    }
    false
}

/// The erasure threshold of the pair `(λ, ρ)` by bisection, within `tol`.
pub(crate) fn erasure_threshold(lambda: &EdgePolynomial, rho: &EdgePolynomial, tol: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if decodes_at(lambda, rho, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Convenience: the threshold of a Tornado stage with heavy-tail left
/// distribution `D` and the matching truncated-Poisson right distribution
/// at the edge-balanced mean for a rate-1/2 stage.
pub(crate) fn tornado_stage_threshold(max_degree_d: u32, tol: f64) -> f64 {
    let left = EdgeDegreeDistribution::heavy_tail(max_degree_d);
    // A halving stage has twice as many left nodes as checks, so the mean
    // check degree is twice the mean left degree.
    let mean_left = left.mean_node_degree();
    let right = EdgeDegreeDistribution::poisson(2.0 * mean_left, 4 * max_degree_d + 8);
    erasure_threshold(
        &EdgePolynomial::from_distribution(&left),
        &EdgePolynomial::from_distribution(&right),
        tol,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(coeffs: &[f64]) -> EdgePolynomial {
        EdgePolynomial {
            coeffs: coeffs.to_vec(),
        }
    }

    #[test]
    fn polynomial_evaluation() {
        // λ(x) = 0.5 + 0.5x²
        let p = poly(&[0.5, 0.0, 0.5]);
        assert!((p.eval(0.0) - 0.5).abs() < 1e-15);
        assert!((p.eval(1.0) - 1.0).abs() < 1e-15);
        assert!((p.eval(0.5) - 0.625).abs() < 1e-15);
    }

    #[test]
    fn from_distribution_normalises() {
        let dist = EdgeDegreeDistribution::new(vec![(2, 2.0), (3, 2.0)]).unwrap();
        let p = EdgePolynomial::from_distribution(&dist);
        assert!((p.eval(1.0) - 1.0).abs() < 1e-12, "coefficients sum to 1");
        // Edge fractions 0.5/0.5 at degrees 2, 3 → mean node degree
        // 1 / (0.5/2 + 0.5/3) = 2.4.
        assert!((p.mean_node_degree() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn regular_3_6_pair_threshold_is_known() {
        // The classic (3,6)-regular LDPC pair: λ(x) = x², ρ(x) = x⁵ has
        // erasure threshold ≈ 0.4294 (standard density-evolution result).
        let lambda = poly(&[0.0, 0.0, 1.0]);
        let rho = poly(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let t = erasure_threshold(&lambda, &rho, 1e-6);
        assert!((t - 0.4294).abs() < 2e-3, "threshold {t}");
    }

    #[test]
    fn thresholds_are_monotone_in_robustness() {
        // Weakening the right side (higher check degrees) lowers the
        // threshold for a fixed left side.
        let lambda = poly(&[0.0, 1.0]); // λ(x) = x (all left degree 2)
        let rho_light = poly(&[0.0, 0.0, 0.0, 1.0]); // checks degree 4
        let rho_heavy = poly(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]); // degree 8
        let t_light = erasure_threshold(&lambda, &rho_light, 1e-6);
        let t_heavy = erasure_threshold(&lambda, &rho_heavy, 1e-6);
        assert!(t_light > t_heavy, "{t_light} vs {t_heavy}");
    }

    #[test]
    fn decodes_at_extremes() {
        let lambda = poly(&[0.0, 0.0, 1.0]);
        let rho = poly(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(decodes_at(&lambda, &rho, 0.01), "tiny loss always decodes");
        assert!(
            !decodes_at(&lambda, &rho, 0.99),
            "near-total loss never does"
        );
    }

    #[test]
    fn tornado_stage_threshold_is_plausible() {
        // Heavy-tail/Poisson pairs approach capacity (0.5 for rate 1/2) as
        // D grows; at the paper's D = 16 the stage threshold should already
        // be in the 0.35–0.5 band, and above the D = 4 threshold.
        let t4 = tornado_stage_threshold(4, 1e-5);
        let t16 = tornado_stage_threshold(16, 1e-5);
        assert!(t16 > 0.33 && t16 < 0.52, "t16 = {t16}");
        assert!(t16 > t4 - 0.02, "t4 = {t4}, t16 = {t16}");
    }

    #[test]
    fn finite_graph_transition_tracks_the_asymptotic_threshold_loosely() {
        // Plank's point, quantified: the 96-node Monte-Carlo 50% transition
        // sits well below the asymptotic threshold. (The threshold says
        // nothing about worst cases either — that is the paper's whole
        // argument for explicit testing.)
        let t = tornado_stage_threshold(16, 1e-4);
        // From Table 6: ~61 of 96 nodes needed ⇒ transition at losing
        // ~35/96 ≈ 0.36 of all nodes.
        let finite = 35.0 / 96.0;
        assert!(finite <= t + 0.1, "finite {finite} vs asymptotic {t}");
    }
}
