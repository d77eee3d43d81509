//! Edge-degree distributions and the §3.1 multiplier solver.
//!
//! Luby's construction is specified in terms of *degrees of edges*: the
//! fraction of graph edges incident to nodes of each degree. For a degree-`d`
//! node, `d` edges "have degree `d`", so a distribution weight `w_d` over
//! edges corresponds to `w_d / d` worth of nodes. On the paper's small
//! levels (tens of nodes) naive rounding of `w_d / d` misses the required
//! node count, so a constant multiplier `m` is solved for such that
//! `Σ_d round(m · w_d / d)` equals the target exactly.

use crate::error::GenError;
use crate::solve::{solve_integer_target, Bracket, SolveError};

/// A distribution over edge degrees: `weights[j] = (degree, weight)` with
/// positive weights (not necessarily normalised).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EdgeDegreeDistribution {
    weights: Vec<(u32, f64)>,
}

impl EdgeDegreeDistribution {
    /// Builds a distribution from `(degree, weight)` pairs; weights must be
    /// positive and degrees unique and ≥ 1.
    #[cfg(test)]
    pub(crate) fn new(weights: Vec<(u32, f64)>) -> Result<Self, GenError> {
        if weights.is_empty() {
            return Err(GenError::BadParameters {
                detail: "empty degree distribution".into(),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(d, w) in &weights {
            if d == 0 {
                return Err(GenError::BadParameters {
                    detail: "degree 0 in distribution".into(),
                });
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(GenError::BadParameters {
                    detail: format!("non-positive weight {w} for degree {d}"),
                });
            }
            if !seen.insert(d) {
                return Err(GenError::BadParameters {
                    detail: format!("duplicate degree {d}"),
                });
            }
        }
        Ok(Self { weights })
    }

    /// Luby's heavy-tail edge-degree distribution with maximum node degree
    /// `D + 1`: weight `1 / ((i − 1) · H(D))` for node degrees
    /// `i = 2, …, D + 1`, where `H(D)` is the `D`-th harmonic number.
    pub(crate) fn heavy_tail(max_degree_d: u32) -> Self {
        assert!(max_degree_d >= 1, "heavy tail needs D >= 1");
        let h: f64 = (1..=max_degree_d).map(|i| 1.0 / i as f64).sum();
        let weights = (2..=max_degree_d + 1)
            .map(|i| (i, 1.0 / ((i - 1) as f64 * h)))
            .collect();
        Self { weights }
    }

    /// Truncated Poisson edge-degree distribution with parameter `a` over
    /// node degrees `1..=max_degree`: weight ∝ `a^(i−1) / (i−1)!` (the
    /// right-side distribution of Luby's construction).
    pub(crate) fn poisson(a: f64, max_degree: u32) -> Self {
        assert!(a > 0.0 && max_degree >= 1);
        let mut weights = Vec::with_capacity(max_degree as usize);
        let mut term = 1.0f64; // a^0 / 0!
        for i in 1..=max_degree {
            weights.push((i, term));
            term *= a / i as f64;
        }
        Self { weights }
    }

    /// The `(degree, weight)` pairs, ascending by degree.
    #[cfg(test)]
    pub(crate) fn weights(&self) -> &[(u32, f64)] {
        &self.weights
    }

    /// Returns a new distribution with every degree doubled (the paper's
    /// "distribution doubled" alteration, §4.3).
    pub(crate) fn doubled(&self) -> Self {
        Self {
            weights: self.weights.iter().map(|&(d, w)| (d * 2, w)).collect(),
        }
    }

    /// Returns a new distribution with every degree shifted by +1 (the
    /// paper's "distribution shifted" alteration, §4.3).
    pub(crate) fn shifted(&self) -> Self {
        Self {
            weights: self.weights.iter().map(|&(d, w)| (d + 1, w)).collect(),
        }
    }

    /// Node counts per degree for multiplier `m`:
    /// `count_d = round(m · w_d / d)`.
    pub(crate) fn node_counts(&self, m: f64) -> Vec<(u32, usize)> {
        self.weights
            .iter()
            .map(|&(d, w)| (d, (m * w / d as f64).round().max(0.0) as usize))
            .collect()
    }

    fn total_nodes(&self, m: f64) -> i64 {
        self.node_counts(m).iter().map(|&(_, c)| c as i64).sum()
    }

    /// Solves for a multiplier yielding exactly `target` nodes, then returns
    /// the per-degree node counts (§3.1's numeric solver).
    ///
    /// If rounding makes the exact target unreachable, the nearest
    /// achievable count is *repaired* by adjusting the count of the smallest
    /// degree — the paper's intermediate processing step guarantees the
    /// required number of nodes one way or another.
    pub(crate) fn solve_node_counts(&self, target: usize) -> Result<Vec<(u32, usize)>, GenError> {
        assert!(target > 0, "target must be positive");
        // Bracket: m = 0 gives 0 nodes; scale up until we overshoot.
        let mut hi = 1.0f64;
        while self.total_nodes(hi) < target as i64 {
            hi *= 2.0;
            if hi > 1e18 {
                return Err(GenError::DistributionUnsolvable {
                    target,
                    closest: self.total_nodes(1e18),
                });
            }
        }
        match solve_integer_target(
            |m| self.total_nodes(m),
            Bracket::new(0.0, hi),
            target as i64,
            256,
        ) {
            Ok(m) => Ok(self.node_counts(m)),
            Err(SolveError::TargetUnreachable { at, .. }) => {
                // Repair: take the nearest undershoot and add the shortfall
                // to the smallest degree (affects fault tolerance least).
                let mut counts = self.node_counts(at);
                let have: i64 = counts.iter().map(|&(_, c)| c as i64).sum();
                let deficit = target as i64 - have;
                if deficit >= 0 {
                    counts[0].1 += deficit as usize;
                } else {
                    let mut to_remove = (-deficit) as usize;
                    for slot in counts.iter_mut() {
                        let take = to_remove.min(slot.1);
                        slot.1 -= take;
                        to_remove -= take;
                        if to_remove == 0 {
                            break;
                        }
                    }
                    if to_remove > 0 {
                        return Err(GenError::DistributionUnsolvable {
                            target,
                            closest: have,
                        });
                    }
                }
                Ok(counts)
            }
            Err(_) => Err(GenError::DistributionUnsolvable {
                target,
                closest: self.total_nodes(hi),
            }),
        }
    }

    /// Expands solved node counts into a degree sequence (one entry per
    /// node, ascending by degree). Total length equals the solved target.
    pub(crate) fn degree_sequence(&self, target: usize) -> Result<Vec<u32>, GenError> {
        let counts = self.solve_node_counts(target)?;
        let mut seq = Vec::with_capacity(target);
        for (d, c) in counts {
            seq.extend(std::iter::repeat_n(d, c));
        }
        debug_assert_eq!(seq.len(), target);
        Ok(seq)
    }

    /// Average node degree implied by the distribution:
    /// `Σ w_d / Σ (w_d / d)` (edges per node).
    #[cfg(test)]
    pub(crate) fn mean_node_degree(&self) -> f64 {
        let edges: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        let nodes: f64 = self.weights.iter().map(|&(d, w)| w / d as f64).sum();
        edges / nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_tail_weights_sum_to_one() {
        for d in 1..20 {
            let dist = EdgeDegreeDistribution::heavy_tail(d);
            let total: f64 = dist.weights().iter().map(|&(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12, "D = {d}: sum {total}");
            assert_eq!(dist.weights().first().unwrap().0, 2);
            assert_eq!(dist.weights().last().unwrap().0, d + 1);
        }
    }

    #[test]
    fn poisson_weights_follow_ratio() {
        let a = 2.5;
        let dist = EdgeDegreeDistribution::poisson(a, 6);
        let w = dist.weights();
        for i in 1..w.len() {
            let ratio = w[i].1 / w[i - 1].1;
            assert!((ratio - a / i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn constructor_rejects_bad_input() {
        assert!(EdgeDegreeDistribution::new(vec![]).is_err());
        assert!(EdgeDegreeDistribution::new(vec![(0, 1.0)]).is_err());
        assert!(EdgeDegreeDistribution::new(vec![(2, -1.0)]).is_err());
        assert!(EdgeDegreeDistribution::new(vec![(2, 1.0), (2, 1.0)]).is_err());
    }

    #[test]
    fn solver_hits_exact_targets() {
        let dist = EdgeDegreeDistribution::heavy_tail(8);
        for target in [4usize, 12, 24, 48, 96, 100] {
            let counts = dist.solve_node_counts(target).unwrap();
            let total: usize = counts.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, target, "target {target}: counts {counts:?}");
        }
    }

    #[test]
    fn solver_handles_single_degree_distribution() {
        // Degenerate case: all edges degree 3 — the count function jumps in
        // steps of 1, every target reachable.
        let dist = EdgeDegreeDistribution::new(vec![(3, 1.0)]).unwrap();
        let counts = dist.solve_node_counts(7).unwrap();
        assert_eq!(counts, vec![(3, 7)]);
    }

    #[test]
    fn solver_repairs_a_target_the_rounding_jumps_over() {
        // Both degrees carry w / d = 1, so the node count is 2 · round(m):
        // no multiplier yields an odd total, and the shortfall goes to the
        // smallest degree.
        let dist = EdgeDegreeDistribution::new(vec![(2, 2.0), (3, 3.0)]).unwrap();
        let counts = dist.solve_node_counts(7).unwrap();
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), 7);
        assert_eq!(counts[0].1, counts[1].1 + 1, "{counts:?}");
    }

    #[test]
    fn degree_sequence_length_and_order() {
        let dist = EdgeDegreeDistribution::heavy_tail(6);
        let seq = dist.degree_sequence(24).unwrap();
        assert_eq!(seq.len(), 24);
        assert!(seq.windows(2).all(|w| w[0] <= w[1]));
        assert!(seq.iter().all(|&d| (2..=7).contains(&d)));
        // Heavy tail: low degrees dominate.
        let deg2 = seq.iter().filter(|&&d| d == 2).count();
        assert!(deg2 > seq.len() / 3, "degree-2 share too small: {deg2}");
    }

    #[test]
    fn doubled_and_shifted_transform_degrees() {
        let dist = EdgeDegreeDistribution::new(vec![(2, 0.6), (3, 0.4)]).unwrap();
        assert_eq!(
            dist.doubled().weights(),
            &[(4, 0.6), (6, 0.4)],
            "doubling multiplies degrees"
        );
        assert_eq!(dist.shifted().weights(), &[(3, 0.6), (4, 0.4)]);
    }

    #[test]
    fn mean_degree_of_heavy_tail_is_moderate() {
        // The paper reports ~3.6 average degree for its Tornado graphs;
        // heavy-tail distributions with small D should land in that range.
        let dist = EdgeDegreeDistribution::heavy_tail(8);
        let mean = dist.mean_node_degree();
        assert!((2.0..6.0).contains(&mean), "mean {mean}");
    }
}
