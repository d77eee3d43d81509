//! Failure profiles and the paper's summary statistics.

use crate::monte_carlo::sample_levels_observed;
use crate::obs::SimObserver;
use crate::worst_case::{worst_case_search, WorstCaseConfig};
use tornado_graph::Graph;

/// Measurement for one offline-device count `k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Number of nodes offline.
    pub k: usize,
    /// Trials examined (equals the full `C(n, k)` when `exact`).
    pub trials: u64,
    /// Trials whose reconstruction failed.
    pub failures: u64,
    /// Whether this row is a full combinatorial enumeration rather than a
    /// random sample.
    pub exact: bool,
}

impl ProfileEntry {
    /// Fraction of failed reconstructions, `P(fail | k offline)`.
    pub fn fraction(&self) -> f64 {
        if self.trials == 0 {
            // No evidence: conservative upper bound for reliability math is
            // supplied by FailureProfile::conditional_vec(), not here.
            return f64::NAN;
        }
        self.failures as f64 / self.trials as f64
    }
}

/// `P(fail | k nodes offline)` for `k = 0..=n`, assembled from exhaustive
/// search rows and Monte-Carlo rows ([`hybrid_profile`] builds the
/// paper's).
///
/// The paper's convention (§3): "the number of online nodes is set in
/// advance and the test case is recorded as passing or failing
/// reconstruction with that node count". Eq. 3 needs only each row's
/// marginal `P(fail | k)`; sampled rows of one pass share their trials
/// (each trial is one failure order read at every level), so they are
/// correlated across `k`, which Eq. 3 does not care about.
///
/// Shared trials make the literature's incremental overhead (Plank's
/// retrieve-until-decodable metric, which §5.2 contrasts with) a statistic
/// of the profile too: a trial retrieving its failure order backwards first
/// reconstructs after as many blocks as it has failing levels, so over a
/// pass of every `k = 1..=n` the mean blocks retrieved is
/// [`FailureProfile::average_nodes_to_reconstruct`], the range
/// [`FailureProfile::nodes_to_reconstruct_range`], and the per-trial
/// histogram the first differences of the failure counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureProfile {
    num_nodes: usize,
    entries: Vec<ProfileEntry>,
}

impl FailureProfile {
    /// Creates an empty profile (zero trials everywhere; `k = 0` is seeded
    /// as exactly never-failing since losing nothing cannot fail).
    pub fn new(num_nodes: usize) -> Self {
        let mut entries: Vec<ProfileEntry> = (0..=num_nodes)
            .map(|k| ProfileEntry {
                k,
                trials: 0,
                failures: 0,
                exact: false,
            })
            .collect();
        entries[0] = ProfileEntry {
            k: 0,
            trials: 1,
            failures: 0,
            exact: true,
        };
        Self { num_nodes, entries }
    }

    /// Total nodes in the system this profile describes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All rows, `k = 0..=n`.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// The row for `k`.
    pub fn entry(&self, k: usize) -> &ProfileEntry {
        &self.entries[k]
    }

    /// Records measurements for one `k`, replacing whatever was there.
    ///
    /// # Panics
    /// Panics if `failures > trials` or `k > n`.
    pub fn record(&mut self, k: usize, trials: u64, failures: u64, exact: bool) {
        assert!(k <= self.num_nodes, "k = {k} beyond {}", self.num_nodes);
        assert!(failures <= trials, "failures {failures} > trials {trials}");
        self.entries[k] = ProfileEntry {
            k,
            trials,
            failures,
            exact,
        };
    }

    /// The full conditional vector `P(fail | k offline)`, `k = 0..=n`: the
    /// input of the paper's Eq. 3 composition
    /// (`tornado_analysis::reliability`), with the monotone-completion
    /// convention for unmeasured rows: failure probability is
    /// non-decreasing in `k` (losing more nodes never helps), so an
    /// unmeasured row inherits the largest measured fraction at any smaller
    /// `k` (a lower bound) — and rows past the last measured `k` saturate
    /// at that value.
    ///
    /// Rows measured with zero trials at `k` between measured rows are rare
    /// in practice (the harnesses measure every `k`); the convention keeps
    /// the reliability composition well-defined regardless.
    pub fn conditional_vec(&self) -> Vec<f64> {
        self.completed().collect()
    }

    /// [`FailureProfile::conditional_vec`] in one scan: the running maximum
    /// of the measured fractions.
    fn completed(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries.iter().scan(0.0f64, |best, e| {
            if e.trials > 0 {
                *best = best.max(e.fraction());
            }
            Some(*best)
        })
    }

    /// `P(success | m nodes online)` for `m = 0..=n`, from one scan: the
    /// complement view used by the reconstruction-efficiency statistics.
    fn success_vec(&self) -> Vec<f64> {
        self.conditional_vec()
            .iter()
            .rev()
            .map(|c| 1.0 - c)
            .collect()
    }

    /// First `k`, in `k` order, whose row shows a failure, whether that row
    /// was enumerated or sampled. `None` if no failure was ever observed;
    /// the certified answer is [`FailureProfile::first_failure_exact`].
    pub fn first_failure(&self) -> Option<usize> {
        self.entries.iter().find(|e| e.failures > 0).map(|e| e.k)
    }

    /// First `k` whose *exhaustively enumerated* row shows a failure —
    /// the paper's worst-case failure scenario. `None` when every exact row
    /// is clean (the graph survives all losses up to
    /// [`FailureProfile::max_exact_k`]).
    pub fn first_failure_exact(&self) -> Option<usize> {
        self.entries
            .iter()
            .find(|e| e.exact && e.failures > 0)
            .map(|e| e.k)
    }

    /// Largest `k` covered by the leading contiguous run of exhaustive rows
    /// (`k = 0` is always exact), i.e. the depth to which the worst case is
    /// *certified*.
    pub fn max_exact_k(&self) -> usize {
        let mut k = 0usize;
        for e in &self.entries[1..] {
            if e.exact && e.k == k + 1 {
                k = e.k;
            } else {
                break;
            }
        }
        k
    }

    /// The paper's "average number of nodes capable of reconstructing the
    /// data": the expectation of the success threshold in the online-node
    /// count, `Σ_m m · [s(m) − s(m−1)]` with `s(m) = P(success | m online)`.
    ///
    /// Equals `n · s(n) − Σ_{m=0}^{n−1} s(m)` by summation by parts.
    pub fn average_nodes_to_reconstruct(&self) -> f64 {
        let n = self.num_nodes;
        let s = self.success_vec();
        let mut tail: f64 = 0.0;
        for &s_m in &s[..n] {
            tail += s_m;
        }
        n as f64 * s[n] - tail
    }

    /// The fewest and the most online nodes any trial needed, when every
    /// `k = 1..=n` was read off the same trials (one
    /// [`monte_carlo_profile`](crate::monte_carlo_profile) pass): a trial
    /// needs `n − k + 1` nodes for the first `k` at which it fails, so the
    /// most is read at the first `k` where some trial fails and the fewest
    /// at the first `k` where every trial does. `None` when no row fails
    /// outright.
    pub fn nodes_to_reconstruct_range(&self) -> Option<std::ops::RangeInclusive<usize>> {
        let all_fail = self
            .entries
            .iter()
            .find(|e| e.trials > 0 && e.failures == e.trials)?
            .k;
        let first = self.first_failure()?;
        Some(self.num_nodes + 1 - all_fail..=self.num_nodes + 1 - first)
    }

    /// The paper's Tables 1–4 statistic, "average number of nodes capable
    /// of reconstructing the data": the mean *online* node count over
    /// successful test cases within the sampled offline range (the paper
    /// samples `k = 5..=48` for its 96-node systems), i.e.
    /// `Σ_k (n−k)·s(n−k) / Σ_k s(n−k)` for `k` in `ks`.
    ///
    /// Distinct from [`FailureProfile::average_nodes_to_reconstruct`]
    /// (the success-threshold expectation): conditioning on success inside
    /// a fixed sampling window weights the whole upper tail, which is why
    /// the paper's values (73.77–80.39) sit well above its Table 6 50 %
    /// points (61–62).
    pub fn average_online_given_success(&self, ks: std::ops::RangeInclusive<usize>) -> f64 {
        let n = self.num_nodes;
        let success = self.success_vec();
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for k in ks {
            assert!(k <= n, "k = {k} beyond {n}");
            let m = n - k;
            let s = success[m];
            num += m as f64 * s;
            den += s;
        }
        if den == 0.0 {
            f64::NAN
        } else {
            num / den
        }
    }

    /// Smallest online-node count whose success probability is at least
    /// `p` (Table 6 uses `p = 0.5`). Returns `None` if even all `n` nodes
    /// do not reach `p` (cannot happen for real graphs where `s(n) = 1`).
    pub fn nodes_for_success_probability(&self, p: f64) -> Option<usize> {
        self.success_vec().into_iter().position(|s| s >= p)
    }

    /// Overhead relative to an ideal code: `nodes_for_success(0.5) / k_data`
    /// (Table 6 reports e.g. 62/48 = 1.29).
    pub fn overhead_at_half(&self, num_data: usize) -> Option<f64> {
        self.nodes_for_success_probability(0.5)
            .map(|m| m as f64 / num_data as f64)
    }
}

/// The paper's hybrid profile (§3): every `k ≤ exhaustive_max_k` counted
/// exactly by the worst-case walk, every larger `k` sampled at
/// `trials_per_k` trials in one Monte-Carlo pass.
///
/// # Panics
/// Panics on a graph the worst-case search refuses (more than
/// [`MAX_NODES`](crate::worst_case::MAX_NODES) nodes).
pub fn hybrid_profile(
    graph: &Graph,
    exhaustive_max_k: usize,
    trials_per_k: u64,
    seed: u64,
) -> FailureProfile {
    let n = graph.num_nodes();
    let exact = WorstCaseConfig {
        max_k: exhaustive_max_k,
        collect_cap: 0,
        stop_at_first_failure: false,
    };
    let mut profile = worst_case_search(graph, &exact).to_profile(n);
    let ks: Vec<usize> = (exhaustive_max_k + 1..=n).collect();
    let counts = sample_levels_observed(
        graph,
        &[],
        &ks,
        trials_per_k,
        seed,
        &SimObserver::disabled(),
    );
    for (k, failures) in ks.into_iter().zip(counts) {
        profile.record(k, trials_per_k, failures, false);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{monte_carlo_profile, MonteCarloConfig};
    use tornado_gen::mirror::generate_mirror;
    use tornado_graph::GraphBuilder;

    /// Every level of `graph`, `k = 1..=n`, read off the same `trials`.
    fn one_pass(graph: &Graph, trials: u64, seed: u64) -> FailureProfile {
        monte_carlo_profile(
            graph,
            &MonteCarloConfig {
                trials_per_k: trials,
                seed,
                ks: None,
            },
        )
    }

    /// Trials by blocks retrieved until reconstruction, `histogram[b]`
    /// (index 0 unused): a trial needing `b` blocks fails from level
    /// `n − b + 1` on, so `histogram[n − k + 1]` is row `k`'s failures less
    /// row `k − 1`'s.
    fn blocks_histogram(p: &FailureProfile) -> Vec<u64> {
        let n = p.num_nodes();
        let mut histogram = vec![0u64; n + 1];
        for k in 1..=n {
            histogram[n - k + 1] = p.entry(k).failures - p.entry(k - 1).failures;
        }
        histogram
    }

    /// A profile that fails exactly when more than half the nodes are gone.
    fn step_profile(n: usize) -> FailureProfile {
        let mut p = FailureProfile::new(n);
        for k in 1..=n {
            let fail = if k > n / 2 { 1 } else { 0 };
            p.record(k, 1_000, fail * 1_000, true);
        }
        p
    }

    #[test]
    fn empty_profile_is_all_unknown_but_k0() {
        let p = FailureProfile::new(10);
        assert_eq!(p.entry(0).fraction(), 0.0);
        assert!(p.entry(5).fraction().is_nan());
        assert_eq!(
            p.conditional_vec()[5],
            0.0,
            "no evidence → monotone floor 0"
        );
        assert_eq!(p.first_failure(), None);
    }

    #[test]
    fn record_and_fraction() {
        let mut p = FailureProfile::new(10);
        p.record(3, 100, 25, false);
        assert_eq!(p.entry(3).fraction(), 0.25);
        assert_eq!(p.conditional_vec()[3], 0.25);
        assert_eq!(p.conditional_vec()[2], 0.0);
        assert_eq!(p.conditional_vec()[4], 0.25, "monotone completion");
    }

    #[test]
    #[should_panic(expected = "failures")]
    fn record_rejects_failures_over_trials() {
        FailureProfile::new(4).record(1, 5, 6, false);
    }

    #[test]
    fn step_profile_statistics() {
        let n = 10;
        let p = step_profile(n);
        // Fails iff k ≥ 6 offline ⇔ succeeds iff ≥ 5 online.
        assert_eq!(p.first_failure(), Some(6));
        assert_eq!(p.nodes_for_success_probability(0.5), Some(5));
        // Threshold is deterministically 5 online nodes.
        assert!((p.average_nodes_to_reconstruct() - 5.0).abs() < 1e-12);
        assert_eq!(p.overhead_at_half(4), Some(5.0 / 4.0));
        assert_eq!(p.nodes_to_reconstruct_range(), Some(5..=5));
    }

    #[test]
    fn deterministic_threshold_profile() {
        // Succeeds iff ≥ 6 of 8 nodes online.
        let mut p = FailureProfile::new(8);
        for k in 1..=8 {
            let fails = if k > 2 { 100 } else { 0 };
            p.record(k, 100, fails, true);
        }
        assert_eq!(p.nodes_for_success_probability(0.5), Some(6));
        assert!((p.overhead_at_half(4).unwrap() - 1.5).abs() < 1e-12);
        assert!((p.average_nodes_to_reconstruct() - 6.0).abs() < 1e-12);
        assert!((p.average_nodes_to_reconstruct() / 4.0 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn graded_profile_interpolates() {
        // 50 % failure at k = 3 (of 6): with 3 online, success = 0.5.
        let mut p = FailureProfile::new(6);
        p.record(1, 10, 0, true);
        p.record(2, 10, 0, true);
        p.record(3, 10, 5, true);
        p.record(4, 10, 8, true);
        p.record(5, 10, 10, true);
        p.record(6, 10, 10, true);
        // online m = 3 ⇔ k = 3 offline ⇒ success 0.5 ≥ 0.5.
        assert_eq!(p.nodes_for_success_probability(0.5), Some(3));
        assert!((p.overhead_at_half(3).unwrap() - 1.0).abs() < 1e-12);
        // Average threshold: Σ m·(s(m)−s(m−1)) with s = [0,0,.2,.5,1,1,1].
        let expected = 2.0 * 0.2 + 3.0 * 0.3 + 4.0 * 0.5;
        assert!((p.average_nodes_to_reconstruct() - expected).abs() < 1e-12);
    }

    #[test]
    fn single_pair_needs_one_block() {
        // 1 data + 1 mirror: either block alone reconstructs.
        let g = generate_mirror(1).unwrap();
        let p = one_pass(&g, 200, 1);
        assert_eq!(p.average_nodes_to_reconstruct(), 1.0);
        assert_eq!(p.average_nodes_to_reconstruct() / g.num_data() as f64, 1.0);
        assert_eq!(p.nodes_to_reconstruct_range(), Some(1..=1));
        assert_eq!(blocks_histogram(&p)[1], 200);
    }

    #[test]
    fn mirrors_need_one_copy_of_each() {
        // 4 pairs: reconstruction needs ≥ 4 blocks covering all pairs; the
        // coupon-collector effect pushes the mean above 4.
        let g = generate_mirror(4).unwrap();
        let p = one_pass(&g, 4_000, 2);
        let range = p.nodes_to_reconstruct_range().unwrap();
        assert!(*range.start() >= 4);
        let mean = p.average_nodes_to_reconstruct();
        assert!(mean > 4.2, "mean {mean}");
        assert!(*range.end() <= 8);
        let total: u64 = blocks_histogram(&p).iter().sum();
        assert_eq!(total, 4_000);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate_mirror(4).unwrap();
        assert_eq!(one_pass(&g, 500, 7), one_pass(&g, 500, 7));
    }

    #[test]
    fn bounds_are_consistent() {
        // A small cascade: mean sits between the information-theoretic
        // minimum (k) and everything (n).
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        let g = b.build().unwrap();
        let p = one_pass(&g, 2_000, 3);
        let range = p.nodes_to_reconstruct_range().unwrap();
        assert!(*range.start() >= 4);
        assert!(*range.end() <= 7);
        let mean = p.average_nodes_to_reconstruct();
        assert!((4.0..=7.0).contains(&mean));
        assert!(mean / g.num_data() as f64 >= 1.0);
    }

    #[test]
    fn conditional_vec_is_monotone_and_sized() {
        let mut p = FailureProfile::new(8);
        p.record(2, 10, 1, false);
        p.record(5, 10, 9, false);
        let v = p.conditional_vec();
        assert_eq!(v.len(), 9);
        for w in v.windows(2) {
            assert!(w[0] <= w[1] + 1e-15);
        }
        assert_eq!(v[8], 0.9);
    }

    #[test]
    fn average_online_given_success_conditions_on_the_window() {
        let p = step_profile(10); // succeeds iff ≥ 5 online
                                  // k ∈ 1..=9 ⇒ m ∈ 1..=9; successes at m = 5..=9, uniform → mean 7.
        let avg = p.average_online_given_success(1..=9);
        assert!((avg - 7.0).abs() < 1e-12, "got {avg}");
        // A window with no successes yields NaN.
        assert!(p.average_online_given_success(6..=9).is_nan());
    }

    #[test]
    fn success_by_online_inverts_axis() {
        let s = step_profile(10).success_vec();
        assert_eq!(s[10], 1.0);
        assert_eq!(s[5], 1.0);
        assert_eq!(s[4], 0.0);
    }
}
