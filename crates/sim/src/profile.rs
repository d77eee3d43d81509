//! Failure profiles and the paper's summary statistics.

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
            // supplied by FailureProfile::conditional(), not here.
            return f64::NAN;
        }
        self.failures as f64 / self.trials as f64
    }
}

/// `P(fail | k nodes offline)` for `k = 0..=n`, assembled from exhaustive
/// search rows and Monte-Carlo rows.
///
/// The paper's convention (§3): "the number of online nodes is set in
/// advance and the test case is recorded as passing or failing
/// reconstruction with that node count" — rows are independent across `k`,
/// which is what lets Eq. 3 sum them.
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

    /// Merges another profile into this one: exact rows win over sampled
    /// rows; among rows of the same kind the one with more trials wins.
    pub fn merge(&mut self, other: &FailureProfile) {
        assert_eq!(self.num_nodes, other.num_nodes, "profile size mismatch");
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            let take = match (mine.exact, theirs.exact) {
                (false, true) => true,
                (true, false) => false,
                _ => theirs.trials > mine.trials,
            };
            if take {
                *mine = *theirs;
            }
        }
    }

    /// `P(fail | k offline)` with the monotone-completion convention for
    /// unmeasured rows: failure probability is non-decreasing in `k` (losing
    /// more nodes never helps), so an unmeasured row inherits the largest
    /// measured fraction at any smaller `k` (a lower bound) — and rows past
    /// the last measured `k` saturate at that value.
    ///
    /// Rows measured with zero trials at `k` between measured rows are rare
    /// in practice (the harnesses measure every `k`); the convention keeps
    /// the reliability composition well-defined regardless.
    pub fn conditional(&self, k: usize) -> f64 {
        debug_assert!(k <= self.num_nodes);
        let mut best = 0.0f64;
        for e in &self.entries[..=k] {
            if e.trials > 0 {
                best = best.max(e.fraction());
            }
        }
        best
    }

    /// The full conditional vector `P(fail | k)`, `k = 0..=n`, suitable for
    /// [`tornado_numerics::compose_failure_probability`].
    pub fn conditional_vec(&self) -> Vec<f64> {
        let mut best = 0.0f64;
        self.entries
            .iter()
            .map(|e| {
                if e.trials > 0 {
                    best = best.max(e.fraction());
                }
                best
            })
            .collect()
    }

    /// `P(success | m nodes online)` — the complement view used by the
    /// reconstruction-efficiency statistics.
    pub fn success_by_online(&self, online: usize) -> f64 {
        assert!(online <= self.num_nodes);
        1.0 - self.conditional(self.num_nodes - online)
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
        let mut tail: f64 = 0.0;
        for m in 0..n {
            tail += self.success_by_online(m);
        }
        n as f64 * self.success_by_online(n) - tail
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
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for k in ks {
            assert!(k <= n, "k = {k} beyond {n}");
            let m = n - k;
            let s = self.success_by_online(m);
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
        (0..=self.num_nodes).find(|&m| self.success_by_online(m) >= p)
    }

    /// Overhead relative to an ideal code: `nodes_for_success(0.5) / k_data`
    /// (Table 6 reports e.g. 62/48 = 1.29).
    pub fn overhead_at_half(&self, num_data: usize) -> Option<f64> {
        self.nodes_for_success_probability(0.5)
            .map(|m| m as f64 / num_data as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(p.conditional(5), 0.0, "no evidence → monotone floor 0");
        assert_eq!(p.first_failure(), None);
    }

    #[test]
    fn record_and_fraction() {
        let mut p = FailureProfile::new(10);
        p.record(3, 100, 25, false);
        assert_eq!(p.entry(3).fraction(), 0.25);
        assert_eq!(p.conditional(3), 0.25);
        assert_eq!(p.conditional(2), 0.0);
        assert_eq!(p.conditional(4), 0.25, "monotone completion");
    }

    #[test]
    #[should_panic(expected = "failures")]
    fn record_rejects_failures_over_trials() {
        FailureProfile::new(4).record(1, 5, 6, false);
    }

    #[test]
    fn merge_prefers_exact_then_more_trials() {
        let mut a = FailureProfile::new(4);
        a.record(2, 100, 10, false);
        let mut b = FailureProfile::new(4);
        b.record(2, 6, 3, true);
        a.merge(&b);
        assert!(a.entry(2).exact);
        assert_eq!(a.entry(2).fraction(), 0.5);

        // More trials wins within the same kind.
        let mut c = FailureProfile::new(4);
        c.record(3, 1000, 1, false);
        let mut d = FailureProfile::new(4);
        d.record(3, 10, 1, false);
        c.merge(&d);
        assert_eq!(c.entry(3).trials, 1000);
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
        let p = step_profile(10);
        assert_eq!(p.success_by_online(10), 1.0);
        assert_eq!(p.success_by_online(5), 1.0);
        assert_eq!(p.success_by_online(4), 0.0);
    }
}
