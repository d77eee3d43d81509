//! Log2-bucketed histograms with percentile queries.
//!
//! Values land in power-of-two buckets: bucket 0 holds exactly 0, bucket
//! `i ≥ 1` holds `[2^(i-1), 2^i)`. That caps the memory at 65 counters for
//! the full `u64` range and makes `record` a `leading_zeros` plus one
//! relaxed add — cheap enough to time every scrub cycle or span without
//! budget anxiety. The price is resolution: a percentile query returns the
//! inclusive upper bound of the bucket containing the requested rank, i.e.
//! an answer within 2× of the exact order statistic (exact for 0). Exact
//! `min`/`max`/`sum` are tracked alongside to anchor the tails.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of buckets: zero plus one per possible `leading_zeros` result.
pub(crate) const BUCKETS: usize = 65;

/// Concurrent log2 histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for `v` (0 for 0; `64 - leading_zeros` otherwise).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (what percentile queries report).
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

#[allow(clippy::declare_interior_mutable_const)] // array-init seed, never read
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// An empty histogram (usable in `static`s).
    pub const fn new() -> Self {
        Self {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded values (wrapping beyond `u64`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Relaxed))
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Relaxed))
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound of
    /// the bucket holding the rank-`⌈q·n⌉` value; `None` when empty. The
    /// exact order statistic lies within `[upper/2, upper]` — and the
    /// reported tail values are additionally clamped to the exact
    /// recorded `max`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= target {
                return Some(bucket_upper_bound(i).min(self.max.load(Relaxed)));
            }
        }
        Some(self.max.load(Relaxed))
    }

    /// Per-bucket counts (index = `bucket_index`).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Adds every count of `other` into `self` (used to fold per-worker
    /// histograms after a parallel section).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Relaxed);
            if v > 0 {
                mine.fetch_add(v, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.min.fetch_min(other.min.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.5))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact reference quantile: rank-`⌈q·n⌉` order statistic.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_upper_bound(i) + 1, bucket_lower_bound(i + 1));
        }
    }

    #[test]
    fn percentiles_bracket_exact_reference_quantiles() {
        // A skewed latency-like distribution exercising many buckets.
        let mut values: Vec<u64> = (0..1000u64).map(|i| (i * i * 37) % 100_000).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let approx = h.percentile(q).unwrap();
            assert!(
                approx >= exact,
                "p{q}: reported {approx} below exact {exact}"
            );
            // Upper bound of the exact value's bucket = within 2x (or the
            // clamped max).
            assert!(
                approx <= bucket_upper_bound(bucket_index(exact)),
                "p{q}: reported {approx} beyond exact value's bucket"
            );
        }
    }

    #[test]
    fn p50_and_p99_on_uniform_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Exact p50 = 500 (bucket [256,511] upper 511); p99 = 990.
        assert_eq!(h.percentile(0.5), Some(511));
        assert_eq!(h.percentile(0.99), Some(1000), "clamped to exact max");
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn zeros_are_exact() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(7);
        assert_eq!(h.percentile(0.5), Some(0));
        assert_eq!(h.percentile(1.0), Some(7));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.bucket_counts(), combined.bucket_counts());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
    }
}
