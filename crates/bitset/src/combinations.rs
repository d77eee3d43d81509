//! Lexicographic *k*-subset enumeration with combinatorial (un)ranking.
//!
//! The worst-case failure search in the paper examines every way of taking
//! `k` nodes offline out of 96 — up to `C(96, 5) ≈ 6.1 × 10⁷` (and
//! `C(96, 6) ≈ 9.3 × 10⁸`) decode trials. To run that data-parallel we need
//! to split the combination sequence into independent chunks; the
//! *combinadic* rank/unrank bijection below maps `0..C(n, k)` to
//! combinations in lexicographic order, so chunk `i` simply unranks its start
//! index and iterates forward.

/// Binomial coefficient `C(n, k)` computed exactly in `u128`.
///
/// Uses the multiplicative formula with interleaved division (each partial
/// product is an integer), so intermediate values stay small. Values up to
/// `C(192, 96)` overflow `u128`; this function is intended for the
/// `n ≤ 128`-ish range used by subset enumeration and panics on overflow.
///
/// ```
/// use tornado_bitset::combinations::binomial;
/// assert_eq!(binomial(96, 4), 3_321_960);
/// assert_eq!(binomial(96, 5), 61_124_064);
/// ```
#[must_use]
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result
            .checked_mul((n - i) as u128)
            .expect("binomial coefficient overflows u128");
        result /= (i + 1) as u128;
    }
    result
}

/// Iterator over all `k`-subsets of `0..n` in lexicographic order.
///
/// Yields each combination as a sorted slice view to avoid per-item
/// allocation; use [`CombinationIter::next_slice`] in hot loops or the
/// `Iterator` impl (which clones into a `Vec`) for convenience.
#[derive(Clone, Debug)]
pub struct CombinationIter {
    n: usize,
    indices: Vec<usize>,
    started: bool,
    done: bool,
}

impl CombinationIter {
    /// Starts at the lexicographically first combination `[0, 1, .., k-1]`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            n,
            indices: (0..k).collect(),
            started: false,
            done: k > n,
        }
    }

    /// Starts at the combination with the given lexicographic `rank`
    /// (`0 ≤ rank < C(n, k)`).
    #[must_use]
    pub fn from_rank(n: usize, k: usize, rank: u128) -> Self {
        let indices = unrank(n, k, rank);
        Self {
            n,
            indices,
            started: false,
            done: k > n,
        }
    }

    /// Advances to the next combination and returns it as a sorted slice,
    /// or `None` when exhausted. The first call returns the starting
    /// combination itself.
    ///
    /// `#[inline]` is load-bearing: the worst-case search calls this once
    /// per decode trial, and inlining lets the common case (only the last
    /// index advances) fold into the caller's loop with no branch to the
    /// reset tail.
    #[inline]
    pub fn next_slice(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.indices);
        }
        let k = self.indices.len();
        if k == 0 {
            self.done = true;
            return None;
        }
        // Find the rightmost index that can be incremented.
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return None;
            }
            i -= 1;
            if self.indices[i] != i + self.n - k {
                break;
            }
        }
        self.indices[i] += 1;
        for j in i + 1..k {
            self.indices[j] = self.indices[j - 1] + 1;
        }
        debug_assert!(
            self.indices.windows(2).all(|w| w[0] < w[1])
                && self.indices.last().is_none_or(|&last| last < self.n),
            "advance broke the sorted-in-range invariant: {:?} (n = {})",
            self.indices,
            self.n
        );
        Some(&self.indices)
    }
}

impl Iterator for CombinationIter {
    type Item = Vec<usize>;
    fn next(&mut self) -> Option<Vec<usize>> {
        self.next_slice().map(|s| s.to_vec())
    }
}

/// Convenience constructor: all `k`-subsets of `0..n`, lexicographic.
///
/// ```
/// use tornado_bitset::Combinations;
/// let all: Vec<Vec<usize>> = Combinations::of(4, 2).collect();
/// assert_eq!(all.len(), 6);
/// assert_eq!(all[0], vec![0, 1]);
/// assert_eq!(all[5], vec![2, 3]);
/// ```
pub struct Combinations;

impl Combinations {
    /// Returns a lexicographic iterator over the `k`-subsets of `0..n`.
    pub fn of(n: usize, k: usize) -> CombinationIter {
        CombinationIter::new(n, k)
    }
}

/// Lexicographic rank of a sorted combination of `0..n`.
///
/// Inverse of [`unrank`]. `combo` must be strictly increasing with all
/// elements `< n`.
pub fn rank(n: usize, combo: &[usize]) -> u128 {
    let k = combo.len();
    let mut r: u128 = 0;
    let mut prev: isize = -1;
    for (i, &c) in combo.iter().enumerate() {
        debug_assert!(
            c < n && c as isize > prev,
            "combination must be sorted, unique, in-range"
        );
        // Count combinations whose element at position i is smaller than c
        // while positions 0..i match.
        for v in (prev + 1) as usize..c {
            r += binomial((n - v - 1) as u64, (k - i - 1) as u64);
        }
        prev = c as isize;
    }
    r
}

/// The combination of `k` elements from `0..n` with lexicographic `rank`.
///
/// # Panics
/// Panics if `rank >= C(n, k)`.
pub fn unrank(n: usize, k: usize, mut rank: u128) -> Vec<usize> {
    assert!(
        rank < binomial(n as u64, k as u64),
        "rank {rank} out of range for C({n}, {k})"
    );
    let mut combo = Vec::with_capacity(k);
    let mut v = 0usize;
    for i in 0..k {
        loop {
            let below = binomial((n - v - 1) as u64, (k - i - 1) as u64);
            if rank < below {
                combo.push(v);
                v += 1;
                break;
            }
            rank -= below;
            v += 1;
        }
    }
    combo
}

/// Splits the full `C(n, k)` combination sequence into at most `chunks`
/// contiguous `(start_rank, len)` ranges of near-equal size.
///
/// Used by the parallel worst-case search: each range is enumerated
/// independently via [`CombinationIter::from_rank`]. Ranges are returned
/// in ascending rank order and partition `0..C(n, k)` exactly — the
/// deterministic capped collection in the search relies on both.
#[must_use]
pub fn chunk_ranges(n: usize, k: usize, chunks: usize) -> Vec<(u128, u128)> {
    let total = binomial(n as u64, k as u64);
    if total == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = (chunks as u128).min(total);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks as usize);
    let mut start: u128 = 0;
    for i in 0..chunks {
        let len = base + u128::from(i < extra);
        out.push((start, len));
        start += len;
    }
    debug_assert_eq!(start, total, "ranges must partition the rank space");
    debug_assert!(out.iter().all(|&(_, len)| len > 0), "no empty ranges");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(96, 1), 96);
        assert_eq!(binomial(96, 2), 4560);
        assert_eq!(binomial(96, 3), 142_880);
        assert_eq!(binomial(96, 4), 3_321_960);
        assert_eq!(binomial(96, 6), 927_048_304);
        assert_eq!(binomial(96, 48), 6_435_067_013_866_298_908_421_603_100);
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..40u64 {
            for k in 1..n {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
        }
    }

    #[test]
    fn binomial_row_sums_are_powers_of_two() {
        for n in 0..=96u64 {
            let sum: u128 = (0..=n).map(|k| binomial(n, k)).sum();
            assert_eq!(sum, 1u128 << n, "row {n}");
        }
    }

    #[test]
    fn binomial_symmetric() {
        for k in 0..=96u64 {
            assert_eq!(binomial(96, k), binomial(96, 96 - k));
        }
    }

    #[test]
    fn enumeration_is_complete_and_lexicographic() {
        let combos: Vec<Vec<usize>> = Combinations::of(6, 3).collect();
        assert_eq!(combos.len() as u128, binomial(6, 3));
        for w in combos.windows(2) {
            assert!(w[0] < w[1], "not lexicographic: {:?} !< {:?}", w[0], w[1]);
        }
        for c in &combos {
            assert_eq!(c.len(), 3);
            assert!(c.windows(2).all(|p| p[0] < p[1]));
            assert!(c.iter().all(|&x| x < 6));
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(Combinations::of(5, 0).count(), 1, "one empty combination");
        assert_eq!(Combinations::of(5, 5).count(), 1);
        assert_eq!(Combinations::of(3, 4).count(), 0);
        assert_eq!(Combinations::of(0, 0).count(), 1);
    }

    #[test]
    fn rank_unrank_roundtrip() {
        let (n, k) = (10, 4);
        for (i, combo) in Combinations::of(n, k).enumerate() {
            assert_eq!(rank(n, &combo), i as u128);
            assert_eq!(unrank(n, k, i as u128), combo);
        }
    }

    #[test]
    fn from_rank_resumes_mid_sequence() {
        let (n, k) = (8, 3);
        let all: Vec<Vec<usize>> = Combinations::of(n, k).collect();
        let mut it = CombinationIter::from_rank(n, k, 20);
        for expected in &all[20..] {
            assert_eq!(it.next_slice().unwrap(), expected.as_slice());
        }
        assert!(it.next_slice().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_out_of_range_panics() {
        unrank(5, 2, binomial(5, 2));
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        let (n, k) = (20, 4);
        let ranges = chunk_ranges(n, k, 7);
        let total: u128 = ranges.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, binomial(n as u64, k as u64));
        let mut expect_start = 0u128;
        for &(s, l) in &ranges {
            assert_eq!(s, expect_start);
            assert!(l > 0);
            expect_start += l;
        }
        // Chunked enumeration visits exactly the same sequence.
        let all: Vec<Vec<usize>> = Combinations::of(n, k).collect();
        let mut recon = Vec::new();
        for (s, l) in ranges {
            let mut it = CombinationIter::from_rank(n, k, s);
            for _ in 0..l {
                recon.push(it.next_slice().unwrap().to_vec());
            }
        }
        assert_eq!(recon, all);
    }

    #[test]
    fn chunk_ranges_more_chunks_than_items() {
        let ranges = chunk_ranges(4, 2, 100);
        assert_eq!(ranges.len() as u128, binomial(4, 2));
        assert!(ranges.iter().all(|&(_, l)| l == 1));
    }

    #[test]
    fn unrank_first_and_last() {
        assert_eq!(unrank(96, 4, 0), vec![0, 1, 2, 3]);
        let last = binomial(96, 4) - 1;
        assert_eq!(unrank(96, 4, last), vec![92, 93, 94, 95]);
    }
}
