//! Heap-backed bit set for sizes not known at compile time.
//!
//! The storage layer deals in device populations whose size is a runtime
//! configuration choice (one site, two federated sites, arbitrary stripe
//! widths), so [`DynBitSet`] takes its universe size at construction.

use std::fmt;

/// A growable bit set over `usize` indices.
///
/// The set has an explicit *universe size* fixed at construction: operations
/// that combine two sets require equal universe sizes, which catches
/// unit-mismatch bugs (e.g. mixing a 96-device pattern with a 192-device
/// pattern) early.
///
/// ```
/// use tornado_bitset::DynBitSet;
/// let mut s = DynBitSet::new(192);
/// s.insert(191);
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.complement().len(), 191);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DynBitSet {
    universe: usize,
    words: Vec<u64>,
}

impl DynBitSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Creates a set containing all of `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.trim_tail();
        s
    }

    /// Creates a set over `0..universe` from an iterator of member indices.
    ///
    /// # Panics
    /// Panics if any index is `>= universe`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(universe: usize, indices: I) -> Self {
        let mut s = Self::new(universe);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The universe size this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    fn trim_tail(&mut self) {
        let rem = self.universe % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    #[inline]
    fn check(&self, bit: usize) {
        assert!(
            bit < self.universe,
            "index {bit} out of universe 0..{}",
            self.universe
        );
    }

    /// Inserts `bit`; returns `true` if newly inserted.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        self.check(bit);
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        let was = self.words[w] & m != 0;
        self.words[w] |= m;
        !was
    }

    /// Removes `bit`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        self.check(bit);
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        let was = self.words[w] & m != 0;
        self.words[w] &= !m;
        was
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        if bit >= self.universe {
            return false;
        }
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member (universe unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    fn assert_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "bit sets range over different universes ({} vs {})",
            self.universe, other.universe
        );
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: removes every member of `other`.
    pub fn difference_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns the complement within the universe.
    pub fn complement(&self) -> Self {
        let mut s = self.clone();
        for w in s.words.iter_mut() {
            *w = !*w;
        }
        s.trim_tail();
        s
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Whether the sets share no members.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Number of members shared with `other`.
    pub fn intersection_len(&self, other: &Self) -> usize {
        self.assert_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> DynBitIter<'_> {
        DynBitIter {
            words: &self.words,
            current: self.words.first().copied().unwrap_or(0),
            word_idx: 0,
        }
    }

    /// Collects members into a vector, ascending.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Iterator over members of a [`DynBitSet`], ascending.
pub struct DynBitIter<'a> {
    words: &'a [u64],
    current: u64,
    word_idx: usize,
}

impl Iterator for DynBitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl fmt::Debug for DynBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = DynBitSet::new(100);
        assert!(e.is_empty());
        assert_eq!(e.universe(), 100);
        let f = DynBitSet::full(100);
        assert_eq!(f.len(), 100);
        assert!(f.contains(99));
        assert!(!f.contains(100), "outside universe is never a member");
    }

    #[test]
    fn full_trims_partial_word() {
        let f = DynBitSet::full(65);
        assert_eq!(f.len(), 65);
        assert_eq!(f.to_vec().last(), Some(&64));
    }

    #[test]
    fn insert_remove() {
        let mut s = DynBitSet::new(10);
        assert!(s.insert(9));
        assert!(!s.insert(9));
        assert!(s.remove(9));
        assert!(!s.remove(9));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        DynBitSet::new(10).insert(10);
    }

    #[test]
    fn algebra() {
        let mut a = DynBitSet::from_indices(130, [0, 1, 128]);
        let b = DynBitSet::from_indices(130, [1, 2, 129]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![0, 1, 2, 128, 129]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![1]);
        a.difference_with(&b);
        assert_eq!(a.to_vec(), vec![0, 128]);
    }

    #[test]
    fn complement_within_universe() {
        let s = DynBitSet::from_indices(5, [0, 2, 4]);
        assert_eq!(s.complement().to_vec(), vec![1, 3]);
        assert_eq!(s.complement().complement().to_vec(), s.to_vec());
    }

    #[test]
    fn subset_and_disjoint() {
        let a = DynBitSet::from_indices(96, [3, 50]);
        let b = DynBitSet::from_indices(96, [3, 50, 70]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let c = DynBitSet::from_indices(96, [4]);
        assert!(a.is_disjoint(&c));
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mismatched_universe_panics() {
        let a = DynBitSet::new(96);
        let b = DynBitSet::new(192);
        a.is_subset(&b);
    }

    #[test]
    fn iteration_matches_insertion() {
        let members = [0usize, 63, 64, 65, 126];
        let s = DynBitSet::from_indices(127, members);
        assert_eq!(s.to_vec(), members.to_vec());
    }

    #[test]
    fn clear_retains_universe() {
        let mut s = DynBitSet::full(77);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 77);
    }
}
