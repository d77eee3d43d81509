//! Bit rows: sets of node indices as word slices, and flat tables of them.
//!
//! The decode kernel keeps an erasure pattern as one *row* of
//! [`words_for`]`(n)` words and every check's neighbourhood as another, so
//! "how many of this check's nodes are missing" is an AND and a popcount
//! computed when the check is examined — there is no per-check state to
//! maintain or to reset between trials. A [`RowTable`] stores equal-width
//! rows contiguously (row `r` is `words[r * w..(r + 1) * w]`), which keeps a
//! 96-node graph's whole parity structure in a few cache lines.
//!
//! The functions here take plain slices; callers size every row of one
//! graph with the same [`words_for`], and the binary operations walk the
//! shorter of their two arguments.

/// The machine word rows are made of.
pub type Word = u64;

/// Bits per [`Word`].
pub const WORD_BITS: usize = Word::BITS as usize;

/// Words needed for a row over `0..universe`.
#[inline]
pub const fn words_for(universe: usize) -> usize {
    universe.div_ceil(WORD_BITS)
}

/// Whether `bit` is set.
#[inline]
pub fn test(row: &[Word], bit: usize) -> bool {
    row[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 != 0
}

/// Sets `bit`.
#[inline]
pub fn set(row: &mut [Word], bit: usize) {
    row[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
}

/// Clears `bit`.
#[inline]
pub fn clear(row: &mut [Word], bit: usize) {
    row[bit / WORD_BITS] &= !(1 << (bit % WORD_BITS));
}

/// Clears every bit.
///
/// Rows are a word or four, and a trial begins by clearing two of them:
/// written as a plain loop the optimiser turns this into a call to
/// `memset`, which costs more than the rest of a one-node trial (25 ns
/// against 14 ns on the 96-node graph). [`std::hint::black_box`] keeps the
/// stores as stores.
#[inline]
pub fn zero(row: &mut [Word]) {
    for w in row {
        *w = 0;
        std::hint::black_box(&*w);
    }
}

/// Whether no bit is set.
#[inline]
pub fn is_empty(row: &[Word]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Number of set bits.
#[inline]
pub fn count(row: &[Word]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [Word], src: &[Word]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Whether `a` and `b` share a set bit.
#[inline]
pub fn intersects(a: &[Word], b: &[Word]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// The only bit set in both `a` and `b`, or `None` when they share no bit
/// or more than one.
#[inline]
pub fn sole_common(a: &[Word], b: &[Word]) -> Option<usize> {
    let mut found = None;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let both = x & y;
        if both != 0 {
            if found.is_some() || both & (both - 1) != 0 {
                return None;
            }
            found = Some(i * WORD_BITS + both.trailing_zeros() as usize);
        }
    }
    found
}

/// Clears and returns the lowest set bit.
#[inline]
pub fn take_lowest(row: &mut [Word]) -> Option<usize> {
    for (i, w) in row.iter_mut().enumerate() {
        if *w != 0 {
            let bit = w.trailing_zeros() as usize;
            *w &= *w - 1;
            return Some(i * WORD_BITS + bit);
        }
    }
    None
}

/// The set bits, ascending.
#[inline]
pub fn ones(row: &[Word]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * WORD_BITS + bit
            })
        })
    })
}

/// Sets every bit of `lo..hi` (and no other).
#[inline]
pub fn fill_range(row: &mut [Word], lo: usize, hi: usize) {
    // Branch-free: a shift by a whole word clears every bit.
    let by = |bits: usize| bits.min(WORD_BITS) as u32;
    for (i, w) in row.iter_mut().enumerate() {
        let base = i * WORD_BITS;
        let from = Word::MAX.checked_shl(by(lo.saturating_sub(base)));
        let below = Word::MAX.checked_shr(by((base + WORD_BITS).saturating_sub(hi)));
        *w = from.unwrap_or(0) & below.unwrap_or(0);
    }
}

/// A flat table of equal-width bit rows.
///
/// ```
/// use tornado_bitset::rows::{self, RowTable};
/// let mut t = RowTable::new(3, 96);
/// t.set(1, 70);
/// t.set(1, 3);
/// assert_eq!(rows::ones(t.row(1)).collect::<Vec<_>>(), vec![3, 70]);
/// assert!(rows::is_empty(t.row(0)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowTable {
    width: usize,
    words: Vec<Word>,
}

impl RowTable {
    /// `rows` empty rows over the universe `0..universe`.
    pub fn new(rows: usize, universe: usize) -> Self {
        let width = words_for(universe);
        Self {
            width,
            words: vec![0; rows * width],
        }
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[Word] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// Sets `bit` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, bit: usize) {
        let width = self.width;
        set(&mut self.words[r * width..(r + 1) * width], bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of(universe: usize, bits: &[usize]) -> Vec<Word> {
        let mut row = vec![0; words_for(universe)];
        for &b in bits {
            set(&mut row, b);
        }
        row
    }

    #[test]
    fn set_test_clear_across_word_boundaries() {
        let mut row = vec![0; words_for(130)];
        for bit in [0, 63, 64, 65, 127, 128, 129] {
            assert!(!test(&row, bit));
            set(&mut row, bit);
            assert!(test(&row, bit));
        }
        assert_eq!(count(&row), 7);
        assert_eq!(
            ones(&row).collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 129]
        );
        clear(&mut row, 64);
        assert!(!test(&row, 64));
        assert_eq!(count(&row), 6);
        assert!(!is_empty(&row));
        assert!(is_empty(&[0; 3]));
    }

    #[test]
    fn sole_common_distinguishes_none_one_many() {
        let a = row_of(200, &[5, 70, 199]);
        assert_eq!(sole_common(&a, &row_of(200, &[6, 71])), None);
        assert_eq!(sole_common(&a, &row_of(200, &[6, 70])), Some(70));
        assert_eq!(sole_common(&a, &row_of(200, &[199])), Some(199));
        assert_eq!(
            sole_common(&a, &row_of(200, &[5, 6, 199])),
            None,
            "two words"
        );
        assert_eq!(
            sole_common(&row_of(200, &[5, 7]), &row_of(200, &[5, 7])),
            None,
            "one word"
        );
        assert!(intersects(&a, &row_of(200, &[199])));
        assert!(!intersects(&a, &row_of(200, &[198])));
    }

    #[test]
    fn take_lowest_drains_in_ascending_order() {
        let mut row = row_of(130, &[129, 3, 64]);
        assert_eq!(take_lowest(&mut row), Some(3));
        assert_eq!(take_lowest(&mut row), Some(64));
        assert_eq!(take_lowest(&mut row), Some(129));
        assert_eq!(take_lowest(&mut row), None);
    }

    #[test]
    fn fill_range_sets_exactly_the_range() {
        for (lo, hi) in [
            (0, 0),
            (0, 1),
            (3, 64),
            (3, 65),
            (64, 128),
            (63, 130),
            (130, 130),
            (70, 60),
        ] {
            let mut row = row_of(130, &[1, 100]);
            fill_range(&mut row, lo, hi);
            let expected: Vec<usize> = (lo..hi).collect();
            assert_eq!(ones(&row).collect::<Vec<_>>(), expected, "{lo}..{hi}");
        }
    }

    #[test]
    fn or_assign_unions() {
        let mut a = row_of(96, &[1, 65]);
        or_assign(&mut a, &row_of(96, &[2, 65, 95]));
        assert_eq!(ones(&a).collect::<Vec<_>>(), vec![1, 2, 65, 95]);
    }

    #[test]
    fn table_rows_are_independent() {
        let mut t = RowTable::new(4, 65);
        assert_eq!(t.row(0).len(), 2);
        t.set(0, 64);
        t.set(3, 0);
        assert_eq!(ones(t.row(0)).collect::<Vec<_>>(), vec![64]);
        assert!(is_empty(t.row(1)));
        assert!(is_empty(t.row(2)));
        assert_eq!(ones(t.row(3)).collect::<Vec<_>>(), vec![0]);
    }
}
