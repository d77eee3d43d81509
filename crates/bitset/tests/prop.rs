//! Property-based tests for the exact binomial and the combinadic
//! rank/unrank bijection.

use proptest::prelude::*;
use tornado_bitset::combinations::{binomial, chunk_ranges, rank, unrank};
use tornado_bitset::CombinationIter;

proptest! {
    #[test]
    fn rank_unrank_bijection(n in 1usize..26, seed in any::<u64>()) {
        let k = (seed as usize % n).clamp(1, 6.min(n));
        let total = binomial(n as u64, k as u64);
        let r = (seed as u128) % total;
        let combo = unrank(n, k, r);
        prop_assert_eq!(combo.len(), k);
        prop_assert!(combo.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(combo.iter().all(|&x| x < n));
        prop_assert_eq!(rank(n, &combo), r);
    }

    #[test]
    fn chunked_enumeration_is_a_partition(n in 2usize..16, k in 1usize..5, chunks in 1usize..9) {
        prop_assume!(k <= n);
        let ranges = chunk_ranges(n, k, chunks);
        let total: u128 = ranges.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, binomial(n as u64, k as u64));
        let mut seen = Vec::new();
        for (start, len) in ranges {
            let mut it = CombinationIter::from_rank(n, k, start);
            for _ in 0..len {
                seen.push(it.next_slice().unwrap().to_vec());
            }
        }
        let direct: Vec<Vec<usize>> = CombinationIter::new(n, k).collect();
        prop_assert_eq!(seen, direct);
    }

    #[test]
    fn binomial_symmetry_and_bounds(n in 0u64..120, k in 0u64..120) {
        let c = binomial(n, k);
        if k > n {
            prop_assert_eq!(c, 0);
        } else {
            prop_assert_eq!(c, binomial(n, n - k));
            prop_assert!(c >= 1);
        }
    }

    #[test]
    fn binomial_pascal(n in 1u64..90, k in 1u64..90) {
        prop_assume!(k < n);
        prop_assert_eq!(
            binomial(n, k),
            binomial(n - 1, k - 1) + binomial(n - 1, k)
        );
    }
}
