//! Property-based tests for the bit-set algebra and the combinadic
//! rank/unrank bijection.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tornado_bitset::combinations::{binomial, chunk_ranges, rank, unrank};
use tornado_bitset::{CombinationIter, DynBitSet};

fn arb_members() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..128, 0..40)
}

proptest! {
    #[test]
    fn dynamic_matches_btreeset(a in arb_members(), b in arb_members()) {
        let sa: BTreeSet<usize> = a.iter().copied().collect();
        let sb: BTreeSet<usize> = b.iter().copied().collect();
        let mut da = DynBitSet::from_indices(128, a.iter().copied());
        let db = DynBitSet::from_indices(128, b.iter().copied());
        prop_assert_eq!(da.to_vec(), sa.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(da.intersection_len(&db), sa.intersection(&sb).count());
        prop_assert_eq!(da.is_subset(&db), sa.is_subset(&sb));
        da.union_with(&db);
        prop_assert_eq!(da.to_vec(), sa.union(&sb).copied().collect::<Vec<_>>());
    }

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
}
