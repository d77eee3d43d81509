//! Configuration-model bipartite matching with duplicate-edge repair.
//!
//! Each stage of a cascade is built by pairing *edge slots*: a left node of
//! degree `d` contributes `d` slots, a right (check) node of degree `e`
//! consumes `e` slots. A random permutation pairs them; a check node that
//! draws the same left node twice would XOR it with itself, so duplicates
//! are repaired by swapping slots between check nodes (and the stage is
//! rejected if a simple graph cannot be reached within budget — the caller
//! then retries with a different seed, the paper's "discard and regenerate"
//! strategy).

use crate::error::GenError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Adjusts `right_degrees` (in place) so its sum equals `target_slots`,
/// spreading increments/decrements round-robin and keeping every degree
/// ≥ 1 and ≤ `left_size` (a check cannot use more distinct left nodes than
/// exist).
pub(crate) fn fit_right_degrees(
    right_degrees: &mut [u32],
    target_slots: usize,
    left_size: usize,
) -> Result<(), GenError> {
    if right_degrees.is_empty() {
        return Err(GenError::BadParameters {
            detail: "stage with no check nodes".into(),
        });
    }
    let max_d = left_size as u32;
    let capacity = right_degrees.len() as u64 * max_d as u64;
    if (target_slots as u64) > capacity || target_slots < right_degrees.len() {
        return Err(GenError::BadParameters {
            detail: format!(
                "cannot fit {target_slots} edge slots into {} checks over {left_size} left nodes",
                right_degrees.len()
            ),
        });
    }
    for d in right_degrees.iter_mut() {
        *d = (*d).clamp(1, max_d);
    }
    let mut current: i64 = right_degrees.iter().map(|&d| d as i64).sum();
    let mut i = 0usize;
    while current != target_slots as i64 {
        let idx = i % right_degrees.len();
        if current < target_slots as i64 {
            if right_degrees[idx] < max_d {
                right_degrees[idx] += 1;
                current += 1;
            }
        } else if right_degrees[idx] > 1 {
            right_degrees[idx] -= 1;
            current -= 1;
        }
        i += 1;
    }
    Ok(())
}

/// Pairs left edge slots with check nodes, returning for each check node its
/// list of distinct left indices (stage-local).
///
/// `left_degrees[l]` is the number of checks left node `l` feeds;
/// `right_degrees[r]` is the in-degree of check `r`. The two slot totals
/// must match (see [`fit_right_degrees`]).
pub(crate) fn match_stage<R: Rng>(
    left_degrees: &[u32],
    right_degrees: &[u32],
    rng: &mut R,
) -> Result<Vec<Vec<u32>>, GenError> {
    let total_left: usize = left_degrees.iter().map(|&d| d as usize).sum();
    let total_right: usize = right_degrees.iter().map(|&d| d as usize).sum();
    if total_left != total_right {
        return Err(GenError::BadParameters {
            detail: format!("slot mismatch: left {total_left} vs right {total_right}"),
        });
    }
    for (r, &d) in right_degrees.iter().enumerate() {
        if d as usize > left_degrees.len() {
            return Err(GenError::BadParameters {
                detail: format!(
                    "check {r} degree {d} exceeds left size {}",
                    left_degrees.len()
                ),
            });
        }
    }

    // Flat slot array: left node index repeated by its degree.
    let mut slots: Vec<u32> = Vec::with_capacity(total_left);
    for (l, &d) in left_degrees.iter().enumerate() {
        slots.extend(std::iter::repeat_n(l as u32, d as usize));
    }
    slots.shuffle(rng);

    // Check boundaries into the slot array.
    let mut bounds = Vec::with_capacity(right_degrees.len() + 1);
    bounds.push(0usize);
    for &d in right_degrees {
        bounds.push(bounds.last().unwrap() + d as usize);
    }
    let check_of_slot = |s: usize, bounds: &[usize]| -> usize {
        match bounds.binary_search(&s) {
            Ok(i) => i, // s is a start boundary → check i
            Err(i) => i - 1,
        }
    };

    // Repair duplicates by swapping a duplicate slot with a random slot of
    // a different check, accepting only swaps that do not introduce new
    // duplicates.
    let has_dup = |check: usize, slots: &[u32], bounds: &[usize]| -> Option<usize> {
        let span = &slots[bounds[check]..bounds[check + 1]];
        for (i, &v) in span.iter().enumerate() {
            if span[..i].contains(&v) {
                return Some(bounds[check] + i);
            }
        }
        None
    };

    let budget = 64 * total_left.max(16);
    let mut attempts = 0usize;
    let mut repaired = true;
    'repair: loop {
        // Find the first duplicate anywhere.
        let mut dup_at: Option<(usize, usize)> = None;
        for c in 0..right_degrees.len() {
            if let Some(pos) = has_dup(c, &slots, &bounds) {
                dup_at = Some((c, pos));
                break;
            }
        }
        let Some((c, pos)) = dup_at else {
            break 'repair;
        };
        // Try random swap partners.
        loop {
            attempts += 1;
            if attempts > budget {
                // Dense stages (e.g. the "doubled" alteration) can defeat
                // random repair; fall back to deterministic realization.
                repaired = false;
                break 'repair;
            }
            let other = rng.gen_range(0..slots.len());
            let oc = check_of_slot(other, &bounds);
            if oc == c {
                continue;
            }
            let (a, b) = (slots[pos], slots[other]);
            if a == b {
                continue;
            }
            // Would `b` duplicate within c, or `a` within oc?
            let span_c = &slots[bounds[c]..bounds[c + 1]];
            let span_o = &slots[bounds[oc]..bounds[oc + 1]];
            if span_c.contains(&b) || span_o.contains(&a) {
                continue;
            }
            slots.swap(pos, other);
            continue 'repair;
        }
    }

    if !repaired {
        return greedy_realize(left_degrees, right_degrees, rng).ok_or(GenError::MatchingFailed {
            left: left_degrees.len(),
            right: right_degrees.len(),
        });
    }

    let mut result = Vec::with_capacity(right_degrees.len());
    for c in 0..right_degrees.len() {
        let mut nbrs = slots[bounds[c]..bounds[c + 1]].to_vec();
        nbrs.sort_unstable();
        debug_assert!(nbrs.windows(2).all(|w| w[0] != w[1]));
        result.push(nbrs);
    }
    Ok(result)
}

/// Bipartite Havel–Hakimi realization: assigns each check (largest degree
/// first) to the left nodes with the most remaining slots, breaking ties
/// randomly. Succeeds whenever the degree pair is realizable as a simple
/// bipartite graph; returns `None` otherwise.
fn greedy_realize<R: Rng>(
    left_degrees: &[u32],
    right_degrees: &[u32],
    rng: &mut R,
) -> Option<Vec<Vec<u32>>> {
    let mut remaining: Vec<(u32, u32)> = left_degrees
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, i as u32))
        .collect();
    let mut order: Vec<usize> = (0..right_degrees.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(right_degrees[c]));

    let mut result = vec![Vec::new(); right_degrees.len()];
    for &c in &order {
        let need = right_degrees[c] as usize;
        // Random shuffle then stable sort by remaining degree: ties land in
        // random order, keeping the family random while staying feasible.
        remaining.shuffle(rng);
        remaining.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
        if remaining.len() < need || remaining[need - 1].0 == 0 {
            return None;
        }
        let mut nbrs = Vec::with_capacity(need);
        for slot in remaining.iter_mut().take(need) {
            nbrs.push(slot.1);
            slot.0 -= 1;
        }
        nbrs.sort_unstable();
        result[c] = nbrs;
    }
    if remaining.iter().any(|&(d, _)| d != 0) {
        return None;
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fit_adjusts_sum_upward_and_downward() {
        let mut d = vec![2u32, 2, 2];
        fit_right_degrees(&mut d, 9, 10).unwrap();
        assert_eq!(d.iter().sum::<u32>(), 9);
        let mut d = vec![4u32, 4, 4];
        fit_right_degrees(&mut d, 5, 10).unwrap();
        assert_eq!(d.iter().sum::<u32>(), 5);
        assert!(d.iter().all(|&x| x >= 1));
    }

    #[test]
    fn fit_respects_left_size_cap() {
        let mut d = vec![1u32, 1];
        fit_right_degrees(&mut d, 6, 3).unwrap();
        assert_eq!(d.iter().sum::<u32>(), 6);
        assert!(d.iter().all(|&x| x <= 3));
    }

    #[test]
    fn fit_rejects_impossible_targets() {
        let mut d = vec![1u32, 1];
        assert!(
            fit_right_degrees(&mut d, 100, 3).is_err(),
            "beyond capacity"
        );
        let mut d = vec![1u32, 1];
        assert!(
            fit_right_degrees(&mut d, 1, 3).is_err(),
            "below one per check"
        );
        let mut empty: Vec<u32> = vec![];
        assert!(fit_right_degrees(&mut empty, 0, 3).is_err());
    }

    #[test]
    fn matching_respects_degrees_and_simplicity() {
        let mut rng = StdRng::seed_from_u64(7);
        let left = vec![2u32; 12]; // 24 slots
        let mut right = vec![4u32; 6];
        fit_right_degrees(&mut right, 24, 12).unwrap();
        let m = match_stage(&left, &right, &mut rng).unwrap();
        assert_eq!(m.len(), 6);
        // Right degrees respected, all edges simple.
        for (r, nbrs) in m.iter().enumerate() {
            assert_eq!(nbrs.len() as u32, right[r]);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        }
        // Left degrees respected.
        let mut left_count = vec![0u32; 12];
        for nbrs in &m {
            for &l in nbrs {
                left_count[l as usize] += 1;
            }
        }
        assert_eq!(left_count, left);
    }

    #[test]
    fn matching_is_deterministic_in_seed() {
        let left = vec![3u32; 8];
        let right = vec![4u32; 6];
        let a = match_stage(&left, &right, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = match_stage(&left, &right, &mut StdRng::seed_from_u64(42)).unwrap();
        let c = match_stage(&left, &right, &mut StdRng::seed_from_u64(43)).unwrap();
        assert_eq!(a, b);
        assert_ne!(
            a, c,
            "different seeds give different matchings (overwhelmingly)"
        );
    }

    #[test]
    fn matching_rejects_slot_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(match_stage(&[2, 2], &[3], &mut rng).is_err());
    }

    #[test]
    fn matching_rejects_oversized_check() {
        let mut rng = StdRng::seed_from_u64(1);
        // Check wants 3 distinct lefts but only 2 exist.
        assert!(match_stage(&[2, 1], &[3], &mut rng).is_err());
    }

    #[test]
    fn dense_stage_still_resolves() {
        // Near-complete bipartite stage: heavy duplicate pressure.
        let mut rng = StdRng::seed_from_u64(3);
        let left = vec![3u32; 4]; // 12 slots
        let right = vec![3u32; 4];
        let m = match_stage(&left, &right, &mut rng).unwrap();
        for nbrs in &m {
            assert_eq!(nbrs.len(), 3);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn full_bipartite_edge_case() {
        // Every check uses every left node: only one simple graph exists.
        let mut rng = StdRng::seed_from_u64(9);
        let left = vec![2u32; 3]; // 6 slots
        let right = vec![3u32, 3];
        let m = match_stage(&left, &right, &mut rng).unwrap();
        assert_eq!(m, vec![vec![0, 1, 2], vec![0, 1, 2]]);
    }
}
