//! Structural defect detection (paper §3.2).
//!
//! The paper's first graphs contained "obvious defects": small sets of left
//! nodes relying on a *closed set* of right nodes, e.g. two data nodes whose
//! redundancy lives in exactly the same two checks — lose both and no amount
//! of surviving blocks helps. In coding-theory terms these are small
//! *stopping sets* over the data nodes: a set `S` such that every check node
//! adjacent to `S` has at least two neighbours in `S`. A data node can only
//! ever be recovered by a check with exactly one missing neighbour, so
//! losing a stopping set of data nodes is unrecoverable no matter what else
//! survives.
//!
//! [`screen`] is the generation-time filter: graphs with a stopping set of
//! size ≤ `max_size` among their data nodes are discarded (§3.3's "graphs
//! that fail are discarded"), and [`screened`] is that loop, the one every
//! family is screened through.

use crate::error::GenError;
use tornado_graph::{Graph, NodeId};

/// Generation attempts [`screened`] makes before giving up: the paper's
/// "graphs that fail are discarded" loop, bounded.
const SCREEN_ATTEMPTS: usize = 256;

/// Finds all stopping sets of size 2..=`max_size` among the *data nodes* of
/// `graph`, returned as sorted node-id vectors (sorted lexicographically).
///
/// A set `S` qualifies when every check adjacent to any member has ≥ 2
/// members among its left neighbours. Pairs reduce to "identical check
/// sets"; larger sets are enumerated combinatorially — intended for the
/// small sizes (≤ 4) the screen uses.
pub fn find_stopping_sets(graph: &Graph, max_size: usize) -> Vec<Vec<NodeId>> {
    let mut found = Vec::new();
    if max_size < 2 {
        return found;
    }
    let data: Vec<NodeId> = graph.data_ids().collect();

    // Size 2: identical check sets.
    for (i, &u) in data.iter().enumerate() {
        for &v in &data[i + 1..] {
            if graph.checks_of(u) == graph.checks_of(v) && !graph.checks_of(u).is_empty() {
                found.push(vec![u, v]);
            }
        }
    }
    if max_size < 3 {
        return found;
    }

    // General small sizes: combinatorial scan with the closure test. For
    // the sizes used by the screen (3–4 over ≤ 48 data nodes) this is fast.
    for size in 3..=max_size.min(data.len()) {
        let mut it = tornado_bitset::CombinationIter::new(data.len(), size);
        while let Some(combo) = it.next_slice() {
            let set: Vec<NodeId> = combo.iter().map(|&i| data[i]).collect();
            if is_stopping_set(graph, &set) && !contains_smaller(&found, &set) {
                found.push(set);
            }
        }
    }
    found
}

/// Whether `set` (data nodes) is a stopping set: every adjacent check has at
/// least two neighbours inside `set`.
pub(crate) fn is_stopping_set(graph: &Graph, set: &[NodeId]) -> bool {
    debug_assert!(set.iter().all(|&n| graph.is_data(n)));
    for &v in set {
        for &c in graph.checks_of(v) {
            let inside = graph
                .check_neighbors(c)
                .iter()
                .filter(|n| set.contains(n))
                .count();
            if inside < 2 {
                return false;
            }
        }
        // A member with no checks at all is trivially closed (it is an
        // unrecoverable node on its own), so it does not disqualify the set.
    }
    true
}

fn contains_smaller(found: &[Vec<NodeId>], candidate: &[NodeId]) -> bool {
    found
        .iter()
        .any(|s| s.len() < candidate.len() && s.iter().all(|x| candidate.contains(x)))
}

/// Generation-time screen: `Ok(())` if `graph` has no stopping set of size
/// ≤ `max_size` among its data nodes and no unprotected data node,
/// otherwise `Err` with the offending sets.
pub fn screen(graph: &Graph, max_size: usize) -> Result<(), Vec<Vec<NodeId>>> {
    let mut bad: Vec<Vec<NodeId>> = graph
        .data_ids()
        .filter(|&d| graph.checks_of(d).is_empty())
        .map(|d| vec![d])
        .collect();
    bad.extend(find_stopping_sets(graph, max_size));
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

/// Draws graphs from `generate` with successive seeds derived from `seed`
/// until one passes [`screen`] at `screen_size`, for at most 256 attempts.
/// Returns the graph and the number of attempts used; a generation error
/// on every attempt comes back as the last one.
pub fn screened(
    seed: u64,
    screen_size: usize,
    mut generate: impl FnMut(u64) -> Result<Graph, GenError>,
) -> Result<(Graph, usize), GenError> {
    let mut last_err = None;
    for attempt in 0..SCREEN_ATTEMPTS {
        // SplitMix-style finalizer over (seed, attempt) so distinct
        // pairs give unrelated generation streams.
        let mut s = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        match generate(s) {
            Ok(graph) => {
                if screen(&graph, screen_size).is_ok() {
                    return Ok((graph, attempt + 1));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(GenError::ScreenExhausted {
        attempts: SCREEN_ATTEMPTS,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    /// The paper's §3.2 example: two left nodes whose *entire* redundancy
    /// lives in the same two right nodes ("17 [48, 57] / 22 [48, 57]").
    /// Node 2 gets an extra mirror check so the pair {2, 3} stays open.
    fn overlapping_pair() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        b.add_check(&[0, 1]); // check 4
        b.add_check(&[0, 1]); // check 5 — nodes 0 and 1 share exactly {4, 5}
        b.add_check(&[2, 3]);
        b.add_check(&[2]);
        b.build().unwrap()
    }

    #[test]
    fn detects_two_node_overlap() {
        let g = overlapping_pair();
        let sets = find_stopping_sets(&g, 2);
        assert_eq!(sets, vec![vec![0, 1]]);
        assert!(screen(&g, 2).is_err());
    }

    #[test]
    fn three_node_closed_set() {
        // Checks {0,1}, {1,2}, {0,2}: the triangle {0,1,2} is closed, no
        // pair is.
        let mut b = GraphBuilder::new(3);
        b.begin_level("c");
        b.add_check(&[0, 1]);
        b.add_check(&[1, 2]);
        b.add_check(&[0, 2]);
        let g = b.build().unwrap();
        assert!(find_stopping_sets(&g, 2).is_empty());
        let sets = find_stopping_sets(&g, 3);
        assert_eq!(sets, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn supersets_of_found_defects_are_suppressed() {
        // {0,1} is closed (their checks are {3, 4, 5}, all containing both);
        // {0,1,2} would also qualify but is a redundant superset.
        let mut b = GraphBuilder::new(3);
        b.begin_level("c");
        b.add_check(&[0, 1]);
        b.add_check(&[0, 1]);
        b.add_check(&[0, 1, 2]);
        let g = b.build().unwrap();
        let sets = find_stopping_sets(&g, 3);
        assert!(sets.contains(&vec![0, 1]), "sets: {sets:?}");
        assert!(
            !sets.contains(&vec![0, 1, 2]),
            "superset suppressed: {sets:?}"
        );
    }

    #[test]
    fn clean_graph_passes() {
        // 4 data nodes, checks forming a tree-ish pattern with no small
        // closed set.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        b.add_check(&[0, 1]);
        b.add_check(&[1, 2]);
        b.add_check(&[2, 3]);
        b.add_check(&[3, 0]);
        b.add_check(&[0, 2]);
        b.add_check(&[1, 3]);
        let g = b.build().unwrap();
        assert!(find_stopping_sets(&g, 3).is_empty());
        assert!(screen(&g, 3).is_ok());
    }

    #[test]
    fn unprotected_data_node_fails_screen() {
        let mut b = GraphBuilder::new(3);
        b.begin_level("c");
        b.add_check(&[0, 1]); // data 2 unprotected
        b.add_check([0, 1, 2].get(0..2).unwrap()); // still not covering 2
        let g = b.build().unwrap();
        let err = screen(&g, 2).unwrap_err();
        assert!(err.contains(&vec![2]));
    }

    #[test]
    fn stopping_set_loss_is_actually_fatal() {
        // Cross-check the structural predicate against the real decoder.
        let g = overlapping_pair();
        let mut dec = tornado_codec::ErasureDecoder::new(&g);
        assert!(!dec.decode(&[0, 1]), "stopping set loss must fail decode");
        assert!(dec.decode(&[0]), "single member recovers");
    }

    #[test]
    fn size_guard_short_circuits() {
        let g = overlapping_pair();
        assert!(find_stopping_sets(&g, 1).is_empty());
        assert!(find_stopping_sets(&g, 0).is_empty());
    }
}
