//! Exact minimum blocking sets by certificate-guided branch and bound.
//!
//! The worst-case search certifies a graph by brute force; this module
//! computes the same quantity — the minimum number of erasures that makes
//! a given data node (or any data node) unrecoverable — by a *directed*
//! search, giving an independent cross-check that is exponentially cheaper
//! for small answers.
//!
//! The key object is the **recovery certificate**: when the peeling decoder
//! recovers a target under an erasure set `S`, the certificate is the set
//! of initially-available nodes its derivation actually consumed (the same
//! backward walk the guided-retrieval planner uses). Any strictly larger
//! erasure set that still blocks the target must erase at least one
//! certificate node — otherwise the recorded derivation would still apply.
//! Branching over certificate members with iterative deepening is therefore
//! a complete search.

use tornado_codec::{recovery_certificate, ErasureDecoder};
use tornado_graph::{Graph, NodeId};

/// Exact minimum-size erasure set leaving `target` unrecoverable, searched
/// up to `cap` erasures. Returns `None` if every set of size ≤ `cap`
/// still recovers the target.
///
/// Complete by the certificate argument (module docs); complexity is
/// roughly `b^cap` with `b` the certificate size, so keep `cap` modest
/// (≤ 6 covers the paper's regime).
pub(crate) fn min_blocking_exact(graph: &Graph, target: NodeId, cap: usize) -> Option<Vec<usize>> {
    assert!(graph.is_data(target), "{target} is not a data node");
    let mut dec = ErasureDecoder::new(graph);
    for depth in 1..=cap {
        let mut set = vec![target as usize];
        if let Some(found) = dfs(graph, &mut dec, &mut set, depth - 1, target) {
            return Some(found);
        }
    }
    None
}

fn dfs(
    graph: &Graph,
    dec: &mut ErasureDecoder<'_>,
    set: &mut Vec<usize>,
    remaining: usize,
    target: NodeId,
) -> Option<Vec<usize>> {
    let detail = dec.decode_detailed(set);
    if detail.lost_data.contains(&target) {
        let mut s = set.clone();
        s.sort_unstable();
        return Some(s);
    }
    if remaining == 0 {
        return None;
    }
    let certificate = recovery_certificate(graph, &detail, target);
    debug_assert!(
        !certificate.is_empty(),
        "a recovered erased target must have consumed something"
    );
    for e in certificate {
        if set.contains(&(e as usize)) {
            continue;
        }
        set.push(e as usize);
        let found = dfs(graph, dec, set, remaining - 1, target);
        set.pop();
        if found.is_some() {
            return found;
        }
    }
    None
}

/// The graph's erasure minimum distance: the smallest erasure set losing
/// *any* data node, searched to `cap`. Equals the worst-case search's
/// first-failure level when that level is ≤ `cap`.
pub fn minimum_distance(graph: &Graph, cap: usize) -> Option<(usize, Vec<usize>)> {
    let mut best: Option<Vec<usize>> = None;
    for d in graph.data_ids() {
        let node_cap = best.as_ref().map_or(cap, |b| b.len() - 1);
        if node_cap == 0 {
            break;
        }
        if let Some(s) = min_blocking_exact(graph, d, node_cap) {
            best = Some(s);
        }
    }
    best.map(|s| (s.len(), s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::TornadoGenerator;
    use tornado_graph::GraphBuilder;
    use tornado_sim::{worst_case_search, WorstCaseConfig};

    #[test]
    fn mirror_minimum_is_the_pair() {
        let g = generate_mirror(4).unwrap();
        for d in 0..4u32 {
            let s = min_blocking_exact(&g, d, 3).unwrap();
            assert_eq!(s, vec![d as usize, d as usize + 4]);
        }
        let (dist, set) = minimum_distance(&g, 4).unwrap();
        assert_eq!(dist, 2);
        assert_eq!(set[1], set[0] + 4);
    }

    #[test]
    fn deep_cascade_requires_certificate_branching() {
        // data 0..4; 4 = 0^1, 5 = 2^3, 6 = 4^5: the naive {target, its
        // check} set does not block; the exact search must find {0, 1}.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        let g = b.build().unwrap();
        assert_eq!(min_blocking_exact(&g, 0, 4).unwrap(), vec![0, 1]);
    }

    #[test]
    fn cap_below_the_answer_returns_none() {
        let g = generate_mirror(3).unwrap();
        assert_eq!(min_blocking_exact(&g, 0, 1), None);
        assert!(min_blocking_exact(&g, 0, 2).is_some());
    }

    #[test]
    fn agrees_with_worst_case_search_on_small_tornado_graphs() {
        let gen = TornadoGenerator::new(16);
        let (g, _) = tornado_gen::screened(5, 2, |s| gen.generate(s)).unwrap();
        let brute = worst_case_search(
            &g,
            &WorstCaseConfig {
                max_k: 4,
                collect_cap: 16,
                stop_at_first_failure: true,
            },
        )
        .first_failure();
        let directed = minimum_distance(&g, 4).map(|(d, _)| d);
        assert_eq!(brute, directed, "brute force and B&B must agree");
        // And the witness actually fails.
        if let Some((_, set)) = minimum_distance(&g, 4) {
            let mut dec = ErasureDecoder::new(&g);
            assert!(!dec.decode(&set));
        }
    }

    #[test]
    fn certificate_matches_planner_semantics() {
        // Erase {0}: recovery uses check 4 and sibling 1 only.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        let g = b.build().unwrap();
        let mut dec = ErasureDecoder::new(&g);
        let detail = dec.decode_detailed(&[0]);
        let cert = recovery_certificate(&g, &detail, 0);
        assert_eq!(cert, vec![1, 4]);
        // Unrelated target: empty certificate (never erased).
        assert!(recovery_certificate(&g, &detail, 2).is_empty());
    }
}
