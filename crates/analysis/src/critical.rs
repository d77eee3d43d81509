//! Critical node sets (paper §3.2–3.3).
//!
//! A failing erasure pattern from the worst-case search is turned into the
//! paper's working view: the *left nodes* that stayed unrecoverable and,
//! for each, the closed set of *right nodes* (checks) it depends on —
//! "written in the form 'left node [ right nodes ]'".

use tornado_codec::ErasureDecoder;
use tornado_graph::{Graph, NodeId};

/// One failing pattern analysed into its critical structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalSet {
    /// The erasure pattern that failed (node indices, sorted).
    pub erasure: Vec<usize>,
    /// Nodes unrecoverable at fixpoint (data and checks).
    pub lost_nodes: Vec<NodeId>,
    /// Data nodes unrecoverable at fixpoint.
    pub lost_data: Vec<NodeId>,
    /// The "left node [ right nodes ]" view: each lost node paired with the
    /// checks that use it (all of which are blocked for it).
    pub(crate) dependencies: Vec<(NodeId, Vec<NodeId>)>,
}

impl CriticalSet {
    /// Every check node implicated in this failure: the union of the
    /// dependency right-node sets.
    pub(crate) fn implicated_checks(&self) -> Vec<NodeId> {
        let mut checks: Vec<NodeId> = self
            .dependencies
            .iter()
            .flat_map(|(_, rs)| rs.iter().copied())
            .collect();
        checks.sort_unstable();
        checks.dedup();
        checks
    }

    /// Renders the paper's textual form, one line per lost left node.
    pub fn render(&self) -> String {
        self.dependencies
            .iter()
            .map(|(l, rs)| {
                let rs: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
                format!("{l} [ {} ]", rs.join(", "))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Analyses each failing pattern into a [`CriticalSet`].
pub fn critical_sets(graph: &Graph, patterns: &[Vec<usize>]) -> Vec<CriticalSet> {
    let mut dec = ErasureDecoder::new(graph);
    patterns
        .iter()
        .map(|pattern| {
            let detail = dec.decode_detailed(pattern);
            let dependencies = detail
                .lost_nodes
                .iter()
                .map(|&l| (l, graph.checks_of(l).to_vec()))
                .collect();
            let mut erasure = pattern.clone();
            erasure.sort_unstable();
            CriticalSet {
                erasure,
                lost_nodes: detail.lost_nodes,
                lost_data: detail.lost_data,
                dependencies,
            }
        })
        .collect()
}

/// Counts, over a batch of critical sets, how often each node appears among
/// the lost nodes — §3.3's "identify critical left nodes that were involved
/// in the most failure sets". Returns `(node, count)` sorted by descending
/// count (ties by ascending id).
pub(crate) fn involvement_counts(sets: &[CriticalSet]) -> Vec<(NodeId, usize)> {
    let mut counts: std::collections::BTreeMap<NodeId, usize> = Default::default();
    for s in sets {
        for &l in &s.lost_nodes {
            *counts.entry(l).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(NodeId, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Counts how often each check is implicated across critical sets.
pub(crate) fn check_involvement_counts(sets: &[CriticalSet]) -> Vec<(NodeId, usize)> {
    let mut counts: std::collections::BTreeMap<NodeId, usize> = Default::default();
    for s in sets {
        for c in s.implicated_checks() {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(NodeId, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    /// Data 0..4; checks 4,5 = {0,1} twice (closed pair), 6 = {2,3}, 7 = {2}.
    fn defective() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        b.add_check(&[0, 1]);
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.add_check(&[2]);
        b.build().unwrap()
    }

    #[test]
    fn analysis_reports_lost_structure() {
        let g = defective();
        let sets = critical_sets(&g, &[vec![0, 1]]);
        assert_eq!(sets.len(), 1);
        let s = &sets[0];
        assert_eq!(s.lost_data, vec![0, 1]);
        assert_eq!(s.lost_nodes, vec![0, 1]);
        assert_eq!(s.dependencies, vec![(0, vec![4, 5]), (1, vec![4, 5])]);
        assert_eq!(s.implicated_checks(), vec![4, 5]);
    }

    #[test]
    fn render_matches_paper_format() {
        let g = defective();
        let sets = critical_sets(&g, &[vec![0, 1]]);
        assert_eq!(sets[0].render(), "0 [ 4, 5 ]\n1 [ 4, 5 ]");
    }

    #[test]
    fn involvement_counts_rank_by_frequency() {
        let g = defective();
        // Two failing patterns both losing {0,1}; one also kills 3's path.
        let sets = critical_sets(&g, &[vec![0, 1], vec![0, 1, 6, 3]]);
        let counts = involvement_counts(&sets);
        assert_eq!(counts[0].1, 2);
        assert!(counts.iter().any(|&(n, c)| n == 3 && c == 1));
        let check_counts = check_involvement_counts(&sets);
        assert_eq!(check_counts[0], (4, 2));
    }

    #[test]
    fn patterns_that_lose_checks_report_them() {
        let g = defective();
        // Lose 2 and its mirror 7 and sibling 3: data 2,3 unrecoverable and
        // check 6 is blocked… 6 itself was not erased so it stays available.
        let sets = critical_sets(&g, &[vec![2, 3, 7]]);
        assert_eq!(sets[0].lost_data, vec![2, 3]);
        assert_eq!(sets[0].lost_nodes, vec![2, 3, 7]);
    }
}
