//! Degree statistics.
//!
//! The paper characterises graphs by degree: the best Tornado graphs average
//! 3.6 edges per node, the fixed-degree cascades use 3/4/6, and §4.3 argues
//! the fault-tolerance trade-off is driven by connectivity. These helpers
//! compute the distributions those comparisons rely on.

use crate::model::{Graph, LevelKind};

/// Summary of a graph's degree structure.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Edges divided by total nodes (the paper's "average degree").
    pub mean_degree_per_node: f64,
    /// Edges divided by data nodes.
    pub(crate) mean_left_degree: f64,
    /// Edges divided by check nodes.
    pub(crate) mean_right_degree: f64,
    /// Histogram of check in-degrees: `check_degree_histogram[d]` = number of
    /// check nodes with `d` left neighbours.
    pub(crate) check_degree_histogram: Vec<usize>,
    /// Histogram of node out-degrees (how many checks use each node).
    pub(crate) out_degree_histogram: Vec<usize>,
    /// Minimum / maximum check in-degree.
    pub check_degree_range: (usize, usize),
    /// Number of nodes no check ever uses (degree-0 on the left side). Data
    /// nodes in this state are unprotected — any such node is a structural
    /// defect.
    pub unprotected_data_nodes: usize,
}

impl DegreeStats {
    /// Computes statistics for `graph`.
    pub fn of(graph: &Graph) -> Self {
        let edges = graph.num_edges() as f64;
        let mut check_hist: Vec<usize> = Vec::new();
        let (mut dmin, mut dmax) = (usize::MAX, 0usize);
        for c in graph.check_ids() {
            let d = graph.check_neighbors(c).len();
            if d >= check_hist.len() {
                check_hist.resize(d + 1, 0);
            }
            check_hist[d] += 1;
            dmin = dmin.min(d);
            dmax = dmax.max(d);
        }
        if graph.num_checks() == 0 {
            dmin = 0;
        }
        let mut out_hist: Vec<usize> = Vec::new();
        let mut unprotected = 0usize;
        for v in 0..graph.num_nodes() as u32 {
            let d = graph.checks_of(v).len();
            if d >= out_hist.len() {
                out_hist.resize(d + 1, 0);
            }
            out_hist[d] += 1;
            if d == 0 && graph.is_data(v) {
                unprotected += 1;
            }
        }
        Self {
            mean_degree_per_node: 2.0 * edges / graph.num_nodes() as f64,
            mean_left_degree: edges / graph.num_data() as f64,
            mean_right_degree: edges / graph.num_checks().max(1) as f64,
            check_degree_histogram: check_hist,
            out_degree_histogram: out_hist,
            check_degree_range: (dmin, dmax),
            unprotected_data_nodes: unprotected,
        }
    }
}

/// Per-level sizes, useful for printing cascade shapes like `48-24-12-12`.
pub fn level_shape(graph: &Graph) -> Vec<usize> {
    graph.levels().iter().map(|l| l.len()).collect()
}

/// The fraction of nodes that are check (parity) nodes — the storage
/// overhead of the code (0.5 for the paper's rate-1/2 graphs).
pub fn parity_fraction(graph: &Graph) -> f64 {
    graph.num_checks() as f64 / graph.num_nodes() as f64
}

/// Number of check levels (cascade depth, excluding the data level).
pub fn cascade_depth(graph: &Graph) -> usize {
    graph
        .levels()
        .iter()
        .filter(|l| l.kind == LevelKind::Check)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        // 4 data; checks: {0,1}, {1,2,3}, then a deeper check {4,5}.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[1, 2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn mean_degrees() {
        let g = sample();
        let s = DegreeStats::of(&g);
        assert_eq!(g.num_edges(), 7);
        assert!((s.mean_degree_per_node - 2.0 * 7.0 / 7.0).abs() < 1e-12);
        assert!((s.mean_left_degree - 7.0 / 4.0).abs() < 1e-12);
        assert!((s.mean_right_degree - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn check_histogram_counts_in_degrees() {
        let s = DegreeStats::of(&sample());
        // Degrees: 2, 3, 2.
        assert_eq!(s.check_degree_histogram[2], 2);
        assert_eq!(s.check_degree_histogram[3], 1);
        assert_eq!(s.check_degree_range, (2, 3));
    }

    #[test]
    fn out_histogram_and_unprotected() {
        let s = DegreeStats::of(&sample());
        // Out-degrees: node0:1, node1:2, node2:1, node3:1, node4:1, node5:1, node6:0.
        assert_eq!(
            s.out_degree_histogram[0], 1,
            "only the last check is unused"
        );
        assert_eq!(s.out_degree_histogram[1], 5);
        assert_eq!(s.out_degree_histogram[2], 1);
        assert_eq!(s.unprotected_data_nodes, 0);
    }

    #[test]
    fn unprotected_data_detected() {
        let mut b = GraphBuilder::new(3);
        b.begin_level("c");
        b.add_check(&[0, 1]); // data node 2 unused
        let g = b.build().unwrap();
        assert_eq!(DegreeStats::of(&g).unprotected_data_nodes, 1);
    }

    #[test]
    fn shape_helpers() {
        let g = sample();
        assert_eq!(level_shape(&g), vec![4, 2, 1]);
        assert!((parity_fraction(&g) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(cascade_depth(&g), 2);
    }
}
