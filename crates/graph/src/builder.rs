//! Mutable graph accumulation and validation.

use crate::error::GraphError;
use crate::model::{Graph, Level, LevelKind, NodeId, ParityRows};

/// Accumulates a cascaded LDPC graph level by level, then validates and
/// freezes it into a [`Graph`].
///
/// Generators call [`GraphBuilder::begin_level`] / [`GraphBuilder::add_check`]
/// in cascade order; the §3.3 adjustment procedure edits an existing graph
/// ([`Graph::to_builder`]) through [`GraphBuilder::move_edge`].
///
/// ```
/// use tornado_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);          // data nodes 0..4
/// b.begin_level("check-1");
/// b.add_check(&[0, 1]);                      // node 4 = XOR(0, 1)
/// b.add_check(&[1, 2, 3]);                   // node 5 = XOR(1, 2, 3)
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_data: u32,
    /// Left-neighbour list per check node, in id order.
    checks: Vec<Vec<NodeId>>,
    /// (label, number of checks) per check level, in cascade order.
    level_sizes: Vec<(String, usize)>,
    /// Index into `level_sizes` currently being filled.
    open: bool,
}

impl GraphBuilder {
    /// Starts a graph with `num_data` data nodes (ids `0..num_data`).
    pub fn new(num_data: usize) -> Self {
        Self {
            num_data: num_data as u32,
            checks: Vec::new(),
            level_sizes: Vec::new(),
            open: false,
        }
    }

    /// Recreates a builder from a frozen graph (for adjustment).
    pub(crate) fn from_graph(graph: &Graph) -> Self {
        let mut b = Self::new(graph.num_data());
        for level in &graph.levels()[1..] {
            b.begin_level(&level.label);
            for check in level.nodes() {
                b.add_check(graph.check_neighbors(check));
            }
        }
        b
    }

    /// Total nodes allocated so far (data + checks).
    pub fn num_nodes(&self) -> usize {
        self.num_data as usize + self.checks.len()
    }

    /// Opens a new check level. Subsequent [`GraphBuilder::add_check`] calls
    /// append to it until the next `begin_level`.
    pub fn begin_level(&mut self, label: &str) {
        self.level_sizes.push((label.to_string(), 0));
        self.open = true;
    }

    /// Appends a check node whose value is the XOR of `left_neighbors`
    /// (global node ids, which must already exist). Returns the new node's
    /// global id.
    ///
    /// # Panics
    /// Panics if no level is open.
    pub fn add_check(&mut self, left_neighbors: &[NodeId]) -> NodeId {
        assert!(self.open, "call begin_level before add_check");
        let id = self.num_data + self.checks.len() as u32;
        let mut nbrs = left_neighbors.to_vec();
        nbrs.sort_unstable();
        self.checks.push(nbrs);
        self.level_sizes.last_mut().expect("a level is open").1 += 1;
        id
    }

    /// The current left-neighbour list of check node `check`.
    ///
    /// # Panics
    /// Panics if `check` is not a check node id allocated by this builder.
    #[cfg(test)]
    pub(crate) fn neighbors_of(&self, check: NodeId) -> &[NodeId] {
        &self.checks[(check - self.num_data) as usize]
    }

    /// Removes `node` from check `check`'s left neighbours. Returns `true`
    /// if the edge existed. Refuses (returns `false`) to remove the last
    /// neighbour — a check must XOR something.
    pub(crate) fn remove_neighbor(&mut self, check: NodeId, node: NodeId) -> bool {
        let list = &mut self.checks[(check - self.num_data) as usize];
        if list.len() <= 1 {
            return false;
        }
        match list.iter().position(|&n| n == node) {
            Some(pos) => {
                list.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Adds `node` to check `check`'s left neighbours. Returns `true` if the
    /// edge was new; `false` if it already existed.
    pub(crate) fn add_neighbor(&mut self, check: NodeId, node: NodeId) -> bool {
        let list = &mut self.checks[(check - self.num_data) as usize];
        if list.contains(&node) {
            return false;
        }
        list.push(node);
        list.sort_unstable();
        true
    }

    /// Moves the edge `left — from_check` to `left — to_check` (the §3.3
    /// rewiring step as a single operation). Returns `false` and leaves the
    /// builder untouched if the move is impossible (edge absent, target edge
    /// already present, or `from_check` would be left empty).
    pub fn move_edge(&mut self, left: NodeId, from_check: NodeId, to_check: NodeId) -> bool {
        let to_list = &self.checks[(to_check - self.num_data) as usize];
        if to_list.contains(&left) {
            return false;
        }
        if !self.remove_neighbor(from_check, left) {
            return false;
        }
        let added = self.add_neighbor(to_check, left);
        debug_assert!(added, "membership was pre-checked");
        true
    }

    /// Validates and freezes into an immutable [`Graph`].
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.num_data == 0 {
            return Err(GraphError::NoDataNodes);
        }
        let num_nodes = self.num_data + self.checks.len() as u32;

        // Per-check validation.
        for (i, nbrs) in self.checks.iter().enumerate() {
            let check = self.num_data + i as u32;
            if nbrs.is_empty() {
                return Err(GraphError::EmptyCheck { check });
            }
            for w in nbrs.windows(2) {
                if w[0] == w[1] {
                    return Err(GraphError::DuplicateNeighbor {
                        check,
                        neighbor: w[0],
                    });
                }
            }
            for &n in nbrs {
                if n >= num_nodes {
                    return Err(GraphError::NodeOutOfRange { id: n, num_nodes });
                }
                if n >= check {
                    return Err(GraphError::ForwardEdge { check, neighbor: n });
                }
            }
        }

        // Assemble levels: data first, then check levels in declared order.
        let mut levels = Vec::with_capacity(1 + self.level_sizes.len());
        levels.push(Level {
            kind: LevelKind::Data,
            start: 0,
            end: self.num_data,
            label: "data".to_string(),
        });
        let mut cursor = self.num_data;
        for (label, size) in &self.level_sizes {
            if *size == 0 {
                return Err(GraphError::BadLevelPartition {
                    detail: format!("check level '{label}' is empty"),
                });
            }
            levels.push(Level {
                kind: LevelKind::Check,
                start: cursor,
                end: cursor + *size as u32,
                label: label.clone(),
            });
            cursor += *size as u32;
        }

        // Forward CSR.
        let mut check_offsets = Vec::with_capacity(self.checks.len() + 1);
        let mut check_edges = Vec::new();
        check_offsets.push(0u32);
        for nbrs in &self.checks {
            check_edges.extend_from_slice(nbrs);
            check_offsets.push(check_edges.len() as u32);
        }

        // Reverse CSR (counting sort by neighbour id).
        let mut counts = vec![0u32; num_nodes as usize + 1];
        for &n in &check_edges {
            counts[n as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let node_offsets = counts.clone();
        let mut node_checks = vec![0u32; check_edges.len()];
        let mut fill = counts;
        for (i, nbrs) in self.checks.iter().enumerate() {
            let check = self.num_data + i as u32;
            for &n in nbrs {
                node_checks[fill[n as usize] as usize] = check;
                fill[n as usize] += 1;
            }
        }

        let graph = Graph {
            rows: ParityRows::build(self.num_data, num_nodes, &check_offsets, &check_edges),
            num_data: self.num_data,
            num_nodes,
            levels,
            check_offsets,
            check_edges,
            node_offsets,
            node_checks,
        };
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_validates_empty_check() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("c");
        b.add_check(&[]);
        assert_eq!(b.build().unwrap_err(), GraphError::EmptyCheck { check: 2 });
    }

    #[test]
    fn build_validates_duplicate_neighbor() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("c");
        b.add_check(&[0, 0]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateNeighbor {
                check: 2,
                neighbor: 0
            }
        );
    }

    #[test]
    fn build_validates_forward_edge() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("c");
        b.add_check(&[0, 1]); // id 2
        b.add_check(&[3]); // id 3 referencing itself
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::ForwardEdge {
                check: 3,
                neighbor: 3
            }
        );
    }

    #[test]
    fn build_validates_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("c");
        b.add_check(&[7]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::NodeOutOfRange {
                id: 7,
                num_nodes: 3
            }
        );
    }

    #[test]
    fn build_rejects_no_data() {
        assert_eq!(
            GraphBuilder::new(0).build().unwrap_err(),
            GraphError::NoDataNodes
        );
    }

    #[test]
    fn build_rejects_empty_level() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("empty");
        b.begin_level("real");
        b.add_check(&[0]);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::BadLevelPartition { .. }
        ));
    }

    #[test]
    fn neighbors_are_sorted_regardless_of_input_order() {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        let id = b.add_check(&[3, 0, 2]);
        assert_eq!(b.neighbors_of(id), &[0, 2, 3]);
        let g = b.build().unwrap();
        assert_eq!(g.check_neighbors(id), &[0, 2, 3]);
    }

    #[test]
    fn remove_and_add_neighbor() {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        let c0 = b.add_check(&[0, 1]);
        let c1 = b.add_check(&[2]);
        assert!(b.remove_neighbor(c0, 1));
        assert!(!b.remove_neighbor(c0, 0), "refuses to empty a check");
        assert!(b.add_neighbor(c0, 3));
        assert!(!b.add_neighbor(c0, 3), "no duplicate edges");
        assert_eq!(b.neighbors_of(c0), &[0, 3]);
        assert!(!b.remove_neighbor(c1, 0), "absent edge");
    }

    #[test]
    fn move_edge_is_atomic() {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        let c0 = b.add_check(&[0, 1]);
        let c1 = b.add_check(&[1, 2]);
        assert!(b.move_edge(0, c0, c1));
        assert_eq!(b.neighbors_of(c0), &[1]);
        assert_eq!(b.neighbors_of(c1), &[0, 1, 2]);
        // Impossible moves leave everything untouched.
        assert!(!b.move_edge(1, c0, c1), "target already has 1");
        assert_eq!(b.neighbors_of(c0), &[1]);
        assert!(!b.move_edge(3, c0, c1), "edge 3–c0 absent");
        assert!(!b.move_edge(1, c0, c0), "would empty c0 / self move");
    }

    #[test]
    fn reverse_adjacency_is_consistent() {
        let mut b = GraphBuilder::new(3);
        b.begin_level("c1");
        b.add_check(&[0, 1]); // 3
        b.add_check(&[1, 2]); // 4
        b.begin_level("c2");
        b.add_check(&[3, 4]); // 5
        let g = b.build().unwrap();
        assert_eq!(g.checks_of(1), &[3, 4]);
        assert_eq!(g.checks_of(3), &[5]);
        assert_eq!(g.checks_of(5), &[] as &[u32]);
        // Every forward edge appears exactly once in reverse.
        let mut forward = 0;
        for c in g.check_ids() {
            forward += g.check_neighbors(c).len();
        }
        let mut reverse = 0;
        for v in 0..g.num_nodes() as u32 {
            reverse += g.checks_of(v).len();
        }
        assert_eq!(forward, reverse);
    }

    #[test]
    fn multi_level_labels_preserved() {
        let mut b = GraphBuilder::new(2);
        b.begin_level("alpha");
        b.add_check(&[0]);
        b.begin_level("beta");
        b.add_check(&[1, 2]);
        let g = b.build().unwrap();
        let labels: Vec<&str> = g.levels().iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, vec!["data", "alpha", "beta"]);
    }
}
