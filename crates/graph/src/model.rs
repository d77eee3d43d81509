//! The frozen graph representation.

use crate::error::GraphError;
use tornado_bitset::rows::{self, RowTable, Word};

/// Global node identifier. Data nodes are `0..num_data`; check nodes follow
/// in level order.
pub type NodeId = u32;

/// What a level's nodes hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LevelKind {
    /// Original data blocks.
    Data,
    /// XOR parity of left neighbours.
    Check,
}

/// A contiguous range of node ids forming one level of the cascade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Level {
    /// Data or check level.
    pub kind: LevelKind,
    /// First node id in the level (inclusive).
    pub start: NodeId,
    /// One past the last node id in the level.
    pub end: NodeId,
    /// Human-readable label, e.g. `"data"`, `"check-1"`, `"final-a"`.
    pub label: String,
}

impl Level {
    /// Number of nodes in the level.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the level contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `node` belongs to this level.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        (self.start..self.end).contains(&node)
    }

    /// Iterator over the node ids in the level.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        self.start..self.end
    }
}

/// The graph's parity equations as bit rows over node ids, built once when
/// the graph is frozen so that every decoder bound to it starts for free.
///
/// Check `c` asserts that `c` XOR its left neighbours is zero, so whichever
/// *one* node of that closed neighbourhood is unknown can be solved for: a
/// present check with one missing neighbour peels it, a missing check with
/// every neighbour present is re-encoded. The decode kernel therefore needs
/// one row per check and its transpose, nothing else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityRows {
    /// Row `c` (a check id; data rows are empty): `c` itself and its left
    /// neighbours — the nodes of check `c`'s equation.
    pub equation: RowTable,
    /// Row `v`: the checks whose equation contains node `v` — the checks to
    /// look at again when `v` is recovered.
    pub wakes: RowTable,
    /// The data nodes.
    pub data: Vec<Word>,
    /// The nodes some equation contains: every check, and every data node
    /// with a check over it. Missing alone, such a node is recovered by any
    /// of its equations; an uncovered data node is lost with no help.
    pub covered: Vec<Word>,
    /// Rows `2v` and `2v + 1`: the equations of two checks that recover `v`
    /// when it is missing alone, each a certificate of `{v}` (both empty for
    /// an uncovered data node). They are the equations with the fewest
    /// nodes above `v`, since the later members of a sorted pattern all lie
    /// above it: a check's own equation, which has none (re-encoding reads
    /// only lower ids), twice; a data node's two best (its one, twice, if
    /// it has one).
    pub solved: RowTable,
}

impl ParityRows {
    pub(crate) fn build(
        num_data: u32,
        num_nodes: u32,
        check_offsets: &[u32],
        check_edges: &[u32],
    ) -> Self {
        let n = num_nodes as usize;
        let mut equation = RowTable::new(n, n);
        let mut wakes = RowTable::new(n, n);
        for check in num_data as usize..n {
            let c = check - num_data as usize;
            let nbrs = &check_edges[check_offsets[c] as usize..check_offsets[c + 1] as usize];
            for v in nbrs.iter().map(|&v| v as usize).chain([check]) {
                equation.set(check, v);
                wakes.set(v, check);
            }
        }
        let mut data = vec![0; rows::words_for(n)];
        rows::fill_range(&mut data, 0, num_data as usize);
        let mut covered = vec![0; rows::words_for(n)];
        for v in (0..n).filter(|&v| !rows::is_empty(wakes.row(v))) {
            rows::set(&mut covered, v);
        }
        let mut solved = RowTable::new(2 * n, n);
        for v in 0..n {
            let mut checks: Vec<usize> = rows::ones(wakes.row(v)).collect();
            checks.sort_by_cached_key(|&c| rows::ones(equation.row(c)).filter(|&u| u > v).count());
            let second = if checks.first() == Some(&v) { 0 } else { 1 };
            for (x, check) in [checks.first(), checks.get(second).or(checks.first())]
                .into_iter()
                .enumerate()
            {
                for u in check.into_iter().flat_map(|&c| rows::ones(equation.row(c))) {
                    solved.set(2 * v + x, u);
                }
            }
        }
        Self {
            equation,
            wakes,
            data,
            covered,
            solved,
        }
    }
}

/// A validated, immutable cascaded LDPC graph with CSR adjacency in both
/// directions.
///
/// Obtained from [`crate::GraphBuilder::build`] or by parsing GraphML. The
/// decoder-facing accessors ([`Graph::check_neighbors`],
/// [`Graph::checks_of`]) return slices into flat arrays and never allocate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub(crate) num_data: u32,
    pub(crate) num_nodes: u32,
    pub(crate) levels: Vec<Level>,
    /// CSR over check nodes: `check_edges[check_offsets[c]..check_offsets[c+1]]`
    /// are the left neighbours of check `num_data + c`.
    pub(crate) check_offsets: Vec<u32>,
    pub(crate) check_edges: Vec<u32>,
    /// Reverse CSR: `node_checks[node_offsets[v]..node_offsets[v+1]]` are the
    /// *global ids* of the check nodes that XOR node `v` in.
    pub(crate) node_offsets: Vec<u32>,
    pub(crate) node_checks: Vec<u32>,
    /// The same adjacency as bit rows (see [`ParityRows`]).
    pub(crate) rows: ParityRows,
}

impl Graph {
    /// The parity equations as bit rows, for the decode kernel.
    #[inline]
    pub fn rows(&self) -> &ParityRows {
        &self.rows
    }

    /// Number of data nodes (`k`).
    #[inline]
    pub fn num_data(&self) -> usize {
        self.num_data as usize
    }

    /// Number of check nodes.
    #[inline]
    pub fn num_checks(&self) -> usize {
        (self.num_nodes - self.num_data) as usize
    }

    /// Total number of nodes (`n = data + checks`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Total number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.check_edges.len()
    }

    /// Whether `node` is a data node.
    #[inline]
    pub fn is_data(&self, node: NodeId) -> bool {
        node < self.num_data
    }

    /// Whether `node` is a check node.
    #[inline]
    pub fn is_check(&self, node: NodeId) -> bool {
        node >= self.num_data && node < self.num_nodes
    }

    /// The cascade levels, in id order (data level first).
    #[inline]
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The level containing `node`.
    pub fn level_of(&self, node: NodeId) -> &Level {
        self.levels
            .iter()
            .find(|l| l.contains(node))
            .expect("every node belongs to a level")
    }

    /// Left neighbours of a check node (global ids, ascending).
    ///
    /// # Panics
    /// Panics if `check` is not a check node.
    #[inline]
    pub fn check_neighbors(&self, check: NodeId) -> &[u32] {
        debug_assert!(self.is_check(check), "{check} is not a check node");
        let c = (check - self.num_data) as usize;
        let (a, b) = (
            self.check_offsets[c] as usize,
            self.check_offsets[c + 1] as usize,
        );
        &self.check_edges[a..b]
    }

    /// The check nodes (global ids, ascending) that include `node` as a left
    /// neighbour.
    #[inline]
    pub fn checks_of(&self, node: NodeId) -> &[u32] {
        let v = node as usize;
        let (a, b) = (
            self.node_offsets[v] as usize,
            self.node_offsets[v + 1] as usize,
        );
        &self.node_checks[a..b]
    }

    /// Iterator over all check node ids.
    #[inline]
    pub fn check_ids(&self) -> std::ops::Range<NodeId> {
        self.num_data..self.num_nodes
    }

    /// Iterator over all data node ids.
    #[inline]
    pub fn data_ids(&self) -> std::ops::Range<NodeId> {
        0..self.num_data
    }

    /// Rebuilds a [`crate::GraphBuilder`] with this graph's structure, for
    /// mutation (used by the §3.3 adjustment procedure).
    pub fn to_builder(&self) -> crate::GraphBuilder {
        crate::GraphBuilder::from_graph(self)
    }

    /// A stable 64-bit structural fingerprint (FNV-1a-style over the
    /// canonical adjacency), used to detect accidental graph mutation and
    /// to name generated graphs reproducibly.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        // The block digest's multiplier, 2⁴⁴ + 0x1b3: not FNV-64's prime
        // (2⁴⁰ + 0x1b3), but odd and so invertible mod 2⁶⁴. Pinned: the
        // fingerprints recorded for the catalogue graphs depend on it.
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.num_data);
        eat(self.num_nodes);
        for &o in &self.check_offsets {
            eat(o);
        }
        for &e in &self.check_edges {
            eat(e);
        }
        h
    }

    /// Validates internal consistency; returns the graph's structural
    /// invariant violations if any. Primarily used by property tests and
    /// after GraphML round-trips.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.num_data == 0 {
            return Err(GraphError::NoDataNodes);
        }
        for check in self.check_ids() {
            let nbrs = self.check_neighbors(check);
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
                if n >= check {
                    return Err(GraphError::ForwardEdge { check, neighbor: n });
                }
            }
        }
        // Levels partition 0..num_nodes contiguously, data level first.
        let mut cursor = 0u32;
        for (i, level) in self.levels.iter().enumerate() {
            if level.start != cursor {
                return Err(GraphError::BadLevelPartition {
                    detail: format!("level {i} starts at {} expected {cursor}", level.start),
                });
            }
            if level.is_empty() {
                return Err(GraphError::BadLevelPartition {
                    detail: format!("level {i} is empty"),
                });
            }
            if (level.kind == LevelKind::Data) != (i == 0) {
                return Err(GraphError::BadLevelPartition {
                    detail: format!("level {i} kind mismatch (only level 0 may be data)"),
                });
            }
            cursor = level.end;
        }
        if cursor != self.num_nodes {
            return Err(GraphError::BadLevelPartition {
                detail: format!("levels end at {cursor}, graph has {} nodes", self.num_nodes),
            });
        }
        if self.levels.first().map(|l| l.end) != Some(self.num_data) {
            return Err(GraphError::BadLevelPartition {
                detail: "data level does not span 0..num_data".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// A tiny valid cascade: 4 data nodes, one level of 2 checks.
    fn tiny() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("check-1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.build().unwrap()
    }

    #[test]
    fn accessors_report_shape() {
        let g = tiny();
        assert_eq!(g.num_data(), 4);
        assert_eq!(g.num_checks(), 2);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_data(3));
        assert!(!g.is_data(4));
        assert!(g.is_check(4));
        assert!(!g.is_check(6));
    }

    #[test]
    fn adjacency_both_directions() {
        let g = tiny();
        assert_eq!(g.check_neighbors(4), &[0, 1]);
        assert_eq!(g.check_neighbors(5), &[2, 3]);
        assert_eq!(g.checks_of(0), &[4]);
        assert_eq!(g.checks_of(2), &[5]);
        assert_eq!(
            g.checks_of(4),
            &[] as &[u32],
            "no deeper level uses check 4"
        );
    }

    #[test]
    fn levels_partition() {
        let g = tiny();
        assert_eq!(g.levels().len(), 2);
        assert_eq!(g.levels()[0].kind, LevelKind::Data);
        assert_eq!(g.levels()[0].nodes(), 0..4);
        assert_eq!(g.levels()[1].nodes(), 4..6);
        assert_eq!(g.level_of(5).label, "check-1");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let g1 = tiny();
        let mut b = GraphBuilder::new(4);
        b.begin_level("check-1");
        b.add_check(&[0, 2]);
        b.add_check(&[1, 3]);
        let g2 = b.build().unwrap();
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert_eq!(g1.fingerprint(), tiny().fingerprint(), "deterministic");
    }

    #[test]
    fn to_builder_roundtrip_preserves_structure() {
        let g = tiny();
        let rebuilt = g.to_builder().build().unwrap();
        assert_eq!(g, rebuilt);
    }
}
