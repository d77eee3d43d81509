//! Graph construction and I/O errors.

use std::fmt;

/// Errors raised while building, validating, or parsing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph must contain at least one data node.
    NoDataNodes,
    /// A check node was declared with no left neighbours.
    EmptyCheck {
        /// Global id of the offending check node.
        check: u32,
    },
    /// A check node references a neighbour with an id not strictly smaller
    /// than its own (the cascade must be a DAG in id order).
    ForwardEdge {
        /// Global id of the check node.
        check: u32,
        /// The offending neighbour id.
        neighbor: u32,
    },
    /// A check node lists the same left neighbour twice (an XOR of a block
    /// with itself contributes nothing and signals a generator bug).
    DuplicateNeighbor {
        /// Global id of the check node.
        check: u32,
        /// The duplicated neighbour id.
        neighbor: u32,
    },
    /// Levels do not partition the node id space contiguously.
    BadLevelPartition {
        /// Description of the inconsistency.
        detail: String,
    },
    /// GraphML input could not be parsed.
    Parse {
        /// Line number (1-based) where parsing failed, if known.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// A node id is outside the declared node range.
    NodeOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of nodes declared.
        num_nodes: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoDataNodes => write!(f, "graph has no data nodes"),
            GraphError::EmptyCheck { check } => {
                write!(f, "check node {check} has no left neighbours")
            }
            GraphError::ForwardEdge { check, neighbor } => write!(
                f,
                "check node {check} references neighbour {neighbor} with a non-smaller id"
            ),
            GraphError::DuplicateNeighbor { check, neighbor } => write!(
                f,
                "check node {check} lists neighbour {neighbor} more than once"
            ),
            GraphError::BadLevelPartition { detail } => {
                write!(f, "levels do not partition the node space: {detail}")
            }
            GraphError::Parse { line, detail } => {
                write!(f, "GraphML parse error at line {line}: {detail}")
            }
            GraphError::NodeOutOfRange { id, num_nodes } => {
                write!(f, "node id {id} out of range (graph has {num_nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_identify_nodes() {
        let e = GraphError::EmptyCheck { check: 50 };
        assert!(e.to_string().contains("50"));
        let e = GraphError::ForwardEdge {
            check: 10,
            neighbor: 11,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains("11"));
        let e = GraphError::Parse {
            line: 7,
            detail: "bad tag".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
