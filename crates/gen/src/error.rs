//! Generation errors.

use std::fmt;
use tornado_graph::GraphError;

/// Errors from graph generation.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The degree-distribution solver could not hit the requested node
    /// count within its bracket.
    DistributionUnsolvable {
        /// Requested number of nodes.
        target: usize,
        /// Closest achievable node count.
        closest: i64,
    },
    /// The edge matcher could not eliminate duplicate edges within its
    /// repair budget (the stage is too dense for its size).
    MatchingFailed {
        /// Left-side size of the offending stage.
        left: usize,
        /// Right-side size of the offending stage.
        right: usize,
    },
    /// Parameters are structurally impossible (e.g. zero data nodes, a
    /// degree larger than the opposite side).
    BadParameters {
        /// Explanation.
        detail: String,
    },
    /// Every random attempt failed the structural defect screen.
    ScreenExhausted {
        /// Number of attempts made.
        attempts: usize,
    },
    /// The assembled graph failed validation (generator bug surfaced).
    Graph(GraphError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::DistributionUnsolvable { target, closest } => write!(
                f,
                "no distribution multiplier yields {target} nodes (closest: {closest})"
            ),
            GenError::MatchingFailed { left, right } => write!(
                f,
                "could not build a simple bipartite matching for stage {left}x{right}"
            ),
            GenError::BadParameters { detail } => write!(f, "bad parameters: {detail}"),
            GenError::ScreenExhausted { attempts } => write!(
                f,
                "all {attempts} generation attempts failed the structural defect screen"
            ),
            GenError::Graph(e) => write!(f, "generated graph invalid: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<GraphError> for GenError {
    fn from(e: GraphError) -> Self {
        GenError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GenError::DistributionUnsolvable {
            target: 24,
            closest: 23,
        };
        assert!(e.to_string().contains("24") && e.to_string().contains("23"));
        let e = GenError::ScreenExhausted { attempts: 64 };
        assert!(e.to_string().contains("64"));
    }
}
