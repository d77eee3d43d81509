//! Codec errors.

use std::fmt;

/// Errors from block encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// `encode` was given the wrong number of data blocks.
    WrongBlockCount {
        /// Blocks supplied.
        got: usize,
        /// Data nodes in the graph.
        expected: usize,
    },
    /// Data blocks have differing lengths.
    UnequalBlockLengths {
        /// Index of the first block whose length differs from block 0.
        index: usize,
        /// Length of block 0.
        expected: usize,
        /// Length of the offending block.
        got: usize,
    },
    /// `decode` was given a stored array of the wrong width.
    WrongStripeWidth {
        /// Slots supplied.
        got: usize,
        /// Total nodes in the graph.
        expected: usize,
    },
    /// No block is present at all — nothing to infer lengths from.
    EmptyStripe,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::WrongBlockCount { got, expected } => {
                write!(f, "expected {expected} data blocks, got {got}")
            }
            CodecError::UnequalBlockLengths {
                index,
                expected,
                got,
            } => write!(
                f,
                "block {index} has length {got}, but block 0 has length {expected}"
            ),
            CodecError::WrongStripeWidth { got, expected } => {
                write!(f, "stripe has {got} slots, graph needs {expected}")
            }
            CodecError::EmptyStripe => write!(f, "stripe contains no blocks at all"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_counts() {
        let e = CodecError::WrongBlockCount {
            got: 3,
            expected: 48,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains("48"));
        let e = CodecError::WrongStripeWidth {
            got: 95,
            expected: 96,
        };
        assert!(e.to_string().contains("95"));
    }
}
