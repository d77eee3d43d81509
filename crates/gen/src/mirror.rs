//! Mirrored systems expressed as graphs.
//!
//! The paper validates its simulator by building "a 96-node mirrored system
//! using our graph generation tool" and checking the sampled failure
//! fractions against the closed-form Eq. 1. A mirror is the degenerate
//! LDPC graph where every check node copies exactly one data node.

use crate::error::GenError;
use tornado_graph::{Graph, GraphBuilder};

/// A mirrored array: `num_data` data nodes, each with one single-neighbour
/// check (its mirror copy). Total `2 × num_data` nodes — the paper's
/// RAID 10 comparator at the same 50 % overhead as the Tornado graphs.
pub fn generate_mirror(num_data: usize) -> Result<Graph, GenError> {
    if num_data == 0 {
        return Err(GenError::BadParameters {
            detail: "no data nodes".into(),
        });
    }
    let mut b = GraphBuilder::new(num_data);
    b.begin_level("mirror");
    for v in 0..num_data as u32 {
        b.add_check(&[v]);
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_codec::ErasureDecoder;

    #[test]
    fn mirror_shape() {
        let g = generate_mirror(48).unwrap();
        assert_eq!(g.num_nodes(), 96);
        assert_eq!(g.num_checks(), 48);
        for (i, c) in g.check_ids().enumerate() {
            assert_eq!(g.check_neighbors(c), &[i as u32]);
        }
    }

    #[test]
    fn mirror_fails_exactly_on_complete_pairs() {
        let g = generate_mirror(4).unwrap();
        let mut dec = ErasureDecoder::new(&g);
        assert!(dec.decode(&[0, 5, 2, 7])); // no complete pair (pairs are i, i+4)
        assert!(!dec.decode(&[0, 4])); // pair 0 complete
        assert!(
            dec.decode(&[0, 1, 2, 3]),
            "all data lost but all mirrors present"
        );
        assert!(dec.decode(&[4, 5, 6, 7]));
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(generate_mirror(0).is_err());
    }
}
