//! Fixed-degree cascaded random graphs (paper §4.3, Fig. 6 / Table 4).
//!
//! "These graphs have the same number of stages as Tornado Codes and use a
//! random edge distribution, but instead of the varying Tornado Code degree
//! distribution the degree was fixed." The fixed quantity is the *left*
//! (node) degree — the paper compares "a regular graph with degree 3" to
//! the best Tornado graph's average degree of 3.6, which is its mean left
//! degree. Every left node of every stage feeds exactly `degree` checks;
//! check in-degrees follow from the stage shape (`2 × degree` in a halving
//! stage) with the slack spread evenly.

use crate::error::GenError;
use crate::matching::{fit_right_degrees, match_stage};
use crate::tornado::shape;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tornado_graph::{Graph, GraphBuilder, NodeId};

/// Generates a cascaded graph in which every left node of every stage has
/// exactly `degree` edges (capped by the stage width), using the same
/// cascade shape (including the shared-left final stages) as the Tornado
/// generator. Random fixed-degree wiring occasionally closes small sets of
/// data nodes just as Tornado wiring does; [`crate::screened`] discards
/// those draws.
pub fn generate_fixed_degree(num_data: usize, degree: u32, seed: u64) -> Result<Graph, GenError> {
    if degree < 2 {
        return Err(GenError::BadParameters {
            detail: format!("fixed degree {degree} < 2 cannot protect anything"),
        });
    }
    let shape = shape(num_data)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(num_data);
    let mut left_ids: Vec<NodeId> = (0..num_data as NodeId).collect();

    for (li, &size) in shape.halving.iter().enumerate() {
        builder.begin_level(&format!("check-{}", li + 1));
        let stage = fixed_stage(left_ids.len(), size, degree, &mut rng)?;
        let mut new_ids = Vec::with_capacity(size);
        for local in stage {
            let nbrs: Vec<NodeId> = local.iter().map(|&l| left_ids[l as usize]).collect();
            new_ids.push(builder.add_check(&nbrs));
        }
        left_ids = new_ids;
    }
    for tag in ["final-a", "final-b"] {
        builder.begin_level(tag);
        let stage = fixed_stage(left_ids.len(), shape.final_stage, degree, &mut rng)?;
        for local in stage {
            let nbrs: Vec<NodeId> = local.iter().map(|&l| left_ids[l as usize]).collect();
            builder.add_check(&nbrs);
        }
    }
    Ok(builder.build()?)
}

/// Builds one stage with every left node of degree exactly
/// `min(degree, n_right)` and check degrees as even as the slot budget
/// allows.
fn fixed_stage(
    n_left: usize,
    n_right: usize,
    degree: u32,
    rng: &mut StdRng,
) -> Result<Vec<Vec<u32>>, GenError> {
    let d = degree.min(n_right as u32);
    let left_degrees = vec![d; n_left];
    let total_slots = d as usize * n_left;
    let base = (total_slots / n_right) as u32;
    let mut right_degrees = vec![base.max(1); n_right];
    right_degrees.shuffle(rng);
    fit_right_degrees(&mut right_degrees, total_slots, n_left)?;
    match_stage(&left_degrees, &right_degrees, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::stats::level_shape;
    use tornado_graph::DegreeStats;

    #[test]
    fn fixed_left_degree_structure() {
        for d in [3u32, 4, 6] {
            let g = generate_fixed_degree(48, d, 9).unwrap();
            assert_eq!(g.num_nodes(), 96);
            assert_eq!(level_shape(&g), vec![48, 24, 12, 6, 6]);
            // Every node that acts as a left node of a halving stage feeds
            // exactly d checks; the shared-left level (the 12-node level)
            // feeds both final stages, so its nodes carry 2d edges (capped
            // at the final width of 6 per stage).
            for v in g.data_ids() {
                assert_eq!(g.checks_of(v).len(), d as usize, "data {v}, d = {d}");
            }
            let first_level = &g.levels()[1]; // the 24-node level
            for c in first_level.nodes() {
                assert_eq!(g.checks_of(c).len(), d as usize, "check {c}, d = {d}");
            }
            let shared = &g.levels()[2]; // the 12-node level feeds two stages
            let per_stage = d.min(6) as usize;
            for c in shared.nodes() {
                assert_eq!(g.checks_of(c).len(), 2 * per_stage, "shared {c}, d = {d}");
            }
        }
    }

    #[test]
    fn edges_scale_with_left_degree() {
        // Halving stages contribute d·(48 + 24) edges, the two final stages
        // d·12 each (capped at width 6).
        for d in [3u32, 4] {
            let g = generate_fixed_degree(48, d, 13).unwrap();
            let expected = d as usize * (48 + 24) + 2 * d.min(6) as usize * 12;
            assert_eq!(g.num_edges(), expected, "d = {d}");
        }
    }

    #[test]
    fn every_data_node_is_protected() {
        for d in [3u32, 4, 6] {
            let g = generate_fixed_degree(48, d, 13).unwrap();
            assert_eq!(DegreeStats::of(&g).unprotected_data_nodes, 0, "d = {d}");
        }
    }

    #[test]
    fn degree_six_saturates_the_final_stage() {
        // With d = 6 over the 12-node shared level, each final stage is the
        // complete bipartite graph: every check uses all 12 left nodes.
        let g = generate_fixed_degree(48, 6, 5).unwrap();
        for level in &g.levels()[3..] {
            for c in level.nodes() {
                assert_eq!(g.check_neighbors(c).len(), 12);
            }
        }
    }

    #[test]
    fn rejects_degree_below_two() {
        assert!(generate_fixed_degree(48, 1, 1).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_fixed_degree(48, 4, 5).unwrap();
        let b = generate_fixed_degree(48, 4, 5).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn screened_variant_passes_the_screen() {
        let (g, _) = crate::screened(1, 3, |s| generate_fixed_degree(48, 3, s)).unwrap();
        assert!(crate::defects::screen(&g, 3).is_ok());
    }

    #[test]
    fn mean_left_degree_tracks_parameter() {
        // Edges per node ≈ d (every node is a left node of exactly one
        // stage, except the shared level which doubles — slight excess).
        let g = generate_fixed_degree(48, 3, 2).unwrap();
        let per_node = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!((2.9..3.6).contains(&per_node), "got {per_node}");
    }
}
