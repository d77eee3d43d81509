//! The Tornado Code graph generator (paper §3.1).
//!
//! Cascade shape: check levels halve (`k/2, k/4, …`) until the next level
//! would drop below `MIN_FINAL_LEVEL` (8); the last halving level then
//! acts as the shared left set for *two independent* final check stages of
//! half its size (the Typhoon treatment — "the last two stages of the graph
//! share the same set of left nodes"). The level sizes telescope so that
//! total checks always equal `num_data`: the code is rate 1/2, the same
//! 50 % capacity overhead as RAID 10.
//!
//! Per stage, left node degrees follow Luby's heavy-tail edge-degree
//! distribution (`MAX_DEGREE_D`, the paper's `D = 16`) and check degrees a
//! truncated Poisson, both rescaled by the §3.1 numeric solver to produce
//! exact node counts, then paired by a configuration-model matching with
//! duplicate repair.

use crate::distribution::EdgeDegreeDistribution;
use crate::error::GenError;
use crate::matching::{fit_right_degrees, match_stage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tornado_graph::{Graph, GraphBuilder, NodeId};

/// Heavy-tail parameter `D` (§3.1): left node degrees range over
/// `2..=D+1`, capped per stage so a node never needs more checks than
/// exist. `D = 16` yields the ≈ 3.6 average degree the paper reports.
const MAX_DEGREE_D: u32 = 16;

/// Halving stops when the next level would be smaller than this; the last
/// halving level then feeds the two shared-left final stages (6 + 6 checks
/// on the paper's 96-node graphs, 4 + 4 on 32-node ones).
const MIN_FINAL_LEVEL: usize = 8;

/// Computes the cascade shape of a graph with `num_data` data nodes: the
/// halving check-level sizes followed by the two final stage sizes. The sum
/// always equals `num_data`.
pub(crate) fn shape(num_data: usize) -> Result<CascadeShape, GenError> {
    if num_data < 4 {
        return Err(GenError::BadParameters {
            detail: format!("num_data = {num_data} too small (need >= 4)"),
        });
    }
    let mut halving = Vec::new();
    let mut cur = num_data;
    loop {
        if !cur.is_multiple_of(2) {
            return Err(GenError::BadParameters {
                detail: format!("level size {cur} is odd; num_data must halve cleanly"),
            });
        }
        let next = cur / 2;
        if next < MIN_FINAL_LEVEL {
            break;
        }
        halving.push(next);
        cur = next;
    }
    // `cur`, the shared-left level, is even (the loop checked it) and at
    // least 4.
    Ok(CascadeShape {
        halving,
        final_stage: cur / 2,
    })
}

/// The level structure of a Tornado cascade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CascadeShape {
    /// Sizes of the halving check levels (`k/2, k/4, …`).
    pub(crate) halving: Vec<usize>,
    /// Size of each of the two final stages (half the last halving level).
    pub(crate) final_stage: usize,
}

/// Generates Tornado Code graphs.
#[derive(Clone, Debug)]
pub struct TornadoGenerator {
    /// Data nodes `k`; the graph has `2k` nodes.
    num_data: usize,
    /// Distribution transform applied per stage (identity for standard
    /// Tornado; see [`crate::altered`]).
    transform: DistTransform,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DistTransform {
    Identity,
    Doubled,
    Shifted,
}

impl TornadoGenerator {
    /// Standard Tornado generator for `num_data` data nodes (`2 · num_data`
    /// nodes in all; the paper's graphs have 48).
    pub fn new(num_data: usize) -> Self {
        Self::with_transform(num_data, DistTransform::Identity)
    }

    pub(crate) fn with_transform(num_data: usize, transform: DistTransform) -> Self {
        Self {
            num_data,
            transform,
        }
    }

    fn left_distribution(&self, n_right: usize) -> EdgeDegreeDistribution {
        // A left node cannot feed more distinct checks than the stage has.
        let cap = (n_right.saturating_sub(1)).max(1) as u32;
        let base = EdgeDegreeDistribution::heavy_tail(MAX_DEGREE_D.min(cap));
        match self.transform {
            DistTransform::Identity => base,
            DistTransform::Doubled => base.doubled(),
            DistTransform::Shifted => base.shifted(),
        }
    }

    /// Builds one bipartite stage: returns, per check, its stage-local left
    /// indices.
    fn build_stage(
        &self,
        n_left: usize,
        n_right: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Vec<u32>>, GenError> {
        let left_dist = self.left_distribution(n_right);
        let mut left_degrees = left_dist.degree_sequence(n_left)?;
        // Cap any degree that exceeds the number of checks (transforms like
        // "doubled" can push degrees past the stage width).
        for d in left_degrees.iter_mut() {
            *d = (*d).min(n_right as u32);
        }
        left_degrees.shuffle(rng);
        let total_slots: usize = left_degrees.iter().map(|&d| d as usize).sum();

        let mean_right = total_slots as f64 / n_right as f64;
        let right_dist = EdgeDegreeDistribution::poisson(mean_right.max(0.5), n_left as u32);
        let mut right_degrees = right_dist.degree_sequence(n_right)?;
        right_degrees.shuffle(rng);
        fit_right_degrees(&mut right_degrees, total_slots, n_left)?;
        match_stage(&left_degrees, &right_degrees, rng)
    }

    /// Generates one graph from `seed` (no defect screening; see
    /// [`crate::screened`]).
    pub fn generate(&self, seed: u64) -> Result<Graph, GenError> {
        let shape = shape(self.num_data)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new(self.num_data);

        // Left node ids of the stage being built.
        let mut left_ids: Vec<NodeId> = (0..self.num_data as NodeId).collect();
        for (li, &size) in shape.halving.iter().enumerate() {
            builder.begin_level(&format!("check-{}", li + 1));
            let stage = self.build_stage(left_ids.len(), size, &mut rng)?;
            let mut new_ids = Vec::with_capacity(size);
            for local in stage {
                let nbrs: Vec<NodeId> = local.iter().map(|&l| left_ids[l as usize]).collect();
                new_ids.push(builder.add_check(&nbrs));
            }
            left_ids = new_ids;
        }

        // Two final stages sharing the last halving level as left set.
        for tag in ["final-a", "final-b"] {
            builder.begin_level(tag);
            let stage = self.build_stage(left_ids.len(), shape.final_stage, &mut rng)?;
            for local in stage {
                let nbrs: Vec<NodeId> = local.iter().map(|&l| left_ids[l as usize]).collect();
                builder.add_check(&nbrs);
            }
        }
        Ok(builder.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::stats::{cascade_depth, level_shape, parity_fraction};
    use tornado_graph::DegreeStats;

    #[test]
    fn shape_for_paper_96() {
        let shape = shape(48).unwrap();
        assert_eq!(shape.halving, vec![24, 12]);
        assert_eq!(shape.final_stage, 6);
    }

    #[test]
    fn shape_for_32_node_graph() {
        // §3.1: "The resulting graph constructor was able to produce Tornado
        // Code graphs as small as 32 total nodes" — final stages of 4.
        let shape = shape(16).unwrap();
        assert_eq!(shape.halving, vec![8]);
        assert_eq!(shape.final_stage, 4);
    }

    #[test]
    fn shape_rejects_bad_sizes() {
        assert!(shape(3).is_err());
        assert!(shape(50).is_err(), "50 → 25 is odd");
    }

    #[test]
    fn generated_graph_has_paper_structure() {
        let g = TornadoGenerator::new(48).generate(1).unwrap();
        assert_eq!(g.num_data(), 48);
        assert_eq!(g.num_nodes(), 96);
        assert_eq!(level_shape(&g), vec![48, 24, 12, 6, 6]);
        assert_eq!(cascade_depth(&g), 4);
        assert!((parity_fraction(&g) - 0.5).abs() < 1e-12, "rate 1/2");
        g.validate().unwrap();
    }

    #[test]
    fn final_stages_share_the_same_left_set() {
        let g = TornadoGenerator::new(48).generate(2).unwrap();
        let levels = g.levels();
        let shared_left = levels[2].nodes(); // the 12-node level
        for final_level in &levels[3..] {
            for c in final_level.nodes() {
                for &n in g.check_neighbors(c) {
                    assert!(
                        shared_left.contains(&n),
                        "final-stage check {c} uses {n} outside the shared left set"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let gen = TornadoGenerator::new(48);
        let a = gen.generate(77).unwrap();
        let b = gen.generate(77).unwrap();
        let c = gen.generate(78).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn average_degree_is_near_paper_value() {
        // Paper §3.3: "the average degree of our graphs was 3.6". The
        // comparable quantity is edges per node (every node acts as a left
        // node of exactly one stage, and Σ left-set sizes = num_nodes), i.e.
        // the mean heavy-tail left degree.
        let gen = TornadoGenerator::new(48);
        let mut total = 0.0;
        for seed in 0..5 {
            let g = gen.generate(seed).unwrap();
            total += g.num_edges() as f64 / g.num_nodes() as f64;
        }
        let mean = total / 5.0;
        assert!(
            (2.5..4.5).contains(&mean),
            "edges per node {mean} far from the paper's 3.6"
        );
    }

    #[test]
    fn every_data_node_is_protected() {
        let gen = TornadoGenerator::new(48);
        for seed in 0..10 {
            let g = gen.generate(seed).unwrap();
            let stats = DegreeStats::of(&g);
            assert_eq!(
                stats.unprotected_data_nodes, 0,
                "seed {seed} left a data node uncovered"
            );
        }
    }

    #[test]
    fn screened_generation_passes_the_screen() {
        let gen = TornadoGenerator::new(48);
        let (g, attempts) = crate::screened(1234, 3, |s| gen.generate(s)).unwrap();
        assert!(attempts >= 1);
        assert!(crate::defects::screen(&g, 3).is_ok());
    }

    #[test]
    fn small_graph_generation_works() {
        let g = TornadoGenerator::new(16).generate(5).unwrap();
        assert_eq!(g.num_nodes(), 32);
        assert_eq!(level_shape(&g), vec![16, 8, 4, 4]);
    }

    #[test]
    fn single_data_loss_always_recovers() {
        // Basic sanity for real Tornado graphs: any single loss is fine.
        let g = TornadoGenerator::new(48).generate(3).unwrap();
        let mut dec = tornado_codec::ErasureDecoder::new(&g);
        for v in 0..96 {
            assert!(dec.decode(&[v]), "single loss of node {v} failed");
        }
    }
}
