//! The generate → screen → test → adjust → verify pipeline (paper §3).

use tornado_analysis::{adjust_graph, AdjustmentStep};
use tornado_gen::{GenError, TornadoGenerator};
use tornado_graph::Graph;
use tornado_sim::{worst_case_search, WorstCaseConfig};

/// Configuration of the full pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Data nodes of the generated Tornado graph (48 for the paper's
    /// 96-node graphs).
    pub num_data: usize,
    /// Structural screen: reject graphs with stopping sets of this size or
    /// smaller among the data nodes (the paper screens the "two- and
    /// three-node overlapping sets"), within 256 generation attempts.
    pub screen_size: usize,
    /// Desired first-failure level of the adjustment loop (the paper
    /// achieves 5).
    pub target_first_failure: usize,
    /// Master seed; the whole pipeline is deterministic in it.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            num_data: 48,
            screen_size: 3,
            target_first_failure: 5,
            seed: 1,
        }
    }
}

/// A graph that came out of the pipeline, with its certification.
#[derive(Clone, Debug)]
pub struct ProfiledGraph {
    /// The final graph.
    pub graph: Graph,
    /// Generation attempts consumed by the structural screen.
    pub generation_attempts: usize,
    /// Rewirings applied by the adjustment loop.
    pub adjustment_steps: Vec<AdjustmentStep>,
    /// Verified worst-case level: the graph survives every loss of up to
    /// this many nodes (`target_first_failure − 1` when the pipeline
    /// achieved its goal).
    pub verified_loss_tolerance: usize,
    /// Failure count at the first failing level, and that level, from the
    /// final verification sweep (`None` if no failure was found within the
    /// searched range).
    pub first_failure: Option<(usize, u64)>,
}

impl ProfiledGraph {
    /// Whether the pipeline reached its adjustment target.
    pub fn achieved_target(&self, target_first_failure: usize) -> bool {
        self.verified_loss_tolerance >= target_first_failure - 1
    }
}

/// Runs the full §3 pipeline. The returned graph is certified by an
/// exhaustive search up to `target_first_failure` (the verification
/// sweep re-runs even the levels the adjustment loop already cleared).
pub fn build_profiled_graph(cfg: &PipelineConfig) -> Result<ProfiledGraph, GenError> {
    let generator = TornadoGenerator::new(cfg.num_data);
    let (raw, attempts) =
        tornado_gen::screened(cfg.seed, cfg.screen_size, |s| generator.generate(s))?;

    let outcome = adjust_graph(&raw, cfg.target_first_failure);

    // Final verification sweep, one level past the target to report the
    // first real failure level when possible.
    let report = worst_case_search(
        &outcome.graph,
        &WorstCaseConfig {
            max_k: cfg.target_first_failure - 1,
            collect_cap: 16,
            stop_at_first_failure: true,
        },
    );
    let first_failure = report
        .levels
        .iter()
        .find(|l| l.failures > 0)
        .map(|l| (l.k, l.failures));
    let verified = match first_failure {
        Some((k, _)) => k - 1,
        None => cfg.target_first_failure - 1,
    };
    Ok(ProfiledGraph {
        graph: outcome.graph,
        generation_attempts: attempts,
        adjustment_steps: outcome.steps,
        verified_loss_tolerance: verified,
        first_failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds keep the pipeline affordable with 32-node graphs
    /// (C(32, 3) = 4960 per sweep level).
    fn small_cfg(seed: u64) -> PipelineConfig {
        PipelineConfig {
            num_data: 16,
            screen_size: 2,
            target_first_failure: 3,
            seed,
        }
    }

    #[test]
    fn pipeline_produces_certified_graph() {
        let profiled = build_profiled_graph(&small_cfg(7)).unwrap();
        assert_eq!(profiled.graph.num_nodes(), 32);
        assert!(profiled.generation_attempts >= 1);
        // The certification is self-consistent with a fresh search.
        let recheck = worst_case_search(
            &profiled.graph,
            &WorstCaseConfig {
                max_k: profiled.verified_loss_tolerance,
                collect_cap: 4,
                stop_at_first_failure: true,
            },
        );
        assert_eq!(recheck.first_failure(), None);
        profiled.graph.validate().unwrap();
    }

    #[test]
    fn pipeline_is_deterministic_in_seed() {
        let a = build_profiled_graph(&small_cfg(9)).unwrap();
        let b = build_profiled_graph(&small_cfg(9)).unwrap();
        assert_eq!(a.graph.fingerprint(), b.graph.fingerprint());
        assert_eq!(a.adjustment_steps, b.adjustment_steps);
    }

    #[test]
    fn achieved_target_reflects_verification() {
        let cfg = small_cfg(11);
        let profiled = build_profiled_graph(&cfg).unwrap();
        let achieved = profiled.achieved_target(cfg.target_first_failure);
        match profiled.first_failure {
            None => assert!(achieved),
            Some((k, n)) => {
                assert!(!achieved || k >= cfg.target_first_failure);
                assert!(n > 0);
            }
        }
    }
}
