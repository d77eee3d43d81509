//! Feedback-based graph adjustment (paper §3.3).
//!
//! "We first identify critical left nodes that were involved in the most
//! failure sets. […] For the target left node, we find the right node with
//! the highest failure rate and then change the connectivity of the target
//! left node to include a different right node that was not involved in the
//! failures. This opens the closed set that caused the failure and removes
//! the failure set provided that the substitution did not tie one failure
//! set to another. After the adjustment has been completed, the adjusted
//! graph is re-tested."
//!
//! [`adjust_graph`] runs that loop to a target first-failure level,
//! reverting any rewiring that makes things worse and trying the next
//! candidate. Success is not guaranteed — "the success of the algorithm is
//! dependent on the graph" — so the outcome reports whether the target was
//! achieved or the search stalled.

use crate::critical::{check_involvement_counts, critical_sets, involvement_counts};
use tornado_graph::{Graph, NodeId};
use tornado_sim::worst_case::{search_level, KLevelResult};

/// Accepted rewirings before the loop gives up.
const MAX_ITERATIONS: usize = 64;

/// Failure sets collected at the failing level (a memory bound): the
/// critical sets that pick each rewiring are read off these.
const COLLECT_CAP: usize = 1024;

/// `(target, replacement)` candidates one iteration tries before it
/// declares a stall.
const CANDIDATE_BUDGET: usize = 64;

/// One accepted rewiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjustmentStep {
    /// The critical left node whose edge was moved.
    pub left: NodeId,
    /// The implicated check it was detached from.
    pub from_check: NodeId,
    /// The uninvolved check it was attached to.
    pub to_check: NodeId,
    /// Failure count at the first-failure level before the move.
    pub failures_before: u64,
    /// Failure count at the same level after the move.
    pub failures_after: u64,
}

/// Result of the adjustment loop.
#[derive(Clone, Debug)]
pub struct AdjustOutcome {
    /// The (possibly improved) graph.
    pub graph: Graph,
    /// Accepted rewirings, in order.
    pub steps: Vec<AdjustmentStep>,
    /// First-failure level of the final graph when searched up to
    /// `target_first_failure − 1` (`None` means the target was achieved).
    pub first_failure_below_target: Option<usize>,
}

impl AdjustOutcome {
    /// Whether the graph now survives every loss below the target level.
    pub fn achieved(&self) -> bool {
        self.first_failure_below_target.is_none()
    }
}

/// Finds the current first failure at or below `max_k`; returns the level
/// result for it.
fn first_failing_level(graph: &Graph, max_k: usize, collect_cap: usize) -> Option<KLevelResult> {
    for k in 1..=max_k {
        let level = search_level(graph, k, collect_cap);
        if level.failures > 0 {
            return Some(level);
        }
    }
    None
}

/// Runs the §3.3 adjustment loop on `graph` toward `target_first_failure`:
/// the adjusted graph should survive every loss of `target_first_failure −
/// 1` nodes (the paper achieves 5). The loop accepts at most 64 rewirings
/// and tries at most 64 candidates for each.
pub fn adjust_graph(graph: &Graph, target_first_failure: usize) -> AdjustOutcome {
    assert!(target_first_failure >= 2);
    let below = target_first_failure - 1;
    let mut current = graph.clone();
    let mut steps = Vec::new();

    for _ in 0..MAX_ITERATIONS {
        let Some(level) = first_failing_level(&current, below, COLLECT_CAP) else {
            return AdjustOutcome {
                graph: current,
                steps,
                first_failure_below_target: None,
            };
        };
        match try_one_adjustment(&current, &level) {
            Some((next, step)) => {
                steps.push(step);
                current = next;
            }
            None => {
                // Stalled: no candidate improves this level.
                return AdjustOutcome {
                    graph: current,
                    steps,
                    first_failure_below_target: Some(level.k),
                };
            }
        }
    }
    let residual = first_failing_level(&current, below, 1).map(|l| l.k);
    AdjustOutcome {
        graph: current,
        steps,
        first_failure_below_target: residual,
    }
}

/// Attempts one accepted rewiring against the failing level. Returns the
/// improved graph and the step, or `None` if every candidate within budget
/// made things equal-or-worse.
fn try_one_adjustment(graph: &Graph, level: &KLevelResult) -> Option<(Graph, AdjustmentStep)> {
    let sets = critical_sets(graph, &level.failure_sets);
    let node_counts = involvement_counts(&sets);
    let check_counts = check_involvement_counts(&sets);
    let involved_checks: std::collections::BTreeSet<NodeId> =
        check_counts.iter().map(|&(c, _)| c).collect();

    let mut budget = CANDIDATE_BUDGET;
    // Targets: most-involved left nodes first (the paper's heuristic).
    for &(target, _) in &node_counts {
        // The target's checks, most-implicated first.
        let mut target_checks: Vec<NodeId> = graph.checks_of(target).to_vec();
        target_checks.sort_by_key(|c| {
            std::cmp::Reverse(
                check_counts
                    .iter()
                    .find(|&&(cc, _)| cc == *c)
                    .map(|&(_, n)| n)
                    .unwrap_or(0),
            )
        });
        for &from_check in &target_checks {
            // Replacements: checks of the same level, uninvolved in any
            // failure, not already wired to the target, and deeper than it.
            let level_of = graph.level_of(from_check).clone();
            for to_check in level_of.nodes() {
                if to_check == from_check
                    || involved_checks.contains(&to_check)
                    || to_check <= target
                    || graph.check_neighbors(to_check).contains(&target)
                {
                    continue;
                }
                if budget == 0 {
                    return None;
                }
                budget -= 1;

                let mut builder = graph.to_builder();
                if !builder.move_edge(target, from_check, to_check) {
                    continue;
                }
                let Ok(candidate) = builder.build() else {
                    continue;
                };
                // Accept only strict improvement with nothing worse below.
                let mut worse_below = false;
                for k in 1..level.k {
                    if search_level(&candidate, k, 1).failures > 0 {
                        worse_below = true;
                        break;
                    }
                }
                if worse_below {
                    continue;
                }
                let after = search_level(&candidate, level.k, 1).failures;
                if after < level.failures {
                    return Some((
                        candidate,
                        AdjustmentStep {
                            left: target,
                            from_check,
                            to_check,
                            failures_before: level.failures,
                            failures_after: after,
                        },
                    ));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::TornadoGenerator;
    use tornado_graph::GraphBuilder;
    use tornado_sim::{worst_case_search, WorstCaseConfig};

    /// A small graph with a planted 2-node defect that one rewiring fixes:
    /// data 0..6, checks 6..12; nodes 0,1 share checks {6,7} exactly.
    fn planted_defect() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.begin_level("c");
        b.add_check(&[0, 1]); // 6
        b.add_check(&[0, 1]); // 7
        b.add_check(&[2, 3]); // 8
        b.add_check(&[3, 4]); // 9
        b.add_check(&[4, 5]); // 10
        b.add_check(&[5, 2]); // 11
        b.build().unwrap()
    }

    #[test]
    fn repairs_a_planted_pair_defect() {
        let g = planted_defect();
        assert_eq!(
            worst_case_search(
                &g,
                &WorstCaseConfig {
                    max_k: 2,
                    ..Default::default()
                }
            )
            .first_failure(),
            Some(2)
        );
        let outcome = adjust_graph(&g, 3);
        assert!(outcome.achieved(), "steps: {:?}", outcome.steps);
        assert!(!outcome.steps.is_empty());
        let report = worst_case_search(
            &outcome.graph,
            &WorstCaseConfig {
                max_k: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.first_failure(), None, "no failures at k ≤ 2");
        outcome.graph.validate().unwrap();
    }

    #[test]
    fn already_good_graph_is_untouched() {
        let g = planted_defect();
        // Target 2 only requires surviving k = 1.
        let outcome = adjust_graph(&g, 2);
        assert!(outcome.achieved());
        assert!(outcome.steps.is_empty());
        assert_eq!(outcome.graph, g);
    }

    #[test]
    fn impossible_target_reports_stall() {
        // A mirrored pair system cannot exceed first failure 2 by rewiring
        // within its single level of single-neighbour checks.
        let g = tornado_gen::mirror::generate_mirror(4).unwrap();
        let outcome = adjust_graph(&g, 3);
        assert!(!outcome.achieved());
        assert_eq!(outcome.first_failure_below_target, Some(2));
    }

    #[test]
    fn adjusts_a_small_tornado_graph_upward() {
        // 32-node graphs keep debug-mode search cheap: C(32,3) = 4960.
        // 32-node graphs rarely clear the size-3 screen (the paper also
        // reports small graphs are the hard case); screen at 2 and let the
        // adjustment loop do the rest.
        let gen = TornadoGenerator::new(16);
        let (g, _) = tornado_gen::screened(3, 2, |s| gen.generate(s)).unwrap();
        let before = worst_case_search(
            &g,
            &WorstCaseConfig {
                max_k: 3,
                ..Default::default()
            },
        )
        .first_failure();
        let outcome = adjust_graph(&g, 4);
        let after = worst_case_search(
            &outcome.graph,
            &WorstCaseConfig {
                max_k: 3,
                ..Default::default()
            },
        )
        .first_failure();
        // Either the target was achieved, or the graph is at least no worse.
        match (before, after) {
            (Some(b), Some(a)) => assert!(a >= b, "regressed from {b} to {a}"),
            (Some(_), None) => {}
            (None, None) => {}
            (None, Some(a)) => panic!("clean graph regressed to first failure {a}"),
        }
        if outcome.achieved() {
            assert_eq!(after, None);
        }
        outcome.graph.validate().unwrap();
    }

    #[test]
    fn steps_record_strict_improvement() {
        let g = planted_defect();
        let outcome = adjust_graph(&g, 3);
        for s in &outcome.steps {
            assert!(s.failures_after < s.failures_before, "step {s:?}");
        }
    }
}
