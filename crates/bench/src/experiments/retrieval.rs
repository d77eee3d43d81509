//! Guided retrieval ablation (paper §5.2 discussion and §6 future work).
//!
//! "We plan on examining several guided search techniques to minimize the
//! number of devices accessed to reconstruct an encoded stripe." This
//! experiment implements and measures that idea: for increasing numbers of
//! failed devices, how many blocks does a `get` touch under (a) naive
//! fetch-everything-available and (b) the pruned-schedule planner?

use crate::effort::Effort;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use tornado_graph::NodeId;
use tornado_store::retrieval::{plan_fetch_all, plan_retrieval};

/// Runs the ablation over the catalog's first graph.
pub(crate) fn run(effort: &Effort) -> String {
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let trials = (effort.mc_trials / 100).clamp(20, 2_000);
    let mut rng = SmallRng::seed_from_u64(effort.seed);
    let mut out = String::new();
    let _ = writeln!(out, "# Guided retrieval ablation — blocks fetched per get");
    let _ = writeln!(
        out,
        "k_failed, trials, planned_avg, naive_avg, planned/naive, unrecoverable"
    );
    let mut perm: Vec<usize> = (0..n).collect();
    for k in [0usize, 2, 4, 8, 12, 16, 24, 32, 40] {
        let mut planned_total = 0usize;
        let mut naive_total = 0usize;
        let mut decodable = 0u64;
        let mut unrecoverable = 0u64;
        for _ in 0..trials {
            for i in 0..k {
                let j = rng.gen_range(i..n);
                perm.swap(i, j);
            }
            let missing = &perm[..k];
            let available: Vec<NodeId> = (0..n as NodeId)
                .filter(|v| !missing.contains(&(*v as usize)))
                .collect();
            match plan_retrieval(&graph, &available) {
                Some(plan) => {
                    planned_total += plan.blocks_fetched();
                    naive_total += plan_fetch_all(&graph, &available)
                        .expect("plan exists")
                        .blocks_fetched();
                    decodable += 1;
                }
                None => unrecoverable += 1,
            }
        }
        if decodable > 0 {
            let planned = planned_total as f64 / decodable as f64;
            let naive = naive_total as f64 / decodable as f64;
            let _ = writeln!(
                out,
                "{k}, {trials}, {planned:.1}, {naive:.1}, {:.2}, {unrecoverable}",
                planned / naive
            );
        } else {
            let _ = writeln!(out, "{k}, {trials}, -, -, -, {unrecoverable}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_beats_naive_on_healthy_and_degraded_stripes() {
        let report = run(&Effort::smoke());
        // The healthy row must show 48 planned vs 96 naive = ratio 0.50.
        let healthy = report
            .lines()
            .find(|l| l.starts_with("0,"))
            .expect("healthy row");
        assert!(healthy.contains("48.0, 96.0, 0.50"), "row: {healthy}");
    }
}
