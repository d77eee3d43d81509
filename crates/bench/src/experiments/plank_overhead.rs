//! Incremental-retrieval overhead (Plank's metric; paper §5.2/§6).
//!
//! The literature the paper cites reports LDPC overheads below 1.2 when
//! measured by retrieving blocks until reconstruction first succeeds. The
//! paper's own Table 6 number (1.27–1.29) is deliberately *not* that
//! metric; this experiment computes the literature's version for the
//! catalog graphs so both are on record. Measured: ≈ 1.29 for the Tornado
//! graphs; 1.0 only for an MDS code.
//!
//! No retrieval loop runs: each Monte-Carlo trial is one failure order read
//! at every level, and retrieving it backwards first reconstructs after as
//! many blocks as the trial has failing levels. Plank's mean is therefore
//! the fixed-count profile's success-threshold mean
//! ([`average_nodes_to_reconstruct`](tornado_sim::FailureProfile::average_nodes_to_reconstruct))
//! over one pass of every `k = 1..=n`, and its range is
//! [`nodes_to_reconstruct_range`](tornado_sim::FailureProfile::nodes_to_reconstruct_range).

use crate::effort::Effort;
use std::fmt::Write as _;
use tornado_graph::Graph;
use tornado_sim::{monte_carlo_profile, MonteCarloConfig};

/// Runs the measurement for each catalog graph.
pub(crate) fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Incremental-retrieval overhead (Plank's metric), {} trials",
        effort.mc_trials
    );
    let _ = writeln!(out, "system, mean_blocks, overhead, min, max");
    for (label, graph) in tornado_core::catalog::all() {
        let _ = writeln!(out, "{label}, {}", plank_cells(&graph, effort));
    }
    out
}

/// `mean_blocks, overhead, min, max` for `graph`, read off one
/// `monte_carlo_profile` pass of every level at `effort.mc_trials`.
pub(crate) fn plank_cells(graph: &Graph, effort: &Effort) -> String {
    let profile = monte_carlo_profile(
        graph,
        &MonteCarloConfig {
            trials_per_k: effort.mc_trials,
            seed: effort.seed,
            ks: None,
        },
    );
    let mean = profile.average_nodes_to_reconstruct();
    let range = profile
        .nodes_to_reconstruct_range()
        .expect("every sampled trial fails with every node lost");
    format!(
        "{mean:.2}, {:.4}, {}, {}",
        mean / graph.num_data() as f64,
        range.start(),
        range.end()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_land_in_the_literature_band() {
        let report = run(&Effort::smoke());
        for line in report.lines().filter(|l| l.starts_with("Tornado")) {
            let overhead: f64 = line
                .split(", ")
                .nth(2)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("bad row: {line}"));
            assert!(
                (1.0..1.6).contains(&overhead),
                "overhead {overhead} outside plausible band: {line}"
            );
        }
    }
}
