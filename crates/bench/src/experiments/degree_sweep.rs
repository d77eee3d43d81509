//! Connectivity trade-off ablation (extends paper §4.3).
//!
//! The paper samples fixed cascade degrees 3, 4 and 6; this ablation sweeps
//! 2–8 to chart the full trade-off it describes: "Increasing the
//! connectivity initially increases the tolerance to failure … However,
//! with too much connectivity, right nodes become incapable of assisting
//! with reconstruction."

use crate::effort::Effort;
use crate::harness::{first_failure_cell, graph_profile, paper_sampling_window};
use std::fmt::Write as _;
use tornado_gen::cascaded::generate_fixed_degree;

/// Runs the sweep.
pub(crate) fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Degree sweep — fixed-degree cascades, 96 nodes (screened)"
    );
    let _ = writeln!(
        out,
        "degree, first_failure, avg_to_reconstruct, overhead_at_half"
    );
    for degree in 2u32..=8 {
        let g =
            match tornado_gen::screened(effort.seed, 3, |s| generate_fixed_degree(48, degree, s)) {
                Ok((g, _)) => g,
                Err(e) => {
                    let _ = writeln!(out, "{degree}, generation failed: {e}");
                    continue;
                }
            };
        let profile = graph_profile(&g, effort);
        let avg = profile.average_online_given_success(paper_sampling_window(96));
        let overhead = profile
            .overhead_at_half(48)
            .expect("a full complement of nodes always reconstructs");
        let _ = writeln!(
            out,
            "{degree}, {}, {avg:.2}, {overhead:.2}",
            first_failure_cell(&profile),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_degrees() {
        let report = run(&Effort::smoke());
        for degree in 2..=8 {
            assert!(
                report.lines().any(|l| l.starts_with(&format!("{degree},"))),
                "degree {degree} missing:\n{report}"
            );
        }
    }
}
