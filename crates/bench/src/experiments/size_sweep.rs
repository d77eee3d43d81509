//! Graph-size sweep (Plank's finite-size observation, paper §2.1/§3).
//!
//! "Plank concludes that LDPC codes demonstrate their least favorable
//! overhead for graphs containing between 10 and 100 nodes" — which is why
//! the paper calls its 96-node stripes "an appropriate lower bound". This
//! sweep measures both overhead metrics across total graph sizes from 32
//! to 256 nodes; the expected shape is overhead *decreasing* towards the
//! asymptotic regime as graphs grow.

use crate::effort::Effort;
use crate::experiments::plank_overhead::plank_cells;
use std::fmt::Write as _;
use tornado_gen::TornadoGenerator;

/// Data-node counts swept (total nodes are double these).
pub(crate) const SIZES: [usize; 5] = [16, 32, 48, 96, 128];

/// Runs the sweep.
pub(crate) fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Size sweep — incremental overhead vs graph size, {} trials",
        effort.mc_trials
    );
    let _ = writeln!(out, "total_nodes, mean_blocks, overhead, min, max");
    for &num_data in &SIZES {
        let gen = TornadoGenerator::new(num_data);
        let graph = match tornado_gen::screened(effort.seed, 2, |s| gen.generate(s)) {
            Ok((g, _)) => g,
            Err(e) => {
                let _ = writeln!(out, "{}, generation failed: {e}", 2 * num_data);
                continue;
            }
        };
        let _ = writeln!(
            out,
            "{}, {}",
            graph.num_nodes(),
            plank_cells(&graph, effort)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_improves_with_size() {
        let report = run(&Effort::smoke());
        let overhead = |nodes: usize| -> f64 {
            report
                .lines()
                .find(|l| l.starts_with(&format!("{nodes},")))
                .and_then(|l| l.split(", ").nth(2))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("row for {nodes} missing:\n{report}"))
        };
        // The asymptotic trend: 256-node graphs beat 32-node graphs.
        assert!(
            overhead(256) < overhead(32),
            "{} !< {}",
            overhead(256),
            overhead(32)
        );
        for &d in &SIZES {
            assert!(overhead(2 * d) >= 1.0, "overhead below MDS bound at {d}");
        }
    }
}
