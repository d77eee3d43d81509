//! Table 5: theoretical probability of data loss for 96-disk systems at
//! AFR 0.01 with no repair (paper §5.1).
//!
//! Paper values to reproduce in shape: striping 0.61895, RAID5 0.04834,
//! RAID6 0.00164, mirrored 0.00479 (all exact here, so they match to
//! rounding), and Tornado graphs around 10⁻⁹ — five to seven orders of
//! magnitude below every alternative.

use crate::effort::Effort;
use crate::harness::graph_profile;
use std::fmt::Write as _;
use tornado_analysis::reliability::{comparator_rows, system_failure_probability, ReliabilityRow};

/// The modelled annual failure rate (paper §5.1).
pub(crate) const AFR: f64 = 0.01;

/// The Tornado rows sample each level at this many times `mc_trials`. Their
/// sums lean on the rare failures just past the exhaustive depth, and a
/// profile's sampled rows share their trials, so a sum is noisier than a
/// row; at ×10 the table costs no more than when every level drew trials
/// of its own, and its seed-to-seed spread is narrower (EXPERIMENTS_LOG.md,
/// "One failure order a trial").
pub(crate) const TRIALS_FACTOR: u64 = 10;

/// Computes every Table 5 row.
pub(crate) fn rows(effort: &Effort) -> Vec<ReliabilityRow> {
    let mut rows = comparator_rows(AFR);
    let sampled = Effort {
        mc_trials: effort.mc_trials.saturating_mul(TRIALS_FACTOR),
        ..*effort
    };
    for (label, graph) in tornado_core::catalog::all() {
        let profile = graph_profile(&graph, &sampled);
        rows.push(ReliabilityRow {
            system: label.into(),
            data_devices: 48,
            parity_devices: 48,
            p_fail: system_failure_probability(&profile, AFR),
        });
    }
    rows
}

/// Runs the experiment and renders the table.
pub(crate) fn run(effort: &Effort) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 5 — P(fail) for 96-disk systems, AFR = {AFR}, no repair"
    );
    let _ = writeln!(
        out,
        "# Tornado rows: exact to k = {}, {} trials a level above",
        effort.exhaustive_max_k,
        effort.mc_trials.saturating_mul(TRIALS_FACTOR)
    );
    let _ = writeln!(
        out,
        "{:<20} {:>5} {:>7} {:>12}",
        "System", "Data", "Parity", "P(fail)"
    );
    for r in rows(effort) {
        let _ = writeln!(
            out,
            "{:<20} {:>5} {:>7} {:>12}",
            r.system,
            r.data_devices,
            r.parity_devices,
            r.formatted_p_fail()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_rows_match_paper_to_rounding() {
        let rows = rows(&Effort::smoke());
        let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap().p_fail;
        assert!((get("Striping") - 0.61895).abs() < 5e-5);
        assert!((get("RAID5") - 0.04834).abs() < 5e-5);
        assert!((get("RAID6") - 0.00164).abs() < 5e-5);
        assert!((get("Mirrored") - 0.00479).abs() < 5e-5);
        assert_eq!(get("Individual Disk"), 0.01);
    }

    /// EXPERIMENTS.md's published Tornado rows, graph by graph, against the
    /// certified lower bound Σₖ countₖ · pᵏ(1 − p)^(96−k) of `PROVENANCE.txt`'s
    /// exhaustive k = 5 and k = 6 failure counts: a sampled row may sit
    /// above its bound, never below it.
    #[test]
    fn published_tornado_rows_are_above_their_certified_bounds() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
        let provenance =
            std::fs::read_to_string(format!("{root}/crates/core/assets/PROVENANCE.txt")).unwrap();
        let table = doc
            .split("## Table 5")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("EXPERIMENTS.md has a Table 5 section");
        let count = |line: &str, k: &str| -> f64 {
            let (_, tail) = line.split_once(&format!("{k} failures ")).unwrap();
            tail.split('/').next().unwrap().parse().unwrap()
        };
        for graph in 1..=3 {
            let row = table
                .lines()
                .find(|l| l.starts_with(&format!("| Tornado Graph {graph} |")))
                .unwrap_or_else(|| panic!("no Table 5 row for graph {graph}"));
            let measured: f64 = row.split('|').nth(3).unwrap().trim().parse().unwrap();
            let line = provenance
                .lines()
                .find(|l| l.starts_with(&format!("graph {graph}:")))
                .unwrap();
            let bound: f64 = [(5, count(line, "k5")), (6, count(line, "k6"))]
                .iter()
                .map(|&(k, c)| c * AFR.powi(k) * (1.0 - AFR).powi(96 - k))
                .sum();
            assert!(
                measured >= bound,
                "Tornado Graph {graph}: published {measured:e} below its certified bound {bound:e}"
            );
        }
    }

    #[test]
    fn tornado_rows_beat_every_alternative() {
        // Even at smoke fidelity (exhaustive only to k = 2, noisy MC above)
        // the Tornado graphs must land far below RAID6.
        let rows = rows(&Effort::smoke());
        let raid6 = rows.iter().find(|r| r.system == "RAID6").unwrap().p_fail;
        for r in rows.iter().filter(|r| r.system.starts_with("Tornado")) {
            assert!(
                r.p_fail < raid6,
                "{} p_fail {} not below RAID6 {raid6}",
                r.system,
                r.p_fail
            );
        }
    }
}
