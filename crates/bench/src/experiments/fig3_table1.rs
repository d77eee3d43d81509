//! Fig. 3 + Table 1: RAID and mirrored systems vs the best Tornado graphs
//! (paper §4.1).
//!
//! Paper shape to reproduce: mirrored fails from k = 2, RAID5 from 2,
//! RAID6 from 3, while the Tornado graphs survive any four losses and fail
//! only a dozen-odd times in 61 M cases at k = 5. The Tornado failure
//! fraction stays below the alternatives through the transition region.

use crate::effort::Effort;
use crate::harness::{graph_profile, render_figure, render_summary_table, SystemRow};
use tornado_analysis::analytic::GroupSystem;
use tornado_sim::mirror::mirrored_profile;

/// Builds the system rows shared by the figure and the table.
pub(crate) fn rows(effort: &Effort) -> Vec<SystemRow> {
    let mut rows = vec![
        SystemRow {
            label: "Mirrored (RAID 10)".into(),
            profile: mirrored_profile(48),
            num_data: 48,
        },
        SystemRow {
            label: "RAID5 (8x12)".into(),
            profile: GroupSystem::raid5_paper().profile(),
            num_data: 88,
        },
        SystemRow {
            label: "RAID6 (8x12)".into(),
            profile: GroupSystem::raid6_paper().profile(),
            num_data: 80,
        },
    ];
    for (label, graph) in tornado_core::catalog::all() {
        rows.push(SystemRow {
            label: label.into(),
            profile: graph_profile(&graph, effort),
            num_data: graph.num_data(),
        });
    }
    rows
}

/// Runs the experiment and renders both artefacts.
pub(crate) fn run(effort: &Effort) -> String {
    let rows = rows(effort);
    let mut out = render_figure(
        "Figure 3 — fraction reconstruction failure by missing nodes (96-device systems)",
        &rows,
    );
    out.push('\n');
    out.push_str(&render_summary_table(
        "Table 1 — first failure and average nodes to reconstruct",
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_ordering() {
        // Smoke effort still reproduces the qualitative result because the
        // RAID/mirror rows are analytic and the Tornado rows are exhaustive
        // at k ≤ 2.
        let rows = rows(&Effort::smoke());
        let first = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap()
                .profile
                .first_failure()
        };
        assert_eq!(first("Mirrored"), Some(2));
        assert_eq!(first("RAID5"), Some(2));
        assert_eq!(first("RAID6"), Some(3));
        // Tornado graphs: no failures at the smoke-tested exhaustive depth.
        for r in rows.iter().filter(|r| r.label.starts_with("Tornado")) {
            let ff = r.profile.first_failure();
            assert!(ff.is_none() || ff.unwrap() > 2, "{}: {ff:?}", r.label);
        }
    }
}
