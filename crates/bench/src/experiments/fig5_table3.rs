//! Fig. 5 + Table 3: non-Tornado and altered distributions (paper §4.3).
//!
//! Paper shape: regular single-stage graphs of degree 4 and 11 "performed
//! poorly"; the altered Tornado distributions (doubled / shifted +1) reach
//! first failure 5 but with an *earlier* average failure point than the
//! best Tornado graph (higher average-to-reconstruct: 77.41 and 75.58 vs
//! 73.77 in the paper).

use crate::effort::Effort;
use crate::harness::{graph_profile, render_figure, render_summary_table, SystemRow};
use tornado_gen::altered::{generate_doubled, generate_shifted};
use tornado_gen::regular::generate_regular;

/// Builds the comparison rows.
pub(crate) fn rows(effort: &Effort) -> Vec<SystemRow> {
    let mut rows = Vec::new();
    for degree in [4u32, 11] {
        let g = generate_regular(48, degree, effort.seed).expect("regular generation");
        rows.push(SystemRow {
            label: format!("Regular - Degree = {degree}"),
            profile: graph_profile(&g, effort),
            num_data: 48,
        });
    }
    let (doubled, _) = tornado_gen::screened(effort.seed, 3, |s| generate_doubled(48, s))
        .expect("doubled generation");
    rows.push(SystemRow {
        label: "Altered Tornado (dist. doubled)".into(),
        profile: graph_profile(&doubled, effort),
        num_data: 48,
    });
    let (shifted, _) = tornado_gen::screened(effort.seed, 3, |s| generate_shifted(48, s))
        .expect("shifted generation");
    rows.push(SystemRow {
        label: "Altered Tornado (dist. shifted)".into(),
        profile: graph_profile(&shifted, effort),
        num_data: 48,
    });
    let best = tornado_core::tornado_graph_3();
    rows.push(SystemRow {
        label: "Tornado Graph 3 (best)".into(),
        profile: graph_profile(&best, effort),
        num_data: 48,
    });
    rows
}

/// Runs the experiment and renders both artefacts.
pub(crate) fn run(effort: &Effort) -> String {
    let rows = rows(effort);
    let mut out = render_figure(
        "Figure 5 — failure fraction: Tornado vs regular and altered graphs",
        &rows,
    );
    out.push('\n');
    out.push_str(&render_summary_table(
        "Table 3 — regular and altered graph families",
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_sampling_window;

    #[test]
    fn altered_families_have_later_average_failure_than_best_tornado() {
        // "Altering Tornado Code graphs by increasing the connectivity
        // generally increased the first failure but with the penalty of an
        // earlier average failure point" — i.e. a *larger* average number
        // of nodes needed to reconstruct than the best graph (77.41/75.58
        // vs 73.77 in Table 3).
        let rows = rows(&Effort::smoke());
        let avg = |label: &str| {
            let r = rows.iter().find(|r| r.label.contains(label)).unwrap();
            r.profile
                .average_online_given_success(paper_sampling_window(96))
        };
        let best = avg("best");
        assert!(
            avg("doubled") > best,
            "doubled {} vs best {best}",
            avg("doubled")
        );
        // Regular degree-11 is far worse than the best Tornado graph.
        assert!(avg("Degree = 11") > best);
    }
}
