//! Fig. 4 + Table 2: the effect of defect screening and feedback
//! adjustment (paper §4.2).
//!
//! Paper shape: "the worst initial prototype graphs without any form of
//! defect detection failed at two nodes, but the introduction of defect
//! detection increased the first failure for new graphs to four nodes. The
//! feedback-based graph adjustment procedure was able to increase the
//! fault tolerance of the graphs by one more node" — i.e. 2-ish → 4 → 5.

use crate::effort::Effort;
use crate::harness::{graph_profile, render_figure, render_summary_table, SystemRow};
use tornado_analysis::adjust_graph;
use tornado_gen::TornadoGenerator;

/// Builds the three stages of one graph lineage: raw (first random graph,
/// no screening), screened, and screened + adjusted.
pub(crate) fn rows(effort: &Effort) -> Vec<SystemRow> {
    let gen = TornadoGenerator::new(48);
    // "Raw": scan seeds for the first *defective* random graph so the row
    // shows what unscreened generation risks (the paper's two-node
    // failures).
    let raw = (0..512u64)
        .map(|s| gen.generate(effort.seed ^ s).expect("generation"))
        .find(|g| tornado_gen::defects::screen(g, 3).is_err())
        .expect("defective random graphs occur well within 512 seeds");
    let (screened, _) =
        tornado_gen::screened(effort.seed, 3, |s| gen.generate(s)).expect("screened generation");
    // The adjustment target tracks the exhaustive depth so the smoke
    // configuration stays affordable, capped at the paper's target of 5 —
    // the paper found 6 unreachable ("insufficient candidates for
    // replacement were available"), and every candidate evaluation at
    // target 6 costs a C(96,5) sweep.
    let adjusted = adjust_graph(&screened, (effort.exhaustive_max_k + 1).min(5)).graph;

    vec![
        SystemRow {
            label: "Prototype (no defect detection)".into(),
            profile: graph_profile(&raw, effort),
            num_data: 48,
        },
        SystemRow {
            label: "Screened (defect detection)".into(),
            profile: graph_profile(&screened, effort),
            num_data: 48,
        },
        SystemRow {
            label: "Screened + adjusted (§3.3)".into(),
            profile: graph_profile(&adjusted, effort),
            num_data: 48,
        },
    ]
}

/// Runs the experiment and renders both artefacts.
pub(crate) fn run(effort: &Effort) -> String {
    let rows = rows(effort);
    let mut out = render_figure(
        "Figure 4 — failure fraction: unadjusted vs screened vs adjusted Tornado graphs",
        &rows,
    );
    out.push('\n');
    out.push_str(&render_summary_table(
        "Table 2 — effect of defect detection and adjustment",
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screening_strictly_helps_at_small_k() {
        let rows = rows(&Effort::smoke());
        let raw_ff = rows[0].profile.first_failure();
        // The deliberately defective graph fails within the screened sizes.
        assert!(matches!(raw_ff, Some(k) if k <= 3), "raw: {raw_ff:?}");
        // Screened graphs never fail at k ≤ 2 (smoke exhaustive depth).
        let scr_ff = rows[1].profile.first_failure();
        assert!(
            scr_ff.is_none() || scr_ff.unwrap() > 2,
            "screened: {scr_ff:?}"
        );
    }
}
