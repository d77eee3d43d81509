//! Shared measurement and report-formatting helpers.

use crate::effort::Effort;
use std::fmt::Write as _;
use std::time::Instant;
use tornado_graph::Graph;
use tornado_obs::Json;
use tornado_sim::{hybrid_profile, FailureProfile};

/// What one experiment hands back: the printable report, and — for the
/// experiments whose numbers are committed as `BENCH_<name>.json` — the
/// same measurement as data.
pub struct Report {
    /// The finished report text (also suitable for EXPERIMENTS.md).
    pub text: String,
    /// The measurement, for [`envelope`]; `None` for text-only experiments.
    pub data: Option<Json>,
}

impl From<String> for Report {
    fn from(text: String) -> Self {
        Self { text, data: None }
    }
}

/// Schema tag of every `BENCH_<name>.json`.
pub(crate) const SCHEMA: &str = "tornado-bench-v1";

/// `"debug"` or `"release"`: timings from a debug build mean nothing, so
/// every document says which it came from.
pub fn build_mode() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// A JSON object from literal keys, in order.
pub(crate) fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `v` rounded to `decimals` places, so committed files diff in the digits
/// that were measured rather than in seventeen.
pub(crate) fn num(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::F64((v * scale).round() / scale)
}

/// Renders flat row objects as a report's CSV block — a header line from
/// the first row's keys, then one line of values per row — so an
/// experiment builds its rows once, for the text and for the data.
pub(crate) fn csv(rows: &[Json]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else { continue };
        if i == 0 {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let _ = writeln!(out, "{}", keys.join(", "));
        }
        let cells: Vec<String> = fields
            .iter()
            .map(|(_, v)| v.as_str().map_or_else(|| v.to_line(), str::to_string))
            .collect();
        let _ = writeln!(out, "{}", cells.join(", "));
    }
    out
}

/// Where `bench`'s enveloped data is committed: `BENCH_<bench>.json` at the
/// repository root, two levels above this crate.
pub fn bench_file(bench: &str) -> String {
    format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Wraps one experiment's `data` in the one envelope every
/// `BENCH_<name>.json` shares: what was measured, by which build, at what
/// effort, on how many CPUs.
pub fn envelope(bench: &str, effort: &Effort, data: Json) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("bench", Json::Str(bench.into())),
        ("mode", Json::Str(build_mode().into())),
        (
            "effort",
            obj([
                ("mc_trials", Json::U64(effort.mc_trials)),
                (
                    "exhaustive_max_k",
                    Json::U64(effort.exhaustive_max_k as u64),
                ),
                ("seed", Json::U64(effort.seed)),
                ("quick", Json::Bool(effort.quick)),
            ]),
        ),
        ("cpus", Json::U64(cpus as u64)),
        ("data", data),
    ])
}

/// Median ns per inner iteration of `f` (which must run `batch` iterations
/// per call), over `samples` timed calls after one warmup call.
pub(crate) fn median_ns(batch: u64, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: touch caches, fault pages, warm the pools
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut per_iter)
}

/// Median of `v` (upper of the middle two when even), sorting it.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The paper's hybrid profile ([`hybrid_profile`]) at `effort`: exact to
/// `exhaustive_max_k`, `mc_trials` a level above.
pub(crate) fn graph_profile(graph: &Graph, effort: &Effort) -> FailureProfile {
    hybrid_profile(
        graph,
        effort.exhaustive_max_k,
        effort.mc_trials,
        effort.seed,
    )
}

/// The worst-case failure cell for the paper's tables: the first
/// exhaustively certified failing level, or `">D"` when all exact levels
/// (depth `D`) are clean — sampled rows cannot resolve the ~10⁻⁷ failure
/// fractions the worst-case column is about.
pub(crate) fn first_failure_cell(profile: &FailureProfile) -> String {
    match profile.first_failure_exact() {
        Some(k) => k.to_string(),
        None => format!(">{}", profile.max_exact_k()),
    }
}

/// One labelled system in a figure/table.
pub(crate) struct SystemRow {
    /// Display label.
    pub label: String,
    /// Its failure profile.
    pub profile: FailureProfile,
    /// Data nodes (for overhead normalisation).
    pub num_data: usize,
}

/// Renders a Fig. 3/4/5/6-style series block: for each system, the fraction
/// of failed reconstructions by number of missing nodes (CSV-ish, one
/// series per system).
pub(crate) fn render_figure(title: &str, rows: &[SystemRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "# series: k, fraction_failed (one block per system)");
    for row in rows {
        let _ = writeln!(out, "## {}", row.label);
        for e in row.profile.entries() {
            if e.k > 0 && e.trials > 0 {
                // Scientific notation: exact rows resolve fractions down to
                // ~10⁻⁸ (13 failures in 61 M cases must not print as zero).
                let _ = writeln!(out, "{}, {:.4e}", e.k, e.fraction());
            }
        }
    }
    out
}

/// The paper's Monte-Carlo sampling window for 96-node systems: offline
/// counts from 5 (above the exhaustively searched worst-case regime) to 48
/// (half the devices). Scaled proportionally for other sizes.
pub(crate) fn paper_sampling_window(num_nodes: usize) -> std::ops::RangeInclusive<usize> {
    let lo = (num_nodes * 5 / 96).max(1);
    let hi = (num_nodes / 2).max(lo);
    lo..=hi
}

/// Renders a Table 1/2/3/4-style summary: first failure and the paper's
/// "average number of nodes capable of reconstructing the data" (mean
/// online nodes over successful trials in the sampling window), with the
/// ratio to the data-node count in parentheses, as the paper prints it.
pub(crate) fn render_summary_table(title: &str, rows: &[SystemRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<36} {:>13} {:>24}",
        "System", "First Failure", "Avg to Reconstruct"
    );
    for row in rows {
        let avg = row
            .profile
            .average_online_given_success(paper_sampling_window(row.profile.num_nodes()));
        let _ = writeln!(
            out,
            "{:<36} {:>13} {:>17.2} ({:.2})",
            row.label,
            first_failure_cell(&row.profile),
            avg,
            avg / row.num_data as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::mirror::generate_mirror;

    #[test]
    fn graph_profile_combines_exact_and_sampled_rows() {
        let g = generate_mirror(4).unwrap();
        let p = graph_profile(&g, &Effort::smoke());
        assert!(p.entry(1).exact);
        assert!(p.entry(2).exact);
        assert!(!p.entry(3).exact);
        assert_eq!(p.entry(3).trials, 200);
        assert_eq!(p.first_failure(), Some(2));
    }

    #[test]
    fn figure_and_table_render() {
        let g = generate_mirror(4).unwrap();
        let p = graph_profile(&g, &Effort::smoke());
        let rows = vec![SystemRow {
            label: "Mirrored".into(),
            profile: p,
            num_data: 4,
        }];
        let fig = render_figure("Figure X", &rows);
        assert!(fig.contains("# Figure X"));
        assert!(fig.contains("## Mirrored"));
        assert!(fig.lines().count() > 8);
        let table = render_summary_table("Table X", &rows);
        assert!(table.contains("Mirrored"));
        assert!(table.contains("First Failure"));
        assert!(table.contains('2'), "mirror first failure");
    }
}
