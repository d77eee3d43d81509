//! The metrics catalogue: every name a METRICS or `load --metrics`
//! document can carry, with its kind, unit, layer and meaning.
//!
//! Nothing here lists a metric: [`catalogue`] concatenates the rows of
//! every `metric_set!` declaration in the workspace. `tests/catalogue.rs`
//! holds both ends to it: a live server's METRICS names and kinds equal
//! these rows, and the table in DESIGN.md equals [`render_markdown`].

use crate::health::HealthMetrics;
use crate::load::LoadMetrics;
use crate::obs::{Derived, LoopStats, ServerMetrics};
use tornado_codec::kernels::KernelMetrics;
use tornado_codec::pool::PoolMetrics;
use tornado_codec::DecodeMetrics;
use tornado_obs::set::Desc;
use tornado_obs::{Json, MetricSet};
use tornado_store::backend::BackendMetrics;
use tornado_store::{DeviceTotals, StoreMetrics};

/// Every declared metric, set by set. All but the `load` layer are a
/// server's; `health` rows are exported only with the observatory on.
pub fn catalogue() -> Vec<&'static Desc> {
    [
        ServerMetrics::DESCS,
        Derived::DESCS,
        LoopStats::DESCS,
        HealthMetrics::DESCS,
        StoreMetrics::DESCS,
        DecodeMetrics::DESCS,
        DeviceTotals::DESCS,
        BackendMetrics::DESCS,
        KernelMetrics::DESCS,
        PoolMetrics::DESCS,
        LoadMetrics::DESCS,
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// What moves a layer's metrics: all of a layer are written from one place.
fn moved_by(layer: &str) -> &'static str {
    match layer {
        "server" => "`serve`",
        "trace" => "`serve --trace-sample N`",
        "health" => "`serve` (absent with `--no-health`)",
        "scrub" | "repair" => "a `Scrubber` over the store (`tornado scrub`); **not `serve`**",
        "decode" => {
            "a `Scrubber`'s repairs; `worst-case` / `monte-carlo --metrics`; **not `serve`**"
        }
        "device" => "`serve`: block reads and writes, fail / revive",
        "backend" => "`serve --data-dir`: durable PUT / DELETE, recovery-on-open",
        "kernel" | "pool" => "`serve`: PUT encode, block verification, degraded-GET decode",
        "load" => "`tornado load --metrics`",
        _ => "",
    }
}

/// The catalogue as the Markdown table DESIGN.md carries between its
/// `metrics-catalogue` markers.
pub fn render_markdown() -> String {
    let mut out = String::from(
        "| name | kind | unit | layer | meaning | moved by |\n|---|---|---|---|---|---|\n",
    );
    for d in catalogue() {
        let sampled = if d.sampled {
            " Sampled into the time series."
        } else {
            ""
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {}{sampled} | {} |\n",
            d.name,
            d.kind,
            d.unit,
            d.layer(),
            d.help,
            moved_by(d.layer()),
        ));
    }
    out
}

/// Checks a `tornado-metrics-v1` document's metric names against the
/// catalogue: every name under `counters` / `gauges` / `histograms` must be
/// declared, with the kind of the section it sits in; so must those of a
/// load snapshot's embedded `server` document. The error names each offender.
pub fn check_snapshot(doc: &Json) -> Result<(), String> {
    let rows = catalogue();
    let mut offenders = Vec::new();
    for doc in [Some(doc), doc.get("server")].into_iter().flatten() {
        for section in ["counters", "gauges", "histograms"] {
            let Some(Json::Obj(entries)) = doc.get(section) else {
                continue;
            };
            for (name, _) in entries {
                match rows.iter().find(|d| d.name == name).map(|d| d.kind) {
                    None => offenders.push(format!("'{name}' is not in the catalogue")),
                    Some(kind) if section.strip_suffix('s') != Some(kind) => {
                        offenders.push(format!("'{name}' is a {kind} filed under '{section}'"))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(offenders.join("; "))
    }
}
