//! Prometheus-style text exposition of JSON documents.
//!
//! [`render_flat`] turns any document built on the in-repo JSON model —
//! the `tornado-health-v1` document is the one caller, `tornado health
//! --prometheus` — into the Prometheus text format by flattening it: every
//! numeric leaf becomes a gauge named by its sanitized path, so a new
//! field in the document is a new series with no renderer change.

use crate::json::Json;
use std::fmt::Write as _;

/// Renders any JSON document as flattened gauges under `prefix`: numeric
/// leaves only, path segments joined with `_`. Booleans render as 0/1;
/// strings and arrays are skipped (identity, not telemetry).
pub fn render_flat(prefix: &str, doc: &Json) -> String {
    let mut out = String::new();
    flatten(&mut out, prefix, doc);
    out
}

fn flatten(out: &mut String, path: &str, v: &Json) {
    match v {
        Json::Obj(fields) => {
            for (k, v) in fields {
                flatten(out, &metric_name(path, k), v);
            }
        }
        Json::U64(_) | Json::I64(_) | Json::F64(_) => {
            let n = v.as_f64().unwrap();
            let _ = writeln!(out, "# TYPE {path} gauge\n{path} {}", fmt_f64(n));
        }
        Json::Bool(b) => {
            let _ = writeln!(out, "# TYPE {path} gauge\n{path} {}", *b as u8);
        }
        _ => {}
    }
}

/// Joins and sanitizes into a legal Prometheus metric name: every
/// character outside `[a-zA-Z0-9_:]` becomes `_` (dots included), and a
/// leading digit gains a `_` guard.
fn metric_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    out.push_str(prefix);
    if !prefix.is_empty() {
        out.push('_');
    }
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_rendering_walks_nested_documents() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("tornado-health-v1".into())),
            (
                "reliability".into(),
                Json::Obj(vec![
                    ("p_loss".into(), Json::F64(1e-5)),
                    ("mttdl_hours".into(), Json::F64(250.5)),
                ]),
            ),
            (
                "margins".into(),
                Json::Obj(vec![("min_margin".into(), Json::U64(2))]),
            ),
            ("firing".into(), Json::Bool(true)),
        ]);
        let text = render_flat("tornado_health", &doc);
        assert!(text.contains("tornado_health_reliability_p_loss 0.00001\n"));
        assert!(text.contains("tornado_health_reliability_mttdl_hours 250.5\n"));
        assert!(text.contains("# TYPE tornado_health_margins_min_margin gauge"));
        assert!(text.contains("tornado_health_firing 1\n"));
        assert!(!text.contains("schema"), "strings are not series");
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            metric_name("tornado", "scrub.cycle_us"),
            "tornado_scrub_cycle_us"
        );
        assert_eq!(metric_name("", "9lives"), "_9lives");
        assert_eq!(metric_name("t", "a-b c"), "t_a_b_c");
    }
}
