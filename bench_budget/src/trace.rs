//! The traced run: the server's own span tree, parented under the
//! benchmark's `client.roundtrip` spans, and the self time of every layer.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans cover. Summed over a request's tree the self times make up the
//! client-observed latency, which is what lets a saving be located.

use crate::served::ClientSpan;
use std::collections::HashMap;
use tornado_obs::SpanRecord;

/// Span ids of client spans start here; the server's count up from 1.
const CLIENT_SPAN_BASE: u64 = 1 << 62;

/// The server spans whose mean self time is reported, with the metric that
/// carries each.
pub const REPORTED_SPANS: [(&str, &str); 9] = [
    ("frame.decode", "trace.frame_decode_self_us"),
    ("queue.wait", "trace.queue_wait_self_us"),
    ("execute", "trace.execute_self_us"),
    ("store.put", "trace.store_put_self_us"),
    ("store.get", "trace.store_get_self_us"),
    ("retrieval.plan", "trace.retrieval_plan_self_us"),
    ("store.fetch", "trace.store_fetch_self_us"),
    ("decode.recover", "trace.decode_recover_self_us"),
    ("request", "trace.request_self_us"),
];
pub const CLIENT_UNATTRIBUTED: &str = "trace.client_unattributed_us";

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// The merged span tree and what it says about where time went.
pub struct Attribution {
    /// Every server span of a traced op, `request` roots re-parented, plus
    /// one `client.roundtrip` root per op.
    pub merged: Vec<SpanRecord>,
    /// Mean self time per op, microseconds, by metric name
    /// ([`REPORTED_SPANS`] and [`CLIENT_UNATTRIBUTED`]).
    pub self_us: Vec<(&'static str, f64)>,
    /// Client spans that found no server `request` span (must be 0).
    pub unmatched: usize,
}

/// Parents each server `request` span under the client span with the same
/// trace id and computes mean self times over `client_spans.len()` ops.
pub fn attribute(server: Vec<SpanRecord>, client_spans: &[ClientSpan]) -> Attribution {
    // A client span encloses its server `request` span by construction (one
    // clock, the call brackets the request); widening it by the microsecond
    // that rounding can cost keeps the merged tree strictly nested.
    let mut client_spans = client_spans.to_vec();
    let index_of: HashMap<u64, usize> = client_spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.trace_id, i))
        .collect();
    let client_id = |i: usize| CLIENT_SPAN_BASE + i as u64;
    let mut matched = vec![false; client_spans.len()];
    let mut merged: Vec<SpanRecord> = server
        .into_iter()
        .filter(|s| index_of.contains_key(&s.trace_id))
        .collect();
    for s in merged
        .iter_mut()
        .filter(|s| s.parent_id.is_none() && s.name == "request")
    {
        let i = index_of[&s.trace_id];
        matched[i] = true;
        s.parent_id = Some(client_id(i));
        let c = &mut client_spans[i];
        c.start_us = c.start_us.min(s.start_us);
        c.end_us = c.end_us.max(s.end_us());
    }
    merged.extend(client_spans.iter().enumerate().map(|(i, c)| SpanRecord {
        trace_id: c.trace_id,
        span_id: client_id(i),
        parent_id: None,
        name: "client.roundtrip",
        start_us: c.start_us,
        dur_us: c.end_us - c.start_us,
        fields: vec![],
    }));

    let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in &merged {
        if let Some(p) = s.parent_id {
            children
                .entry((s.trace_id, p))
                .or_default()
                .push((s.start_us, s.end_us()));
        }
    }
    let mut sums: HashMap<&str, u64> = HashMap::new();
    for s in &merged {
        let kids = children
            .remove(&(s.trace_id, s.span_id))
            .unwrap_or_default();
        *sums.entry(s.name).or_default() += s.dur_us - covered(kids, s.start_us, s.end_us());
    }
    let ops = client_spans.len().max(1) as f64;
    let mean = |span: &str| sums.get(span).copied().unwrap_or(0) as f64 / ops;
    let mut self_us: Vec<(&'static str, f64)> = REPORTED_SPANS
        .iter()
        .map(|&(span, metric)| (metric, mean(span)))
        .collect();
    self_us.push((CLIENT_UNATTRIBUTED, mean("client.roundtrip")));
    Attribution {
        merged,
        self_us,
        unmatched: matched.iter().filter(|m| !**m).count(),
    }
}

/// The one-line spelling `Json::to_line` gives a Chrome trace document,
/// around its events.
const DOC_PREFIX: &str = "{\"traceEvents\": [";
const DOC_SUFFIX: &str = "], \"displayTimeUnit\": \"ms\"}";

/// Concatenates the events of several one-line Chrome trace documents
/// written by this benchmark into one document, textually: parsing them
/// back with `tornado_obs::json::parse` costs time quadratic in their size.
pub fn concat(documents: &[String]) -> Result<String, String> {
    let mut events = Vec::new();
    for doc in documents {
        let inner = doc
            .trim()
            .strip_prefix(DOC_PREFIX)
            .and_then(|d| d.strip_suffix(DOC_SUFFIX))
            .ok_or("a trace part is not a one-line Chrome trace document")?;
        if !inner.is_empty() {
            events.push(inner);
        }
    }
    Ok(format!("{DOC_PREFIX}{}{DOC_SUFFIX}", events.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_obs::trace::{to_chrome_trace, validate_chrome_trace};

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name,
            start_us: start,
            dur_us: dur,
            fields: vec![],
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered(vec![(0, 10)], 5, 8), 3);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn self_times_add_up_to_the_client_latency() {
        // One degraded GET: client 100..300; request 120..280; decode 2,
        // queue 10, execute 130 holding store.get 120 holding plan 20,
        // fetch 60, recover 30.
        let t = 0xABCD;
        let server = vec![
            span(t, 1, None, "request", 120, 160),
            span(t, 2, Some(1), "frame.decode", 120, 2),
            span(t, 3, Some(1), "queue.wait", 125, 10),
            span(t, 4, Some(1), "execute", 140, 130),
            span(t, 5, Some(4), "store.get", 145, 120),
            span(t, 6, Some(5), "retrieval.plan", 145, 20),
            span(t, 7, Some(5), "store.fetch", 165, 60),
            span(t, 8, Some(5), "decode.recover", 225, 30),
            span(0xFFFF, 9, None, "request", 0, 50), // somebody else's request
        ];
        let client = [ClientSpan {
            trace_id: t,
            start_us: 100,
            end_us: 300,
        }];
        let a = attribute(server, &client);
        assert_eq!(a.unmatched, 0);
        let get = |name: &str| a.self_us.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("trace.frame_decode_self_us"), 2.0);
        assert_eq!(get("trace.queue_wait_self_us"), 10.0);
        assert_eq!(get("trace.execute_self_us"), 10.0);
        assert_eq!(get("trace.store_get_self_us"), 10.0);
        assert_eq!(get("trace.retrieval_plan_self_us"), 20.0);
        assert_eq!(get("trace.store_fetch_self_us"), 60.0);
        assert_eq!(get("trace.decode_recover_self_us"), 30.0);
        assert_eq!(get("trace.request_self_us"), 160.0 - 2.0 - 10.0 - 130.0);
        assert_eq!(get(CLIENT_UNATTRIBUTED), 40.0);
        let total: f64 = a.self_us.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 200.0, "self times sum to the client span");
        let doc = to_chrome_trace(&a.merged);
        let stats = validate_chrome_trace(&doc, &["client.roundtrip", "request", "decode.recover"])
            .unwrap();
        assert_eq!((stats.events, stats.traces, stats.roots), (9, 1, 1));
    }

    #[test]
    fn a_request_that_outlasts_its_client_span_by_rounding_still_nests() {
        let server = vec![span(7, 1, None, "request", 99, 52)];
        let client = [ClientSpan {
            trace_id: 7,
            start_us: 100,
            end_us: 150,
        }];
        let a = attribute(server, &client);
        validate_chrome_trace(&to_chrome_trace(&a.merged), &["client.roundtrip"]).unwrap();
    }

    #[test]
    fn an_op_without_a_server_span_is_reported_unmatched() {
        let server = vec![span(1, 1, None, "request", 10, 5)];
        let client = [
            ClientSpan {
                trace_id: 1,
                start_us: 5,
                end_us: 20,
            },
            ClientSpan {
                trace_id: 2,
                start_us: 30,
                end_us: 40,
            },
        ];
        let a = attribute(server, &client);
        assert_eq!(a.unmatched, 1);
        validate_chrome_trace(&to_chrome_trace(&a.merged), &[]).unwrap();
    }

    #[test]
    fn concat_keeps_every_event_and_stays_parseable() {
        let a = to_chrome_trace(&[span(1, 1, None, "request", 0, 1)]).to_line();
        let b = to_chrome_trace(&[
            span(2, 1, None, "request", 0, 1),
            span(2, 2, Some(1), "execute", 0, 1),
        ])
        .to_line();
        let empty = to_chrome_trace(&[]).to_line();
        let merged = concat(&[a, empty, b]).unwrap();
        let stats =
            validate_chrome_trace(&tornado_obs::json::parse(&merged).unwrap(), &[]).unwrap();
        assert_eq!((stats.events, stats.traces), (3, 2));
        assert!(concat(&["{}".to_string()]).is_err());
    }
}
