//! Request-scoped distributed tracing.
//!
//! A [`Tracer`] collects [`SpanRecord`]s — named, timed segments of one
//! request, linked parent→child by span id — into a bounded sharded ring
//! buffer. Sampling is deterministic: whether a trace is recorded depends
//! only on its trace id and the configured 1-in-N rate (see [`sampled`]),
//! so client and server agree on the sampled set without negotiation, and
//! the same seeded load run samples the same trace ids on every machine
//! and at every thread count.
//!
//! Bounds are explicit everywhere:
//! * the ring drops the *oldest* spans past capacity and counts every
//!   drop ([`Tracer::dropped`]), so a long-running server keeps the most
//!   recent window;
//! * an always-kept tail of the N slowest *root* spans survives ring
//!   eviction, so the requests an operator actually wants to see — the
//!   p99.9 stragglers — are never the ones that got dropped.
//!
//! [`to_chrome_trace`] exports spans as Chrome trace-event JSON (`ph: "X"`
//! complete events, microsecond timestamps), loadable directly in
//! Perfetto or `chrome://tracing`; [`validate_chrome_trace`] is the
//! CI-side checker (well-formed events, well-nested span trees).

use crate::clock::{Clock, MonotonicClock};
use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Ring shards — enough that concurrent request threads rarely contend on
/// one mutex; spans are folded back together at export time.
const SHARDS: usize = 8;

/// SplitMix64 finalizer: a cheap, high-quality bit mixer. Sampling keys on
/// the *mixed* trace id so sequential ids still sample uniformly.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 1-in-`every` sampling decision for `trace_id`.
///
/// `every == 0` disables sampling entirely; `every == 1` samples
/// everything. The decision is a pure function of the trace id, so any
/// party that knows the rate can reproduce the sampled set exactly.
#[inline]
pub fn sampled(trace_id: u64, every: u64) -> bool {
    match every {
        0 => false,
        1 => true,
        n => mix64(trace_id).is_multiple_of(n),
    }
}

/// One finished span: a named, timed segment of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the tracer.
    pub span_id: u64,
    /// Parent span id; `None` marks a root span.
    pub parent_id: Option<u64>,
    /// Static span name (e.g. `"queue.wait"`, `"decode.recover"`).
    pub name: &'static str,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Key=value annotations carried into the export's `args`.
    pub fields: Vec<(&'static str, Json)>,
}

impl SpanRecord {
    /// End timestamp (`start_us + dur_us`, saturating).
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// Clamps this span into `[parent_start, parent_end]` so fabricated
    /// child spans (built from independently-measured durations) always
    /// nest exactly inside their parent.
    pub fn clamped_into(mut self, parent_start_us: u64, parent_end_us: u64) -> Self {
        self.start_us = self.start_us.clamp(parent_start_us, parent_end_us);
        let end = self.end_us().min(parent_end_us);
        self.dur_us = end - self.start_us;
        self
    }
}

struct RingShard {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

static NEXT_TRACE_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread shard index (threads numbered at first use).
    static TRACE_SLOT: usize = NEXT_TRACE_SLOT.fetch_add(1, Relaxed) % SHARDS;
}

/// A cheap, thread-friendly span collector with deterministic sampling.
pub struct Tracer {
    sample_every: u64,
    clock: Arc<dyn Clock>,
    next_span: AtomicU64,
    shards: Vec<Mutex<RingShard>>,
    shard_cap: usize,
    slow: Mutex<Vec<SpanRecord>>,
    slow_keep: usize,
    recorded: AtomicU64,
}

impl Tracer {
    /// A tracer that samples nothing and records nothing.
    pub fn disabled() -> Self {
        Self::new(0, 0, 0)
    }

    /// A tracer sampling 1 in `sample_every` traces (0 = off, 1 = all),
    /// retaining at most `capacity` spans in the ring plus the `slow_keep`
    /// slowest root spans.
    pub fn new(sample_every: u64, capacity: usize, slow_keep: usize) -> Self {
        let shard_cap = if sample_every == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS).max(1)
        };
        Self {
            sample_every,
            clock: Arc::new(MonotonicClock::new()),
            next_span: AtomicU64::new(1),
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(RingShard {
                        spans: VecDeque::new(),
                        dropped: 0,
                    })
                })
                .collect(),
            shard_cap,
            slow: Mutex::new(Vec::new()),
            slow_keep,
            recorded: AtomicU64::new(0),
        }
    }

    /// Replaces the timestamp source (tests).
    #[cfg(test)]
    pub(crate) fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Whether this tracer can ever record a span.
    pub fn is_enabled(&self) -> bool {
        self.sample_every != 0
    }

    /// Deterministic sampling decision for `trace_id` at this tracer's
    /// rate (see the free function [`sampled`]).
    pub fn sampled(&self, trace_id: u64) -> bool {
        sampled(trace_id, self.sample_every)
    }

    /// Microseconds since this tracer's epoch (span timestamp base).
    pub fn now_us(&self) -> u64 {
        self.clock.now_nanos() / 1_000
    }

    /// Allocates a fresh span id.
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Relaxed)
    }

    /// Records one finished span into the calling thread's ring shard
    /// (drop-oldest past capacity) and, for root spans, into the
    /// slowest-roots tail.
    pub fn record(&self, span: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.recorded.fetch_add(1, Relaxed);
        if span.parent_id.is_none() && self.slow_keep > 0 {
            let mut slow = self.slow.lock().unwrap();
            if slow.len() < self.slow_keep {
                slow.push(span.clone());
            } else if let Some((i, min)) = slow
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.dur_us)
                .map(|(i, s)| (i, s.dur_us))
            {
                if span.dur_us > min {
                    slow[i] = span.clone();
                }
            }
        }
        let shard = TRACE_SLOT.with(|&s| s);
        let mut ring = self.shards[shard].lock().unwrap();
        if ring.spans.len() >= self.shard_cap {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(span);
    }

    /// Spans evicted from the ring so far (the bounded-memory signal; the
    /// slowest-roots tail keeps its copies regardless).
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().dropped).sum()
    }

    /// Spans recorded so far (before any eviction).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Relaxed)
    }

    /// Every retained span — ring contents plus the slowest-roots tail,
    /// deduplicated by span id and sorted by (trace, start) for stable
    /// export.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().spans.iter().cloned());
        }
        out.extend(self.slow.lock().unwrap().iter().cloned());
        out.sort_by(|a, b| {
            (a.trace_id, a.start_us, a.span_id).cmp(&(b.trace_id, b.start_us, b.span_id))
        });
        out.dedup_by_key(|s| s.span_id);
        out
    }

    /// All retained spans of one trace, parents before children where
    /// start times allow (same sort as [`Tracer::spans`]).
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.spans()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Renders spans as a Chrome trace-event JSON document (`ph: "X"` complete
/// events, timestamps in microseconds) loadable in Perfetto. Each trace is
/// assigned its own `tid` (in first-appearance order of the sorted spans)
/// so its span tree renders as one nested track.
///
/// Spans whose ancestor chain is incomplete are pruned: ring eviction
/// drops oldest-first per shard, so a long run can evict a parent while
/// its child survives. The export keeps only spans that still connect to
/// a retained root, which is what makes its nesting validate-clean; the
/// tracer's dropped counter accounts for the rest.
pub fn to_chrome_trace(spans: &[SpanRecord]) -> Json {
    let present: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let parent_of: std::collections::HashMap<u64, Option<u64>> =
        spans.iter().map(|s| (s.span_id, s.parent_id)).collect();
    let connected = |mut id: u64| -> bool {
        // Parent chains are a few levels deep; the bound only guards
        // against a corrupt cycle.
        for _ in 0..64 {
            match parent_of.get(&id) {
                Some(None) => return true, // reached a root
                Some(Some(p)) if present.contains(p) => id = *p,
                _ => return false,
            }
        }
        false
    };

    let mut tid_of: Vec<(u64, u64)> = Vec::new(); // (trace_id, tid)
    let mut events = Vec::with_capacity(spans.len());
    for s in spans.iter().filter(|s| connected(s.span_id)) {
        let tid = match tid_of.iter().find(|(t, _)| *t == s.trace_id) {
            Some(&(_, tid)) => tid,
            None => {
                let tid = tid_of.len() as u64 + 1;
                tid_of.push((s.trace_id, tid));
                tid
            }
        };
        let mut args = vec![
            (
                "trace_id".to_string(),
                Json::Str(format!("{:#018x}", s.trace_id)),
            ),
            ("span_id".to_string(), Json::U64(s.span_id)),
            (
                "parent_id".to_string(),
                match s.parent_id {
                    Some(p) => Json::U64(p),
                    None => Json::Null,
                },
            ),
        ];
        args.extend(s.fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("cat".into(), Json::Str("tornado".into())),
            ("ph".into(), Json::Str("X".into())),
            ("pid".into(), Json::U64(1)),
            ("tid".into(), Json::U64(tid)),
            ("ts".into(), Json::U64(s.start_us)),
            ("dur".into(), Json::U64(s.dur_us)),
            ("args".into(), Json::Obj(args)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events.
    pub events: usize,
    /// Distinct trace ids.
    pub traces: usize,
    /// Root events (no parent).
    pub roots: usize,
}

/// Checks that `doc` is a well-formed Chrome trace-event document as this
/// module exports them: a `traceEvents` array of `ph == "X"` events with
/// numeric `ts`/`dur`, span/parent ids in `args`, every parent present in
/// the same trace, and every child nested inside its parent's time window.
/// `require` lists span names that must each appear at least once.
pub fn validate_chrome_trace(doc: &Json, require: &[&str]) -> Result<ChromeTraceStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing 'traceEvents' array")?;
    // (trace, span) -> (ts, end); collected first so order doesn't matter.
    let mut windows: Vec<(String, u64, u64, u64)> = Vec::with_capacity(events.len());
    // (trace, name, parent, span, ts, end) per event, pending the nesting check.
    type ParsedEvent<'a> = (String, &'a str, Option<u64>, u64, u64, u64);
    let mut parsed: Vec<ParsedEvent> = Vec::new();
    let mut trace_ids: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing 'name'"))?;
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            other => return Err(format!("event {i} ({name}): ph {other:?}, expected \"X\"")),
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'ts'"))?;
        let dur = ev
            .get("dur")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'dur'"))?;
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} ({name}): missing 'args'"))?;
        let trace = args
            .get("trace_id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing args.trace_id"))?
            .to_string();
        let span = args
            .get("span_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing args.span_id"))?;
        let parent = args.get("parent_id").and_then(Json::as_u64);
        if !trace_ids.contains(&trace) {
            trace_ids.push(trace.clone());
        }
        windows.push((trace.clone(), span, ts, ts.saturating_add(dur)));
        parsed.push((trace, name, parent, span, ts, dur));
    }
    let mut roots = 0;
    for (trace, name, parent, _span, ts, dur) in &parsed {
        match parent {
            None => roots += 1,
            Some(p) => {
                let (_, _, pts, pend) = windows
                    .iter()
                    .find(|(t, s, _, _)| t == trace && s == p)
                    .ok_or_else(|| format!("span '{name}' references missing parent {p}"))?;
                if ts < pts || ts.saturating_add(*dur) > *pend {
                    return Err(format!(
                        "span '{name}' [{ts}, {}] escapes parent window [{pts}, {pend}]",
                        ts.saturating_add(*dur)
                    ));
                }
            }
        }
    }
    for want in require {
        if !parsed.iter().any(|(_, name, ..)| name == want) {
            return Err(format!("required span '{want}' not present"));
        }
    }
    Ok(ChromeTraceStats {
        events: parsed.len(),
        traces: trace_ids.len(),
        roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

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
            fields: vec![("k", Json::U64(1))],
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        let ids: Vec<u64> = (0..100_000u64).map(|i| mix64(i ^ 0xDEAD)).collect();
        let hits: Vec<u64> = ids.iter().copied().filter(|&t| sampled(t, 256)).collect();
        let again: Vec<u64> = ids.iter().copied().filter(|&t| sampled(t, 256)).collect();
        assert_eq!(hits, again, "pure function of trace id");
        // 1-in-256 over 100k ids: expect ~390, allow generous slack.
        assert!(
            (150..800).contains(&hits.len()),
            "hit count {} far from expected rate",
            hits.len()
        );
        assert!(ids.iter().all(|&t| !sampled(t, 0)), "0 disables");
        assert!(ids.iter().all(|&t| sampled(t, 1)), "1 samples all");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::new(1, 8, 0);
        for i in 0..100u64 {
            t.record(span(1, i + 1, None, "s", i * 10, 5));
        }
        assert_eq!(t.recorded(), 100);
        let spans = t.spans();
        assert!(
            spans.len() <= 16,
            "bounded near capacity, got {}",
            spans.len()
        );
        assert_eq!(t.dropped() + spans.len() as u64, 100);
        // Survivors are the newest (highest start times).
        let min_start = spans.iter().map(|s| s.start_us).min().unwrap();
        assert!(min_start >= 500, "oldest spans were the ones dropped");
    }

    #[test]
    fn slowest_roots_survive_ring_eviction() {
        let t = Tracer::new(1, 8, 2);
        // One early, very slow root; then a flood of fast spans.
        t.record(span(7, 1, None, "slow", 0, 9_999));
        for i in 0..200u64 {
            t.record(span(8, i + 2, None, "fast", 100 + i, 1));
        }
        assert!(
            t.spans().iter().any(|s| s.dur_us == 9_999),
            "export includes the evicted-but-slow root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(span(1, 1, None, "s", 0, 1));
        assert_eq!(t.recorded(), 0);
        assert!(t.spans().is_empty());
        assert!(!t.sampled(42));
    }

    #[test]
    fn clock_drives_now_us() {
        let clock = Arc::new(ManualClock::new());
        let t = Tracer::new(1, 8, 0).with_clock(clock.clone());
        clock.advance_millis(3);
        assert_eq!(t.now_us(), 3_000);
    }

    #[test]
    fn clamping_forces_nesting() {
        let child = span(1, 2, Some(1), "c", 5, 100).clamped_into(10, 50);
        assert_eq!(child.start_us, 10);
        assert_eq!(child.end_us(), 50);
        let inside = span(1, 3, Some(1), "c", 20, 5).clamped_into(10, 50);
        assert_eq!(
            (inside.start_us, inside.dur_us),
            (20, 5),
            "untouched when already nested"
        );
    }

    #[test]
    fn chrome_export_round_trips_and_validates() {
        let spans = vec![
            span(1, 1, None, "request", 100, 900),
            span(1, 2, Some(1), "queue.wait", 110, 40),
            span(1, 3, Some(1), "execute", 160, 800),
            span(1, 4, Some(3), "decode.recover", 200, 300),
            span(2, 5, None, "request", 50, 10),
        ];
        let doc = to_chrome_trace(&spans);
        let text = doc.to_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        let stats = validate_chrome_trace(&parsed, &["request", "decode.recover"]).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.traces, 2);
        assert_eq!(stats.roots, 2);
    }

    #[test]
    fn validator_rejects_broken_nesting_and_missing_parent() {
        let escape = vec![
            span(1, 1, None, "request", 100, 50),
            span(1, 2, Some(1), "late", 140, 100),
        ];
        let err = validate_chrome_trace(&to_chrome_trace(&escape), &[]).unwrap_err();
        assert!(err.contains("escapes"), "{err}");

        // The exporter prunes orphans, so a hand-built event is needed to
        // exercise the validator's missing-parent check.
        let orphan_doc = Json::Obj(vec![(
            "traceEvents".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("child".into())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(1)),
                ("ts".into(), Json::U64(0)),
                ("dur".into(), Json::U64(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("trace_id".into(), Json::Str("0x1".into())),
                        ("span_id".into(), Json::U64(2)),
                        ("parent_id".into(), Json::U64(99)),
                    ]),
                ),
            ])]),
        )]);
        let err = validate_chrome_trace(&orphan_doc, &[]).unwrap_err();
        assert!(err.contains("missing parent"), "{err}");

        let ok = vec![span(1, 1, None, "request", 0, 10)];
        let err = validate_chrome_trace(&to_chrome_trace(&ok), &["decode.recover"]).unwrap_err();
        assert!(err.contains("decode.recover"), "{err}");
    }

    #[test]
    fn export_prunes_spans_whose_ancestors_were_evicted() {
        // Trace 1 lost its "execute" span (id 3) to ring eviction: the
        // grandchild must be pruned with it, the intact siblings kept.
        let spans = vec![
            span(1, 1, None, "request", 100, 900),
            span(1, 2, Some(1), "queue.wait", 110, 40),
            span(1, 4, Some(3), "store.get", 200, 300), // parent 3 evicted
            span(2, 5, None, "request", 50, 10),
        ];
        let doc = to_chrome_trace(&spans);
        let stats = validate_chrome_trace(&doc, &["request", "queue.wait"]).unwrap();
        assert_eq!(stats.events, 3, "orphaned store.get pruned");
        assert_eq!(stats.roots, 2);
        assert!(validate_chrome_trace(&doc, &["store.get"]).is_err());
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless_in_count() {
        let t = Arc::new(Tracer::new(1, 1 << 16, 4));
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let id = t.next_span_id();
                        t.record(span(w, id, None, "s", i, 1));
                    }
                });
            }
        });
        assert_eq!(t.recorded(), 8_000);
        assert_eq!(t.dropped(), 0, "capacity was sufficient");
        assert_eq!(t.spans().len(), 8_000);
    }
}
