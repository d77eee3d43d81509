//! Point-in-time metrics snapshots serialized to JSON.
//!
//! A [`Snapshot`] is an ordered JSON object built from live metrics — every
//! cell of each recorded [`MetricSet`], under its declared name and section
//! — plus whatever context the caller adds (graph path, per-`k` rows). The
//! schema key lets validators (`tornado validate --metrics`, the CI smoke
//! steps) reject foreign files cheaply.

use crate::histogram::Histogram;
use crate::json::Json;
use crate::set::{Cell, Desc, MetricSet};

/// Schema identifier written into every snapshot.
pub const SCHEMA: &str = "tornado-metrics-v1";

/// Top-level keys every snapshot carries (what validators check).
pub(crate) const REQUIRED_KEYS: [&str; 4] = ["schema", "command", "elapsed_ms", "counters"];

/// Builder for one metrics snapshot.
#[derive(Debug, Default)]
pub struct Snapshot {
    fields: Vec<(String, Json)>,
    counters: Vec<(&'static Desc, u64)>,
    gauges: Vec<(&'static Desc, i64)>,
    histograms: Vec<(&'static Desc, Histogram)>,
}

impl Snapshot {
    /// A snapshot for `command`, stamped with the schema and elapsed time.
    pub fn new(command: &str, elapsed_ms: u64) -> Self {
        Self {
            fields: vec![
                ("schema".into(), Json::Str(SCHEMA.into())),
                ("command".into(), Json::Str(command.into())),
                ("elapsed_ms".into(), Json::U64(elapsed_ms)),
            ],
            ..Self::default()
        }
    }

    /// Adds a top-level context field.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Records every cell of `set` under its declared name, zeros and empty
    /// histograms included, so a name is present from the first snapshot on.
    /// A name already recorded is added to (histograms are merged): that is
    /// how one set per shard becomes one line per name.
    pub fn record(&mut self, set: &impl MetricSet) -> &mut Self {
        set.visit(|desc, cell| match cell {
            Cell::Counter(c) => *slot(&mut self.counters, desc) += c.get(),
            Cell::Gauge(g) => *slot(&mut self.gauges, desc) += g.get(),
            Cell::Histogram(h) => slot(&mut self.histograms, desc).merge(h),
        });
        self
    }

    /// `(name, value)` of every recorded counter and gauge declared
    /// `sampled`: one point of the server's time series, carrying what the
    /// `counters` / `gauges` sections carry (a negative gauge as 0).
    pub fn sampled(&self) -> Vec<(String, u64)> {
        let counters = self.counters.iter().map(|&(d, v)| (d, v));
        let gauges = self.gauges.iter().map(|&(d, v)| (d, v.max(0) as u64));
        counters
            .chain(gauges)
            .filter(|(d, _)| d.sampled)
            .map(|(d, v)| (d.name.to_string(), v))
            .collect()
    }

    /// Assembles the final JSON tree.
    pub fn to_json(&self) -> Json {
        fn section<T>(cells: &[(&'static Desc, T)], json: impl Fn(&T) -> Json) -> Json {
            Json::Obj(
                cells
                    .iter()
                    .map(|(d, v)| (d.name.to_string(), json(v)))
                    .collect(),
            )
        }
        let mut root = self.fields.clone();
        root.push((
            "counters".into(),
            section(&self.counters, |&v| Json::U64(v)),
        ));
        if !self.gauges.is_empty() {
            root.push(("gauges".into(), section(&self.gauges, |&v| Json::I64(v))));
        }
        if !self.histograms.is_empty() {
            root.push((
                "histograms".into(),
                section(&self.histograms, histogram_json),
            ));
        }
        Json::Obj(root)
    }

    /// Pretty-printed snapshot text.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Writes the snapshot to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_pretty())
    }
}

/// The value recorded under `desc`'s name, inserted at its zero if new.
fn slot<'a, T: Default>(cells: &'a mut Vec<(&'static Desc, T)>, desc: &'static Desc) -> &'a mut T {
    let at = cells
        .iter()
        .position(|(d, _)| d.name == desc.name)
        .unwrap_or_else(|| {
            cells.push((desc, T::default()));
            cells.len() - 1
        });
    &mut cells[at].1
}

/// count/sum/mean, min/max/percentiles once sampled, sparse non-zero buckets.
fn histogram_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            let upper = crate::histogram::bucket_upper_bound(i);
            Json::Obj(vec![
                ("bucket_upper_bound".into(), Json::U64(upper)),
                (
                    "bucket_lower_bound".into(),
                    Json::U64(crate::histogram::bucket_lower_bound(i)),
                ),
                ("count".into(), Json::U64(c)),
            ])
        })
        .collect();
    let mut obj = vec![
        ("count".into(), Json::U64(h.count())),
        ("sum".into(), Json::U64(h.sum())),
        ("mean".into(), Json::F64(h.mean())),
    ];
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        obj.push(("min".into(), Json::U64(min)));
        obj.push(("max".into(), Json::U64(max)));
        obj.push(("p50".into(), Json::U64(h.percentile(0.5).unwrap())));
        obj.push(("p99".into(), Json::U64(h.percentile(0.99).unwrap())));
    }
    obj.push(("buckets".into(), Json::Arr(buckets)));
    Json::Obj(obj)
}

/// Checks that `doc` looks like a snapshot this crate wrote: every
/// `REQUIRED_KEYS` entry present, schema matching, counters an object.
/// Returns the offending key on failure.
pub fn validate(doc: &Json) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("missing top-level key '{key}'"));
        }
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("schema '{other}' (expected '{SCHEMA}')")),
        None => return Err("schema is not a string".into()),
    }
    match doc.get("counters") {
        Some(Json::Obj(_)) => {}
        _ => return Err("'counters' is not an object".into()),
    }
    if doc.get("elapsed_ms").and_then(Json::as_u64).is_none() {
        return Err("'elapsed_ms' is not an unsigned integer".into());
    }
    if let Some(hists) = doc.get("histograms") {
        let Json::Obj(hists) = hists else {
            return Err("'histograms' is not an object".into());
        };
        for (name, h) in hists {
            validate_histogram(name, h)?;
        }
    }
    Ok(())
}

/// Structural check for one serialized histogram: a `count`, and buckets
/// (when present) each carrying a count plus a bound that is a genuine
/// log2 bucket edge, strictly increasing, with counts summing to `count`.
fn validate_histogram(name: &str, h: &Json) -> Result<(), String> {
    let total = h
        .get("count")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("histogram '{name}': missing u64 'count'"))?;
    let Some(buckets) = h.get("buckets") else {
        return Ok(());
    };
    let buckets = buckets
        .as_arr()
        .ok_or_else(|| format!("histogram '{name}': 'buckets' is not an array"))?;
    let mut prev: Option<u64> = None;
    let mut sum = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        let upper = b
            .get("bucket_upper_bound")
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                format!("histogram '{name}' bucket {i}: missing 'bucket_upper_bound'")
            })?;
        // Valid log2 edges are 0, 2^k - 1, or u64::MAX.
        if !(upper == 0 || upper == u64::MAX || (upper.wrapping_add(1)).is_power_of_two()) {
            return Err(format!(
                "histogram '{name}' bucket {i}: bound {upper} is not a log2 bucket edge"
            ));
        }
        if let Some(p) = prev {
            if upper <= p {
                return Err(format!(
                    "histogram '{name}' bucket {i}: bounds not strictly increasing"
                ));
            }
        }
        prev = Some(upper);
        sum = sum.saturating_add(
            b.get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram '{name}' bucket {i}: missing u64 'count'"))?,
        );
    }
    if !buckets.is_empty() && sum != total {
        return Err(format!(
            "histogram '{name}': bucket counts sum to {sum}, expected {total}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::set::tests::Cells;

    #[test]
    fn snapshot_round_trips_through_the_serializer() {
        let cells = Cells::new();
        cells.trials.add(3_469_496);
        cells.margin.set(-2);
        for v in [10u64, 100, 1000] {
            cells.cycle_us.record(v);
        }

        let mut snap = Snapshot::new("worst-case", 4200);
        snap.set("graph", Json::Str("catalog:1".into()))
            .record(&cells);

        let text = snap.to_pretty();
        let doc = parse(&text).expect("snapshot must parse");
        assert_eq!(doc, snap.to_json(), "round trip is lossless");
        validate(&doc).expect("snapshot must validate");

        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("search.trials").unwrap().as_u64(),
            Some(3_469_496)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("scrub.margin"),
            Some(&Json::I64(-2))
        );
        let h = doc
            .get("histograms")
            .unwrap()
            .get("scrub.cycle_us")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(1000));
        // A histogram with no sample is still a line: a count of 0, no
        // extremes or percentiles to report, no buckets.
        let idle = doc.get("histograms").unwrap().get("scrub.idle_us").unwrap();
        assert_eq!(idle.get("count").unwrap().as_u64(), Some(0));
        assert!(idle.get("min").is_none() && idle.get("p99").is_none());
        assert_eq!(
            idle.get("buckets").unwrap().as_arr().map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn validate_rejects_foreign_documents() {
        assert!(validate(&parse("{}").unwrap()).is_err());
        assert!(validate(
            &parse(r#"{"schema": "other", "command": "x", "elapsed_ms": 1, "counters": {}}"#)
                .unwrap()
        )
        .is_err());
        assert!(validate(&parse(r#"{"schema": "tornado-metrics-v1", "command": "x", "elapsed_ms": 1, "counters": 5}"#).unwrap()).is_err());
        validate(&parse(r#"{"schema": "tornado-metrics-v1", "command": "x", "elapsed_ms": 1, "counters": {}}"#).unwrap()).unwrap();
    }

    #[test]
    fn buckets_carry_explicit_log2_bounds() {
        let cells = Cells::new();
        for v in [0u64, 1, 5, 5, 1_000] {
            cells.cycle_us.record(v);
        }
        let mut snap = Snapshot::new("x", 1);
        snap.record(&cells);
        let doc = parse(&snap.to_pretty()).unwrap();
        validate(&doc).expect("new-format snapshot validates");
        let buckets = doc
            .get("histograms")
            .unwrap()
            .get("scrub.cycle_us")
            .unwrap()
            .get("buckets")
            .unwrap()
            .as_arr()
            .unwrap();
        for b in buckets {
            assert!(b.get("le").is_none(), "one key per bound");
            let upper = b.get("bucket_upper_bound").unwrap().as_u64().unwrap();
            let lower = b.get("bucket_lower_bound").unwrap().as_u64().unwrap();
            assert!(lower <= upper);
        }
        // 5 recorded twice lands in bucket [4,7]: lower 4, upper 7.
        assert!(buckets.iter().any(|b| {
            b.get("bucket_lower_bound").unwrap().as_u64() == Some(4)
                && b.get("bucket_upper_bound").unwrap().as_u64() == Some(7)
                && b.get("count").unwrap().as_u64() == Some(2)
        }));
    }

    #[test]
    fn validate_rejects_malformed_histograms() {
        let base = |hist: &str| {
            parse(&format!(
                r#"{{"schema": "tornado-metrics-v1", "command": "x", "elapsed_ms": 1,
                     "counters": {{}}, "histograms": {{"h": {hist}}}}}"#
            ))
            .unwrap()
        };
        // Bound that is not a log2 edge.
        let doc = base(r#"{"count": 1, "buckets": [{"bucket_upper_bound": 6, "count": 1}]}"#);
        assert!(validate(&doc).unwrap_err().contains("log2"));
        // Non-increasing bounds.
        let doc = base(
            r#"{"count": 2, "buckets": [{"bucket_upper_bound": 7, "count": 1},
                                        {"bucket_upper_bound": 3, "count": 1}]}"#,
        );
        assert!(validate(&doc).unwrap_err().contains("increasing"));
        // Bucket counts disagree with the total.
        let doc = base(r#"{"count": 5, "buckets": [{"bucket_upper_bound": 1, "count": 1}]}"#);
        assert!(validate(&doc).unwrap_err().contains("sum"));
        // A bound under the key older snapshots also wrote is no bound.
        let doc = base(r#"{"count": 1, "buckets": [{"le": 1, "count": 1}]}"#);
        assert!(validate(&doc)
            .unwrap_err()
            .contains("missing 'bucket_upper_bound'"));
        // Missing count entirely.
        let doc = base(r#"{"sum": 1}"#);
        assert!(validate(&doc).unwrap_err().contains("count"));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let snap = Snapshot::new("scrub", 1);
        let doc = snap.to_json();
        assert!(doc.get("counters").is_some(), "counters always present");
        assert!(doc.get("gauges").is_none());
        assert!(doc.get("histograms").is_none());
    }
}
