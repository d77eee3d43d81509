//! Bounded ring of periodic metric samples → windowed rates.
//!
//! Aggregate counters answer "how many since boot"; operators usually
//! want "how many per second *right now*". A [`TimeSeries`] holds the
//! last N [`SeriesPoint`]s — each a timestamp plus the *cumulative*
//! values of a set of counters — so any consumer can difference adjacent
//! points into windowed rates without the producer keeping per-window
//! state. The ring drops the oldest point past capacity; memory is fixed
//! no matter how long the server runs.

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One periodic sample: cumulative counter values at an instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Sample time, milliseconds since the producer's epoch.
    pub t_ms: u64,
    /// `(name, cumulative value)` pairs, stable order across points.
    pub values: Vec<(String, u64)>,
}

impl SeriesPoint {
    /// Value of `name` in this point, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// A bounded, thread-safe ring of [`SeriesPoint`]s.
pub struct TimeSeries {
    cap: usize,
    inner: Mutex<VecDeque<SeriesPoint>>,
}

impl TimeSeries {
    /// A ring holding at most `capacity` points (minimum 2, so a rate is
    /// always computable once two samples exist).
    pub fn new(capacity: usize) -> Self {
        Self {
            cap: capacity.max(2),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a sample, evicting the oldest past capacity.
    pub fn push(&self, point: SeriesPoint) {
        let mut ring = self.inner.lock().unwrap();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(point);
    }

    /// Number of retained points.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained points, oldest first.
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }

    /// Rate of `name` per second over the *last* sampling interval
    /// (difference of the two newest points). `None` until two samples
    /// exist or if the counter is absent.
    pub fn latest_rate(&self, name: &str) -> Option<f64> {
        let ring = self.inner.lock().unwrap();
        let n = ring.len();
        if n < 2 {
            return None;
        }
        rate_between(&ring[n - 2], &ring[n - 1], name)
    }

    /// Rate of `name` per second over the whole retained window (oldest
    /// vs. newest point).
    pub fn window_rate(&self, name: &str) -> Option<f64> {
        let ring = self.inner.lock().unwrap();
        if ring.len() < 2 {
            return None;
        }
        rate_between(&ring[0], &ring[ring.len() - 1], name)
    }

    /// Renders the ring as JSON:
    /// `{"capacity": N, "points": [{"t_ms": …, "values": {…}}, …]}`.
    pub fn to_json(&self) -> Json {
        let points = self
            .points()
            .into_iter()
            .map(|p| {
                Json::Obj(vec![
                    ("t_ms".into(), Json::U64(p.t_ms)),
                    (
                        "values".into(),
                        Json::Obj(
                            p.values
                                .into_iter()
                                .map(|(k, v)| (k, Json::U64(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("capacity".into(), Json::U64(self.cap as u64)),
            ("points".into(), Json::Arr(points)),
        ])
    }
}

/// Per-second rate of `name` between two cumulative samples. Counter
/// resets (newer < older) clamp to zero rather than going negative.
fn rate_between(older: &SeriesPoint, newer: &SeriesPoint, name: &str) -> Option<f64> {
    let dv = newer.value(name)?.saturating_sub(older.value(name)?);
    let dt_ms = newer.t_ms.saturating_sub(older.t_ms);
    if dt_ms == 0 {
        return None;
    }
    Some(dv as f64 * 1_000.0 / dt_ms as f64)
}

/// Parses the output of [`TimeSeries::to_json`] back into points (the
/// `tornado watch` consumer side). Returns `None` on shape mismatch.
pub fn points_from_json(doc: &Json) -> Option<Vec<SeriesPoint>> {
    let arr = doc.get("points").and_then(Json::as_arr)?;
    let mut out = Vec::with_capacity(arr.len());
    for p in arr {
        let t_ms = p.get("t_ms").and_then(Json::as_u64)?;
        let Some(Json::Obj(vals)) = p.get("values") else {
            return None;
        };
        let mut values = Vec::with_capacity(vals.len());
        for (k, v) in vals {
            values.push((k.clone(), v.as_u64()?));
        }
        out.push(SeriesPoint { t_ms, values });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t_ms: u64, ops: u64, bytes: u64) -> SeriesPoint {
        SeriesPoint {
            t_ms,
            values: vec![("ops".into(), ops), ("bytes".into(), bytes)],
        }
    }

    #[test]
    fn rates_difference_cumulative_values() {
        let ts = TimeSeries::new(16);
        assert!(ts.latest_rate("ops").is_none(), "no rate from one point");
        ts.push(point(1_000, 100, 5_000));
        ts.push(point(1_500, 200, 6_000));
        ts.push(point(2_000, 450, 6_000));
        // Last interval: +250 ops over 500 ms → 500/s.
        assert_eq!(ts.latest_rate("ops"), Some(500.0));
        // Whole window: +350 ops over 1000 ms → 350/s.
        assert_eq!(ts.window_rate("ops"), Some(350.0));
        assert_eq!(ts.latest_rate("bytes"), Some(0.0));
        assert_eq!(ts.latest_rate("missing"), None);
    }

    #[test]
    fn ring_is_bounded_drop_oldest() {
        let ts = TimeSeries::new(4);
        for i in 0..10u64 {
            ts.push(point(i * 100, i, 0));
        }
        let pts = ts.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].t_ms, 600, "oldest evicted first");
        assert_eq!(pts[3].t_ms, 900);
    }

    #[test]
    fn counter_reset_clamps_to_zero_rate() {
        let ts = TimeSeries::new(4);
        ts.push(point(0, 1_000, 0));
        ts.push(point(1_000, 5, 0)); // reset mid-window
        assert_eq!(ts.latest_rate("ops"), Some(0.0));
    }

    #[test]
    fn window_rate_clamps_counter_reset_after_replacement() {
        // A device replacement restarts its counters from zero: the whole
        // window now ends below where it started. The rate must clamp to
        // 0, not underflow through the u64 subtraction.
        let ts = TimeSeries::new(8);
        ts.push(point(0, 10_000, 9));
        ts.push(point(500, 12_000, 9));
        ts.push(point(1_000, 30, 9)); // replaced: counter restarted
        assert_eq!(ts.window_rate("ops"), Some(0.0));
        assert_eq!(ts.latest_rate("ops"), Some(0.0));
        // Post-reset growth reads normally once the window refills.
        ts.push(point(1_500, 530, 9));
        assert_eq!(ts.latest_rate("ops"), Some(1_000.0));
    }

    #[test]
    fn single_point_series_has_no_rates() {
        let ts = TimeSeries::new(8);
        ts.push(point(42, 7, 7));
        assert_eq!(ts.latest_rate("ops"), None);
        assert_eq!(ts.window_rate("ops"), None);
        assert_eq!(ts.window_rate("missing"), None);
        // Two samples at the same timestamp: dt = 0 stays rate-less
        // rather than dividing by zero.
        ts.push(point(42, 9, 7));
        assert_eq!(ts.latest_rate("ops"), None);
        assert_eq!(ts.window_rate("ops"), None);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let ts = TimeSeries::new(8);
        ts.push(point(100, 1, 2));
        ts.push(point(200, 3, 4));
        let text = ts.to_json().to_pretty();
        let doc = crate::json::parse(&text).unwrap();
        let pts = points_from_json(&doc).unwrap();
        assert_eq!(pts, ts.points());
    }
}
