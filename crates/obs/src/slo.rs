//! SLO error budgets with multi-window burn-rate alerting.
//!
//! A tracker watches one cumulative `(bad, total)` counter pair — degraded
//! reads out of all reads, corrupt stripes out of all stripes scrubbed —
//! against an objective (the allowed bad fraction). The **burn rate** over
//! a window is `(Δbad / Δtotal) / objective`: 1.0 means the error budget
//! is being consumed exactly at the sustainable pace, 14.4 means a
//! 30-day budget would be gone in 50 hours.
//!
//! Alerting follows the multi-window pattern: a pair fires only when
//! *both* its short and long windows exceed the threshold — the long
//! window proves the problem is real, the short window proves it is
//! still happening (so alerts resolve quickly once the burn stops).
//! Firing is edge-triggered: [`SloTracker::evaluate`] reports
//! transitions, not levels, so callers can forward them to an event sink
//! without de-duplicating.
//!
//! Window lengths are plain milliseconds and entirely caller-chosen —
//! production uses [`standard_windows`] (5 m/1 h fast + 30 m/6 h slow),
//! tests and CI smokes shrink them to seconds.

use std::collections::VecDeque;

/// One short/long window pair with its firing threshold.
#[derive(Clone, Debug)]
pub struct BurnWindow {
    /// Name used in alert events and gauges (`"fast"`, `"slow"`).
    pub label: String,
    /// Short window: proves the burn is still happening.
    pub short_ms: u64,
    /// Long window: proves the burn is sustained, not a blip.
    pub long_ms: u64,
    /// Both windows must burn at or above this multiple of the objective.
    pub threshold: f64,
}

/// The classic page-worthy pairs: 14.4× over 5 m/1 h and 6× over
/// 30 m/6 h (budget gone in ~2 days resp. ~5 days if sustained).
pub fn standard_windows() -> Vec<BurnWindow> {
    vec![
        BurnWindow {
            label: "fast".into(),
            short_ms: 5 * 60 * 1000,
            long_ms: 60 * 60 * 1000,
            threshold: 14.4,
        },
        BurnWindow {
            label: "slow".into(),
            short_ms: 30 * 60 * 1000,
            long_ms: 6 * 60 * 60 * 1000,
            threshold: 6.0,
        },
    ]
}

/// An alert transition produced by [`SloTracker::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloAlert {
    /// The tracker that transitioned.
    pub slo: String,
    /// The window pair that transitioned.
    pub window: String,
    /// `true` on fire, `false` on resolve.
    pub firing: bool,
    /// Burn rate over the short window at evaluation time.
    pub burn_short: f64,
    /// Burn rate over the long window at evaluation time.
    pub burn_long: f64,
    /// The pair's configured threshold.
    pub threshold: f64,
}

/// Current burn rates for one window pair (for gauges / JSON surfaces).
#[derive(Clone, Debug)]
pub struct BurnReading {
    /// Window pair label.
    pub label: String,
    /// Burn over the short window.
    pub short: f64,
    /// Burn over the long window.
    pub long: f64,
    /// Firing threshold.
    pub threshold: f64,
    /// Whether the pair is currently firing.
    pub firing: bool,
}

#[derive(Clone, Copy, Debug)]
struct Sample {
    t_ms: u64,
    bad: u64,
    total: u64,
}

/// Error-budget tracker over one cumulative bad/total counter pair.
///
/// Keeps its own time-indexed ring (the server's general timeseries ring
/// is sized for a `watch` panel, far too short for a 6-hour window) and
/// prunes it to the longest configured window.
#[derive(Debug)]
pub struct SloTracker {
    name: String,
    objective: f64,
    windows: Vec<BurnWindow>,
    firing: Vec<bool>,
    samples: VecDeque<Sample>,
    alerts_total: u64,
}

impl SloTracker {
    /// Creates a tracker. `objective` is the allowed bad fraction and must
    /// be positive (an objective of zero makes every bad event an infinite
    /// burn, which is a configuration error, not an alert).
    ///
    /// # Panics
    /// Panics if `objective` is not in `(0, 1]` or `windows` is empty.
    pub fn new(name: &str, objective: f64, windows: Vec<BurnWindow>) -> Self {
        assert!(
            objective > 0.0 && objective <= 1.0,
            "objective {objective} must be in (0, 1]"
        );
        assert!(!windows.is_empty(), "at least one burn window");
        let firing = vec![false; windows.len()];
        Self {
            name: name.into(),
            objective,
            windows,
            firing,
            samples: VecDeque::new(),
            alerts_total: 0,
        }
    }

    /// The allowed bad fraction.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Cumulative count of fire transitions since construction.
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// Records a cumulative observation; one older than the newest counts
    /// as taken at the newest's time. The newest sample is always the
    /// latest observation, but one landing within a thousandth of the
    /// shortest window (at least 1 ms) of the sample before the newest
    /// replaces the newest, so however often a caller records, the ring
    /// holds at most two samples per such step. It is pruned to the
    /// longest window (plus one sample of slack so a window-spanning delta
    /// always has a baseline point).
    pub fn record(&mut self, t_ms: u64, bad: u64, total: u64) {
        let t_ms = self.samples.back().map_or(t_ms, |s| t_ms.max(s.t_ms));
        let resolution = self.windows.iter().map(|w| w.short_ms).min().unwrap_or(0) / 1_000;
        let sample = Sample { t_ms, bad, total };
        match self.samples.len() {
            n if n >= 2 && t_ms - self.samples[n - 2].t_ms < resolution.max(1) => {
                self.samples[n - 1] = sample;
            }
            _ => self.samples.push_back(sample),
        }
        let horizon = self.windows.iter().map(|w| w.long_ms).max().unwrap_or(0);
        let cutoff = t_ms.saturating_sub(horizon);
        // Keep one sample at or before the cutoff as the delta baseline.
        while self.samples.len() > 2 && self.samples[1].t_ms <= cutoff {
            self.samples.pop_front();
        }
    }

    /// Burn rate over the trailing `window_ms`: delta against the newest
    /// sample at or before the window start (or the oldest retained).
    /// Counter resets clamp to zero; zero traffic burns nothing.
    pub(crate) fn burn_rate(&self, now_ms: u64, window_ms: u64) -> f64 {
        let newest = match self.samples.back() {
            Some(s) => *s,
            None => return 0.0,
        };
        let start = now_ms.saturating_sub(window_ms);
        let mut base = *self.samples.front().unwrap();
        for s in &self.samples {
            if s.t_ms <= start {
                base = *s;
            } else {
                break;
            }
        }
        let d_total = newest.total.saturating_sub(base.total);
        if d_total == 0 {
            return 0.0;
        }
        let d_bad = newest.bad.saturating_sub(base.bad);
        (d_bad as f64 / d_total as f64) / self.objective
    }

    /// Current burn readings for every window pair (levels, not edges).
    pub fn readings(&self, now_ms: u64) -> Vec<BurnReading> {
        self.windows
            .iter()
            .zip(&self.firing)
            .map(|(w, &firing)| BurnReading {
                label: w.label.clone(),
                short: self.burn_rate(now_ms, w.short_ms),
                long: self.burn_rate(now_ms, w.long_ms),
                threshold: w.threshold,
                firing,
            })
            .collect()
    }

    /// Re-evaluates every window pair and returns the transitions: an
    /// alert fires when both windows reach the threshold, and resolves
    /// when the *short* window drops back under it (the long window alone
    /// keeps a resolved incident from re-paging for hours).
    pub fn evaluate(&mut self, now_ms: u64) -> Vec<SloAlert> {
        let mut transitions = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            let short = self.burn_rate(now_ms, w.short_ms);
            let long = self.burn_rate(now_ms, w.long_ms);
            let was = self.firing[i];
            let now = if was {
                short >= w.threshold
            } else {
                short >= w.threshold && long >= w.threshold
            };
            if now != was {
                self.firing[i] = now;
                if now {
                    self.alerts_total += 1;
                }
                transitions.push(SloAlert {
                    slo: self.name.clone(),
                    window: w.label.clone(),
                    firing: now,
                    burn_short: short,
                    burn_long: long,
                    threshold: w.threshold,
                });
            }
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(short_ms: u64, long_ms: u64, threshold: f64) -> SloTracker {
        SloTracker::new(
            "test",
            0.01,
            vec![BurnWindow {
                label: "fast".into(),
                short_ms,
                long_ms,
                threshold,
            }],
        )
    }

    #[test]
    fn quiet_counters_never_fire() {
        let mut t = tracker(1_000, 5_000, 2.0);
        for s in 0..20u64 {
            t.record(s * 500, 0, s * 100);
            assert!(t.evaluate(s * 500).is_empty());
        }
        assert_eq!(t.alerts_total(), 0);
    }

    #[test]
    fn sustained_burn_fires_once_then_resolves() {
        let mut t = tracker(1_000, 5_000, 2.0);
        // 10% bad against a 1% objective: burn 10 on every window.
        let mut fired = 0;
        for s in 0..12u64 {
            t.record(s * 500, s * 10, s * 100);
            for a in t.evaluate(s * 500) {
                assert!(a.firing);
                assert!(a.burn_short >= 2.0 && a.burn_long >= 2.0);
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "edge-triggered: one fire, no repeats");
        assert_eq!(t.alerts_total(), 1);
        // Burn stops: totals grow, bads freeze. Short window clears first
        // and resolves the alert.
        let mut resolved = false;
        for s in 12..30u64 {
            t.record(s * 500, 110, s * 100);
            for a in t.evaluate(s * 500) {
                assert!(!a.firing);
                resolved = true;
            }
        }
        assert!(resolved, "alert must resolve after the burn stops");
        assert_eq!(t.alerts_total(), 1, "resolve is not a new alert");
    }

    #[test]
    fn short_blip_does_not_fire_the_long_window() {
        // Long window needs sustained burn; a single bad batch inside an
        // otherwise clean long window stays under threshold.
        let mut t = tracker(1_000, 20_000, 5.0);
        for s in 0..40u64 {
            // One bad burst at t=10s worth 2% of that batch, clean before
            // and after; long window dilutes it under 5x.
            let bad = if s == 20 { 2 } else { 0 };
            let prev_bad = if s > 20 { 2 } else { 0 };
            t.record(s * 500, prev_bad + bad, s * 100);
            assert!(t.evaluate(s * 500).is_empty(), "tick {s}");
        }
    }

    #[test]
    fn counter_reset_clamps_to_zero() {
        let mut t = tracker(1_000, 5_000, 1.5);
        t.record(0, 50, 100);
        // Device replaced, counters restart from zero.
        t.record(1_000, 0, 10);
        assert_eq!(t.burn_rate(1_000, 5_000), 0.0);
        assert!(t.evaluate(1_000).is_empty());
    }

    #[test]
    fn no_traffic_is_zero_burn() {
        let mut t = tracker(1_000, 5_000, 1.5);
        t.record(0, 0, 0);
        t.record(1_000, 0, 0);
        assert_eq!(t.burn_rate(1_000, 1_000), 0.0);
        assert!(t.evaluate(1_000).is_empty());
    }

    #[test]
    fn ring_prunes_to_longest_window() {
        let mut t = tracker(1_000, 4_000, 2.0);
        for s in 0..1_000u64 {
            t.record(s * 100, 0, s);
        }
        // 4s window at 100ms cadence needs ~41 samples; allow slack but
        // assert it is not retaining the full history.
        assert!(t.samples.len() < 60, "retained {}", t.samples.len());
        // Baseline still spans the full window.
        let oldest = t.samples.front().unwrap().t_ms;
        assert!(oldest <= 1_000 * 100 - 1 - 4_000);
    }

    #[test]
    fn recording_on_every_request_keeps_the_ring_bounded_and_the_newest_live() {
        // A 60 s short window: one step is 60 ms. Ten observations a
        // millisecond for 10 s leave at most two samples a step.
        let mut t = tracker(60_000, 120_000, 2.0);
        for i in 0..100_000u64 {
            t.record(i / 10, i / 100, i);
        }
        assert!(
            t.samples.len() <= 2 * 10_000 / 60 + 2,
            "{}",
            t.samples.len()
        );
        let newest = *t.samples.back().unwrap();
        assert_eq!((newest.t_ms, newest.total), (9_999, 99_999));
        // An observation stamped before the newest is taken at its time.
        t.record(5, 1_000, 100_000);
        let newest = *t.samples.back().unwrap();
        assert_eq!((newest.t_ms, newest.bad), (9_999, 1_000));
    }

    #[test]
    fn standard_windows_shape() {
        let w = standard_windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].label, "fast");
        assert!(w[0].short_ms < w[0].long_ms);
        assert!(w[1].long_ms == 6 * 60 * 60 * 1000);
        assert!(w[0].threshold > w[1].threshold);
    }

    #[test]
    fn readings_report_levels_and_firing_state() {
        let mut t = tracker(1_000, 2_000, 2.0);
        t.record(0, 0, 0);
        t.record(2_000, 40, 100);
        let _ = t.evaluate(2_000);
        let r = &t.readings(2_000)[0];
        assert_eq!(r.label, "fast");
        assert!(r.firing);
        assert!(
            (r.long - 40.0).abs() < 1e-9,
            "0.4/0.01 = 40, got {}",
            r.long
        );
    }
}
