//! Throttled progress reporting with rate and ETA.
//!
//! A [`Progress`] is shared by every rayon worker of a sweep: workers call
//! [`Progress::add`] with completed-trial batches (a sharded counter add),
//! and at most one render happens per wall-clock interval — claimed by a
//! compare-exchange on the last-render stamp, so a 16-way sweep never
//! stampedes stderr. Rendering goes to stderr (in-place `\r` updates on a
//! terminal, plain throttled lines otherwise), to a memory buffer (tests),
//! or nowhere (`--quiet`).

use crate::clock::{Clock, MonotonicClock};
use crate::counter::Counter;
use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where progress renders.
#[derive(Clone)]
pub(crate) enum ProgressTarget {
    /// Throttled lines (or in-place updates on a tty) to stderr.
    Stderr,
    /// No output; counting still works.
    Silent,
    /// Collected lines, for tests.
    Memory(Arc<Mutex<Vec<String>>>),
}

/// How to build progress reporters: interval, destination, clock.
#[derive(Clone)]
pub struct ProgressConfig {
    /// Minimum wall-clock time between renders.
    pub interval: Duration,
    /// Render destination.
    pub(crate) target: ProgressTarget,
    /// Time source (tests swap in a hand-cranked clock).
    pub(crate) clock: Arc<dyn Clock>,
}

impl ProgressConfig {
    /// Renders to stderr every 200 ms.
    pub fn stderr() -> Self {
        Self {
            interval: Duration::from_millis(200),
            target: ProgressTarget::Stderr,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Counts without rendering.
    pub fn silent() -> Self {
        Self {
            target: ProgressTarget::Silent,
            ..Self::stderr()
        }
    }

    /// Collects rendered lines into the returned buffer.
    pub fn memory() -> (Self, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let cfg = Self {
            target: ProgressTarget::Memory(buf.clone()),
            ..Self::stderr()
        };
        (cfg, buf)
    }

    /// Overrides the render interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Overrides the clock.
    #[cfg(test)]
    pub(crate) fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Starts a reporter for a phase of `total` work units (0 = unknown).
    pub fn start(&self, label: impl Into<String>, total: u64) -> Progress {
        let now = self.clock.now_nanos();
        let interval_nanos = self.interval.as_nanos() as u64;
        Progress {
            label: label.into(),
            total,
            done: Counter::new(),
            started_nanos: now,
            // Sentinel: the first `add` renders immediately.
            last_render_nanos: AtomicU64::new(NEVER_RENDERED),
            interval_nanos,
            target: self.target.clone(),
            clock: self.clock.clone(),
        }
    }
}

/// `last_render_nanos` sentinel meaning "never rendered yet".
const NEVER_RENDERED: u64 = u64::MAX;

/// A live progress reporter for one phase.
pub struct Progress {
    label: String,
    total: u64,
    done: Counter,
    started_nanos: u64,
    last_render_nanos: AtomicU64,
    interval_nanos: u64,
    target: ProgressTarget,
    clock: Arc<dyn Clock>,
}

impl Progress {
    /// Records `n` completed units; renders if the interval elapsed.
    pub fn add(&self, n: u64) {
        self.done.add(n);
        if !matches!(self.target, ProgressTarget::Silent) {
            self.maybe_render(false);
        }
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done.get()
    }

    /// Forces a final render (with a terminating newline on a tty).
    pub fn finish(&self) {
        if !matches!(self.target, ProgressTarget::Silent) {
            self.maybe_render(true);
        }
    }

    fn maybe_render(&self, force: bool) {
        let now = self.clock.now_nanos();
        let last = self.last_render_nanos.load(Relaxed);
        if !force && last != NEVER_RENDERED && now.saturating_sub(last) < self.interval_nanos {
            return;
        }
        // One thread wins the render; losers skip rather than queue.
        if self
            .last_render_nanos
            .compare_exchange(last, now, Relaxed, Relaxed)
            .is_err()
        {
            return;
        }
        let line = self.render_line(now);
        match &self.target {
            ProgressTarget::Silent => {}
            ProgressTarget::Memory(buf) => buf.lock().unwrap().push(line),
            ProgressTarget::Stderr => {
                let stderr = std::io::stderr();
                if stderr.is_terminal() {
                    let mut h = stderr.lock();
                    let _ = write!(h, "\r{line}\x1b[K");
                    if force {
                        let _ = writeln!(h);
                    }
                    let _ = h.flush();
                } else {
                    let _ = writeln!(stderr.lock(), "{line}");
                }
            }
        }
    }

    fn render_line(&self, now: u64) -> String {
        let done = self.done.get();
        let elapsed_s = now.saturating_sub(self.started_nanos) as f64 / 1e9;
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let mut line = String::new();
        if self.total > 0 {
            let pct = 100.0 * done as f64 / self.total as f64;
            line.push_str(&format!(
                "{}  {pct:5.1}% ({done}/{})  {}/s",
                self.label,
                self.total,
                human_count(rate)
            ));
            if rate > 0.0 && done < self.total {
                let eta = (self.total - done) as f64 / rate;
                line.push_str(&format!("  eta {}", human_duration(eta)));
            }
        } else {
            line.push_str(&format!("{}  {done}  {}/s", self.label, human_count(rate)));
        }
        line
    }
}

/// `1234567.0` → `"1.23M"`.
fn human_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Seconds → `"42s"` / `"3m20s"` / `"2h05m"`.
fn human_duration(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else if secs >= 10.0 {
        format!("{s}s")
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_setup(interval_ms: u64) -> (Arc<ManualClock>, Progress, Arc<Mutex<Vec<String>>>) {
        let clock = Arc::new(ManualClock::new());
        clock.advance_millis(1); // away from the zero epoch
        let (cfg, buf) = ProgressConfig::memory();
        let cfg = cfg
            .with_interval(Duration::from_millis(interval_ms))
            .with_clock(clock.clone());
        let p = cfg.start("sweep k=4", 1000);
        (clock, p, buf)
    }

    #[test]
    fn emission_is_throttled_to_the_interval() {
        let (clock, p, buf) = manual_setup(100);
        p.add(10); // first add renders immediately
        p.add(10);
        p.add(10);
        assert_eq!(buf.lock().unwrap().len(), 1, "interval not yet elapsed");
        clock.advance_millis(99);
        p.add(10);
        assert_eq!(buf.lock().unwrap().len(), 1, "1ms short of the interval");
        clock.advance_millis(1);
        p.add(10);
        assert_eq!(buf.lock().unwrap().len(), 2);
        clock.advance_millis(250);
        p.add(10);
        assert_eq!(buf.lock().unwrap().len(), 3);
        assert_eq!(p.done(), 60);
    }

    #[test]
    fn finish_forces_a_render() {
        let (_clock, p, buf) = manual_setup(1000);
        p.add(500);
        p.finish();
        let lines = buf.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("(500/1000)"), "{:?}", lines[1]);
        assert!(lines[1].contains("50.0%"), "{:?}", lines[1]);
    }

    #[test]
    fn rate_and_eta_use_the_mock_clock() {
        let (clock, p, buf) = manual_setup(100);
        clock.advance_millis(1000);
        p.add(500); // 500 units in ~1s → 500/s, 500 left → eta ~1s
        let lines = buf.lock().unwrap();
        let line = lines.last().unwrap();
        assert!(line.contains("500/s"), "{line:?}");
        assert!(line.contains("eta 1.0s"), "{line:?}");
    }

    #[test]
    fn silent_target_counts_without_output() {
        let cfg = ProgressConfig::silent();
        let p = cfg.start("quiet", 10);
        p.add(7);
        p.finish();
        assert_eq!(p.done(), 7);
    }

    #[test]
    fn unknown_total_renders_bare_count() {
        let clock = Arc::new(ManualClock::new());
        clock.advance_millis(1);
        let (cfg, buf) = ProgressConfig::memory();
        let p = cfg.with_clock(clock).start("scan", 0);
        p.add(42);
        let lines = buf.lock().unwrap();
        assert!(lines[0].starts_with("scan  42"), "{:?}", lines[0]);
        assert!(!lines[0].contains('%'));
    }

    #[test]
    fn human_formats() {
        assert_eq!(human_count(12.0), "12");
        assert_eq!(human_count(1_234.0), "1.2k");
        assert_eq!(human_count(1_234_567.0), "1.23M");
        assert_eq!(human_count(2.5e9), "2.50G");
        assert_eq!(human_duration(5.25), "5.2s");
        assert_eq!(human_duration(42.0), "42s");
        assert_eq!(human_duration(200.0), "3m20s");
        assert_eq!(human_duration(7500.0), "2h05m");
    }
}
