//! Clock abstraction so time-dependent behaviour (progress throttling,
//! event timestamps) is testable with a mock, and [`round_us`], the one
//! rounding of a measured duration to whole microseconds.

#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// `d` in whole microseconds, rounded to the nearest (a half rounds up).
/// Sum a phase's spans as `Duration`s and round the sum once: flooring each
/// span to whole µs reads ~0.5 µs low a span.
pub fn round_us(d: Duration) -> u64 {
    d.as_secs() * 1_000_000 + (u64::from(d.subsec_nanos()) + 500) / 1_000
}

/// Monotonic nanosecond source.
pub(crate) trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock implementation: nanoseconds since the clock's creation.
pub(crate) struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Hand-cranked clock for deterministic tests.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct ManualClock {
    nanos: AtomicU64,
}

#[cfg(test)]
impl ManualClock {
    /// A clock stuck at zero until advanced.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Advances by `nanos`.
    pub(crate) fn advance_nanos(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Relaxed);
    }

    /// Advances by whole milliseconds.
    pub(crate) fn advance_millis(&self, millis: u64) {
        self.advance_nanos(millis * 1_000_000);
    }
}

#[cfg(test)]
impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_by_hand() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance_millis(5);
        assert_eq!(c.now_nanos(), 5_000_000);
    }

    #[test]
    fn round_us_rounds_to_the_nearest_microsecond() {
        for (nanos, us) in [
            (0, 0),
            (499, 0),
            (999, 1),
            (1_499, 1),
            (1_500, 2),
            (2_000, 2),
            (1_000_000_499, 1_000_000),
            (2_999_999_500, 3_000_000),
        ] {
            assert_eq!(round_us(Duration::from_nanos(nanos)), us, "{nanos} ns");
        }
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
