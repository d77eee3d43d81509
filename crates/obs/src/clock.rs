//! Clock abstraction so time-dependent behaviour (progress throttling,
//! event timestamps) is testable with a mock.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Monotonic nanosecond source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock implementation: nanoseconds since the clock's creation.
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
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
#[derive(Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock stuck at zero until advanced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances by `nanos`.
    pub fn advance_nanos(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Relaxed);
    }

    /// Advances by whole milliseconds.
    pub fn advance_millis(&self, millis: u64) {
        self.advance_nanos(millis * 1_000_000);
    }
}

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
    fn monotonic_clock_moves_forward() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
