//! Sharded relaxed-atomic counters and gauges.
//!
//! Hot paths (the decode kernels) never touch these directly — they count
//! into plain-u64 [`crate::Recorder`] cells and flush batches here — but
//! medium-frequency paths (per-range progress, per-batch merges, scrub
//! passes) hit them from many rayon workers at once. Each counter spreads
//! its value over cache-line-padded shards indexed by a per-thread slot, so
//! concurrent adds do not bounce one line between cores; `get` folds the
//! shards. All operations are `Relaxed`: these are statistics, not
//! synchronisation, and the final fold happens after the parallel section
//! joins (rayon's pool join provides the happens-before edge).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Shards per counter. Enough to keep a typical core count from colliding;
/// threads beyond this wrap around and share.
const SHARDS: usize = 16;

/// One cache line per shard so adjacent shards never false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

impl Shard {
    // Deliberately a const: it seeds the `[Shard; SHARDS]` array repeat,
    // where each use instantiates a fresh atomic (never shared state).
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Shard = Shard(AtomicU64::new(0));
}

/// Monotone increment-only counter, sharded across threads.
pub struct Counter {
    shards: [Shard; SHARDS],
}

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread shard index: threads are numbered at first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Relaxed) % SHARDS;
}

impl Counter {
    /// A zeroed counter (usable in `static`s).
    pub const fn new() -> Self {
        Self {
            shards: [Shard::ZERO; SHARDS],
        }
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            THREAD_SLOT.with(|&s| self.shards[s].0.fetch_add(n, Relaxed));
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Folds the shards into the current total.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Last-write-wins integer gauge (signed: margins can go below zero).
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v as u64, Relaxed);
    }

    /// Reads the gauge.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed) as i64
    }

    /// Adjusts the gauge by `delta` (negative to decrement) — for
    /// point-in-time occupancy counts maintained by inc/dec pairs.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta as u64, Relaxed);
    }

    /// Raises the gauge to `v` if larger (monotone high-water mark).
    pub fn raise(&self, v: i64) {
        let mut cur = self.value.load(Relaxed);
        while (cur as i64) < v {
            match self
                .value
                .compare_exchange_weak(cur, v as u64, Relaxed, Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = Gauge::new();
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.raise(3);
        assert_eq!(g.get(), 3);
        g.raise(-10);
        assert_eq!(g.get(), 3, "raise never lowers");
    }

    #[test]
    fn concurrent_adds_from_std_threads_sum_exactly() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
