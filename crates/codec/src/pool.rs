//! Scratch-buffer arena for block-sized `Vec<u8>`s.
//!
//! Every layer of the data plane used to allocate a fresh `Vec<u8>` per
//! block it touched: encode's check accumulators, decode's recovery
//! buffers, the store's device reads, the scrubber's per-stripe scans.
//! A [`BlockPool`] turns those into buffer reuse: [`BlockPool::take_zeroed`]
//! / [`BlockPool::take_empty`] / `BlockPool::take_copy` hand out a
//! recycled buffer when one is free (a *hit* — at most a memset, no
//! allocator call once the buffer's capacity suffices) and fall back to a
//! fresh allocation otherwise (a *miss*); [`BlockPool::recycle`] returns
//! buffers once their contents are dead.
//!
//! Ownership rules:
//!
//! * Pools are single-owner and `&mut` — no locks. Cross-thread reuse goes
//!   through [`with_thread_pool`], which gives each OS thread (server
//!   engine workers, rayon scrub workers) its own pool, so the serving
//!   path never contends on the arena.
//! * Buffers that escape to a caller (a decoded payload, blocks moved
//!   into a device) simply leave the pool's custody — nothing tracks
//!   them. Recycling is an optimisation, never an obligation. One way
//!   back: a block written to a memory device that kept a failed drive's
//!   buffers lands in one of those, and the device hands the writer's
//!   buffer back to the writing thread's pool.
//! * Hit/miss totals aggregate process-wide into [`metrics`] (`pool.hit`
//!   / `pool.miss`), surfaced by the server's METRICS op.

use std::cell::RefCell;

tornado_obs::metric_set! {
    /// Process-wide pool traffic counters (see [`metrics`]).
    pub struct PoolMetrics {
        /// Block-buffer takes served from a recycled buffer.
        hits: Counter = "pool.hit", "takes";
        /// Block-buffer takes that had to allocate.
        misses: Counter = "pool.miss", "takes";
    }
}

static METRICS: PoolMetrics = PoolMetrics::new();

/// The process-wide pool hit/miss counters.
pub fn metrics() -> &'static PoolMetrics {
    &METRICS
}

/// A single-owner free list of block buffers.
#[derive(Debug)]
pub struct BlockPool {
    free: Vec<Vec<u8>>,
    max_retained: usize,
}

impl BlockPool {
    /// Default cap on retained buffers — generous for one 96-node stripe
    /// plus scratch, small enough that an idle worker pins a few MiB at
    /// most.
    pub(crate) const DEFAULT_RETAINED: usize = 256;

    /// An empty pool with the default retention cap.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_RETAINED)
    }

    /// An empty pool retaining at most `max_retained` free buffers;
    /// recycles beyond the cap are dropped (freed) instead.
    pub(crate) fn with_capacity(max_retained: usize) -> Self {
        Self {
            free: Vec::new(),
            max_retained,
        }
    }

    /// Number of buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// A zero-filled buffer of exactly `len` bytes.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                METRICS.hits.inc();
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                METRICS.misses.inc();
                vec![0u8; len]
            }
        }
    }

    /// An empty buffer with room for `len` bytes: for a block its builder
    /// appends to, so nothing is filled in only to be overwritten.
    pub fn take_empty(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                METRICS.hits.inc();
                buf.clear();
                buf.reserve(len);
                buf
            }
            None => {
                METRICS.misses.inc();
                Vec::with_capacity(len)
            }
        }
    }

    /// A buffer holding a copy of `src`.
    pub(crate) fn take_copy(&mut self, src: &[u8]) -> Vec<u8> {
        let mut buf = self.take_empty(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a dead buffer to the free list (dropped if the pool is at
    /// its retention cap or the buffer never allocated).
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free.len() < self.max_retained {
            self.free.push(buf);
        }
    }

    /// Recycles every `Some` block of a stripe scan in one sweep.
    pub fn recycle_stripe(&mut self, stripe: &mut [Option<Vec<u8>>]) {
        for slot in stripe.iter_mut() {
            if let Some(buf) = slot.take() {
                self.recycle(buf);
            }
        }
    }
}

impl Default for BlockPool {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static THREAD_POOL: RefCell<BlockPool> = RefCell::new(BlockPool::new());
}

/// Runs `f` with this thread's own [`BlockPool`]. Engine workers and rayon
/// scrub workers are plain OS threads, so each automatically owns one warm
/// pool across the requests/stripes it processes.
pub fn with_thread_pool<R>(f: impl FnOnce(&mut BlockPool) -> R) -> R {
    THREAD_POOL.with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_reuses_capacity_and_zeroes() {
        let mut pool = BlockPool::new();
        let mut buf = pool.take_zeroed(64);
        buf.iter_mut().for_each(|b| *b = 0xAA);
        let ptr = buf.as_ptr() as usize;
        let cap = buf.capacity();
        pool.recycle(buf);
        assert_eq!(pool.available(), 1);
        let again = pool.take_zeroed(32);
        assert_eq!(again.len(), 32);
        assert!(again.iter().all(|&b| b == 0), "recycled buffer is zeroed");
        assert_eq!(again.capacity(), cap, "capacity survives recycling");
        assert_eq!(again.as_ptr() as usize, ptr, "same allocation reused");
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn take_copy_round_trips_content() {
        let mut pool = BlockPool::new();
        pool.recycle(vec![0xFFu8; 128]);
        let got = pool.take_copy(b"hello pool");
        assert_eq!(got, b"hello pool");
    }

    #[test]
    fn retention_cap_drops_excess() {
        let mut pool = BlockPool::with_capacity(2);
        for _ in 0..5 {
            pool.recycle(vec![0u8; 8]);
        }
        assert_eq!(pool.available(), 2);
        // Zero-capacity buffers are not worth retaining.
        pool.recycle(Vec::new());
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn recycle_stripe_sweeps_all_blocks() {
        let mut pool = BlockPool::new();
        let mut stripe = vec![Some(vec![1u8; 16]), None, Some(vec![2u8; 16])];
        pool.recycle_stripe(&mut stripe);
        assert_eq!(pool.available(), 2);
        assert!(stripe.iter().all(Option::is_none));
    }

    #[test]
    fn hit_miss_counters_advance() {
        let hits0 = metrics().hits.get();
        let misses0 = metrics().misses.get();
        let mut pool = BlockPool::new();
        let buf = pool.take_zeroed(8); // miss
        pool.recycle(buf);
        let _ = pool.take_zeroed(8); // hit
        assert!(metrics().hits.get() > hits0);
        assert!(metrics().misses.get() > misses0);
    }

    #[test]
    fn thread_pool_is_warm_within_a_thread() {
        let first = with_thread_pool(|p| {
            let buf = p.take_zeroed(32);
            let ptr = buf.as_ptr() as usize;
            p.recycle(buf);
            ptr
        });
        let second = with_thread_pool(|p| {
            let buf = p.take_zeroed(32);
            buf.as_ptr() as usize
        });
        assert_eq!(first, second, "same thread reuses the same buffer");
    }
}
