//! Pluggable block persistence behind [`Device`](crate::Device).
//!
//! A [`BlockBackend`] stores the encoded blocks of one device. The store
//! layer above it (rotation, planning, scrubbing, repair accounting) is
//! backend-agnostic: a device backed by a `HashMap`, a directory of
//! block files, or a single append-only segment behaves identically
//! except for durability. Three implementations ship:
//!
//! * [`MemoryBackend`] (here) — the original in-memory map; nothing
//!   survives process exit. The default for `Device::new`, so every
//!   existing simulation and test is unchanged.
//! * [`FileBackend`](crate::backend_file::FileBackend) — one file per
//!   block in a per-device directory.
//! * [`SegmentBackend`](crate::backend_segment::SegmentBackend) — one
//!   append-only segment file per device with an in-memory index
//!   rebuilt by scan on open.
//!
//! A backend implements one read, [`BlockBackend::read_into`], which
//! appends a block to a buffer the caller owns and returns the checksum of
//! what it appended — the memory backend copies from its map and hashes
//! each strip as it lands (`kernels::append_checksummed`), the durable
//! ones read from the file into the buffer's spare capacity and hash that.
//! A GET passes its reply buffer, so a block's bytes are written once,
//! where they are going, and streamed from memory once; `get` (a fresh
//! `Vec`) and `get_pooled` (a recycled one) are provided on top of it.
//!
//! The read and the in-place [`BlockBackend::checksum`] both take a
//! `kernels::Ahead`: where the block the caller streams next lies, which
//! the kernel asks into L2 while this one is hashed. A caller gets it from
//! [`BlockBackend::ahead`] — the memory backend's buffer, an empty hint
//! from the durable backends, whose blocks are not in memory — and passes
//! `Ahead::NONE` when nothing follows.
//!
//! Backends report failures as `io::Error`; the device layer translates
//! those into [`DeviceStats::io_errors`](crate::DeviceStats::io_errors)
//! and degrades exactly as if the block were an erasure, so upstream
//! recovery (planner replans, scrubber repairs) applies unchanged.
//!
//! Process-wide persistence counters live in [`BackendMetrics`]
//! (`backend.*` in METRICS snapshots), following the same static-counter
//! idiom as `tornado_codec::kernels::metrics`.

use std::collections::HashMap;
use std::io;
use tornado_codec::kernels::{self, Ahead};
use tornado_codec::{pool, BlockPool};

/// Identifies a block on a device: `(object id, graph node index)`.
pub type BlockKey = (u64, u32);

/// What [`BlockBackend::read_into`] appended to the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Appended {
    /// How many bytes.
    pub len: usize,
    /// Their `tornado_codec::kernels::checksum`.
    pub checksum: u64,
}

/// Block persistence for one device.
///
/// All methods take `&mut self`: every `Device` access already goes
/// through a per-device write lock, so backends need no internal
/// synchronisation and may keep scratch state (open file handles,
/// reusable read buffers) without interior mutability.
pub trait BlockBackend: Send + Sync + std::fmt::Debug {
    /// Stores a block, overwriting any previous content under `key`.
    fn put(&mut self, key: BlockKey, data: &[u8]) -> io::Result<()>;

    /// Stores a block the backend may take ownership of. The default
    /// forwards to [`BlockBackend::put`]; [`MemoryBackend`] overrides it
    /// to move the buffer in without a copy, preserving the zero-clone
    /// ingest path the data-plane work established.
    fn put_owned(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()> {
        self.put(key, &data)
    }

    /// The one read every backend implements: appends the block's bytes
    /// to `out` — straight from the map, the file or the segment, into the
    /// caller's spare capacity — and returns how many and their checksum;
    /// `Ok(None)` when absent. A GET passes its reply buffer, so a block is
    /// written once, where it is going, and verified without being streamed
    /// a second time. `next` is the hint of the block the caller streams
    /// after this one ([`BlockBackend::ahead`]), handed to the kernel;
    /// [`Ahead::NONE`] when there is none. After an `Err`, bytes past
    /// `out`'s entry length are garbage the caller truncates away
    /// ([`Device`](crate::Device) does).
    fn read_into(
        &mut self,
        key: &BlockKey,
        out: &mut Vec<u8>,
        next: Ahead,
    ) -> io::Result<Option<Appended>>;

    /// Reads a block into a fresh `Vec`; `Ok(None)` when absent.
    fn get(&mut self, key: &BlockKey) -> io::Result<Option<Vec<u8>>> {
        let mut block = Vec::new();
        Ok(self.read_into(key, &mut block, Ahead::NONE)?.map(|_| block))
    }

    /// Reads a block into a buffer drawn from `pool` (see
    /// `tornado_codec::pool`), which gets it back when the block is absent.
    fn get_pooled(&mut self, key: &BlockKey, pool: &mut BlockPool) -> io::Result<Option<Vec<u8>>> {
        let mut block = pool.take_zeroed(0);
        match self.read_into(key, &mut block, Ahead::NONE) {
            Ok(Some(_)) => Ok(Some(block)),
            miss => {
                pool.recycle(block);
                miss.map(|_| None)
            }
        }
    }

    /// Word-wide FNV checksum (`tornado_codec::kernels::checksum`) of
    /// the stored bytes, without handing out a copy — the scrub verify
    /// tier's read path; `next` as for [`BlockBackend::read_into`].
    /// `Ok(None)` when absent.
    fn checksum(&mut self, key: &BlockKey, next: Ahead) -> io::Result<Option<u64>>;

    /// Where a block's bytes lie, as the hint a caller passes to the read
    /// or verify it makes *before* this block's, so the kernel asks for
    /// them while that one is hashed. An index lookup: nothing is read.
    /// Empty when absent, and on a backend whose blocks are not in memory
    /// (the default: the durable backends read a block into a buffer only
    /// when asked for it).
    fn ahead(&self, _key: &BlockKey) -> Ahead {
        Ahead::NONE
    }

    /// Whether a block is present (index lookup only; no data read).
    fn contains(&self, key: &BlockKey) -> bool;

    /// Removes a block; returns whether it was present.
    fn delete(&mut self, key: &BlockKey) -> io::Result<bool>;

    /// Number of blocks currently stored.
    fn block_count(&self) -> usize;

    /// Durability point: flush outstanding writes to stable storage.
    /// A no-op for memory; fsync for the durable backends.
    fn flush(&mut self) -> io::Result<()>;

    /// Destroys all contents (device failure / replacement). The
    /// backend stays usable and empty afterwards (the memory backend keeps
    /// the buffers for its next writes; see [`MemoryBackend`]).
    fn destroy(&mut self) -> io::Result<()>;

    /// Failure-injection hook: XORs `mask` into the first byte of the
    /// stored block, bypassing every integrity layer — the simulated
    /// form of bit rot. Returns whether the block existed. (Real rot on
    /// durable backends is injected by writing garbage into the backing
    /// files out-of-band; see `tests/bitrot_scrub.rs`.)
    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool>;

    /// Human-readable backend label (`"memory"`, `"file"`, `"segment"`).
    fn kind(&self) -> &'static str;
}

/// The original in-memory map backend: fast, infallible, volatile.
///
/// A destroyed device keeps its block buffers as *spares*, and its next
/// writes land in them: a failed drive's memory becomes its replacement's.
/// (Freed instead, it would stay a hole in the allocator arena of whichever
/// thread freed it, while the rebuilt blocks arrive from the scrub workers'
/// arenas — every replacement would double the device's footprint.)
///
/// * [`BlockBackend::destroy`] moves every block buffer into the spares.
///   Nothing reads a spare: `contains`, `read_into`, `checksum`, `corrupt`
///   and `block_count` see only the map, which is empty.
/// * A write (`put` or `put_owned`) takes the newest spare. If it *fits* —
///   capacity at least the block's length and at most twice it — the block
///   is copied into it, and `put_owned` recycles the caller's buffer into
///   the calling thread's `tornado_codec::pool::with_thread_pool`. A spare
///   that does not fit is freed, never grown.
/// * So the spares drain by one per write, and blocks + spares never exceed
///   what the device held when it was destroyed.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    blocks: HashMap<BlockKey, Vec<u8>>,
    spares: Vec<Vec<u8>>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// The newest spare, emptied, if it fits a block of `len` bytes; a
    /// spare that does not fit is dropped.
    fn take_spare(&mut self, len: usize) -> Option<Vec<u8>> {
        let mut spare = self.spares.pop()?;
        (len..=2 * len).contains(&spare.capacity()).then(|| {
            spare.clear();
            spare
        })
    }
}

impl BlockBackend for MemoryBackend {
    fn put(&mut self, key: BlockKey, data: &[u8]) -> io::Result<()> {
        let block = match self.take_spare(data.len()) {
            Some(mut spare) => {
                spare.extend_from_slice(data);
                spare
            }
            None => data.to_vec(),
        };
        self.blocks.insert(key, block);
        Ok(())
    }

    fn put_owned(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()> {
        let block = match self.take_spare(data.len()) {
            Some(mut spare) => {
                spare.extend_from_slice(&data);
                pool::with_thread_pool(|p| p.recycle(data));
                spare
            }
            None => data,
        };
        self.blocks.insert(key, block);
        Ok(())
    }

    fn read_into(
        &mut self,
        key: &BlockKey,
        out: &mut Vec<u8>,
        next: Ahead,
    ) -> io::Result<Option<Appended>> {
        Ok(self.blocks.get(key).map(|b| Appended {
            len: b.len(),
            checksum: kernels::append_checksummed(out, b, next),
        }))
    }

    fn checksum(&mut self, key: &BlockKey, next: Ahead) -> io::Result<Option<u64>> {
        Ok(self.blocks.get(key).map(|b| kernels::checksum(b, next)))
    }

    fn ahead(&self, key: &BlockKey) -> Ahead {
        self.blocks.get(key).map_or(Ahead::NONE, |b| Ahead::of(b))
    }

    fn contains(&self, key: &BlockKey) -> bool {
        self.blocks.contains_key(key)
    }

    fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
        Ok(self.blocks.remove(key).is_some())
    }

    fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn destroy(&mut self) -> io::Result<()> {
        self.spares
            .extend(self.blocks.drain().map(|(_, block)| block));
        Ok(())
    }

    fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool> {
        match self.blocks.get_mut(key) {
            Some(b) if !b.is_empty() => {
                b[0] ^= mask;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

tornado_obs::metric_set! {
    /// Process-wide persistence counters: moved by durable stores only
    /// (`ArchivalStore::open`), by PUT/DELETE and by recovery-on-open.
    #[derive(Debug)]
    pub struct BackendMetrics {
        /// Intent-journal records appended (intents, commits, deletes).
        journal_appends: Counter = "backend.journal_appends", "records";
        /// Journal records replayed during recovery-on-open.
        journal_replays: Counter = "backend.journal_replays", "records";
        /// Torn (intent-without-commit) PUTs rolled back during recovery.
        journal_rollbacks: Counter = "backend.journal_rollbacks", "puts";
        /// fsync / fdatasync calls issued by journals, sidecars and durable
        /// backends.
        fsyncs: Counter = "backend.fsyncs", "calls";
        /// Recovery-on-open passes completed.
        recoveries: Counter = "backend.recoveries", "passes";
        /// Wall time spent in recovery-on-open.
        recovery_us: Counter = "backend.recovery_us", "us";
        /// Bytes scanned rebuilding segment indexes and replaying journals.
        scan_bytes: Counter = "backend.scan_bytes", "bytes";
    }
}

static METRICS: BackendMetrics = BackendMetrics::new();

/// The process-wide persistence counters.
pub fn metrics() -> &'static BackendMetrics {
    &METRICS
}

/// What a durable backend's read reports once `read_to_end` has landed a
/// block at `out[start..]`: its length and the checksum of it where it is,
/// with `next` handed to the kernel.
pub(crate) fn appended_since(out: &[u8], start: usize, next: Ahead) -> Appended {
    Appended {
        len: out.len() - start,
        checksum: kernels::checksum(&out[start..], next),
    }
}

/// Fsync helper used by every durable-path sync so the `backend.fsyncs`
/// counter can't drift from reality.
pub(crate) fn sync_file(f: &std::fs::File) -> io::Result<()> {
    f.sync_data()?;
    METRICS.fsyncs.add(1);
    Ok(())
}

#[cfg(test)]
pub(crate) mod hooked {
    //! The unit tests' delegating test double: a device that behaves like
    //! a [`MemoryBackend`] in every respect but lets a test see, or hold,
    //! its reads.

    use super::*;

    /// Which of a backend's two reads served a block.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Served {
        /// [`BlockBackend::read_into`].
        Read,
        /// [`BlockBackend::checksum`].
        Checksum,
    }

    /// A [`MemoryBackend`] that calls its hook with the key of every
    /// `read_into` and `checksum` before serving it, and forwards every
    /// method, so it ingests, hints and reads like the device it stands in
    /// for. A hook records the read, or waits until the test releases it.
    pub(crate) struct HookedBackend<F> {
        inner: MemoryBackend,
        hook: F,
    }

    impl<F: Fn(Served, &BlockKey) + Send + Sync> HookedBackend<F> {
        pub(crate) fn new(hook: F) -> Self {
            Self {
                inner: MemoryBackend::new(),
                hook,
            }
        }
    }

    impl<F> std::fmt::Debug for HookedBackend<F> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("HookedBackend")
                .field("inner", &self.inner)
                .finish_non_exhaustive()
        }
    }

    impl<F: Fn(Served, &BlockKey) + Send + Sync> BlockBackend for HookedBackend<F> {
        fn put(&mut self, key: BlockKey, data: &[u8]) -> io::Result<()> {
            self.inner.put(key, data)
        }
        fn put_owned(&mut self, key: BlockKey, data: Vec<u8>) -> io::Result<()> {
            self.inner.put_owned(key, data)
        }
        fn read_into(
            &mut self,
            key: &BlockKey,
            out: &mut Vec<u8>,
            next: Ahead,
        ) -> io::Result<Option<Appended>> {
            (self.hook)(Served::Read, key);
            self.inner.read_into(key, out, next)
        }
        fn checksum(&mut self, key: &BlockKey, next: Ahead) -> io::Result<Option<u64>> {
            (self.hook)(Served::Checksum, key);
            self.inner.checksum(key, next)
        }
        fn ahead(&self, key: &BlockKey) -> Ahead {
            self.inner.ahead(key)
        }
        fn contains(&self, key: &BlockKey) -> bool {
            self.inner.contains(key)
        }
        fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
            self.inner.delete(key)
        }
        fn block_count(&self) -> usize {
            self.inner.block_count()
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
        fn destroy(&mut self) -> io::Result<()> {
            self.inner.destroy()
        }
        fn corrupt(&mut self, key: &BlockKey, mask: u8) -> io::Result<bool> {
            self.inner.corrupt(key, mask)
        }
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_roundtrip_and_corrupt() {
        let mut b = MemoryBackend::new();
        assert_eq!(b.kind(), "memory");
        b.put((1, 2), &[9, 8, 7]).unwrap();
        assert!(b.contains(&(1, 2)));
        assert_eq!(b.get(&(1, 2)).unwrap().unwrap(), vec![9, 8, 7]);
        let sum = b.checksum(&(1, 2), Ahead::NONE).unwrap().unwrap();
        assert_eq!(sum, tornado_codec::checksum(&[9, 8, 7]));
        assert!(b.corrupt(&(1, 2), 0xff).unwrap());
        assert_ne!(b.checksum(&(1, 2), Ahead::NONE).unwrap().unwrap(), sum);
        assert!(b.delete(&(1, 2)).unwrap());
        assert!(!b.delete(&(1, 2)).unwrap());
        assert_eq!(b.block_count(), 0);
        assert!(b.get(&(1, 2)).unwrap().is_none());
    }

    #[test]
    fn one_read_serves_all_three_on_every_backend() {
        use crate::backend_file::FileBackend;
        use crate::backend_segment::SegmentBackend;
        let dir = std::env::temp_dir().join(format!("tornado-backend-read-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut backends: Vec<Box<dyn BlockBackend>> = vec![
            Box::new(MemoryBackend::new()),
            Box::new(FileBackend::open(&dir.join("file"), false).unwrap()),
            Box::new(SegmentBackend::open(&dir.join("seg"), false).unwrap()),
        ];
        for b in &mut backends {
            let block: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
            b.put((1, 0), &block).unwrap();
            b.put((1, 1), &[]).unwrap();

            // The primitive appends behind what the caller already has,
            // into capacity the caller reserved.
            let mut out = Vec::with_capacity(3 + 2 * block.len());
            out.extend_from_slice(&[0xEE; 3]);
            let at = out.as_ptr();
            let whole = Appended {
                len: block.len(),
                checksum: tornado_codec::checksum(&block),
            };
            let empty = Appended {
                len: 0,
                checksum: tornado_codec::checksum(&[]),
            };
            assert_eq!(
                b.read_into(&(1, 0), &mut out, Ahead::NONE).unwrap(),
                Some(whole)
            );
            assert_eq!(
                b.read_into(&(1, 1), &mut out, Ahead::NONE).unwrap(),
                Some(empty)
            );
            assert_eq!(b.read_into(&(9, 9), &mut out, Ahead::NONE).unwrap(), None);
            assert_eq!(
                b.read_into(&(1, 0), &mut out, Ahead::NONE).unwrap(),
                Some(whole)
            );
            assert_eq!(out[..3], [0xEE; 3]);
            assert_eq!(out[3..3 + block.len()], block[..]);
            assert_eq!(out[3 + block.len()..], block[..]);
            assert_eq!(out.as_ptr(), at, "{}: no reallocation", b.kind());

            assert_eq!(b.get(&(1, 0)).unwrap().unwrap(), block);
            assert!(b.get(&(9, 9)).unwrap().is_none());
            let mut pool = BlockPool::new();
            pool.recycle(Vec::with_capacity(8192));
            let pooled = b.get_pooled(&(1, 0), &mut pool).unwrap().unwrap();
            assert_eq!(pooled, block);
            assert_eq!(
                (pooled.capacity(), pool.available()),
                (8192, 0),
                "the pool's buffer"
            );
            pool.recycle(pooled);
            assert!(b.get_pooled(&(9, 9), &mut pool).unwrap().is_none());
            assert_eq!(pool.available(), 1, "a miss hands the buffer back");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroy_empties() {
        let mut b = MemoryBackend::new();
        for i in 0..4 {
            b.put((i, 0), &[i as u8]).unwrap();
        }
        b.destroy().unwrap();
        assert_eq!(b.block_count(), 0);
        b.put((9, 9), &[1]).unwrap();
        assert_eq!(b.block_count(), 1);
    }

    /// A backend holding `n` blocks of `len` bytes under keys `(i, 0)`.
    fn filled(n: u64, len: usize) -> MemoryBackend {
        let mut b = MemoryBackend::new();
        for i in 0..n {
            b.put_owned((i, 0), vec![i as u8; len]).unwrap();
        }
        b
    }

    #[test]
    fn a_block_written_after_destroy_lives_in_a_spare() {
        let mut b = filled(4, 1000);
        b.destroy().unwrap();
        assert_eq!(b.spares.len(), 4);

        // put_owned: the bytes are copied into the newest spare, and the
        // caller's buffer goes to this thread's pool.
        let spare = b.spares.last().unwrap().as_ptr();
        let rebuilt = vec![0xAB; 1000];
        let theirs = rebuilt.as_ptr();
        let pooled = pool::with_thread_pool(|p| p.available());
        b.put_owned((7, 1), rebuilt).unwrap();
        let mut out = Vec::new();
        b.read_into(&(7, 1), &mut out, Ahead::NONE)
            .unwrap()
            .unwrap();
        assert_eq!(out, [0xAB; 1000]);
        assert_eq!(b.blocks[&(7, 1)].as_ptr(), spare, "the spare's memory");
        let recycled = pool::with_thread_pool(|p| {
            assert_eq!(p.available(), pooled + 1, "one buffer handed back");
            p.take_empty(1000)
        });
        assert_eq!(recycled.as_ptr(), theirs, "the caller's buffer");

        // put: copied into the next spare, nothing handed anywhere.
        let spare = b.spares.last().unwrap().as_ptr();
        b.put((7, 2), &[0xCD; 999]).unwrap();
        assert_eq!(b.blocks[&(7, 2)].as_ptr(), spare);
        assert_eq!(b.get(&(7, 2)).unwrap().unwrap(), [0xCD; 999]);
        assert_eq!(b.spares.len(), 2);
        assert_eq!(pool::with_thread_pool(|p| p.available()), pooled);
    }

    #[test]
    fn no_spare_is_visible_after_destroy() {
        let mut b = filled(3, 64);
        b.destroy().unwrap();
        assert_eq!(b.spares.len(), 3, "the buffers are kept");
        for i in 0..3 {
            let key = (i, 0);
            assert!(!b.contains(&key));
            let mut out = vec![0xEE];
            assert_eq!(b.read_into(&key, &mut out, Ahead::NONE).unwrap(), None);
            assert_eq!(out, [0xEE], "nothing appended");
            assert_eq!(b.checksum(&key, Ahead::NONE).unwrap(), None);
            assert!(b.ahead(&key).is_empty());
            assert!(!b.corrupt(&key, 0xFF).unwrap());
            assert!(!b.delete(&key).unwrap());
        }
        assert_eq!(b.block_count(), 0);
        // A second destroy (a failed device, then its replacement) keeps them.
        b.destroy().unwrap();
        assert_eq!((b.block_count(), b.spares.len()), (0, 3));
    }

    #[test]
    fn a_misfit_spare_is_freed_not_used() {
        // Exactly the block's length and exactly twice it both fit.
        for (spare_len, block_len, fits) in [
            (1000, 1000, true),
            (1000, 500, true),
            (1000, 1001, false),
            (1000, 499, false),
            (0, 0, true),
            (0, 1, false),
        ] {
            let mut b = filled(1, spare_len);
            b.destroy().unwrap();
            let spare = b.spares[0].as_ptr();
            let block = vec![0x5A; block_len];
            let theirs = block.as_ptr();
            b.put_owned((9, 0), block).unwrap();
            let stored = &b.blocks[&(9, 0)];
            assert_eq!(stored[..], vec![0x5A; block_len][..]);
            let case = format!("spare {spare_len} B, block {block_len} B");
            let expect = if fits { spare } else { theirs };
            assert_eq!(stored.as_ptr(), expect, "{case}: fits {fits}");
            assert!(b.spares.is_empty(), "{case}: the spare is gone either way");
        }
    }

    #[test]
    fn blocks_and_spares_never_exceed_the_count_before_destroy() {
        use rand::{Rng, SeedableRng};
        const SEED: u64 = 0x5BA2E;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(SEED);
        let lens = [0usize, 100, 4096, 21_848];
        let mut b = MemoryBackend::new();
        for i in 0..64u64 {
            b.put_owned((i, 0), vec![1; lens[i as usize % lens.len()]])
                .unwrap();
        }
        b.destroy().unwrap();
        // Random lengths, so some spares fit and some are freed; a second
        // destroy part-way (a device failed again) folds the blocks back.
        for step in 0..85u64 {
            let len = lens[rng.gen_range(0..lens.len())];
            if rng.gen_bool(0.5) {
                b.put_owned((step, 1), vec![2; len]).unwrap();
            } else {
                b.put((step, 1), &vec![2; len]).unwrap();
            }
            if step == 20 {
                b.destroy().unwrap();
            }
            assert!(
                b.block_count() + b.spares.len() <= 64,
                "seed {SEED:#x} step {step}: {} blocks + {} spares",
                b.block_count(),
                b.spares.len()
            );
        }
        assert_eq!(
            (b.block_count(), b.spares.len()),
            (64, 0),
            "seed {SEED:#x}: drained by one per write"
        );
    }
}
