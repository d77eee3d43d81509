//! Storage devices with failure injection, backed by pluggable
//! [`BlockBackend`]s.
//!
//! Each device stores named blocks and keeps access counters; every read
//! is [`Device::read_block_into`], one append into the caller's buffer
//! that also reports the checksum of what it appended, attributed to a
//! [`ReadClass`], and every in-place check [`Device::verify_block`] — or,
//! for a scrub, `Device::verify_four`, four devices' blocks in one kernel
//! pass. They take the hint of the block the caller streams next. Whether
//! a block is here, and that hint, are one index lookup,
//! [`Device::locate`], which counts no access. A repair scrub's replay
//! reads its cone where the devices hold it, `Device::lend`, each lent
//! block one repair-class read. `Device::new` keeps the original volatile
//! in-memory backend (the simulation default); durable stores attach file
//! or segment backends via [`Device::with_backend`] (see
//! [`crate::durable`]).
//!
//! **Locks.** A device's state — online or not, and its backend — sits
//! behind a `parking_lot::RwLock`, and its counters are atomics beside it.
//! A read, a verify, a four-block verify, a lend and a `locate` take the
//! read lock, so any number of them run at once on one device, and a
//! failure flips the device offline between two of them, atomically.
//! What changes the blocks or the state — a write, a delete, a flush,
//! `corrupt_block`, a failure and a replacement — takes the write lock,
//! and waits for the readers to leave.
//!
//! Backend I/O failures (a read error, a failed fsync) are counted in
//! [`DeviceStats::io_errors`] — distinct from the offline-rejection
//! counters — and the affected block is reported absent, so the coding
//! layer treats real storage trouble exactly like an erasure.
//!
//! **Lock order.** Two calls hold more than one device lock, both read
//! locks of a scrub: `Device::verify_four`, which hashes four blocks of a
//! stripe on four devices in one kernel pass, and `Device::lend`, which
//! holds a stripe's repair cone — a few dozen devices — for the replay
//! that reads it. Each takes its locks in ascending device id, and holds
//! nothing else while it has them: no store lock, no lock of a device it
//! did not name. `verify_four` holds them for one four-block hash; `lend`
//! for one stripe's replay, which a write, delete, failure or replacement
//! of any of those devices waits for. Read locks alone cannot wait for
//! each other, but the order still matters: the vendored `parking_lot`
//! wraps `std::sync::RwLock`, and on Linux a `read()` waits behind a
//! writer already queued. Two multi-lock calls taking two devices in
//! opposite orders, and a write queued on each, would wait in a cycle.
//! Every other device lock is taken alone and released before the next is
//! taken — reads, verifies, writes, deletes, `locate`,
//! [`ArchivalStore::fail_device`](crate::ArchivalStore::fail_device) and
//! `replace_device` (one device each), and
//! `ArchivalStore::write_raw_block`, which writes, flushes and deletes
//! under separate acquisitions and takes the object map's lock only
//! between them. So every thread that waits for a device lock while
//! holding one holds lower ids than the one it waits for, and no cycle of
//! waits can form.

use crate::backend::{Appended, BlockBackend, MemoryBackend, Resident};
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use tornado_codec::kernels::{self, Ahead};
use tornado_codec::pool;

pub(crate) use crate::backend::BlockKey;

/// Outcome of a zero-copy checksum probe ([`Device::verify_block`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockProbe {
    /// The block is present and its checksum matches.
    Ok,
    /// The device is offline or the block is absent — an erasure.
    Missing,
    /// The block is present but its bytes no longer hash to the expected
    /// digest: silent bit rot, treated as an erasure by the coding layer.
    Corrupt,
}

/// Why a block is being read — the attribution axis of the repair-cost
/// accounting layer. Devices tally bytes separately per class so "how much
/// of this disk's traffic is repair?" is answerable without sampling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadClass {
    /// A read serving user data directly (a data block fetched for a GET).
    #[default]
    Payload,
    /// A read feeding reconstruction: check blocks for a degraded GET,
    /// scrub tier-3 stripe reads, federation cross-site fetches.
    Repair,
}

/// Access/health counters for a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Successful block reads served.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Reads rejected because the device was offline.
    pub failed_reads: u64,
    /// Writes rejected because the device was offline.
    pub failed_writes: u64,
    /// In-place checksum probes served ([`Device::verify_block`]) — the
    /// scrub verify tier's accesses, counted separately from `reads`
    /// because no block bytes leave the device.
    pub verifies: u64,
    /// Total bytes served by successful reads (all classes).
    pub bytes_read: u64,
    /// Subset of [`DeviceStats::bytes_read`] served to
    /// [`ReadClass::Repair`] readers.
    pub bytes_repair_read: u64,
    /// Backend I/O failures (read/write/fsync errors from the storage
    /// layer itself) — distinct from `failed_reads`/`failed_writes`,
    /// which count offline rejections of a healthy backend. Non-zero
    /// here means the *media* is misbehaving.
    pub io_errors: u64,
    /// Times the device was failed
    /// ([`ArchivalStore::fail_device`](crate::ArchivalStore::fail_device)).
    pub failures: u64,
    /// Times the device was brought back as a replacement.
    pub replacements: u64,
}

/// The live counters behind [`DeviceStats`], beside the state lock: a read
/// moves two of them (`reads`, and its class's bytes), and needs no write
/// lock to do so.
#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    failed_reads: AtomicU64,
    failed_writes: AtomicU64,
    verifies: AtomicU64,
    /// `bytes_read` less `bytes_repair_read`.
    bytes_payload_read: AtomicU64,
    bytes_repair_read: AtomicU64,
    io_errors: AtomicU64,
    failures: AtomicU64,
    replacements: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

#[derive(Debug)]
struct DeviceState {
    online: bool,
    backend: Box<dyn BlockBackend>,
}

/// One storage device.
#[derive(Debug)]
pub struct Device {
    id: usize,
    state: RwLock<DeviceState>,
    counters: Counters,
}

impl Device {
    /// A fresh, online, empty device on the volatile in-memory backend.
    pub(crate) fn new(id: usize) -> Self {
        Self::with_backend(id, Box::new(MemoryBackend::new()))
    }

    /// A fresh, online device over an explicit backend (which may
    /// already hold blocks — reopening a durable store reattaches its
    /// devices this way).
    pub fn with_backend(id: usize, backend: Box<dyn BlockBackend>) -> Self {
        Self {
            id,
            state: RwLock::new(DeviceState {
                online: true,
                backend,
            }),
            counters: Counters::default(),
        }
    }

    /// The device's pool index.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// The backend label (`"memory"`, `"file"`, `"segment"`).
    pub fn backend_kind(&self) -> &'static str {
        self.state.read().backend.kind()
    }

    /// Whether the device is serving requests.
    pub fn is_online(&self) -> bool {
        self.state.read().online
    }

    /// Takes the device offline, its contents **unreadable from here on**
    /// (the paper's no-repair model treats a failed drive's data as gone).
    /// A memory device keeps the block buffers as spares for its
    /// replacement's writes to land in (see [`MemoryBackend`]). On durable
    /// backends the backing files really are deleted; if even that fails
    /// the device still goes offline (and the error is counted), and the
    /// incarnation scheme in [`crate::durable`] guarantees a later
    /// replacement can never resurrect the stale files.
    pub(crate) fn fail(&self) {
        let mut s = self.state.write();
        s.online = false;
        bump(&self.counters.failures);
        if s.backend.destroy().is_err() {
            bump(&self.counters.io_errors);
        }
    }

    /// Brings the device back online (empty — a replacement drive).
    /// Durable stores route replacement through
    /// `ArchivalStore::replace_device`, which installs a fresh backend
    /// at a new incarnation path instead.
    pub(crate) fn replace(&self) {
        let mut s = self.state.write();
        s.online = true;
        bump(&self.counters.replacements);
        if s.backend.destroy().is_err() {
            bump(&self.counters.io_errors);
        }
    }

    /// Installs a brand-new backend (a fresh incarnation directory) and
    /// brings the device online — the durable form of [`Device::replace`].
    pub(crate) fn install_replacement(&self, backend: Box<dyn BlockBackend>) {
        let mut s = self.state.write();
        s.online = true;
        bump(&self.counters.replacements);
        s.backend = backend;
    }

    /// Writes a block. Rejected when offline (a real controller would
    /// error); the rejection is counted in
    /// [`DeviceStats::failed_writes`] so degraded-mode ingest is visible
    /// to operators instead of vanishing silently. A backend I/O error
    /// also fails the write, counted in [`DeviceStats::io_errors`].
    pub fn write_block(&self, key: BlockKey, data: Vec<u8>) -> bool {
        let mut s = self.state.write();
        if !s.online {
            bump(&self.counters.failed_writes);
            return false;
        }
        let written = s.backend.put_owned(key, data).is_ok();
        bump(if written {
            &self.counters.writes
        } else {
            &self.counters.io_errors
        });
        written
    }

    /// Flushes the backend to stable storage (fsync). Returns `false` —
    /// and counts an I/O error — if the sync failed.
    pub(crate) fn flush(&self) -> bool {
        let flushed = self.state.write().backend.flush().is_ok();
        if !flushed {
            bump(&self.counters.io_errors);
        }
        flushed
    }

    /// The device's one read: under the read lock, appends the block's
    /// bytes to `out` and returns how many and their checksum, attributed
    /// to `class`, while the kernel asks for `next` — the hint of the block
    /// the caller streams after this one ([`Device::locate`]), or
    /// [`Ahead::NONE`]. `None` — with `out` as it was — when the device is
    /// offline, the block is absent, or the backend fails the I/O (counted
    /// in [`DeviceStats::io_errors`]).
    pub fn read_block_into(
        &self,
        key: &BlockKey,
        class: ReadClass,
        out: &mut Vec<u8>,
        next: Ahead,
    ) -> Option<Appended> {
        let s = self.state.read();
        if !s.online {
            bump(&self.counters.failed_reads);
            return None;
        }
        let start = out.len();
        match s.backend.read_into(key, out, next) {
            Ok(read) => {
                if let Some(read) = read {
                    bump(&self.counters.reads);
                    let bytes = match class {
                        ReadClass::Payload => &self.counters.bytes_payload_read,
                        ReadClass::Repair => &self.counters.bytes_repair_read,
                    };
                    bytes.fetch_add(read.len as u64, Relaxed);
                }
                read
            }
            Err(_) => {
                out.truncate(start);
                bump(&self.counters.io_errors);
                None
            }
        }
    }

    /// Checksums a block in place against `expected` — the scrub verify
    /// tier's primitive, under the read lock. A block the backend holds in
    /// memory is hashed where it lies ([`BlockBackend::resident`], which
    /// also answers a miss: one lookup either way); any other is read into
    /// a buffer from the thread's block pool and hashed as it lands, and no
    /// bytes are handed upward. `next` as for
    /// [`Device::read_block_into`]. An I/O error reads as
    /// [`BlockProbe::Missing`] (an erasure) and is counted.
    pub fn verify_block(&self, key: &BlockKey, expected: u64, next: Ahead) -> BlockProbe {
        let s = self.state.read();
        self.judge(&s, looked_up(&s, key), key, expected, next)
    }

    /// The verdict on one block from its lookup ([`looked_up`]) under the
    /// read lock `s`, counted as [`Device::verify_block`] counts it.
    fn judge(
        &self,
        s: &DeviceState,
        looked: Option<Resident<'_>>,
        key: &BlockKey,
        expected: u64,
        next: Ahead,
    ) -> BlockProbe {
        let sum = match looked {
            None => {
                bump(&self.counters.failed_reads);
                return BlockProbe::Missing;
            }
            Some(Resident::Absent) => return BlockProbe::Missing,
            Some(Resident::Here(block)) => kernels::checksum(block, next),
            Some(Resident::OnMedia) => {
                let mut buf = pool::with_thread_pool(|p| p.take_empty(0));
                let read = s.backend.read_into(key, &mut buf, next);
                pool::with_thread_pool(|p| p.recycle(buf));
                match read {
                    Ok(Some(read)) => read.checksum,
                    Ok(None) => return BlockProbe::Missing,
                    Err(_) => {
                        bump(&self.counters.io_errors);
                        return BlockProbe::Missing;
                    }
                }
            }
        };
        self.verified(sum == expected)
    }

    /// Counts a verify of a present block and says how it came out.
    fn verified(&self, matches: bool) -> BlockProbe {
        bump(&self.counters.verifies);
        if matches {
            BlockProbe::Ok
        } else {
            BlockProbe::Corrupt
        }
    }

    /// [`Device::verify_block`] of four blocks on four distinct devices in
    /// one kernel pass (`kernels::checksum4`): element `i` of the result
    /// is what `devices[i].verify_block(&keys[i], expected[i], nexts[i])`
    /// would report, and the devices count `verifies`, `failed_reads` and
    /// `io_errors` exactly as it would. The four read locks are taken in
    /// ascending device id (the lock order of the module doc) and each
    /// block looked up once under them; when all four are resident their
    /// bytes are hashed in one pass, with `nexts[3]` the hint of the block
    /// streamed after the four, else each is judged alone by its lookup. A
    /// durable device's block is read only after the locks are released,
    /// through [`Device::verify_block`] with its own hint.
    ///
    /// # Panics
    /// Panics if two of the devices are the same one.
    pub(crate) fn verify_four(
        devices: [&Device; 4],
        keys: [BlockKey; 4],
        expected: [u64; 4],
        nexts: [Ahead; 4],
    ) -> [BlockProbe; 4] {
        let mut locked: [Option<RwLockReadGuard<'_, DeviceState>>; 4] = Default::default();
        lock_ascending(|i| devices[i], &mut locked);
        let states = locked.map(|s| s.expect("every device locked"));
        let looked: [Option<Resident<'_>>; 4] =
            std::array::from_fn(|i| looked_up(&states[i], &keys[i]));
        let here = looked.map(|l| match l {
            Some(Resident::Here(block)) => Some(block),
            _ => None,
        });
        if let [Some(a), Some(b), Some(c), Some(d)] = here {
            let sums = kernels::checksum4([a, b, c, d], nexts[3]);
            return std::array::from_fn(|i| devices[i].verified(sums[i] == expected[i]));
        }
        if looked.contains(&Some(Resident::OnMedia)) {
            drop(states);
            return std::array::from_fn(|i| {
                devices[i].verify_block(&keys[i], expected[i], nexts[i])
            });
        }
        std::array::from_fn(|i| {
            devices[i].judge(&states[i], looked[i], &keys[i], expected[i], nexts[i])
        })
    }

    /// Lends the resident bytes of blocks on distinct devices to `replay`,
    /// where they lie: a repair scrub's cone, read by its replay without a
    /// copy. The read locks are taken in ascending device id (the lock
    /// order of the module doc), every block looked up once under them,
    /// and `replay` called with `lent[i]` the bytes of `blocks[i]`; the
    /// locks are released when it returns. Each lent block counts as one
    /// [`ReadClass::Repair`] read of its bytes on its device.
    ///
    /// `Err(i)` — nothing lent, nothing counted but the `failed_reads` of
    /// an offline device — when `blocks[i]` is the first that is not there
    /// to lend: its device offline, the block gone, or a device that does
    /// not hold its blocks in memory.
    ///
    /// # Panics
    /// Panics if two of the blocks are on the same device.
    pub(crate) fn lend<R>(
        blocks: &[(&Device, BlockKey)],
        replay: impl FnOnce(&[&[u8]]) -> R,
    ) -> Result<R, usize> {
        let mut locked: Vec<Option<RwLockReadGuard<'_, DeviceState>>> =
            blocks.iter().map(|_| None).collect();
        lock_ascending(|i| blocks[i].0, &mut locked);
        let mut lent = Vec::with_capacity(blocks.len());
        for (i, ((device, key), s)) in blocks.iter().zip(&locked).enumerate() {
            match looked_up(s.as_ref().expect("every device locked"), key) {
                Some(Resident::Here(block)) => lent.push(block),
                looked => {
                    if looked.is_none() {
                        bump(&device.counters.failed_reads);
                    }
                    return Err(i);
                }
            }
        }
        for ((device, _), block) in blocks.iter().zip(&lent) {
            bump(&device.counters.reads);
            device
                .counters
                .bytes_repair_read
                .fetch_add(block.len() as u64, Relaxed);
        }
        Ok(replay(&lent))
    }

    /// Whether the device is online and holds a block, and where
    /// ([`BlockBackend::locate`]): `None` when it is offline or the block
    /// absent, else the hint for a read or verify of another block that
    /// this one follows in a stream — where its bytes lie on a memory
    /// device, empty on a durable one. An index lookup under the read lock,
    /// not an access: no counter moves. The lock is released before the
    /// hint is used, so a block freed in between leaves it stale, which
    /// costs a wasted prefetch and nothing else.
    pub fn locate(&self, key: &BlockKey) -> Option<Ahead> {
        let s = self.state.read();
        if s.online {
            s.backend.locate(key)
        } else {
            None
        }
    }

    /// Removes a block; returns whether it existed (false also on an
    /// I/O error, which is counted).
    pub(crate) fn delete_block(&self, key: &BlockKey) -> bool {
        let deleted = self.state.write().backend.delete(key);
        if deleted.is_err() {
            bump(&self.counters.io_errors);
        }
        deleted.unwrap_or(false)
    }

    /// Silently corrupts a stored block (failure-injection helper for
    /// integrity testing): reads it, XORs `mask` into its first byte and
    /// writes it back, past every counter and integrity layer — the
    /// simulated form of bit rot. Returns whether the block existed and was
    /// written back. (Real rot on durable backends is injected by writing
    /// garbage into the backing files out-of-band; see
    /// `tests/bitrot_scrub.rs`.)
    pub fn corrupt_block(&self, key: &BlockKey, mask: u8) -> bool {
        let mut s = self.state.write();
        let mut block = Vec::new();
        let Ok(Some(_)) = s.backend.read_into(key, &mut block, Ahead::NONE) else {
            return false;
        };
        if let Some(first) = block.first_mut() {
            *first ^= mask;
        }
        s.backend.put(*key, &block).is_ok()
    }

    /// Access counters snapshot: each counter exact, read one at a time.
    pub fn stats(&self) -> DeviceStats {
        let c = &self.counters;
        let [payload, repair] =
            [&c.bytes_payload_read, &c.bytes_repair_read].map(|b| b.load(Relaxed));
        DeviceStats {
            reads: c.reads.load(Relaxed),
            writes: c.writes.load(Relaxed),
            failed_reads: c.failed_reads.load(Relaxed),
            failed_writes: c.failed_writes.load(Relaxed),
            verifies: c.verifies.load(Relaxed),
            bytes_read: payload + repair,
            bytes_repair_read: repair,
            io_errors: c.io_errors.load(Relaxed),
            failures: c.failures.load(Relaxed),
            replacements: c.replacements.load(Relaxed),
        }
    }

    /// Number of blocks held.
    pub fn block_count(&self) -> usize {
        self.state.read().backend.block_count()
    }
}

/// A block's lookup under its device's read lock `s`: `None` when the
/// device is offline.
fn looked_up<'s>(s: &'s DeviceState, key: &BlockKey) -> Option<Resident<'s>> {
    s.online.then(|| s.backend.resident(key))
}

/// Takes the read lock of `device(i)` into `locked[i]`, for every `i`, in
/// ascending device id: the lock order of the module doc.
///
/// # Panics
/// Panics if two of the devices are the same one.
fn lock_ascending<'d>(
    device: impl Fn(usize) -> &'d Device,
    locked: &mut [Option<RwLockReadGuard<'d, DeviceState>>],
) {
    let mut above = None;
    for _ in 0..locked.len() {
        let next = (0..locked.len())
            .filter(|&i| above.is_none_or(|id| device(i).id > id))
            .min_by_key(|&i| device(i).id)
            .expect("blocks on distinct devices");
        locked[next] = Some(device(next).state.read());
        above = Some(device(next).id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Device::read_block_into`] a fresh `Vec`, as a
    /// [`ReadClass::Payload`] read.
    fn read_block(d: &Device, key: &BlockKey) -> Option<Vec<u8>> {
        let mut block = Vec::new();
        d.read_block_into(key, ReadClass::Payload, &mut block, Ahead::NONE)
            .map(|_| block)
    }

    #[test]
    fn write_read_roundtrip() {
        let d = Device::new(3);
        assert!(d.write_block((1, 0), vec![1, 2, 3]));
        assert_eq!(read_block(&d, &(1, 0)), Some(vec![1, 2, 3]));
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.block_count(), 1);
        assert_eq!(d.backend_kind(), "memory");
    }

    #[test]
    fn failure_destroys_contents() {
        let d = Device::new(0);
        d.write_block((1, 0), vec![9]);
        d.fail();
        assert!(!d.is_online());
        assert_eq!(read_block(&d, &(1, 0)), None);
        assert_eq!(d.stats().failed_reads, 1);
        d.replace();
        assert!(d.is_online());
        assert_eq!(read_block(&d, &(1, 0)), None, "replacement is empty");
        assert_eq!(d.block_count(), 0);
        let s = d.stats();
        assert_eq!((s.failures, s.replacements), (1, 1));
    }

    #[test]
    fn replacements_refilled_from_spares_return_every_object() {
        use crate::{ArchivalStore, ScrubMode, Scrubber};
        let store = ArchivalStore::new(tornado_core::tornado_graph_1());
        // Three sizes, so every device holds blocks of three lengths and
        // a spare often does not fit the block written next.
        let payloads: Vec<Vec<u8>> = [150_000usize, 4_000, 300]
            .iter()
            .flat_map(|&len| (0..4).map(move |i| (0..len).map(|b| (b * 7 + i) as u8).collect()))
            .collect();
        let ids: Vec<u64> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| store.put(&format!("o{i}"), p).unwrap())
            .collect();
        let scrubber = Scrubber::new(2);
        // Devices 0-3 twice: the second time their spares are blocks the
        // first repair rebuilt.
        for devices in [0..4, 4..8, 0..4] {
            for d in devices.clone() {
                store.fail_device(d).unwrap();
                store.replace_device(d).unwrap();
            }
            let outcome = scrubber.run(&store, 5, true, ScrubMode::Verify);
            assert!(outcome.objects_incomplete.is_empty(), "{devices:?}");
            for d in devices {
                assert_eq!(store.device(d).unwrap().block_count(), ids.len());
            }
            for (id, payload) in ids.iter().zip(&payloads) {
                assert_eq!(&store.get(*id).unwrap(), payload, "object {id}");
            }
        }
        let clean = scrubber.run(&store, 5, false, ScrubMode::Full);
        assert_eq!(clean.degraded_count(), 0);
    }

    #[test]
    fn offline_writes_are_rejected_and_counted() {
        let d = Device::new(0);
        d.fail();
        assert!(!d.write_block((1, 0), vec![1]));
        assert!(!d.write_block((1, 1), vec![2]));
        assert_eq!(d.stats().failed_writes, 2);
        assert_eq!(d.stats().writes, 0);
        d.replace();
        assert!(d.write_block((1, 0), vec![1]));
        assert_eq!(
            d.stats().failed_writes,
            2,
            "successful write leaves the failure count"
        );
        assert_eq!(d.stats().writes, 1);
        assert_eq!(
            d.stats().io_errors,
            0,
            "offline rejections are not I/O errors"
        );
    }

    #[test]
    fn verify_block_probes_without_copying() {
        let d = Device::new(0);
        let data = vec![5u8; 100];
        let sum = tornado_codec::checksum(&data);
        d.write_block((1, 0), data);
        assert_eq!(d.verify_block(&(1, 0), sum, Ahead::NONE), BlockProbe::Ok);
        assert_eq!(
            d.verify_block(&(1, 1), sum, Ahead::NONE),
            BlockProbe::Missing
        );
        assert!(d.corrupt_block(&(1, 0), 0x01));
        assert_eq!(
            d.verify_block(&(1, 0), sum, Ahead::NONE),
            BlockProbe::Corrupt
        );
        assert_eq!(
            d.stats().verifies,
            2,
            "present-block probes are counted, including mismatches"
        );
        assert_eq!(d.stats().reads, 0, "no block bytes were served");
        d.fail();
        assert_eq!(
            d.verify_block(&(1, 0), sum, Ahead::NONE),
            BlockProbe::Missing
        );
        assert_eq!(d.stats().failed_reads, 1);
    }

    /// Two sets of the same four devices, ids out of order, blocks of
    /// unequal lengths (one rotted, on device 2): the one-pass verify of
    /// one set against `verify_block` of each block of the other.
    fn twin_sets(online: [bool; 4], present: [bool; 4]) -> ([Vec<Device>; 2], [u64; 4]) {
        let blocks: [Vec<u8>; 4] =
            std::array::from_fn(|i| (0..100 + 700 * i).map(|b| (b * 7 + i) as u8).collect());
        let set = || {
            let devices: Vec<Device> = [7, 2, 5, 0].into_iter().map(Device::new).collect();
            for (i, d) in devices.iter().enumerate() {
                if present[i] {
                    d.write_block((1, i as u32), blocks[i].clone());
                }
                if !online[i] {
                    d.fail();
                }
            }
            devices[1].corrupt_block(&(1, 1), 0x04);
            devices
        };
        (
            [set(), set()],
            blocks.each_ref().map(|b| tornado_codec::checksum(b)),
        )
    }

    fn verify_both(sets: &[Vec<Device>; 2], expected: [u64; 4]) -> [BlockProbe; 4] {
        let keys = std::array::from_fn(|i| (1, i as u32));
        let [four, one] = sets;
        let probes = Device::verify_four(
            std::array::from_fn(|i| &four[i]),
            keys,
            expected,
            [Ahead::NONE; 4],
        );
        for (i, d) in one.iter().enumerate() {
            let alone = d.verify_block(&keys[i], expected[i], Ahead::NONE);
            assert_eq!(probes[i], alone, "block {i}");
            assert_eq!(four[i].stats(), d.stats(), "block {i}'s device counters");
        }
        probes
    }

    #[test]
    fn verify_four_reports_and_counts_as_four_verify_blocks() {
        use BlockProbe::{Corrupt, Missing, Ok};
        let (sets, expected) = twin_sets([true; 4], [true; 4]);
        assert_eq!(verify_both(&sets, expected), [Ok, Corrupt, Ok, Ok]);
        assert_eq!(sets[0][0].stats().verifies, 1);
        // One device offline, one block absent: each block alone.
        let (sets, expected) = twin_sets([true, true, false, true], [true, true, true, false]);
        assert_eq!(
            verify_both(&sets, expected),
            [Ok, Corrupt, Missing, Missing]
        );
        assert_eq!(sets[0][2].stats().failed_reads, 1);
    }

    #[test]
    fn verify_four_hashes_durable_blocks_one_at_a_time() {
        use crate::backend_file::FileBackend;
        let dir = std::env::temp_dir().join(format!("tornado-device-four-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let devices: Vec<Device> = (0..4)
            .map(|d| {
                let backend = FileBackend::open(&dir.join(d.to_string()), false).unwrap();
                Device::with_backend(d, Box::new(backend))
            })
            .collect();
        let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 5000]).collect();
        for (i, d) in devices.iter().enumerate() {
            assert!(d.write_block((1, i as u32), blocks[i].clone()));
        }
        let probes = Device::verify_four(
            std::array::from_fn(|i| &devices[i]),
            std::array::from_fn(|i| (1, i as u32)),
            std::array::from_fn(|i| tornado_codec::checksum(&blocks[i])),
            [Ahead::NONE; 4],
        );
        assert_eq!(probes, [BlockProbe::Ok; 4]);
        assert!(devices.iter().all(|d| d.stats().verifies == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "blocks on distinct devices")]
    fn verify_four_refuses_a_device_twice() {
        let d = [Device::new(0), Device::new(1), Device::new(2)];
        Device::verify_four(
            [&d[0], &d[1], &d[2], &d[1]],
            [(1, 0), (1, 1), (1, 2), (1, 3)],
            [0; 4],
            [Ahead::NONE; 4],
        );
    }

    /// Four devices, each holding one block and churned by a writer of its
    /// own, and four threads calling `multi_lock` 30,000 times, each naming
    /// the four devices in another order. A read lock waits behind a queued
    /// writer: two callers locking two devices in opposite orders, with a
    /// writer queued on each, would wait in a cycle. One churner in all
    /// would not. Panics if the threads are not done in 60 s.
    fn assert_no_lock_cycle(multi_lock: fn(&[Device], [usize; 4])) {
        use std::sync::mpsc::{self, RecvTimeoutError};
        use std::sync::Arc;
        use std::time::Duration;
        let devices: Arc<Vec<Device>> = Arc::new((0..4).map(Device::new).collect());
        for (i, d) in devices.iter().enumerate() {
            d.write_block((1, i as u32), vec![i as u8; 3000]);
        }
        let (finished, done) = mpsc::channel();
        let orders = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]];
        let mut threads: Vec<_> = orders
            .into_iter()
            .map(|order| {
                let (devices, finished) = (Arc::clone(&devices), finished.clone());
                std::thread::spawn(move || {
                    for _ in 0..30_000 {
                        multi_lock(&devices, order);
                    }
                    finished.send(()).expect("the test waits");
                })
            })
            .collect();
        threads.extend((0..4).map(|i| {
            let (devices, finished) = (Arc::clone(&devices), finished.clone());
            std::thread::spawn(move || {
                for k in 0..30_000usize {
                    devices[i].write_block((1, i as u32), vec![k as u8; 3000]);
                    if k % 500 == 0 {
                        devices[i].fail();
                        devices[i].replace();
                    }
                }
                finished.send(()).expect("the test waits");
            })
        }));
        for _ in 0..threads.len() {
            // Disconnected: a thread panicked, and its join says so.
            match done.recv_timeout(Duration::from_secs(60)) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => panic!("not done in 60 s: a lock cycle"),
            }
        }
        for t in threads {
            t.join().expect("a thread does not panic");
        }
    }

    #[test]
    fn verify_fours_in_every_order_do_not_deadlock() {
        assert_no_lock_cycle(|devices, order| {
            Device::verify_four(
                order.map(|i| &devices[i]),
                order.map(|i| (1, i as u32)),
                [0; 4],
                [Ahead::NONE; 4],
            );
        });
    }

    #[test]
    fn lends_in_every_order_do_not_deadlock() {
        assert_no_lock_cycle(|devices, order| {
            let blocks = order.map(|i| (&devices[i], (1, i as u32)));
            // A block between a failure and its rewrite is not there to
            // lend; the locks are taken and released all the same.
            let _ = Device::lend(&blocks, |lent| lent.len());
        });
    }

    /// A device on a [`HookedBackend`](crate::backend::hooked::HookedBackend)
    /// and the log of what its backend served.
    fn logged_device(
        id: usize,
    ) -> (
        Device,
        std::sync::Arc<std::sync::Mutex<Vec<crate::backend::hooked::Served>>>,
    ) {
        use crate::backend::hooked::HookedBackend;
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = {
            let log = std::sync::Arc::clone(&log);
            move |served, _: &BlockKey| log.lock().unwrap().push(served)
        };
        (
            Device::with_backend(id, Box::new(HookedBackend::new(record))),
            log,
        )
    }

    #[test]
    fn a_miss_on_a_memory_device_is_one_lookup() {
        use crate::backend::hooked::Served;
        let (d, log) = logged_device(0);
        assert!(d.write_block((1, 0), vec![1; 100]));
        let before = d.stats();
        assert_eq!(d.verify_block(&(9, 9), 0, Ahead::NONE), BlockProbe::Missing);
        assert_eq!(*log.lock().unwrap(), [Served::Resident], "a verify");
        log.lock().unwrap().clear();
        assert_eq!(Device::lend(&[(&d, (9, 9))], |_| ()), Err(0));
        assert_eq!(*log.lock().unwrap(), [Served::Resident], "a lend");
        // Four devices, one block absent: each device is asked once.
        let logged: Vec<_> = (1..5).map(logged_device).collect();
        for (i, (d, _)) in logged.iter().enumerate().skip(1) {
            assert!(d.write_block((1, i as u32), vec![2; 100]));
        }
        let probes = Device::verify_four(
            std::array::from_fn(|i| &logged[i].0),
            std::array::from_fn(|i| (1, i as u32)),
            [0; 4],
            [Ahead::NONE; 4],
        );
        assert_eq!(probes[0], BlockProbe::Missing);
        for (i, (_, log)) in logged.iter().enumerate() {
            assert_eq!(
                *log.lock().unwrap(),
                [Served::Resident],
                "a four-block verify, {i}"
            );
        }
        assert_eq!(d.stats(), before, "a miss counts nothing");
    }

    #[test]
    fn a_lent_block_is_one_repair_read_of_its_bytes() {
        let devices: Vec<Device> = [5, 1, 3].into_iter().map(Device::new).collect();
        let blocks: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 100 * (i + 1)]).collect();
        for (i, d) in devices.iter().enumerate() {
            assert!(d.write_block((1, i as u32), blocks[i].clone()));
        }
        let keys: Vec<(&Device, BlockKey)> = (0..3).map(|i| (&devices[i], (1, i as u32))).collect();
        let lent = Device::lend(&keys, |lent| {
            lent.iter().map(|b| b.to_vec()).collect::<Vec<_>>()
        });
        assert_eq!(
            lent,
            Ok(blocks.clone()),
            "each block's bytes, in the caller's order"
        );
        for (d, block) in devices.iter().zip(&blocks) {
            let s = d.stats();
            let len = block.len() as u64;
            assert_eq!((s.reads, s.bytes_read, s.bytes_repair_read), (1, len, len));
            assert_eq!(s.verifies, 0);
        }
        // One device offline: nothing is lent, and only its failed read is
        // counted.
        devices[2].fail();
        let before: Vec<DeviceStats> = devices.iter().map(Device::stats).collect();
        assert_eq!(
            Device::lend(&keys, |_| unreachable!("nothing lent")),
            Err(2)
        );
        assert_eq!(devices[2].stats().failed_reads, before[2].failed_reads + 1);
        for (d, before) in devices.iter().zip(&before).take(2) {
            assert_eq!(d.stats(), *before);
        }
    }

    #[test]
    fn a_durable_device_lends_nothing() {
        use crate::backend_segment::SegmentBackend;
        let dir = std::env::temp_dir().join(format!("tornado-device-lend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Device::with_backend(0, Box::new(SegmentBackend::open(&dir, false).unwrap()));
        assert!(d.write_block((1, 0), vec![3; 5000]));
        assert_eq!(Device::lend(&[(&d, (1, 0))], |_| ()), Err(0));
        assert_eq!(d.stats().reads, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_bytes_are_attributed_per_class() {
        let d = Device::new(0);
        d.write_block((1, 0), vec![7u8; 64]);
        assert!(read_block(&d, &(1, 0)).is_some());
        // Reads append: the caller's bytes in front stay put.
        let mut out = vec![0xEE; 3];
        let read = Some(Appended {
            len: 64,
            checksum: tornado_codec::checksum(&[7u8; 64]),
        });
        assert_eq!(
            d.read_block_into(&(1, 0), ReadClass::Repair, &mut out, Ahead::NONE),
            read
        );
        assert_eq!(
            d.read_block_into(&(1, 0), ReadClass::Repair, &mut out, Ahead::NONE),
            read
        );
        assert_eq!(
            d.read_block_into(&(1, 0), ReadClass::Payload, &mut out, Ahead::NONE),
            read
        );
        assert_eq!(out.len(), 3 + 3 * 64);
        assert_eq!((&out[..3], &out[3..67]), (&[0xEE; 3][..], &[7u8; 64][..]));
        let s = d.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.bytes_read, 4 * 64);
        assert_eq!(s.bytes_repair_read, 2 * 64);
        assert!(d
            .read_block_into(&(9, 9), ReadClass::Repair, &mut out, Ahead::NONE)
            .is_none());
        assert_eq!(out.len(), 3 + 3 * 64, "a miss appends nothing");
        assert_eq!(d.stats().bytes_read, 4 * 64, "misses serve no bytes");
    }

    #[test]
    fn ahead_is_a_lookup_that_moves_no_counter() {
        let d = Device::new(0);
        d.write_block((1, 0), vec![7u8; 100]);
        assert!(read_block(&d, &(1, 0)).is_some());
        let before = d.stats();
        let hint = d.locate(&(1, 0)).expect("the block is here");
        assert!(!hint.is_empty(), "the memory block's bytes");
        assert!(d.locate(&(1, 1)).is_none(), "an absent block");
        assert_eq!(d.stats(), before, "no counter moved");
        d.fail();
        let failed = d.stats();
        assert!(d.locate(&(1, 0)).is_none(), "an offline device");
        assert_eq!(d.stats(), failed, "not even failed_reads");
    }

    #[test]
    fn durable_devices_give_an_empty_hint() {
        use crate::backend_file::FileBackend;
        use crate::backend_segment::SegmentBackend;
        let dir = std::env::temp_dir().join(format!("tornado-device-ahead-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backends: [Box<dyn BlockBackend>; 2] = [
            Box::new(FileBackend::open(&dir.join("file"), false).unwrap()),
            Box::new(SegmentBackend::open(&dir.join("seg"), false).unwrap()),
        ];
        for backend in backends {
            let d = Device::with_backend(0, backend);
            assert!(d.write_block((1, 0), vec![3; 5000]));
            let before = d.stats();
            let hint = d.locate(&(1, 0));
            assert!(hint.is_some_and(|h| h.is_empty()), "{}", d.backend_kind());
            assert!(d.locate(&(9, 9)).is_none(), "{}", d.backend_kind());
            assert_eq!(d.stats(), before, "{}", d.backend_kind());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_and_has() {
        let d = Device::new(0);
        d.write_block((2, 5), vec![0]);
        assert!(d.locate(&(2, 5)).is_some());
        assert!(d.delete_block(&(2, 5)));
        assert!(!d.delete_block(&(2, 5)));
        assert!(d.locate(&(2, 5)).is_none());
    }

    #[test]
    fn concurrent_reads_from_many_threads() {
        use std::sync::Arc;
        let d = Arc::new(Device::new(0));
        d.write_block((1, 1), vec![42; 128]);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(read_block(&d, &(1, 1)).unwrap()[0], 42);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.stats().reads, 800);
    }

    #[test]
    fn readers_of_one_device_do_not_wait_for_each_other() {
        use crate::backend::hooked::{HookedBackend, Served};
        use std::sync::mpsc;
        use std::sync::{Arc, Mutex};
        use std::time::Duration;
        // A read of block (1, 0) announces itself, then waits inside the
        // backend until the test releases it.
        let (reached_tx, reached) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (reached_tx, release_rx) = (Mutex::new(reached_tx), Mutex::new(release_rx));
        let hook = move |served, key: &BlockKey| {
            if served == Served::Read && *key == (1, 0) {
                reached_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        };
        let d = Arc::new(Device::with_backend(0, Box::new(HookedBackend::new(hook))));
        let block = vec![7u8; 4096];
        let sum = tornado_codec::checksum(&block);
        d.write_block((1, 0), block.clone());
        d.write_block((1, 1), block.clone());

        let held = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || read_block(&d, &(1, 0)))
        };
        reached.recv().unwrap();
        let (finished, done) = mpsc::channel();
        let other = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let read = read_block(&d, &(1, 1));
                let probe = d.verify_block(&(1, 1), sum, Ahead::NONE);
                finished.send(()).unwrap();
                (read, probe)
            })
        };
        let waited = done.recv_timeout(Duration::from_secs(10));
        // Released either way, so a lock held across the read ends too.
        release.send(()).unwrap();
        assert_eq!(held.join().unwrap().as_ref(), Some(&block));
        assert_eq!(other.join().unwrap(), (Some(block.clone()), BlockProbe::Ok));
        assert!(
            waited.is_ok(),
            "a read and a verify of another block waited 10 s for a held read"
        );

        // Readers at once lose no count: N threads × k reads, every other
        // one a repair read.
        const N: u64 = 4;
        const K: u64 = 1_000;
        let before = d.stats();
        let readers: Vec<_> = (0..N)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut out = Vec::with_capacity(4096);
                    for k in 0..K {
                        let class = [ReadClass::Payload, ReadClass::Repair][k as usize % 2];
                        out.clear();
                        assert!(d
                            .read_block_into(&(1, 1), class, &mut out, Ahead::NONE)
                            .is_some());
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        let after = d.stats();
        assert_eq!(after.reads - before.reads, N * K);
        assert_eq!(after.bytes_read - before.bytes_read, N * K * 4096);
        assert_eq!(
            after.bytes_repair_read - before.bytes_repair_read,
            N * K / 2 * 4096
        );
    }

    #[test]
    fn file_backed_device_counts_io_errors_as_erasures() {
        // Point a file backend at a directory, then make a block's path
        // unreadable by replacing the file with a directory — a read
        // error that is not an offline rejection.
        use crate::backend_file::FileBackend;
        let dir = std::env::temp_dir().join(format!("tornado-device-ioerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::open(&dir, false).unwrap();
        let d = Device::with_backend(0, Box::new(backend));
        assert_eq!(d.backend_kind(), "file");
        assert!(d.write_block((1, 2), vec![3; 16]));
        // Sabotage: swap the block file for a directory of the same name.
        let path = dir.join("0000000000000001.00000002.blk");
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(d.locate(&(1, 2)).is_some(), "index still lists it");
        let mut out = vec![1, 2, 3];
        assert_eq!(
            d.read_block_into(&(1, 2), ReadClass::Payload, &mut out, Ahead::NONE),
            None,
            "read error reads as erasure"
        );
        assert_eq!(out, [1, 2, 3], "and leaves the caller's buffer as it was");
        assert_eq!(d.verify_block(&(1, 2), 0, Ahead::NONE), BlockProbe::Missing);
        let s = d.stats();
        assert_eq!(s.io_errors, 2);
        assert_eq!(s.failed_reads, 0, "device was online throughout");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
