//! The archival store: transactional object put/get over a device pool.

use crate::backend::{BlockKey, IndexMap};
use crate::device::{Device, ReadClass};
use crate::durable::{self, BackendKind, Durability, DurableConfig, RecoveryReport};
use crate::error::StoreError;
use crate::journal::{CrashInjector, JournalRecord};
use crate::obs::StoreObserver;
use crate::retrieval::{plan_retrieval_or_lost, RepairCost};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tornado_codec::kernels::Ahead;
use tornado_codec::{pool, Codec, EncodedStripe};
use tornado_graph::{Graph, NodeId};
use tornado_obs::clock::round_us;

/// Opaque object identifier.
pub(crate) type ObjectId = u64;

/// The block-placement rule: the device, of `devices`, that holds graph
/// node `node` of a stripe placed at `rotation`.
#[inline]
pub(crate) fn device_of_node(node: usize, rotation: usize, devices: usize) -> usize {
    (node + rotation) % devices
}

/// The inverse of `device_of_node`: the graph node of a stripe placed at
/// `rotation` that device `device` (of `devices`) holds.
#[inline]
pub fn node_on_device(device: usize, rotation: usize, devices: usize) -> usize {
    (device + devices - rotation % devices) % devices
}

/// Metadata tracked per stored object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object id.
    pub id: ObjectId,
    /// User-visible name.
    pub name: String,
    /// Payload size in bytes.
    pub size: usize,
    /// Per-block size after framing/padding.
    pub block_len: usize,
    /// Device rotation offset: block `i` lives on device
    /// `(i + rotation) % devices` (`device_of_node`).
    pub rotation: usize,
    /// The 8-lane block digest (`tornado_codec::checksum`) of each block,
    /// indexed by graph node, so silent corruption on a device is detected
    /// at read time and handled as an erasure.
    pub checksums: Vec<u64>,
}

/// Retrieval-path statistics for one [`ArchivalStore::get_detailed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GetStats {
    /// Blocks fetched from devices and used (the guided-retrieval metric):
    /// the `k` data blocks of a healthy stripe, else the final plan's
    /// fetch set.
    pub blocks_fetched: usize,
    /// Blocks reconstructed by the decoder instead of read — non-zero
    /// exactly when the read took the degraded path.
    pub blocks_recovered: usize,
    /// Blocks that failed checksum verification, plus check blocks lost
    /// between the availability probe and their fetch. A data block that is
    /// simply absent or on an offline device is a hole, not a replan.
    pub replans: usize,
    /// Wall time spent planning the retrieval (all attempts), µs — zero
    /// on a healthy stripe, which is read without a plan. Each of the three
    /// phase times is summed over its spans and rounded to the nearest µs
    /// once.
    pub plan_us: u64,
    /// Wall time spent fetching and checksum-verifying blocks, µs.
    pub fetch_us: u64,
    /// Wall time spent in erasure decode (schedule application) and
    /// payload reassembly, µs — the per-read repair cost a degraded GET
    /// pays.
    pub decode_us: u64,
    /// What this retrieval cost in bytes/blocks/devices/depth, across all
    /// plan attempts (a check block a replan no longer needs was still
    /// read — those bytes really moved). Every block is read at most once.
    pub cost: RepairCost,
    /// Subset of `cost.bytes_read` attributed to repair: check-block
    /// fetches, which a healthy stripe never needs.
    pub repair_bytes_read: u64,
}

impl GetStats {
    /// Whether any block had to be reconstructed (a degraded read).
    pub fn degraded(&self) -> bool {
        self.blocks_recovered > 0 || self.replans > 0
    }
}

/// The wall time of a GET's phases, each summed over its spans (every plan
/// attempt, every fetch pass) and rounded to whole µs once, into
/// [`GetStats`].
#[derive(Default)]
struct PhaseTimes {
    plan: Duration,
    fetch: Duration,
    decode: Duration,
}

impl PhaseTimes {
    fn record(&self, stats: &mut GetStats) {
        stats.plan_us = round_us(self.plan);
        stats.fetch_us = round_us(self.fetch);
        stats.decode_us = round_us(self.decode);
    }
}

/// One stripe's record: what was stored and how recently it was written,
/// under one lock, so whether a write to the stripe stands is decided in
/// one place.
struct Stripe {
    meta: Arc<ObjectMeta>,
    /// The stripe's dirty generation: a fresh store-wide number on every
    /// API-visible write of its blocks (put, repair and federation
    /// writes); `0` for a stripe recovered on open and not written since.
    /// The incremental scrub tier skips a stripe whose generation — and the
    /// pool epoch — are unchanged since it was last seen fully clean.
    generation: u64,
}

impl Stripe {
    fn new(meta: ObjectMeta, generation: u64) -> Self {
        let meta = Arc::new(meta);
        Self { meta, generation }
    }
}

/// A single-site archival store: one device per graph node, objects encoded
/// into one block per device.
///
/// The interface is transactional at object granularity (§2.2: "archival
/// systems function using a transactional interface where complete files or
/// objects are uploaded or downloaded"), which is what makes Tornado Codes
/// applicable — the object size is known at encode time and blocks are
/// never updated in place.
pub struct ArchivalStore {
    graph: Graph,
    devices: Vec<Device>,
    objects: RwLock<IndexMap<ObjectId, Stripe>>,
    next_id: AtomicU64,
    put_count: AtomicU64,
    /// Source of stripe generations (store-wide, strictly increasing).
    generation_counter: AtomicU64,
    /// Device-pool epoch: bumped whenever a device fails or is replaced.
    /// Device-level events destroy blocks without touching any stripe's
    /// generation, so clean marks are additionally keyed by this epoch.
    pool_epoch: AtomicU64,
    /// Present on stores opened with [`ArchivalStore::open`]: journal,
    /// sidecar paths, fsync policy, crash injector. `None` keeps the
    /// volatile in-memory store on the exact pre-persistence code path.
    durability: Option<Durability>,
    /// What scrub cycles over this store record into, when attached (the
    /// serving layer attaches its own, `tornado scrub` one for its run).
    observer: RwLock<Option<Arc<StoreObserver>>>,
}

impl ArchivalStore {
    /// Creates a volatile store with one in-memory device per node of
    /// `graph` (the simulation default; nothing survives process exit).
    pub fn new(graph: Graph) -> Self {
        let devices = (0..graph.num_nodes()).map(Device::new).collect();
        Self::assemble(graph, devices, IndexMap::default(), 1, 0, None)
    }

    /// Opens (creating if empty) a durable store rooted at `cfg.dir`,
    /// running recovery: torn puts from a previous crash are rolled
    /// back, deletes replayed, and the object map rebuilt from metadata
    /// sidecars. See the [`crate::durable`] module docs for the on-disk
    /// layout and the recovery state machine.
    pub fn open(graph: Graph, cfg: DurableConfig) -> Result<(Self, RecoveryReport), StoreError> {
        durable::open(graph, cfg)
    }

    /// Internal constructor shared by [`ArchivalStore::new`] and
    /// recovery-on-open.
    pub(crate) fn assemble(
        graph: Graph,
        devices: Vec<Device>,
        objects: IndexMap<ObjectId, ObjectMeta>,
        next_id: u64,
        put_count: u64,
        durability: Option<Durability>,
    ) -> Self {
        let objects = objects
            .into_iter()
            .map(|(id, meta)| (id, Stripe::new(meta, 0)))
            .collect();
        Self {
            graph,
            devices,
            objects: RwLock::new(objects),
            next_id: AtomicU64::new(next_id),
            put_count: AtomicU64::new(put_count),
            generation_counter: AtomicU64::new(0),
            pool_epoch: AtomicU64::new(0),
            durability,
            observer: RwLock::new(None),
        }
    }

    /// Attaches the [`StoreObserver`] that every later
    /// [`Scrubber::run`](crate::Scrubber::run) over this store records
    /// into. A store nothing was attached to is scrubbed unobserved.
    pub fn set_observer(&self, obs: Arc<StoreObserver>) {
        *self.observer.write() = Some(obs);
    }

    /// The attached observer, if any.
    pub(crate) fn observer(&self) -> Option<Arc<StoreObserver>> {
        self.observer.read().clone()
    }

    /// The backend kind devices run on (`Memory` for volatile stores).
    pub fn backend_kind(&self) -> BackendKind {
        self.durability
            .as_ref()
            .map_or(BackendKind::Memory, |d| d.kind)
    }

    /// The durable root directory, if this store was [`ArchivalStore::open`]ed.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The crash injector of a durable store — the recovery test suite's
    /// way of dying at an exact durability step. `None` on volatile
    /// stores.
    pub fn crash_injector(&self) -> Option<&CrashInjector> {
        self.durability.as_ref().map(|d| &d.crash)
    }

    /// The erasure graph in use.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of devices in the pool.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to a device (stats, health).
    pub fn device(&self, index: usize) -> Result<&Device, StoreError> {
        self.devices.get(index).ok_or(StoreError::NoSuchDevice {
            device: index,
            pool_size: self.devices.len(),
        })
    }

    /// Injects a device failure: its contents become unreadable — the
    /// paper's no-repair model. A memory device keeps the block buffers
    /// for its replacement's writes to land in; on a durable backend the
    /// backing files are really deleted.
    pub fn fail_device(&self, index: usize) -> Result<(), StoreError> {
        self.device(index)?.fail();
        self.pool_epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Replaces a failed device with an empty one.
    ///
    /// On a durable store the replacement is a fresh *incarnation*: the
    /// device's incarnation number is bumped and persisted first, then a
    /// brand-new backend is opened at the new (empty) incarnation path.
    /// Files from the old incarnation are removed best-effort, but even
    /// if removal fails they can never be read again — no code path
    /// ever opens a non-current incarnation path.
    pub fn replace_device(&self, index: usize) -> Result<(), StoreError> {
        let device = self.device(index)?;
        if let Some(d) = &self.durability {
            let old_gen = durable::read_gen(&d.dir, index)
                .map_err(|e| StoreError::io("device incarnation", &e))?;
            let gen = old_gen + 1;
            durable::write_gen(&d.dir, index, gen, d.fsync)
                .map_err(|e| StoreError::io("device incarnation", &e))?;
            let backend = durable::make_backend(&d.dir, d.kind, index, gen, d.fsync)
                .map_err(|e| StoreError::io("backend open", &e))?;
            device.install_replacement(backend);
            durable::remove_incarnation(&d.dir, d.kind, index, old_gen);
        } else {
            device.replace();
        }
        self.pool_epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// The current device-pool epoch (bumped on every fail/replace).
    pub fn pool_epoch(&self) -> u64 {
        self.pool_epoch.load(Ordering::Acquire)
    }

    /// The stripe's current dirty generation (`0` before its first write,
    /// and once the object is deleted).
    pub(crate) fn stripe_generation(&self, id: ObjectId) -> u64 {
        self.objects.read().get(&id).map_or(0, |s| s.generation)
    }

    /// A fresh store-wide generation, for a stripe just written.
    fn next_generation(&self) -> u64 {
        self.generation_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Indices of currently offline devices.
    pub fn offline_devices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|d| !d.is_online())
            .map(|d| d.id())
            .collect()
    }

    /// Device index of an object's block for graph node `node`.
    pub fn device_of_block(&self, meta: &ObjectMeta, node: NodeId) -> usize {
        device_of_node(node as usize, meta.rotation, self.devices.len())
    }

    /// Stores an object; returns its id. Blocks whose target device is
    /// offline are simply not stored (their redundancy covers the gap until
    /// the scrubber repairs them).
    ///
    /// On a durable store the put is atomic across devices: intent is
    /// journaled before any block lands, the blocks and metadata sidecar
    /// are flushed, and only then is the commit journaled — so a crash
    /// anywhere in between is rolled back on the next open and an
    /// acknowledged put is durable. An `Err` on the durable path means
    /// the object was **not** stored (it is absent from the in-memory
    /// map and any partial on-disk state is rolled back at next open).
    pub fn put(&self, name: &str, payload: &[u8]) -> Result<ObjectId, StoreError> {
        let codec = Codec::new(&self.graph);
        let stripe = EncodedStripe::from_object(&codec, payload)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let rotation = self.put_count.fetch_add(1, Ordering::Relaxed) as usize % self.devices.len();
        let block_len = stripe.block_len();
        // The digests were taken as the encoder wrote the blocks.
        let (blocks, checksums) = stripe.into_parts();
        let meta = ObjectMeta {
            id,
            name: name.to_string(),
            size: payload.len(),
            block_len,
            rotation,
            checksums,
        };
        if let Some(d) = &self.durability {
            d.journal_append(&JournalRecord::PutIntent {
                id,
                rotation: rotation as u32,
                nodes: self.graph.num_nodes() as u32,
            })?;
        }
        // Blocks are moved into the devices — the encode output is the
        // stored representation, no per-block clone on the ingest path.
        let mut touched: Vec<usize> = Vec::new();
        for (node, block) in blocks.into_iter().enumerate() {
            if let Some(d) = &self.durability {
                d.crash
                    .step()
                    .map_err(|e| StoreError::io("block write", &e))?;
            }
            let dev = self.device_of_block(&meta, node as NodeId);
            if self.devices[dev].write_block((id, node as u32), block) {
                touched.push(dev);
            }
        }
        if let Some(d) = &self.durability {
            // Durability points, in order: block data, sidecar, commit.
            // The device-level flush is what makes "commit" meaningful.
            if d.fsync {
                touched.dedup();
                for &dev in &touched {
                    self.devices[dev].flush();
                }
            }
            d.write_sidecar(&meta)?;
            d.journal_append(&JournalRecord::PutCommit { id })?;
        }
        let stripe = Stripe::new(meta, self.next_generation());
        self.objects.write().insert(id, stripe);
        Ok(id)
    }

    /// Object metadata, if present.
    pub fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.objects
            .read()
            .get(&id)
            .map(|s| ObjectMeta::clone(&s.meta))
    }

    /// All stored objects, ascending by id.
    pub fn list(&self) -> Vec<ObjectMeta> {
        let objects = self.objects.read();
        let mut v: Vec<ObjectMeta> = objects
            .values()
            .map(|s| ObjectMeta::clone(&s.meta))
            .collect();
        v.sort_by_key(|m| m.id);
        v
    }

    /// Retrieves an object: the data blocks alone when the stripe is
    /// healthy, otherwise as few more as the guided retrieval planner
    /// allows, decoded through the pruned schedule.
    pub fn get(&self, id: ObjectId) -> Result<Vec<u8>, StoreError> {
        let (payload, _) = self.get_detailed(id)?;
        Ok(payload)
    }

    /// Like [`ArchivalStore::get`], additionally reporting retrieval-path
    /// statistics (the serving layer's degraded-read signal): what
    /// [`ArchivalStore::get_framed`] read, with the buffer cut down to the
    /// payload (the one memmove a caller who wants a bare `Vec` pays).
    pub fn get_detailed(&self, id: ObjectId) -> Result<(Vec<u8>, GetStats), StoreError> {
        let (mut buf, payload_start, mut stats, mut times) = self.get_timed(id, 0)?;
        let strip_start = Instant::now();
        buf.drain(..payload_start);
        times.decode += strip_start.elapsed();
        times.record(&mut stats);
        Ok((buf, stats))
    }

    /// The GET every other GET is built on: returns `(buf, payload_start,
    /// stats)` where `buf[payload_start..]` is the object and the bytes in
    /// front of it are the caller's to overwrite — `headroom` spare bytes,
    /// then the stripe's own length header where it was read. The serving
    /// layer writes its frame header there and the buffer goes to the
    /// socket as it is.
    ///
    /// The code is systematic, so the data half of the stripe *is* the
    /// framed payload: data blocks `0..k` are read in order straight into
    /// `buf`, each byte written once, and checksum-verified where they
    /// landed. The data pass streams like a scrub: one device-index lookup
    /// per data block first ([`Device::locate`]; nothing is read and
    /// no counter moves), then each read carries the hint of the block
    /// after it, whose head the kernel asks into L2 while this one is
    /// hashed. A healthy stripe touches nothing else — no check-node probe,
    /// no plan, no scratch block. A block that is absent, on an offline
    /// device, of the wrong length or corrupt — or gone since its lookup —
    /// is cut back out and its slot zero-filled as a *hole* for
    /// `fill_holes` to rebuild before the next block is read, so silent
    /// corruption degrades into an ordinary erasure and unverified bytes
    /// are never in a buffer that is returned. A GET whose object is
    /// deleted under it answers [`StoreError::UnknownObject`] when the
    /// blocks it still found cannot rebuild the stripe.
    pub fn get_framed(
        &self,
        id: ObjectId,
        headroom: usize,
    ) -> Result<(Vec<u8>, usize, GetStats), StoreError> {
        let (buf, payload_start, mut stats, times) = self.get_timed(id, headroom)?;
        times.record(&mut stats);
        Ok((buf, payload_start, stats))
    }

    /// [`ArchivalStore::get_framed`], its phase times not yet rounded into
    /// the stats.
    fn get_timed(
        &self,
        id: ObjectId,
        headroom: usize,
    ) -> Result<(Vec<u8>, usize, GetStats, PhaseTimes), StoreError> {
        let meta = self.objects.read().get(&id).map(|s| Arc::clone(&s.meta));
        let meta = meta.ok_or(StoreError::UnknownObject { id })?;
        let (k, block_len) = (self.graph.num_data(), meta.block_len);
        let fetch_start = Instant::now();
        let mut buf: Vec<u8> = Vec::with_capacity(headroom + k * block_len);
        buf.resize(headroom, 0);
        let mut holes: Vec<NodeId> = Vec::new();
        let mut stats = GetStats::default();
        let mut times = PhaseTimes::default();
        // A hint gone stale by its use costs a wasted prefetch, and a block
        // gone since its lookup is a hole like any other.
        let hints: Vec<Option<Ahead>> = (0..k as NodeId).map(|v| self.locate(&meta, v)).collect();
        for node in 0..k as NodeId {
            let next = hints
                .get(node as usize + 1)
                .copied()
                .flatten()
                .unwrap_or(Ahead::NONE);
            let read = self.read_verified_into(&meta, node, ReadClass::Payload, &mut buf, next);
            if let Err(miss) = read {
                buf.resize(buf.len() + block_len, 0);
                holes.push(node);
                stats.replans += usize::from(miss == Miss::Corrupt);
            }
        }
        times.fetch = fetch_start.elapsed();
        stats.blocks_fetched = k - holes.len();
        stats.cost.blocks_fetched = stats.blocks_fetched as u64;
        if !holes.is_empty() {
            let filled =
                self.fill_holes(&meta, &holes, &mut buf[headroom..], &mut stats, &mut times);
            // A delete that takes the blocks from under the read orders the
            // GET after it: the object is unknown, not lost.
            if filled.is_err() && !self.objects.read().contains_key(&id) {
                return Err(StoreError::UnknownObject { id });
            }
            filled?;
        }
        // One device per node and no block read twice: blocks, devices
        // and bytes are the same count in different units.
        stats.cost.devices_contacted = stats.cost.blocks_fetched;
        stats.cost.bytes_read = stats.cost.blocks_fetched * block_len as u64;

        // Every data block matched its put-time digest or was rebuilt from
        // blocks that did, so this is the framing `put` wrote.
        let payload = EncodedStripe::payload_range(&buf[headroom..]).expect("framed by put");
        debug_assert_eq!(payload.len(), meta.size);
        buf.truncate(headroom + payload.end);
        Ok((buf, headroom + payload.start, stats, times))
    }

    /// The miss path of a GET: `data` is the contiguous data half with the
    /// `holes` zeroed. Availability is what the data pass saw plus an
    /// index probe of the check nodes only; the planner runs once, only
    /// the planned check blocks are fetched, and the pruned schedule is
    /// replayed with each lost data block rebuilt in its hole. A check
    /// block that turns out corrupt
    /// or lost since its probe is excluded and the retrieval re-planned,
    /// keeping every block already in hand.
    fn fill_holes(
        &self,
        meta: &ObjectMeta,
        holes: &[NodeId],
        data: &mut [u8],
        stats: &mut GetStats,
        times: &mut PhaseTimes,
    ) -> Result<(), StoreError> {
        let (n, k) = (self.graph.num_nodes(), self.graph.num_data());
        let mut available: Vec<NodeId> = (0..k as NodeId)
            .filter(|v| !holes.contains(v))
            .chain((k as NodeId..n as NodeId).filter(|&v| self.locate(meta, v).is_some()))
            .collect();
        let mut checks: Vec<Option<Vec<u8>>> = vec![None; n - k];
        let result = loop {
            let plan_start = Instant::now();
            let planned = plan_retrieval_or_lost(&self.graph, &available);
            times.plan += plan_start.elapsed();
            let plan = match planned {
                Ok(plan) => plan,
                Err(lost_blocks) => break Err(lost_blocks),
            };
            // A check block is only ever fetched to feed reconstruction —
            // repair traffic.
            let fetch_start = Instant::now();
            let mut lost = None;
            for &node in plan.fetch.iter().filter(|&&v| v as usize >= k) {
                let slot = &mut checks[node as usize - k];
                if slot.is_some() {
                    continue;
                }
                match self.read_raw_block(meta, node, Ahead::NONE) {
                    Some(block) => {
                        stats.cost.blocks_fetched += 1;
                        stats.repair_bytes_read += block.len() as u64;
                        *slot = Some(block);
                    }
                    None => {
                        lost = Some(node);
                        break;
                    }
                }
            }
            times.fetch += fetch_start.elapsed();
            if let Some(node) = lost {
                available.retain(|&v| v != node);
                stats.replans += 1;
                continue;
            }
            let decode_start = Instant::now();
            stats.cost.recovery_depth =
                Codec::new(&self.graph).replay(&plan.schedule, data, &mut checks);
            times.decode += decode_start.elapsed();
            stats.blocks_fetched = plan.fetch.len();
            stats.blocks_recovered = plan.schedule.len();
            break Ok(());
        };
        pool::with_thread_pool(|p| p.recycle_stripe(&mut checks));
        let id = meta.id;
        result.map_err(|lost_blocks| StoreError::Unrecoverable { id, lost_blocks })
    }

    /// Deletes an object from all devices. On a durable store the delete
    /// is journaled first, so a crash mid-delete is replayed (to
    /// completion, idempotently) on the next open.
    pub fn delete(&self, id: ObjectId) -> Result<(), StoreError> {
        if let Some(d) = &self.durability {
            let meta = self.meta(id).ok_or(StoreError::UnknownObject { id })?;
            d.journal_append(&JournalRecord::Delete {
                id,
                rotation: meta.rotation as u32,
                nodes: self.graph.num_nodes() as u32,
            })?;
            d.remove_sidecar(id)?;
        }
        let stripe = self
            .objects
            .write()
            .remove(&id)
            .ok_or(StoreError::UnknownObject { id })?;
        for node in 0..self.graph.num_nodes() as u32 {
            let dev = self.device_of_block(&stripe.meta, node);
            self.devices[dev].delete_block(&(id, node));
        }
        Ok(())
    }

    /// Exposes the raw stored block for the repair paths that need a copy
    /// — federation, a degraded GET's check blocks, a `Full` scrub and a
    /// scrub's cone on a durable device — so the read is attributed
    /// [`ReadClass::Repair`]. A corrupt
    /// block is reported as absent (an erasure), which is exactly how the
    /// coding layer can repair it. The copy is made into a buffer recycled
    /// from the calling thread's block pool; `next` is the hint of the
    /// block the caller streams after this one ([`ArchivalStore::locate`]).
    pub(crate) fn read_raw_block(
        &self,
        meta: &ObjectMeta,
        node: NodeId,
        next: Ahead,
    ) -> Option<Vec<u8>> {
        pool::with_thread_pool(|p| {
            let mut block = p.take_zeroed(0);
            match self.read_verified_into(meta, node, ReadClass::Repair, &mut block, next) {
                Ok(()) => Some(block),
                Err(_) => {
                    p.recycle(block);
                    None
                }
            }
        })
    }

    /// Appends one block to `out` and verifies it — the read hashed it as
    /// it landed — against the checksum recorded at put time. On a miss
    /// `out` is as it was: bytes that failed verification do not outlive
    /// this call.
    fn read_verified_into(
        &self,
        meta: &ObjectMeta,
        node: NodeId,
        class: ReadClass,
        out: &mut Vec<u8>,
        next: Ahead,
    ) -> Result<(), Miss> {
        let start = out.len();
        let dev = self.device_of_block(meta, node);
        let miss = match self.devices[dev].read_block_into(&(meta.id, node), class, out, next) {
            None => Miss::Absent,
            Some(read)
                if read.len == meta.block_len && read.checksum == meta.checksums[node as usize] =>
            {
                return Ok(())
            }
            Some(_) => Miss::Corrupt,
        };
        out.truncate(start);
        Err(miss)
    }

    /// Writes a (re-encoded) block back to its home device; returns
    /// whether it stands. Repair writes are not journaled — the block's
    /// content is pinned by the checksum in the (already-durable) sidecar,
    /// so a torn repair write is just a still-missing block the next scrub
    /// repairs again; on a durable store the write is flushed per the fsync
    /// policy.
    ///
    /// A repair works from a snapshot of the object list, so its object
    /// may be deleted while the block is rebuilt. The write therefore lands
    /// first and is judged after, under the map's lock: a live stripe gets
    /// a fresh generation; for a deleted one the block is removed again
    /// (after the lock is released), so no orphan outlives the delete —
    /// whichever of the delete's block removal and this write came first.
    pub(crate) fn write_raw_block(&self, meta: &ObjectMeta, node: NodeId, data: Vec<u8>) -> bool {
        let dev = self.device_of_block(meta, node);
        if !self.devices[dev].write_block((meta.id, node), data) {
            return false;
        }
        if let Some(d) = &self.durability {
            if d.fsync {
                self.devices[dev].flush();
            }
        }
        let live = match self.objects.write().get_mut(&meta.id) {
            Some(stripe) => {
                stripe.generation = self.next_generation();
                true
            }
            None => false,
        };
        if !live {
            self.devices[dev].delete_block(&(meta.id, node));
        }
        live
    }

    /// Whether a block's home device is online and lists it, and the hint
    /// to stream it with when it comes next ([`Device::locate`]): an index
    /// lookup, not an access — nothing is read and no counter moves.
    pub(crate) fn locate(&self, meta: &ObjectMeta, node: NodeId) -> Option<Ahead> {
        self.devices[self.device_of_block(meta, node)].locate(&(meta.id, node))
    }

    /// Hash-verifies a block **in place** on its home device — the scrub
    /// verify tier's probe. No bytes are copied and nothing is allocated;
    /// the expected digest comes from the stripe metadata written at put
    /// time. `next` as for [`ArchivalStore::read_raw_block`].
    pub(crate) fn probe_block(
        &self,
        meta: &ObjectMeta,
        node: NodeId,
        next: Ahead,
    ) -> crate::device::BlockProbe {
        let dev = self.device_of_block(meta, node);
        self.devices[dev].verify_block(&(meta.id, node), meta.checksums[node as usize], next)
    }

    /// Lends `replay` the bytes of `nodes`' blocks where their home devices
    /// hold them ([`Device::lend`]), each one repair-class read: `Err(node)`
    /// for the first that is not there to lend. `nodes` are of one stripe,
    /// so on distinct devices.
    pub(crate) fn lend_blocks<R>(
        &self,
        meta: &ObjectMeta,
        nodes: &[NodeId],
        replay: impl FnOnce(&[&[u8]]) -> R,
    ) -> Result<R, NodeId> {
        let blocks: Vec<(&Device, BlockKey)> = nodes
            .iter()
            .map(|&v| (&self.devices[self.device_of_block(meta, v)], (meta.id, v)))
            .collect();
        Device::lend(&blocks, replay).map_err(|i| nodes[i])
    }

    /// [`ArchivalStore::probe_block`] of four blocks of a stripe in one
    /// kernel pass ([`Device::verify_four`]): `nexts[i]` is the hint of the
    /// block streamed after `nodes[i]`.
    pub(crate) fn probe_four(
        &self,
        meta: &ObjectMeta,
        nodes: [NodeId; 4],
        nexts: [Ahead; 4],
    ) -> [crate::device::BlockProbe; 4] {
        Device::verify_four(
            nodes.map(|v| &self.devices[self.device_of_block(meta, v)]),
            nodes.map(|v| (meta.id, v)),
            nodes.map(|v| meta.checksums[v as usize]),
            nexts,
        )
    }
}

/// Why a block read produced nothing usable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Miss {
    /// The device is offline, does not hold the block, or failed the I/O.
    Absent,
    /// Bytes were served but do not match the put-time checksum.
    Corrupt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::hooked::{HookedBackend, Served};
    use std::sync::{mpsc, Mutex};
    use tornado_gen::TornadoGenerator;
    use tornado_graph::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("greeting", b"hello world").unwrap();
        assert_eq!(store.get(id).unwrap(), b"hello world");
        let meta = store.meta(id).unwrap();
        assert_eq!(meta.name, "greeting");
        assert_eq!(meta.size, 11);
    }

    #[test]
    fn get_unknown_object_errors() {
        let store = ArchivalStore::new(small_graph());
        assert!(matches!(
            store.get(42),
            Err(StoreError::UnknownObject { id: 42 })
        ));
    }

    #[test]
    fn attached_observer_sees_transitions_without_a_scrub() {
        let store = ArchivalStore::new(small_graph());
        let obs = Arc::new(StoreObserver::disabled());
        store.set_observer(Arc::clone(&obs));
        // What a snapshot of the observer says, read off the devices as it
        // is taken: no scrub cycle in between, no stored gauge to go stale.
        let offline = || {
            let mut snap = tornado_obs::Snapshot::new("test", 0);
            obs.record_into(&store, &mut snap);
            snap.to_json()
                .get("gauges")
                .and_then(|g| g.get("device.offline")?.as_u64())
        };
        store.fail_device(1).unwrap();
        store.fail_device(3).unwrap();
        assert_eq!(offline(), Some(2));
        store.replace_device(1).unwrap();
        assert_eq!(offline(), Some(1));
    }

    #[test]
    fn survives_tolerable_device_failures() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"important archival data").unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(4).unwrap();
        assert_eq!(store.get(id).unwrap(), b"important archival data");
        assert_eq!(store.offline_devices(), vec![0, 4]);
    }

    #[test]
    fn reports_unrecoverable_losses() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"doomed").unwrap();
        // Blocks 0 and 1 form a closed pair under check 4 with check 6
        // unable to help after 4's inputs are gone? (4 = 0^1; 0,1 lost
        // means 4 is blocked; rotation 0 so nodes map to devices directly.)
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        match store.get(id) {
            Err(StoreError::Unrecoverable { lost_blocks, .. }) => {
                assert_eq!(lost_blocks, vec![0, 1]);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn rotation_spreads_blocks_across_devices() {
        let store = ArchivalStore::new(small_graph());
        let a = store.put("a", b"aaaa").unwrap();
        let b = store.put("b", b"bbbb").unwrap();
        let ma = store.meta(a).unwrap();
        let mb = store.meta(b).unwrap();
        assert_ne!(ma.rotation, mb.rotation);
        assert_eq!(store.device_of_block(&ma, 0), 0);
        assert_eq!(store.device_of_block(&mb, 0), 1);
        // Both still read back correctly.
        assert_eq!(store.get(a).unwrap(), b"aaaa");
        assert_eq!(store.get(b).unwrap(), b"bbbb");
    }

    #[test]
    fn guided_retrieval_touches_few_devices() {
        let graph = TornadoGenerator::new(48).generate(4).unwrap();
        let store = ArchivalStore::new(graph);
        let id = store.put("big", &vec![7u8; 4096]).unwrap();
        let (_, healthy) = store.get_detailed(id).unwrap();
        assert_eq!(
            healthy.blocks_fetched, 48,
            "healthy stripe reads only data blocks"
        );
        store.fail_device(3).unwrap();
        let (payload, degraded) = store.get_detailed(id).unwrap();
        assert_eq!(payload.len(), 4096);
        assert!(
            degraded.blocks_fetched < 96,
            "degraded read must not touch the whole stripe"
        );
    }

    #[test]
    fn get_cost_matches_device_byte_deltas() {
        use crate::device::DeviceStats;
        let graph = TornadoGenerator::new(48).generate(4).unwrap();
        let store = ArchivalStore::new(graph);
        let id = store.put("big", &vec![7u8; 4096]).unwrap();
        let meta = store.meta(id).unwrap();
        let snap = |s: &ArchivalStore| -> Vec<DeviceStats> {
            (0..s.num_devices())
                .map(|d| s.device(d).unwrap().stats())
                .collect()
        };

        let before = snap(&store);
        let (_, healthy) = store.get_detailed(id).unwrap();
        let after = snap(&store);
        let bytes: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_read - b.bytes_read)
            .sum();
        let repair: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_repair_read - b.bytes_repair_read)
            .sum();
        assert_eq!(healthy.cost.bytes_read, bytes, "GET cost == device deltas");
        assert_eq!(healthy.cost.bytes_read, 48 * meta.block_len as u64);
        assert_eq!(healthy.cost.blocks_fetched, 48);
        assert_eq!(healthy.cost.devices_contacted, 48);
        assert_eq!(healthy.cost.recovery_depth, 0);
        assert_eq!(healthy.repair_bytes_read, 0, "healthy read is all payload");
        assert_eq!(repair, 0);

        store.fail_device(store.device_of_block(&meta, 3)).unwrap();
        let before = snap(&store);
        let (_, degraded) = store.get_detailed(id).unwrap();
        let after = snap(&store);
        let bytes: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_read - b.bytes_read)
            .sum();
        let repair: u64 = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.bytes_repair_read - b.bytes_repair_read)
            .sum();
        assert!(degraded.degraded());
        assert_eq!(degraded.cost.bytes_read, bytes);
        assert_eq!(degraded.repair_bytes_read, repair);
        assert!(degraded.repair_bytes_read > 0, "check blocks were fetched");
        assert!(degraded.cost.recovery_depth >= 1);
        assert!((degraded.cost.devices_contacted as usize) < store.num_devices());
    }

    /// The paper's 96-node graph and, over it, a store whose device `gate`
    /// runs on a [`HookedBackend`] gating object 1's block there (the first
    /// object put sits at rotation 0: node v on device v): the first read
    /// of that block, or look at its resident bytes, announces itself and
    /// then waits to be released — the test's handle on "this GET has
    /// probed the check nodes and is now fetching them". Returns the test's
    /// ends of the two channels.
    fn gated_store(gate: NodeId) -> (ArchivalStore, mpsc::Receiver<()>, mpsc::Sender<()>) {
        gated_store_on(gate, Served::Read)
    }

    /// [`gated_store`], gating the first access of kind `on`.
    fn gated_store_on(
        gate: NodeId,
        on: Served,
    ) -> (ArchivalStore, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (reached, release) = (Mutex::new(Some(reached_tx)), Mutex::new(release_rx));
        let mut gated = Some(HookedBackend::new(move |served, key: &BlockKey| {
            if served == on && *key == (1, gate) {
                if let Some(reached) = reached.lock().unwrap().take() {
                    reached.send(()).unwrap();
                    release.lock().unwrap().recv().unwrap();
                }
            }
        }));
        let graph = paper_graph();
        let devices = (0..graph.num_nodes())
            .map(|d| match gated.take_if(|_| d == gate as usize) {
                Some(backend) => Device::with_backend(d, Box::new(backend)),
                None => Device::new(d),
            })
            .collect();
        let store = ArchivalStore::assemble(graph, devices, IndexMap::default(), 1, 0, None);
        (store, reached_rx, release_tx)
    }

    fn paper_graph() -> Graph {
        TornadoGenerator::new(48).generate(4).unwrap()
    }

    fn all_except(missing: &[NodeId]) -> Vec<NodeId> {
        (0..96).filter(|v| !missing.contains(v)).collect()
    }

    fn total_reads(store: &ArchivalStore) -> u64 {
        store.devices.iter().map(|d| d.stats().reads).sum()
    }

    #[test]
    fn device_lost_between_probe_and_fetch_costs_one_replan_and_no_reread() {
        let graph = paper_graph();
        let k = graph.num_data();
        // Data nodes 0 and 1 will be offline, so the GET plans; the gate is
        // the first check block that plan fetches, the victim its last.
        let first = plan_retrieval_or_lost(&graph, &all_except(&[0, 1])).unwrap();
        let is_check = |v: &NodeId| *v as usize >= k;
        let checks: Vec<NodeId> = first.fetch.iter().copied().filter(is_check).collect();
        let (gate, victim) = (checks[0], *checks.last().unwrap());
        assert_ne!(gate, victim, "the plan fetches several check blocks");
        let second = plan_retrieval_or_lost(&graph, &all_except(&[0, 1, victim])).unwrap();

        let (store, reached_rx, release_tx) = gated_store(gate);
        let payload = vec![9u8; 5000];
        let id = store.put("x", &payload).unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();

        let before = total_reads(&store);
        let (buf, payload_start, stats) = std::thread::scope(|s| {
            let get = s.spawn(|| store.get_framed(id, 9));
            // The GET is inside its first check fetch: the victim was
            // probed present and has not been read yet.
            reached_rx.recv().unwrap();
            store.fail_device(victim as usize).unwrap();
            release_tx.send(()).unwrap();
            get.join().unwrap().unwrap()
        });
        assert_eq!(&buf[payload_start..], payload);
        assert_eq!(stats.replans, 1, "the racy loss; offline data is no replan");
        assert_eq!(stats.blocks_fetched, second.fetch.len());
        assert_eq!(stats.blocks_recovered, second.schedule.len());
        assert_eq!(store.devices[victim as usize].stats().failed_reads, 1);
        assert_eq!(total_reads(&store) - before, stats.cost.blocks_fetched);
    }

    #[test]
    fn block_lost_between_index_probe_and_fetch_costs_a_scrub_one_replan_and_no_reread() {
        use crate::retrieval::plan_repair;
        use crate::scrubber::{ScrubMode, Scrubber};
        use tornado_codec::metrics::cells;

        let graph = paper_graph();
        // Devices 0 and 1 will be offline, so the scrub plans a repair. It
        // verifies nodes 2..=95 in place, in ascending order, 94 % 4 = 2
        // left over alone: the gate is node 95, the last, and the victim
        // the last block of the plan's cone that a group of four verifies
        // before it. Then the scrub lends the cone to its replay.
        let first = plan_repair(&graph, &all_except(&[0, 1])).unwrap();
        let gate = 95;
        let victim = *first.fetch.iter().rev().find(|&&v| v < 94).unwrap();
        let second = plan_repair(&graph, &all_except(&[0, 1, victim])).unwrap();

        let (store, reached_rx, release_tx) = gated_store_on(gate, Served::Resident);
        store.put("x", &vec![9u8; 5000]).unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();

        let obs = Arc::new(StoreObserver::disabled());
        store.set_observer(Arc::clone(&obs));
        let verifies =
            |s: &ArchivalStore| -> u64 { s.devices.iter().map(|d| d.stats().verifies).sum() };
        let before = (total_reads(&store), verifies(&store));
        let scrubber = Scrubber::new(1);
        let outcome = std::thread::scope(|s| {
            let run = || scrubber.run(&store, 5, false, ScrubMode::Verify);
            let scrub = s.spawn(run);
            // The scrub is verifying its last block: the index listed the
            // victim, it was verified, and it has not been lent yet.
            reached_rx.recv().unwrap();
            store.fail_device(victim as usize).unwrap();
            release_tx.send(()).unwrap();
            scrub.join().unwrap()
        });
        assert_eq!(outcome.stripes[0].missing_blocks, vec![0, 1, victim]);
        assert!(outcome.stripes[0].recoverable);
        assert_eq!(obs.decode.get(cells::TRIALS), 2, "plan and one re-plan");
        // The first lend found the victim gone and lent nothing; the
        // second lent its cone, each block once. Nothing was verified
        // twice: the re-plan's cone was verified with the first's.
        assert_eq!(outcome.costs[0].blocks_fetched, second.fetch.len() as u64);
        assert_eq!(total_reads(&store) - before.0, second.fetch.len() as u64);
        assert_eq!(verifies(&store) - before.1, 94);
        assert_eq!(store.devices[victim as usize].stats().failed_reads, 1);
    }

    #[test]
    fn a_cone_block_rotted_between_its_verify_and_its_lend_costs_a_scrub_one_replan() {
        use crate::retrieval::plan_repair;
        use crate::scrubber::{ScrubMode, Scrubber};
        use tornado_codec::metrics::cells;

        // As above: the gate holds the scrub at its last verify, node 95,
        // after a group of four has verified the victim, a block of the
        // plan's cone. Devices 0 and 1 come back empty.
        let graph = paper_graph();
        let first = plan_repair(&graph, &all_except(&[0, 1])).unwrap();
        let victim = *first.fetch.iter().rev().find(|&&v| v < 94).unwrap();
        let (store, reached_rx, release_tx) = gated_store_on(95, Served::Resident);
        let payload: Vec<u8> = (0..5000usize).map(|i| (i * 31 % 251) as u8).collect();
        let id = store.put("x", &payload).unwrap();
        for d in [0, 1] {
            store.fail_device(d).unwrap();
            store.replace_device(d).unwrap();
        }

        let obs = Arc::new(StoreObserver::disabled());
        store.set_observer(Arc::clone(&obs));
        let scrubber = Scrubber::new(1);
        let outcome = std::thread::scope(|s| {
            let scrub = s.spawn(|| scrubber.run(&store, 5, true, ScrubMode::Verify));
            reached_rx.recv().unwrap();
            let device = &store.devices[victim as usize];
            assert!(device.corrupt_block(&(id, victim), 0x40));
            release_tx.send(()).unwrap();
            scrub.join().unwrap()
        });
        // The replay read the rotted bytes, so what it rebuilt missed its
        // digests; a second look at the lent blocks found the rot, and the
        // re-plan rebuilt the victim with the two lost blocks.
        assert_eq!(outcome.stripes[0].missing_blocks, vec![0, 1, victim]);
        assert!(outcome.stripes[0].recoverable);
        assert_eq!(obs.decode.get(cells::TRIALS), 2, "plan and one re-plan");
        assert_eq!(outcome.blocks_repaired, 3);
        assert!(outcome.objects_incomplete.is_empty());
        assert_eq!(store.get(id).unwrap(), payload);
        let clean = Scrubber::new(1).run(&store, 5, false, ScrubMode::Full);
        assert_eq!(clean.degraded_count(), 0);
    }

    #[test]
    fn a_get_that_a_delete_overtakes_answers_unknown_object() {
        // The gate holds the GET inside its first read, node 0's, under
        // that device's lock. Meanwhile the object is deleted as `delete`
        // does it — the record, then every block — with the held device
        // left to last, so the GET reads node 0 and then finds no more.
        let (store, reached_rx, release_tx) = gated_store(0);
        let id = store.put("x", &vec![9u8; 5000]).unwrap();
        let got = std::thread::scope(|s| {
            let get = s.spawn(|| store.get_framed(id, 0));
            reached_rx.recv().unwrap();
            let stripe = store.objects.write().remove(&id).unwrap();
            for node in 1..96 {
                let dev = store.device_of_block(&stripe.meta, node);
                assert!(store.devices[dev].delete_block(&(id, node)));
            }
            release_tx.send(()).unwrap();
            get.join().unwrap()
        });
        assert!(
            matches!(got, Err(StoreError::UnknownObject { id: gone }) if gone == id),
            "{got:?}"
        );
        assert_eq!(store.devices[0].stats().reads, 1, "node 0 was read");
    }

    #[test]
    fn a_repair_write_that_lands_after_its_objects_delete_leaves_no_block() {
        use crate::scrubber::{ScrubMode, Scrubber};
        // The object sits at rotation 0 (node v on device v) and device 0
        // comes back empty, so the scrub rebuilds node 0 — after it has
        // read node 95, the last block it streams, which the gate holds
        // until a delete has removed the object's record.
        let (store, reached_rx, release_tx) = gated_store(95);
        let id = store.put("x", &vec![9u8; 5000]).unwrap();
        store.fail_device(0).unwrap();
        store.replace_device(0).unwrap();
        let outcome = std::thread::scope(|s| {
            let scrub = s.spawn(|| Scrubber::new(1).run(&store, 5, true, ScrubMode::Full));
            reached_rx.recv().unwrap();
            // The delete takes the record, then waits for device 95, whose
            // lock the held read keeps.
            let delete = s.spawn(|| store.delete(id));
            while store.meta(id).is_some() {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            delete.join().unwrap().unwrap();
            scrub.join().unwrap()
        });
        assert_eq!(
            outcome.blocks_repaired, 0,
            "the rebuilt block did not stand"
        );
        let orphans: usize = store.devices.iter().map(Device::block_count).sum();
        assert_eq!(orphans, 0, "no block outlives its object");
        assert_eq!(store.stripe_generation(id), 0, "no record either");
    }

    #[test]
    fn delete_removes_blocks() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"bye").unwrap();
        store.delete(id).unwrap();
        assert!(matches!(
            store.get(id),
            Err(StoreError::UnknownObject { .. })
        ));
        assert!(store.list().is_empty());
        let total: usize = (0..store.num_devices())
            .map(|d| store.device(d).unwrap().block_count())
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn put_to_partially_failed_pool_still_recovers() {
        let store = ArchivalStore::new(small_graph());
        store.fail_device(5).unwrap();
        let id = store.put("x", b"written degraded").unwrap();
        assert_eq!(store.get(id).unwrap(), b"written degraded");
    }

    #[test]
    fn no_such_device_error() {
        let store = ArchivalStore::new(small_graph());
        assert!(matches!(
            store.fail_device(99),
            Err(StoreError::NoSuchDevice { device: 99, .. })
        ));
    }

    #[test]
    fn silent_corruption_is_detected_and_decoded_around() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"integrity matters").unwrap();
        // Corrupt data block 0 in place (device 0, rotation 0).
        assert!(store.device(0).unwrap().corrupt_block(&(id, 0), 0xFF));
        let (payload, stats) = store.get_detailed(id).unwrap();
        assert_eq!(payload, b"integrity matters");
        assert!(
            stats.blocks_fetched >= 4,
            "had to fetch extra blocks to route around corruption"
        );
    }

    #[test]
    fn corruption_of_a_check_block_is_harmless_for_reads() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"payload").unwrap();
        store.device(6).unwrap().corrupt_block(&(id, 6), 0x01);
        assert_eq!(store.get(id).unwrap(), b"payload");
    }

    #[test]
    fn corruption_beyond_tolerance_is_reported() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("x", b"doomed data").unwrap();
        // Corrupt the closed pair {0, 1} under check 4.
        store.device(0).unwrap().corrupt_block(&(id, 0), 0xAA);
        store.device(1).unwrap().corrupt_block(&(id, 1), 0xAA);
        assert!(matches!(
            store.get(id),
            Err(StoreError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("empty", b"").unwrap();
        assert_eq!(store.get(id).unwrap(), b"");
    }
}
