//! The archival store: transactional object put/get over a device pool.

use crate::device::{Device, ReadClass};
use crate::durable::{self, BackendKind, Durability, DurableConfig, RecoveryReport};
use crate::error::StoreError;
use crate::journal::{CrashInjector, JournalRecord};
use crate::obs::StoreObserver;
use crate::retrieval::{plan_retrieval_or_lost, RepairCost};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tornado_codec::kernels::Ahead;
use tornado_codec::{pool, Codec, EncodedStripe};
use tornado_graph::{Graph, NodeId};

/// Opaque object identifier.
pub type ObjectId = u64;

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
    /// `(i + rotation) % devices`.
    pub rotation: usize,
    /// FNV-1a checksum per block (indexed by graph node), so silent
    /// corruption on a device is detected at read time and handled as an
    /// erasure.
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
    /// on a healthy stripe, which is read without a plan.
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
    objects: RwLock<HashMap<ObjectId, Arc<ObjectMeta>>>,
    next_id: AtomicU64,
    put_count: AtomicU64,
    /// Per-stripe dirty generations: bumped on every API-visible mutation
    /// of a stripe's blocks (put, delete, repair/federation writes). The
    /// incremental scrub tier skips a stripe whose generation — and the
    /// pool epoch — are unchanged since it was last seen fully clean.
    generations: RwLock<HashMap<ObjectId, u64>>,
    /// Source of generation numbers (store-wide, strictly increasing).
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
        Self::assemble(graph, devices, HashMap::new(), 1, 0, None)
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
        objects: HashMap<ObjectId, Arc<ObjectMeta>>,
        next_id: u64,
        put_count: u64,
        durability: Option<Durability>,
    ) -> Self {
        Self {
            graph,
            devices,
            objects: RwLock::new(objects),
            next_id: AtomicU64::new(next_id),
            put_count: AtomicU64::new(put_count),
            generations: RwLock::new(HashMap::new()),
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

    /// The stripe's current dirty generation (`0` before its first write).
    pub fn stripe_generation(&self, id: ObjectId) -> u64 {
        self.generations.read().get(&id).copied().unwrap_or(0)
    }

    /// Marks a stripe dirty: assigns it a fresh store-wide generation.
    fn bump_generation(&self, id: ObjectId) {
        let g = self.generation_counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.generations.write().insert(id, g);
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
        (node as usize + meta.rotation) % self.devices.len()
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
        self.objects.write().insert(id, Arc::new(meta));
        self.bump_generation(id);
        Ok(id)
    }

    /// Object metadata, if present.
    pub fn meta(&self, id: ObjectId) -> Option<ObjectMeta> {
        self.objects.read().get(&id).map(|m| ObjectMeta::clone(m))
    }

    /// All stored objects, ascending by id.
    pub fn list(&self) -> Vec<ObjectMeta> {
        let objects = self.objects.read();
        let mut v: Vec<ObjectMeta> = objects.values().map(|m| ObjectMeta::clone(m)).collect();
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
        let (mut buf, payload_start, mut stats) = self.get_framed(id, 0)?;
        let strip_start = Instant::now();
        buf.drain(..payload_start);
        stats.decode_us += strip_start.elapsed().as_micros() as u64;
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
    /// landed. A healthy stripe touches nothing else — no availability
    /// scan, no plan, no scratch block. A block that is absent, on an
    /// offline device, of the wrong length or corrupt is cut back out and
    /// its slot zero-filled as a *hole* for `fill_holes` to rebuild
    /// before the next block is read, so silent corruption degrades into
    /// an ordinary erasure and unverified bytes are never in a buffer that
    /// is returned.
    pub fn get_framed(
        &self,
        id: ObjectId,
        headroom: usize,
    ) -> Result<(Vec<u8>, usize, GetStats), StoreError> {
        let meta = self.objects.read().get(&id).cloned();
        let meta = meta.ok_or(StoreError::UnknownObject { id })?;
        let (k, block_len) = (self.graph.num_data(), meta.block_len);
        let fetch_start = Instant::now();
        let mut buf: Vec<u8> = Vec::with_capacity(headroom + k * block_len);
        buf.resize(headroom, 0);
        let mut holes: Vec<NodeId> = Vec::new();
        let mut stats = GetStats::default();
        for node in 0..k as NodeId {
            let read =
                self.read_verified_into(&meta, node, ReadClass::Payload, &mut buf, Ahead::NONE);
            if let Err(miss) = read {
                buf.resize(buf.len() + block_len, 0);
                holes.push(node);
                stats.replans += usize::from(miss == Miss::Corrupt);
            }
        }
        stats.fetch_us = fetch_start.elapsed().as_micros() as u64;
        stats.blocks_fetched = k - holes.len();
        stats.cost.blocks_fetched = stats.blocks_fetched as u64;
        if !holes.is_empty() {
            self.fill_holes(&meta, &holes, &mut buf[headroom..], &mut stats)?;
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
        Ok((buf, headroom + payload.start, stats))
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
    ) -> Result<(), StoreError> {
        let (n, k) = (self.graph.num_nodes(), self.graph.num_data());
        let mut available: Vec<NodeId> = (0..k as NodeId)
            .filter(|v| !holes.contains(v))
            .chain((k as NodeId..n as NodeId).filter(|&v| self.has_block(meta, v)))
            .collect();
        let mut checks: Vec<Option<Vec<u8>>> = vec![None; n - k];
        let result = loop {
            let plan_start = Instant::now();
            let planned = plan_retrieval_or_lost(&self.graph, &available);
            stats.plan_us += plan_start.elapsed().as_micros() as u64;
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
            stats.fetch_us += fetch_start.elapsed().as_micros() as u64;
            if let Some(node) = lost {
                available.retain(|&v| v != node);
                stats.replans += 1;
                continue;
            }
            let decode_start = Instant::now();
            stats.cost.recovery_depth =
                Codec::new(&self.graph).replay(&plan.schedule, data, &mut checks);
            stats.decode_us += decode_start.elapsed().as_micros() as u64;
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
        let meta = self
            .objects
            .write()
            .remove(&id)
            .ok_or(StoreError::UnknownObject { id })?;
        for node in 0..self.graph.num_nodes() as u32 {
            let dev = self.device_of_block(&meta, node);
            self.devices[dev].delete_block(&(id, node));
        }
        self.generations.write().remove(&id);
        Ok(())
    }

    /// Exposes the raw stored block for federation/scrubbing — repair
    /// paths, so the read is attributed [`ReadClass::Repair`]. A corrupt
    /// block is reported as absent (an erasure), which is exactly how the
    /// coding layer can repair it. The copy is made into a buffer recycled
    /// from the calling thread's block pool; `next` is the hint of the
    /// block the caller streams after this one ([`ArchivalStore::ahead`]).
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

    /// Writes a (re-encoded) block back to its home device. Repair
    /// writes are not journaled — the block's content is pinned by the
    /// checksum in the (already-durable) sidecar, so a torn repair write
    /// is just a still-missing block the next scrub repairs again; on a
    /// durable store the write is flushed per the fsync policy.
    pub(crate) fn write_raw_block(&self, meta: &ObjectMeta, node: NodeId, data: Vec<u8>) -> bool {
        let dev = self.device_of_block(meta, node);
        let written = self.devices[dev].write_block((meta.id, node), data);
        if written {
            if let Some(d) = &self.durability {
                if d.fsync {
                    self.devices[dev].flush();
                }
            }
            self.bump_generation(meta.id);
        }
        written
    }

    /// Whether a block's home device is online and lists it — an index
    /// lookup, not an access: nothing is read and no counter moves.
    pub(crate) fn has_block(&self, meta: &ObjectMeta, node: NodeId) -> bool {
        self.devices[self.device_of_block(meta, node)].has_block(&(meta.id, node))
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

    /// The hint to stream a block with when this one comes next
    /// ([`Device::ahead`]): an index lookup on its home device, not an
    /// access.
    pub(crate) fn ahead(&self, meta: &ObjectMeta, node: NodeId) -> Ahead {
        self.devices[self.device_of_block(meta, node)].ahead(&(meta.id, node))
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
    use crate::backend::BlockKey;
    use std::sync::{mpsc, Mutex};
    use tornado_gen::{TornadoGenerator, TornadoParams};
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
        let graph = TornadoGenerator::new(TornadoParams::paper_96())
            .generate(4)
            .unwrap();
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
        let graph = TornadoGenerator::new(TornadoParams::paper_96())
            .generate(4)
            .unwrap();
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
    /// object put sits at rotation 0: node v on device v): a read of that
    /// block announces itself and then waits to be released — the test's
    /// handle on "this GET has probed the check nodes and is now fetching
    /// them". Returns the test's ends of the two channels.
    fn gated_store(gate: NodeId) -> (ArchivalStore, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (reached, release) = (Mutex::new(reached_tx), Mutex::new(release_rx));
        let mut gated = Some(HookedBackend::new(move |served, key: &BlockKey| {
            if served == Served::Read && *key == (1, gate) {
                reached.lock().unwrap().send(()).unwrap();
                release.lock().unwrap().recv().unwrap();
            }
        }));
        let graph = paper_graph();
        let devices = (0..graph.num_nodes())
            .map(|d| match gated.take_if(|_| d == gate as usize) {
                Some(backend) => Device::with_backend(d, Box::new(backend)),
                None => Device::new(d),
            })
            .collect();
        let store = ArchivalStore::assemble(graph, devices, HashMap::new(), 1, 0, None);
        (store, reached_rx, release_tx)
    }

    fn paper_graph() -> Graph {
        TornadoGenerator::new(TornadoParams::paper_96())
            .generate(4)
            .unwrap()
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
        use std::collections::BTreeSet;
        use tornado_codec::metrics::cells;

        let graph = paper_graph();
        // Devices 0 and 1 will be offline, so the scrub plans a repair; the
        // gate is the first block of that plan's cone, the victim its last.
        let first = plan_repair(&graph, &all_except(&[0, 1])).unwrap();
        let (gate, victim) = (first.fetch[0], *first.fetch.last().unwrap());
        assert_ne!(gate, victim, "the cone holds several blocks");
        let second = plan_repair(&graph, &all_except(&[0, 1, victim])).unwrap();

        let (store, reached_rx, release_tx) = gated_store(gate);
        store.put("x", &vec![9u8; 5000]).unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();

        let obs = Arc::new(StoreObserver::disabled());
        store.set_observer(Arc::clone(&obs));
        let before = total_reads(&store);
        let scrubber = Scrubber::new(1);
        let outcome = std::thread::scope(|s| {
            let run = || scrubber.run(&store, 5, false, ScrubMode::Verify);
            let scrub = s.spawn(run);
            // The scrub is inside its first cone fetch: the index listed
            // the victim and it has not been read yet.
            reached_rx.recv().unwrap();
            store.fail_device(victim as usize).unwrap();
            release_tx.send(()).unwrap();
            scrub.join().unwrap()
        });
        assert_eq!(outcome.stripes[0].missing_blocks, vec![0, 1, victim]);
        assert!(outcome.stripes[0].recoverable);
        assert_eq!(obs.decode.get(cells::TRIALS), 2, "plan and one re-plan");
        // In hand: what the first plan fetched before the loss, plus what
        // the second wanted on top — each read exactly once.
        let in_hand: BTreeSet<NodeId> = first
            .fetch
            .iter()
            .chain(&second.fetch)
            .copied()
            .filter(|&v| v != victim)
            .collect();
        assert_eq!(outcome.costs[0].blocks_fetched, in_hand.len() as u64);
        assert_eq!(total_reads(&store) - before, in_hand.len() as u64);
        assert_eq!(store.devices[victim as usize].stats().failed_reads, 1);
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
