//! Durable store construction, metadata sidecars, and recovery-on-open.
//!
//! On-disk layout of a durable store rooted at `dir`:
//!
//! ```text
//! dir/
//!   STORE                      # marker: format version, backend kind,
//!                              # device count, graph fingerprint
//!   journal.wal                # write-ahead intent journal
//!   meta/<id:016x>.meta        # one sidecar per object (source of truth
//!                              # for the stripe map)
//!   devices/dev-<idx>.gen      # device incarnation number (decimal)
//!   devices/dev-<idx>/g<gen>/  # file backend: block files
//!   devices/dev-<idx>/g<gen>.seg  # segment backend: the segment
//! ```
//!
//! The incarnation number (`gen`) is embedded in every backend path: a
//! replaced device gets `gen + 1` and therefore a brand-new, empty path,
//! so files written by the old incarnation are unreachable by
//! construction — even if deleting them failed, nothing will ever open
//! that path again.
//!
//! Recovery-on-open rebuilds the object map from the sidecars, then
//! applies the journal: a `PutIntent` without its `PutCommit` is a torn
//! put (the crash hit between steps) and is rolled back — its blocks and
//! sidecar deleted; `Delete` records are replayed idempotently. The
//! journal is then truncated: every surviving effect is captured by
//! sidecars and block files, so the journal only ever holds the
//! in-flight window, not history.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use parking_lot::Mutex;
use tornado_codec::checksum;
use tornado_graph::Graph;

use crate::backend::{metrics, sync_file, BlockBackend, IndexMap, IndexSet};
use crate::backend_file::FileBackend;
use crate::backend_segment::SegmentBackend;
use crate::device::Device;
use crate::error::StoreError;
use crate::journal::{CrashInjector, IntentJournal, JournalRecord};
use crate::store::{device_of_node, ArchivalStore, ObjectMeta};

/// Which [`BlockBackend`] implementation a store's devices use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Volatile in-memory maps (the simulation default; not openable as
    /// a durable store).
    Memory,
    /// One file per block in a per-device directory.
    File,
    /// One append-only segment file per device.
    Segment,
}

impl BackendKind {
    /// Stable label, also used in the `STORE` marker.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::File => "file",
            BackendKind::Segment => "segment",
        }
    }

    /// Parses a label as written by [`BackendKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "memory" => Some(BackendKind::Memory),
            "file" => Some(BackendKind::File),
            "segment" => Some(BackendKind::Segment),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration for [`ArchivalStore::open`].
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Root directory of the store.
    pub dir: PathBuf,
    /// Backend implementation for every device.
    pub backend: BackendKind,
    /// Whether to fsync at the durability points (journal appends,
    /// sidecar writes, block flushes). Turning this off makes puts much
    /// faster and keeps crash *consistency* (recovery still rolls back
    /// torn puts) but loses the durability guarantee for acknowledged
    /// puts on power failure — fine for tests, not for archives.
    pub fsync: bool,
}

impl DurableConfig {
    /// A config with fsync on (the archival default).
    pub fn new(dir: impl Into<PathBuf>, backend: BackendKind) -> Self {
        Self {
            dir: dir.into(),
            backend,
            fsync: true,
        }
    }

    /// Same, with fsync off (fast tests and benches).
    pub fn new_nosync(dir: impl Into<PathBuf>, backend: BackendKind) -> Self {
        Self {
            dir: dir.into(),
            backend,
            fsync: false,
        }
    }
}

/// What recovery-on-open found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Wall time of the whole open (scan + replay + rollback), µs.
    pub duration_us: u64,
    /// Valid journal records scanned.
    pub journal_records: usize,
    /// Whether the journal ended in a torn (half-written) record.
    pub torn_tail: bool,
    /// Puts found fully committed in the journal window.
    pub committed_puts: usize,
    /// Torn puts rolled back (blocks + sidecar deleted).
    pub rolled_back: usize,
    /// Delete records replayed.
    pub deletes_replayed: usize,
    /// Sidecar files that failed their checksum and were dropped.
    pub(crate) invalid_sidecars: usize,
    /// Objects in the store after recovery.
    pub objects: usize,
}

/// The durable half of an [`ArchivalStore`]: paths, journal, fsync
/// policy, and the crash injector for recovery tests.
#[derive(Debug)]
pub(crate) struct Durability {
    pub dir: PathBuf,
    pub kind: BackendKind,
    pub fsync: bool,
    pub journal: Mutex<IntentJournal>,
    pub crash: CrashInjector,
}

const STORE_MARKER: &str = "STORE";
const FORMAT_VERSION: u32 = 1;
const META_MAGIC: u64 = 0x31_41_54_45_4d_4e_52_54; // "TRNMETA1" LE-ish tag

impl Durability {
    pub(crate) fn meta_dir(&self) -> PathBuf {
        self.dir.join("meta")
    }

    pub(crate) fn sidecar_path(&self, id: u64) -> PathBuf {
        self.meta_dir().join(format!("{id:016x}.meta"))
    }

    /// Appends a journal record, fsyncing per policy, stepping the
    /// crash injector.
    pub(crate) fn journal_append(&self, rec: &JournalRecord) -> Result<(), StoreError> {
        self.journal
            .lock()
            .append(rec, &self.crash)
            .map_err(|e| StoreError::io("journal append", &e))
    }

    /// Writes an object's metadata sidecar via tmp + rename (+ fsync).
    pub(crate) fn write_sidecar(&self, meta: &ObjectMeta) -> Result<(), StoreError> {
        self.crash
            .step()
            .map_err(|e| StoreError::io("sidecar write", &e))?;
        let bytes = encode_sidecar(meta);
        let path = self.sidecar_path(meta.id);
        let tmp = path.with_extension("meta.tmp");
        let write = || -> io::Result<()> {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&bytes)?;
            if self.fsync {
                sync_file(&f)?;
            }
            drop(f);
            fs::rename(&tmp, &path)?;
            Ok(())
        };
        write().map_err(|e| StoreError::io("sidecar write", &e))?;
        self.crash
            .step()
            .map_err(|e| StoreError::io("sidecar write", &e))
    }

    /// Removes an object's sidecar (idempotent).
    pub(crate) fn remove_sidecar(&self, id: u64) -> Result<(), StoreError> {
        match fs::remove_file(self.sidecar_path(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io("sidecar remove", &e)),
        }
    }
}

impl StoreError {
    /// Wraps an `io::Error` with the operation that hit it.
    pub(crate) fn io(context: &str, e: &io::Error) -> Self {
        StoreError::Io {
            context: format!("{context}: {e}"),
        }
    }
}

fn device_gen_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join("devices").join(format!("dev-{idx}.gen"))
}

/// Reads a device's current incarnation number.
pub(crate) fn read_gen(dir: &Path, idx: usize) -> io::Result<u64> {
    let path = device_gen_path(dir, idx);
    fs::read_to_string(&path)?
        .trim()
        .parse::<u64>()
        .map_err(|_| io::Error::other(format!("corrupt incarnation file {path:?}")))
}

/// Reads a device's incarnation number, initialising to 0 if absent.
fn read_or_init_gen(dir: &Path, idx: usize, fsync: bool) -> io::Result<u64> {
    match read_gen(dir, idx) {
        Ok(gen) => Ok(gen),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            write_gen(dir, idx, 0, fsync)?;
            Ok(0)
        }
        Err(e) => Err(e),
    }
}

/// Persists a device's incarnation number via tmp + rename.
pub(crate) fn write_gen(dir: &Path, idx: usize, gen: u64, fsync: bool) -> io::Result<()> {
    let path = device_gen_path(dir, idx);
    let tmp = path.with_extension("gen.tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        writeln!(f, "{gen}")?;
        if fsync {
            sync_file(&f)?;
        }
    }
    fs::rename(&tmp, &path)
}

/// Builds the backend for device `idx` at incarnation `gen`.
pub(crate) fn make_backend(
    dir: &Path,
    kind: BackendKind,
    idx: usize,
    gen: u64,
    fsync: bool,
) -> io::Result<Box<dyn BlockBackend>> {
    let base = dir.join("devices").join(format!("dev-{idx}"));
    match kind {
        BackendKind::File => Ok(Box::new(FileBackend::open(
            &base.join(format!("g{gen}")),
            fsync,
        )?)),
        BackendKind::Segment => Ok(Box::new(SegmentBackend::open(
            &base.join(format!("g{gen}.seg")),
            fsync,
        )?)),
        BackendKind::Memory => Err(io::Error::other(
            "memory backend is volatile and cannot back a durable store",
        )),
    }
}

/// Best-effort removal of an old incarnation's backing storage. The
/// incarnation path scheme makes this cosmetic: even if it fails, the
/// old files can never be opened again.
pub(crate) fn remove_incarnation(dir: &Path, kind: BackendKind, idx: usize, gen: u64) {
    let base = dir.join("devices").join(format!("dev-{idx}"));
    match kind {
        BackendKind::File => {
            let _ = fs::remove_dir_all(base.join(format!("g{gen}")));
        }
        BackendKind::Segment => {
            let _ = fs::remove_file(base.join(format!("g{gen}.seg")));
        }
        BackendKind::Memory => {}
    }
}

fn encode_sidecar(meta: &ObjectMeta) -> Vec<u8> {
    let mut b = Vec::with_capacity(64 + meta.name.len() + meta.checksums.len() * 8);
    b.extend_from_slice(&META_MAGIC.to_le_bytes());
    b.extend_from_slice(&meta.id.to_le_bytes());
    b.extend_from_slice(&(meta.rotation as u64).to_le_bytes());
    b.extend_from_slice(&(meta.size as u64).to_le_bytes());
    b.extend_from_slice(&(meta.block_len as u64).to_le_bytes());
    b.extend_from_slice(&(meta.name.len() as u32).to_le_bytes());
    b.extend_from_slice(meta.name.as_bytes());
    b.extend_from_slice(&(meta.checksums.len() as u32).to_le_bytes());
    for sum in &meta.checksums {
        b.extend_from_slice(&sum.to_le_bytes());
    }
    let digest = checksum(&b);
    b.extend_from_slice(&digest.to_le_bytes());
    b
}

fn decode_sidecar(bytes: &[u8]) -> Option<ObjectMeta> {
    if bytes.len() < 8 + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let digest = u64::from_le_bytes(tail.try_into().ok()?);
    if checksum(body) != digest {
        return None;
    }
    let mut pos = 0usize;
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = body.get(pos..pos + n)?;
        pos += n;
        Some(s)
    };
    let magic = u64::from_le_bytes(take(8)?.try_into().ok()?);
    if magic != META_MAGIC {
        return None;
    }
    let id = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let rotation = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
    let size = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
    let block_len = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
    let name_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let name = String::from_utf8(take(name_len)?.to_vec()).ok()?;
    let nsums = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    let mut checksums = Vec::with_capacity(nsums);
    for _ in 0..nsums {
        checksums.push(u64::from_le_bytes(take(8)?.try_into().ok()?));
    }
    if pos != body.len() {
        return None;
    }
    Some(ObjectMeta {
        id,
        name,
        size,
        block_len,
        rotation,
        checksums,
    })
}

/// Verifies (or creates) the `STORE` marker so a directory can never be
/// opened with the wrong backend, graph, or device count.
fn check_marker(dir: &Path, graph: &Graph, cfg: &DurableConfig) -> Result<(), StoreError> {
    let path = dir.join(STORE_MARKER);
    let expect = format!(
        "tornado-store v{FORMAT_VERSION}\nbackend {}\ndevices {}\ngraph {:016x}\n",
        cfg.backend.as_str(),
        graph.num_nodes(),
        graph.fingerprint(),
    );
    match fs::read_to_string(&path) {
        Ok(found) => {
            if found == expect {
                Ok(())
            } else {
                Err(StoreError::Io {
                    context: format!(
                        "store marker mismatch at {path:?}: expected {expect:?}, found {found:?}"
                    ),
                })
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let write = || -> io::Result<()> {
                let mut f = File::create(&path)?;
                f.write_all(expect.as_bytes())?;
                if cfg.fsync {
                    sync_file(&f)?;
                }
                Ok(())
            };
            write().map_err(|e| StoreError::io("store marker write", &e))
        }
        Err(e) => Err(StoreError::io("store marker read", &e)),
    }
}

/// Opens (creating if empty) a durable store: builds the devices from
/// their current incarnations, scans the journal, rolls torn puts back,
/// replays deletes, and rebuilds the object map from sidecars.
pub(crate) fn open(
    graph: Graph,
    cfg: DurableConfig,
) -> Result<(ArchivalStore, RecoveryReport), StoreError> {
    let t0 = Instant::now();
    if cfg.backend == BackendKind::Memory {
        return Err(StoreError::Io {
            context: "memory backend is volatile; ArchivalStore::open requires file or segment"
                .to_string(),
        });
    }
    let dir = &cfg.dir;
    for sub in ["meta", "devices"] {
        fs::create_dir_all(dir.join(sub)).map_err(|e| StoreError::io("store mkdir", &e))?;
    }
    check_marker(dir, &graph, &cfg)?;

    // Devices: current incarnation of each, index rebuilt by backend scan.
    let n = graph.num_nodes();
    let mut devices = Vec::with_capacity(n);
    for idx in 0..n {
        let gen = read_or_init_gen(dir, idx, cfg.fsync)
            .map_err(|e| StoreError::io("device incarnation", &e))?;
        let backend = make_backend(dir, cfg.backend, idx, gen, cfg.fsync)
            .map_err(|e| StoreError::io("backend open", &e))?;
        devices.push(Device::with_backend(idx, backend));
    }

    // Journal scan: classify the in-flight window.
    let (mut journal, scan) = IntentJournal::open(&dir.join("journal.wal"), cfg.fsync)
        .map_err(|e| StoreError::io("journal open", &e))?;
    let mut intents: IndexMap<u64, (u32, u32)> = IndexMap::default();
    let mut commits: IndexSet<u64> = IndexSet::default();
    let mut deletes: Vec<(u64, u32, u32)> = Vec::new();
    for rec in &scan.records {
        match *rec {
            JournalRecord::PutIntent {
                id,
                rotation,
                nodes,
            } => {
                intents.insert(id, (rotation, nodes));
            }
            JournalRecord::PutCommit { id } => {
                commits.insert(id);
            }
            JournalRecord::Delete {
                id,
                rotation,
                nodes,
            } => {
                deletes.push((id, rotation, nodes));
            }
        }
    }

    // Object map: the sidecars are the source of truth.
    let mut objects: IndexMap<u64, ObjectMeta> = IndexMap::default();
    let mut invalid_sidecars = 0usize;
    let meta_dir = dir.join("meta");
    let entries = fs::read_dir(&meta_dir).map_err(|e| StoreError::io("meta scan", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("meta scan", &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if !name.ends_with(".meta") {
            continue;
        }
        let bytes = fs::read(entry.path()).map_err(|e| StoreError::io("meta read", &e))?;
        match decode_sidecar(&bytes) {
            Some(meta) => {
                objects.insert(meta.id, meta);
            }
            None => {
                invalid_sidecars += 1;
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    // Roll back torn puts: intent without commit → delete blocks + sidecar.
    let mut rolled_back = 0usize;
    let mut max_seen_id = objects.keys().copied().max().unwrap_or(0);
    let delete_stripe = |id: u64, rotation: u32, nodes: u32| {
        for node in 0..nodes {
            let dev = device_of_node(node as usize, rotation as usize, n);
            devices[dev].delete_block(&(id, node));
        }
        let _ = fs::remove_file(meta_dir.join(format!("{id:016x}.meta")));
    };
    for (&id, &(rotation, nodes)) in &intents {
        max_seen_id = max_seen_id.max(id);
        if !commits.contains(&id) {
            delete_stripe(id, rotation, nodes);
            objects.remove(&id);
            rolled_back += 1;
        }
    }
    // Replay deletes (idempotent: blocks/sidecars may already be gone).
    for &(id, rotation, nodes) in &deletes {
        max_seen_id = max_seen_id.max(id);
        delete_stripe(id, rotation, nodes);
        objects.remove(&id);
    }

    // The journal's effects are now fully captured on disk; truncate it.
    journal
        .reset()
        .map_err(|e| StoreError::io("journal reset", &e))?;

    let duration_us = t0.elapsed().as_micros() as u64;
    let report = RecoveryReport {
        duration_us,
        journal_records: scan.records.len(),
        torn_tail: scan.torn_tail,
        committed_puts: commits.len(),
        rolled_back,
        deletes_replayed: deletes.len(),
        invalid_sidecars,
        objects: objects.len(),
    };
    let m = metrics();
    m.recoveries.add(1);
    m.journal_replays.add(scan.records.len() as u64);
    m.journal_rollbacks.add(rolled_back as u64);
    m.recovery_us.add(duration_us);

    let durability = Durability {
        dir: dir.clone(),
        kind: cfg.backend,
        fsync: cfg.fsync,
        journal: Mutex::new(journal),
        crash: CrashInjector::default(),
    };
    let next_id = max_seen_id + 1;
    let object_count = objects.len() as u64;
    let store = ArchivalStore::assemble(
        graph,
        devices,
        objects,
        next_id,
        object_count,
        Some(durability),
    );
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_roundtrip_and_rejects_rot() {
        let meta = ObjectMeta {
            id: 42,
            name: "photo-archive/2031/img_0042.raw".to_string(),
            size: 123457,
            block_len: 2572,
            rotation: 17,
            checksums: (0..96u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
                .collect(),
        };
        let bytes = encode_sidecar(&meta);
        assert_eq!(decode_sidecar(&bytes).unwrap(), meta);
        let mut rotted = bytes.clone();
        rotted[20] ^= 0x10;
        assert!(decode_sidecar(&rotted).is_none(), "checksum catches rot");
        assert!(
            decode_sidecar(&bytes[..bytes.len() - 1]).is_none(),
            "truncation"
        );
        assert!(decode_sidecar(&[]).is_none());
    }

    #[test]
    fn backend_kind_labels_roundtrip() {
        for kind in [BackendKind::Memory, BackendKind::File, BackendKind::Segment] {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(format!("{kind}"), kind.as_str());
        }
        assert_eq!(BackendKind::parse("s3"), None);
    }
}
