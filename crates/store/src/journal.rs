//! Write-ahead intent journal: makes a stripe put atomic across devices.
//!
//! A put writes one block to (almost) every device; a crash mid-put
//! would otherwise leave a torn stripe that looks like massive
//! correlated damage. The journal brackets every multi-device mutation:
//!
//! 1. append `PutIntent { id, rotation, nodes }` + fsync — the put is
//!    now *announced*;
//! 2. write the blocks; flush the touched devices;
//! 3. write the object's metadata sidecar (tmp + rename + fsync);
//! 4. append `PutCommit { id }` + fsync — the put is now *acknowledged*.
//!
//! Recovery-on-open (see [`crate::durable`]) scans the journal: an
//! intent with a matching commit is fully durable; an intent without
//! one is torn and gets rolled back (blocks + sidecar deleted). After
//! recovery the journal is truncated to zero, so it stays bounded by
//! the crash-window write rate, not store size.
//!
//! Record wire format (little-endian):
//!
//! ```text
//! [len u32][fnv u64 of payload][payload]
//! payload = [kind u8][id u64]            (commit)
//!         | [kind u8][id u64][rotation u32][nodes u32]   (intent, delete)
//! ```
//!
//! A torn append can only be a torn *tail* (appends are sequential);
//! the scan stops at the first short or checksum-failing frame.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use tornado_codec::checksum;

use crate::backend::{metrics, sync_file};

const KIND_PUT_INTENT: u8 = 1;
const KIND_PUT_COMMIT: u8 = 2;
const KIND_DELETE: u8 = 3;

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A stripe put is about to write blocks for object `id`.
    PutIntent {
        /// Object id the put allocated.
        id: u64,
        /// Stripe rotation (device of node 0), needed to locate blocks
        /// during rollback without the sidecar.
        rotation: u32,
        /// Number of graph nodes (= blocks) in the stripe.
        nodes: u32,
    },
    /// The put for `id` is fully durable (blocks + sidecar synced).
    PutCommit {
        /// Object id.
        id: u64,
    },
    /// Object `id` is being deleted; replayed idempotently on recovery.
    Delete {
        /// Object id.
        id: u64,
        /// Stripe rotation, to locate the blocks.
        rotation: u32,
        /// Number of graph nodes in the stripe.
        nodes: u32,
    },
}

impl JournalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(17);
        match *self {
            JournalRecord::PutIntent {
                id,
                rotation,
                nodes,
            } => {
                p.push(KIND_PUT_INTENT);
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&rotation.to_le_bytes());
                p.extend_from_slice(&nodes.to_le_bytes());
            }
            JournalRecord::PutCommit { id } => {
                p.push(KIND_PUT_COMMIT);
                p.extend_from_slice(&id.to_le_bytes());
            }
            JournalRecord::Delete {
                id,
                rotation,
                nodes,
            } => {
                p.push(KIND_DELETE);
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&rotation.to_le_bytes());
                p.extend_from_slice(&nodes.to_le_bytes());
            }
        }
        p
    }

    fn decode_payload(p: &[u8]) -> Option<Self> {
        let kind = *p.first()?;
        let id = u64::from_le_bytes(p.get(1..9)?.try_into().ok()?);
        match kind {
            KIND_PUT_COMMIT if p.len() == 9 => Some(JournalRecord::PutCommit { id }),
            KIND_PUT_INTENT | KIND_DELETE if p.len() == 17 => {
                let rotation = u32::from_le_bytes(p[9..13].try_into().ok()?);
                let nodes = u32::from_le_bytes(p[13..17].try_into().ok()?);
                Some(match kind {
                    KIND_PUT_INTENT => JournalRecord::PutIntent {
                        id,
                        rotation,
                        nodes,
                    },
                    _ => JournalRecord::Delete {
                        id,
                        rotation,
                        nodes,
                    },
                })
            }
            _ => None,
        }
    }

    fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// What a journal scan found.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Valid records, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the scan stopped at a torn/corrupt tail frame.
    pub torn_tail: bool,
    /// Bytes of valid journal scanned.
    pub(crate) valid_bytes: u64,
}

/// The per-store write-ahead intent journal.
#[derive(Debug)]
pub struct IntentJournal {
    file: File,
    fsync: bool,
    /// Append point (end of last valid frame).
    end: u64,
}

impl IntentJournal {
    /// Opens (creating if needed) the journal at `path` and scans it.
    /// Appends resume after the last valid frame; a torn tail is
    /// reported in the scan and overwritten by the next append after the
    /// journal is reset (recovery-on-open resets it once it has replayed).
    pub fn open(path: &Path, fsync: bool) -> io::Result<(Self, JournalScan)> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut scan = JournalScan::default();
        let mut pos = 0u64;
        file.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; 12];
        let mut payload = Vec::new();
        while pos < file_len {
            if file_len - pos < 12 {
                scan.torn_tail = true;
                break;
            }
            file.read_exact(&mut head)?;
            let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as u64;
            let sum = u64::from_le_bytes(head[4..12].try_into().unwrap());
            // Payloads are tiny (≤ 17 bytes); anything larger is garbage.
            if len > 64 || file_len - pos - 12 < len {
                scan.torn_tail = true;
                break;
            }
            payload.resize(len as usize, 0);
            file.read_exact(&mut payload)?;
            if checksum(&payload) != sum {
                scan.torn_tail = true;
                break;
            }
            let Some(rec) = JournalRecord::decode_payload(&payload) else {
                scan.torn_tail = true;
                break;
            };
            scan.records.push(rec);
            pos += 12 + len;
        }
        metrics().scan_bytes.add(pos);
        scan.valid_bytes = pos;
        file.seek(SeekFrom::Start(pos))?;
        Ok((
            Self {
                file,
                fsync,
                end: pos,
            },
            scan,
        ))
    }

    /// Appends a record (fsyncing if enabled). `crash` injects a
    /// simulated process death: either before anything is written or
    /// after only half the frame hit the file (a torn tail).
    pub fn append(&mut self, rec: &JournalRecord, crash: &CrashInjector) -> io::Result<()> {
        let frame = rec.encode_frame();
        self.file.seek(SeekFrom::Start(self.end))?;
        crash.step()?; // crash before the append: nothing written
        if crash.step_peek_torn() {
            // Crash mid-append: half the frame reaches the file.
            self.file.write_all(&frame[..frame.len() / 2])?;
            let _ = sync_file(&self.file);
            return Err(CrashInjector::crash_error());
        }
        self.file.write_all(&frame)?;
        self.end += frame.len() as u64;
        if self.fsync {
            sync_file(&self.file)?;
        }
        metrics().journal_appends.add(1);
        crash.step()?; // crash after the append is durable
        Ok(())
    }

    /// Truncates the journal to zero after a completed recovery — every
    /// surviving effect is now captured by sidecars and block files.
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.end = 0;
        sync_file(&self.file)
    }
}

/// Deterministic crash injection for recovery tests.
///
/// Arm it with a step budget; every durability step in a put/delete
/// (journal appends, block writes, sidecar writes) decrements the
/// budget, and the step that exhausts it fails with a "simulated
/// crash" `io::Error`. The store deliberately does **no** cleanup on
/// that error — the in-memory object map is simply never updated, and
/// the on-disk state is left exactly as a SIGKILL at that instant
/// would leave it. Dropping the store and reopening the directory then
/// exercises the real recovery path. Once tripped, the injector stays
/// tripped: all subsequent steps fail.
#[derive(Debug, Default)]
pub struct CrashInjector {
    armed: AtomicBool,
    remaining: AtomicI64,
    /// When set, the *journal-append* step that exhausts the budget
    /// tears the frame (writes half of it) instead of writing nothing.
    torn_writes: AtomicBool,
}

impl CrashInjector {
    /// Arms the injector: the `steps + 1`-th durability step fails.
    /// `steps == 0` crashes on the very first step.
    pub fn arm(&self, steps: i64) {
        self.remaining.store(steps, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Arms with torn journal writes: when the budget runs out inside a
    /// journal append, half the frame reaches the file first.
    pub fn arm_torn(&self, steps: i64) {
        self.torn_writes.store(true, Ordering::SeqCst);
        self.arm(steps);
    }

    /// Whether the injector has already fired.
    pub fn tripped(&self) -> bool {
        self.armed.load(Ordering::SeqCst) && self.remaining.load(Ordering::SeqCst) <= 0
    }

    pub(crate) fn crash_error() -> io::Error {
        io::Error::other("simulated crash (injected)")
    }

    /// One durability step: `Err` when the budget is exhausted. In torn
    /// mode ([`CrashInjector::arm_torn`]) plain steps are free — the
    /// budget counts journal appends only, so the crash always lands as
    /// a torn journal frame.
    pub(crate) fn step(&self) -> io::Result<()> {
        if !self.armed.load(Ordering::SeqCst) || self.torn_writes.load(Ordering::SeqCst) {
            return Ok(());
        }
        let prev = self.remaining.fetch_sub(1, Ordering::SeqCst);
        if prev <= 0 {
            self.remaining.store(0, Ordering::SeqCst); // stay tripped
            Err(Self::crash_error())
        } else {
            Ok(())
        }
    }

    /// Like [`CrashInjector::step`] but signals the caller to tear the
    /// write in progress rather than returning early. Only consulted by
    /// journal appends.
    fn step_peek_torn(&self) -> bool {
        if !self.armed.load(Ordering::SeqCst) || !self.torn_writes.load(Ordering::SeqCst) {
            return false;
        }
        let prev = self.remaining.fetch_sub(1, Ordering::SeqCst);
        if prev <= 0 {
            self.remaining.store(0, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpj(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("tornado-journal-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmpj("roundtrip");
        let quiet = CrashInjector::default();
        let recs = [
            JournalRecord::PutIntent {
                id: 7,
                rotation: 3,
                nodes: 96,
            },
            JournalRecord::PutCommit { id: 7 },
            JournalRecord::Delete {
                id: 7,
                rotation: 3,
                nodes: 96,
            },
        ];
        {
            let (mut j, scan) = IntentJournal::open(&path, false).unwrap();
            assert!(scan.records.is_empty());
            for r in &recs {
                j.append(r, &quiet).unwrap();
            }
        }
        let (_, scan) = IntentJournal::open(&path, false).unwrap();
        assert_eq!(scan.records, recs);
        assert!(!scan.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_append_is_detected_and_overwritten_after_reset() {
        let path = tmpj("torn");
        let crash = CrashInjector::default();
        {
            let (mut j, _) = IntentJournal::open(&path, false).unwrap();
            j.append(
                &JournalRecord::PutIntent {
                    id: 1,
                    rotation: 0,
                    nodes: 4,
                },
                &crash,
            )
            .unwrap();
            crash.arm_torn(0);
            let err = j
                .append(&JournalRecord::PutCommit { id: 1 }, &crash)
                .unwrap_err();
            assert!(err.to_string().contains("simulated crash"));
        }
        let (mut j, scan) = IntentJournal::open(&path, false).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
        j.reset().unwrap();
        drop(j);
        let (_, scan) = IntentJournal::open(&path, false).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injector_budget_and_trip_latching() {
        let c = CrashInjector::default();
        assert!(c.step().is_ok()); // disarmed: free
        c.arm(2);
        assert!(c.step().is_ok());
        assert!(c.step().is_ok());
        assert!(c.step().is_err());
        assert!(c.step().is_err()); // stays tripped
        assert!(c.tripped());
    }
}
