//! Crash-recovery sweep: die at *every* durability step of a put
//! workload, reopen, and prove the atomicity contract.
//!
//! The contract (DESIGN.md, "Durable backends"):
//!
//! * an **acknowledged** put (returned `Ok`) is durable — the object
//!   GETs byte-for-byte after reopen;
//! * an **unacknowledged** put is atomic — after recovery the object is
//!   either fully present (byte-for-byte; the crash hit after the
//!   commit record was durable but before the ack) or fully absent
//!   (torn, rolled back), never a partial stripe;
//! * no orphan blocks survive: every block on every device belongs to
//!   an object in the recovered map;
//! * recovery is idempotent: a second open finds nothing to do.
//!
//! The sweep is deterministic — the [`CrashInjector`] fails the N-th
//! durability step (journal append, block write, sidecar write) and the
//! test walks N upward until a full workload completes uncrashed — and
//! is run for both durable backends, in both plain and torn-journal
//! modes. A proptest then randomises payload sizes, workload length,
//! and crash point on top.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tornado_store::{ArchivalStore, BackendKind, DurableConfig, RecoveryReport, StoreError};

fn small_graph() -> tornado_graph::Graph {
    let mut b = tornado_graph::GraphBuilder::new(4);
    b.begin_level("c1");
    b.add_check(&[0, 1]);
    b.add_check(&[2, 3]);
    b.begin_level("c2");
    b.add_check(&[4, 5]);
    b.build().unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tornado-crashrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn payload_for(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|b| (b as u64).wrapping_mul(31).wrapping_add(i * 97) as u8)
        .collect()
}

fn open(dir: &Path, backend: BackendKind) -> (ArchivalStore, RecoveryReport) {
    ArchivalStore::open(small_graph(), DurableConfig::new_nosync(dir, backend)).expect("open")
}

/// Checks the full post-recovery contract. `attempted` maps the object
/// id each put would have been assigned to its payload; `acked` flags
/// the puts that returned `Ok` before the crash.
fn assert_consistent(store: &ArchivalStore, attempted: &HashMap<u64, (Vec<u8>, bool)>) {
    let n = store.num_devices();
    for (&id, (payload, acked)) in attempted {
        match (store.meta(id).is_some(), acked) {
            (true, _) => {
                // Present ⇒ must be complete: byte-for-byte GET.
                assert_eq!(
                    &store.get(id).expect("get recovered"),
                    payload,
                    "object {id}"
                );
            }
            (false, true) => panic!("acknowledged object {id} lost after recovery"),
            (false, false) => {
                // Absent ⇒ must be *fully* absent: no stray blocks.
                for dev in 0..n {
                    for node in 0..n as u32 {
                        assert!(
                            store.device(dev).unwrap().locate(&(id, node)).is_none(),
                            "orphan block ({id}, {node}) on device {dev}"
                        );
                    }
                }
            }
        }
    }
    // Global orphan check: exactly one block per (object, node) pair.
    let total: usize = (0..n).map(|d| store.device(d).unwrap().block_count()).sum();
    assert_eq!(
        total,
        store.list().len() * n,
        "block count == objects × devices"
    );
}

/// The deterministic sweep, parameterised by backend and journal-tear
/// mode. Returns how many crash points it exercised.
fn sweep(backend: BackendKind, torn: bool) -> usize {
    const PUTS: u64 = 3;
    let mut step = 0i64;
    loop {
        let tag = format!(
            "sweep-{}-{}-{step}",
            backend.as_str(),
            if torn { "torn" } else { "plain" }
        );
        let dir = tmpdir(&tag);
        let mut attempted: HashMap<u64, (Vec<u8>, bool)> = HashMap::new();
        let mut crashed = false;
        {
            let (store, report) = open(&dir, backend);
            assert_eq!(report.objects, 0);
            let crash = store.crash_injector().expect("durable store");
            if torn {
                crash.arm_torn(step);
            } else {
                crash.arm(step);
            }
            for i in 0..PUTS {
                let payload = payload_for(i, 64 + i as usize * 33);
                let expected_id = i + 1; // fresh store: ids are sequential
                match store.put(&format!("obj-{i}"), &payload) {
                    Ok(id) => {
                        assert_eq!(id, expected_id);
                        attempted.insert(id, (payload, true));
                    }
                    Err(StoreError::Io { .. }) => {
                        attempted.insert(expected_id, (payload, false));
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected put error: {e}"),
                }
            }
            if crashed {
                assert!(crash.tripped());
            }
            // The store is dropped here without cleanup — a simulated
            // SIGKILL at the failed step.
        }
        let (store, report) = open(&dir, backend);
        assert_consistent(&store, &attempted);
        // Idempotence: reopening the recovered store finds a clean
        // journal and changes nothing.
        let objects_after = store.list().len();
        drop(store);
        let (store2, report2) = open(&dir, backend);
        assert_eq!(report2.journal_records, 0, "journal was truncated");
        assert_eq!(report2.rolled_back, 0);
        assert_eq!(store2.list().len(), objects_after);
        drop(store2);
        let _ = std::fs::remove_dir_all(&dir);
        if !crashed {
            // The whole workload fit under the budget: sweep complete.
            // The journal holds the full intent/commit history (it is
            // truncated by recovery, not by shutdown) and nothing was
            // torn.
            assert_eq!(report.journal_records, PUTS as usize * 2);
            assert_eq!(report.rolled_back, 0);
            assert_eq!(report.committed_puts, PUTS as usize);
            return step as usize;
        }
        assert!(
            report.journal_records > 0 || step == 0,
            "a crash after the first step leaves journal evidence"
        );
        step += 1;
        assert!(step < 200, "sweep failed to terminate");
    }
}

#[test]
fn crash_at_every_step_file_backend() {
    let steps = sweep(BackendKind::File, false);
    // 3 puts × (2 journal-intent + 7 blocks + 2 sidecar + 2 commit).
    assert_eq!(steps, 3 * 13, "every durability step was exercised");
}

#[test]
fn crash_at_every_step_segment_backend() {
    assert_eq!(sweep(BackendKind::Segment, false), 3 * 13);
}

#[test]
fn torn_journal_write_at_every_append_file_backend() {
    // In torn mode the budget counts journal appends only: 2 per put.
    assert_eq!(sweep(BackendKind::File, true), 3 * 2);
}

#[test]
fn torn_journal_write_at_every_append_segment_backend() {
    assert_eq!(sweep(BackendKind::Segment, true), 3 * 2);
}

#[test]
fn crash_after_delete_journaled_replays_the_delete() {
    let dir = tmpdir("delete-replay");
    {
        let (store, _) = open(&dir, BackendKind::File);
        let id1 = store.put("keep", &payload_for(0, 128)).unwrap();
        let id2 = store.put("drop", &payload_for(1, 128)).unwrap();
        assert_eq!((id1, id2), (1, 2));
        // Crash right after the Delete record is durable (append is
        // steps pre+post: budget 1 survives the pre, dies at the post),
        // before the sidecar or any block is removed.
        store.crash_injector().unwrap().arm(1);
        let err = store.delete(id2).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }
    let (store, report) = open(&dir, BackendKind::File);
    assert_eq!(report.deletes_replayed, 1);
    assert_eq!(store.list().len(), 1, "journaled delete was completed");
    assert_eq!(store.get(1).unwrap(), payload_for(0, 128));
    assert!(matches!(
        store.get(2),
        Err(StoreError::UnknownObject { .. })
    ));
    assert_consistent(&store, &HashMap::from([(1, (payload_for(0, 128), true))]));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_before_delete_journaled_keeps_the_object() {
    let dir = tmpdir("delete-kept");
    {
        let (store, _) = open(&dir, BackendKind::Segment);
        store.put("keep", &payload_for(7, 256)).unwrap();
        store.crash_injector().unwrap().arm(0); // die before the record lands
        assert!(store.delete(1).is_err());
    }
    let (store, report) = open(&dir, BackendKind::Segment);
    assert_eq!(report.deletes_replayed, 0);
    assert_eq!(store.get(1).unwrap(), payload_for(7, 256));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workloads, random crash points, both backends: the
    /// recovery contract holds everywhere, and surviving objects keep
    /// byte-for-byte payload fidelity through crash + reopen.
    #[test]
    fn recovery_contract_holds_for_random_crashes(
        seed in any::<u32>(),
        puts in 1u64..5,
        crash_step in 0i64..60,
        use_segment in any::<bool>(),
        torn in any::<bool>(),
    ) {
        let backend = if use_segment { BackendKind::Segment } else { BackendKind::File };
        let dir = tmpdir(&format!("prop-{seed}-{puts}-{crash_step}"));
        let mut attempted: HashMap<u64, (Vec<u8>, bool)> = HashMap::new();
        {
            let (store, _) = open(&dir, backend);
            let crash = store.crash_injector().unwrap();
            if torn { crash.arm_torn(crash_step) } else { crash.arm(crash_step) }
            for i in 0..puts {
                let len = 1 + ((seed as usize).wrapping_mul(2654435761).wrapping_add(i as usize * 977)) % 4096;
                let payload = payload_for(seed as u64 + i, len);
                match store.put(&format!("p-{i}"), &payload) {
                    Ok(id) => { attempted.insert(id, (payload, true)); }
                    Err(StoreError::Io { .. }) => {
                        attempted.insert(i + 1, (payload, false));
                        break;
                    }
                    Err(e) => panic!("unexpected put error: {e}"),
                }
            }
        }
        let (store, _) = open(&dir, backend);
        assert_consistent(&store, &attempted);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
