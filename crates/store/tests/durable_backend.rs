//! Durable-backend behaviour: reopen fidelity, incarnation-gated device
//! replacement, the `STORE` marker guard, and `io_errors` surfacing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tornado_codec::kernels::Ahead;
use tornado_store::{
    ArchivalStore, BackendKind, BlockProbe, DurableConfig, ScrubMode, Scrubber, StoreError,
    StoreObserver,
};

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
    let d = std::env::temp_dir().join(format!("tornado-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, backend: BackendKind) -> ArchivalStore {
    ArchivalStore::open(small_graph(), DurableConfig::new_nosync(dir, backend))
        .expect("open")
        .0
}

fn roundtrip_through_reopen(backend: BackendKind) {
    let dir = tmpdir(&format!("roundtrip-{}", backend.as_str()));
    let mut expect: HashMap<u64, Vec<u8>> = HashMap::new();
    {
        let store = open(&dir, backend);
        assert_eq!(store.backend_kind(), backend);
        assert_eq!(store.data_dir(), Some(dir.as_path()));
        for i in 0..5u64 {
            let payload: Vec<u8> = (0..100 + i as usize * 71)
                .map(|b| (b as u64 * 13 + i) as u8)
                .collect();
            let id = store.put(&format!("o{i}"), &payload).unwrap();
            expect.insert(id, payload);
        }
        // Delete one durably; it must stay deleted across reopen.
        let deleted = 3u64;
        store.delete(deleted).unwrap();
        expect.remove(&deleted);
    }
    let store = open(&dir, backend);
    assert_eq!(store.list().len(), expect.len());
    for (id, payload) in &expect {
        assert_eq!(&store.get(*id).unwrap(), payload);
        let meta = store.meta(*id).unwrap();
        assert_eq!(meta.size, payload.len());
    }
    // New puts after reopen get fresh ids and coexist with recovered
    // objects.
    let id = store.put("after-reopen", b"still alive").unwrap();
    assert!(expect.keys().all(|&k| k != id), "no id reuse after reopen");
    assert_eq!(store.get(id).unwrap(), b"still alive");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_backend_roundtrips_through_reopen() {
    roundtrip_through_reopen(BackendKind::File);
}

#[test]
fn segment_backend_roundtrips_through_reopen() {
    roundtrip_through_reopen(BackendKind::Segment);
}

#[test]
fn degraded_get_and_scrub_repair_work_on_durable_store() {
    let dir = tmpdir("degraded");
    let store = open(&dir, BackendKind::File);
    let payload: Vec<u8> = (0..2048).map(|b| (b % 251) as u8).collect();
    let id = store.put("x", &payload).unwrap();
    store.fail_device(0).unwrap();
    assert_eq!(store.get(id).unwrap(), payload, "degraded read decodes");
    store.replace_device(0).unwrap();
    let scrubber = Scrubber::new(1);
    let outcome = scrubber.run(&store, 1, true, ScrubMode::Full);
    assert!(outcome.blocks_repaired > 0, "scrub rewrote the lost block");
    // The repaired block is durable: visible after a reopen.
    drop(store);
    let store = open(&dir, BackendKind::File);
    let meta = store.meta(id).unwrap();
    let dev0_node = (0..store.num_devices() as u32)
        .find(|&n| store.device_of_block(&meta, n) == 0)
        .unwrap();
    assert!(store.device(0).unwrap().locate(&(id, dev0_node)).is_some());
    assert_eq!(store.get(id).unwrap(), payload);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replaced_device_cannot_read_stale_incarnation_files() {
    let dir = tmpdir("incarnation");
    let store = open(&dir, BackendKind::File);
    let id = store.put("x", b"stale data probe").unwrap();
    let meta = store.meta(id).unwrap();
    let node = (0..store.num_devices() as u32)
        .find(|&n| store.device_of_block(&meta, n) == 0)
        .unwrap();
    assert!(store.device(0).unwrap().locate(&(id, node)).is_some());

    // Fail the device but sabotage the destroy by planting a copy of the
    // old incarnation's directory back on disk after failure: without
    // incarnation gating, a replace would happily serve these bytes.
    let g0 = dir.join("devices").join("dev-0").join("g0");
    store.fail_device(0).unwrap();
    std::fs::create_dir_all(&g0).unwrap();
    std::fs::write(
        g0.join(format!("{id:016x}.{node:08x}.blk")),
        b"ghost of incarnation zero",
    )
    .unwrap();

    store.replace_device(0).unwrap();
    assert!(store.device(0).unwrap().is_online());
    assert!(
        store.device(0).unwrap().locate(&(id, node)).is_none(),
        "replacement must come up empty even with stale files on disk"
    );
    // The new incarnation writes land in g1, not g0.
    assert_eq!(
        std::fs::read_to_string(dir.join("devices").join("dev-0.gen"))
            .unwrap()
            .trim(),
        "1"
    );
    // And a reopen attaches incarnation 1, still blind to the ghost.
    drop(store);
    let store = open(&dir, BackendKind::File);
    assert!(store.device(0).unwrap().locate(&(id, node)).is_none());
    assert_eq!(
        store.get(id).unwrap(),
        b"stale data probe",
        "decode routes around"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_marker_rejects_backend_and_graph_mismatch() {
    let dir = tmpdir("marker");
    drop(open(&dir, BackendKind::File));
    // Same graph, different backend: refused.
    let err = ArchivalStore::open(
        small_graph(),
        DurableConfig::new_nosync(dir.clone(), BackendKind::Segment),
    )
    .err()
    .expect("open must fail");
    assert!(matches!(err, StoreError::Io { .. }));
    // Different graph, same backend: refused.
    let graph = {
        let mut b = tornado_graph::GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[1, 2]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    };
    let err = ArchivalStore::open(
        graph,
        DurableConfig::new_nosync(dir.clone(), BackendKind::File),
    )
    .err()
    .expect("open must fail");
    assert!(matches!(err, StoreError::Io { .. }));
    // The matching config still opens fine.
    drop(open(&dir, BackendKind::File));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_backend_is_not_openable_durably() {
    let dir = tmpdir("memopen");
    let err = ArchivalStore::open(
        small_graph(),
        DurableConfig::new(dir.clone(), BackendKind::Memory),
    )
    .err()
    .expect("open must fail");
    assert!(matches!(err, StoreError::Io { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_errors_are_counted_and_surfaced_as_device_gauge() {
    let dir = tmpdir("ioerr-gauge");
    let store = open(&dir, BackendKind::File);
    let id = store.put("x", b"gauge probe payload").unwrap();
    let meta = store.meta(id).unwrap();
    // Sabotage device 1's block file: replace it with a directory so
    // reads fail with a real I/O error (not a missing file).
    let node = (0..store.num_devices() as u32)
        .find(|&n| store.device_of_block(&meta, n) == 1)
        .unwrap();
    let blk = dir
        .join("devices")
        .join("dev-1")
        .join("g0")
        .join(format!("{id:016x}.{node:08x}.blk"));
    std::fs::remove_file(&blk).unwrap();
    std::fs::create_dir(&blk).unwrap();

    assert_eq!(
        store.device(1).unwrap().verify_block(
            &(id, node),
            meta.checksums[node as usize],
            Ahead::NONE
        ),
        BlockProbe::Missing,
        "I/O error reads as an erasure"
    );
    assert_eq!(
        store.get(id).unwrap(),
        b"gauge probe payload",
        "decode routes around"
    );
    let stats = store.device(1).unwrap().stats();
    assert!(stats.io_errors >= 1, "backend failure counted");
    assert_eq!(stats.failed_reads, 0, "device stayed online");

    let mut snap = tornado_obs::Snapshot::new("test", 0);
    StoreObserver::disabled().record_into(&store, &mut snap);
    let counters = snap.to_json().get("counters").cloned().unwrap();
    let io_errors = counters.get("device.io_errors").and_then(|v| v.as_u64());
    assert!(
        io_errors >= Some(1),
        "the pool-wide counter carries it: {counters:?}"
    );
    assert!(
        counters.get("backend.journal_appends").is_some(),
        "backend counters surfaced"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
