//! Concurrent degraded reads: device failures injected *while* reader
//! threads hammer `get` must never produce a torn or wrong payload. Every
//! successful response has to match the original bytes exactly — the
//! `RwLock` boundaries inside [`tornado_store::Device`] and the
//! checksum-verified fetch path are what this exercises. A device that
//! fails between a GET's data pass and its check fetch must cost that GET
//! one replan, never a second read of a block it already holds (the forced
//! interleaving of exactly that is a unit test beside `get_detailed`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tornado_store::{ArchivalStore, StoreError};

fn catalog_store() -> ArchivalStore {
    // Catalog graph 1 is certified to survive any four device failures,
    // so with k = 4 failed devices every read must still succeed.
    ArchivalStore::new(tornado_core::tornado_graph_1())
}

/// Deterministic per-object payload so readers can verify byte-for-byte.
fn payload_for(i: usize) -> Vec<u8> {
    (0..2048 + i * 17)
        .map(|b| ((b as u64).wrapping_mul(31).wrapping_add(i as u64 * 131)) as u8)
        .collect()
}

#[test]
fn concurrent_reads_survive_mid_run_device_failures() {
    let store = Arc::new(catalog_store());
    let objects = 6;
    let expected: Vec<Vec<u8>> = (0..objects).map(payload_for).collect();
    let ids: Vec<u64> = expected
        .iter()
        .enumerate()
        .map(|(i, p)| store.put(&format!("obj-{i}"), p).unwrap())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reads_ok = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicU64::new(0));
    let attributed = Arc::new(AtomicU64::new(0));
    let replans = Arc::new(AtomicU64::new(0));
    let (readers_n, failures) = (8usize, [3usize, 17, 48, 95]);

    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for reader in 0..readers_n {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let reads_ok = Arc::clone(&reads_ok);
            let degraded = Arc::clone(&degraded);
            let attributed = Arc::clone(&attributed);
            let replans = Arc::clone(&replans);
            let ids = ids.clone();
            let expected = expected.clone();
            readers.push(s.spawn(move || {
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    let object = i % ids.len();
                    match store.get_detailed(ids[object]) {
                        Ok((payload, stats)) => {
                            assert_eq!(
                                payload, expected[object],
                                "torn or wrong payload for object {object}"
                            );
                            reads_ok.fetch_add(1, Ordering::Relaxed);
                            attributed.fetch_add(stats.cost.blocks_fetched, Ordering::Relaxed);
                            replans.fetch_add(stats.replans as u64, Ordering::Relaxed);
                            if stats.degraded() {
                                degraded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // A read can transiently race the failure window
                        // past the decode tolerance only if more than the
                        // certified count is down — with exactly 4 failed
                        // this must never happen.
                        Err(e) => panic!("read failed under tolerable failures: {e}"),
                    }
                    i += 1;
                }
            }));
        }

        // Fail k = 4 devices while the readers are running, spaced out so
        // reads interleave with every intermediate failure state.
        for &device in &failures {
            std::thread::sleep(std::time::Duration::from_millis(20));
            store.fail_device(device).unwrap();
        }
        // Let readers observe the fully-degraded store for a while.
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });

    assert_eq!(store.offline_devices(), failures);
    // Nothing is corrupt and every GET succeeded, so every block a device
    // served was attributed by exactly one GET: no block was read twice,
    // whatever a failure interrupted.
    let served: u64 = (0..store.num_devices())
        .map(|d| store.device(d).unwrap().stats().reads)
        .sum();
    assert_eq!(served, attributed.load(Ordering::Relaxed));
    // A replan is a check block lost between its probe and its fetch: at
    // most one per failure per GET in flight. Reading a stripe with
    // devices already offline is never one.
    assert!(replans.load(Ordering::Relaxed) <= (readers_n * failures.len()) as u64);
    assert!(
        reads_ok.load(Ordering::Relaxed) > 0,
        "readers must have completed reads"
    );
    assert!(
        degraded.load(Ordering::Relaxed) > 0,
        "some reads must have taken the degraded (decode) path"
    );
}

#[test]
fn reads_past_tolerance_fail_cleanly_not_torn() {
    // Beyond the certified tolerance the store must answer with a clean
    // Unrecoverable error (or a correct payload when the planner finds a
    // path) — never corrupt bytes.
    let store = Arc::new(catalog_store());
    let payload = payload_for(0);
    let id = store.put("obj", &payload).unwrap();

    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let payload = payload.clone();
            readers.push(s.spawn(move || {
                for _ in 0..200 {
                    match store.get(id) {
                        Ok(got) => assert_eq!(got, payload, "torn payload"),
                        Err(StoreError::Unrecoverable { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for device in 0..12 {
            store.fail_device(device).unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
    });
}
