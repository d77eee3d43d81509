//! Stale next-block hints are harmless.
//!
//! A scrub and a GET stream each block with the hint of the one after it,
//! taken under that device's read lock and used after the lock is gone —
//! by then the block may be deleted, its device failed and replaced, its
//! buffer handed to another block. Here Verify and Full repair scrubs run
//! on two to four workers, back to back, and two reader threads GET live
//! objects, while another thread fails and replaces devices, puts and
//! deletes objects and rots blocks as fast as it can.
//!
//! Only two devices are ever failed and two others ever rotted, so no
//! stripe misses more than four blocks, and graph 1 decodes any four. Then
//! nothing may panic; every GET returns its object byte for byte, or
//! `UnknownObject` for one the churn deleted, and never `Unrecoverable`;
//! and once every device is back, a repair scrub and a Full scrub after it
//! find no stripe degraded, and every live object reads back byte for
//! byte.
//!
//! A failure names the seed it ran (the churn's and the readers' choices
//! are seeded; how they interleave with the scrubs is not).
//!
//! A Verify scrub holds four device read locks at a time while it hashes four
//! blocks in one pass, on several workers at once. Each seed runs on its
//! own thread, and one that is not done within [`DEADLINE`] fails the test,
//! naming the seed, instead of hanging it: a lock-order cycle shows as a
//! failure.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tornado_graph::NodeId;
use tornado_store::{ArchivalStore, ScrubMode, Scrubber, StoreError};

const SEEDS: [u64; 2] = [0x57A1E, 0x4EAD];
/// Operations the churn runs per seed.
const OPS: usize = 300;
/// Fewest scrub cycles per seed (Verify and Full by turns, on 2, 3 and 4
/// workers); they go on until the churn is done.
const CYCLES: usize = 12;
/// The graph's first failure level, handed to the scrubber.
const LEVEL: usize = 5;
/// Reader threads, and the fewest GETs each makes; they go on until the
/// churn is done.
const READERS: u64 = 2;
const GETS: usize = 40;
/// How long one seed may take before it counts as deadlocked: a seed runs
/// in well under a second in the test profile.
const DEADLINE: Duration = Duration::from_secs(120);

/// The live objects and their payloads, shared by the churn and the
/// readers. The churn drops an object from here before it deletes it, so a
/// GET that finds an object unknown finds it gone from here too.
type Live = Mutex<HashMap<u64, Arc<Vec<u8>>>>;

/// Mostly small objects, some of a few 4 KiB strips per block.
fn payload(rng: &mut SmallRng) -> Vec<u8> {
    let len = match rng.gen_range(0..3) {
        0 => rng.gen_range(0..=4 << 10),
        1 => rng.gen_range(0..=64 << 10),
        _ => rng.gen_range(0..=400 << 10),
    };
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    p
}

/// The churn: `OPS` random operations on `live` and the store, then
/// `done`.
fn churn(
    store: &ArchivalStore,
    live: &Live,
    failing: [usize; 2],
    rotting: [usize; 2],
    seed: u64,
    done: &AtomicBool,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = store.num_devices();
    for _ in 0..OPS {
        let mut ids: Vec<u64> = live.lock().unwrap().keys().copied().collect();
        ids.sort_unstable();
        match rng.gen_range(0..4) {
            0 if ids.len() < 24 => {
                let p = payload(&mut rng);
                let id = store.put("churn", &p).expect("put");
                live.lock().unwrap().insert(id, Arc::new(p));
            }
            0 | 1 if ids.len() > 8 => {
                let id = *ids.choose(&mut rng).expect("live objects");
                live.lock().unwrap().remove(&id);
                store.delete(id).expect("delete");
            }
            2 => {
                let d = *failing.choose(&mut rng).expect("two devices");
                if store.device(d).expect("device").is_online() {
                    store.fail_device(d).expect("fail");
                } else {
                    store.replace_device(d).expect("replace");
                }
            }
            _ => {
                let (Some(&id), Some(&d)) = (ids.choose(&mut rng), rotting.choose(&mut rng)) else {
                    continue;
                };
                let rotation = store.meta(id).expect("live").rotation;
                let node = ((d + n - rotation) % n) as NodeId;
                store
                    .device(d)
                    .expect("device")
                    .corrupt_block(&(id, node), 1u8 << rng.gen_range(0..8u32));
            }
        }
    }
    done.store(true, Ordering::Release);
}

/// A reader: GETs of live objects, at least `GETS` and until `done`. Each
/// returns its payload, or `UnknownObject` for an object the churn deleted.
/// Returns how many GETs it made, and how many found their object gone.
fn read(store: &ArchivalStore, live: &Live, seed: u64, done: &AtomicBool) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut gets, mut unknown) = (0, 0);
    while gets < GETS || !done.load(Ordering::Acquire) {
        let (id, p) = {
            let live = live.lock().unwrap();
            let (id, p) = live.iter().nth(rng.gen_range(0..live.len())).expect("live");
            (*id, Arc::clone(p))
        };
        match store.get(id) {
            Ok(got) => assert!(got == *p, "seed {seed:#x}: GET {id} returned other bytes"),
            Err(StoreError::UnknownObject { .. }) => {
                assert!(
                    !live.lock().unwrap().contains_key(&id),
                    "seed {seed:#x}: GET {id} of a live object: unknown"
                );
                unknown += 1;
            }
            Err(e) => panic!("seed {seed:#x}: GET {id}: {e}"),
        }
        gets += 1;
    }
    (gets, unknown)
}

fn run(seed: u64) {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut devices: Vec<usize> = (0..store.num_devices()).collect();
    devices.shuffle(&mut rng);
    let (failing, rotting) = ([devices[0], devices[1]], [devices[2], devices[3]]);
    let live: Live = Mutex::new(
        (0..16)
            .map(|i| {
                let p = payload(&mut rng);
                (store.put(&format!("o{i}"), &p).expect("put"), Arc::new(p))
            })
            .collect(),
    );
    let scrubbers = [2, 3, 4].map(Scrubber::new);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let churned = s.spawn(|| churn(&store, &live, failing, rotting, seed ^ 1, &done));
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (store, live, done) = (&store, &live, &done);
                s.spawn(move || read(store, live, seed ^ (2 + r), done))
            })
            .collect();
        let mut cycle = 0;
        while cycle < CYCLES || !done.load(Ordering::Acquire) {
            let mode = [ScrubMode::Verify, ScrubMode::Full][cycle % 2];
            scrubbers[cycle % 3].run(&store, LEVEL, true, mode);
            cycle += 1;
        }
        churned.join().expect("the churn thread does not panic");
        for r in readers {
            let (gets, unknown) = r.join().expect("a reader does not panic");
            println!("a reader: {gets} GETs, {unknown} of a deleted object");
        }
    });
    let live = live.into_inner().unwrap();

    for d in failing {
        if !store.device(d).expect("device").is_online() {
            store.replace_device(d).expect("replace");
        }
    }
    let repair = scrubbers[0].run(&store, LEVEL, true, ScrubMode::Verify);
    assert!(
        repair.objects_incomplete.is_empty(),
        "seed {seed:#x}: incomplete after an all-online repair: {:?}",
        repair.objects_incomplete
    );
    let full = scrubbers[0].run(&store, LEVEL, false, ScrubMode::Full);
    assert_eq!(
        full.degraded_count(),
        0,
        "seed {seed:#x}: degraded after repair"
    );
    assert_eq!(full.stripes.len(), live.len(), "seed {seed:#x}");
    for (id, p) in &live {
        assert!(
            store.get(*id).expect("live object reads") == **p,
            "seed {seed:#x}: object {id} reads back other bytes"
        );
    }
}

#[test]
fn scrubs_streaming_with_stale_hints_repair_a_churning_store() {
    for seed in SEEDS {
        println!("seed {seed:#x}");
        let (finished, done) = mpsc::channel();
        let seeded = std::thread::spawn(move || {
            run(seed);
            finished.send(()).expect("the test waits");
        });
        match done.recv_timeout(DEADLINE) {
            // Disconnected: `run` panicked, and the join passes it on.
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(panic) = seeded.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("seed {seed:#x}: not done in {DEADLINE:?}, deadlocked")
            }
        }
    }
}
