//! A replaced device is refilled in the memory its predecessor held.
//!
//! Every device of a memory store is failed, replaced and repaired once,
//! four at a time, by a two-worker scrubber. The blocks were allocated on
//! this thread and are rebuilt on the workers; if a failed device freed
//! them, the holes would stay in this thread's allocator arena while the
//! rebuilt blocks took new memory in the workers' arenas, and the
//! process's peak resident set would grow by the whole store. The memory
//! backend keeps a failed device's buffers and copies rebuilt blocks into
//! them, so the peak barely moves.
//!
//! Linux only (`VmHWM` in `/proc/self/status`), and a test binary of its
//! own with a single test: the peak resident set is process-wide.

#![cfg(target_os = "linux")]

use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

const OBJECTS: usize = 96;
const OBJECT_LEN: usize = 96 << 10;

/// The process's peak resident set size, bytes.
fn peak_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("a VmHWM line");
    let kib: usize = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("kB");
    kib << 10
}

#[test]
fn refilling_every_device_once_does_not_grow_the_peak_resident_set() {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let payloads: Vec<Vec<u8>> = (0..OBJECTS)
        .map(|i| (0..OBJECT_LEN).map(|b| (b * 13 + i * 7) as u8).collect())
        .collect();
    let ids: Vec<u64> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| store.put(&format!("o{i}"), p).unwrap())
        .collect();
    let block_len = store.meta(ids[0]).unwrap().block_len;
    let stored = OBJECTS * store.num_devices() * block_len;
    let scrubber = Scrubber::new(2);

    let before = peak_rss();
    for first in (0..store.num_devices()).step_by(4) {
        for d in first..first + 4 {
            store.fail_device(d).unwrap();
            store.replace_device(d).unwrap();
        }
        let outcome = scrubber.run(&store, 5, true, ScrubMode::Verify);
        assert!(outcome.objects_incomplete.is_empty(), "devices {first}..");
        assert_eq!(outcome.blocks_repaired, 4 * OBJECTS, "devices {first}..");
    }
    let grown = peak_rss().saturating_sub(before);

    for (id, payload) in ids.iter().zip(&payloads) {
        assert_eq!(&store.get(*id).unwrap(), payload, "object {id}");
    }
    let share = grown as f64 / stored as f64;
    assert!(
        share <= 0.15,
        "the peak resident set grew {grown} B, {:.1} % of the {stored} B stored",
        share * 100.0
    );
}
