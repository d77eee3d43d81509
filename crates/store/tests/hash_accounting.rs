//! `kernel.bytes_hashed` and the device read counters stay exact under the
//! fused read: a block that is read is hashed once, as it lands, and
//! counted once; a block probed in place is hashed once and is one
//! `verifies`, no `reads`.
//!
//! One test, so one process: `kernel.bytes_hashed` is process-wide, and
//! exact deltas need nothing else hashing meanwhile.

use tornado_codec::kernels::{self, Ahead};
use tornado_store::{
    ArchivalStore, BlockBackend, BlockProbe, Device, FileBackend, MemoryBackend, ReadClass,
    ScrubMode, Scrubber, SegmentBackend,
};

fn hashed() -> u64 {
    kernels::metrics().bytes_hashed.get()
}

#[test]
fn every_byte_read_or_probed_is_hashed_and_counted_once() {
    let dir = std::env::temp_dir().join(format!("tornado-hash-accounting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backends: Vec<Box<dyn BlockBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(FileBackend::open(&dir.join("file"), false).unwrap()),
        Box::new(SegmentBackend::open(&dir.join("seg"), false).unwrap()),
    ];
    // Two strips and a ragged tail.
    let block: Vec<u8> = (0..10_000usize).map(|i| (i * 7 % 253) as u8).collect();
    let digest = tornado_codec::checksum(&block);
    let len = block.len() as u64;
    for backend in backends {
        let device = Device::with_backend(0, backend);
        let kind = device.backend_kind();
        assert!(device.write_block((1, 0), block.clone()));

        let before = hashed();
        let mut out = Vec::new();
        let read = device
            .read_block_into(&(1, 0), ReadClass::Repair, &mut out, Ahead::NONE)
            .expect("present");
        assert_eq!((read.len, read.checksum), (block.len(), digest), "{kind}");
        assert_eq!(out, block, "{kind}");
        assert_eq!(
            hashed() - before,
            len,
            "{kind}: a read hashes what it appends, once"
        );

        let before = hashed();
        assert_eq!(
            device.verify_block(&(1, 0), digest, Ahead::NONE),
            BlockProbe::Ok
        );
        assert_eq!(
            hashed() - before,
            len,
            "{kind}: a probe hashes the block once"
        );

        let before = hashed();
        assert!(device
            .read_block_into(&(9, 9), ReadClass::Payload, &mut out, Ahead::NONE)
            .is_none());
        assert_eq!(
            device.verify_block(&(9, 9), digest, Ahead::NONE),
            BlockProbe::Missing
        );
        assert_eq!(hashed() - before, 0, "{kind}: a miss hashes nothing");

        let s = device.stats();
        assert_eq!(
            (s.reads, s.bytes_read, s.bytes_repair_read, s.verifies),
            (1, len, len, 1),
            "{kind}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A store: a healthy GET hashes the 48 data blocks it reads; a guided
    // repair of four lost blocks hashes each of the 92 survivors once, in
    // place — its cone is lent to the replay, not copied — and each of the
    // 4 it rebuilt.
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let payload: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let id = store.put("x", &payload).unwrap();
    let block_len = store.meta(id).unwrap().block_len as u64;

    let before = hashed();
    assert_eq!(store.get(id).unwrap(), payload);
    assert_eq!(hashed() - before, 48 * block_len);

    for d in [7, 29, 55, 88] {
        store.fail_device(d).unwrap();
        store.replace_device(d).unwrap();
    }
    let before = hashed();
    let outcome = Scrubber::new(1).run(&store, 5, true, ScrubMode::Verify);
    assert_eq!(outcome.blocks_repaired, 4);
    assert_eq!(hashed() - before, (92 + 4) * block_len);
    let fetched = outcome.costs[0].blocks_fetched;
    let (reads, verifies) = (0..store.num_devices())
        .map(|d| store.device(d).unwrap().stats())
        .fold((0, 0), |(r, v), s| (r + s.reads, v + s.verifies));
    assert_eq!(reads, 48 + fetched, "the GET's data blocks, then the cone");
    assert_eq!(verifies, 92, "every survivor in place, the cone too");
}
