//! End-to-end silent bit rot: bytes flipped **directly inside a device's
//! stored block** — no store API involved, so no dirty generation is
//! bumped and nothing "knows" the stripe changed. The checksum-gated
//! scrubber's verify tier must still flag exactly that stripe as damaged,
//! repair it in place, and then let the incremental skip tier trust it
//! again.

use tornado_store::{ArchivalStore, BackendKind, DurableConfig, ScrubAction, ScrubMode, Scrubber};

fn catalog_store_with_objects(objects: usize) -> (ArchivalStore, Vec<u64>) {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let ids = (0..objects)
        .map(|i| {
            let payload: Vec<u8> = (0..4096)
                .map(|b| ((b as u64).wrapping_mul(131).wrapping_add(i as u64 * 17)) as u8)
                .collect();
            store.put(&format!("rot-{i}"), &payload).unwrap()
        })
        .collect();
    (store, ids)
}

#[test]
fn verify_tier_catches_and_repairs_out_of_band_bit_rot() {
    let (store, ids) = catalog_store_with_objects(5);
    let scrubber = Scrubber::new(1);

    // Prime the clean marks: everything verifies, nothing decodes.
    let prime = scrubber.run(&store, 5, false, ScrubMode::Incremental);
    assert_eq!(prime.verified_count(), 5);
    assert_eq!(prime.decoded_count(), 0);

    // Flip bits in one stored block, straight on the device. Object
    // ids[2] has rotation 2, so its node 10 lives on device (10 + 2) % 96.
    let victim = ids[2];
    let node = 10u32;
    let device = (node as usize + 2) % store.num_devices();
    assert!(store
        .device(device)
        .unwrap()
        .corrupt_block(&(victim, node), 0x55));

    // The skip tier is blind to out-of-band tampering — that is its
    // documented trade — so an incremental pass still reports clean.
    let blind = scrubber.run(&store, 5, false, ScrubMode::Incremental);
    assert_eq!(blind.skipped_count(), 5);
    assert_eq!(
        blind.degraded_count(),
        0,
        "skip tier cannot see device tampering"
    );

    // A verify-tier pass hashes every block in place and flags exactly
    // the tampered stripe, with exactly the tampered block missing.
    let caught = scrubber.run(&store, 5, true, ScrubMode::Verify);
    assert_eq!(caught.degraded_count(), 1, "exactly one stripe is damaged");
    assert_eq!(caught.decoded_count(), 1);
    assert_eq!(caught.verified_count(), 4);
    let damaged = caught.stripes.iter().find(|s| s.degraded()).unwrap();
    assert_eq!(damaged.id, victim);
    assert_eq!(damaged.missing_blocks, vec![node]);
    assert_eq!(
        caught.blocks_repaired, 1,
        "the rotted block was re-encoded in place"
    );
    assert!(caught.objects_incomplete.is_empty());

    // The repair really restored the bytes: reads come back intact and a
    // full-decode pass agrees the archive is clean.
    let full = Scrubber::new(1).run(&store, 5, false, ScrubMode::Full);
    assert_eq!(full.degraded_count(), 0);
    for (i, &id) in ids.iter().enumerate() {
        let expected: Vec<u8> = (0..4096)
            .map(|b| ((b as u64).wrapping_mul(131).wrapping_add(i as u64 * 17)) as u8)
            .collect();
        assert_eq!(store.get(id).unwrap(), expected, "object {i}");
    }

    // And the follow-up incremental pass skips the repaired stripe again:
    // the repair recorded a fresh clean mark covering its own writes.
    let after = scrubber.run(&store, 5, false, ScrubMode::Incremental);
    assert_eq!(after.skipped_count(), 5);
    assert_eq!(after.actions, vec![ScrubAction::Skipped; 5]);
}

#[test]
fn verify_tier_catches_real_on_disk_rot_in_a_file_backend() {
    // The durable variant of the test above: the corruption is written
    // straight into the backend's block *file* with std::fs — the store
    // process never sees the write — and the repair must survive a full
    // close-and-reopen of the store.
    let dir = std::env::temp_dir().join(format!("tornado-bitrot-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = {
        let mut b = tornado_graph::GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    };
    let (store, _) = ArchivalStore::open(
        graph.clone(),
        DurableConfig::new_nosync(dir.clone(), BackendKind::File),
    )
    .expect("open");
    let payload: Vec<u8> = (0..4096)
        .map(|b| ((b as u64).wrapping_mul(251)) as u8)
        .collect();
    let id = store.put("rot-on-disk", &payload).unwrap();
    let meta = store.meta(id).unwrap();

    // Rot node 2's block on disk, out of band. Writing garbage of the
    // same length keeps the file present — a *silent* corruption, not an
    // erasure.
    let node = 2u32;
    let device = store.device_of_block(&meta, node);
    let blk = dir
        .join("devices")
        .join(format!("dev-{device}"))
        .join("g0")
        .join(format!("{id:016x}.{node:08x}.blk"));
    let len = std::fs::metadata(&blk).unwrap().len() as usize;
    std::fs::write(&blk, vec![0xA5u8; len]).unwrap();

    // Verify tier hashes the real file contents, catches it, repairs it.
    let caught = Scrubber::new(1).run(&store, 1, true, ScrubMode::Verify);
    assert_eq!(caught.degraded_count(), 1, "on-disk rot detected");
    let damaged = caught.stripes.iter().find(|s| s.degraded()).unwrap();
    assert_eq!(damaged.id, id);
    assert_eq!(damaged.missing_blocks, vec![node]);
    assert_eq!(caught.blocks_repaired, 1);

    // The repaired bytes are on disk, not just cached: reopen and check.
    drop(store);
    let (store, _) = ArchivalStore::open(
        graph,
        DurableConfig::new_nosync(dir.clone(), BackendKind::File),
    )
    .expect("reopen");
    assert_eq!(store.get(id).unwrap(), payload);
    let clean = Scrubber::new(1).run(&store, 1, false, ScrubMode::Verify);
    assert_eq!(clean.degraded_count(), 0, "repair was durable");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tier_healths_identical_across_thread_counts_on_a_rotted_store() {
    // Acceptance bar: incremental/verify healths equal full-decode healths
    // at 1, 4, and automatic thread counts — including with out-of-band
    // corruption in the mix (cold scrubbers, so the skip tier is inert
    // and every tier must *find* the rot, not assume it).
    let (store, ids) = catalog_store_with_objects(4);
    store.fail_device(7).unwrap();
    assert!(store.device(3).unwrap().corrupt_block(&(ids[0], 3), 0x80));
    for threads in [1usize, 4, 0] {
        let full = Scrubber::new(threads).run(&store, 5, false, ScrubMode::Full);
        let verify = Scrubber::new(threads).run(&store, 5, false, ScrubMode::Verify);
        let incremental = Scrubber::new(threads).run(&store, 5, false, ScrubMode::Incremental);
        assert_eq!(
            full.stripes, verify.stripes,
            "verify vs full, threads {threads}"
        );
        assert_eq!(
            full.stripes, incremental.stripes,
            "incremental vs full, threads {threads}"
        );
        assert!(full.degraded_count() >= 1);
    }
}
