//! `get_framed` hands back the buffer the blocks were read into, with the
//! object at `buf[payload_start..]` and the caller's headroom in front of
//! it. Whatever the object size, the headroom and the health of the
//! stripe, those bytes are the object — the same bytes `get_detailed`
//! returns — and a block that failed verification is never among them.

use tornado_graph::NodeId;
use tornado_store::{ArchivalStore, ObjectMeta, StoreError};

const K: usize = 48;
const MIB: usize = 1 << 20;

/// The devices the benchmark's degraded workload fails.
const FAILED: [usize; 4] = [7, 29, 55, 88];

fn payload(size: usize) -> Vec<u8> {
    (0..size).map(|i| (i * 131 % 251) as u8).collect()
}

fn store_with(size: usize) -> (ArchivalStore, ObjectMeta, Vec<u8>) {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    // A few puts first, so the object sits at a non-zero rotation.
    for _ in 0..3 {
        store.put("pad", b"").unwrap();
    }
    let payload = payload(size);
    let id = store.put("obj", &payload).unwrap();
    let meta = store.meta(id).unwrap();
    (store, meta, payload)
}

/// The framed GET and the plain one, checked against each other and
/// against `want`.
fn assert_framed(store: &ArchivalStore, id: u64, headroom: usize, want: &[u8]) {
    let (buf, start, framed) = store.get_framed(id, headroom).unwrap();
    assert_eq!(
        start,
        headroom + 8,
        "headroom, then the stripe's length header"
    );
    assert!(
        &buf[start..] == want,
        "size {} headroom {headroom}",
        want.len()
    );
    assert_eq!(
        buf[headroom..start],
        (want.len() as u64).to_le_bytes(),
        "the length header stays where it was read"
    );
    let (plain, detailed) = store.get_detailed(id).unwrap();
    assert!(plain == want);
    // Everything but the stopwatches.
    assert_eq!(
        (
            framed.blocks_fetched,
            framed.blocks_recovered,
            framed.replans
        ),
        (
            detailed.blocks_fetched,
            detailed.blocks_recovered,
            detailed.replans
        )
    );
    assert_eq!(
        (framed.cost, framed.repair_bytes_read),
        (detailed.cost, detailed.repair_bytes_read)
    );
}

#[test]
fn every_size_and_headroom_healthy_and_degraded() {
    // Around each framing boundary: an empty and a one-byte object (the
    // 8-byte header alone spans eight 1-byte blocks), a framed stripe that
    // fills its k blocks exactly and one byte more (block_len grows, the
    // last block is nearly all padding), a payload that ends with block 0
    // of a 1 MiB stripe and one byte into block 1, and the benchmark's
    // object size with and without a spill.
    let block_len_1m = (MIB + 8).div_ceil(K);
    let sizes = [
        0,
        1,
        K * 455 - 8,
        K * 455 - 7,
        block_len_1m - 8,
        block_len_1m - 7,
        MIB,
        MIB + 1,
    ];
    for size in sizes {
        let (store, meta, want) = store_with(size);
        assert_eq!(meta.block_len, (size + 8).div_ceil(K));
        for headroom in [0, 9, 64] {
            assert_framed(&store, meta.id, headroom, &want);
        }
        for device in FAILED {
            store.fail_device(device).unwrap();
        }
        for headroom in [0, 9, 64] {
            assert_framed(&store, meta.id, headroom, &want);
        }
        let (_, _, stats) = store.get_framed(meta.id, 9).unwrap();
        assert!(stats.degraded(), "four devices down, size {size}");
    }
}

#[test]
fn a_bit_flipped_data_block_is_decoded_around_wherever_it_sits() {
    for node in [0 as NodeId, 1, 23, 47] {
        let (store, meta, want) = store_with(10_000);
        let dev = store.device(store.device_of_block(&meta, node)).unwrap();
        assert!(dev.corrupt_block(&(meta.id, node), 0x10));
        for headroom in [0, 9, 64] {
            // Node 0 holds the length header: a flipped bit there must
            // not decide how much of the buffer is returned.
            assert_framed(&store, meta.id, headroom, &want);
        }
        let (_, _, stats) = store.get_framed(meta.id, 9).unwrap();
        assert_eq!(stats.replans, 1, "one verification failure");
        assert!(stats.blocks_recovered >= 1);
    }
}

#[test]
fn a_block_of_the_wrong_length_is_a_hole_not_a_shifted_payload() {
    let (store, meta, want) = store_with(10_000);
    for (node, len) in [
        (5 as NodeId, meta.block_len - 1),
        (30, meta.block_len + 3),
        (40, 0),
    ] {
        let dev = store.device(store.device_of_block(&meta, node)).unwrap();
        assert!(dev.write_block((meta.id, node), vec![0xAB; len]));
    }
    for headroom in [0, 9, 64] {
        assert_framed(&store, meta.id, headroom, &want);
    }
    let (_, _, stats) = store.get_framed(meta.id, 0).unwrap();
    assert_eq!(stats.replans, 3, "three blocks failed verification");
}

#[test]
fn corruption_past_tolerance_is_unrecoverable_not_served() {
    let (store, meta, _) = store_with(10_000);
    // Every other node, data and check alike: far past what graph 1
    // decodes around.
    for node in (0..96 as NodeId).step_by(2) {
        let dev = store.device(store.device_of_block(&meta, node)).unwrap();
        assert!(dev.corrupt_block(&(meta.id, node), 0x01));
    }
    for headroom in [0, 9] {
        match store.get_framed(meta.id, headroom) {
            Err(StoreError::Unrecoverable { id, lost_blocks }) => {
                assert_eq!(id, meta.id);
                assert!(!lost_blocks.is_empty());
            }
            other => panic!("expected Unrecoverable, got {:?}", other.map(|(_, s, _)| s)),
        }
    }
}
