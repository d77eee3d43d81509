//! Fault timing on the data-first GET: wherever a corrupt block sits — the
//! first, a middle or the last data block, or a check block the degraded
//! plan needs — the payload is right, `replans` counts exactly the
//! verification failures (never a plain offline miss), and no block is
//! read from a device twice: the devices' read counters move by the blocks
//! the GET attributes plus the corrupt reads it rejected.

use tornado_graph::NodeId;
use tornado_store::{plan_retrieval, ArchivalStore, ObjectMeta};

fn payload() -> Vec<u8> {
    (0..10_000).map(|i| (i * 37 % 253) as u8).collect()
}

/// A catalog-graph-1 store holding one object at a non-zero rotation.
fn store_with_object() -> (ArchivalStore, ObjectMeta) {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    for _ in 0..5 {
        store.put("pad", b"").unwrap();
    }
    let id = store.put("obj", &payload()).unwrap();
    let meta = store.meta(id).unwrap();
    (store, meta)
}

fn corrupt(store: &ArchivalStore, meta: &ObjectMeta, node: NodeId) {
    let dev = store.device(store.device_of_block(meta, node)).unwrap();
    assert!(dev.corrupt_block(&(meta.id, node), 0x5A));
}

/// Successful block reads served, pool-wide.
fn pool_reads(store: &ArchivalStore) -> u64 {
    (0..store.num_devices())
        .map(|d| store.device(d).unwrap().stats().reads)
        .sum()
}

fn all_except(store: &ArchivalStore, missing: &[NodeId]) -> Vec<NodeId> {
    (0..store.graph().num_nodes() as NodeId)
        .filter(|v| !missing.contains(v))
        .collect()
}

#[test]
fn corrupt_data_block_is_a_hole_wherever_it_sits() {
    for node in [0, 24, 47] {
        let (store, meta) = store_with_object();
        corrupt(&store, &meta, node);
        let plan = plan_retrieval(store.graph(), &all_except(&store, &[node])).unwrap();

        let before = pool_reads(&store);
        let (got, stats) = store.get_detailed(meta.id).unwrap();
        assert_eq!(got, payload(), "data block {node} corrupt");
        assert_eq!(stats.replans, 1, "one verification failure");
        assert_eq!(stats.blocks_fetched, plan.fetch.len());
        assert_eq!(stats.blocks_recovered, plan.schedule.len());
        // The pass finished the other data blocks after the hole and the
        // miss path reused them: the plan's blocks once, the bad one once.
        assert_eq!(stats.cost.blocks_fetched, plan.fetch.len() as u64);
        assert_eq!(pool_reads(&store) - before, stats.cost.blocks_fetched + 1);
    }
}

#[test]
fn corrupt_planned_check_block_replans_and_keeps_what_was_read() {
    let (store, meta) = store_with_object();
    let k = store.graph().num_data();
    let lost: NodeId = 11;
    store
        .fail_device(store.device_of_block(&meta, lost))
        .unwrap();
    let first = plan_retrieval(store.graph(), &all_except(&store, &[lost])).unwrap();
    // The fetch list ascends, so its last entry is the last check block read.
    let bad = *first.fetch.last().unwrap();
    assert!(bad as usize >= k, "the degraded plan fetches check blocks");
    corrupt(&store, &meta, bad);
    let second = plan_retrieval(store.graph(), &all_except(&store, &[lost, bad])).unwrap();

    let before = pool_reads(&store);
    let (got, stats) = store.get_detailed(meta.id).unwrap();
    assert_eq!(got, payload());
    assert_eq!(
        stats.replans, 1,
        "the corrupt check block; the offline miss is not a replan"
    );
    assert_eq!(stats.blocks_fetched, second.fetch.len());
    assert_eq!(stats.blocks_recovered, second.schedule.len());
    // The depth the replay found as it rebuilt is the plan's own.
    assert_eq!(
        stats.cost.recovery_depth,
        second.recovery_depth(store.graph())
    );
    assert!(stats.cost.recovery_depth >= 1);
    // Attributed: the data pass, the first plan's check blocks read before
    // the bad one, and whatever the second plan adds — each once.
    let mut checks_read: Vec<NodeId> = first
        .fetch
        .iter()
        .chain(&second.fetch)
        .copied()
        .filter(|&v| v as usize >= k && v != bad)
        .collect();
    checks_read.sort_unstable();
    checks_read.dedup();
    assert_eq!(
        stats.cost.blocks_fetched,
        (k - 1 + checks_read.len()) as u64
    );
    assert_eq!(
        stats.repair_bytes_read,
        (checks_read.len() * meta.block_len) as u64
    );
    assert_eq!(pool_reads(&store) - before, stats.cost.blocks_fetched + 1);
    // The probe of the offline device is visible where an operator looks.
    let offline = store.device(store.device_of_block(&meta, lost)).unwrap();
    assert_eq!(offline.stats().failed_reads, 1);
}
