//! A healthy GET is a data-only read: no plan, nothing fetched beyond the
//! `k` data blocks, one read of each and no in-place verify, and — on a
//! warm thread — no buffer that is not recycled from the block pool.
//!
//! This is a test binary of its own with a single test because
//! `pool::metrics()` is process-wide: any test running beside it would
//! move the miss counter.

use tornado_codec::pool;
use tornado_store::{ArchivalStore, DeviceStats};

#[test]
fn healthy_get_skips_the_planner_and_never_misses_the_pool() {
    let graph = tornado_core::tornado_graph_1();
    let (n, k) = (graph.num_nodes(), graph.num_data());
    let store = ArchivalStore::new(graph);
    let payload: Vec<u8> = (0..4096).map(|i| (i * 31 % 251) as u8).collect();
    let id = store.put("obj", &payload).unwrap();
    let meta = store.meta(id).unwrap();

    // The put and one GET warm this thread's pool.
    store.get(id).unwrap();
    let misses = pool::metrics().misses.get();
    for _ in 0..1000 {
        let (got, stats) = store.get_detailed(id).unwrap();
        assert_eq!(got, payload);
        assert_eq!(stats.plan_us, 0, "no planner on a healthy stripe");
        assert_eq!(stats.blocks_fetched, k);
        assert_eq!(stats.cost.blocks_fetched, k as u64);
        assert_eq!(stats.cost.bytes_read, (k * meta.block_len) as u64);
        assert_eq!(stats.cost.recovery_depth, 0);
        assert_eq!(stats.repair_bytes_read, 0);
        assert!(!stats.degraded());
    }
    assert_eq!(
        pool::metrics().misses.get(),
        misses,
        "warm GETs allocate no blocks"
    );

    // The check half of the stripe was never read.
    for node in k..n {
        let dev = store.device_of_block(&meta, node as u32);
        assert_eq!(store.device(dev).unwrap().stats().reads, 0);
    }

    // One GET, device by device: each data block is read once and verified
    // where it landed, never probed in place, and a check device sees
    // nothing. The index lookups before the data pass move no counter.
    let stats = |node: usize| {
        let dev = store.device_of_block(&meta, node as u32);
        store.device(dev).unwrap().stats()
    };
    let before: Vec<DeviceStats> = (0..n).map(stats).collect();
    assert_eq!(store.get(id).unwrap(), payload);
    for (node, before) in before.into_iter().enumerate() {
        let expected = if node < k {
            DeviceStats {
                reads: before.reads + 1,
                bytes_read: before.bytes_read + meta.block_len as u64,
                ..before
            }
        } else {
            before
        };
        assert_eq!(stats(node), expected, "node {node}");
    }
}
