//! A guided repair on a memory store lends its repair cone to the replay
//! where the devices hold it: every present block is hashed once, in
//! place, and the only block buffers the scrub takes from the pool are the
//! accumulators its rebuilt blocks are built in.
//!
//! This is a test binary of its own with a single test because
//! `pool::metrics()` and `kernel.bytes_hashed` are process-wide: any test
//! running beside it would move them.

use tornado_codec::{kernels, pool};
use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

#[test]
fn a_verify_repair_takes_a_pool_buffer_per_rebuilt_block_and_none_for_its_cone() {
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let store = ArchivalStore::new(graph);
    for i in 0..8usize {
        let payload: Vec<u8> = (0..90_000 + i * 1_001)
            .map(|b| (b * 31 % 251) as u8)
            .collect();
        store.put(&format!("obj-{i}"), &payload).unwrap();
    }
    let lost = [7, 29, 55, 88];
    for d in lost {
        store.fail_device(d).unwrap();
        store.replace_device(d).unwrap();
    }
    let metas = store.list();
    let takes = || pool::metrics().hits.get() + pool::metrics().misses.get();
    let hashed = || kernels::metrics().bytes_hashed.get();
    let counts = || -> (u64, u64) {
        (0..store.num_devices())
            .map(|d| store.device(d).unwrap().stats())
            .fold((0, 0), |(r, v), s| (r + s.reads, v + s.verifies))
    };
    let before = (takes(), hashed(), counts());
    let outcome = Scrubber::new(2).run(&store, 5, true, ScrubMode::Verify);
    let after = (takes(), hashed(), counts());

    assert!(outcome.objects_incomplete.is_empty());
    assert_eq!(outcome.blocks_repaired, lost.len() * metas.len());
    assert_eq!(
        after.0 - before.0,
        outcome.blocks_repaired as u64,
        "one pool buffer per rebuilt block, none for the cone"
    );
    let stored: u64 = metas.iter().map(|m| (n * m.block_len) as u64).sum();
    assert_eq!(
        after.1 - before.1,
        stored,
        "each block hashed once: a survivor in place, a rebuilt one at its digest gate"
    );
    let present = ((n - lost.len()) * metas.len()) as u64;
    let lent = outcome.total_cost().blocks_fetched;
    assert!(lent > 0);
    assert_eq!(after.2 .0 - before.2 .0, lent, "one read per lent block");
    assert_eq!(after.2 .1 - before.2 .1, present, "every survivor in place");
}
