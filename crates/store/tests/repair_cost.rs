//! Conservation law for repair-cost attribution.
//!
//! Every byte the accounting layer *claims* a recovery read must be a byte
//! some device actually *served* — the reported [`RepairCost`] totals and
//! the per-device [`DeviceStats`] byte counters are two independent
//! tallies of the same traffic, and they must agree exactly, for any
//! offline-device failure pattern, at any scrub parallelism. A guided
//! (verify-mode) scrub adds a third tally that must be the same number:
//! what [`plan_repair`] prices the stripe's repair cone at — the figure the
//! repair-bandwidth bake-off reports.
//!
//! The law holds for offline failures only: a corrupt block's bytes are
//! served by its device (and land in `DeviceStats`) but rejected by the
//! checksum gate before attribution, the one documented gap (DESIGN.md,
//! "Repair-cost accounting").
//!
//! [`RepairCost`]: tornado_store::RepairCost
//! [`DeviceStats`]: tornado_store::DeviceStats

use proptest::prelude::*;
use std::collections::BTreeSet;
use tornado_graph::NodeId;
use tornado_store::{
    plan_repair, ArchivalStore, BackendKind, DurableConfig, RepairCost, ScrubMode, ScrubOutcome,
    Scrubber,
};

/// Sums `(bytes_read, bytes_repair_read)` across the device pool.
fn pool_bytes(store: &ArchivalStore) -> (u64, u64) {
    let (bytes, repair, ..) = pool_counts(store);
    (bytes, repair)
}

/// Sums `(bytes_read, bytes_repair_read, reads, verifies)` across the
/// device pool.
fn pool_counts(store: &ArchivalStore) -> (u64, u64, u64, u64) {
    (0..store.num_devices())
        .filter_map(|d| store.device(d).ok())
        .map(|d| d.stats())
        .fold((0, 0, 0, 0), |(a, b, c, e), s| {
            (
                a + s.bytes_read,
                b + s.bytes_repair_read,
                c + s.reads,
                e + s.verifies,
            )
        })
}

/// A populated store with the given devices offline.
fn damaged_store(objects: usize, failures: &BTreeSet<usize>) -> ArchivalStore {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    for i in 0..objects {
        let payload: Vec<u8> = (0..2048 + i * 97).map(|b| (b * 31 % 251) as u8).collect();
        store.put(&format!("obj-{i}"), &payload).expect("put");
    }
    for &d in failures {
        store.fail_device(d).expect("fail");
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scrub-side conservation: the summed per-stripe costs equal the
    /// pool-wide read-byte delta — both total and repair-class, since
    /// every scrub read is repair traffic — at serial, fixed-parallel,
    /// and auto thread counts. The per-stripe cost vectors themselves are
    /// identical across thread counts (costs are part of the scrubber's
    /// bit-for-bit determinism contract).
    #[test]
    fn scrub_costs_match_device_byte_deltas(
        failure_draws in proptest::collection::vec(0usize..96, 0..5),
        objects in 1usize..4,
    ) {
        let failures: BTreeSet<usize> = failure_draws.into_iter().collect();
        let mut outcomes: Vec<ScrubOutcome> = Vec::new();
        for threads in [1usize, 4, 0] {
            let store = damaged_store(objects, &failures);
            let (read0, repair0) = pool_bytes(&store);
            let outcome = Scrubber::new(threads).run(&store, 5, false, ScrubMode::Full);
            let (read1, repair1) = pool_bytes(&store);

            let claimed = outcome.total_cost();
            prop_assert_eq!(
                claimed.bytes_read,
                read1 - read0,
                "threads {}: claimed vs served", threads
            );
            prop_assert_eq!(
                claimed.bytes_read,
                repair1 - repair0,
                "threads {}: every scrub read is repair-class", threads
            );
            outcomes.push(outcome);
        }
        prop_assert_eq!(&outcomes[0].costs, &outcomes[1].costs);
        prop_assert_eq!(&outcomes[0].costs, &outcomes[2].costs);
    }

    /// Guided scrub: a recoverable stripe's reported cost *is*
    /// [`plan_repair`]'s price for its repair cone, and the devices served
    /// exactly those bytes — every present block one in-place probe, and
    /// each cone block, lent to the replay where its device holds it, one
    /// read — whether or not the lost blocks have a replacement device to
    /// be written to.
    #[test]
    fn guided_scrub_cost_is_the_planned_cost_and_the_served_bytes(
        failure_draws in proptest::collection::vec(0usize..96, 0..7),
        objects in 1usize..4,
        replace in any::<bool>(),
    ) {
        let failures: BTreeSet<usize> = failure_draws.into_iter().collect();
        let graph = tornado_core::tornado_graph_1();
        for threads in [1usize, 4] {
            let store = damaged_store(objects, &failures);
            if replace {
                for &d in &failures {
                    store.replace_device(d).expect("replace");
                }
            }
            let metas = store.list();
            let before = pool_counts(&store);
            let outcome = Scrubber::new(threads).run(&store, 5, true, ScrubMode::Verify);
            let after = pool_counts(&store);

            let mut present_blocks = 0u64;
            for (meta, cost) in metas.iter().zip(&outcome.costs) {
                let available: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
                    .filter(|&v| !failures.contains(&store.device_of_block(meta, v)))
                    .collect();
                present_blocks += available.len() as u64;
                if let Some(plan) = plan_repair(&graph, &available) {
                    let planned =
                        plan.cost_with(&graph, meta.block_len, |v| store.device_of_block(meta, v));
                    prop_assert_eq!(*cost, planned, "object {}", meta.id);
                }
            }
            let claimed = outcome.total_cost();
            prop_assert_eq!(claimed.bytes_read, after.0 - before.0, "claimed vs served");
            prop_assert_eq!(claimed.bytes_read, after.1 - before.1, "all repair-class");
            prop_assert_eq!(claimed.blocks_fetched, after.2 - before.2, "one read per cone block");
            prop_assert_eq!(
                present_blocks,
                after.3 - before.3,
                "one in-place probe per present block, the cone's too"
            );
        }
    }

    /// GET-side conservation: `GetStats.cost` equals the pool-wide byte
    /// delta of serving that one request, and its repair-class subset
    /// equals the repair-class delta, for any offline pattern the graph
    /// survives.
    #[test]
    fn get_cost_matches_device_byte_deltas(
        failure_draws in proptest::collection::vec(0usize..96, 0..5),
    ) {
        let failures: BTreeSet<usize> = failure_draws.into_iter().collect();
        let store = damaged_store(1, &failures);
        let (read0, repair0) = pool_bytes(&store);
        match store.get_detailed(1) {
            Ok((_, stats)) => {
                let (read1, repair1) = pool_bytes(&store);
                prop_assert_eq!(stats.cost.bytes_read, read1 - read0);
                prop_assert_eq!(stats.repair_bytes_read, repair1 - repair0);
                prop_assert!(stats.cost.devices_contacted <= stats.cost.blocks_fetched);
            }
            Err(_) => {
                // Unrecoverable patterns still must not invent costs out
                // of thin air: only real reads moved the device counters.
                let (read1, _) = pool_bytes(&store);
                prop_assert!(read1 >= read0);
            }
        }
    }
}

/// The absorb algebra the aggregation layers rely on: tallies add, depth
/// takes the max, and zero is the identity.
#[test]
fn absorb_is_additive_with_max_depth() {
    let mut total = RepairCost::default();
    let a = RepairCost {
        bytes_read: 10,
        blocks_fetched: 2,
        devices_contacted: 2,
        recovery_depth: 3,
    };
    let b = RepairCost {
        bytes_read: 5,
        blocks_fetched: 1,
        devices_contacted: 1,
        recovery_depth: 1,
    };
    total.absorb(&a);
    total.absorb(&b);
    total.absorb(&RepairCost::default());
    assert_eq!(total.bytes_read, 15);
    assert_eq!(total.blocks_fetched, 3);
    assert_eq!(total.devices_contacted, 3);
    assert_eq!(total.recovery_depth, 3);
    assert!(!total.is_zero());
    assert!(RepairCost::default().is_zero());
}

/// One seeded repair scrub of graph 1 in each mode — six objects, three
/// devices failed and replaced, one left offline, a block rotted in two
/// stripes — and the pool's summed device-counter deltas: `reads`,
/// `verifies`, `bytes_read`, `bytes_repair_read`, `writes`. A hint is
/// neither a read nor a verify.
///
/// `Verify` hashes every present block in place, four to a kernel pass —
/// the repair cone's too, which the replay then reads where the devices
/// hold it, one repair-class read per lent block. So it verifies each of
/// the 552 present blocks once (418 while the cone was copied out and
/// hashed as it landed). A rotted block ends its plan, and only the last
/// plan's cone is lent: two blocks that the cone of a plan ended by a rot
/// named, and the last plan's did not, are verified and never read — 142
/// reads and 453,156 bytes, where copying each cone block as its plan
/// reached it read 144 and 460,848. The writes are unchanged, and so is
/// `Full`, which copies every block and verifies nothing in place.
#[test]
fn a_seeded_repair_scrub_moves_the_pinned_device_counters() {
    use rand::seq::SliceRandom;
    use rand::{Rng, RngCore, SeedableRng};
    const SEED: u64 = 0x5C2B_0A11;
    let pinned = [
        (ScrubMode::Verify, [142u64, 552, 453_156, 453_156, 20]),
        (ScrubMode::Full, [552, 0, 1_743_768, 1_743_768, 20]),
    ];
    for (mode, counters) in pinned {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(SEED);
        let store = ArchivalStore::new(tornado_core::tornado_graph_1());
        let n = store.num_devices();
        let ids: Vec<u64> = (0..6)
            .map(|i| {
                let mut payload = vec![0u8; rng.gen_range(1..200_000)];
                rng.fill_bytes(&mut payload);
                store.put(&format!("obj-{i}"), &payload).expect("put")
            })
            .collect();
        let mut devices: Vec<usize> = (0..n).collect();
        devices.shuffle(&mut rng);
        for &d in &devices[..3] {
            store.fail_device(d).expect("fail");
            store.replace_device(d).expect("replace");
        }
        store.fail_device(devices[3]).expect("fail");
        for (&id, &d) in ids.iter().zip(&devices[4..6]) {
            let node = (d + n - store.meta(id).expect("meta").rotation) % n;
            let device = store.device(d).expect("device");
            assert!(device.corrupt_block(&(id, node as NodeId), 0x10));
        }
        let sums = |s: &ArchivalStore| -> [u64; 5] {
            (0..n).map(|d| s.device(d).expect("device").stats()).fold(
                [0; 5],
                |[r, v, b, rb, w], s| {
                    [
                        r + s.reads,
                        v + s.verifies,
                        b + s.bytes_read,
                        rb + s.bytes_repair_read,
                        w + s.writes,
                    ]
                },
            )
        };
        let before = sums(&store);
        Scrubber::new(2).run(&store, 5, true, mode);
        let after = sums(&store);
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            moved, counters,
            "{mode:?}, seed {SEED:#x}: reads, verifies, bytes_read, bytes_repair_read, writes"
        );
    }
}

/// A segment-backed device holds no block in memory, so a guided repair
/// cannot lend it its cone: each cone block is read into a buffer exactly
/// once, hashed as it lands, and every other present block is verified in
/// place once — no block both — at the plan's price.
#[test]
fn a_segment_backed_verify_repair_reads_each_cone_block_once() {
    let dir = std::env::temp_dir().join(format!("tornado-repair-cost-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = tornado_core::tornado_graph_1();
    let config = DurableConfig::new_nosync(&dir, BackendKind::Segment);
    let (store, _) = ArchivalStore::open(graph.clone(), config).expect("open");
    for i in 0..3usize {
        let payload: Vec<u8> = (0..30_000 + i * 977)
            .map(|b| (b * 31 % 251) as u8)
            .collect();
        store.put(&format!("obj-{i}"), &payload).expect("put");
    }
    let lost = [3, 17, 50, 81];
    for d in lost {
        store.fail_device(d).expect("fail");
        store.replace_device(d).expect("replace");
    }
    let metas = store.list();
    let before = pool_counts(&store);
    let outcome = Scrubber::new(1).run(&store, 5, true, ScrubMode::Verify);
    let after = pool_counts(&store);

    assert!(outcome.objects_incomplete.is_empty());
    assert_eq!(outcome.blocks_repaired, lost.len() * metas.len());
    for (meta, cost) in metas.iter().zip(&outcome.costs) {
        let available: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
            .filter(|&v| !lost.contains(&store.device_of_block(meta, v)))
            .collect();
        let plan = plan_repair(&graph, &available).expect("recoverable");
        let planned = plan.cost_with(&graph, meta.block_len, |v| store.device_of_block(meta, v));
        assert_eq!(*cost, planned, "object {}", meta.id);
    }
    let claimed = outcome.total_cost();
    let present = ((graph.num_nodes() - lost.len()) * metas.len()) as u64;
    assert_eq!(claimed.bytes_read, after.0 - before.0, "claimed vs served");
    assert_eq!(
        claimed.blocks_fetched,
        after.2 - before.2,
        "one read per cone block"
    );
    assert_eq!(
        present - claimed.blocks_fetched,
        after.3 - before.3,
        "one in-place verify per present block outside the cone"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
