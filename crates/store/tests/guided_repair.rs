//! Guided repair against the oracle it replaced.
//!
//! The scrubber no longer reads a damaged stripe whole: it asks the device
//! index what is there, plans the repair, copies out only the plan's cone
//! and verifies everything else in place. The oracle is the old way —
//! every surviving block of the stripe handed to `Codec::decode` — built
//! here from the put-time stripe, so it shares nothing with the planner.
//! For random erasures (0–8 devices, each left offline or replaced) plus
//! random single-byte rot, on the catalog's graph 1 and on the small
//! cascade, the two must agree on every stripe's health, on exactly which
//! blocks get rewritten — unrecoverable stripes included: whatever peeling
//! reaches is still repaired — and every rewritten block must be the
//! put-time block, byte for byte. All three modes report the same healths
//! and rewrite the same blocks, and thread counts never show.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tornado_codec::kernels::Ahead;
use tornado_codec::{Codec, EncodedStripe};
use tornado_graph::{Graph, GraphBuilder, NodeId};
use tornado_store::{ArchivalStore, ReadClass, ScrubMode, ScrubOutcome, Scrubber};

/// Profiled first-failure level handed to the scrubber (graph 1's).
const LEVEL: usize = 5;

/// data 0..4; checks 4 = 0^1, 5 = 2^3, 6 = 4^5.
fn cascade() -> Graph {
    let mut b = GraphBuilder::new(4);
    b.begin_level("c1");
    b.add_check(&[0, 1]);
    b.add_check(&[2, 3]);
    b.begin_level("c2");
    b.add_check(&[4, 5]);
    b.build().unwrap()
}

/// The damage done to a store before it is scrubbed.
#[derive(Clone, Debug, Default)]
struct Damage {
    /// Failed devices, and whether each got a replacement drive.
    erased: BTreeMap<usize, bool>,
    /// `(object index, node, mask)`: first byte of that block XORed.
    rot: Vec<(usize, NodeId, u8)>,
}

/// Object payloads: one whose blocks on graph 1 span more than a strip of
/// the fused read, two small ones with ragged lengths.
fn payloads() -> Vec<Vec<u8>> {
    [250_000usize, 3_001, 97]
        .iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|b| (b * 31 + i * 7) as u8).collect())
        .collect()
}

/// A fresh store holding [`payloads`] with `damage` applied. Building is
/// deterministic, so two calls give stores in identical states.
fn damaged_store(graph: &Graph, damage: &Damage) -> (ArchivalStore, Vec<u64>) {
    let store = ArchivalStore::new(graph.clone());
    let ids: Vec<u64> = payloads()
        .iter()
        .enumerate()
        .map(|(i, p)| store.put(&format!("o{i}"), p).unwrap())
        .collect();
    for (&d, &replaced) in &damage.erased {
        store.fail_device(d).unwrap();
        if replaced {
            store.replace_device(d).unwrap();
        }
    }
    for &(obj, node, mask) in &damage.rot {
        let meta = store.meta(ids[obj]).unwrap();
        let device = store.device(store.device_of_block(&meta, node)).unwrap();
        // A no-op on an erased device: the block is already gone.
        device.corrupt_block(&(ids[obj], node), mask);
    }
    (store, ids)
}

/// What the read-everything-and-decode oracle says of one stripe.
struct Expected {
    blocks: Vec<Vec<u8>>,
    missing: Vec<NodeId>,
    recoverable: bool,
    /// Missing blocks the decode rebuilt whose home device is online.
    rewritten: BTreeSet<NodeId>,
}

fn oracle(store: &ArchivalStore, damage: &Damage, obj: usize, id: u64) -> Expected {
    let codec = Codec::new(store.graph());
    let meta = store.meta(id).unwrap();
    let blocks = EncodedStripe::from_object(&codec, &payloads()[obj])
        .unwrap()
        .into_blocks();
    let erased = |v: NodeId| damage.erased.get(&store.device_of_block(&meta, v));
    let rotted = |v: NodeId| damage.rot.iter().any(|&(o, n, _)| o == obj && n == v);
    let missing: Vec<NodeId> = (0..blocks.len() as NodeId)
        .filter(|&v| erased(v).is_some() || rotted(v))
        .collect();
    let mut stored: Vec<Option<Vec<u8>>> = blocks.iter().cloned().map(Some).collect();
    for &v in &missing {
        stored[v as usize] = None;
    }
    let report = codec.decode(&mut stored).unwrap();
    let rewritten = report
        .recovered
        .iter()
        .copied()
        .filter(|&v| erased(v) != Some(&false))
        .collect();
    Expected {
        blocks,
        missing,
        recoverable: report.complete(),
        rewritten,
    }
}

/// Scrubs a freshly damaged store with repair and checks outcome and
/// device contents against the oracle; returns the outcome.
fn scrub_and_check(
    graph: &Graph,
    damage: &Damage,
    mode: ScrubMode,
    threads: usize,
) -> ScrubOutcome {
    let (store, ids) = damaged_store(graph, damage);
    let writes = |s: &ArchivalStore| -> u64 {
        (0..s.num_devices())
            .map(|d| s.device(d).unwrap().stats().writes)
            .sum()
    };
    let writes_before = writes(&store);
    let outcome = Scrubber::new(threads).run(&store, LEVEL, true, mode);
    let what = format!("{mode:?}, {threads} threads, {damage:?}");

    let mut rewritten_total = 0usize;
    let mut incomplete = Vec::new();
    for (obj, &id) in ids.iter().enumerate() {
        let want = oracle(&store, damage, obj, id);
        let health = &outcome.stripes[obj];
        assert_eq!(health.id, id);
        assert_eq!(health.missing_blocks, want.missing, "{what}");
        assert_eq!(health.recoverable, want.recoverable, "{what}");
        assert_eq!(
            health.margin,
            LEVEL as i64 - want.missing.len() as i64,
            "{what}"
        );

        let meta = store.meta(id).unwrap();
        for (v, block) in want.blocks.iter().enumerate() {
            let v = v as NodeId;
            let device = store.device(store.device_of_block(&meta, v)).unwrap();
            let mut bytes = Vec::new();
            let held = device
                .read_block_into(&(id, v), ReadClass::Payload, &mut bytes, Ahead::NONE)
                .map(|_| bytes);
            let intact = held.as_ref() == Some(block);
            let should_be = !want.missing.contains(&v) || want.rewritten.contains(&v);
            assert_eq!(intact, should_be, "object {id} node {v}: {what}");
        }
        rewritten_total += want.rewritten.len();
        if want.rewritten.len() < want.missing.len() {
            incomplete.push(id);
        }
    }
    assert_eq!(outcome.blocks_repaired, rewritten_total, "{what}");
    assert_eq!(
        writes(&store) - writes_before,
        rewritten_total as u64,
        "{what}"
    );
    assert_eq!(outcome.objects_incomplete, incomplete, "{what}");
    outcome
}

/// Every mode and thread count against the oracle, and against each other.
fn check_all_modes(graph: &Graph, damage: &Damage) {
    let serial = scrub_and_check(graph, damage, ScrubMode::Verify, 1);
    for threads in [4, 0] {
        let parallel = scrub_and_check(graph, damage, ScrubMode::Verify, threads);
        assert_eq!(serial, parallel, "{threads} threads vs serial, {damage:?}");
    }
    for mode in [ScrubMode::Full, ScrubMode::Incremental] {
        let other = scrub_and_check(graph, damage, mode, 1);
        assert_eq!(
            serial.stripes, other.stripes,
            "{mode:?} healths, {damage:?}"
        );
        assert_eq!(
            serial.actions, other.actions,
            "{mode:?} actions, {damage:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn guided_repair_matches_read_all_and_decode(
        on_cascade in any::<bool>(),
        erasures in proptest::collection::vec((0usize..96, any::<bool>()), 0..9),
        rot in proptest::collection::vec((0usize..3, 0u32..96, 1u8..=255), 0..3),
    ) {
        let graph = if on_cascade { cascade() } else { tornado_core::tornado_graph_1() };
        let n = graph.num_nodes();
        let damage = Damage {
            erased: erasures.into_iter().map(|(d, replaced)| (d % n, replaced)).collect(),
            rot: rot.into_iter().map(|(o, v, m)| (o, v % n as u32, m)).collect(),
        };
        check_all_modes(&graph, &damage);
    }
}

/// Graph 1 past saving, on purpose: data node 0 and everything above it in
/// the cascade — the checks over it, the checks over those, and so on — are
/// gone, so nothing can peel any of them back and none of those checks can
/// be re-encoded. The two unrelated losses beside them are still rebuilt.
#[test]
fn unrecoverable_stripe_on_graph_1_is_still_partially_repaired() {
    let graph = tornado_core::tornado_graph_1();
    let mut gone: Vec<usize> = vec![0];
    let mut next = 0;
    while let Some(&v) = gone.get(next) {
        let above = graph.checks_of(v as NodeId).iter().map(|&c| c as usize);
        gone.extend(above.filter(|c| !gone.contains(c)).collect::<Vec<_>>());
        next += 1;
    }
    let doomed = gone.len();
    // The first put sits at rotation 0 (node v on device v).
    gone.extend(
        (1..96)
            .filter(|d| !gone.contains(d))
            .take(2)
            .collect::<Vec<_>>(),
    );
    let damage = Damage {
        erased: gone.into_iter().map(|d| (d, true)).collect(),
        rot: vec![],
    };
    let (store, ids) = damaged_store(&graph, &damage);
    let want = oracle(&store, &damage, 0, ids[0]);
    assert!(!want.recoverable);
    assert_eq!(want.rewritten.len(), want.missing.len() - doomed);
    check_all_modes(&graph, &damage);
}
