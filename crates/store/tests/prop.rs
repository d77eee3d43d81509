//! Property-based tests for the archival store.

use proptest::prelude::*;
use tornado_codec::ErasureDecoder;
use tornado_graph::{Graph, GraphBuilder, NodeId};
use tornado_store::{plan_retrieval, ArchivalStore, StoreError};

/// A small robust graph: 8 data nodes, mirrored + a cross-check layer, so
/// any single loss is survivable and payload behaviour is easy to reason
/// about.
fn robust_graph() -> Graph {
    let mut b = GraphBuilder::new(8);
    b.begin_level("mirror");
    for v in 0..8u32 {
        b.add_check(&[v]);
    }
    b.begin_level("cross");
    for v in 0..4u32 {
        b.add_check(&[2 * v, 2 * v + 1]);
    }
    b.build().unwrap()
}

/// Payload sizes for the differential test. With k = 48 the first three
/// give `block_len = 1`, so the 8-byte length header spans eight blocks;
/// the rest straddle every block_len boundary up to the 1.4 KiB blocks of
/// a 64 KiB object.
const SIZES: [usize; 11] = [0, 1, 7, 8, 9, 47, 48, 383, 385, 4 << 10, 64 << 10];

/// One data-first GET on catalog graph 1 against the planner as oracle:
/// the object is put at `rotation`, `offline` devices fail, and everything
/// the GET reports must be what `plan_retrieval` derives from the same
/// availability — or `Unrecoverable` with the decoder's own lost list. The
/// GET is the framed call, with `headroom` bytes in front of the stripe.
/// Returns whether the object was served.
fn get_matches_planner_oracle(
    rotation: usize,
    offline: &[usize],
    size: usize,
    headroom: usize,
) -> bool {
    let graph = tornado_core::tornado_graph_1();
    let (n, k) = (graph.num_nodes(), graph.num_data());
    let store = ArchivalStore::new(graph.clone());
    for _ in 0..rotation {
        store.put("pad", b"").expect("pad put");
    }
    let payload: Vec<u8> = (0..size).map(|i| (i * 131 % 251) as u8).collect();
    let id = store.put("obj", &payload).expect("put");
    let meta = store.meta(id).expect("meta");
    assert_eq!(meta.rotation, rotation);
    for &d in offline {
        store.fail_device(d).expect("fail");
    }
    let available: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| !offline.contains(&store.device_of_block(&meta, v)))
        .collect();

    match (
        store.get_framed(id, headroom),
        plan_retrieval(&graph, &available),
    ) {
        (Ok((buf, payload_start, stats)), Some(plan)) => {
            assert_eq!(payload_start, headroom + 8);
            assert_eq!(&buf[payload_start..], payload, "payload is byte-identical");
            assert_eq!(stats.blocks_fetched, plan.fetch.len());
            assert_eq!(stats.blocks_recovered, plan.schedule.len());
            assert_eq!(stats.replans, 0, "an offline miss is a hole, not a replan");
            let cost = plan.cost_with(&graph, meta.block_len, |v| store.device_of_block(&meta, v));
            assert_eq!(stats.cost, cost);
            let checks = plan.fetch.iter().filter(|&&v| v as usize >= k).count();
            assert_eq!(stats.repair_bytes_read, (checks * meta.block_len) as u64);
            true
        }
        (Err(StoreError::Unrecoverable { lost_blocks, .. }), None) => {
            let missing: Vec<usize> = (0..n)
                .filter(|&v| !available.contains(&(v as NodeId)))
                .collect();
            let oracle = ErasureDecoder::new(&graph).decode_detailed(&missing);
            assert_eq!(lost_blocks, oracle.lost_data);
            false
        }
        (got, plan) => panic!(
            "store and planner disagree: get = {:?}, plan = {:?}",
            got.map(|(_, _, stats)| stats),
            plan.map(|p| p.fetch)
        ),
    }
}

/// Patterns far past the graph's tolerance, which six random failures
/// essentially never produce: the `Unrecoverable` arm of the oracle.
#[test]
fn unrecoverable_gets_list_what_the_decoder_lists() {
    let every_other: Vec<usize> = (0..96).step_by(2).collect();
    assert!(!get_matches_planner_oracle(0, &every_other, 385, 0));
    let first_third: Vec<usize> = (0..32).collect();
    assert!(!get_matches_planner_oracle(71, &first_third, 4 << 10, 9));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential test of the data-first GET (see
    /// [`get_matches_planner_oracle`]): random rotation, 0–6 offline
    /// devices, payload sizes around every framing boundary, any headroom.
    #[test]
    fn get_agrees_with_the_planner_oracle(
        rotation in 0usize..96,
        offline in proptest::collection::vec(0usize..96, 0..7),
        size in 0usize..SIZES.len(),
        headroom in 0usize..80,
    ) {
        get_matches_planner_oracle(rotation, &offline, SIZES[size], headroom);
    }

    /// Put/get round-trips arbitrary payloads, including after losing any
    /// single device.
    #[test]
    fn roundtrip_with_single_device_loss(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        lost_device in 0usize..20,
    ) {
        let store = ArchivalStore::new(robust_graph());
        let id = store.put("obj", &payload).expect("put");
        store.fail_device(lost_device).expect("fail");
        prop_assert_eq!(store.get(id).expect("degraded get"), payload);
    }

    /// Corrupting any single block never corrupts the returned payload —
    /// the checksum layer converts it into an erasure and decoding routes
    /// around it.
    #[test]
    fn corruption_never_escapes(
        payload in proptest::collection::vec(any::<u8>(), 1..800),
        node in 0u32..20,
        mask in 1u8..=255,
    ) {
        let store = ArchivalStore::new(robust_graph());
        let id = store.put("obj", &payload).expect("put");
        let meta = store.meta(id).expect("meta");
        let dev = store.device_of_block(&meta, node);
        store.device(dev).expect("device").corrupt_block(&(id, node), mask);
        prop_assert_eq!(store.get(id).expect("get"), payload);
    }

    /// Multiple objects coexist: interleaved puts and gets never bleed into
    /// each other despite rotation.
    #[test]
    fn objects_are_isolated(seeds in proptest::collection::vec(any::<u8>(), 2..12)) {
        let store = ArchivalStore::new(robust_graph());
        let objs: Vec<(u64, Vec<u8>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let payload = vec![s; 10 + i * 7];
                let id = store.put(&format!("o{i}"), &payload).expect("put");
                (id, payload)
            })
            .collect();
        for (id, payload) in objs {
            prop_assert_eq!(store.get(id).expect("get"), payload);
        }
    }
}
