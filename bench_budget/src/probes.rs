//! Per-layer probes: each times one public call of one layer from outside,
//! single-threaded, as the median of at least 1,000 calls. A probe runs in
//! the traced run of the workload it informs (`catalogue::PerLayer::homes`).

use crate::env::ScratchDir;
use crate::stats::{median, percentile};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tornado_bitset::combinations::CombinationIter;
use tornado_codec::{BlockPool, Codec, DecodeMetrics, EncodedStripe, ErasureDecoder};
use tornado_graph::{Graph, NodeId};
use tornado_server::protocol::{append_frame, FrameBuffer};
use tornado_server::{Client, Op, Request, Response};
use tornado_sim::{worst_case_search_observed, SimObserver, WorstCaseConfig};
use tornado_store::{
    plan_repair, plan_retrieval, ArchivalStore, BackendKind, BlockBackend, CrashInjector,
    DurableConfig, FileBackend, IntentJournal, JournalRecord, MemoryBackend, RetrievalPlan,
    SegmentBackend,
};

pub type Metrics = Vec<(&'static str, f64)>;

/// Calls per probe.
const CALLS: usize = 1_000;

/// The devices `get_large_degraded` fails; graph 1 survives any four.
pub const FAILED_DEVICES: [usize; 4] = [7, 29, 55, 88];

/// Median wall time of `run(prep())` over `calls` calls, microseconds;
/// `prep` is not timed.
fn median_us<T>(calls: usize, mut prep: impl FnMut(usize) -> T, mut run: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let input = prep(i);
            let t0 = Instant::now();
            run(input);
            t0.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    median(&samples)
}

pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    SmallRng::seed_from_u64(seed).fill_bytes(&mut buf);
    buf
}

/// `server.ping_rtt_us`, `server.stat_rtt_us`: one idle connection.
pub fn server_rtt(client: &mut Client, id: u64) -> Metrics {
    let ping = median_us(2 * CALLS, |_| (), |()| client.ping().expect("PING"));
    let stat = median_us(
        2 * CALLS,
        |_| (),
        |()| drop(black_box(client.stat(id).expect("STAT"))),
    );
    vec![("server.ping_rtt_us", ping), ("server.stat_rtt_us", stat)]
}

/// `protocol.put_frame_64k_us`: what a 64 KiB PUT costs on the wire path —
/// request encode, framing, reassembly, request decode.
pub fn protocol_put_frame(seed: u64) -> Metrics {
    let body = payload(seed, 64 << 10);
    let us = median_us(
        CALLS,
        |_| (),
        |()| {
            // `Client::put` copies the caller's payload into the op.
            let req = Request {
                deadline_ms: 0,
                corr_id: None,
                trace_id: None,
                op: Op::Put {
                    name: "probe".into(),
                    payload: body.to_vec(),
                },
            };
            let mut wire = Vec::new();
            append_frame(&mut wire, &req.encode());
            let mut frames = FrameBuffer::new();
            frames.extend(&wire);
            let frame = frames.next_frame().expect("well-formed").expect("complete");
            black_box(Request::decode(&frame).expect("round trip"));
        },
    );
    vec![("protocol.put_frame_64k_us", us)]
}

/// `protocol.get_reply_1m_us`: what a 1 MiB GET reply costs on the wire
/// path — response encode, framing, reassembly, response decode. The
/// engine hands the store's buffer to the response, so building the
/// response is not timed.
pub fn protocol_get_reply(seed: u64) -> Metrics {
    let body = payload(seed, 1 << 20);
    let us = median_us(
        CALLS,
        |_| Response::GetOk {
            payload: body.clone(),
        },
        |resp| {
            let mut wire = Vec::new();
            append_frame(&mut wire, &resp.encode_corr(None));
            let mut frames = FrameBuffer::new();
            frames.extend(&wire);
            let frame = frames.next_frame().expect("well-formed").expect("complete");
            black_box(Response::decode_corr(&frame).expect("round trip"));
        },
    );
    vec![("protocol.get_reply_1m_us", us)]
}

/// What direct `get_detailed` calls on `store` cost and read.
pub struct DirectGets {
    pub median_us: f64,
    pub plan_share: f64,
    pub fetch_share: f64,
    pub decode_share: f64,
    pub blocks_fetched: f64,
    pub devices_contacted: f64,
}

/// `store.get_*_us` and the `GetStats` splits: `calls` direct
/// `ArchivalStore::get_detailed` over seeded ids, no network.
pub fn direct_gets(store: &ArchivalStore, ids: &[u64], seed: u64, calls: usize) -> DirectGets {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut plan, mut fetch, mut decode, mut blocks, mut devices, mut total_us) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0.0);
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let id = ids[(rng.next_u64() % ids.len() as u64) as usize];
        let t0 = Instant::now();
        let (payload, stats) = store.get_detailed(id).expect("direct GET");
        let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
        black_box(payload);
        samples.push(us);
        total_us += us;
        plan += stats.plan_us;
        fetch += stats.fetch_us;
        decode += stats.decode_us;
        blocks += stats.cost.blocks_fetched;
        devices += stats.cost.devices_contacted;
    }
    let n = calls as f64;
    DirectGets {
        median_us: median(&samples),
        plan_share: plan as f64 / total_us,
        fetch_share: fetch as f64 / total_us,
        decode_share: decode as f64 / total_us,
        blocks_fetched: blocks as f64 / n,
        devices_contacted: devices as f64 / n,
    }
}

/// `store.put_64k_us`: direct `ArchivalStore::put`, memory backend.
pub fn store_put(graph: &Graph, seed: u64) -> Metrics {
    let store = ArchivalStore::new(graph.clone());
    let body = payload(seed, 64 << 10);
    let us = median_us(
        CALLS,
        |_| (),
        |()| {
            black_box(store.put("probe", &body).expect("PUT"));
        },
    );
    vec![("store.put_64k_us", us)]
}

/// The planner over catalog-shaped availability: `plan` is
/// `plan_retrieval` or `plan_repair`, `missing` the nodes that are gone.
fn plan_probe(
    name: &'static str,
    graph: &Graph,
    missing: &[usize],
    plan: fn(&Graph, &[NodeId]) -> Option<RetrievalPlan>,
) -> Metrics {
    let available: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
        .filter(|n| !missing.contains(&(*n as usize)))
        .collect();
    let us = median_us(
        CALLS,
        |_| (),
        |()| drop(black_box(plan(graph, &available).expect("plannable"))),
    );
    vec![(name, us)]
}

/// `retrieval.plan_healthy_us`: all 96 nodes available.
pub fn plan_healthy(graph: &Graph) -> Metrics {
    plan_probe("retrieval.plan_healthy_us", graph, &[], plan_retrieval)
}

/// `retrieval.plan_degraded_us`: 92 nodes available.
pub fn plan_degraded(graph: &Graph) -> Metrics {
    plan_probe(
        "retrieval.plan_degraded_us",
        graph,
        &FAILED_DEVICES,
        plan_retrieval,
    )
}

/// `retrieval.plan_repair_us`: regenerate four missing blocks.
pub fn plan_repair_probe(graph: &Graph) -> Metrics {
    plan_probe(
        "retrieval.plan_repair_us",
        graph,
        &FAILED_DEVICES,
        plan_repair,
    )
}

/// Block size of a 64 KiB object on a 48-data-node graph.
const BLOCK_64K: usize = 1_366;

fn backend_put_get(
    backend: &mut dyn BlockBackend,
    seed: u64,
    put_name: &'static str,
    get_name: &'static str,
) -> Metrics {
    let block = payload(seed, BLOCK_64K);
    let calls = 2 * CALLS;
    let put = median_us(
        calls,
        |i| (1u64, i as u32),
        |key| backend.put(key, &block).expect("backend put"),
    );
    let mut pool = BlockPool::new();
    let get = median_us(
        calls,
        |i| (1u64, i as u32),
        |key| {
            let buf = backend
                .get_pooled(&key, &mut pool)
                .expect("backend get")
                .expect("block present");
            pool.recycle(black_box(buf));
        },
    );
    vec![(put_name, put), (get_name, get)]
}

/// `backend.memory_put_us`, `backend.memory_get_us`.
pub fn backend_memory(seed: u64) -> Metrics {
    backend_put_get(
        &mut MemoryBackend::new(),
        seed,
        "backend.memory_put_us",
        "backend.memory_get_us",
    )
}

/// The segment and file backends (fsync off) and `journal.append_us`.
pub fn backends_durable(seed: u64) -> Metrics {
    let dir = ScratchDir::new("backends");
    let mut out = Vec::new();
    let mut segment =
        SegmentBackend::open(&dir.path().join("probe.seg"), false).expect("open segment");
    out.extend(backend_put_get(
        &mut segment,
        seed,
        "backend.segment_put_us",
        "backend.segment_get_us",
    ));
    let mut file = FileBackend::open(&dir.path().join("blocks"), false).expect("open file backend");
    out.extend(backend_put_get(
        &mut file,
        seed,
        "backend.file_put_us",
        "backend.file_get_us",
    ));
    let (mut journal, _scan) =
        IntentJournal::open(&dir.path().join("journal"), false).expect("open journal");
    let crash = CrashInjector::default();
    let append = median_us(
        2 * CALLS,
        |i| JournalRecord::PutCommit { id: i as u64 },
        |rec| journal.append(&rec, &crash).expect("journal append"),
    );
    out.push(("journal.append_us", append));
    out
}

/// What fsync costs, as exact counts: 64 direct PUTs of 64 KiB on the
/// segment backend with `DurableConfig::new` (fsync on). The latency is
/// this disk's and informational.
pub fn fsync_pass(graph: &Graph, seed: u64) -> Metrics {
    const PUTS: usize = 64;
    let dir = ScratchDir::new("fsync");
    let (store, _report) = ArchivalStore::open(
        graph.clone(),
        DurableConfig::new(dir.path(), BackendKind::Segment),
    )
    .expect("open durable store");
    let body = payload(seed, 64 << 10);
    let m = tornado_store::backend::metrics();
    let (appends, fsyncs) = (m.journal_appends.get(), m.fsyncs.get());
    let mut samples: Vec<u64> = (0..PUTS)
        .map(|_| {
            let t0 = Instant::now();
            store.put("fsync", &body).expect("durable PUT");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    vec![
        (
            "store.journal_appends_per_put",
            (m.journal_appends.get() - appends) as f64 / PUTS as f64,
        ),
        (
            "store.fsyncs_per_put",
            (m.fsyncs.get() - fsyncs) as f64 / PUTS as f64,
        ),
        (
            "store.fsync_put_p50_us",
            percentile(&samples, 0.5).expect("64 samples") as f64 / 1_000.0,
        ),
    ]
}

/// `codec.encode_64k_us`, `codec.encode_1m_us`.
pub fn codec_encode(graph: &Graph, seed: u64) -> Metrics {
    let codec = Codec::new(graph);
    let mut out = Vec::new();
    for (name, len) in [
        ("codec.encode_64k_us", 64 << 10),
        ("codec.encode_1m_us", 1 << 20),
    ] {
        let body = payload(seed, len);
        let us = median_us(
            CALLS,
            |_| (),
            |()| {
                drop(black_box(
                    EncodedStripe::from_object(&codec, &body).expect("encode"),
                ))
            },
        );
        out.push((name, us));
    }
    out
}

/// `codec.decode4_1m_us`: `recover_object` with four blocks gone.
pub fn codec_decode4(graph: &Graph, seed: u64) -> Metrics {
    let codec = Codec::new(graph);
    let body = payload(seed, 1 << 20);
    let stripe = EncodedStripe::from_object(&codec, &body).expect("encode");
    let us = median_us(
        CALLS,
        |_| {
            let mut stored: Vec<Option<Vec<u8>>> =
                stripe.blocks().iter().cloned().map(Some).collect();
            for d in FAILED_DEVICES {
                stored[d] = None;
            }
            stored
        },
        |mut stored| {
            let out = EncodedStripe::recover_object(&codec, &mut stored)
                .expect("decode")
                .expect("recoverable");
            assert_eq!(out.len(), body.len());
            black_box(out);
        },
    );
    vec![("codec.decode4_1m_us", us)]
}

/// `codec.xor_gb_per_s`, `codec.checksum_gb_per_s`: 64 KiB buffers.
pub fn codec_kernels(seed: u64) -> Metrics {
    const LEN: usize = 64 << 10;
    const ROUNDS: usize = 20_000;
    let src = payload(seed, LEN);
    let mut dst = payload(seed + 1, LEN);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        tornado_codec::xor_into(black_box(&mut dst), black_box(&src));
    }
    let xor = (LEN * ROUNDS) as f64 / t0.elapsed().as_secs_f64() / 1e9;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        acc ^= tornado_codec::checksum(black_box(&src));
    }
    black_box(acc);
    let sum = (LEN * ROUNDS) as f64 / t0.elapsed().as_secs_f64() / 1e9;
    vec![
        ("codec.xor_gb_per_s", xor),
        ("codec.checksum_gb_per_s", sum),
    ]
}

/// `erasure.sweep_ns_per_pattern`: one thread, every 4-subset of the 96
/// nodes in lexicographic order through `decode_batch`; and
/// `sim.prefix_reuse_rate` from an observed k ≤ 4 search.
pub fn erasure_sweep(graph: &Graph) -> Metrics {
    let mut decoder = ErasureDecoder::new(graph);
    let t0 = Instant::now();
    let stats = decoder.decode_batch(CombinationIter::new(graph.num_nodes(), 4), |_| {});
    let ns = t0.elapsed().as_nanos() as f64 / stats.trials as f64;
    assert_eq!(stats.failures, 0, "graph 1 survives any four losses");

    let metrics = Arc::new(DecodeMetrics::new());
    let obs = SimObserver::disabled().with_metrics(Arc::clone(&metrics));
    worst_case_search_observed(
        graph,
        &WorstCaseConfig {
            max_k: 4,
            ..Default::default()
        },
        &obs,
    );
    let cell = |name: &str| {
        metrics
            .items()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v) as f64
    };
    vec![
        ("erasure.sweep_ns_per_pattern", ns),
        (
            "sim.prefix_reuse_rate",
            cell("decode.prefix_reuse_hits") / cell("decode.trials").max(1.0),
        ),
    ]
}

/// `erasure.random_ns_per_trial`: one thread, seeded random 24-subsets
/// through `ErasureDecoder::decode`; drawing the subsets is not timed.
pub fn erasure_random(graph: &Graph, seed: u64) -> f64 {
    const PATTERNS: usize = 4_096;
    const ROUNDS: usize = 50;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..graph.num_nodes()).collect();
    let patterns: Vec<Vec<usize>> = (0..PATTERNS)
        .map(|_| {
            nodes.shuffle(&mut rng);
            nodes[..24].to_vec()
        })
        .collect();
    let mut decoder = ErasureDecoder::new(graph);
    let mut failures = 0u64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for p in &patterns {
            failures += u64::from(!decoder.decode(black_box(p)));
        }
    }
    black_box(failures);
    t0.elapsed().as_nanos() as f64 / (PATTERNS * ROUNDS) as f64
}
