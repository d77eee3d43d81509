//! Data-plane throughput: the two kernels against their byte-serial
//! oracles, and the paths built from them.
//!
//! The kernel rows (`xor_into`, `mul_acc`) are an A/B: the word-wide kernel
//! through its public entry point against `kernels::scalar`, called
//! directly on the same buffers. The scalar side is genuinely
//! one-byte-at-a-time (its loop index is threaded through `black_box`, so
//! the optimiser cannot vectorise it); the speedups quantify what the
//! word-wide layout buys over byte-serial execution, not over whatever
//! autovectorisation would have rescued.
//!
//! The end-to-end rows (stripe encode, erasure decode, a full-read scrub
//! pass) are plain MB/s: each path has one body, so there is no second
//! side to time. Their absolute numbers are tracked per commit by
//! `bench_budget` (`codec.encode_*`, `codec.decode4_1m_us`,
//! `scrub.verify_clean_mb_per_s`).
//!
//! A second section A/Bs the checksum-gated scrub — a stripe is skipped,
//! or goes through plan → cone → replay, where an intact stripe's cone is
//! empty and every block is hashed in place — against `ScrubMode::Full`,
//! which copies every block out to hash it.
//!
//! A third times what the scrub's verify stream is made of: separately
//! allocated 1 MiB-object blocks hashed in a shuffled order, each with an
//! empty hint and with the next block's (`kernels::Ahead`), through the
//! same function. It has no floor.
//!
//! The floors: `xor_into` must be ≥ 4× and `mul_acc` ≥ 3× the byte-serial
//! oracle, and the hash-in-place pass over a clean store (`verify_clean`)
//! ≥ 1.1× the `Full` pass over the same store. Under `Effort::quick` all
//! three relax to 1.0× (CI machines are noisy and sometimes
//! byte-serial-hostile in odd ways). The kernel floors assume the
//! workspace's `x86-64-v3` codegen target.

use crate::effort::Effort;
use crate::harness::{csv, median, median_ns, num, obj, Report};
use std::fmt::Write as _;
use tornado_codec::gf256::Gf256;
use tornado_codec::{kernels, pool, Codec};
use tornado_obs::Json;
use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

/// One kernel, measured against its byte-serial oracle.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Case label (stable across the JSON schema and EXPERIMENTS.md).
    pub name: &'static str,
    /// Byte-serial oracle throughput, decimal MB/s.
    pub scalar_mb_s: f64,
    /// Word-wide kernel throughput, decimal MB/s.
    pub word_mb_s: f64,
}

impl Case {
    /// Word-wide over scalar ratio.
    pub fn speedup(&self) -> f64 {
        self.word_mb_s / self.scalar_mb_s
    }
}

/// A full data-plane measurement.
pub struct DataPlaneReport {
    /// Kernel A/B cases, in fixed order: `xor_into`, `mul_acc`.
    pub cases: Vec<Case>,
    /// End-to-end paths and their decimal MB/s, in fixed order: `encode`,
    /// `decode`, `scrub`.
    pub paths: Vec<(&'static str, f64)>,
    /// Block-pool hits during the measurement.
    pub pool_hits: u64,
    /// Block-pool misses during the measurement.
    pub pool_misses: u64,
    /// Bytes through the XOR kernel during the measurement.
    pub bytes_xored: u64,
    /// Bytes through the GF multiply kernel during the measurement.
    pub bytes_muled: u64,
    /// Bytes through the checksum kernel during the measurement.
    pub bytes_hashed: u64,
}

impl DataPlaneReport {
    /// Looks a case up by name.
    pub fn case(&self, name: &str) -> &Case {
        self.cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no case {name}"))
    }

    /// Pool hit fraction over the measurement window.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Decimal MB/s for `bytes` processed in `ns` nanoseconds.
fn mb_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1000.0
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Runs the kernel A/B and the end-to-end paths at one block size.
/// `samples` timed calls per measurement; medians reported.
pub fn measure(block_bytes: usize, samples: usize) -> DataPlaneReport {
    let pool0 = (pool::metrics().hits.get(), pool::metrics().misses.get());
    let kern0 = (
        kernels::metrics().bytes_xored.get(),
        kernels::metrics().bytes_muled.get(),
        kernels::metrics().bytes_hashed.get(),
    );
    let mut cases = Vec::new();

    // Kernel-level: xor_into, as the data plane calls it, against the
    // oracle.
    let word_batch = ((4 << 20) / block_bytes.max(1)).clamp(1, 4096) as u64;
    let scalar_batch = ((1 << 20) / block_bytes.max(1)).clamp(1, 1024) as u64;
    let src = pattern(block_bytes, 3);
    let mut dst = pattern(block_bytes, 7);
    let word_ns = median_ns(word_batch, samples, || {
        for _ in 0..word_batch {
            kernels::xor_into(std::hint::black_box(&mut dst), std::hint::black_box(&src));
        }
    });
    let scalar_ns = median_ns(scalar_batch, samples, || {
        for _ in 0..scalar_batch {
            kernels::scalar::xor_into(std::hint::black_box(&mut dst), std::hint::black_box(&src));
        }
    });
    cases.push(Case {
        name: "xor_into",
        scalar_mb_s: mb_s(block_bytes, scalar_ns),
        word_mb_s: mb_s(block_bytes, word_ns),
    });

    // Kernel-level: mul_acc with a non-trivial coefficient (table build
    // included on both sides, amortised over the block).
    let field = Gf256::new();
    let word_ns = median_ns(word_batch, samples, || {
        for _ in 0..word_batch {
            kernels::mul_acc(
                &field,
                std::hint::black_box(&mut dst),
                std::hint::black_box(&src),
                0x53,
            );
        }
    });
    let scalar_ns = median_ns(scalar_batch, samples, || {
        for _ in 0..scalar_batch {
            kernels::scalar::mul_acc(
                &field,
                std::hint::black_box(&mut dst),
                std::hint::black_box(&src),
                0x53,
            );
        }
    });
    cases.push(Case {
        name: "mul_acc",
        scalar_mb_s: mb_s(block_bytes, scalar_ns),
        word_mb_s: mb_s(block_bytes, word_ns),
    });

    // End to end.
    let graph = tornado_core::tornado_graph_1();
    let codec = Codec::new(&graph);
    let k = graph.num_data();
    let data: Vec<Vec<u8>> = (0..k).map(|i| pattern(block_bytes, i as u8)).collect();
    let data_bytes = k * block_bytes;

    let mut encode_once = || {
        let input: Vec<Vec<u8>> =
            pool::with_thread_pool(|p| data.iter().map(|b| p.take_copy(b)).collect());
        let mut out = codec.encode_owned(input).expect("encode");
        pool::with_thread_pool(|p| {
            for b in out.drain(..) {
                p.recycle(b);
            }
        });
    };
    let mut paths = vec![(
        "encode",
        mb_s(data_bytes, median_ns(1, samples, &mut encode_once)),
    )];

    // Decode: four data blocks erased, recovered by the peeling schedule.
    let blocks = codec.encode(&data).expect("encode");
    let erased = [0usize, 7, 19, 33];
    let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
    let mut decode_once = || {
        pool::with_thread_pool(|p| {
            for &e in &erased {
                if let Some(b) = stored[e].take() {
                    p.recycle(b);
                }
            }
        });
        let report = codec.decode(&mut stored).expect("decode");
        assert!(report.complete());
    };
    let decode_ns = median_ns(1, samples, &mut decode_once);
    paths.push(("decode", mb_s(erased.len() * block_bytes, decode_ns)));

    // Scrub: a small store with one failed device; every pass reads every
    // stripe and decodes the missing block (no repair, so each pass does
    // identical work). Pinned to `ScrubMode::Full`, the full-read data
    // path; the checksum-gated modes get their own A/B in
    // [`measure_scrub_modes`].
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let objects = 2usize;
    let payload = vec![0xA5u8; k * block_bytes - 8];
    for i in 0..objects {
        store.put(&format!("bench-{i}"), &payload).expect("put");
    }
    store.fail_device(3).expect("fail");
    let n = graph.num_nodes();
    let scrubber = Scrubber::new(1);
    let scrub_ns = median_ns(1, samples, || {
        let out = scrubber.run(&store, 5, false, ScrubMode::Full);
        assert_eq!(out.degraded_count(), objects);
    });
    paths.push(("scrub", mb_s(objects * (n - 1) * block_bytes, scrub_ns)));

    DataPlaneReport {
        cases,
        paths,
        pool_hits: pool::metrics().hits.get() - pool0.0,
        pool_misses: pool::metrics().misses.get() - pool0.1,
        bytes_xored: kernels::metrics().bytes_xored.get() - kern0.0,
        bytes_muled: kernels::metrics().bytes_muled.get() - kern0.1,
        bytes_hashed: kernels::metrics().bytes_hashed.get() - kern0.2,
    }
}

/// One scrub-mode A/B case: the mode under test against the full-read
/// data path (every block copied out and hashed, decode on damage).
///
/// Both throughputs use the same nominal denominator — the bytes of
/// archive the pass covers (`objects × n × block_bytes`) — so the ratios
/// are pure wall-time ratios and "MB/s" reads as *archive covered per
/// second*, which is the number an operator planning scrub cadence needs.
#[derive(Clone, Copy, Debug)]
pub struct ScrubModeCase {
    /// Case label (stable across the JSON schema and EXPERIMENTS.md).
    pub name: &'static str,
    /// `ScrubMode::Full` over the same store.
    pub full_word_mb_s: f64,
    /// The mode under test.
    pub mode_mb_s: f64,
}

impl ScrubModeCase {
    /// Mode over the full-read pass (what checksum gating buys).
    pub fn speedup_vs_full(&self) -> f64 {
        self.mode_mb_s / self.full_word_mb_s
    }
}

/// A full scrub-mode measurement.
pub struct ScrubModeReport {
    /// `verify_clean`, then `verify_dirty`.
    pub cases: Vec<ScrubModeCase>,
    /// What a warm `ScrubMode::Incremental` pass over a clean store costs
    /// per stripe it skips. Not a throughput: a skip reads no archive
    /// bytes, so there is nothing to divide by.
    pub skip_ns_per_stripe: f64,
    /// Bytes through the checksum kernel during the measurement.
    pub bytes_hashed: u64,
}

impl ScrubModeReport {
    /// Looks a case up by name.
    pub fn case(&self, name: &str) -> &ScrubModeCase {
        self.cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no case {name}"))
    }
}

/// Measures the checksum-gated scrub against the full-read pass.
///
/// * `verify_clean` — `ScrubMode::Verify` over an undamaged store: every
///   cone is empty, so the win is copy elimination.
/// * `verify_dirty` — the same with one failed device: every stripe is
///   planned, its cone read and replayed, so the gain is just the blocks
///   outside the cone that skipped the copy.
/// * the skip — a warm `ScrubMode::Incremental` pass over the undamaged
///   store: the steady-state background scrub, a generation-map walk.
pub fn measure_scrub_modes(block_bytes: usize, samples: usize) -> ScrubModeReport {
    let hash0 = kernels::metrics().bytes_hashed.get();
    let graph = tornado_core::tornado_graph_1();
    let k = graph.num_data();
    let n = graph.num_nodes();
    let objects = 2usize;
    let payload = vec![0xA5u8; k * block_bytes - 8];
    let nominal = objects * n * block_bytes;

    let clean = ArchivalStore::new(tornado_core::tornado_graph_1());
    let dirty = ArchivalStore::new(tornado_core::tornado_graph_1());
    for i in 0..objects {
        clean.put(&format!("bench-{i}"), &payload).expect("put");
        dirty.put(&format!("bench-{i}"), &payload).expect("put");
    }
    dirty.fail_device(3).expect("fail");

    // One scrubber per (store, timing block): clean marks must not leak a
    // skip into a Verify/Full measurement. Returns ns per pass.
    let time = |store: &ArchivalStore, mode: ScrubMode| -> f64 {
        let scrubber = Scrubber::new(1);
        if mode == ScrubMode::Incremental {
            // Mark every stripe clean: steady state, not first-pass discovery.
            scrubber.run(store, 5, false, mode);
        }
        median_ns(1, samples, || {
            let out = scrubber.run(store, 5, false, mode);
            assert_eq!(out.stripes.len(), objects);
        })
    };

    let cases = [("verify_clean", &clean), ("verify_dirty", &dirty)]
        .map(|(name, store)| ScrubModeCase {
            name,
            full_word_mb_s: mb_s(nominal, time(store, ScrubMode::Full)),
            mode_mb_s: mb_s(nominal, time(store, ScrubMode::Verify)),
        })
        .to_vec();
    // One stripe per object at this payload size.
    let skip_ns_per_stripe = time(&clean, ScrubMode::Incremental) / objects as f64;

    ScrubModeReport {
        cases,
        skip_ns_per_stripe,
        bytes_hashed: kernels::metrics().bytes_hashed.get() - hash0,
    }
}

/// The block length of a 1 MiB object on graph 1: the scrub's verify
/// stream is made of blocks this long.
const STREAM_BLOCK_BYTES: usize = 21_846;

/// What the next-block hint buys a stream of separately allocated blocks.
#[derive(Clone, Copy, Debug)]
pub struct BlockStream {
    /// Blocks in the stream.
    pub blocks: usize,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Each block hashed with [`kernels::Ahead::NONE`], decimal MB/s.
    pub empty_hint_mb_s: f64,
    /// Each block hashed with the next block's hint, decimal MB/s.
    pub next_hint_mb_s: f64,
}

/// Hashes `blocks` in `order` — each with the hint of the block after it
/// when `hinted`, else with none — as the scrubber's verify stream does.
fn hash_stream(blocks: &[Vec<u8>], order: &[usize], hinted: bool) -> u64 {
    let mut acc = 0;
    for (j, &b) in order.iter().enumerate() {
        let next = match order.get(j + 1) {
            Some(&n) if hinted => kernels::Ahead::of(&blocks[n]),
            _ => kernels::Ahead::NONE,
        };
        acc ^= kernels::checksum(std::hint::black_box(&blocks[b]), next);
    }
    acc
}

/// Times [`hash_stream`] over `blocks` separate buffers in one seeded
/// shuffled order, far more than L2 holds, with and without the hint;
/// samples alternate between the two. Both read the same digests.
pub fn measure_block_stream(blocks: usize, samples: usize, seed: u64) -> BlockStream {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let buffers: Vec<Vec<u8>> = (0..blocks)
        .map(|i| pattern(STREAM_BLOCK_BYTES, i as u8))
        .collect();
    let mut order: Vec<usize> = (0..blocks).collect();
    order.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
    let digest = hash_stream(&buffers, &order, false);
    assert_eq!(
        hash_stream(&buffers, &order, true),
        digest,
        "a hint is not data"
    );
    let (mut empty, mut next) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        for (hinted, out) in [(false, &mut empty), (true, &mut next)] {
            let t = std::time::Instant::now();
            std::hint::black_box(hash_stream(&buffers, &order, hinted));
            out.push(t.elapsed().as_nanos() as f64);
        }
    }
    let bytes = blocks * STREAM_BLOCK_BYTES;
    BlockStream {
        blocks,
        block_bytes: STREAM_BLOCK_BYTES,
        empty_hint_mb_s: mb_s(bytes, median(&mut empty)),
        next_hint_mb_s: mb_s(bytes, median(&mut next)),
    }
}

/// Runs both A/Bs at 64 KiB blocks and the block stream, renders the
/// tables and asserts the three floors (the block stream has none).
pub fn run(effort: &Effort) -> Report {
    let block_bytes = 65536usize;
    let samples = if effort.quick { 3 } else { 9 };
    let (xor_floor, mul_floor, verify_floor) = if effort.quick {
        (1.0, 1.0, 1.0)
    } else {
        (4.0, 3.0, 1.1)
    };
    let r = measure(block_bytes, samples);
    let sm = measure_scrub_modes(block_bytes, samples);
    let stream = measure_block_stream(if effort.quick { 1024 } else { 4096 }, samples, effort.seed);
    let cases: Vec<Json> = r
        .cases
        .iter()
        .map(|c| {
            obj([
                ("case", Json::Str(c.name.into())),
                ("scalar_mb_s", num(c.scalar_mb_s, 1)),
                ("word_mb_s", num(c.word_mb_s, 1)),
                ("speedup", num(c.speedup(), 2)),
            ])
        })
        .collect();
    let paths: Vec<Json> = r
        .paths
        .iter()
        .map(|&(name, mb_s)| obj([("case", Json::Str(name.into())), ("mb_s", num(mb_s, 1))]))
        .collect();
    let scrub_modes: Vec<Json> = sm
        .cases
        .iter()
        .map(|c| {
            obj([
                ("case", Json::Str(c.name.into())),
                ("full_word_mb_s", num(c.full_word_mb_s, 1)),
                ("mode_mb_s", num(c.mode_mb_s, 1)),
                ("vs_full", num(c.speedup_vs_full(), 2)),
            ])
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Data-plane kernels — word-wide vs byte-serial scalar, {} KiB blocks, MB/s (decimal), \
         median of {samples} samples",
        block_bytes / 1024
    );
    out.push_str(&csv(&cases));
    let _ = writeln!(
        out,
        "# End-to-end paths over tornado_graph_1, MB/s (decimal)"
    );
    out.push_str(&csv(&paths));
    let _ = writeln!(
        out,
        "pool: {} hits / {} misses ({:.1}% hit rate); kernel volume: {:.1} MB xored, {:.1} MB muled, \
         {:.1} MB hashed",
        r.pool_hits,
        r.pool_misses,
        r.pool_hit_rate() * 100.0,
        r.bytes_xored as f64 / 1e6,
        r.bytes_muled as f64 / 1e6,
        r.bytes_hashed as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "# Checksum-gated scrub vs the full-read pass, archive MB/s (decimal)"
    );
    out.push_str(&csv(&scrub_modes));
    let _ = writeln!(
        out,
        "incremental_skip_ns_per_stripe, {:.0} (warm pass, clean store)",
        sm.skip_ns_per_stripe
    );
    let _ = writeln!(
        out,
        "checksum kernel volume: {:.1} MB hashed",
        sm.bytes_hashed as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "# Block stream: {} separate {} B blocks hashed in shuffled order, MB/s (decimal)\n\
         empty_hint_mb_s, next_hint_mb_s, ratio\n{:.1}, {:.1}, {:.2}",
        stream.blocks,
        stream.block_bytes,
        stream.empty_hint_mb_s,
        stream.next_hint_mb_s,
        stream.next_hint_mb_s / stream.empty_hint_mb_s,
    );
    if cfg!(debug_assertions) {
        // Unoptimised, the word loops lose to the byte loops they replace.
        let _ = writeln!(out, "floors: not asserted in a debug build");
    } else {
        let _ = writeln!(
            out,
            "floors: xor_into >= {xor_floor}x, mul_acc >= {mul_floor}x scalar; \
             verify_clean >= {verify_floor}x the full-read pass"
        );
        let xor = r.case("xor_into").speedup();
        let mul = r.case("mul_acc").speedup();
        let verify_clean = sm.case("verify_clean").speedup_vs_full();
        assert!(
            xor >= xor_floor,
            "xor_into speedup {xor:.2}x is below the {xor_floor}x floor"
        );
        assert!(
            mul >= mul_floor,
            "mul_acc speedup {mul:.2}x is below the {mul_floor}x floor"
        );
        assert!(
            verify_clean >= verify_floor,
            "verify_clean speedup {verify_clean:.2}x is below the {verify_floor}x floor"
        );
    }

    let data = obj([
        (
            "graph",
            Json::Str("tornado_graph_1 (96 nodes, 48 data)".into()),
        ),
        ("block_bytes", Json::U64(block_bytes as u64)),
        ("samples_per_case", Json::U64(samples as u64)),
        ("units", Json::Str("mb_per_s_decimal".into())),
        ("cases", Json::Arr(cases)),
        ("end_to_end", Json::Arr(paths)),
        (
            "pool",
            obj([
                ("hits", Json::U64(r.pool_hits)),
                ("misses", Json::U64(r.pool_misses)),
                ("hit_rate", num(r.pool_hit_rate(), 4)),
            ]),
        ),
        (
            "kernel_volume",
            obj([
                ("bytes_xored", Json::U64(r.bytes_xored)),
                ("bytes_muled", Json::U64(r.bytes_muled)),
                ("bytes_hashed", Json::U64(r.bytes_hashed)),
            ]),
        ),
        ("scrub_modes", Json::Arr(scrub_modes)),
        (
            "incremental_skip_ns_per_stripe",
            num(sm.skip_ns_per_stripe, 0),
        ),
        (
            "block_stream",
            obj([
                ("blocks", Json::U64(stream.blocks as u64)),
                ("block_bytes", Json::U64(stream.block_bytes as u64)),
                ("empty_hint_mb_s", num(stream.empty_hint_mb_s, 1)),
                ("next_hint_mb_s", num(stream.next_hint_mb_s, 1)),
                (
                    "ratio",
                    num(stream.next_hint_mb_s / stream.empty_hint_mb_s, 2),
                ),
            ]),
        ),
        (
            "floors",
            obj([
                ("xor_into", num(xor_floor, 1)),
                ("mul_acc", num(mul_floor, 1)),
                ("verify_clean_vs_full", num(verify_floor, 1)),
            ]),
        ),
    ]);
    Report {
        text: out,
        data: Some(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_cases_and_sane_numbers() {
        let r = measure(512, 1);
        for name in ["xor_into", "mul_acc"] {
            let c = r.case(name);
            assert!(c.scalar_mb_s > 0.0, "{name} scalar");
            assert!(c.word_mb_s > 0.0, "{name} word");
        }
        let paths: Vec<&str> = r.paths.iter().map(|p| p.0).collect();
        assert_eq!(paths, ["encode", "decode", "scrub"]);
        assert!(r.paths.iter().all(|p| p.1 > 0.0), "{:?}", r.paths);
        assert!(r.pool_hits + r.pool_misses > 0, "pools were exercised");
        assert!(r.bytes_xored > 0);
        assert!(r.bytes_muled > 0);
        assert!(
            r.bytes_hashed > 0,
            "the scrub row exercises the checksum kernel"
        );
    }

    #[test]
    fn scrub_mode_report_has_all_cases_and_sane_numbers() {
        let r = measure_scrub_modes(512, 1);
        for name in ["verify_clean", "verify_dirty"] {
            let c = r.case(name);
            assert!(c.full_word_mb_s > 0.0, "{name} full word");
            assert!(c.mode_mb_s > 0.0, "{name} mode");
        }
        assert!(
            r.skip_ns_per_stripe > 0.0,
            "a skipped stripe still costs a map lookup"
        );
        assert!(r.bytes_hashed > 0, "the verify passes hash in place");
    }

    #[test]
    fn block_stream_times_both_hints() {
        let s = measure_block_stream(8, 1, 1);
        assert_eq!((s.blocks, s.block_bytes), (8, STREAM_BLOCK_BYTES));
        assert!(s.empty_hint_mb_s > 0.0 && s.next_hint_mb_s > 0.0, "{s:?}");
    }
}
