//! Data-plane kernel throughput A/B: word-wide vs byte-serial scalar.
//!
//! Measures the two kernels in isolation (`xor_into`, `mul_acc`) and the
//! paths built from them end-to-end (stripe encode, erasure decode, a
//! scrub pass), each as MB/s with the word-wide kernels against the
//! byte-serial `scalar` oracle. The end-to-end scalar side is produced by
//! [`tornado_codec::kernels::set_force_scalar`] — same code, same pools,
//! same graph, only the inner loops differ.
//!
//! The scalar baseline is genuinely one-byte-at-a-time (its loop index is
//! threaded through `black_box`, so the optimiser cannot vectorise it);
//! the speedups quantify what the word-wide layout buys over byte-serial
//! execution, not over whatever autovectorisation would have rescued.
//!
//! A second section A/Bs the checksum-gated scrub — a stripe is skipped,
//! or goes through plan → cone → replay, where an intact stripe's cone is
//! empty and every block is hashed in place — against the historical
//! full-read + byte-serial data path.
//!
//! The headline floors are kernel-level: `xor_into` must be ≥ 4× and
//! `mul_acc` ≥ 3× the byte-serial oracle, and the hash-in-place pass over
//! a clean store (`verify_clean`) ≥ 5× the historical baseline. Under
//! `Effort::quick` they relax to 1.0 / 1.0 / 3× (CI machines are noisy and
//! sometimes byte-serial-hostile in odd ways). The floors assume the
//! workspace's `x86-64-v3` codegen target. The other end-to-end rows are
//! informational — their speedups depend on how much non-kernel work
//! (hashing, framing, graph walks) each path carries.

use crate::effort::Effort;
use crate::harness::{csv, median_ns, num, obj, Report};
use std::fmt::Write as _;
use tornado_codec::gf256::Gf256;
use tornado_codec::{kernels, pool, Codec};
use tornado_obs::Json;
use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

/// One measured A/B case.
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
    /// Kernel and end-to-end cases, in fixed order:
    /// `xor_into`, `mul_acc`, `encode`, `decode`, `scrub`.
    pub cases: Vec<Case>,
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

/// Runs the whole A/B at one block size. `samples` timed calls per side;
/// medians reported.
pub fn measure(block_bytes: usize, samples: usize) -> DataPlaneReport {
    let pool0 = (
        pool::metrics().hits.get(),
        pool::metrics().misses.get(),
    );
    let kern0 = (
        kernels::metrics().bytes_xored.get(),
        kernels::metrics().bytes_muled.get(),
        kernels::metrics().bytes_hashed.get(),
    );
    let mut cases = Vec::new();

    // Kernel-level: xor_into. The word side is measured through the public
    // dispatch (what the data plane actually calls); the scalar side calls
    // the oracle directly.
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

    // End-to-end A/B through the force_scalar switch: identical code and
    // pooling on both sides, only the kernel dispatch differs.
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
    let ab = |f: &mut dyn FnMut()| {
        let word_ns = median_ns(1, samples, &mut *f);
        kernels::set_force_scalar(true);
        let scalar_ns = median_ns(1, samples, &mut *f);
        kernels::set_force_scalar(false);
        (scalar_ns, word_ns)
    };
    let (scalar_ns, word_ns) = ab(&mut encode_once);
    cases.push(Case {
        name: "encode",
        scalar_mb_s: mb_s(data_bytes, scalar_ns),
        word_mb_s: mb_s(data_bytes, word_ns),
    });

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
    let (scalar_ns, word_ns) = ab(&mut decode_once);
    cases.push(Case {
        name: "decode",
        scalar_mb_s: mb_s(erased.len() * block_bytes, scalar_ns),
        word_mb_s: mb_s(erased.len() * block_bytes, word_ns),
    });

    // Scrub: a small store with one failed device; every pass reads every
    // stripe and decodes the missing block (no repair, so each pass does
    // identical work). Pinned to `ScrubMode::Full` — this row tracks the
    // historical full-read data path; the checksum-gated modes get their
    // own A/B in [`measure_scrub_modes`].
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let objects = 2usize;
    let payload = vec![0xA5u8; k * block_bytes - 8];
    for i in 0..objects {
        store.put(&format!("bench-{i}"), &payload).expect("put");
    }
    store.fail_device(3).expect("fail");
    let n = graph.num_nodes();
    let scrubber = Scrubber::new(1);
    let mut scrub_once = || {
        let out = scrubber.run(&store, 5, false, ScrubMode::Full);
        assert_eq!(out.degraded_count(), objects);
    };
    let (scalar_ns, word_ns) = ab(&mut scrub_once);
    let scrub_bytes = objects * (n - 1) * block_bytes;
    cases.push(Case {
        name: "scrub",
        scalar_mb_s: mb_s(scrub_bytes, scalar_ns),
        word_mb_s: mb_s(scrub_bytes, word_ns),
    });

    DataPlaneReport {
        cases,
        pool_hits: pool::metrics().hits.get() - pool0.0,
        pool_misses: pool::metrics().misses.get() - pool0.1,
        bytes_xored: kernels::metrics().bytes_xored.get() - kern0.0,
        bytes_muled: kernels::metrics().bytes_muled.get() - kern0.1,
        bytes_hashed: kernels::metrics().bytes_hashed.get() - kern0.2,
    }
}

/// One scrub-mode A/B case: the mode under test against the historical
/// data path (full read + byte-serial checksum + decode on damage).
///
/// All three throughputs use the same nominal denominator — the bytes of
/// archive the pass covers (`objects × n × block_bytes`) — so the ratios
/// are pure wall-time ratios and "MB/s" reads as *archive covered per
/// second*, which is the number an operator planning scrub cadence needs.
#[derive(Clone, Copy, Debug)]
pub struct ScrubModeCase {
    /// Case label (stable across the JSON schema and EXPERIMENTS.md).
    pub name: &'static str,
    /// Historical baseline: `ScrubMode::Full` with byte-serial kernels.
    pub baseline_mb_s: f64,
    /// `ScrubMode::Full` with word-wide kernels (isolates the copy/decode
    /// cost from the checksum-kernel win).
    pub full_word_mb_s: f64,
    /// The mode under test with word-wide kernels.
    pub mode_mb_s: f64,
}

impl ScrubModeCase {
    /// Mode over the historical full-read byte-serial baseline.
    pub fn speedup_vs_baseline(&self) -> f64 {
        self.mode_mb_s / self.baseline_mb_s
    }

    /// Mode over word-wide full decode (what checksum gating alone buys).
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

/// Measures the checksum-gated scrub against the full-read baseline.
///
/// * `verify_clean` — `ScrubMode::Verify` over an undamaged store: every
///   cone is empty, so the win is copy elimination × word-wide hashing.
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
    let time = |store: &ArchivalStore, mode: ScrubMode, force: bool| -> f64 {
        let scrubber = Scrubber::new(1);
        if mode == ScrubMode::Incremental {
            // Mark every stripe clean: steady state, not first-pass discovery.
            scrubber.run(store, 5, false, mode);
        }
        kernels::set_force_scalar(force);
        let ns = median_ns(1, samples, || {
            let out = scrubber.run(store, 5, false, mode);
            assert_eq!(out.stripes.len(), objects);
        });
        kernels::set_force_scalar(false);
        ns
    };

    let cases = [("verify_clean", &clean), ("verify_dirty", &dirty)]
        .map(|(name, store)| ScrubModeCase {
            name,
            baseline_mb_s: mb_s(nominal, time(store, ScrubMode::Full, true)),
            full_word_mb_s: mb_s(nominal, time(store, ScrubMode::Full, false)),
            mode_mb_s: mb_s(nominal, time(store, ScrubMode::Verify, false)),
        })
        .to_vec();
    // One stripe per object at this payload size.
    let skip_ns_per_stripe = time(&clean, ScrubMode::Incremental, false) / objects as f64;

    ScrubModeReport {
        cases,
        skip_ns_per_stripe,
        bytes_hashed: kernels::metrics().bytes_hashed.get() - hash0,
    }
}

/// Runs both A/Bs at 64 KiB blocks, renders the tables and asserts the
/// three floors.
pub fn run(effort: &Effort) -> Report {
    let block_bytes = 65536usize;
    let samples = if effort.quick { 3 } else { 9 };
    let (xor_floor, mul_floor, verify_floor) =
        if effort.quick { (1.0, 1.0, 3.0) } else { (4.0, 3.0, 5.0) };
    let r = measure(block_bytes, samples);
    let sm = measure_scrub_modes(block_bytes, samples);
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
    let scrub_modes: Vec<Json> = sm
        .cases
        .iter()
        .map(|c| {
            obj([
                ("case", Json::Str(c.name.into())),
                ("baseline_mb_s", num(c.baseline_mb_s, 1)),
                ("full_word_mb_s", num(c.full_word_mb_s, 1)),
                ("mode_mb_s", num(c.mode_mb_s, 1)),
                ("vs_baseline", num(c.speedup_vs_baseline(), 2)),
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
        "# Checksum-gated scrub vs full-read byte-serial baseline, archive MB/s (decimal)"
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
    if cfg!(debug_assertions) {
        // Unoptimised, the word loops lose to the byte loops they replace.
        let _ = writeln!(out, "floors: not asserted in a debug build");
    } else {
        let _ = writeln!(
            out,
            "floors: xor_into >= {xor_floor}x, mul_acc >= {mul_floor}x scalar; \
             verify_clean >= {verify_floor}x baseline"
        );
        let xor = r.case("xor_into").speedup();
        let mul = r.case("mul_acc").speedup();
        let verify_clean = sm.case("verify_clean").speedup_vs_baseline();
        assert!(xor >= xor_floor, "xor_into speedup {xor:.2}x is below the {xor_floor}x floor");
        assert!(mul >= mul_floor, "mul_acc speedup {mul:.2}x is below the {mul_floor}x floor");
        assert!(
            verify_clean >= verify_floor,
            "verify_clean speedup {verify_clean:.2}x is below the {verify_floor}x floor"
        );
    }

    let data = obj([
        ("graph", Json::Str("tornado_graph_1 (96 nodes, 48 data)".into())),
        ("block_bytes", Json::U64(block_bytes as u64)),
        ("samples_per_case", Json::U64(samples as u64)),
        ("units", Json::Str("mb_per_s_decimal".into())),
        ("cases", Json::Arr(cases)),
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
        ("incremental_skip_ns_per_stripe", num(sm.skip_ns_per_stripe, 0)),
        (
            "floors",
            obj([
                ("xor_into", num(xor_floor, 1)),
                ("mul_acc", num(mul_floor, 1)),
                ("verify_clean_vs_baseline", num(verify_floor, 1)),
            ]),
        ),
    ]);
    Report { text: out, data: Some(data) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_all_cases_and_sane_numbers() {
        let r = measure(512, 1);
        for name in ["xor_into", "mul_acc", "encode", "decode", "scrub"] {
            let c = r.case(name);
            assert!(c.scalar_mb_s > 0.0, "{name} scalar");
            assert!(c.word_mb_s > 0.0, "{name} word");
        }
        assert!(r.pool_hits + r.pool_misses > 0, "pools were exercised");
        assert!(r.bytes_xored > 0);
        assert!(r.bytes_muled > 0);
        assert!(r.bytes_hashed > 0, "the scrub row exercises the checksum kernel");
    }

    #[test]
    fn scrub_mode_report_has_all_cases_and_sane_numbers() {
        let r = measure_scrub_modes(512, 1);
        for name in ["verify_clean", "verify_dirty"] {
            let c = r.case(name);
            assert!(c.baseline_mb_s > 0.0, "{name} baseline");
            assert!(c.full_word_mb_s > 0.0, "{name} full word");
            assert!(c.mode_mb_s > 0.0, "{name} mode");
        }
        assert!(r.skip_ns_per_stripe > 0.0, "a skipped stripe still costs a map lookup");
        assert!(r.bytes_hashed > 0, "the verify passes hash in place");
    }
}
