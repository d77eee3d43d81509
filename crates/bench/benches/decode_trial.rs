//! Latency of one availability-only decode trial — the quantum of the
//! worst-case search and Monte-Carlo suites (§3's 962 M test cases are
//! exactly this operation).
//!
//! Every group runs A/B: `dense` is the retained counter-per-check
//! reference kernel (`tornado_codec::reference::DenseDecoder`, full O(n)
//! reset + all-checks seeding), `row` is the bit-row kernel. The
//! `lex_sweep` group additionally exercises the shared-prefix path
//! (certificates instead of peels), and `unrank` isolates the combinadic
//! enumeration cost (budgeted in absolute terms by the bin check in
//! `src/bin/bench_decode_trial.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tornado_bitset::combinations::{binomial, CombinationIter};
use tornado_codec::reference::DenseDecoder;
use tornado_codec::ErasureDecoder;

fn bench_decode_trial(c: &mut Criterion) {
    let graph = tornado_core::tornado_graph_1();
    let mut row = ErasureDecoder::new(&graph);
    let mut dense = DenseDecoder::new(&graph);
    let mut group = c.benchmark_group("decode_trial");
    for &k in &[1usize, 4, 16, 48] {
        // A deterministic spread-out pattern of k losses.
        let missing: Vec<usize> = (0..k).map(|i| (i * 53) % 96).collect();
        group.bench_with_input(BenchmarkId::new("row", k), &missing, |b, missing| {
            b.iter(|| black_box(row.decode(black_box(missing))))
        });
        group.bench_with_input(BenchmarkId::new("dense", k), &missing, |b, missing| {
            b.iter(|| black_box(dense.decode(black_box(missing))))
        });
    }
    group.finish();
}

/// A lexicographic slice of `C(96, k)`, one verdict per combination. The
/// row side re-derives the shared prefix's certificates only when it
/// changes and peels only the tails that collide with them; the dense side
/// pays a full reset every trial.
fn bench_lex_sweep(c: &mut Criterion) {
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let mut row = ErasureDecoder::new(&graph);
    let mut dense = DenseDecoder::new(&graph);
    let mut group = c.benchmark_group("lex_sweep");
    for &k in &[2usize, 4] {
        const TRIALS: u64 = 4096;
        // Start mid-sequence so prefixes are non-trivial, but never so late
        // that the sweep runs off the end of C(n, k) (matters at k = 2).
        let total = binomial(n as u64, k as u64);
        let start = (total / 3).min(total - u128::from(TRIALS));
        group.throughput(Throughput::Elements(TRIALS));
        group.bench_function(BenchmarkId::new("row_prefix_reuse", k), |b| {
            b.iter(|| {
                let mut it = CombinationIter::from_rank(n, k, start);
                let mut failures = 0u64;
                for _ in 0..TRIALS {
                    let (prefix, tail) = it.next_slice().unwrap().split_at(k - 1);
                    row.begin_pattern(prefix);
                    failures += u64::from(!row.decode_tail(tail));
                }
                black_box(failures)
            })
        });
        group.bench_function(BenchmarkId::new("row_one_shot", k), |b| {
            b.iter(|| {
                let mut it = CombinationIter::from_rank(n, k, start);
                let mut failures = 0u64;
                for _ in 0..TRIALS {
                    failures += u64::from(!row.decode(it.next_slice().unwrap()));
                }
                black_box(failures)
            })
        });
        group.bench_function(BenchmarkId::new("dense", k), |b| {
            b.iter(|| {
                let mut it = CombinationIter::from_rank(n, k, start);
                let mut failures = 0u64;
                for _ in 0..TRIALS {
                    failures += u64::from(!dense.decode(it.next_slice().unwrap()));
                }
                black_box(failures)
            })
        });
    }
    group.finish();
}

/// Combinadic enumeration alone: `next_slice` must stay a few nanoseconds
/// a step for the data-parallel split to be effectively free.
fn bench_unrank(c: &mut Criterion) {
    let mut group = c.benchmark_group("unrank");
    const TRIALS: u64 = 4096;
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function("next_slice_k4", |b| {
        b.iter(|| {
            let mut it = CombinationIter::from_rank(96, 4, binomial(96, 4) / 3);
            let mut acc = 0usize;
            for _ in 0..TRIALS {
                acc ^= it.next_slice().unwrap()[3];
            }
            black_box(acc)
        })
    });
    group.bench_function("from_rank_k4", |b| {
        b.iter(|| black_box(CombinationIter::from_rank(96, 4, black_box(1_234_567))))
    });
    group.finish();
}

/// Decode-metrics recorder A/B on the lexicographic sweep: the recorder
/// is plain `u64` increments behind one branch, so the enabled side must
/// track the disabled side within noise (the release bin check in
/// `src/bin/bench_decode_trial.rs` enforces the 2 ns budget).
fn bench_recording_overhead(c: &mut Criterion) {
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let mut row = ErasureDecoder::new(&graph);
    let mut group = c.benchmark_group("recording_overhead");
    const TRIALS: u64 = 4096;
    let start = binomial(n as u64, 4) / 3;
    group.throughput(Throughput::Elements(TRIALS));
    for recording in [false, true] {
        let name = if recording { "recording_on" } else { "recording_off" };
        group.bench_function(BenchmarkId::new("lex_sweep", name), |b| {
            row.set_recording(recording);
            b.iter(|| {
                let mut it = CombinationIter::from_rank(n, 4, start);
                let mut failures = 0u64;
                for _ in 0..TRIALS {
                    let combo = it.next_slice().unwrap();
                    row.begin_pattern(&combo[..3]);
                    failures += u64::from(!row.decode_tail(&combo[3..]));
                }
                black_box(failures)
            });
            row.set_recording(false);
            black_box(row.take_cells());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decode_trial,
    bench_lex_sweep,
    bench_unrank,
    bench_recording_overhead
);
criterion_main!(benches);
