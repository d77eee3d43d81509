//! Decode-trial A/B: the dense counter-per-check reference
//! (`tornado_codec::reference::DenseDecoder`, full O(n) reset + all-checks
//! seeding) against the bit-row kernel, on the 96-node catalog graph — the
//! quantum of the worst-case search and Monte-Carlo suites (§3's 962 M test
//! cases are exactly this operation).
//!
//! The headline number is the k = 4 lexicographic sweep — one pattern at a
//! time through `begin_pattern` / `decode_tail`, the per-pattern form of
//! what the worst-case search does a prefix at a time — where the row
//! kernel must be ≥ 10× the dense baseline (it measures about 20×). The
//! enumerator has an absolute budget: `CombinationIter::next_slice` must
//! cost under 5 ns a step (it used to be budgeted as a share of a trial,
//! which stopped meaning anything once most patterns are decided by a
//! certificate test). A third A/B runs the same sweep with the decode
//! metrics recorder enabled (no sink attached); it may add at most 2 ns a
//! trial — absolute for the same reason. The fourth is the trial the
//! Monte-Carlo suite runs — random 24-subsets, no prefix to share —
//! through the dense reference, the row kernel and the lane kernel
//! (`tornado_codec::LaneDecoder`, a group of patterns per run), where the
//! lanes must be ≥ 4× the row kernel (≥ 2× under `--quick`). All four are
//! release-only: a debug build's timings mean nothing.
//!
//! A last row has no floor: `worst_case_search` of the graph to k = 4 on
//! one thread, ns per pattern — the certificate walk, prefix at a time
//! with its collisions peeled on lanes, that `bench_budget`'s `certify`
//! window times. The per-pattern sweep above cannot show a change there.

use crate::effort::Effort;
use crate::harness::{csv, median, median_ns, num, obj, Report};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use tornado_bitset::combinations::{binomial, CombinationIter};
use tornado_codec::reference::DenseDecoder;
use tornado_codec::{ErasureDecoder, LaneDecoder};
use tornado_obs::Json;
use tornado_sim::{worst_case_search, WorstCaseConfig};

/// The least the row kernel must gain over the dense one on the sweep.
const SWEEP_FLOOR: f64 = 10.0;
/// The most one `next_slice` step may cost.
const UNRANK_BUDGET_NS: f64 = 5.0;
/// The most the enabled recorder may add to one sweep trial.
const RECORDING_BUDGET_NS: f64 = 2.0;
/// The least the lane kernel must gain over the row kernel on random
/// patterns, at full effort and under `--quick`.
const LANES_FLOOR: f64 = 4.0;
const LANES_FLOOR_QUICK: f64 = 2.0;
/// Random patterns in the lane A/B, and the nodes each erases.
const RANDOM_PATTERNS: usize = 4096;
const RANDOM_K: usize = 24;
/// The depth of the one-thread search row.
const SEARCH_MAX_K: usize = 4;
/// Timed samples per case side (median taken).
const SAMPLES: usize = 9;

/// Runs the A/B, renders the table and asserts the four release floors.
pub fn run(effort: &Effort) -> Report {
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let mut row = ErasureDecoder::new(&graph);
    let mut dense = DenseDecoder::new(&graph);
    // One row per A/B case, ns per trial on each kernel.
    let mut rows: Vec<Json> = Vec::new();
    let mut case = |name: &str, dense_ns: f64, row_ns: f64| {
        rows.push(obj([
            ("case", Json::Str(name.into())),
            ("dense_ns", num(dense_ns, 1)),
            ("row_ns", num(row_ns, 1)),
            ("speedup", num(dense_ns / row_ns, 2)),
        ]));
    };

    // Fixed-pattern single trials.
    for (name, k) in [("single_k1", 1usize), ("single_k4", 4)] {
        let missing: Vec<usize> = (0..k).map(|i| (i * 53) % 96).collect();
        let batch = 20_000u64;
        let row_ns = median_ns(batch, SAMPLES, || {
            for _ in 0..batch {
                black_box(row.decode(black_box(&missing)));
            }
        });
        let dense_ns = median_ns(batch, SAMPLES, || {
            for _ in 0..batch {
                black_box(dense.decode(black_box(&missing)));
            }
        });
        case(name, dense_ns, row_ns);
    }

    // Lexicographic sweep (the worst-case search inner loop), k = 4.
    let batch = 65_536u64;
    let start = binomial(n as u64, 4) / 3;
    let row_sweep = |row: &mut ErasureDecoder| {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut failures = 0u64;
        for _ in 0..batch {
            let combo = it.next_slice().unwrap();
            row.begin_pattern(&combo[..3]);
            failures += u64::from(!row.decode_tail(&combo[3..]));
        }
        black_box(failures);
    };
    let sweep_row_ns = median_ns(batch, SAMPLES, || row_sweep(&mut row));
    let sweep_dense_ns = median_ns(batch, SAMPLES, || {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut failures = 0u64;
        for _ in 0..batch {
            failures += u64::from(!dense.decode(it.next_slice().unwrap()));
        }
        black_box(failures);
    });
    case("lex_sweep_k4", sweep_dense_ns, sweep_row_ns);

    // Random patterns, the Monte-Carlo suite's trial: the same seeded
    // 24-subsets one at a time through the dense reference and the row
    // kernel, and a group per run through the lanes (loading included).
    let mut rng = SmallRng::seed_from_u64(effort.seed);
    let mut perm: Vec<usize> = (0..n).collect();
    let patterns: Vec<Vec<usize>> = (0..RANDOM_PATTERNS)
        .map(|_| {
            for i in 0..RANDOM_K {
                perm.swap(i, rng.gen_range(i..n));
            }
            perm[..RANDOM_K].to_vec()
        })
        .collect();
    let random_dense_ns = median_ns(RANDOM_PATTERNS as u64, SAMPLES, || {
        for p in &patterns {
            black_box(dense.decode(p));
        }
    });
    let random_row_ns = median_ns(RANDOM_PATTERNS as u64, SAMPLES, || {
        for p in &patterns {
            black_box(row.decode(p));
        }
    });
    let mut lanes = LaneDecoder::new(&graph);
    let random_lanes_ns = median_ns(RANDOM_PATTERNS as u64, SAMPLES, || {
        for group in patterns.chunks(LaneDecoder::LANES) {
            for (lane, p) in group.iter().enumerate() {
                lanes.load(lane, p);
            }
            black_box(lanes.run(group.len()));
        }
    });
    let lanes_speedup = random_row_ns / random_lanes_ns;
    let lanes_floor = if effort.quick {
        LANES_FLOOR_QUICK
    } else {
        LANES_FLOOR
    };

    // Observability A/B: the same k = 4 sweep with the decode recorder
    // enabled (counters ticking, no sink attached). The recorder is plain
    // u64 increments behind one branch, so it may add at most 2 ns to a
    // trial — keeping `--metrics` runs honest about speed. Clock-frequency
    // and cache drift between distant measurements runs to ±10% here — far
    // above the recorder's real cost — so the two sides are interleaved
    // off/on per round and compared as a median of per-round differences,
    // which cancels any drift slower than one round.
    let mut timed_sweep = |rec: bool| {
        row.set_recording(rec);
        let t = Instant::now();
        row_sweep(&mut row);
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        row.set_recording(false);
        black_box(row.take_cells());
        ns
    };
    timed_sweep(false); // warmup
    timed_sweep(true);
    let (mut off_ns, mut on_ns, mut extra_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let off = timed_sweep(false);
        let on = timed_sweep(true);
        off_ns.push(off);
        on_ns.push(on);
        extra_ns.push(on - off);
    }
    let sweep_off_ns = median(&mut off_ns);
    let sweep_recording_ns = median(&mut on_ns);
    let recording_overhead_ns = median(&mut extra_ns);

    // Combinadic enumeration: one step of a k = 4 sweep.
    let unrank_ns = median_ns(batch, SAMPLES, || {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut acc = 0usize;
        for _ in 0..batch {
            acc ^= it.next_slice().unwrap()[3];
        }
        black_box(acc);
    });

    // The search itself, on one thread.
    let search_patterns: u64 = (1..=SEARCH_MAX_K as u64)
        .map(|k| binomial(n as u64, k) as u64)
        .sum();
    let search_cfg = WorstCaseConfig {
        max_k: SEARCH_MAX_K,
        ..Default::default()
    };
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    let search_ns = one_thread.install(|| {
        median_ns(search_patterns, SAMPLES, || {
            black_box(worst_case_search(&graph, &search_cfg));
        })
    });

    let sweep_speedup = sweep_dense_ns / sweep_row_ns;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Decode-trial A/B — dense reference vs bit-row kernel, tornado_graph_1 ({n} nodes), \
         ns per trial, median of {SAMPLES} samples"
    );
    out.push_str(&csv(&rows));
    let _ = writeln!(
        out,
        "random_k{RANDOM_K}_ns_per_trial, {random_dense_ns:.1} dense, {random_row_ns:.1} row, \
         {random_lanes_ns:.1} lanes ({} a group), {lanes_speedup:.2}x lanes over row",
        LaneDecoder::LANES
    );
    let _ = writeln!(out, "unrank_ns_per_step, {unrank_ns:.1}");
    let _ = writeln!(
        out,
        "search_k{SEARCH_MAX_K}_ns_per_pattern, {search_ns:.2} (worst_case_search, \
         {search_patterns} patterns, one thread)"
    );
    let _ = writeln!(
        out,
        "recording_ns_per_trial, {sweep_recording_ns:.1} on, {sweep_off_ns:.1} off, \
         {recording_overhead_ns:+.2} median paired difference"
    );
    if cfg!(debug_assertions) {
        let _ = writeln!(out, "floors: not asserted in a debug build");
    } else {
        let _ = writeln!(
            out,
            "floors: lex_sweep_k4 >= {SWEEP_FLOOR}x dense, random_k{RANDOM_K} lanes >= \
             {lanes_floor}x row, unrank < {UNRANK_BUDGET_NS} ns/step, recording < \
             {RECORDING_BUDGET_NS} ns/trial"
        );
        assert!(
            lanes_speedup >= lanes_floor,
            "random_k{RANDOM_K} lanes are {lanes_speedup:.2}x the row kernel, below the \
             {lanes_floor}x floor"
        );
        assert!(
            unrank_ns < UNRANK_BUDGET_NS,
            "combination enumeration costs {unrank_ns:.1} ns a step (budget {UNRANK_BUDGET_NS} ns)"
        );
        assert!(
            sweep_speedup >= SWEEP_FLOOR,
            "lex_sweep_k4 speedup {sweep_speedup:.2}x is below the {SWEEP_FLOOR}x floor"
        );
        assert!(
            recording_overhead_ns < RECORDING_BUDGET_NS,
            "recording-enabled sweep is {recording_overhead_ns:+.2} ns a trial vs recording-off \
             (budget {RECORDING_BUDGET_NS} ns)"
        );
    }

    let data = obj([
        (
            "graph",
            Json::Str("tornado_graph_1 (96 nodes, 48 data)".into()),
        ),
        ("samples_per_case", Json::U64(SAMPLES as u64)),
        ("units", Json::Str("ns_per_trial".into())),
        ("cases", Json::Arr(rows)),
        (
            "random_patterns",
            obj([
                ("patterns", Json::U64(RANDOM_PATTERNS as u64)),
                ("k", Json::U64(RANDOM_K as u64)),
                ("lanes_per_group", Json::U64(LaneDecoder::LANES as u64)),
                ("dense_ns", num(random_dense_ns, 1)),
                ("row_ns", num(random_row_ns, 1)),
                ("lanes_ns", num(random_lanes_ns, 1)),
                ("lanes_over_row", num(lanes_speedup, 2)),
                ("lanes_floor", num(lanes_floor, 1)),
            ]),
        ),
        ("unrank_ns_per_step", num(unrank_ns, 1)),
        ("unrank_budget_ns_per_step", num(UNRANK_BUDGET_NS, 1)),
        (
            "search_k4",
            obj([
                ("max_k", Json::U64(SEARCH_MAX_K as u64)),
                ("patterns", Json::U64(search_patterns)),
                ("threads", Json::U64(1)),
                ("ns_per_pattern", num(search_ns, 2)),
            ]),
        ),
        ("recording_ns_per_trial", num(sweep_recording_ns, 1)),
        (
            "recording_overhead_ns_per_trial",
            num(recording_overhead_ns, 2),
        ),
        ("recording_budget_ns_per_trial", num(RECORDING_BUDGET_NS, 1)),
        ("sweep_floor", num(SWEEP_FLOOR, 1)),
    ]);
    Report {
        text: out,
        data: Some(data),
    }
}
