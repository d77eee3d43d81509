//! Measures the decode-trial A/B (dense counter-per-check reference vs
//! the bit-row kernel) on the 96-node catalog graph and writes
//! `BENCH_decode_trial.json` at the repository root.
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
//! trial — absolute for the same reason.
//!
//! Usage: `cargo run --release -p tornado-bench --bin bench_decode_trial`
//! (pass `--check` to only verify invariants without rewriting the JSON,
//! as CI does; debug builds refuse to write since their numbers are
//! meaningless).

use std::time::Instant;
use tornado_bitset::combinations::{binomial, CombinationIter};
use tornado_codec::reference::DenseDecoder;
use tornado_codec::ErasureDecoder;

/// The least the row kernel must gain over the dense one on the sweep.
const SWEEP_FLOOR: f64 = 10.0;
/// The most one `next_slice` step may cost.
const UNRANK_BUDGET_NS: f64 = 5.0;
/// The most the enabled recorder may add to one sweep trial.
const RECORDING_BUDGET_NS: f64 = 2.0;

/// Median ns per inner iteration of `f` (which must run `batch` iterations
/// per call), over `samples` timed calls after one warmup call.
fn measure(batch: u64, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: touch caches, fault pages
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

struct Case {
    name: &'static str,
    dense_ns: f64,
    row_ns: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.dense_ns / self.row_ns
    }
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let graph = tornado_core::tornado_graph_1();
    let n = graph.num_nodes();
    let mut row = ErasureDecoder::new(&graph);
    let mut dense = DenseDecoder::new(&graph);
    let samples = 9;
    let mut cases: Vec<Case> = Vec::new();

    // Fixed-pattern single trials.
    for k in [1usize, 4] {
        let missing: Vec<usize> = (0..k).map(|i| (i * 53) % 96).collect();
        let batch = 20_000u64;
        let row_ns = measure(batch, samples, || {
            for _ in 0..batch {
                std::hint::black_box(row.decode(std::hint::black_box(&missing)));
            }
        });
        let dense_ns = measure(batch, samples, || {
            for _ in 0..batch {
                std::hint::black_box(dense.decode(std::hint::black_box(&missing)));
            }
        });
        cases.push(Case {
            name: if k == 1 { "single_k1" } else { "single_k4" },
            dense_ns,
            row_ns,
        });
    }

    // Lexicographic sweep (the worst-case search inner loop), k = 4.
    let batch = 65_536u64;
    let start = binomial(n as u64, 4) / 3;
    let sweep_row_ns = measure(batch, samples, || {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut failures = 0u64;
        for _ in 0..batch {
            let combo = it.next_slice().unwrap();
            row.begin_pattern(&combo[..3]);
            failures += u64::from(!row.decode_tail(&combo[3..]));
        }
        std::hint::black_box(failures);
    });
    let sweep_dense_ns = measure(batch, samples, || {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut failures = 0u64;
        for _ in 0..batch {
            failures += u64::from(!dense.decode(it.next_slice().unwrap()));
        }
        std::hint::black_box(failures);
    });
    cases.push(Case {
        name: "lex_sweep_k4",
        dense_ns: sweep_dense_ns,
        row_ns: sweep_row_ns,
    });

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
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut failures = 0u64;
        for _ in 0..batch {
            let combo = it.next_slice().unwrap();
            row.begin_pattern(&combo[..3]);
            failures += u64::from(!row.decode_tail(&combo[3..]));
        }
        std::hint::black_box(failures);
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        row.set_recording(false);
        std::hint::black_box(row.take_cells());
        ns
    };
    timed_sweep(false); // warmup
    timed_sweep(true);
    let mut off_ns = Vec::with_capacity(samples);
    let mut on_ns = Vec::with_capacity(samples);
    let mut extra_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let off = timed_sweep(false);
            let on = timed_sweep(true);
            off_ns.push(off);
            on_ns.push(on);
            on - off
        })
        .collect();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let sweep_off_ns = median(&mut off_ns);
    let sweep_recording_ns = median(&mut on_ns);
    let recording_overhead_ns = median(&mut extra_ns);

    // Combinadic enumeration: one step of a k = 4 sweep.
    let unrank_ns = measure(batch, samples, || {
        let mut it = CombinationIter::from_rank(n, 4, start);
        let mut acc = 0usize;
        for _ in 0..batch {
            acc ^= it.next_slice().unwrap()[3];
        }
        std::hint::black_box(acc);
    });

    let headline = cases.iter().find(|c| c.name == "lex_sweep_k4").unwrap();
    let target_met = headline.speedup() >= SWEEP_FLOOR;

    println!("graph: tornado_graph_1 ({n} nodes), {samples} samples/case");
    for c in &cases {
        println!(
            "  {:<14} dense {:>8.1} ns/trial   row {:>8.1} ns/trial   speedup {:>5.2}x",
            c.name,
            c.dense_ns,
            c.row_ns,
            c.speedup()
        );
    }
    println!("  unrank         {unrank_ns:>8.1} ns/step (budget {UNRANK_BUDGET_NS} ns)");
    println!(
        "  recording      {sweep_recording_ns:>8.1} ns/trial (off {sweep_off_ns:>6.1}) = \
         {recording_overhead_ns:+.2} ns median paired difference (budget {RECORDING_BUDGET_NS} ns)"
    );
    println!(
        "  target: row >= {SWEEP_FLOOR}x dense on lex_sweep_k4 -> {}",
        if target_met { "MET" } else { "NOT MET" }
    );

    assert!(
        cfg!(debug_assertions) || unrank_ns < UNRANK_BUDGET_NS,
        "combination enumeration costs {unrank_ns:.1} ns a step (budget {UNRANK_BUDGET_NS} ns)"
    );

    if cfg!(debug_assertions) {
        println!("debug build: numbers are meaningless, not writing JSON");
        return;
    }
    assert!(
        target_met,
        "lex_sweep_k4 speedup {:.2}x is below the {SWEEP_FLOOR}x floor",
        headline.speedup()
    );
    assert!(
        recording_overhead_ns < RECORDING_BUDGET_NS,
        "recording-enabled sweep is {recording_overhead_ns:+.2} ns a trial vs recording-off \
         (budget {RECORDING_BUDGET_NS} ns)"
    );
    if check_only {
        println!("--check: invariants hold, JSON left untouched");
        return;
    }

    // Hand-formatted JSON (the workspace deliberately has no serde).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"decode_trial\",\n");
    json.push_str("  \"graph\": \"tornado_graph_1 (96 nodes, 48 data)\",\n");
    json.push_str("  \"mode\": \"release\",\n");
    json.push_str(&format!("  \"samples_per_case\": {samples},\n"));
    json.push_str("  \"units\": \"ns_per_trial\",\n");
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"case\": \"{}\", \"dense\": {:.1}, \"row\": {:.1}, \"speedup\": {:.2}}}{}\n",
            c.name,
            c.dense_ns,
            c.row_ns,
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"unrank_ns_per_step\": {unrank_ns:.1},\n"
    ));
    json.push_str(&format!(
        "  \"unrank_budget_ns_per_step\": {UNRANK_BUDGET_NS:.1},\n"
    ));
    json.push_str(&format!(
        "  \"recording_ns_per_trial\": {sweep_recording_ns:.1},\n"
    ));
    json.push_str(&format!(
        "  \"recording_overhead_ns_per_trial\": {recording_overhead_ns:.2},\n"
    ));
    json.push_str(&format!(
        "  \"target\": \"row >= {SWEEP_FLOOR}x dense on lex_sweep_k4\",\n"
    ));
    json.push_str(&format!("  \"target_met\": {target_met}\n"));
    json.push_str("}\n");

    // The bin lives two levels below the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode_trial.json");
    std::fs::write(out, json).expect("write BENCH_decode_trial.json");
    println!("wrote {out}");
}
