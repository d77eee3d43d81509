//! Fixed-seed regression pins for the worst-case search.
//!
//! `search_level` is deterministic across runs and thread counts; these
//! tests pin its exact outputs — counts *and* the lexicographically
//! smallest collected failure sets — so any future change to the kernel,
//! the certificate lemmas, or the capped collection shows up as a diff
//! here rather than as silent drift.

use std::sync::Arc;
use tornado_codec::metrics::cells;
use tornado_codec::DecodeMetrics;
use tornado_core::{catalog, tornado_graph_1};
use tornado_gen::regular::generate_regular;
use tornado_sim::worst_case::{search_level, search_level_observed};
use tornado_sim::SimObserver;

#[test]
fn catalog_graph_1_is_clean_through_k4() {
    // Certified first failure at 5; the cheap levels must stay spotless.
    let g = tornado_graph_1();
    for (k, cases) in [(1usize, 96u128), (2, 4560), (3, 142_880), (4, 3_321_960)] {
        let level = search_level(&g, k, 8);
        assert_eq!(level.cases, cases, "k={k}");
        assert_eq!(level.failures, 0, "k={k}");
        assert!(level.failure_sets.is_empty(), "k={k}");
        assert!(!level.truncated, "k={k}");
    }
}

#[test]
fn catalog_graph_1_k4_tail_paths_are_pinned() {
    // How graph 1's k = 4 patterns are decided: 1.0 % collide with both
    // certificates of their prefix and are peeled on lanes, the rest by
    // mask. The split is fixed row by row before any lane runs, so it holds
    // at every thread count.
    let g = tornado_graph_1();
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let metrics = Arc::new(DecodeMetrics::new());
        let obs = SimObserver::disabled().with_metrics(metrics.clone());
        let level = pool.install(|| search_level_observed(&g, 4, 8, &obs));
        assert_eq!(level.failures, 0);
        let verdicts = [
            cells::TRIALS,
            cells::FAILURES,
            cells::PREFIX_REUSE_HITS,
            cells::PREFIX_COLLISIONS,
            cells::MONOTONE_SHORTCUTS,
        ]
        .map(|cell| metrics.get(cell));
        assert_eq!(
            verdicts,
            [3_321_960, 0, 3_321_960 - 34_254, 34_254, 0],
            "{threads} threads"
        );
    }
}

/// How graph 1's k = 5 patterns are decided, with its 13 failing sets: the
/// first level with failures, so failed prefixes are skipped as well.
/// 61,124,064 patterns, about 0.1 s on one core in release.
#[test]
#[ignore = "C(96,5) patterns; run with --ignored --release"]
fn catalog_graph_1_k5_tail_paths_are_pinned() {
    let g = tornado_graph_1();
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let metrics = Arc::new(DecodeMetrics::new());
        let obs = SimObserver::disabled().with_metrics(metrics.clone());
        let level = pool.install(|| search_level_observed(&g, 5, 16, &obs));
        let verdicts = [
            cells::TRIALS,
            cells::FAILURES,
            cells::PREFIX_REUSE_HITS,
            cells::PREFIX_COLLISIONS,
            cells::MONOTONE_SHORTCUTS,
        ]
        .map(|cell| metrics.get(cell));
        // No prefix of four fails, so nothing is a shortcut.
        assert_eq!(
            verdicts,
            [61_124_064, 13, 60_421_412, 702_652, 0],
            "{threads} threads"
        );
        assert_eq!(level.failures, 13);
        assert!(!level.truncated);
        assert_eq!(
            level.failure_sets,
            [
                [0, 14, 20, 39, 45],
                [2, 4, 6, 8, 29],
                [2, 5, 10, 17, 31],
                [2, 12, 31, 34, 46],
                [2, 12, 34, 38, 42],
                [2, 31, 38, 42, 46],
                [2, 33, 38, 42, 44],
                [3, 10, 16, 35, 40],
                [5, 27, 34, 44, 46],
                [10, 12, 29, 33, 34],
                [12, 33, 34, 38, 42],
                [14, 19, 38, 45, 47],
                [19, 36, 37, 41, 44],
            ],
            "{threads} threads"
        );
    }
}

#[test]
fn seeded_regular_graph_failure_counts_are_pinned() {
    // generate_regular(12, 3, 7) is fully determined by the seed; its
    // failure surface was measured once and must never drift.
    let g = generate_regular(12, 3, 7).unwrap();

    for k in 2..=3usize {
        let level = search_level(&g, k, 8);
        assert_eq!(level.failures, 0, "k={k}");
    }

    let l4 = search_level(&g, 4, 3);
    assert_eq!(l4.failures, 20);
    assert!(l4.truncated);
    assert_eq!(
        l4.failure_sets,
        vec![vec![0, 15, 19, 21], vec![1, 2, 13, 15], vec![1, 12, 13, 20],],
        "lex-smallest collected sets under the cap"
    );

    let l5 = search_level(&g, 5, 3);
    assert_eq!(l5.failures, 405);
    assert!(l5.truncated);
    assert_eq!(
        l5.failure_sets,
        vec![
            vec![0, 1, 2, 13, 15],
            vec![0, 1, 12, 13, 20],
            vec![0, 1, 15, 19, 21],
        ],
    );
}

/// The paper's depth (§3: "(96 choose 1) through (96 choose 6)"),
/// re-derived for the whole catalogue: every `kN failures F/C` entry of
/// `assets/PROVENANCE.txt` against a fresh exhaustive search. About 8 s
/// on one core in release (k = 6 is 927,048,304 patterns per graph).
#[test]
#[ignore = "exhaustive C(96,5) + C(96,6) over three graphs; run with --ignored --release"]
fn provenance_failure_counts_are_rederived_to_k6() {
    let provenance = include_str!("../assets/PROVENANCE.txt");
    let graphs = catalog::all();
    assert_eq!(provenance.lines().count(), graphs.len());
    for (line, (label, g)) in provenance.lines().zip(&graphs) {
        let mut depths = Vec::new();
        for entry in line.split(", ").filter(|e| e.starts_with('k')) {
            let (k, counts) = entry.split_once(" failures ").expect("kN failures F/C");
            let k: usize = k[1..].parse().unwrap();
            let (failures, cases) = counts.split_once('/').unwrap();
            let level = search_level(g, k, 0);
            assert_eq!(
                level.failures,
                failures.parse::<u64>().unwrap(),
                "{label}, k = {k}"
            );
            assert_eq!(
                level.cases,
                cases.parse::<u128>().unwrap(),
                "{label}, k = {k}"
            );
            depths.push(k);
        }
        assert_eq!(depths, [5, 6], "{label}: {line}");
    }
    assert!(provenance
        .lines()
        .next()
        .unwrap()
        .ends_with("k6 failures 1240/927048304"));
}
