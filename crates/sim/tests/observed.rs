//! The observed simulator entry points must change nothing about results
//! while reporting exact, scheduling-independent metrics.

use std::sync::Arc;
use std::time::Duration;
use tornado_codec::metrics::cells;
use tornado_codec::DecodeMetrics;
use tornado_gen::mirror::generate_mirror;
use tornado_obs::{EventFormat, EventSink, Json, ProgressConfig};
use tornado_sim::monte_carlo::{sample_level, sample_levels_observed};
use tornado_sim::worst_case::search_level_observed;
use tornado_sim::{
    monte_carlo_profile, monte_carlo_profile_observed, worst_case_search,
    worst_case_search_observed, MonteCarloConfig, SimObserver, WorstCaseConfig,
};

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

#[test]
fn observed_worst_case_matches_unobserved_and_counts_every_trial() {
    let g = generate_mirror(6).unwrap(); // 12 nodes
    let cfg = WorstCaseConfig {
        max_k: 3,
        collect_cap: 1024,
        stop_at_first_failure: false,
    };
    let plain = worst_case_search(&g, &cfg);

    let metrics = Arc::new(DecodeMetrics::new());
    let obs = SimObserver::disabled().with_metrics(metrics.clone());
    let observed = worst_case_search_observed(&g, &cfg, &obs);

    for (a, b) in plain.levels.iter().zip(observed.levels.iter()) {
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.failure_sets, b.failure_sets);
        assert_eq!(a.cases, b.cases);
    }

    // Acceptance-critical shape: trials == sum_k C(n, k), exactly.
    let expected: u64 = (1..=3).map(|k| binomial(12, k)).sum();
    assert_eq!(metrics.get(cells::TRIALS), expected);
    assert!(
        metrics.get(cells::PREFIX_REUSE_HITS) > 0,
        "lex sweep must hit the residual fast path: {metrics:?}"
    );
    assert_eq!(
        metrics.get(cells::FAILURES),
        plain.levels.iter().map(|l| l.failures).sum::<u64>()
    );
}

#[test]
fn observed_metrics_are_deterministic_across_thread_counts() {
    let g = generate_mirror(6).unwrap();
    let collect = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let metrics = Arc::new(DecodeMetrics::new());
        let obs = SimObserver::disabled().with_metrics(metrics.clone());
        let level = pool.install(|| search_level_observed(&g, 3, 16, &obs));
        (level.failures, metrics.items().map(|(_, v)| v))
    };
    let baseline = collect(1);
    for threads in [2usize, 4, 8] {
        let got = collect(threads);
        assert_eq!(got.0, baseline.0, "thread count {threads} changed failures");
        // Trials and failures are partition-invariant (every pattern is
        // decoded exactly once no matter how ranks are chunked). Prefix
        // bookkeeping and worklist traffic legitimately vary — each range
        // re-begins its first prefix — so only the verdict counters are
        // asserted bit-identical.
        assert_eq!(
            got.1[cells::TRIALS],
            baseline.1[cells::TRIALS],
            "thread count {threads} changed the trial count"
        );
        assert_eq!(
            got.1[cells::FAILURES],
            baseline.1[cells::FAILURES],
            "thread count {threads} changed the failure count"
        );
        // Every trial takes exactly one of the three tail paths.
        assert_eq!(
            got.1[cells::PREFIX_REUSE_HITS]
                + got.1[cells::PREFIX_COLLISIONS]
                + got.1[cells::MONOTONE_SHORTCUTS],
            got.1[cells::TRIALS],
            "thread count {threads} broke the tail-path partition"
        );
    }
}

#[test]
fn observed_monte_carlo_is_identical_and_counts_trials() {
    let g = generate_mirror(4).unwrap(); // 8 nodes
    let cfg = MonteCarloConfig {
        trials_per_k: 5000,
        seed: 42,
        ks: Some(vec![2, 3, 4]),
    };
    let plain = monte_carlo_profile(&g, &cfg);

    let metrics = Arc::new(DecodeMetrics::new());
    let (events, event_buf) = EventSink::memory(EventFormat::Json);
    let obs = SimObserver::disabled()
        .with_metrics(metrics.clone())
        .with_events(events);
    let observed = monte_carlo_profile_observed(&g, &cfg, &obs);

    for k in [2usize, 3, 4] {
        assert_eq!(plain.entry(k).failures, observed.entry(k).failures);
    }
    assert_eq!(metrics.get(cells::TRIALS), 3 * 5000);
    assert_eq!(
        metrics.get(cells::FAILURES),
        (2..=4).map(|k| observed.entry(k).failures).sum::<u64>()
    );

    // One completion event per level, in k order, parseable, with exact
    // counts and no timing: the levels run in one pass, not one by one.
    let lines = event_buf.lock().unwrap();
    assert_eq!(lines.len(), 3);
    for (line, k) in lines.iter().zip(2u64..) {
        let doc = tornado_obs::json::parse(line).unwrap();
        assert_eq!(
            doc.get("event").unwrap().as_str(),
            Some("monte_carlo_level")
        );
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(k));
        assert_eq!(doc.get("trials").unwrap().as_u64(), Some(5000));
        assert_eq!(
            doc.get("failures").unwrap().as_u64(),
            Some(observed.entry(k as usize).failures)
        );
        assert_eq!(doc.get("elapsed_ms"), None, "{line}");
    }
}

#[test]
fn observed_monte_carlo_cells_are_identical_at_every_thread_count() {
    // One pass over three levels with both verdicts, twenty lane groups.
    // A group is one work unit at every level, so every cell — the
    // recoveries of its bisection's peels included — belongs to its group,
    // not to the worker that ran it.
    let g = tornado_gen::regular::generate_regular(12, 3, 1).unwrap();
    let ks = [8, 5, 11];
    let collect = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let metrics = Arc::new(DecodeMetrics::new());
        let obs = SimObserver::disabled().with_metrics(metrics.clone());
        let failures = pool.install(|| sample_levels_observed(&g, &[], &ks, 10_000, 42, &obs));
        (failures, metrics.items().map(|(_, v)| v))
    };
    let baseline = collect(1);
    for (&k, &failures) in ks.iter().zip(&baseline.0) {
        assert_eq!(failures, sample_level(&g, k, 10_000, 42), "k = {k}");
    }
    assert_eq!(baseline.1[cells::TRIALS], 30_000);
    assert_eq!(baseline.1[cells::FAILURES], baseline.0.iter().sum::<u64>());
    assert!(baseline.1[cells::RECOVERIES] > 0, "{:?}", baseline.1);
    for threads in [2usize, 5] {
        assert_eq!(collect(threads), baseline, "{threads} threads");
    }
}

#[test]
fn observed_progress_renders_per_level_lines() {
    let g = generate_mirror(6).unwrap();
    let (progress, buf) = ProgressConfig::memory();
    let obs =
        SimObserver::disabled().with_progress(progress.with_interval(Duration::from_millis(0)));
    let level = search_level_observed(&g, 2, 16, &obs);
    assert_eq!(level.failures, 6);
    let lines = buf.lock().unwrap();
    assert!(!lines.is_empty());
    assert!(
        lines.iter().all(|l| l.starts_with("worst-case k=2")),
        "{lines:?}"
    );
    // finish() forces a final 100% render.
    assert!(
        lines.last().unwrap().contains("(66/66)"),
        "{:?}",
        lines.last()
    );
}

#[test]
fn observed_sample_level_progress_counts_every_trial() {
    let g = generate_mirror(4).unwrap();
    let (progress, buf) = ProgressConfig::memory();
    let obs = SimObserver::disabled().with_progress(progress);
    let failures = sample_levels_observed(&g, &[], &[2, 3], 10_000, 7, &obs);
    assert_eq!(
        failures,
        [
            sample_level(&g, 2, 10_000, 7),
            sample_level(&g, 3, 10_000, 7)
        ]
    );
    // One handle for the pass, counting the trials of every level.
    let lines = buf.lock().unwrap();
    assert!(
        lines.iter().all(|l| l.starts_with("monte-carlo 2 levels")),
        "{lines:?}"
    );
    assert!(
        lines.last().unwrap().contains("(20000/20000)"),
        "{:?}",
        lines.last()
    );
}

#[test]
fn worst_case_events_carry_exact_counts() {
    let g = generate_mirror(6).unwrap();
    let (events, buf) = EventSink::memory(EventFormat::Json);
    let obs = SimObserver::disabled().with_events(events);
    worst_case_search_observed(
        &g,
        &WorstCaseConfig {
            max_k: 2,
            collect_cap: 16,
            stop_at_first_failure: false,
        },
        &obs,
    );
    let lines = buf.lock().unwrap();
    assert_eq!(lines.len(), 2);
    let l2 = tornado_obs::json::parse(&lines[1]).unwrap();
    assert_eq!(l2.get("event"), Some(&Json::Str("worst_case_level".into())));
    assert_eq!(l2.get("k").unwrap().as_u64(), Some(2));
    assert_eq!(l2.get("cases").unwrap().as_u64(), Some(66));
    assert_eq!(l2.get("failures").unwrap().as_u64(), Some(6));
}
