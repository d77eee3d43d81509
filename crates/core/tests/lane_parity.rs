//! The Monte-Carlo suites against one-pattern-at-a-time oracles.
//!
//! `tornado_sim::monte_carlo::sample_levels_observed` — with or without an
//! already-missing base — reads every level of a trial off one failure
//! order, peeling a group of trials side by side through
//! `tornado_codec::LaneDecoder` and resuming each peel as the levels walk
//! down; so does `tornado_analysis::health`'s sampled rows, and its exact
//! rows and risk margins count every subset on the same lanes. The oracles
//! here draw the same per-trial orders (same stream, permutation and
//! draws) and call `ErasureDecoder::decode` once per (trial, level) prefix,
//! with the base prepended, or once per enumerated pattern: the failure
//! counts must be *equal* — same streams, same verdicts — not
//! statistically close. The same orders, retrieved back to front until
//! they decode, hold Plank's retrieve-until-decodable statistics to the
//! profile's.

use tornado_analysis::health::{conditional_failure_profile, risk_margin, ConditionalConfig};
use tornado_bitset::combinations::CombinationIter;
use tornado_codec::ErasureDecoder;
use tornado_core::{tornado_graph_1, tornado_graph_2, tornado_graph_3};
use tornado_gen::mirror::generate_mirror;
use tornado_gen::regular::generate_regular;
use tornado_graph::Graph;
use tornado_sim::monte_carlo::{sample_level, sample_levels_observed};
use tornado_sim::multi::FederatedSystem;
use tornado_sim::{monte_carlo_profile, MonteCarloConfig, SimObserver};

/// Trial `trial`'s stream, as the sampler draws it: SplitMix64 from a state
/// keyed by `(seed, trial)`, each draw mapped to `lo..hi` by a widening
/// multiply.
struct TrialStream(u64);

impl TrialStream {
    fn new(seed: u64, trial: u64) -> Self {
        Self(splitmix(seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    fn draw(&mut self, lo: usize, hi: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        lo + ((u128::from(splitmix(self.0)) * (hi - lo) as u128) >> 64) as usize
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each level of `ks`, one trial at a time: trial `t` draws its order of
/// the nodes outside `base` from its own stream, and each level's pattern
/// is `base` plus the order's `k`-prefix, decoded afresh.
fn scalar_sample_levels(
    graph: &Graph,
    base: &[usize],
    ks: &[usize],
    trials: u64,
    seed: u64,
) -> Vec<u64> {
    let mut dec = ErasureDecoder::new(graph);
    scalar_levels_by(graph.num_nodes(), base, ks, trials, seed, |pattern| {
        !dec.decode(pattern)
    })
}

/// [`scalar_sample_levels`] over `n` nodes, with `fails` as the verdict.
fn scalar_levels_by(
    n: usize,
    base: &[usize],
    ks: &[usize],
    trials: u64,
    seed: u64,
    mut fails: impl FnMut(&[usize]) -> bool,
) -> Vec<u64> {
    let mut in_base = vec![false; n];
    for &v in base {
        in_base[v] = true;
    }
    let rest: Vec<usize> = (0..n).filter(|&v| !in_base[v]).collect();
    let depth = ks.iter().copied().max().unwrap_or(0);
    let mut perm = rest.clone();
    let mut pattern = Vec::new();
    let mut failures = vec![0u64; ks.len()];
    for t in 0..trials {
        draw_order(&mut perm, &rest, seed, t, depth);
        for (count, &k) in failures.iter_mut().zip(ks) {
            pattern.clear();
            pattern.extend_from_slice(base);
            pattern.extend_from_slice(&perm[..k]);
            if fails(&pattern) {
                *count += 1;
            }
        }
    }
    failures
}

/// Trial `t`'s failure order as the sampler draws it: a partial
/// Fisher–Yates of `rest` to `depth` from the trial's stream, left in
/// `perm`'s prefix.
fn draw_order(perm: &mut [usize], rest: &[usize], seed: u64, t: u64, depth: usize) {
    let mut stream = TrialStream::new(seed, t);
    perm.copy_from_slice(rest);
    for i in 0..depth {
        let j = stream.draw(i, rest.len());
        perm.swap(i, j);
    }
}

/// Plank's retrieve-until-decodable count per trial, by the metric's own
/// prefix scan: trial `t` retrieves its whole failure order back to front
/// and, from the data-node count up, one block at a time, decodes with the
/// unretrieved rest missing until it succeeds.
fn scalar_blocks_to_reconstruct(graph: &Graph, trials: u64, seed: u64) -> Vec<usize> {
    let n = graph.num_nodes();
    let rest: Vec<usize> = (0..n).collect();
    let mut perm = rest.clone();
    let mut dec = ErasureDecoder::new(graph);
    (0..trials)
        .map(|t| {
            draw_order(&mut perm, &rest, seed, t, n);
            let order: Vec<usize> = perm.iter().rev().copied().collect();
            let mut got = graph.num_data();
            loop {
                assert!(got <= n, "full retrieval always reconstructs");
                let missing = &order[got..];
                if dec.decode(missing) {
                    break got;
                }
                got += 1;
            }
        })
        .collect()
}

/// `conditional_failure_profile`'s exact rows as they were: row 0 one
/// `decode` of `missing`, row `j` every `j`-subset of the rest in
/// lexicographic order.
fn scalar_exact_row(graph: &Graph, missing: &[usize], j: usize) -> u64 {
    let mut dec = ErasureDecoder::new(graph);
    if j == 0 {
        return !dec.decode(missing) as u64;
    }
    let remaining: Vec<usize> = (0..graph.num_nodes())
        .filter(|i| !missing.contains(i))
        .collect();
    let mut failures = 0u64;
    let mut scratch = missing.to_vec();
    let mut subsets = CombinationIter::new(remaining.len(), j);
    while let Some(idxs) = subsets.next_slice() {
        scratch.truncate(missing.len());
        scratch.extend(idxs.iter().map(|&i| remaining[i]));
        if !dec.decode(&scratch) {
            failures += 1;
        }
    }
    failures
}

/// `risk_margin` as it was: stop at the first failing pattern.
fn scalar_risk_margin(graph: &Graph, missing: &[usize], cap: usize) -> usize {
    let n = graph.num_nodes();
    let mut dec = ErasureDecoder::new(graph);
    if !dec.decode(missing) {
        return 0;
    }
    let remaining: Vec<usize> = (0..n).filter(|i| !missing.contains(i)).collect();
    let mut scratch = missing.to_vec();
    for j in 1..=cap.min(remaining.len()) {
        let mut subsets = CombinationIter::new(remaining.len(), j);
        while let Some(idxs) = subsets.next_slice() {
            scratch.truncate(missing.len());
            scratch.extend(idxs.iter().map(|&i| remaining[i]));
            if !dec.decode(&scratch) {
                return j;
            }
        }
    }
    cap.min(remaining.len()) + 1
}

/// Graph 1 at the given offline counts, one level at a time and all in one
/// pass, for (trials, seed) pairs on both sides of the lane-group seam:
/// 511, 512 and 513 trials, 63 (one partial group), 2,500 and 5,000 (full
/// groups and a partial one) and 4,097 (a one-trial last group).
fn assert_graph_1_levels_equal(ks: &[usize]) {
    let g = tornado_graph_1();
    let obs = SimObserver::disabled();
    for (trials, seed) in [
        (2_500u64, 1u64),
        (5_000, 9),
        (4_097, 3),
        (63, 5),
        (511, 2),
        (512, 4),
        (513, 6),
    ] {
        let expected = scalar_sample_levels(&g, &[], ks, trials, seed);
        assert_eq!(
            sample_levels_observed(&g, &[], ks, trials, seed, &obs),
            expected,
            "{trials} trials, seed {seed}"
        );
        for (&k, &count) in ks.iter().zip(&expected) {
            assert_eq!(
                sample_level(&g, k, trials, seed),
                count,
                "k = {k} alone, {trials} trials, seed {seed}"
            );
        }
    }
}

#[test]
fn sample_level_equals_the_scalar_loop_on_graph_1() {
    // The ends of the range, the first failure (5) and its neighbour, and
    // the steep part of the profile; every k is the ignored test below.
    assert_graph_1_levels_equal(&[1, 4, 5, 16, 24, 47, 48, 96]);
}

/// 13,196 trials × 96 levels through both loops, each level also sampled
/// alone: too slow unoptimised, so it runs with the catalogue
/// certification.
#[test]
#[ignore = "every k = 1..=96 at seven trial counts; run with --ignored --release"]
fn sample_level_equals_the_scalar_loop_on_graph_1_at_every_k() {
    assert_graph_1_levels_equal(&(1..=96).collect::<Vec<_>>());
}

#[test]
fn a_shuffled_pass_with_duplicates_on_a_base_equals_the_scalar_loop() {
    // Levels out of order and repeated, on a degraded fleet: each row is
    // its level's, whatever else the pass holds.
    let g = tornado_graph_1();
    let base = [7, 29, 55, 88];
    let ks = [30, 6, 48, 0, 30, 17, 92, 6];
    let got = sample_levels_observed(&g, &base, &ks, 1_100, 8, &SimObserver::disabled());
    assert_eq!(got, scalar_sample_levels(&g, &base, &ks, 1_100, 8));
    assert!(got[0] > 0 && got[0] < 1_100, "a level with both verdicts");
}

#[test]
fn a_restarted_lane_re_marks_its_base_as_well_as_its_prefix() {
    // Each lane bisects for its trial's first failing level: a decoding
    // probe moves up and reloads its lane over the settled state, where a
    // peel may have rebuilt a node of the base. Forty levels on a degraded
    // fleet restart lanes in every round; a restart that reloaded only the
    // order's prefix read decoding trials here.
    let g = tornado_graph_1();
    let base = [3, 17, 84];
    let ks: Vec<usize> = (1..=40).collect();
    let obs = SimObserver::disabled();
    let got = sample_levels_observed(&g, &base, &ks, 1_100, 9, &obs);
    assert_eq!(got, scalar_sample_levels(&g, &base, &ks, 1_100, 9));
    for (&k, &row) in ks.iter().zip(&got) {
        assert_eq!(
            sample_levels_observed(&g, &base, &[k], 1_100, 9, &obs),
            [row],
            "k = {k} alone"
        );
    }
    assert!(got[0] < 1_100 && got[39] > 0, "both verdicts: {got:?}");
}

#[test]
fn edge_level_sets_equal_the_scalar_loop() {
    // One level, nothing lost beyond the base, every node outside it lost,
    // levels out of order and repeated, on both sides of the group seam.
    let g = tornado_graph_1();
    let obs = SimObserver::disabled();
    for base in [&[][..], &[3, 17, 84]] {
        let all = g.num_nodes() - base.len();
        for ks in [
            vec![24],
            vec![0],
            vec![all],
            vec![0, all],
            vec![all, 12, 0, 5, 12, 47, 5, all],
        ] {
            for (trials, seed) in [(511u64, 2u64), (512, 4), (513, 6)] {
                assert_eq!(
                    sample_levels_observed(&g, base, &ks, trials, seed, &obs),
                    scalar_sample_levels(&g, base, &ks, trials, seed),
                    "base {base:?}, ks {ks:?}, {trials} trials"
                );
            }
        }
    }
}

#[test]
fn sample_level_equals_the_scalar_loop_on_other_graphs() {
    let (g2, g3) = (tornado_graph_2(), tornado_graph_3());
    let federation = FederatedSystem::new(&tornado_graph_1(), &g2);
    assert_eq!(federation.graph().num_nodes(), 192);
    let ks = [5usize, 24, 48];
    for g in [&g2, &g3, federation.graph()] {
        assert_eq!(
            sample_levels_observed(g, &[], &ks, 5_000, 7, &SimObserver::disabled()),
            scalar_sample_levels(g, &[], &ks, 5_000, 7),
            "{} nodes",
            g.num_nodes()
        );
    }
}

/// Building a 65,538-node graph's parity rows takes ~1.5 GB and ~10 s
/// unoptimised, so it runs with the catalogue certification.
#[test]
#[ignore = "a 65,538-node graph; run with --ignored --release"]
fn a_graph_above_65536_nodes_equals_the_scalar_loop() {
    // 32,769 mirrored pairs, too many nodes for `u16` ids. Data node `d`
    // is lost when it and its copy `32,769 + d` both are, so the verdict
    // needs no decode of a 65,538-node pattern. With data nodes 0..3,000
    // down, a trial fails when its order reaches one of their copies.
    let data = 32_769;
    let g = generate_mirror(data).unwrap();
    assert_eq!(g.num_nodes(), 65_538);
    let base: Vec<usize> = (0..3_000).collect();
    let ks = [2, 0, 1];
    let mut missing = vec![false; g.num_nodes()];
    let expected = scalar_levels_by(g.num_nodes(), &base, &ks, 513, 6, |pattern| {
        pattern.iter().for_each(|&v| missing[v] = true);
        let lost = pattern.iter().any(|&v| v < data && missing[data + v]);
        pattern.iter().for_each(|&v| missing[v] = false);
        lost
    });
    let got = sample_levels_observed(&g, &base, &ks, 513, 6, &SimObserver::disabled());
    assert_eq!(got, expected);
    assert!(
        got[2] > 0 && got[0] < 513,
        "a level with both verdicts: {got:?}"
    );
}

#[test]
fn plank_statistics_are_read_off_one_pass() {
    // A trial needs as many blocks as it has failing levels, so over one
    // pass of every level the per-trial counts of the retrieval loop are
    // read off the rows: their histogram is the rows' first differences,
    // their mean the success-threshold mean, their extremes the range.
    let regular = generate_regular(24, 3, 3).unwrap();
    for g in [&tornado_graph_1(), &regular] {
        let n = g.num_nodes();
        for (trials, seed) in [(511u64, 2u64), (512, 4), (513, 6)] {
            let blocks = scalar_blocks_to_reconstruct(g, trials, seed);
            let profile = monte_carlo_profile(
                g,
                &MonteCarloConfig {
                    trials_per_k: trials,
                    seed,
                    ks: None,
                },
            );
            let context = format!("{n} nodes, {trials} trials, seed {seed}");
            let mut histogram = vec![0u64; n + 1];
            for &b in &blocks {
                histogram[b] += 1;
            }
            let mut differences = vec![0u64; n + 1];
            for k in 1..=n {
                differences[n - k + 1] = profile.entry(k).failures - profile.entry(k - 1).failures;
            }
            assert_eq!(histogram, differences, "{context}");
            let mean = blocks.iter().sum::<usize>() as f64 / trials as f64;
            let average = profile.average_nodes_to_reconstruct();
            assert!(
                (mean - average).abs() < 1e-9,
                "{mean} vs {average}, {context}"
            );
            let (lo, hi) = (blocks.iter().min(), blocks.iter().max());
            assert_eq!(
                profile.nodes_to_reconstruct_range(),
                Some(*lo.unwrap()..=*hi.unwrap()),
                "{context}"
            );
            assert!(lo < hi, "a spread of counts: {context}");
        }
    }
}

#[test]
fn sample_level_equals_the_scalar_loop_at_every_thread_count() {
    // Twenty groups, so two and five workers split them differently.
    let g = tornado_graph_1();
    let expected = scalar_sample_levels(&g, &[], &[30], 10_000, 42)[0];
    assert!(
        expected > 0 && expected < 10_000,
        "a level with both verdicts"
    );
    for threads in [1usize, 2, 5] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| sample_level(&g, 30, 10_000, 42));
        assert_eq!(got, expected, "{threads} threads");
    }
}

#[test]
fn sampled_conditional_rows_equal_the_scalar_loop() {
    // Graph 1 with four devices down loses nothing to eight more in a few
    // thousand trials, so its rows go on to where both verdicts occur.
    // 4,100 trials end in a partial lane group and keep row 2 (C(92, 2) =
    // 4,186 patterns) sampled; on the regular graph rows from 3 on are
    // sampled.
    let regular = generate_regular(24, 3, 3).unwrap();
    let cases: [(&Graph, &[usize], u64, &[usize]); 2] = [
        (
            &tornado_graph_1(),
            &[7, 29, 55, 88],
            4_100,
            &[2, 3, 4, 5, 6, 7, 8, 16, 24, 32],
        ),
        (&regular, &[1, 7], 2_000, &[3, 4, 5, 6, 7, 8]),
    ];
    for (g, missing, trials, js) in cases {
        let cfg = ConditionalConfig {
            trials_per_k: trials,
            seed: 42,
            max_k: *js.last().unwrap(),
        };
        let profile = conditional_failure_profile(g, missing, &cfg);
        let last = profile.entry(cfg.max_k);
        assert!(
            0 < last.failures && last.failures < trials,
            "both verdicts occur: {last:?}"
        );
        let expected = scalar_sample_levels(g, missing, js, trials, cfg.seed);
        for (&j, &count) in js.iter().zip(&expected) {
            let row = profile.entry(j);
            assert!(!row.exact && row.trials == trials, "j = {j}: {row:?}");
            assert_eq!(
                row.failures,
                count,
                "{} nodes, missing {missing:?}, j = {j}",
                g.num_nodes()
            );
        }
    }
}

#[test]
fn exact_rows_and_risk_margins_equal_the_scalar_enumeration() {
    // Graph 1 with 0, 2, 4 and 6 devices down, each seen from three stripe
    // rotations (a rotation shifts which nodes the devices hold). Rotation
    // 63 of the six-device set, nodes [14, 27, 38, 45, 73, 74], is a class
    // two losses from failing; every other case is past the cap of 2.
    let g = tornado_graph_1();
    let n = g.num_nodes();
    let cfg = ConditionalConfig {
        trials_per_k: 5_000,
        seed: 1,
        max_k: 2,
    };
    let mut margins = Vec::new();
    for devices in [
        &[][..],
        &[3, 17],
        &[7, 29, 55, 88],
        &[5, 12, 40, 41, 77, 90],
    ] {
        for rotation in [0, 41, 63] {
            let mut missing: Vec<usize> = devices.iter().map(|&d| (d + n - rotation) % n).collect();
            missing.sort_unstable();
            // A healthy fleet samples every row, as the offline profile does.
            if !missing.is_empty() {
                let profile = conditional_failure_profile(&g, &missing, &cfg);
                for j in 0..=cfg.max_k {
                    let row = profile.entry(j);
                    assert!(
                        row.exact,
                        "missing {missing:?}, row {j} is enumerable: {row:?}"
                    );
                    assert_eq!(
                        row.failures,
                        scalar_exact_row(&g, &missing, j),
                        "missing {missing:?}, row {j}"
                    );
                }
            }
            let margin = risk_margin(&g, &missing, 2);
            assert_eq!(
                margin,
                scalar_risk_margin(&g, &missing, 2),
                "missing {missing:?}"
            );
            margins.push(margin);
        }
    }
    assert!(
        margins.contains(&2) && margins.contains(&3),
        "both an exact and a capped margin: {margins:?}"
    );
}
