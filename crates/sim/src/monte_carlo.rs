//! Monte-Carlo reconstruction-failure sampling (paper §3).
//!
//! "The combinatorial expansion between (96 choose 1) and (96 choose 48) is
//! not computationally tractable, so we test a subset of random failure
//! cases for each number of lost devices." Each trial draws a uniform
//! `k`-subset of nodes, takes it offline, and records whether the peeling
//! decoder reconstructs all data.
//!
//! Sampling is deterministic in the configuration seed: trials are split
//! into fixed-size batches, each seeded by `(seed, k, batch)`, so results
//! are reproducible regardless of thread scheduling. Every requested level
//! is sampled in one parallel pass over its (level, batch) units, so a
//! profile pays for one parallel call, one decoder and one scratch per
//! worker instead of one of each per level. A level may start from an
//! already-missing `base` (a degraded fleet, for the live durability
//! model): the subset is then drawn from the other nodes.
//!
//! Random patterns share no prefix, so the trials are decided side by
//! side instead: a worker draws a group of `k`-subsets, loads one into each
//! bit lane of a [`LaneDecoder`] and peels the whole group in one run
//! (`tornado_codec::lanes`). What remains of a trial is mostly drawing its
//! subset: on one core of a 2-vCPU VM (Intel Xeon), catalog graph 1 at
//! 2,500 trials a level over k = 5..=48 — `bench_budget`'s `profile`, one
//! batch a level — averages ~80 ns a trial (12.4 M trials/s, median of ten
//! runs; 11.4 M when each level paid its own parallel call), and the
//! paper's 962 M cases per graph — 34 CPU-days in 2006 — take 100 s.

use crate::obs::SimObserver;
use crate::profile::FailureProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use tornado_codec::LaneDecoder;
use tornado_graph::Graph;
use tornado_obs::Json;

/// Configuration for Monte-Carlo profiling.
#[derive(Clone, Debug)]
pub struct MonteCarloConfig {
    /// Trials per offline-count `k`. The paper ran 10–34 M per point, a
    /// second or two each here (see the module docs); the default keeps a
    /// whole 96-level profile to ~0.3 s of one core (~0.23 s on two) and is
    /// statistically adequate for the profile *shape*.
    pub trials_per_k: u64,
    /// Master seed.
    pub seed: u64,
    /// Offline counts to sample; `None` means every `k` in `1..=n`.
    pub ks: Option<Vec<usize>>,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            trials_per_k: 20_000,
            seed: 0x7042_6F72_6E61_646F,
            ks: None,
        }
    }
}

/// Trials per parallel batch (also the granularity of deterministic
/// seeding).
const BATCH: u64 = 4096;

/// Estimates `P(fail | k offline)` for each requested `k` by uniform
/// sampling, returning a [`FailureProfile`] with sampled rows.
pub fn monte_carlo_profile(graph: &Graph, cfg: &MonteCarloConfig) -> FailureProfile {
    monte_carlo_profile_observed(graph, cfg, &SimObserver::disabled())
}

/// [`monte_carlo_profile`] with progress, per-level completion events, and
/// decode-kernel metrics reported through `obs`. Failure counts are
/// identical to the unobserved run (the sampling streams are untouched).
pub fn monte_carlo_profile_observed(
    graph: &Graph,
    cfg: &MonteCarloConfig,
    obs: &SimObserver,
) -> FailureProfile {
    let n = graph.num_nodes();
    let ks: Vec<usize> = match &cfg.ks {
        Some(ks) => ks.clone(),
        None => (1..=n).collect(),
    };
    let counts = sample_levels_observed(graph, &[], &ks, cfg.trials_per_k, cfg.seed, obs);
    let mut profile = FailureProfile::new(n);
    for (&k, failures) in ks.iter().zip(counts) {
        let fraction = if cfg.trials_per_k > 0 {
            failures as f64 / cfg.trials_per_k as f64
        } else {
            0.0
        };
        obs.events.emit(
            "monte_carlo_level",
            &[
                ("k", Json::U64(k as u64)),
                ("trials", Json::U64(cfg.trials_per_k)),
                ("failures", Json::U64(failures)),
                ("fraction", Json::F64(fraction)),
            ],
        );
        profile.record(k, cfg.trials_per_k, failures, false);
    }
    profile
}

/// Samples one `k` level; returns the failure count.
pub fn sample_level(graph: &Graph, k: usize, trials: u64, seed: u64) -> u64 {
    sample_levels_observed(graph, &[], &[k], trials, seed, &SimObserver::disabled())[0]
}

/// Samples every level of `ks` on top of an already-missing `base` in one
/// parallel pass, with progress and decode-kernel metrics reported through
/// `obs`; returns each level's failure count, in `ks` order. Each trial
/// loses `base` (marked in every lane) plus a uniform `k`-subset of the
/// other nodes. With `base = ∅` a level's count is [`sample_level`]'s
/// exactly; the per-batch reseeding makes every count independent of the
/// other levels in the pass, of observation and of thread count.
///
/// # Panics
/// Panics if a `base` node is out of range or repeated, or if a `k`
/// exceeds the nodes outside `base`.
pub fn sample_levels_observed(
    graph: &Graph,
    base: &[usize],
    ks: &[usize],
    trials: u64,
    seed: u64,
    obs: &SimObserver,
) -> Vec<u64> {
    let rest = complement(graph.num_nodes(), base);
    for &k in ks {
        assert!(k <= rest.len(), "k = {k} exceeds {} nodes", rest.len());
    }
    let batches = trials.div_ceil(BATCH);
    let progress = obs.progress.start(
        format!("monte-carlo {} levels", ks.len()),
        trials.saturating_mul(ks.len() as u64),
    );
    let record = obs.metrics.is_some();
    // One unit is one batch of one level, level-major, so the work of the
    // whole pass is split once over the workers.
    let counts: Vec<(usize, u64)> = (0..ks.len() as u64 * batches)
        .into_par_iter()
        .map_init(
            // Lane state and permutation scratch are per worker thread,
            // reused across every unit that lands on it.
            || {
                let mut lanes = LaneDecoder::new(graph);
                lanes.set_recording(record);
                (lanes, rest.clone())
            },
            |(lanes, perm), unit| {
                let (level, batch) = ((unit / batches) as usize, unit % batches);
                let k = ks[level];
                // Determinism lives in the per-batch reseed, not in which
                // worker runs the batch — but the hoisted permutation must
                // restart from `rest` or the k-subset drawn would depend
                // on the units this worker saw before.
                let mut rng = SmallRng::seed_from_u64(mix(seed, k as u64, batch));
                perm.copy_from_slice(&rest);
                let count = BATCH.min(trials - batch * BATCH);
                // Resliced so pointer and length stay in registers: through
                // the `&mut Vec` every swap's store forces their reload.
                let perm = &mut perm[..];
                let n = perm.len();
                let mut failures = 0u64;
                let mut left = count as usize;
                while left > 0 {
                    // One trial per lane; a short last group's other lanes
                    // hold only the base, and `run` does not count them.
                    let group = left.min(LaneDecoder::LANES);
                    lanes.load_all(base);
                    for lane in 0..group {
                        // Partial Fisher–Yates of the first k slots yields a
                        // uniform k-subset each trial.
                        for i in 0..k {
                            let j = rng.gen_range(i..n);
                            perm.swap(i, j);
                        }
                        lanes.load(lane, &perm[..k]);
                    }
                    failures += lanes.run(group);
                    left -= group;
                }
                progress.add(count);
                if let Some(metrics) = &obs.metrics {
                    metrics.absorb(&lanes.take_cells());
                }
                (level, failures)
            },
        )
        .collect();
    progress.finish();
    let mut failures = vec![0; ks.len()];
    for (level, count) in counts {
        failures[level] += count;
    }
    failures
}

/// The nodes of `0..n` outside `base`, ascending.
///
/// # Panics
/// Panics if a `base` node is out of range or repeated.
pub fn complement(n: usize, base: &[usize]) -> Vec<usize> {
    let mut in_base = vec![false; n];
    for &v in base {
        assert!(v < n, "missing node {v} out of range ({n} nodes)");
        assert!(!in_base[v], "missing node {v} repeated");
        in_base[v] = true;
    }
    (0..n).filter(|&v| !in_base[v]).collect()
}

/// SplitMix64-style seed mixing so nearby `(seed, k, batch)` triples give
/// unrelated streams.
fn mix(seed: u64, k: u64, batch: u64) -> u64 {
    let mut z =
        seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ batch.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::regular::generate_regular;

    #[test]
    fn zero_k_never_fails() {
        let g = generate_mirror(4).unwrap();
        assert_eq!(sample_level(&g, 0, 1000, 1), 0);
    }

    #[test]
    fn losing_everything_always_fails() {
        let g = generate_mirror(4).unwrap();
        let trials = 500;
        assert_eq!(sample_level(&g, 8, trials, 1), trials);
    }

    #[test]
    #[should_panic(expected = "k = 9 exceeds 8 nodes")]
    fn more_losses_than_nodes_is_refused_up_front() {
        let g = generate_mirror(4).unwrap();
        sample_level(&g, 9, 10, 1);
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let g = generate_regular(12, 3, 1).unwrap();
        let a = sample_level(&g, 8, 10_000, 42);
        let b = sample_level(&g, 8, 10_000, 42);
        let c = sample_level(&g, 8, 10_000, 43);
        assert_eq!(a, b);
        // Different seeds could coincide, but with 10k trials it is
        // overwhelmingly unlikely the counts match exactly.
        assert_ne!(a, c);
    }

    #[test]
    fn failure_counts_are_pinned() {
        // The counts the counter-per-check kernel produced for these
        // (graph, k, trials, seed): the sampling streams and every verdict
        // are unchanged by how the kernel represents a pattern.
        let regular = generate_regular(12, 3, 1).unwrap();
        assert_eq!(sample_level(&regular, 8, 10_000, 42), 1077);
        assert_eq!(sample_level(&regular, 5, 10_000, 7), 78);
        let mirror = generate_mirror(8).unwrap();
        assert_eq!(sample_level(&mirror, 4, 10_000, 11), 3792);
    }

    #[test]
    fn sampling_is_deterministic_across_thread_counts() {
        // The hoisted per-worker scratch must not let results depend on
        // which units a worker happens to execute, nor a level's row on
        // the other levels sampled in the same pass.
        let g = generate_regular(12, 3, 1).unwrap();
        let ks = [8, 3, 12, 0, 5];
        let rows: Vec<u64> = ks
            .iter()
            .map(|&k| sample_level(&g, k, 10_000, 42))
            .collect();
        // A degraded fleet: the pass and each level alone on the same base.
        let base = [4, 9];
        let degraded: Vec<u64> = ks[..3]
            .iter()
            .map(|&k| {
                sample_levels_observed(&g, &base, &[k], 10_000, 42, &SimObserver::disabled())[0]
            })
            .collect();
        for threads in [1usize, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (pass, degraded_pass, alone) = pool.install(|| {
                let obs = SimObserver::disabled();
                (
                    sample_levels_observed(&g, &[], &ks, 10_000, 42, &obs),
                    sample_levels_observed(&g, &base, &ks[..3], 10_000, 42, &obs),
                    sample_level(&g, 8, 10_000, 42),
                )
            });
            assert_eq!(pass, rows, "thread count {threads} changed a row");
            assert_eq!(
                degraded_pass, degraded,
                "thread count {threads}, base {base:?}"
            );
            assert_eq!(alone, rows[0], "thread count {threads} changed the count");
        }
    }

    #[test]
    fn mirror_sampled_fraction_matches_exact_combinatorics() {
        // 4 pairs (8 nodes), k = 2: P(fail) = 4 / C(8,2) = 1/7.
        let g = generate_mirror(4).unwrap();
        let trials = 200_000u64;
        let failures = sample_level(&g, 2, trials, 7);
        let p = failures as f64 / trials as f64;
        let expected = 1.0 / 7.0;
        // Three-sigma band for a Bernoulli estimate.
        let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
        assert!(
            (p - expected).abs() < 4.0 * sigma,
            "sampled {p} vs exact {expected} (sigma {sigma})"
        );
    }

    #[test]
    fn profile_rows_are_sampled_not_exact() {
        let g = generate_mirror(4).unwrap();
        let cfg = MonteCarloConfig {
            trials_per_k: 500,
            seed: 5,
            ks: Some(vec![2, 3]),
        };
        let p = monte_carlo_profile(&g, &cfg);
        assert!(!p.entry(2).exact);
        assert_eq!(p.entry(2).trials, 500);
        assert_eq!(p.entry(4).trials, 0, "unrequested k untouched");
    }

    #[test]
    fn fraction_is_monotone_in_k_for_mirrors() {
        // More losses ⇒ higher failure fraction (statistically).
        let g = generate_mirror(8).unwrap();
        let cfg = MonteCarloConfig {
            trials_per_k: 20_000,
            seed: 11,
            ks: None,
        };
        let p = monte_carlo_profile(&g, &cfg);
        let f4 = p.entry(4).fraction();
        let f8 = p.entry(8).fraction();
        let f12 = p.entry(12).fraction();
        assert!(f4 < f8 && f8 < f12, "{f4} {f8} {f12}");
    }
}
