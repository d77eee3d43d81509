//! Monte-Carlo reconstruction-failure sampling (paper §3).
//!
//! "The combinatorial expansion between (96 choose 1) and (96 choose 48) is
//! not computationally tractable, so we test a subset of random failure
//! cases for each number of lost devices." Each trial draws a uniform
//! `k`-subset of nodes, takes it offline, and records whether the peeling
//! decoder reconstructs all data.
//!
//! A failing erasure set stays failing when more nodes are lost, so one
//! random *failure order* answers every level at once (the Newman–Ziff
//! idea from percolation): trial `t` draws an order of the nodes by a
//! partial Fisher–Yates from a stream keyed by `(seed, t)` alone, and its
//! `k`-prefix is a uniform `k`-subset for every `k`. A level's row is
//! therefore the same sampled alone or beside any others, on any thread
//! count, observed or not; the rows of one pass share their trials, so
//! they are positively correlated and never decrease in `k`. A level may
//! start from an already-missing `base` (a degraded fleet, for the live
//! durability model): the order is then drawn from the other nodes.
//!
//! Trials are decided side by side, a [`LaneDecoder`] group of up to 512
//! at a time (`tornado_codec::lanes`). A trial's verdicts form a threshold
//! over the sorted distinct levels — it decodes below its first failing
//! level and fails from there up — so each lane bisects for its own: every
//! round, each lane still bracketing its threshold probes the middle level
//! of its bracket, and the group settles once. A failing probe moves the
//! lane down: it un-erases the tail of its order and the peel resumes from
//! the last fixpoint (un-erasing only adds known nodes and peeling is a
//! monotone closure, so the resumed fixpoint is the fresh one). A decoding
//! probe moves it up: the lane re-marks the base and the longer prefix over
//! its settled state, which misses a subset of them, so it holds exactly
//! the fresh pattern — the base too, since a peel may have rebuilt a base
//! node. Every verdict is `ErasureDecoder::decode`'s, and a group of `m`
//! distinct levels settles ⌈log₂(m + 1)⌉ times instead of `m`. A trial
//! draws `max(ks)` nodes instead of `Σ ks`: on one core of a 2-vCPU VM
//! (Intel Xeon), catalog graph 1 at 2,500 trials a level over k = 5..=48 —
//! `bench_budget`'s `profile`, 6 settles a group — costs ~7.4 ns a (trial,
//! level) verdict, so the paper's 962 M cases per graph — 34 CPU-days in
//! 2006 — would take ~7 s.

use crate::obs::SimObserver;
use crate::profile::FailureProfile;
use rayon::prelude::*;
use tornado_codec::metrics::cells;
use tornado_codec::LaneDecoder;
use tornado_graph::Graph;
use tornado_obs::Json;

/// Configuration for Monte-Carlo profiling.
#[derive(Clone, Debug)]
pub struct MonteCarloConfig {
    /// Trials per offline-count `k`; every level is read off the same
    /// trials' failure orders. The paper ran 10–34 M per point, well under
    /// a second each here (see the module docs); the default keeps a whole
    /// 96-level profile to ~20 ms of one core (~13–16 ms on two), the
    /// `tornado monte-carlo` run included, and is statistically adequate
    /// for the profile *shape*.
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

/// Estimates `P(fail | k offline)` for each requested `k` by uniform
/// sampling, returning a [`FailureProfile`] with sampled rows.
pub fn monte_carlo_profile(graph: &Graph, cfg: &MonteCarloConfig) -> FailureProfile {
    monte_carlo_profile_observed(graph, cfg, &SimObserver::disabled())
}

/// [`monte_carlo_profile`] with progress, per-level completion events, and
/// decode-kernel metrics reported through `obs`. Failure counts are
/// identical to the unobserved run (the sampling streams are untouched).
/// `decode.trials` counts one per (trial, level) verdict and
/// `decode.failures` the failing ones, however many probes the bisection
/// settled; `decode.recoveries` counts the nodes rebuilt by the peels that
/// ran (a lane group settles once a probe round).
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
/// `obs`; returns each level's failure count, in `ks` order. Trial `t`
/// loses `base` (marked in every lane) plus the `k`-prefix of one uniform
/// order of the other nodes, drawn from a stream keyed by `(seed, t)`. With
/// `base = ∅` a level's count is [`sample_level`]'s exactly; a count is
/// independent of the other levels in the pass (any order, duplicates
/// allowed), of observation and of thread count, and never decreases in
/// `k`.
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
    // Node ids as `u16` where they fit: a worker's orders are 48 KiB for
    // graph 1's k = 5..=48 profile, a quarter of what `usize` ids take.
    if graph.num_nodes() <= 1 << 16 {
        sample_levels_as::<u16>(graph, base, ks, trials, seed, obs)
    } else {
        sample_levels_as::<usize>(graph, base, ks, trials, seed, obs)
    }
}

/// [`sample_levels_observed`] with the orders kept as `Id` node ids; the
/// rows do not depend on `Id`.
fn sample_levels_as<Id>(
    graph: &Graph,
    base: &[usize],
    ks: &[usize],
    trials: u64,
    seed: u64,
    obs: &SimObserver,
) -> Vec<u64>
where
    Id: Copy + Default + Into<usize> + TryFrom<usize> + Send + Sync,
{
    let rest: Vec<Id> = complement(graph.num_nodes(), base)
        .into_iter()
        .map(|v| {
            Id::try_from(v).unwrap_or_else(|_| unreachable!("node {v} does not fit the id width"))
        })
        .collect();
    for &k in ks {
        assert!(k <= rest.len(), "k = {k} exceeds {} nodes", rest.len());
    }
    // The distinct levels, ascending: a lane bisects over their indices.
    let mut levels = ks.to_vec();
    levels.sort_unstable();
    levels.dedup();
    let depth = levels.last().copied().unwrap_or(0);
    let lanes_per_group = LaneDecoder::LANES as u64;
    let progress = obs.progress.start(
        format!("monte-carlo {} levels", ks.len()),
        trials.saturating_mul(ks.len() as u64),
    );
    let record = obs.metrics.is_some();
    // One unit is one lane group of trials at every level, so units are
    // alike and the pass is split once over the workers.
    let thresholds: Vec<Vec<u16>> = (0..trials.div_ceil(lanes_per_group))
        .into_par_iter()
        .map_init(
            // Lane state, permutation and order scratch are per worker
            // thread, reused across every unit that lands on it.
            || {
                let mut lanes = LaneDecoder::new(graph);
                lanes.set_recording(record);
                let orders = vec![Id::default(); LaneDecoder::LANES * depth];
                (lanes, rest.clone(), orders)
            },
            |(lanes, perm, orders), unit| {
                let first = unit * lanes_per_group;
                let group = lanes_per_group.min(trials - first) as usize;
                // Resliced so pointer and length stay in registers: through
                // the `&mut Vec` every swap's store forces their reload.
                let perm = &mut perm[..];
                let n = perm.len();
                for lane in 0..group {
                    // Determinism lives in the per-trial stream; the
                    // permutation restarts from `rest` so the order drawn
                    // does not depend on the trials drawn before it. (Undoing
                    // the `depth` swaps instead of this copy measured slower
                    // on graph 1 at every depth, k = 5 included.)
                    let mut stream = TrialStream::new(seed, first + lane as u64);
                    perm.copy_from_slice(&rest);
                    // Partial Fisher–Yates: slot i is final after step i, so
                    // every prefix is a uniform subset, whatever the depth.
                    let order = &mut orders[lane * depth..][..depth];
                    for (i, slot) in order.iter_mut().enumerate() {
                        let j = stream.draw(i, n);
                        perm.swap(i, j);
                        *slot = perm[i];
                    }
                }
                // A short last group's other lanes hold only the base, and
                // `settle` does not count them.
                lanes.load_all(base);
                let mut brackets = vec![Bracket::new(levels.len()); group];
                loop {
                    let mut open = false;
                    for (lane, b) in brackets.iter_mut().enumerate() {
                        let Some(probe) = b.probe() else { continue };
                        open = true;
                        let order = &orders[lane * depth..][..depth];
                        let k = levels[probe];
                        if k < b.loaded {
                            // Down from a failing probe: the peel resumes.
                            lanes.unload(lane, &order[k..b.loaded]);
                        } else {
                            // Up from a decoding one (or the first probe), a
                            // restart: every node the lane misses is in the
                            // base or the loaded prefix, so marking the base
                            // and the longer prefix leaves exactly the fresh
                            // pattern, base nodes a peel rebuilt included.
                            lanes.load(lane, base);
                            lanes.load(lane, &order[..k]);
                        }
                        b.loaded = k;
                    }
                    if !open {
                        break;
                    }
                    lanes.settle(group);
                    for (lane, b) in brackets.iter_mut().enumerate() {
                        b.narrow(lanes.failed(lane));
                    }
                }
                lanes.clear();
                // At most `LANES` trials a threshold, so `u16` holds a count.
                let mut first_fail = vec![0u16; levels.len() + 1];
                for b in &brackets {
                    first_fail[b.lo] += 1;
                }
                progress.add(group as u64 * ks.len() as u64);
                if let Some(metrics) = &obs.metrics {
                    // `settle` counted each probe; a verdict is one (trial,
                    // level), and the failures are the rows'.
                    let mut drained = lanes.take_cells();
                    drained[cells::TRIALS] = group as u64 * ks.len() as u64;
                    drained[cells::FAILURES] = rows(&levels, &first_fail, ks).iter().sum();
                    metrics.absorb(&drained);
                }
                first_fail
            },
        )
        .collect();
    progress.finish();
    let mut first_fail = vec![0u64; levels.len() + 1];
    for group in thresholds {
        for (total, count) in first_fail.iter_mut().zip(group) {
            *total += u64::from(count);
        }
    }
    rows(&levels, &first_fail, ks)
}

/// One lane's bisection for its trial's threshold: the index into the
/// ascending levels of the first one its order fails at, or the level
/// count if it decodes at every one. Verdicts never improve as `k` grows,
/// so the threshold lies in `lo..=hi`.
#[derive(Clone, Copy)]
struct Bracket {
    lo: usize,
    hi: usize,
    /// The order prefix the lane holds (beside the base).
    loaded: usize,
}

impl Bracket {
    fn new(levels: usize) -> Self {
        Self {
            lo: 0,
            hi: levels,
            loaded: 0,
        }
    }

    /// The level index to settle next, or `None` once the threshold is
    /// known.
    fn probe(&self) -> Option<usize> {
        (self.lo < self.hi).then(|| (self.lo + self.hi) / 2)
    }

    /// Takes the verdict at [`Bracket::probe`]'s level.
    fn narrow(&mut self, failed: bool) {
        if let Some(mid) = self.probe() {
            if failed {
                self.hi = mid;
            } else {
                self.lo = mid + 1;
            }
        }
    }
}

/// Each level of `ks`'s failure count, given how many trials first fail at
/// each of the ascending `levels` (`first_fail[levels.len()]`: those that
/// never fail): a trial fails at its threshold and every level above.
fn rows<T: Copy + Into<u64>>(levels: &[usize], first_fail: &[T], ks: &[usize]) -> Vec<u64> {
    let failing: Vec<u64> = first_fail
        .iter()
        .scan(0, |sum, &count| {
            *sum += count.into();
            Some(*sum)
        })
        .collect();
    ks.iter()
        .map(|k| failing[levels.binary_search(k).expect("every k is a level")])
        .collect()
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

/// One trial's random stream: SplitMix64 started from a state keyed by
/// `(seed, trial)` alone. Each draw hashes its own counter value, so the
/// draws of a Fisher–Yates do not wait on one another the way a
/// generator's serial state update makes them: on graph 1 a 48-node order
/// took ~370 ns from a freshly seeded xoshiro256++ (`SmallRng`) and ~110–
/// 150 ns from this stream, on one core of a 2-vCPU VM (Intel Xeon).
struct TrialStream(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl TrialStream {
    fn new(seed: u64, trial: u64) -> Self {
        Self(splitmix(seed ^ trial.wrapping_mul(GOLDEN)))
    }

    /// Uniform in `lo..hi` by a 128-bit widening multiply, like the
    /// vendored `gen_range` (relative bias below span / 2⁶⁴: under 2⁻⁴⁸ up
    /// to 65,536 nodes).
    #[inline]
    fn draw(&mut self, lo: usize, hi: usize) -> usize {
        self.0 = self.0.wrapping_add(GOLDEN);
        let x = u128::from(splitmix(self.0));
        lo + ((x * (hi - lo) as u128) >> 64) as usize
    }
}

/// The SplitMix64 finaliser: nearby inputs give unrelated outputs.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worst_case::search_level;
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
        // The counts `crates/core/tests/lane_parity.rs`'s one-`decode`-per-
        // (trial, level) oracle gives for these (graph, k, trials, seed): the
        // per-trial streams and every verdict are part of the contract.
        let regular = generate_regular(12, 3, 1).unwrap();
        assert_eq!(sample_level(&regular, 8, 10_000, 42), 1098);
        assert_eq!(sample_level(&regular, 5, 10_000, 7), 76);
        let mirror = generate_mirror(8).unwrap();
        assert_eq!(sample_level(&mirror, 4, 10_000, 11), 3844);
    }

    #[test]
    fn rows_never_decrease_in_k() {
        // Every level reads the same trials' orders, and a failing set
        // stays failing with more nodes lost.
        let g = generate_regular(12, 3, 1).unwrap();
        let obs = SimObserver::disabled();
        for base in [&[][..], &[4, 9]] {
            let ks: Vec<usize> = (0..=22).collect();
            let rows = sample_levels_observed(&g, base, &ks, 3_000, 42, &obs);
            assert!(
                rows.windows(2).all(|w| w[0] <= w[1]),
                "base {base:?}: {rows:?}"
            );
            assert!(
                rows.iter().any(|&r| 0 < r && r < 3_000),
                "a level with both verdicts, base {base:?}: {rows:?}"
            );
        }
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
    fn rows_do_not_depend_on_the_id_width() {
        // Graphs above 65,536 nodes keep their orders as `usize` ids.
        let g = generate_regular(12, 3, 1).unwrap();
        let obs = SimObserver::disabled();
        let ks = [8, 3, 12, 0, 5, 8];
        for base in [&[][..], &[4, 9]] {
            assert_eq!(
                sample_levels_as::<usize>(&g, base, &ks, 1_100, 42, &obs),
                sample_levels_as::<u16>(&g, base, &ks, 1_100, 42, &obs),
                "base {base:?}"
            );
        }
    }

    #[test]
    fn mirror_sampled_fraction_matches_exact_combinatorics() {
        // 4 pairs (8 nodes): every level's row against the exhaustive
        // search's exact fraction, e.g. k = 2: 4 / C(8,2) = 1/7.
        let g = generate_mirror(4).unwrap();
        let trials = 200_000u64;
        let ks: Vec<usize> = (0..=8).collect();
        let rows = sample_levels_observed(&g, &[], &ks, trials, 7, &SimObserver::disabled());
        for (&k, failures) in ks.iter().zip(rows) {
            let exact = search_level(&g, k, 0);
            let expected = exact.failures as f64 / exact.cases as f64;
            let p = failures as f64 / trials as f64;
            // A four-sigma band for a Bernoulli estimate (zero wide where
            // the level always or never fails).
            let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
            assert!(
                (p - expected).abs() <= 4.0 * sigma,
                "k = {k}: sampled {p} vs exact {expected} (sigma {sigma})"
            );
        }
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
