//! Exhaustive worst-case failure search (paper §3).
//!
//! "We detect worst case failure scenarios using a full combinatorial
//! examination of lost nodes, starting with (96 choose 1) through
//! (96 choose 6)." Every `k`-subset of nodes is taken offline and decoded;
//! the failing subsets are the graph's *critical sets*, which the §3.3
//! adjustment procedure consumes.
//!
//! Few of those subsets are actually peeled. Consecutive subsets in
//! lexicographic order share a prefix, and what is known about the prefix
//! decides most of them: every subset over a prefix that already fails
//! fails with it (whole subtrees are counted by a binomial), and a last
//! node outside a *certificate* of the prefix's recovery changes nothing
//! about it, so all such tails of a prefix are decided by one mask (see
//! [`ErasureDecoder::begin_pattern`]). On the 96-node catalogue graphs 98 %
//! of the patterns are decided that way, and the rest are peeled 512 at a
//! time on a [`LaneDecoder`]. Searching graph 1 to k = 5 takes 0.13 s of
//! one core and to the paper's k = 6 (927,048,304 subsets) 2.6 s.
//!
//! The enumeration is split into contiguous rank ranges via the combinadic
//! unranking in `tornado-bitset` and processed data-parallel with rayon —
//! each worker owns its own allocation-free [`ErasureDecoder`] and
//! [`LaneDecoder`].

use crate::obs::SimObserver;
use crate::profile::FailureProfile;
use rayon::prelude::*;
use tornado_bitset::combinations::{binomial, chunk_ranges, unrank};
use tornado_bitset::rows::{self, Word};
use tornado_codec::metrics::cells;
use tornado_codec::{ErasureDecoder, LaneDecoder};
use tornado_graph::Graph;
use tornado_obs::Json;

/// Configuration for the worst-case search.
#[derive(Clone, Copy, Debug)]
pub struct WorstCaseConfig {
    /// Highest `k` to examine. On a 96-node graph and one core, 4 takes
    /// 6 ms, 5 an eighth of a second and the paper's 6 (`C(96, 6) ≈
    /// 9.3 × 10⁸` subsets) 2.6 s; each further level costs roughly
    /// `(96 − k) / k` times the one before.
    pub max_k: usize,
    /// Maximum number of failing subsets to *collect* per `k` (counting is
    /// always complete; collection is capped to bound memory).
    pub collect_cap: usize,
    /// Stop after the first `k` that exhibits failures (the adjustment loop
    /// wants exactly the first-failure level; profiles want all levels).
    pub stop_at_first_failure: bool,
}

impl Default for WorstCaseConfig {
    fn default() -> Self {
        Self {
            max_k: 4,
            collect_cap: 4096,
            stop_at_first_failure: false,
        }
    }
}

/// Results for one `k` level.
#[derive(Clone, Debug)]
pub struct KLevelResult {
    /// Number of nodes taken offline.
    pub k: usize,
    /// Total subsets examined (`C(n, k)`).
    pub cases: u128,
    /// Subsets whose reconstruction failed.
    pub failures: u64,
    /// The failing subsets, up to the collection cap, in lexicographic
    /// order.
    pub failure_sets: Vec<Vec<usize>>,
    /// Whether `failure_sets` was truncated by the cap.
    pub truncated: bool,
}

/// Full worst-case search report.
#[derive(Clone, Debug)]
pub struct WorstCaseReport {
    /// Per-`k` results, ascending in `k`.
    pub levels: Vec<KLevelResult>,
}

impl WorstCaseReport {
    /// The worst-case failure scenario: smallest `k` with any failure.
    pub fn first_failure(&self) -> Option<usize> {
        self.levels.iter().find(|l| l.failures > 0).map(|l| l.k)
    }

    /// Folds the exact counts into a [`FailureProfile`] for `graph_nodes`
    /// total nodes.
    pub fn to_profile(&self, graph_nodes: usize) -> FailureProfile {
        let mut p = FailureProfile::new(graph_nodes);
        for l in &self.levels {
            // Counts above u64 range cannot occur for the sizes this crate
            // enumerates (C(96, 6) < 2^30).
            p.record(l.k, l.cases as u64, l.failures, true);
        }
        p
    }
}

/// Runs the exhaustive search over `k = 1..=cfg.max_k`.
pub fn worst_case_search(graph: &Graph, cfg: &WorstCaseConfig) -> WorstCaseReport {
    worst_case_search_observed(graph, cfg, &SimObserver::disabled())
}

/// [`worst_case_search`] with progress, events, and decode-kernel metrics
/// reported through `obs`. Counts and collected sets are identical to the
/// unobserved search.
pub fn worst_case_search_observed(
    graph: &Graph,
    cfg: &WorstCaseConfig,
    obs: &SimObserver,
) -> WorstCaseReport {
    let n = graph.num_nodes();
    let mut levels = Vec::with_capacity(cfg.max_k);
    for k in 1..=cfg.max_k.min(n) {
        let level = search_level_observed(graph, k, cfg.collect_cap, obs);
        let found = level.failures > 0;
        levels.push(level);
        if found && cfg.stop_at_first_failure {
            break;
        }
    }
    WorstCaseReport { levels }
}

/// Exhaustively examines one `k` level.
///
/// `k = 0` is the one empty pattern, which decodes.
///
/// Deterministic regardless of thread count or scheduling: each rank range
/// keeps its lexicographically first failures (up to `collect_cap`, sorted
/// at the end of the range, since lane verdicts arrive out of rank order),
/// ranges are concatenated in rank order — which *is* lexicographic order —
/// and only the final concatenation is truncated. Since every set in the
/// global lex-smallest `collect_cap` is also within its own range's
/// smallest `collect_cap`, the kept sets are exactly the globally smallest
/// ones, run after run.
pub fn search_level(graph: &Graph, k: usize, collect_cap: usize) -> KLevelResult {
    search_level_observed(graph, k, collect_cap, &SimObserver::disabled())
}

/// Patterns between progress flushes inside a rank range. Large enough that
/// the sharded counter add and clock read disappear against the search,
/// small enough that ETAs stay live on the big levels.
const PROGRESS_STRIDE: u64 = 1 << 20;

/// [`search_level`] with per-`k` progress (rate + ETA), a completion event,
/// and decode-kernel metrics merged from every worker through `obs`.
///
/// Every pattern is accounted to exactly one of `decode.prefix_reuse_hits`
/// (decided without a peel), `decode.prefix_collisions` (peeled on lanes)
/// and `decode.monotone_shortcuts` (under a failed prefix), and
/// `decode.trials` equals `C(n, k)` for the level; those totals do not
/// depend on how the ranks were split. `decode.prefix_begins` — full
/// fixpoints of inner prefixes — does, each range re-deriving its first
/// prefix, and so does `decode.recoveries`: a lane whose data is back
/// keeps rebuilding checks while others in its group still peel, and which
/// collisions share a group depends on where the ranges begin.
pub fn search_level_observed(
    graph: &Graph,
    k: usize,
    collect_cap: usize,
    obs: &SimObserver,
) -> KLevelResult {
    let n = graph.num_nodes();
    let total = binomial(n as u64, k as u64);
    let progress = obs.progress.start(
        format!("worst-case k={k}"),
        u64::try_from(total).unwrap_or(u64::MAX),
    );
    let started = std::time::Instant::now();
    // Enough chunks to keep all cores busy with balanced tails.
    let chunks = (rayon::current_num_threads() * 8).max(1);
    let ranges = chunk_ranges(n, k, chunks);

    let (failures, mut sets) = ranges
        .into_par_iter()
        .map_init(
            // One pair of decoders per worker thread, reused across its rank
            // ranges.
            || {
                let mut dec = ErasureDecoder::new(graph);
                let mut lanes = LaneDecoder::new(graph);
                dec.set_recording(obs.metrics.is_some());
                lanes.set_recording(obs.metrics.is_some());
                (dec, lanes)
            },
            |(dec, lanes), (start, len)| {
                let mut walk = Walk::new(graph, dec, lanes, k, collect_cap);
                walk.run(start, len, |patterns| progress.add(patterns));
                if let Some(metrics) = &obs.metrics {
                    // The kernels counted their peels; the walk decided
                    // every verdict.
                    let mut cells = walk.dec.take_cells();
                    for (cell, lane_cell) in cells.iter_mut().zip(walk.lanes.take_cells()) {
                        *cell += lane_cell;
                    }
                    cells[cells::TRIALS] = len as u64;
                    cells[cells::FAILURES] = walk.failures;
                    cells[cells::PREFIX_REUSE_HITS] = walk.reuse_hits;
                    cells[cells::PREFIX_COLLISIONS] = walk.collisions;
                    cells[cells::MONOTONE_SHORTCUTS] = walk.shortcuts;
                    metrics.absorb(&cells);
                }
                (walk.failures, walk.sets)
            },
        )
        .reduce(
            || (0u64, Vec::new()),
            |mut a, mut b| {
                a.0 += b.0;
                a.1.append(&mut b.1);
                (a.0, a.1)
            },
        );
    progress.finish();
    obs.events.emit(
        "worst_case_level",
        &[
            ("k", Json::U64(k as u64)),
            ("cases", Json::U64(u64::try_from(total).unwrap_or(u64::MAX))),
            ("failures", Json::U64(failures)),
            (
                "elapsed_ms",
                Json::U64(started.elapsed().as_millis() as u64),
            ),
        ],
    );
    debug_assert!(
        sets.is_sorted(),
        "rank-ordered ranges concatenate in lex order"
    );
    sets.truncate(collect_cap);
    let truncated = failures > sets.len() as u64;
    KLevelResult {
        k,
        cases: total,
        failures,
        failure_sets: sets,
        truncated,
    }
}

/// A walk of the lexicographic prefixes of one rank range.
///
/// The decoder keeps, for the prefix `combo[..k - 1]` of the current
/// pattern, how much of it decodes and two certificates of its recovery
/// ([`ErasureDecoder::begin_pattern`] re-derives only the positions that
/// moved). The walk turns that into counts:
///
/// * every pattern under a failed prefix fails (failure monotonicity) —
///   counted by a binomial when the whole subtree lies in the range and its
///   sets are not wanted;
/// * a tail outside either certificate leaves one recovery of the prefix
///   intact, so the pattern decodes iff the tail alone does — one mask
///   decides all such tails of a prefix at once;
/// * only a tail inside *both* certificates is peeled, on a lane of
///   [`LaneDecoder`] that is run once [`LaneDecoder::LANES`] patterns are
///   queued (and at the end of the range). Most of a certificate above the
///   prefix is the checks that solved for its data nodes, and a tail that
///   is one of them misses the certificate built from each data node's
///   other check: 3.6 % of graph 1's patterns collide with one
///   certificate, 1.5 % with both.
///
/// Lane verdicts arrive after later patterns were decided by mask, so
/// `sets` is not in rank order until [`Walk::run`] sorts it at the end.
struct Walk<'a, 'g> {
    dec: &'a mut ErasureDecoder<'g>,
    lanes: &'a mut LaneDecoder<'g>,
    /// The nodes that recover when missing alone.
    covered: &'g [Word],
    n: usize,
    k: usize,
    collect_cap: usize,
    /// The current pattern; `combo[..k - 1]` is the prefix being walked.
    combo: Vec<usize>,
    /// The patterns loaded into `lanes`, `k` nodes each, in lane order.
    queued: Vec<usize>,
    /// Scratch: the tails of the current prefix that fail.
    failed_tails: Vec<Word>,
    failures: u64,
    sets: Vec<Vec<usize>>,
    reuse_hits: u64,
    collisions: u64,
    shortcuts: u64,
}

impl<'a, 'g> Walk<'a, 'g> {
    fn new(
        graph: &'g Graph,
        dec: &'a mut ErasureDecoder<'g>,
        lanes: &'a mut LaneDecoder<'g>,
        k: usize,
        collect_cap: usize,
    ) -> Self {
        Self {
            dec,
            lanes,
            covered: &graph.rows().covered,
            n: graph.num_nodes(),
            k,
            collect_cap,
            combo: Vec::new(),
            queued: Vec::with_capacity(k * LaneDecoder::LANES),
            failed_tails: vec![0; rows::words_for(graph.num_nodes())],
            failures: 0,
            sets: Vec::new(),
            reuse_hits: 0,
            collisions: 0,
            shortcuts: 0,
        }
    }

    /// Whether failing sets are still being collected. Once `sets` holds
    /// `collect_cap` of them, every one precedes the patterns neither
    /// decided nor queued yet, so none of those can be kept.
    fn collecting(&self) -> bool {
        self.sets.len() < self.collect_cap
    }

    /// Keeps the `collect_cap` lexicographically smallest sets.
    fn trim(&mut self) {
        self.sets.sort_unstable();
        self.sets.truncate(self.collect_cap);
    }

    /// Moves position `j` of the prefix to its next value (carrying into
    /// shallower positions) and resets the deeper ones to follow it.
    /// Returns the shallowest position that changed, or `None` past the
    /// last prefix.
    fn advance(&mut self, mut j: usize) -> Option<usize> {
        loop {
            // Position j may go up to n - k + j and still leave room above.
            if self.combo[j] < self.n - self.k + j {
                self.combo[j] += 1;
                for i in j + 1..self.k {
                    self.combo[i] = self.combo[i - 1] + 1;
                }
                return Some(j);
            }
            j = j.checked_sub(1)?;
        }
    }

    /// Decides the `len` patterns from lexicographic rank `start` on,
    /// reporting progress in batches through `progress`.
    fn run(&mut self, start: u128, len: u128, progress: impl Fn(u64)) {
        let (n, k) = (self.n, self.k);
        let Some(last) = k.checked_sub(1) else {
            // The one 0-subset erases nothing, so it decodes.
            self.reuse_hits += len as u64;
            progress(len as u64);
            return;
        };
        self.combo = unrank(n, k, start);
        let mut remaining = len;
        // The shallowest position whose subtree begins at the current
        // pattern (none for the range's first pattern, which may sit
        // mid-subtree everywhere).
        let mut fresh = last;
        let mut unreported = 0u64;
        let mut report = |patterns: u128| {
            unreported += patterns as u64;
            if unreported >= PROGRESS_STRIDE {
                progress(std::mem::take(&mut unreported));
            }
        };
        while remaining > 0 {
            self.dec.begin_pattern(&self.combo[..last]);
            // The shallowest failing prefix is combo[..=decoding]; the
            // subtree to skip is the shallowest *fresh* one under it.
            let j = self.dec.prefix_decoding().max(fresh);
            let moved = if j < last && !self.collecting() {
                // Everything under combo[..=j] fails: the remaining
                // k - 1 - j members range over the nodes above combo[j].
                let above = (n - 1 - self.combo[j]) as u64;
                let subtree = binomial(above, (last - j) as u64).min(remaining);
                self.failures += subtree as u64;
                self.shortcuts += subtree as u64;
                remaining -= subtree;
                report(subtree);
                self.advance(j)
            } else {
                // Every tail of this prefix at once.
                let lo = self.combo[last];
                let tails = ((n - lo) as u128).min(remaining) as usize;
                self.decide_tails(lo, lo + tails);
                remaining -= tails as u128;
                report(tails as u128);
                last.checked_sub(1).and_then(|j| self.advance(j))
            };
            match moved {
                Some(changed) => fresh = changed,
                None => break,
            }
        }
        self.run_lanes();
        self.trim();
        progress(unreported);
    }

    /// Decides the patterns `combo[..k - 1] ∪ {t}` for `t` in `lo..hi`.
    fn decide_tails(&mut self, lo: usize, hi: usize) {
        let last = self.k - 1;
        let tails = (hi - lo) as u64;
        rows::fill_range(&mut self.failed_tails, lo, hi);
        if !self.dec.prefix_decodes() {
            self.shortcuts += tails;
        } else {
            let mut hits = 0;
            // Outside either certificate a tail fails iff it fails alone;
            // inside both the lanes decide.
            for i in 0..self.failed_tails.len() {
                let [first, second] = self.dec.prefix_certificates();
                let inside = self.failed_tails[i] & first[i] & second[i];
                hits += inside.count_ones() as u64;
                self.failed_tails[i] &= !inside & !self.covered[i];
                for bit in rows::ones(&[inside]) {
                    self.combo[last] = i * rows::WORD_BITS + bit;
                    self.queue();
                }
            }
            self.collisions += hits;
            self.reuse_hits += tails - hits;
        }
        if rows::is_empty(&self.failed_tails) {
            return;
        }
        self.failures += rows::count(&self.failed_tails) as u64;
        if self.collecting() {
            let room = self.collect_cap - self.sets.len();
            for t in rows::ones(&self.failed_tails).take(room) {
                self.combo[last] = t;
                self.sets.push(self.combo.clone());
            }
        }
    }

    /// Loads the current pattern into the next lane, running the group once
    /// every lane is loaded.
    fn queue(&mut self) {
        let lane = self.queued.len() / self.k;
        self.lanes.load(lane, &self.combo);
        self.queued.extend_from_slice(&self.combo);
        if lane + 1 == LaneDecoder::LANES {
            self.run_lanes();
        }
    }

    /// Peels the queued patterns, counting and collecting the ones that fail.
    /// They may precede sets already collected, so all of them are kept
    /// until a trim.
    fn run_lanes(&mut self) {
        let failed = self.lanes.run(self.queued.len() / self.k);
        if failed > 0 {
            self.failures += failed;
            for (lane, pattern) in self.queued.chunks_exact(self.k).enumerate() {
                if self.lanes.failed(lane) {
                    self.sets.push(pattern.to_vec());
                }
            }
            // A set with `collect_cap` smaller ones in hand is never kept.
            if self.sets.len() > self.collect_cap.saturating_add(LaneDecoder::LANES) {
                self.trim();
            }
        }
        self.queued.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_bitset::CombinationIter;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::regular::generate_regular;
    use tornado_graph::GraphBuilder;

    #[test]
    fn mirror_first_failure_is_two_with_exact_counts() {
        // n mirrored pairs: failures at k are the subsets containing at
        // least one complete pair.
        let g = generate_mirror(6).unwrap(); // 12 nodes
        let report = worst_case_search(
            &g,
            &WorstCaseConfig {
                max_k: 3,
                collect_cap: 1024,
                stop_at_first_failure: false,
            },
        );
        assert_eq!(report.first_failure(), Some(2));
        let l2 = &report.levels[1];
        assert_eq!(l2.cases, binomial(12, 2));
        assert_eq!(l2.failures, 6, "exactly the six complete pairs");
        assert_eq!(l2.failure_sets.len(), 6);
        for s in &l2.failure_sets {
            assert_eq!(s[1], s[0] + 6, "each failure is a data/mirror pair");
        }
        // k = 3: choose a complete pair plus any third node: 6 × 10 = 60.
        let l3 = &report.levels[2];
        assert_eq!(l3.failures, 60);
    }

    #[test]
    fn stop_at_first_failure_halts_early() {
        let g = generate_mirror(6).unwrap();
        let report = worst_case_search(
            &g,
            &WorstCaseConfig {
                max_k: 3,
                collect_cap: 16,
                stop_at_first_failure: true,
            },
        );
        assert_eq!(report.levels.len(), 2, "stops after k = 2");
        assert_eq!(report.first_failure(), Some(2));
    }

    #[test]
    fn collection_cap_truncates_but_counts_fully() {
        let g = generate_mirror(6).unwrap();
        let level = search_level(&g, 3, 5);
        assert_eq!(level.failures, 60);
        assert_eq!(level.failure_sets.len(), 5);
        assert!(level.truncated);
    }

    #[test]
    fn single_node_losses_never_fail_on_sound_graphs() {
        let g = generate_regular(12, 3, 7).unwrap();
        let level = search_level(&g, 1, 10);
        assert_eq!(level.cases, 24);
        assert_eq!(level.failures, 0);
    }

    #[test]
    fn known_defect_is_found_at_k2() {
        // Two data nodes share exactly the same two checks.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c");
        b.add_check(&[0, 1]);
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.add_check(&[2]);
        b.add_check(&[3]);
        let g = b.build().unwrap();
        let report = worst_case_search(&g, &WorstCaseConfig::default());
        assert_eq!(report.first_failure(), Some(2));
        assert!(report.levels[1].failure_sets.contains(&vec![0usize, 1]));
    }

    #[test]
    fn to_profile_marks_rows_exact() {
        let g = generate_mirror(4).unwrap();
        let report = worst_case_search(
            &g,
            &WorstCaseConfig {
                max_k: 2,
                ..Default::default()
            },
        );
        let p = report.to_profile(8);
        assert!(p.entry(1).exact);
        assert_eq!(p.entry(1).failures, 0);
        assert!(p.entry(2).exact);
        assert_eq!(p.entry(2).failures, 4);
        assert_eq!(p.entry(2).trials, 28);
    }

    #[test]
    fn capped_collection_is_deterministic_across_runs() {
        // 60 failures at k = 3, cap 7: every run must keep the same seven
        // lexicographically smallest sets (the old mid-reduce truncation
        // kept whichever sets the merge tree happened to see first).
        let g = generate_mirror(6).unwrap();
        let first = search_level(&g, 3, 7);
        assert_eq!(first.failures, 60);
        assert_eq!(first.failure_sets.len(), 7);
        assert!(first.truncated);
        let mut sorted = first.failure_sets.clone();
        sorted.sort();
        assert_eq!(first.failure_sets, sorted, "kept sets are in lex order");
        for _ in 0..5 {
            let again = search_level(&g, 3, 7);
            assert_eq!(again.failure_sets, first.failure_sets);
            assert_eq!(again.failures, first.failures);
        }
    }

    #[test]
    fn capped_collection_is_deterministic_across_thread_counts() {
        let g = generate_mirror(6).unwrap();
        let baseline = search_level(&g, 3, 7);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let level = pool.install(|| search_level(&g, 3, 7));
            assert_eq!(
                level.failure_sets, baseline.failure_sets,
                "thread count {threads} changed the collected sets"
            );
            assert_eq!(level.failures, baseline.failures);
            assert_eq!(level.truncated, baseline.truncated);
        }
    }

    #[test]
    fn uncapped_collection_keeps_every_failure_in_lex_order() {
        let g = generate_mirror(6).unwrap();
        let level = search_level(&g, 2, usize::MAX);
        assert_eq!(level.failures as usize, level.failure_sets.len());
        assert!(!level.truncated);
        let mut sorted = level.failure_sets.clone();
        sorted.sort();
        assert_eq!(level.failure_sets, sorted);
    }

    /// The failing `k`-subsets by brute force, in lexicographic order: every
    /// subset through a plain one-shot decode.
    fn failing_sets(g: &Graph, k: usize) -> Vec<Vec<usize>> {
        let mut dec = ErasureDecoder::new(g);
        let mut failing = Vec::new();
        let mut it = CombinationIter::new(g.num_nodes(), k);
        while let Some(c) = it.next_slice() {
            if !dec.decode(c) {
                failing.push(c.to_vec());
            }
        }
        failing
    }

    #[test]
    fn walk_matches_per_pattern_brute_force() {
        // First failure 1: data node 2 is in no check, so it fails alone
        // and every prefix through it is a failed subtree.
        let mut orphan = GraphBuilder::new(3);
        orphan.begin_level("c");
        orphan.add_check(&[0, 1]);
        orphan.add_check(&[0]);
        orphan.add_check(&[1, 3]);
        // First failure 2, not by mirroring: data 0 and 1 share both checks.
        let mut shared = GraphBuilder::new(4);
        shared.begin_level("c");
        shared.add_check(&[0, 1]);
        shared.add_check(&[0, 1]);
        shared.add_check(&[2, 3]);
        shared.add_check(&[2]);
        shared.add_check(&[3]);
        let graphs = [
            (orphan.build().unwrap(), usize::MAX),
            (generate_mirror(4).unwrap(), usize::MAX),
            (shared.build().unwrap(), usize::MAX),
            // 24 nodes, first failure 4: deep enough that certificates
            // collide and inner prefixes are peeled.
            (generate_regular(12, 3, 7).unwrap(), 5),
        ];
        for (g, max_k) in &graphs {
            let n = g.num_nodes();
            for k in 1..=n.min(*max_k) {
                let expected = failing_sets(g, k);
                for threads in [1usize, 2, 3, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    // Cap 0 counts whole failed subtrees by binomial, the
                    // small caps switch from listing to counting midway,
                    // no cap lists every failure.
                    for cap in [0usize, 1, 7, usize::MAX] {
                        let level = pool.install(|| search_level(g, k, cap));
                        let what = format!("n = {n}, k = {k}, cap {cap}, {threads} threads");
                        assert_eq!(level.cases, binomial(n as u64, k as u64), "{what}");
                        assert_eq!(level.failures, expected.len() as u64, "{what}");
                        let kept = expected.len().min(cap);
                        assert_eq!(level.failure_sets, expected[..kept], "{what}");
                        assert_eq!(level.truncated, kept < expected.len(), "{what}");
                    }
                }
            }
        }
        assert_eq!(failing_sets(&graphs[0].0, 1), vec![vec![2]]);
        assert!(failing_sets(&graphs[3].0, 3).is_empty());
        assert_eq!(failing_sets(&graphs[3].0, 4).len(), 20);
    }

    #[test]
    fn full_lane_groups_match_per_pattern_brute_force() {
        // 28 nodes, first failure 4. At k = 5 some range of the one-thread
        // split (eight ranges) peels more than a group of collisions, and
        // every failure under a decoding prefix is a collision (all nodes
        // are covered), so failing lanes sit in full groups.
        let g = generate_regular(14, 3, 1).unwrap();
        let (n, k) = (g.num_nodes(), 5);
        let full_group_failed = chunk_ranges(n, k, 8).into_iter().any(|(start, len)| {
            let mut dec = ErasureDecoder::new(&g);
            let mut lanes = LaneDecoder::new(&g);
            lanes.set_recording(true);
            let mut walk = Walk::new(&g, &mut dec, &mut lanes, k, 0);
            walk.run(start, len, |_| {});
            // The last group holds the collisions past the full ones; more
            // lane failures than that means a full group had some.
            let partial = walk.collisions % LaneDecoder::LANES as u64;
            walk.lanes.take_cells()[cells::FAILURES] > partial
                && walk.collisions >= LaneDecoder::LANES as u64
        });
        assert!(full_group_failed, "no range ran a full group that failed");
        let expected = failing_sets(&g, k);
        assert_eq!(expected.len(), 457);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for cap in [0usize, 1, 7, usize::MAX] {
                let level = pool.install(|| search_level(&g, k, cap));
                let what = format!("cap {cap}, {threads} threads");
                assert_eq!(level.failures, expected.len() as u64, "{what}");
                let kept = expected.len().min(cap);
                assert_eq!(level.failure_sets, expected[..kept], "{what}");
                assert_eq!(level.truncated, kept < expected.len(), "{what}");
            }
        }
    }

    #[test]
    fn level_zero_is_the_empty_pattern_which_decodes() {
        let g = generate_regular(12, 3, 7).unwrap();
        for cap in [0usize, 8] {
            let metrics = std::sync::Arc::new(tornado_codec::DecodeMetrics::new());
            let obs = SimObserver::disabled().with_metrics(metrics.clone());
            let level = search_level_observed(&g, 0, cap, &obs);
            assert_eq!((level.k, level.cases, level.failures), (0, 1, 0));
            assert!(level.failure_sets.is_empty());
            assert!(!level.truncated);
            assert_eq!(metrics.get(cells::TRIALS), 1);
            assert_eq!(metrics.get(cells::PREFIX_REUSE_HITS), 1);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        // The chunked parallel enumeration must count exactly like a naive
        // serial scan.
        let g = generate_regular(10, 3, 3).unwrap();
        let level = search_level(&g, 3, usize::MAX);
        let mut dec = tornado_codec::ErasureDecoder::new(&g);
        let mut serial_failures = 0u64;
        let mut it = CombinationIter::new(20, 3);
        while let Some(c) = it.next_slice() {
            if !dec.decode(c) {
                serial_failures += 1;
            }
        }
        assert_eq!(level.failures, serial_failures);
    }
}
