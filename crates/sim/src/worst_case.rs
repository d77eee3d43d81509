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
//! [`ErasureDecoder::begin_pattern`]). The last prefix position is taken
//! a row at a time in fixed-width registers, by the same
//! [`OneNodeRule`]. On the 96-node catalogue graphs 98 % of the patterns
//! are decided by mask, and the rest are peeled 512 at a time on a
//! [`LaneDecoder`]. Searching graph 1 to k = 5 takes 0.10–0.17 s of one
//! core, and to the paper's k = 6 (927,048,304 subsets) 1.9–2.9 s (2-vCPU
//! VM, one core pinned).
//!
//! The enumeration is split into contiguous rank ranges, one per thread,
//! via the combinadic unranking in `tornado-bitset` and processed
//! data-parallel with rayon — each worker owns its own allocation-free
//! [`ErasureDecoder`] and [`LaneDecoder`].

use crate::obs::SimObserver;
use crate::profile::FailureProfile;
use rayon::prelude::*;
use tornado_bitset::combinations::{binomial, chunk_ranges, unrank};
use tornado_bitset::rows::{self, Word};
use tornado_codec::metrics::cells;
use tornado_codec::{ErasureDecoder, LaneDecoder, OneNodeRule};
use tornado_graph::Graph;
use tornado_obs::{Json, Progress};

/// The most nodes a graph may have to be searched: rows of up to 1,024
/// words.
pub const MAX_NODES: usize = 1024 * rows::WORD_BITS;

/// Configuration for the worst-case search.
#[derive(Clone, Copy, Debug)]
pub struct WorstCaseConfig {
    /// Highest `k` to examine. On a 96-node graph and one core, 4 takes
    /// 3–4 ms, 5 about a tenth of a second and the paper's 6 (`C(96, 6) ≈
    /// 9.3 × 10⁸` subsets) 1.9–2.9 s; each further level costs roughly
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
///
/// # Panics
/// Panics on a graph of more than [`MAX_NODES`] nodes.
pub fn worst_case_search(graph: &Graph, cfg: &WorstCaseConfig) -> WorstCaseReport {
    worst_case_search_observed(graph, cfg, &SimObserver::disabled())
}

/// [`worst_case_search`] with progress, events, and decode-kernel metrics
/// reported through `obs`. Counts and collected sets are identical to the
/// unobserved search.
///
/// # Panics
/// Panics on a graph of more than [`MAX_NODES`] nodes.
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
///
/// # Panics
/// Panics on a graph of more than [`MAX_NODES`] nodes.
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
///
/// # Panics
/// Panics on a graph of more than [`MAX_NODES`] nodes.
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
    // One range a thread. The vendored rayon hands each worker one
    // contiguous block of the ranges and steals nothing, so more ranges
    // would balance nothing and each would re-derive its first prefix and
    // run a last partial lane group. (Later ranks cost more a pattern, but
    // pairing a cheap range with a dear one on each worker measured no
    // faster.)
    let ranges = chunk_ranges(n, k, rayon::current_num_threads().max(1));
    // A row's width is the node count's words rounded up to a power of two:
    // at most twice what the graph needs (see DESIGN.md for the cost).
    let walk = match rows::words_for(n).next_power_of_two() {
        1 => walk_ranges::<1>,
        2 => walk_ranges::<2>,
        4 => walk_ranges::<4>,
        8 => walk_ranges::<8>,
        16 => walk_ranges::<16>,
        32 => walk_ranges::<32>,
        64 => walk_ranges::<64>,
        128 => walk_ranges::<128>,
        256 => walk_ranges::<256>,
        512 => walk_ranges::<512>,
        1024 => walk_ranges::<1024>,
        _ => panic!("the worst-case search takes up to {MAX_NODES} nodes, not {n}"),
    };
    let (failures, mut sets) = walk(graph, k, collect_cap, obs, ranges, &progress);
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

/// Walks the rank `ranges` of level `k` on rayon's workers with `W`-word
/// rows, which must be at least [`rows::words_for`] of the node count.
/// Returns the failure count and the failing sets the ranges kept, in
/// rank order; metrics go to `obs` and patterns decided to `progress`.
fn walk_ranges<const W: usize>(
    graph: &Graph,
    k: usize,
    collect_cap: usize,
    obs: &SimObserver,
    ranges: Vec<(u128, u128)>,
    progress: &Progress,
) -> (u64, Vec<Vec<usize>>) {
    ranges
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
                let mut walk = Walk::<W>::new(graph, dec, lanes, k, collect_cap);
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
        )
}

/// `row` as a `W`-word row, zero above its own width.
fn padded<const W: usize>(row: &[Word]) -> [Word; W] {
    let mut out = [0; W];
    out[..row.len()].copy_from_slice(row);
    out
}

/// How many `t` with collisions a [`Walk`] holds back before queuing them.
const HELD: usize = 16;

/// A walk of the lexicographic patterns of one rank range, a row at a time.
///
/// A *row* is every pattern over one (k − 2)-prefix `Q = combo[..k - 2]`:
/// each `t` above `Q` in position `k − 2`, each tail `u` above `t` in
/// position `k − 1`. The decoder keeps how much of `Q` decodes and two
/// certificates of its recovery ([`ErasureDecoder::begin_pattern`]
/// re-derives only the positions that moved). The walk copies those into
/// `W`-word rows and derives the certificates of each `Q ∪ {t}` from them
/// by the same [`OneNodeRule`] the decoder extends by, peeling `Q ∪ {t}`
/// only when `t` lies
/// inside both ([`ErasureDecoder::peel_extension`]). That turns into
/// counts:
///
/// * every pattern under a failed prefix fails (failure monotonicity) —
///   counted by a binomial when the whole subtree lies in the range and its
///   sets are not wanted;
/// * a tail outside either certificate leaves one recovery of the prefix
///   intact, so the pattern decodes iff the tail alone does. Three word
///   operations per row word decide every tail of a `t` at once: the tail
///   range and both certificates give the collisions, and the range less
///   the collisions and the covered nodes gives the failures;
/// * only a tail inside *both* certificates is peeled, on a lane of
///   [`LaneDecoder`] that is run once [`LaneDecoder::LANES`] patterns are
///   queued (and at the end of the range). Most of a certificate above the
///   prefix is the checks that solved for its data nodes, and a tail that
///   is one of them misses the certificate built from each data node's
///   other check: 3.6 % of graph 1's patterns collide with one
///   certificate, 1.5 % with both.
///
/// The collisions of a `t` are held back and queued at the end of the row
/// (or once [`HELD`] `t` have some): queuing them as they came put a call
/// in the row loop that 13 % of graph 1's `t` took, and the loop around it
/// ran a fifth slower.
///
/// Lane verdicts arrive after later patterns were decided by mask, so
/// `sets` is not in rank order until [`Walk::run`] sorts it at the end.
///
/// Rows are `W` words, fixed per search from the node count, so that a
/// row is a few registers and its loops unroll (`W` at least
/// [`rows::words_for`] of it, the words above zero; the search rounds it
/// up to a power of two).
struct Walk<'a, 'g, const W: usize> {
    dec: &'a mut ErasureDecoder<'g>,
    lanes: &'a mut LaneDecoder<'g>,
    rule: OneNodeRule<'g>,
    /// The nodes that recover when missing alone.
    covered: [Word; W],
    n: usize,
    k: usize,
    collect_cap: usize,
    /// The current pattern; `combo[..k - 2]` is the row being walked.
    combo: Vec<usize>,
    /// The patterns loaded into `lanes`, `k` nodes each, in lane order.
    queued: Vec<usize>,
    /// Collisions not yet queued: a `t` (the node in position `k − 2`) and
    /// its tails inside both certificates. The first `held_len` count.
    held: Vec<(usize, [Word; W])>,
    held_len: usize,
    failures: u64,
    sets: Vec<Vec<usize>>,
    reuse_hits: u64,
    collisions: u64,
    shortcuts: u64,
}

impl<'a, 'g, const W: usize> Walk<'a, 'g, W> {
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
            rule: OneNodeRule::new(graph),
            covered: padded(&graph.rows().covered),
            n: graph.num_nodes(),
            k,
            collect_cap,
            combo: Vec::new(),
            queued: Vec::with_capacity(k * LaneDecoder::LANES),
            held: vec![(0, [0; W]); HELD],
            held_len: 0,
            failures: 0,
            sets: Vec::new(),
            reuse_hits: 0,
            collisions: 0,
            shortcuts: 0,
        }
    }

    /// Whether failing sets are still being collected. Once `sets` holds
    /// `collect_cap` of them, every one precedes the patterns neither
    /// decided nor queued (or held) yet, so none of those can be kept.
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
        if k == 0 {
            // The one 0-subset erases nothing, so it decodes.
            self.reuse_hits += len as u64;
            progress(len as u64);
            return;
        }
        self.combo = unrank(n, k, start);
        let Some(row) = k.checked_sub(2) else {
            // One node: the empty prefix decodes, and its certificates are
            // empty.
            self.tails(Some(&[[0; W]; 2]), self.combo[0], len as usize);
            self.queue_held();
            progress(len as u64);
            return;
        };
        let mut remaining = len;
        // The shallowest position whose subtree begins at the current
        // pattern (none for the range's first pattern, which may sit
        // mid-subtree everywhere).
        let mut fresh = k - 1;
        let mut unreported = 0u64;
        let mut report = |patterns: u128| {
            unreported += patterns as u64;
            if unreported >= PROGRESS_STRIDE {
                progress(std::mem::take(&mut unreported));
            }
        };
        while remaining > 0 {
            self.dec.begin_pattern(&self.combo[..row]);
            // The shallowest failing prefix is combo[..=decoding]; the
            // subtree to skip is the shallowest *fresh* one under it.
            let j = self.dec.prefix_decoding().max(fresh);
            let moved = if j < row && !self.collecting() {
                // Everything under combo[..=j] fails: the remaining
                // k - 1 - j members range over the nodes above combo[j].
                let above = (n - 1 - self.combo[j]) as u64;
                let subtree = binomial(above, (k - 1 - j) as u64).min(remaining);
                self.failures += subtree as u64;
                self.shortcuts += subtree as u64;
                remaining -= subtree;
                report(subtree);
                self.advance(j)
            } else {
                let decided = self.row(remaining);
                remaining -= decided;
                report(decided);
                row.checked_sub(1).and_then(|j| self.advance(j))
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

    /// Decides the current row from `combo[k - 2]` and `combo[k - 1]` on,
    /// up to `budget` patterns, and returns how many it decided.
    fn row(&mut self, budget: u128) -> u128 {
        let (n, row, rule) = (self.n, self.k - 2, self.rule);
        let certs = self
            .dec
            .prefix_decodes()
            .then(|| self.dec.prefix_certificates().map(padded::<W>));
        // No row holds more than C(n, 2) patterns.
        let budget = budget.min(u128::from(u32::MAX)) as usize;
        let mut extended = [[0; W]; 2];
        let mut lo = self.combo[row + 1];
        let mut decided = 0;
        for t in self.combo[row]..n - 1 {
            if decided == budget {
                break;
            }
            self.combo[row] = t;
            let decodes = certs.as_ref().is_some_and(|certs| {
                let extended = extended.as_flattened_mut();
                rule.extend(certs.as_flattened(), t, extended)
                    .unwrap_or_else(|| self.dec.peel_extension(t, extended))
            });
            let tails = (n - lo).min(budget - decided);
            self.tails(decodes.then_some(&extended), lo, tails);
            decided += tails;
            lo = t + 2;
        }
        if self.held_len > 0 {
            self.queue_held();
        }
        decided as u128
    }

    /// Decides the `count` patterns `combo[..k - 1] ∪ {u}` for `u` from
    /// `lo` on, given two certificates of the prefix, or `None` when it
    /// fails. Collisions are held back, and failures, which are rare, are
    /// counted out of line.
    #[inline(always)]
    fn tails(&mut self, certs: Option<&[[Word; W]; 2]>, lo: usize, count: usize) {
        let mut range = [0; W];
        rows::fill_range(&mut range, lo, lo + count);
        let (inside, failed) = match certs {
            None => {
                self.shortcuts += count as u64;
                ([0; W], range)
            }
            Some([first, second]) => {
                // Outside either certificate a tail fails iff it fails
                // alone; inside both the lanes decide.
                let inside: [Word; W] = std::array::from_fn(|i| range[i] & first[i] & second[i]);
                let failed = std::array::from_fn(|i| range[i] & !inside[i] & !self.covered[i]);
                let hits = rows::count(&inside) as u64;
                self.collisions += hits;
                self.reuse_hits += count as u64 - hits;
                (inside, failed)
            }
        };
        // Written either way, kept only when there are collisions.
        self.held[self.held_len] = (self.combo[self.k.saturating_sub(2)], inside);
        self.held_len += usize::from(!rows::is_empty(&inside));
        if self.held_len == HELD {
            self.queue_held();
        }
        if !rows::is_empty(&failed) {
            self.fail_tails(&failed);
        }
    }

    /// Queues the held collisions on the lanes. Leaves position k − 2 at
    /// the last held `t`: when the hold fills that is the current `t`, and
    /// after a row [`Walk::advance`] rewrites it.
    #[inline(never)]
    fn queue_held(&mut self) {
        // Position k − 2 holds `t`; with one node there is none, and
        // position 0 is the tail's, which `queue_tails` writes anyway.
        let at = self.k.saturating_sub(2);
        for i in 0..std::mem::take(&mut self.held_len) {
            let (t, tails) = self.held[i];
            self.combo[at] = t;
            self.queue_tails(&tails);
        }
    }

    /// Loads the patterns `combo[..k - 1] ∪ {u}` for `u` in `tails` into the
    /// next lanes, running the group whenever every lane is loaded.
    #[inline]
    fn queue_tails(&mut self, tails: &[Word; W]) {
        let mut lane = self.queued.len() / self.k;
        for u in rows::ones(tails) {
            self.combo[self.k - 1] = u;
            self.lanes.load(lane, &self.combo);
            self.queued.extend_from_slice(&self.combo);
            lane += 1;
            if lane == LaneDecoder::LANES {
                self.run_lanes();
                lane = 0;
            }
        }
    }

    /// Counts the failing patterns `combo[..k - 1] ∪ {u}` for `u` in
    /// `tails`, collecting them while there is room.
    #[inline(never)]
    fn fail_tails(&mut self, tails: &[Word; W]) {
        self.failures += rows::count(tails) as u64;
        if self.collecting() {
            let room = self.collect_cap - self.sets.len();
            for u in rows::ones(tails).take(room) {
                self.combo[self.k - 1] = u;
                self.sets.push(self.combo.clone());
            }
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
            let mut walk = Walk::<1>::new(&g, &mut dec, &mut lanes, k, 0);
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

    /// `search_level` against [`failing_sets`] at 1 / 2 / 3 / 8 threads
    /// and caps 0 / 1 / 7 / unlimited: every count and collected set.
    fn assert_search_matches(g: &Graph, k: usize, expected: &[Vec<usize>]) {
        let n = g.num_nodes();
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
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

    /// Walks the ranges of `chunk_ranges(n, k, chunks)` in order on one
    /// pair of decoders, as one worker does, with `W`-word rows. Returns
    /// the failures, the kept sets (every range's, concatenated and cut to
    /// `cap`) and the verdict split: reuse hits, collisions, shortcuts.
    fn walk_split<const W: usize>(
        g: &Graph,
        k: usize,
        chunks: usize,
        cap: usize,
    ) -> (u64, Vec<Vec<usize>>, [u64; 3]) {
        let mut dec = ErasureDecoder::new(g);
        let mut lanes = LaneDecoder::new(g);
        let (mut failures, mut sets, mut split) = (0, Vec::new(), [0; 3]);
        for (start, len) in chunk_ranges(g.num_nodes(), k, chunks) {
            let mut walk = Walk::<W>::new(g, &mut dec, &mut lanes, k, cap);
            walk.run(start, len, |_| {});
            let range = [walk.reuse_hits, walk.collisions, walk.shortcuts];
            assert_eq!(range.iter().sum::<u64>(), len as u64, "one verdict each");
            failures += walk.failures;
            sets.append(&mut walk.sets);
            for (total, count) in split.iter_mut().zip(range) {
                *total += count;
            }
        }
        sets.truncate(cap);
        (failures, sets, split)
    }

    #[test]
    fn ranges_beginning_mid_row_and_mid_tail_match_brute_force() {
        // From one range up to one pattern a range (at k = 3), most ranges
        // begin inside a row and many inside the tails of one `t`. The
        // verdict split must not depend on the split into ranges, and rows
        // wider than the graph needs must not change a count.
        let graphs = [
            generate_regular(12, 3, 7).unwrap(),
            generate_regular(14, 3, 1).unwrap(),
        ];
        let (mut mid_row, mut mid_tail) = (0, 0);
        for g in &graphs {
            let n = g.num_nodes();
            for k in 3..=5 {
                let expected = failing_sets(g, k);
                if n == 28 && k < 5 {
                    // The other cases are `walk_matches_per_pattern_brute_force`
                    // and `full_lane_groups_match_per_pattern_brute_force`.
                    assert_search_matches(g, k, &expected);
                }
                let every = binomial(n as u64, k as u64) as usize;
                let mut whole = None;
                for chunks in [1, 64, if k == 3 { every } else { 1999 }] {
                    for (start, _) in chunk_ranges(n, k, chunks) {
                        let c = unrank(n, k, start);
                        if c[k - 1] != c[k - 2] + 1 {
                            mid_tail += 1;
                        } else if c[k - 2] != c[k - 3] + 1 {
                            mid_row += 1;
                        }
                    }
                    for cap in [0usize, 1, 7, usize::MAX] {
                        let what = format!("n = {n}, k = {k}, {chunks} ranges, cap {cap}");
                        let walked = walk_split::<1>(g, k, chunks, cap);
                        assert_eq!(walked.0, expected.len() as u64, "{what}");
                        assert_eq!(walked.1, expected[..expected.len().min(cap)], "{what}");
                        assert_eq!(walked.2, *whole.get_or_insert(walked.2), "{what}");
                    }
                    let wide = walk_split::<3>(g, k, chunks, usize::MAX);
                    assert_eq!(wide, walk_split::<1>(g, k, chunks, usize::MAX));
                }
            }
        }
        assert!(mid_row > 100 && mid_tail > 100, "{mid_row} / {mid_tail}");
    }

    /// `n` nodes: `n / 2` data nodes, checks `{i, i + 1}` over them (a
    /// chain, closed into a ring when there are checks to spare), and last,
    /// node `n − 1`, a check on the last data node alone.
    fn straddling(n: usize) -> Graph {
        let data = n / 2;
        let mut b = GraphBuilder::new(data);
        b.begin_level("c");
        let node = |i: usize| (i % data) as tornado_graph::NodeId;
        for i in 0..n - data - 1 {
            b.add_check(&[node(i), node(i + 1)]);
        }
        b.add_check(&[node(data - 1)]);
        b.build().unwrap()
    }

    #[test]
    fn node_counts_straddling_word_boundaries_match_brute_force() {
        // One, two and three words: at a boundary, one node past it, and
        // full. The even counts are chains whose first data node has one
        // check, so they fail at k = 2: prefixes fail, subtrees are
        // skipped, and failing tails fall in every word. The odd counts
        // close a ring and fail first at k = 3.
        for n in [64, 65, 128, 129, 192] {
            let g = straddling(n);
            assert_eq!(g.num_nodes(), n);
            let expected = failing_sets(&g, 3);
            assert!(!expected.is_empty(), "n = {n}");
            assert_search_matches(&g, 3, &expected);
            // The same walk on rows wider than needed.
            let kept = expected.len().min(7);
            let wide = walk_split::<4>(&g, 3, 64, 7);
            assert_eq!(wide.0, expected.len() as u64, "n = {n}");
            assert_eq!(wide.1, expected[..kept], "n = {n}");
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
