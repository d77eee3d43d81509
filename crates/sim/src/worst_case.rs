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
//! [`ErasureDecoder::begin_pattern`]). The last two positions are taken a
//! row at a time in fixed-width registers: a pair of last nodes that
//! misses either certificate of the rest decodes, and only the nodes
//! inside a certificate are extended, by the same [`OneNodeRule`]. On the
//! 96-node catalogue graphs 99 % of the patterns are decided by mask, and
//! the rest are peeled 512 at a time on a [`LaneDecoder`]. Searching graph
//! 1 to k = 5 takes about 0.04 s of one core, and to the paper's k = 6
//! (927,048,304 subsets) about 1.1 s (2-vCPU VM, one core pinned).
//!
//! The enumeration is split into contiguous rank ranges of whole rows, one
//! per thread, via the combinadic unranking in `tornado-bitset` and
//! processed data-parallel with rayon — each worker owns its own
//! allocation-free [`ErasureDecoder`] and [`LaneDecoder`].

use crate::obs::SimObserver;
use crate::profile::FailureProfile;
use rayon::prelude::*;
use tornado_bitset::combinations::{binomial, chunk_ranges, rank, unrank};
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
    /// 1–2 ms, 5 about 0.04 s and the paper's 6 (`C(96, 6) ≈ 9.3 × 10⁸`
    /// subsets) about 1.1 s; each further level costs roughly
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
    pub(crate) fn to_profile(&self, graph_nodes: usize) -> FailureProfile {
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
    let ranges = row_ranges(n, k, rayon::current_num_threads().max(1));
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
    // Only rows of three or more nodes have a prefix to apply it above.
    let floor = if k >= 3 { pair_floor::<W>(graph) } else { 0 };
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
                let mut walk = Walk::<W>::new(graph, dec, lanes, k, floor, collect_cap);
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

/// `chunks` rank ranges of level `k` that each begin a row:
/// [`chunk_ranges`]'s, each start moved back to the first pattern of its
/// row and the ranges left empty dropped. A level below 3 is one row.
fn row_ranges(n: usize, k: usize, chunks: usize) -> Vec<(u128, u128)> {
    let total = binomial(n as u64, k as u64);
    let chunks = if k < 3 { 1 } else { chunks };
    let mut starts: Vec<u128> = chunk_ranges(n, k, chunks)
        .into_iter()
        .map(|(start, _)| {
            let mut combo = unrank(n, k, start);
            if let Some(q) = k.checked_sub(3) {
                combo[q + 1] = combo[q] + 1;
                combo[q + 2] = combo[q] + 2;
            }
            rank(n, &combo)
        })
        .collect();
    starts.dedup();
    let ends = starts.iter().skip(1).chain([&total]);
    starts.iter().zip(ends).map(|(&s, &e)| (s, e - s)).collect()
}

/// Where a row starts taking the pair rule: the largest node that fails
/// alone or is the smaller node of a pair that fails alone, or 0 when no
/// node is either. Every pair above it decodes.
fn pair_floor<const W: usize>(graph: &Graph) -> usize {
    let n = graph.num_nodes();
    let covered = padded::<W>(&graph.rows().covered);
    let alone = (0..n).rev().find(|&v| !rows::test(&covered, v));
    let rule = OneNodeRule::new(graph);
    let mut dec = ErasureDecoder::new(graph);
    let mut certs = [[0; W]; 2];
    // Above `alone` every node is covered, so {t} decodes with the
    // certificates the one-node rule gives it, and a pair {t, u} decodes
    // unless u lies inside both (certificate disjointness).
    let first = alone.map_or(0, |v| v + 1);
    (first..n)
        .rev()
        .find(|&t| {
            rule.extend([[0; W]; 2].as_flattened(), t, certs.as_flattened_mut());
            let mut above = [0; W];
            rows::fill_range(&mut above, t + 1, n);
            let both: [Word; W] = std::array::from_fn(|i| above[i] & certs[0][i] & certs[1][i]);
            let fails = rows::ones(&both).any(|u| !dec.decode(&[t, u]));
            fails
        })
        .or(alone)
        .unwrap_or(0)
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
/// position `k − 1`. A range begins a row and ends at one (see
/// [`row_ranges`]). The decoder keeps how much of `Q` decodes and two
/// certificates `C1`, `C2` of its recovery
/// ([`ErasureDecoder::begin_pattern`] re-derives only the positions that
/// moved). The walk copies those into `W`-word rows and derives the
/// certificates of `Q ∪ {t}` from them by the same [`OneNodeRule`] the
/// decoder extends by, peeling `Q ∪ {t}` only when `t` lies inside both
/// ([`ErasureDecoder::peel_extension`]). That turns into counts:
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
///   queued (and at the end of the range).
///
/// A row whose `Q` decodes and ends at or above the `floor` of
/// [`pair_floor`] takes the *pair rule*: certificate disjointness for the
/// two-node tail `{t, u}`. Every pair above the floor decodes alone, so a
/// pair that misses `C1` or `C2` decodes, and only the pairs that hit both
/// are looked at:
///
/// * each `t` in `C1 ∪ C2` decides all its tails as above;
/// * each `u` in `C1 ∩ C2` decides the `t` below it outside `C1 ∪ C2` by
///   the certificate of `Q ∪ {u}`, which the first step peeled (so its two
///   certificates are one), with the same masks;
/// * the rest of the row is counted as decoded by one subtraction.
///
/// Most of a certificate above the prefix is the checks that solved for
/// its data nodes, and a tail that is one of them misses the certificate
/// built from each data node's other check: on graph 1 at k = 4, 8.1 % of
/// the `t` above a row's prefix are in `C1 ∪ C2`, and 1.0 % of the
/// patterns collide.
///
/// The collisions of a `t` are held back and queued at the end of the row
/// (or once [`HELD`] `t` have some): queuing them as they came put a call
/// in the row loop that 13 % of graph 1's `t` took, and the loop around it
/// ran a fifth slower.
///
/// Lane verdicts and the pair rule's `u` decide patterns after later ones
/// were decided, so `sets` is not in rank order until [`Walk::run`] sorts
/// it at the end.
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
    /// Rows whose prefix ends at or above it take the pair rule.
    floor: usize,
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
    /// The pair rule's nodes inside both certificates of the row's prefix,
    /// ascending: each node, whether the prefix with it decodes, and then
    /// its certificate.
    both: Vec<(usize, bool, [Word; W])>,
    /// Whether the current row lists its failing sets: the row began with
    /// fewer than `collect_cap` in hand.
    listing: bool,
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
        floor: usize,
        collect_cap: usize,
    ) -> Self {
        Self {
            dec,
            lanes,
            rule: OneNodeRule::new(graph),
            covered: padded(&graph.rows().covered),
            floor,
            n: graph.num_nodes(),
            k,
            collect_cap,
            combo: Vec::new(),
            queued: Vec::with_capacity(k * LaneDecoder::LANES),
            held: vec![(0, [0; W]); HELD],
            held_len: 0,
            both: Vec::new(),
            listing: false,
            failures: 0,
            sets: Vec::new(),
            reuse_hits: 0,
            collisions: 0,
            shortcuts: 0,
        }
    }

    /// Whether failing sets are still being collected. At the start of a
    /// row every set in hand precedes the patterns neither decided nor
    /// queued (or held) yet, so once there are `collect_cap` of them none
    /// of those can be kept.
    fn collecting(&self) -> bool {
        self.sets.len() < self.collect_cap
    }

    /// Keeps the `collect_cap` lexicographically smallest sets.
    fn trim(&mut self) {
        self.sets.sort_unstable();
        self.sets.truncate(self.collect_cap);
    }

    /// Trims once the sets in hand are more than a lane group past the cap.
    fn bound_sets(&mut self) {
        if self.sets.len() > self.collect_cap.saturating_add(LaneDecoder::LANES) {
            self.trim();
        }
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

    /// Decides the `len` patterns from lexicographic rank `start` on, whole
    /// rows from the first pattern of one, reporting progress in batches
    /// through `progress`.
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
            self.listing = self.collecting();
            self.tails(Some(&[[0; W]; 2]), 0);
            self.queue_held();
            progress(len as u64);
            return;
        };
        let mut remaining = len;
        // The shallowest position whose subtree begins at the current
        // pattern: a range begins a row, the subtree of its prefix.
        let mut fresh = row.saturating_sub(1);
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
                let decided = self.row();
                debug_assert!(decided <= remaining, "a range ends at a row's end");
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

    /// Decides the current row, every pair above the prefix
    /// `combo[..k - 2]`, and returns how many patterns that is.
    fn row(&mut self) -> u128 {
        let (n, row) = (self.n, self.k - 2);
        // The lowest `t`; with an empty prefix, the level is this one row.
        let first = row.checked_sub(1).map_or(0, |q| self.combo[q] + 1);
        self.listing = self.collecting();
        let certs = self
            .dec
            .prefix_decodes()
            .then(|| self.dec.prefix_certificates().map(padded::<W>));
        match certs {
            Some(certs) if row > 0 && first > self.floor => self.pair_rule(&certs, first),
            certs => {
                let mut extended = [[0; W]; 2];
                for t in first..n - 1 {
                    self.combo[row] = t;
                    let decodes = certs
                        .as_ref()
                        .is_some_and(|certs| self.extend(certs, t, &mut extended));
                    self.tails(decodes.then_some(&extended), t + 1);
                }
            }
        }
        if self.held_len > 0 {
            self.queue_held();
        }
        binomial((n - first) as u64, 2)
    }

    /// Writes two certificates of the prefix plus `t` to `extended`, given
    /// two of the prefix, and returns whether it decodes.
    #[inline(always)]
    fn extend(&mut self, certs: &[[Word; W]; 2], t: usize, extended: &mut [[Word; W]; 2]) -> bool {
        let extended = extended.as_flattened_mut();
        self.rule
            .extend(certs.as_flattened(), t, extended)
            .unwrap_or_else(|| self.dec.peel_extension(t, extended))
    }

    /// Decides the current row by the pair rule, given two certificates of
    /// its prefix, which decodes, and the lowest `t`.
    fn pair_rule(&mut self, certs: &[[Word; W]; 2], first: usize) {
        let (n, row) = (self.n, self.k - 2);
        let [c1, c2] = certs;
        let mut above = [0; W];
        rows::fill_range(&mut above, first, n);
        let hard: [Word; W] = std::array::from_fn(|i| above[i] & (c1[i] | c2[i]));
        let mut decided = 0;
        let mut extended = [[0; W]; 2];
        self.both.clear();
        for t in rows::ones(&hard) {
            self.combo[row] = t;
            let decodes = self.extend(certs, t, &mut extended);
            self.tails(decodes.then_some(&extended), t + 1);
            decided += n - 1 - t;
            if rows::test(c1, t) && rows::test(c2, t) {
                self.both.push((t, decodes, extended[0]));
            }
        }
        for i in 0..self.both.len() {
            let (u, decodes) = (self.both[i].0, self.both[i].1);
            self.combo[row + 1] = u;
            let mut below = [0; W];
            rows::fill_range(&mut below, first, u);
            let heads: [Word; W] = std::array::from_fn(|w| below[w] & !hard[w]);
            let count = rows::count(&heads);
            decided += count;
            if decodes {
                // Every `t` here is above the floor, so covered.
                let inside: [Word; W] = std::array::from_fn(|w| heads[w] & self.both[i].2[w]);
                let hits = rows::count(&inside);
                self.collisions += hits as u64;
                self.reuse_hits += (count - hits) as u64;
                self.queue(row, &inside);
            } else {
                self.shortcuts += count as u64;
                self.fail(row, &heads);
            }
        }
        let pairs = binomial((n - first) as u64, 2) as u64;
        self.reuse_hits += pairs - decided as u64;
    }

    /// Decides the patterns `combo[..k - 1] ∪ {u}` for every `u` from `lo`
    /// on, given two certificates of the prefix, or `None` when it fails.
    /// Collisions are held back, and failures, which are rare, are counted
    /// out of line.
    #[inline(always)]
    fn tails(&mut self, certs: Option<&[[Word; W]; 2]>, lo: usize) {
        let mut range = [0; W];
        rows::fill_range(&mut range, lo, self.n);
        let (inside, failed) = match certs {
            None => {
                self.shortcuts += (self.n - lo) as u64;
                ([0; W], range)
            }
            Some([first, second]) => {
                // Outside either certificate a tail fails iff it fails
                // alone; inside both the lanes decide.
                let inside: [Word; W] = std::array::from_fn(|i| range[i] & first[i] & second[i]);
                let failed = std::array::from_fn(|i| range[i] & !inside[i] & !self.covered[i]);
                let hits = rows::count(&inside) as u64;
                self.collisions += hits;
                self.reuse_hits += (self.n - lo) as u64 - hits;
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
            self.fail(self.k - 1, &failed);
        }
    }

    /// Queues the held collisions on the lanes. Leaves position k − 2 at
    /// the last held `t`: when the hold fills that is the current `t`, and
    /// after a row [`Walk::advance`] rewrites it.
    #[inline(never)]
    fn queue_held(&mut self) {
        // Position k − 2 holds `t`; with one node there is none, and
        // position 0 is the tail's, which `queue` writes anyway.
        let at = self.k.saturating_sub(2);
        for i in 0..std::mem::take(&mut self.held_len) {
            let (t, tails) = self.held[i];
            self.combo[at] = t;
            self.queue(self.k - 1, &tails);
        }
    }

    /// Loads the patterns `combo` with position `at` set to each node of
    /// `nodes` into the next lanes, running the group whenever every lane
    /// is loaded.
    #[inline]
    fn queue(&mut self, at: usize, nodes: &[Word; W]) {
        let mut lane = self.queued.len() / self.k;
        for x in rows::ones(nodes) {
            self.combo[at] = x;
            self.lanes.load(lane, &self.combo);
            self.queued.extend_from_slice(&self.combo);
            lane += 1;
            if lane == LaneDecoder::LANES {
                self.run_lanes();
                lane = 0;
            }
        }
    }

    /// Counts the failing patterns `combo` with position `at` set to each
    /// node of `nodes`, listing them while the row does. A row decides its
    /// patterns out of rank order, so all of them are kept until a trim.
    #[inline(never)]
    fn fail(&mut self, at: usize, nodes: &[Word; W]) {
        self.failures += rows::count(nodes) as u64;
        if self.listing {
            for x in rows::ones(nodes) {
                self.combo[at] = x;
                self.sets.push(self.combo.clone());
            }
            self.bound_sets();
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
            self.bound_sets();
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

    /// The pair rule's floor by brute force: the largest node of a failing
    /// 1-set or smaller node of a failing 2-set, or 0.
    fn brute_floor(g: &Graph) -> usize {
        let fails = [failing_sets(g, 1), failing_sets(g, 2)];
        fails.iter().flatten().map(|s| s[0]).max().unwrap_or(0)
    }

    /// A level's rows as the pair rule sees them, found with the public
    /// decoder API alone.
    #[derive(Debug, Default, PartialEq)]
    struct PairRows {
        /// Rows that take the pair rule.
        pair: usize,
        /// Rows walked a `t` at a time: a failed prefix, or one ending
        /// below the floor.
        per_t: usize,
        /// Over the first kind, the `u` inside both certificates of the
        /// prefix with room for a `t` between them.
        between: usize,
        /// The `t` there outside both certificates of the prefix and inside
        /// the certificate of the prefix and `u`.
        collisions: usize,
        /// How many of those patterns fail.
        failing: usize,
    }

    fn pair_rows(g: &Graph, k: usize) -> PairRows {
        let (n, floor) = (g.num_nodes(), brute_floor(g));
        let mut dec = ErasureDecoder::new(g);
        let mut found = PairRows::default();
        // Every (k − 2)-prefix with two nodes above it.
        let mut it = CombinationIter::new(n - 2, k - 2);
        while let Some(prefix) = it.next_slice() {
            let q = prefix[k - 3];
            dec.begin_pattern(prefix);
            if !dec.prefix_decodes() || q < floor {
                found.per_t += 1;
                continue;
            }
            found.pair += 1;
            let [c1, c2] = dec.prefix_certificates().map(<[Word]>::to_vec);
            let hard = |v: usize| rows::test(&c1, v) || rows::test(&c2, v);
            for u in (q + 2..n).filter(|&u| rows::test(&c1, u) && rows::test(&c2, u)) {
                found.between += 1;
                let mut pattern = prefix.to_vec();
                pattern.push(u);
                dec.begin_pattern(&pattern);
                if !dec.prefix_decodes() {
                    continue;
                }
                let cert = dec.prefix_certificates()[0].to_vec();
                for t in (q + 1..u).filter(|&t| !hard(t) && rows::test(&cert, t)) {
                    found.collisions += 1;
                    let pattern = [prefix, &[t, u]].concat();
                    found.failing += usize::from(!dec.decode(&pattern));
                }
            }
        }
        found
    }

    /// `(rows taking the pair rule, rows walked a t at a time)` over the
    /// levels `3..=max_k`.
    fn row_kinds(g: &Graph, max_k: usize) -> (usize, usize) {
        (3..=max_k)
            .map(|k| pair_rows(g, k))
            .fold((0, 0), |(pair, per_t), rows| {
                (pair + rows.pair, per_t + rows.per_t)
            })
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
        // Each graph with its floor: the orphan's node 2, the mirror's pair
        // {3, 7}; the shared pair begins at node 0, and no node of the last
        // fails alone or in a pair.
        let graphs = [
            (orphan.build().unwrap(), usize::MAX, 2),
            (generate_mirror(4).unwrap(), usize::MAX, 3),
            (shared.build().unwrap(), usize::MAX, 0),
            // 24 nodes, first failure 4: deep enough that certificates
            // collide and inner prefixes are peeled.
            (generate_regular(12, 3, 7).unwrap(), 5, 0),
        ];
        for (g, max_k, floor) in &graphs {
            let n = g.num_nodes();
            assert_eq!(pair_floor::<1>(g), *floor, "n = {n}");
            assert_eq!(brute_floor(g), *floor, "n = {n}");
            for k in 1..=n.min(*max_k) {
                assert_search_matches(g, k, &failing_sets(g, k));
            }
        }
        // The first three walk rows of both kinds: below the floor or under
        // a failed prefix, and by the pair rule.
        for (g, ..) in &graphs[..3] {
            let (pair, per_t) = row_kinds(g, g.num_nodes());
            assert!(pair > 0 && per_t > 0, "{pair} / {per_t}");
        }
        // The last takes the pair rule on every row, and some of its `u`
        // collide with a `t` that fails.
        assert_eq!(row_kinds(&graphs[3].0, 5).1, 0);
        assert!(pair_rows(&graphs[3].0, 4).failing > 0);
        assert_eq!(failing_sets(&graphs[0].0, 1), vec![vec![2]]);
        assert!(failing_sets(&graphs[3].0, 3).is_empty());
        assert_eq!(failing_sets(&graphs[3].0, 4).len(), 20);
    }

    #[test]
    fn full_lane_groups_match_per_pattern_brute_force() {
        // 28 nodes, first failure 4. At k = 5 the level walked as one range
        // peels more than a group of collisions, and every failure under a
        // decoding prefix is a collision (all nodes are covered), so failing
        // lanes sit in full groups. Some of those are the pair rule's: a
        // `t` below a `u` inside both certificates of the prefix.
        let g = generate_regular(14, 3, 1).unwrap();
        let (n, k) = (g.num_nodes(), 5);
        let pair = pair_rows(&g, k);
        assert_eq!(pair.per_t, 0);
        assert!(pair.collisions > 0 && pair.failing > 0, "{pair:?}");
        let full_group_failed = |chunks| {
            row_ranges(n, k, chunks).into_iter().any(|(start, len)| {
                let mut dec = ErasureDecoder::new(&g);
                let mut lanes = LaneDecoder::new(&g);
                lanes.set_recording(true);
                let mut walk = Walk::<1>::new(&g, &mut dec, &mut lanes, k, 0, 0);
                walk.run(start, len, |_| {});
                // The last group holds the collisions past the full ones;
                // more lane failures than that means a full group had some.
                let partial = walk.collisions % LaneDecoder::LANES as u64;
                walk.lanes.take_cells()[cells::FAILURES] > partial
                    && walk.collisions >= LaneDecoder::LANES as u64
            })
        };
        assert!(
            full_group_failed(1),
            "the level ran no full group that failed"
        );
        let expected = failing_sets(&g, k);
        assert_eq!(expected.len(), 457);
        assert_search_matches(&g, k, &expected);
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
            // Cap 0 counts whole failed subtrees by binomial, the small caps
            // switch from listing to counting midway, no cap lists every
            // failure.
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

    /// Walks the ranges of `row_ranges(n, k, chunks)` in order on one pair
    /// of decoders, as one worker does, with `W`-word rows. Returns the
    /// failures, the kept sets (every range's, concatenated and cut to
    /// `cap`) and the verdict split: reuse hits, collisions, shortcuts.
    fn walk_split<const W: usize>(
        g: &Graph,
        k: usize,
        chunks: usize,
        cap: usize,
    ) -> (u64, Vec<Vec<usize>>, [u64; 3]) {
        let mut dec = ErasureDecoder::new(g);
        let mut lanes = LaneDecoder::new(g);
        let floor = pair_floor::<W>(g);
        let (mut failures, mut sets, mut split) = (0, Vec::new(), [0; 3]);
        for (start, len) in row_ranges(g.num_nodes(), k, chunks) {
            let mut walk = Walk::<W>::new(g, &mut dec, &mut lanes, k, floor, cap);
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
    fn whole_row_ranges_match_brute_force() {
        // From one range up to one row a range. The verdict split must not
        // depend on the split into ranges, and rows wider than the graph
        // needs must not change a count.
        let graphs = [
            generate_regular(12, 3, 7).unwrap(),
            generate_regular(14, 3, 1).unwrap(),
        ];
        for g in &graphs {
            let n = g.num_nodes();
            assert_eq!(row_ranges(n, 2, 8), [(0, binomial(n as u64, 2))]);
            for k in 3..=5 {
                let expected = failing_sets(g, k);
                if n == 28 && k < 5 {
                    // The other cases are `walk_matches_per_pattern_brute_force`
                    // and `full_lane_groups_match_per_pattern_brute_force`.
                    assert_search_matches(g, k, &expected);
                }
                let every = binomial(n as u64, k as u64);
                let rows = binomial(n as u64 - 2, k as u64 - 2) as usize;
                let mut whole = None;
                for chunks in [1, 64, every as usize] {
                    // The ranges partition the level, each from a row's first
                    // pattern; one a pattern leaves one a row.
                    let ranges = row_ranges(n, k, chunks);
                    let mut next = 0;
                    for &(start, len) in &ranges {
                        assert_eq!(start, next);
                        let c = unrank(n, k, start);
                        assert_eq!([c[k - 2], c[k - 1]], [c[k - 3] + 1, c[k - 3] + 2]);
                        next += len;
                    }
                    assert_eq!(next, every);
                    assert_eq!(ranges.len() == rows, chunks as u128 == every);
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
            // Only node 0 and its check fail as a pair.
            assert_eq!(pair_floor::<4>(&g), brute_floor(&g), "n = {n}");
            let expected = failing_sets(&g, 3);
            assert!(!expected.is_empty(), "n = {n}");
            assert_search_matches(&g, 3, &expected);
            // The same walk on rows wider than needed.
            let kept = expected.len().min(7);
            let wide = walk_split::<4>(&g, 3, 64, 7);
            assert_eq!(wide.0, expected.len() as u64, "n = {n}");
            assert_eq!(wide.1, expected[..kept], "n = {n}");
        }
        // 65 mirrored pairs: the floor, 64, is the first node of the second
        // word, so rows below it are walked a `t` at a time and rows above
        // it by the pair rule, both across the boundary.
        let g = generate_mirror(65).unwrap();
        assert_eq!(pair_floor::<4>(&g), 64);
        let rows = pair_rows(&g, 3);
        assert_eq!((rows.pair, rows.per_t), (64, 64));
        assert_search_matches(&g, 3, &failing_sets(&g, 3));
    }

    #[test]
    fn graph_1_pair_rule_matches_its_certificate() {
        // The catalogue's graph 1 survives any four losses (its k = 5 and 6
        // counts are re-derived under `--ignored` in tornado-core); brute
        // force at k = 4 is 3.3 M decodes, so the certificate is the
        // expectation. Every row takes the pair rule, and 1,335 of its `u`
        // inside both certificates of a prefix have a `t` below them.
        let xml = include_str!("../../core/assets/tornado_graph_1.graphml");
        let g = tornado_graph::graphml::from_graphml(xml).unwrap();
        assert_eq!(pair_floor::<2>(&g), 0);
        let rows = PairRows {
            pair: 4_371,
            per_t: 0,
            between: 1_335,
            collisions: 1_605,
            failing: 0,
        };
        assert_eq!(pair_rows(&g, 4), rows);
        assert_search_matches(&g, 4, &[]);
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
