//! Availability-only peeling for the fault-tolerance simulator.
//!
//! # The bit-row kernel
//!
//! The exhaustive `C(96, k)` search and the Monte-Carlo suite call the
//! decoder hundreds of millions of times, so a trial keeps no state that
//! has to be built up or torn down:
//!
//! * **The pattern is a row.** The missing set is one bit row of
//!   ⌈n/64⌉ words; check `c`'s equation — `c` and its left neighbours —
//!   is another ([`tornado_graph::ParityRows`], built once per graph). A
//!   check can act iff *exactly one* node of its equation is missing, and
//!   that node is the one it recovers: a present check peels its missing
//!   neighbour, a missing check with every neighbour present is
//!   re-encoded. That is `popcount(missing & equation[c]) == 1`, computed
//!   when the check is examined — there are no per-check counters, and
//!   starting a trial is zeroing the row.
//! * **The worklist is a row too.** Recovering node `v` ORs in the row of
//!   checks whose equation contains `v`; the loop takes the lowest pending
//!   check until none is left. A check is examined once per wake-up, never
//!   pushed twice.
//! * **Prefixes are decided by certificate.** A *certificate* of a pattern
//!   that decodes is the union of the equations that act in one recovery
//!   of it: every node that recovery reads or rebuilds.
//!   [`ErasureDecoder::begin_pattern`] keeps, for each leading part of the
//!   current prefix, whether it decodes and two certificates, and three
//!   structural facts (proved in `DESIGN.md`) let it and
//!   [`ErasureDecoder::decode_tail`] answer without peeling:
//!   - *Failure monotonicity*: erasing more nodes never helps, so whatever
//!     extends a failed prefix fails, in O(1).
//!   - *Certificate disjointness*: nodes outside a certificate of `P`
//!     leave that recovery of `P` intact, so the verdict of `P ∪ T` equals
//!     a plain decode of `T` alone.
//!   - *Certificate union*: when `T` is one node `t`, that decode is a
//!     table lookup — `t` recovers iff some equation contains it — and the
//!     equation joins the certificate, so prefixes grow a node at a time
//!     without the kernel.
//!
//!   Only a node inside *both* certificates is peeled. The worst-case
//!   search (`tornado_sim::worst_case`) reads the same artifacts through
//!   [`ErasureDecoder::prefix_decoding`] and
//!   [`ErasureDecoder::prefix_certificates`], takes the last prefix
//!   position itself by the same [`OneNodeRule`], and decides all tails of
//!   a prefix with one mask and whole failed subtrees with one binomial.
//!
//! [`ErasureDecoder::decode_detailed`] records the recovery schedule the
//! store replays with real XOR; it examines checks in the depth-first
//! order the schedule has always had (which fixes what a repair reads),
//! with the same on-demand test.
//!
//! The counter-per-check formulation is retained as `DenseDecoder` in the
//! crate's test code (`tests/oracle/mod.rs`), the parity oracle of the
//! property suite.

use crate::metrics::{cells, DecodeRecorder};
use tornado_bitset::rows::{self, Word};
use tornado_graph::{Graph, NodeId, ParityRows};

/// One recovery action taken by the peeling decoder, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStep {
    /// `node` (a left neighbour of `via`) was recovered by XORing `via` with
    /// its other left neighbours.
    Peel {
        /// The node recovered.
        node: NodeId,
        /// The check node that enabled the recovery.
        via: NodeId,
    },
    /// Check node `node` was regenerated by re-encoding from its (fully
    /// present) left neighbours.
    Reencode {
        /// The check node regenerated.
        node: NodeId,
    },
}

impl RecoveryStep {
    /// The node this step rebuilds and the check whose neighbourhood it
    /// reads: a peel XORs check `via` with `via`'s other neighbours; a
    /// re-encode XORs the neighbours of the check it regenerates (so the
    /// check is the node itself).
    pub fn node_and_check(&self) -> (NodeId, NodeId) {
        match *self {
            RecoveryStep::Peel { node, via } => (node, via),
            RecoveryStep::Reencode { node } => (node, node),
        }
    }
}

/// Detailed outcome of a peeling run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeDetail {
    /// Whether every data node ended up available.
    pub success: bool,
    /// Data nodes still missing at fixpoint (empty iff `success`).
    pub lost_data: Vec<NodeId>,
    /// All nodes still missing at fixpoint (data and check).
    pub lost_nodes: Vec<NodeId>,
    /// The recovery schedule; replaying these steps with real XOR blocks is
    /// exactly what [`crate::Codec::decode`] does.
    pub schedule: Vec<RecoveryStep>,
}

/// Aggregate result of [`ErasureDecoder::decode_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Patterns decoded.
    pub trials: u64,
    /// Patterns for which reconstruction failed.
    pub failures: u64,
}

/// Reusable peeling decoder over erasure patterns.
///
/// Holds two scratch rows sized to one graph; a decode trial does no
/// allocation and no per-trial reset beyond zeroing them, making exhaustive
/// `C(96, k)` searches cheap.
///
/// ```
/// use tornado_graph::GraphBuilder;
/// use tornado_codec::ErasureDecoder;
///
/// // data 0..4; checks: 4 = 0^1, 5 = 2^3, 6 = 4^5.
/// let mut b = GraphBuilder::new(4);
/// b.begin_level("c1");
/// b.add_check(&[0, 1]);
/// b.add_check(&[2, 3]);
/// b.begin_level("c2");
/// b.add_check(&[4, 5]);
/// let g = b.build().unwrap();
///
/// let mut dec = ErasureDecoder::new(&g);
/// assert!(dec.decode(&[0]));            // check 4 recovers data 0
/// assert!(dec.decode(&[0, 4]));         // check 6 regenerates 4, then 4 recovers 0
/// assert!(!dec.decode(&[0, 1]));        // both inputs of check 4 gone
/// assert!(dec.decode(&[4, 5, 6]));      // all data present: trivially fine
///
/// // Lexicographic enumeration shares the prefix work:
/// dec.begin_pattern(&[0]);
/// assert!(!dec.decode_tail(&[1]));      // 0,1 closed pair
/// assert!(dec.decode_tail(&[2]));       // 0,2 recovers
/// assert!(dec.decode_tail(&[3]));       // 0,3 recovers
/// ```
pub struct ErasureDecoder<'g> {
    graph: &'g Graph,
    /// Two rows side by side, one allocation: the *missing* set (a node is
    /// available iff its bit is clear) and the checks to examine (again).
    state: Vec<Word>,
    /// The nodes of the last [`ErasureDecoder::begin_pattern`] prefix.
    prefix: Vec<usize>,
    /// How many leading nodes of the prefix decode together: `prefix[..j]`
    /// decodes iff `j <= decoding`. A successful full fixpoint recovers
    /// *every* node (data success implies check recoverability level by
    /// level), so what is kept of a prefix that decodes is its
    /// certificates, not a state.
    decoding: usize,
    /// Rows `2j` and `2j + 1`: two certificates of `prefix[..j]`, for
    /// `j <= decoding`. A certificate is the union of the equations that
    /// act in one recovery of the prefix — every node that recovery reads
    /// or rebuilds (so it contains the prefix). Nodes outside it cannot
    /// perturb that recovery. Empty until the first `begin_pattern`.
    ladder: Vec<Word>,
    /// Kernel instrumentation cells (see [`crate::metrics::cells`]).
    /// Disabled by default; every increment is a plain u64 add behind one
    /// predictable branch, so the off path costs nothing measurable.
    rec: DecodeRecorder,
}

/// The live rows of one trial, borrowed apart from the rest of the decoder
/// so a peel can write a certificate beside them.
struct Trial<'a> {
    parity: &'a ParityRows,
    num_data: usize,
    missing: &'a mut [Word],
    pending: &'a mut [Word],
    rec: &'a mut DecodeRecorder,
}

impl<'a> Trial<'a> {
    #[inline]
    fn new(graph: &'a Graph, state: &'a mut [Word], rec: &'a mut DecodeRecorder) -> Self {
        let (missing, pending) = state.split_at_mut(state.len() / 2);
        Trial {
            parity: graph.rows(),
            num_data: graph.num_data(),
            missing,
            pending,
            rec,
        }
    }

    /// Starts a trial with exactly `nodes` missing.
    #[inline]
    fn start(&mut self, nodes: &[usize]) {
        rows::zero(self.missing);
        rows::zero(self.pending);
        self.mark(nodes);
    }

    /// Marks `nodes` missing and queues the checks whose equation contains
    /// them. Idempotent, so duplicates in a pattern are harmless.
    #[inline]
    fn mark(&mut self, nodes: &[usize]) {
        for &m in nodes {
            rows::set(self.missing, m);
            rows::or_assign(self.pending, self.parity.wakes.row(m));
        }
    }

    /// Whether every data node is available right now.
    #[inline]
    fn data_complete(&self) -> bool {
        !rows::intersects(self.missing, &self.parity.data)
    }

    /// Runs peeling to fixpoint (or until all data is recovered when
    /// `early_exit` is set), calling `on_step(check, node)` for every node
    /// recovered. Returns whether all data nodes are available.
    #[inline]
    fn run(&mut self, early_exit: bool, mut on_step: impl FnMut(usize, usize)) -> bool {
        if early_exit && self.data_complete() {
            return true;
        }
        while let Some(c) = rows::take_lowest(self.pending) {
            let Some(v) = rows::sole_common(self.missing, self.parity.equation.row(c)) else {
                continue;
            };
            self.rec.inc(cells::RECOVERIES);
            rows::clear(self.missing, v);
            rows::or_assign(self.pending, self.parity.wakes.row(v));
            // `c`'s own equation is now complete; it has nothing left to do.
            rows::clear(self.pending, c);
            on_step(c, v);
            if early_exit && v < self.num_data && self.data_complete() {
                return true;
            }
        }
        self.data_complete()
    }
}

/// The one-node rule: two certificates of `P ∪ {t}` from two of a pattern
/// `P` that decodes, unless `t` lies inside both.
///
/// * `t` outside a certificate leaves that recovery intact, after which
///   `t` is missing alone: `P ∪ {t}` decodes iff `t` is covered, and the
///   certificate plus one equation through `t` (`ParityRows::solved`)
///   certifies it (certificate union, see `DESIGN.md`). A recovery that
///   reads `t` is replaced by the one that does not.
/// * `t` inside both needs `P ∪ {t}` peeled
///   ([`ErasureDecoder::peel_extension`]).
///
/// [`ErasureDecoder::begin_pattern`] extends its prefix by this rule; the
/// worst-case search takes the last position of every prefix by it, on
/// rows of its own.
#[derive(Clone, Copy, Debug)]
pub struct OneNodeRule<'g> {
    parity: &'g ParityRows,
}

impl<'g> OneNodeRule<'g> {
    /// The rule over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            parity: graph.rows(),
        }
    }

    /// Writes two certificates of `P ∪ {t}` to `longer`, given two of `P`
    /// in `shorter`, and returns whether `P ∪ {t}` decodes; `None` when
    /// `t` lies inside both. `longer` is meaningless unless it decodes.
    ///
    /// Each argument holds its two rows side by side. Rows may be wider
    /// than [`rows::words_for`] of the node count; the words above it are
    /// written as zero when `shorter`'s are.
    #[inline(always)]
    pub fn extend(&self, shorter: &[Word], t: usize, longer: &mut [Word]) -> Option<bool> {
        let width = shorter.len() / 2;
        let hit = [0, width].map(|at| rows::test(&shorter[at..][..width], t));
        if hit[0] && hit[1] {
            return None;
        }
        if !rows::test(&self.parity.covered, t) {
            return Some(false);
        }
        for (x, longer) in longer.chunks_exact_mut(width).enumerate() {
            let base = &shorter[(x ^ usize::from(hit[x])) * width..][..width];
            let solved = self.parity.solved.row(2 * t + x);
            for (i, longer) in longer.iter_mut().enumerate() {
                *longer = base[i] | solved.get(i).copied().unwrap_or(0);
            }
        }
        Some(true)
    }
}

impl<'g> ErasureDecoder<'g> {
    /// Creates a decoder bound to `graph`, initialised as if
    /// [`ErasureDecoder::begin_pattern`] had been called with an empty
    /// prefix.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            state: vec![0; 2 * rows::words_for(graph.num_nodes())],
            prefix: Vec::new(),
            decoding: 0,
            ladder: Vec::new(),
            rec: DecodeRecorder::disabled(),
        }
    }

    /// The graph this decoder runs over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Turns kernel instrumentation on or off (off by default). Counts
    /// accumulate in plain per-decoder cells; drain them with
    /// [`ErasureDecoder::take_cells`] at batch boundaries and merge into a
    /// [`crate::DecodeMetrics`].
    pub fn set_recording(&mut self, on: bool) {
        self.rec.set_enabled(on);
    }

    /// Whether kernel instrumentation is currently on.
    pub fn recording_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Current instrumentation cell values (indexed by
    /// [`crate::metrics::cells`]).
    pub fn cells(&self) -> &[u64; cells::COUNT] {
        self.rec.cells()
    }

    /// Drains the instrumentation cells to zero, returning the counts
    /// accumulated since the last drain.
    pub fn take_cells(&mut self) -> [u64; cells::COUNT] {
        self.rec.take()
    }

    /// Words per row.
    #[inline]
    fn width(&self) -> usize {
        self.state.len() / 2
    }

    /// Makes `prefix` the current prefix and derives what lets
    /// [`ErasureDecoder::decode_tail`] evaluate `prefix ∪ tail` without
    /// re-peeling it: whether it decodes, and two certificates of its
    /// recovery.
    ///
    /// What the new prefix shares with the previous one is kept, and the
    /// rest is derived a node at a time, mostly without peeling either: a
    /// prefix that fails stays failed however it is extended (failure
    /// monotonicity), and one that decodes grows by the [`OneNodeRule`],
    /// which peels only a node inside *both* certificates.
    ///
    /// A lexicographic sweep therefore pays for the position that moved.
    pub fn begin_pattern(&mut self, prefix: &[usize]) {
        let shared = self
            .prefix
            .iter()
            .zip(prefix)
            .take_while(|(a, b)| a == b)
            .count();
        self.prefix.truncate(shared);
        self.decoding = self.decoding.min(shared);
        let rows_needed = 2 * (prefix.len() + 1) * self.width();
        if self.ladder.len() < rows_needed {
            self.ladder.resize(rows_needed, 0);
        }
        for &t in &prefix[shared..] {
            self.extend_prefix(t);
        }
    }

    /// Appends `t` to the prefix, deriving the longer prefix's verdict and
    /// certificates from the shorter one's.
    fn extend_prefix(&mut self, t: usize) {
        let (j, width) = (self.prefix.len(), self.width());
        if self.decoding < j {
            self.prefix.push(t);
            return;
        }
        let (shorter, longer) = self.ladder.split_at_mut(2 * (j + 1) * width);
        let extended = OneNodeRule::new(self.graph).extend(
            &shorter[2 * j * width..],
            t,
            &mut longer[..2 * width],
        );
        let decodes = extended.unwrap_or_else(|| {
            // The peel borrows the decoder beside the rows it writes, so the
            // ladder is lent out (moving three words).
            let mut ladder = std::mem::take(&mut self.ladder);
            let decodes = self.peel_extension(t, &mut ladder[2 * (j + 1) * width..][..2 * width]);
            self.ladder = ladder;
            decodes
        });
        self.prefix.push(t);
        if decodes {
            self.decoding = j + 1;
        }
    }

    /// The current prefix plus `t`, for a `t` inside both certificates of
    /// the prefix (where [`OneNodeRule::extend`] returns `None`): peels it
    /// to full fixpoint, writes the union of the equations that acted to
    /// both rows of `longer` (side by side), and returns whether it
    /// decodes. Counts a prefix begin.
    ///
    /// The prefix must decode. Rows may be wider than the graph's
    /// [`rows::words_for`]; the words above it are written as zero.
    #[cold]
    pub fn peel_extension(&mut self, t: usize, longer: &mut [Word]) -> bool {
        debug_assert!(self.prefix_decodes(), "the prefix must decode");
        self.rec.inc(cells::PREFIX_BEGINS);
        let parity = self.graph.rows();
        let (first, second) = longer.split_at_mut(longer.len() / 2);
        rows::zero(first);
        let mut trial = Trial::new(self.graph, &mut self.state, &mut self.rec);
        trial.start(&self.prefix);
        trial.mark(&[t]);
        // Full fixpoint (no early exit): success must mean every node was
        // recovered, so the recovery replays to a clean state.
        let success = trial.run(false, |c, _| rows::or_assign(first, parity.equation.row(c)));
        debug_assert!(
            !success || rows::is_empty(trial.missing),
            "successful full fixpoint must recover every node"
        );
        second.copy_from_slice(first);
        success
    }

    /// Whether the last [`ErasureDecoder::begin_pattern`] prefix decodes on
    /// its own. When it does not, no superset does either.
    #[inline]
    pub fn prefix_decodes(&self) -> bool {
        self.decoding == self.prefix.len()
    }

    /// How many leading nodes of the last [`ErasureDecoder::begin_pattern`]
    /// prefix decode together: the whole length when it decodes, else the
    /// length of the longest leading part that still does.
    #[inline]
    pub fn prefix_decoding(&self) -> usize {
        self.decoding
    }

    /// Two certificates of the last [`ErasureDecoder::begin_pattern`]
    /// prefix, as bit rows over node ids: a node outside *either* row
    /// leaves one recovery of the prefix intact. Meaningful only while
    /// [`ErasureDecoder::prefix_decodes`].
    ///
    /// # Panics
    /// Panics before the first `begin_pattern`.
    #[inline]
    pub fn prefix_certificates(&self) -> [&[Word]; 2] {
        let width = self.width();
        let rows = &self.ladder[2 * self.prefix.len() * width..][..2 * width];
        let (first, second) = rows.split_at(width);
        [first, second]
    }

    /// Returns the verdict of decoding `prefix ∪ tail` (prefix from the
    /// last [`ErasureDecoder::begin_pattern`]). Allocation-free, and O(tail
    /// · degree) on the common path:
    ///
    /// * Failed prefix → `false` immediately (failure monotonicity: a
    ///   superset of a losing erasure is still losing).
    /// * Successful prefix and tail disjoint from one of its certificates
    ///   → that recovery of the prefix replays verbatim under the larger
    ///   erasure and clears all prefix nodes, so the verdict equals a plain
    ///   decode of the tail alone from a clean state.
    /// * Otherwise → decode of `prefix ∪ tail`.
    ///
    /// After this call the live state reflects the trial actually run (the
    /// residual tail decode on the fast path), so per-node queries should
    /// use [`ErasureDecoder::decode_detailed`] instead.
    pub fn decode_tail(&mut self, tail: &[usize]) -> bool {
        self.rec.inc(cells::TRIALS);
        if !self.prefix_decodes() {
            self.rec.inc(cells::MONOTONE_SHORTCUTS);
            self.rec.inc(cells::FAILURES);
            return false;
        }
        // Nothing collides with the empty prefix of a fresh decoder.
        let hits = |cert: &&[Word]| tail.iter().any(|&t| rows::test(cert, t));
        let collides = !self.ladder.is_empty() && self.prefix_certificates().iter().all(hits);
        self.rec.inc(if collides {
            cells::PREFIX_COLLISIONS
        } else {
            cells::PREFIX_REUSE_HITS
        });
        let ok = if let (false, &[t]) = (collides, tail) {
            // One node missing alone needs no peeling.
            rows::test(&self.graph.rows().covered, t)
        } else {
            let mut trial = Trial::new(self.graph, &mut self.state, &mut self.rec);
            trial.start(if collides { &self.prefix } else { &[] });
            trial.mark(tail);
            trial.run(true, |_, _| {})
        };
        if !ok {
            self.rec.inc(cells::FAILURES);
        }
        ok
    }

    /// Decodes `patterns` in order, reusing the prefix artifacts across
    /// consecutive patterns that share leading elements (e.g. a
    /// lexicographic `C(n, k)` enumeration). Invokes `on_fail` with each
    /// failing pattern.
    pub fn decode_batch<I, P>(
        &mut self,
        patterns: I,
        mut on_fail: impl FnMut(&[usize]),
    ) -> BatchStats
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[usize]>,
    {
        let mut stats = BatchStats::default();
        for pattern in patterns {
            let pattern = pattern.as_ref();
            stats.trials += 1;
            let (prefix, tail) = pattern.split_at(pattern.len().saturating_sub(1));
            self.begin_pattern(prefix);
            if !self.decode_tail(tail) {
                stats.failures += 1;
                on_fail(pattern);
            }
        }
        stats
    }

    /// Decodes one erasure pattern; returns whether reconstruction succeeds
    /// (all data nodes recoverable). Allocation-free, and pays none of the
    /// prefix bookkeeping — prefix artifacts from an earlier
    /// [`ErasureDecoder::begin_pattern`] are untouched and remain valid.
    #[inline]
    pub fn decode(&mut self, missing: &[usize]) -> bool {
        self.rec.inc(cells::TRIALS);
        let mut trial = Trial::new(self.graph, &mut self.state, &mut self.rec);
        trial.start(missing);
        let ok = trial.run(true, |_, _| {});
        if !ok {
            self.rec.inc(cells::FAILURES);
        }
        ok
    }

    /// Decodes and reports which nodes stayed lost plus the recovery
    /// schedule (runs to full fixpoint; no early exit).
    ///
    /// The schedule decides what a repair reads, so this path examines
    /// checks depth-first from the erased nodes' neighbourhoods in pattern
    /// order — the order schedules have always had — not lowest-first like
    /// the verdict-only loop. The fixpoint is the same either way.
    pub fn decode_detailed(&mut self, missing: &[usize]) -> DecodeDetail {
        self.rec.inc(cells::TRIALS);
        let graph = self.graph;
        let equation = &graph.rows().equation;
        let trial = Trial::new(graph, &mut self.state, &mut self.rec);
        let lost = trial.missing;
        rows::zero(lost);
        let mut erased: Vec<NodeId> = Vec::with_capacity(missing.len());
        for &m in missing {
            if !rows::test(lost, m) {
                rows::set(lost, m);
                erased.push(m as NodeId);
            }
        }
        // A check can act iff exactly one node of its equation is missing.
        let actionable = |lost: &[Word], c: &&NodeId| {
            rows::sole_common(lost, equation.row(**c as usize)).is_some()
        };
        // Only a check that is erased or next to an erased node can act.
        let mut stack: Vec<NodeId> = Vec::new();
        for &m in &erased {
            let own = graph.is_check(m).then_some(m);
            stack.extend(
                own.iter()
                    .chain(graph.checks_of(m))
                    .filter(|c| actionable(lost, c)),
            );
        }
        let mut schedule = Vec::new();
        while let Some(c) = stack.pop() {
            let Some(v) = rows::sole_common(lost, equation.row(c as usize)) else {
                continue;
            };
            let node = v as NodeId;
            trial.rec.inc(cells::RECOVERIES);
            rows::clear(lost, v);
            schedule.push(if node == c {
                RecoveryStep::Reencode { node }
            } else {
                RecoveryStep::Peel { node, via: c }
            });
            // A check that just became available may immediately peel.
            let own = graph.is_check(node).then_some(node);
            let woken = graph.checks_of(node).iter().chain(own.iter());
            stack.extend(woken.filter(|c| actionable(lost, c)));
        }
        let lost_nodes: Vec<NodeId> = rows::ones(lost).map(|n| n as NodeId).collect();
        let lost_data: Vec<NodeId> = lost_nodes
            .iter()
            .copied()
            .filter(|&n| graph.is_data(n))
            .collect();
        let success = lost_data.is_empty();
        if !success {
            self.rec.inc(cells::FAILURES);
        }
        DecodeDetail {
            success,
            lost_data,
            lost_nodes,
            schedule,
        }
    }

    /// Availability of `node` after the last decode call.
    pub fn is_available(&self, node: NodeId) -> bool {
        !rows::test(&self.state[..self.width()], node as usize)
    }
}

/// The initially-available nodes consumed by the derivation of `target` in
/// `detail` (produced by [`ErasureDecoder::decode_detailed`]): the same
/// backward walk the retrieval planner performs, restricted to one node.
///
/// Soundness property used by the minimum-distance search and the
/// federation escalation: any erasure superset that still blocks `target`
/// must erase at least one certificate node — otherwise the recorded
/// derivation would still recover it. Empty iff `target` was never
/// erased (trivially available).
pub fn recovery_certificate(graph: &Graph, detail: &DecodeDetail, target: NodeId) -> Vec<NodeId> {
    use std::collections::BTreeSet;
    let mut needed: BTreeSet<NodeId> = BTreeSet::new();
    needed.insert(target);
    let mut produced: BTreeSet<NodeId> = BTreeSet::new();
    for step in detail.schedule.iter().rev() {
        match *step {
            RecoveryStep::Peel { node, via } => {
                if needed.contains(&node) {
                    produced.insert(node);
                    needed.insert(via);
                    for &nbr in graph.check_neighbors(via) {
                        if nbr != node {
                            needed.insert(nbr);
                        }
                    }
                }
            }
            RecoveryStep::Reencode { node } => {
                if needed.contains(&node) {
                    produced.insert(node);
                    for &nbr in graph.check_neighbors(node) {
                        needed.insert(nbr);
                    }
                }
            }
        }
    }
    needed
        .into_iter()
        .filter(|n| !produced.contains(n) && *n != target)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    /// 4 data, checks 4 = 0^1, 5 = 2^3, 6 = 4^5 (two levels).
    fn cascade() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn no_erasures_succeeds() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        assert!(d.decode(&[]));
    }

    #[test]
    fn single_data_loss_recovers() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        for v in 0..4 {
            assert!(d.decode(&[v]), "data node {v} should recover");
        }
    }

    #[test]
    fn check_losses_do_not_matter_for_data() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        assert!(d.decode(&[4, 5, 6]));
    }

    #[test]
    fn cascaded_reencode_then_peel() {
        // Lose data 0 and check 4: check 6 (present, one missing neighbour)
        // peels 4 back, then 4 recovers 0. Re-encoding 4 directly is not
        // possible because its input 0 is missing.
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let detail = d.decode_detailed(&[0, 4]);
        assert!(detail.success);
        assert_eq!(
            detail.schedule,
            vec![
                RecoveryStep::Peel { node: 4, via: 6 },
                RecoveryStep::Peel { node: 0, via: 4 },
            ]
        );
    }

    #[test]
    fn reencode_step_regenerates_missing_check() {
        // Lose checks 4 and 6: 4 re-encodes from data, then 6 re-encodes.
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let detail = d.decode_detailed(&[4, 6]);
        assert!(detail.success);
        assert!(detail.lost_nodes.is_empty());
        assert!(detail
            .schedule
            .contains(&RecoveryStep::Reencode { node: 4 }));
        assert!(detail
            .schedule
            .contains(&RecoveryStep::Reencode { node: 6 }));
    }

    #[test]
    fn closed_pair_fails() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let detail = d.decode_detailed(&[0, 1]);
        assert!(!detail.success);
        assert_eq!(detail.lost_data, vec![0, 1]);
        // Check 4 is present but permanently blocked (two missing inputs);
        // only the erased nodes stay lost.
        assert_eq!(detail.lost_nodes, vec![0, 1]);
    }

    #[test]
    fn partial_failure_still_recovers_the_rest() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let detail = d.decode_detailed(&[0, 1, 2]);
        assert!(!detail.success);
        assert_eq!(detail.lost_data, vec![0, 1], "data 2 recovered via check 5");
        assert!(d.is_available(2));
    }

    #[test]
    fn duplicate_missing_indices_are_tolerated() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        assert!(d.decode(&[0, 0, 0]));
        assert!(!d.decode(&[0, 0, 1, 1]));
    }

    #[test]
    fn decoder_is_reusable_across_mixed_patterns() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        // Alternate failing and succeeding patterns; stale state would leak.
        for _ in 0..100 {
            assert!(!d.decode(&[2, 3]));
            assert!(d.decode(&[2]));
            assert!(d.decode(&[0, 4]));
            assert!(!d.decode(&[0, 1, 2, 3]));
            assert!(d.decode(&[]));
        }
    }

    #[test]
    fn mirror_graph_semantics() {
        // A mirrored pair: data 0, check 1 = copy of 0.
        let mut b = GraphBuilder::new(1);
        b.begin_level("mirror");
        b.add_check(&[0]);
        let g = b.build().unwrap();
        let mut d = ErasureDecoder::new(&g);
        assert!(d.decode(&[0]), "mirror recovers the data");
        assert!(d.decode(&[1]));
        assert!(!d.decode(&[0, 1]), "losing both copies is fatal");
    }

    #[test]
    fn deep_chain_peels_through_many_levels() {
        // data 0; checks 1=0, 2=1, 3=2, ... each level copies the previous.
        let mut b = GraphBuilder::new(1);
        for i in 0..10u32 {
            b.begin_level(&format!("c{i}"));
            b.add_check(&[i]);
        }
        let g = b.build().unwrap();
        let mut d = ErasureDecoder::new(&g);
        // Only the deepest node survives: recovery must cascade all the way.
        let missing: Vec<usize> = (0..10).collect();
        assert!(d.decode(&missing));
        // Lose everything: unrecoverable.
        let all: Vec<usize> = (0..11).collect();
        assert!(!d.decode(&all));
    }

    #[test]
    fn success_requires_only_data_nodes() {
        // Losing a check that cannot be regenerated must not fail decode if
        // all data is present.
        let mut b = GraphBuilder::new(2);
        b.begin_level("c");
        b.add_check(&[0, 1]); // node 2
        let g = b.build().unwrap();
        let mut d = ErasureDecoder::new(&g);
        let detail = d.decode_detailed(&[2]);
        assert!(detail.success);
        // And the check is actually regenerated at fixpoint.
        assert!(detail.lost_nodes.is_empty());
        assert_eq!(detail.schedule, vec![RecoveryStep::Reencode { node: 2 }]);
    }

    // ------------------------------------------------------------------
    // Prefix-reuse API
    // ------------------------------------------------------------------

    #[test]
    fn decode_tail_matches_one_shot_decode() {
        let g = cascade();
        let mut shared = ErasureDecoder::new(&g);
        let mut oracle = ErasureDecoder::new(&g);
        let n = g.num_nodes();
        for a in 0..n {
            shared.begin_pattern(&[a]);
            for b in 0..n {
                assert_eq!(
                    shared.decode_tail(&[b]),
                    oracle.decode(&[a, b]),
                    "pattern [{a}, {b}] diverged from one-shot decode"
                );
            }
        }
    }

    #[test]
    fn decode_tail_trials_are_independent() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[0, 4]); // prefix whose recovery peels through 6
                                  // Run a failing and a succeeding tail, interleaved, many times:
                                  // any state leak between trials shows up as a changed verdict.
        for _ in 0..50 {
            assert!(!d.decode_tail(&[1]), "[0, 4, 1] closes the pair 0,1");
            assert!(d.decode_tail(&[5]), "[0, 4, 5] still recovers");
            assert!(d.decode_tail(&[]), "prefix alone recovers");
        }
    }

    #[test]
    fn failed_prefix_makes_every_tail_fail() {
        // Failure monotonicity: [0, 1] is a closed pair, so every superset
        // loses too — decode_tail must short-circuit without peeling.
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[0, 1]);
        assert!(!d.decode_tail(&[]));
        for t in 0..g.num_nodes() {
            assert!(!d.decode_tail(&[t]), "tail [{t}] of a failed prefix");
        }
    }

    #[test]
    fn tail_hitting_prefix_certificate_takes_slow_path() {
        // Mirrored pair: data 0, check 1 = copy. Prefix [0] recovers via
        // check 1, so used = {1}. The tail [1] collides with the used set:
        // the residual fast path alone (decode([1]) succeeds) would be
        // wrong, because the full pattern [0, 1] is fatal.
        let mut b = GraphBuilder::new(1);
        b.begin_level("mirror");
        b.add_check(&[0]);
        let g = b.build().unwrap();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[0]);
        assert!(d.decode_tail(&[]), "prefix alone recovers via the copy");
        assert!(!d.decode_tail(&[1]), "losing the copy too is fatal");
        assert!(
            d.decode_tail(&[0]),
            "tail duplicating the prefix is a no-op"
        );
    }

    #[test]
    fn empty_prefix_decode_tail_is_plain_decode() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[]);
        assert!(d.decode_tail(&[0]));
        assert!(!d.decode_tail(&[0, 1]));
        assert!(d.decode_tail(&[]));
    }

    #[test]
    fn duplicate_tail_of_prefix_node_is_tolerated() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[0]);
        assert!(
            d.decode_tail(&[0]),
            "tail duplicating the prefix is a no-op"
        );
        assert!(!d.decode_tail(&[1]));
    }

    #[test]
    fn plain_decode_between_tails_leaves_prefix_artifacts_valid() {
        // decode() rebuilds only the live state; the prefix verdict, node
        // list, and used set are read-only artifacts, so interleaving
        // one-shot decodes must not perturb decode_tail results.
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.begin_pattern(&[0]);
        assert!(!d.decode_tail(&[1]));
        assert!(d.decode(&[2]));
        assert!(!d.decode(&[2, 3]));
        assert!(
            !d.decode_tail(&[1]),
            "same verdict after interleaved decodes"
        );
        assert!(d.decode_tail(&[2]));
    }

    #[test]
    fn decode_batch_counts_and_reports_failures() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let patterns: Vec<Vec<usize>> = vec![
            vec![0, 1], // fail
            vec![0, 2],
            vec![0, 3],
            vec![2, 3], // fail
            vec![4, 6],
        ];
        let mut failed: Vec<Vec<usize>> = Vec::new();
        let stats = d.decode_batch(patterns.iter().map(|p| p.as_slice()), |p| {
            failed.push(p.to_vec());
        });
        assert_eq!(
            stats,
            BatchStats {
                trials: 5,
                failures: 2
            }
        );
        assert_eq!(failed, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn decode_batch_handles_empty_and_len_one_patterns() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        let patterns: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1]];
        let stats = d.decode_batch(patterns, |_| {});
        assert_eq!(
            stats,
            BatchStats {
                trials: 3,
                failures: 0
            }
        );
    }

    // ------------------------------------------------------------------
    // Kernel instrumentation
    // ------------------------------------------------------------------

    #[test]
    fn recording_is_off_by_default_and_counts_nothing() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        assert!(!d.recording_enabled());
        assert!(d.decode(&[0]));
        assert!(!d.decode(&[0, 1]));
        d.begin_pattern(&[0]);
        d.decode_tail(&[2]);
        assert_eq!(*d.cells(), [0u64; cells::COUNT]);
    }

    #[test]
    fn recording_counts_trials_and_failures_exactly() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        assert!(d.decode(&[0]));
        assert!(!d.decode(&[0, 1]));
        assert!(!d.decode(&[2, 3]));
        let detail = d.decode_detailed(&[0, 1]);
        assert!(!detail.success);
        let c = d.cells();
        assert_eq!(c[cells::TRIALS], 4);
        assert_eq!(c[cells::FAILURES], 3);
        assert!(c[cells::RECOVERIES] > 0, "decode(&[0]) peeled node 0 back");
    }

    #[test]
    fn prefix_begin_is_not_a_trial() {
        // Acceptance-critical: the worst-case search's trial count must be
        // exactly sum_k C(n, k); begin_pattern's internal fixpoint decode
        // counts as a prefix begin, never a trial.
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        // One node is derived without the kernel; check 4 is what recovers
        // data 0, so adding it collides and the pair is peeled.
        d.begin_pattern(&[0]);
        assert_eq!(d.cells()[cells::PREFIX_BEGINS], 0);
        d.begin_pattern(&[0, 4]);
        let c = d.cells();
        assert_eq!(c[cells::PREFIX_BEGINS], 1);
        assert_eq!(c[cells::TRIALS], 0);
        assert!(c[cells::RECOVERIES] >= 2, "the peel recovered both nodes");
        d.decode_tail(&[2]);
        d.decode_tail(&[3]);
        let c = d.cells();
        assert_eq!(c[cells::TRIALS], 2);
        assert_eq!(c[cells::PREFIX_BEGINS], 1);
    }

    #[test]
    fn lex_sweep_records_prefix_reuse_hits() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        let n = g.num_nodes();
        let mut trials = 0u64;
        for a in 0..n {
            d.begin_pattern(&[a]);
            for b in (a + 1)..n {
                d.decode_tail(&[b]);
                trials += 1;
            }
        }
        let c = d.cells();
        assert_eq!(c[cells::TRIALS], trials);
        assert!(c[cells::PREFIX_REUSE_HITS] > 0, "{c:?}");
        assert_eq!(
            c[cells::PREFIX_REUSE_HITS]
                + c[cells::PREFIX_COLLISIONS]
                + c[cells::MONOTONE_SHORTCUTS],
            trials,
            "every tail takes exactly one of the three paths: {c:?}"
        );
    }

    #[test]
    fn failed_prefix_tails_count_monotone_shortcuts() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        d.begin_pattern(&[0, 1]); // closed pair: prefix fails
        assert!(!d.decode_tail(&[2]));
        assert!(!d.decode_tail(&[3]));
        let c = d.cells();
        assert_eq!(c[cells::MONOTONE_SHORTCUTS], 2);
        assert_eq!(c[cells::FAILURES], 2);
        assert_eq!(c[cells::TRIALS], 2);
    }

    #[test]
    fn take_cells_drains_to_zero() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        d.decode(&[0]);
        let drained = d.take_cells();
        assert_eq!(drained[cells::TRIALS], 1);
        assert_eq!(*d.cells(), [0u64; cells::COUNT]);
        assert!(d.recording_enabled(), "draining must not disable recording");
        d.decode(&[1]);
        assert_eq!(d.cells()[cells::TRIALS], 1);
    }

    #[test]
    fn recorded_counts_match_batch_stats() {
        let g = cascade();
        let mut d = ErasureDecoder::new(&g);
        d.set_recording(true);
        let patterns: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![2, 3], vec![4, 6]];
        let stats = d.decode_batch(patterns, |_| {});
        let c = d.take_cells();
        assert_eq!(c[cells::TRIALS], stats.trials);
        assert_eq!(c[cells::FAILURES], stats.failures);
    }
}
