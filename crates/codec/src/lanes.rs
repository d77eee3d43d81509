//! Lane-parallel peeling: the Monte-Carlo suites' trial, transposed.
//!
//! [`crate::ErasureDecoder`] holds one pattern as a row of node bits. Random
//! patterns share no prefix, but a suite has many of them, so here the
//! layout is turned on its side: every *node* owns one `[u64; W]`, bit ℓ of
//! it set iff that node is missing in lane ℓ's trial, and one sweep over
//! the graph's adjacency advances 64·W independent patterns. Peeling is
//! confluent, so every lane's verdict equals
//! [`crate::ErasureDecoder::decode`] of its pattern; `DESIGN.md`, "Hot-loop
//! kernel", has the argument and why check order is free here.
//!
//! A settled lane can move either way. [`LaneDecoder::unload`] un-erases
//! nodes and the next settle resumes the peel. [`LaneDecoder::load`] over a
//! settled lane is a restart: the lane misses a subset of what was loaded
//! (its peel rebuilt the rest), so loading a superset of the whole old
//! pattern makes the lane that superset afresh. The whole pattern includes
//! what [`LaneDecoder::load_all`] marked, since a peel can rebuild those
//! nodes too.

use crate::metrics::{cells, DecodeRecorder};
use tornado_bitset::rows;
use tornado_graph::Graph;

/// Words per node, fixed by measurement: the peel alone on catalog graph 1,
/// ns per trial summed over k = 5, 12, 20, 28, 36, 44, 48, came to about
/// 170 at 2 words, 95 at 4, 65 at 8 and 90 at 16. Eight words are two AVX2
/// registers a node under the workspace's `x86-64-v3` target.
const W: usize = 8;

/// One bit per lane: a [`rows`] row over `0..64·W`.
type Lanes = [u64; W];

const NONE: Lanes = [0; W];

#[inline(always)]
fn and(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|i| a[i] & b[i])
}

#[inline(always)]
fn or(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|i| a[i] | b[i])
}

#[inline(always)]
fn and_not(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|i| a[i] & !b[i])
}

/// Peels up to [`LaneDecoder::LANES`] erasure patterns side by side: load
/// one pattern per lane, then [`LaneDecoder::run`] the group. `run` leaves
/// every lane empty again, so groups follow one another with no reset.
/// [`LaneDecoder::settle`] instead keeps every lane at its fixpoint, so a
/// group can [`LaneDecoder::unload`] nodes and settle again: the peel
/// resumes where it stopped, and each verdict is still the fresh one of
/// the shorter pattern (`DESIGN.md`, "Hot-loop kernel"), or
/// [`LaneDecoder::load`] a whole longer pattern over a lane to restart it.
pub struct LaneDecoder<'g> {
    graph: &'g Graph,
    /// `missing[v]`: the lanes whose trial has node `v` missing.
    missing: Vec<Lanes>,
    /// The lanes of the last group that lost data.
    failed: Lanes,
    /// The cells [`crate::ErasureDecoder`] counts into, added to per group.
    rec: DecodeRecorder,
}

impl<'g> LaneDecoder<'g> {
    /// Patterns per group.
    pub const LANES: usize = 64 * W;

    /// Creates a decoder bound to `graph` with every lane empty.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            missing: vec![NONE; graph.num_nodes()],
            failed: NONE,
            rec: DecodeRecorder::disabled(),
        }
    }

    /// Turns kernel instrumentation on or off (off by default); see
    /// [`crate::ErasureDecoder::set_recording`].
    pub fn set_recording(&mut self, on: bool) {
        self.rec.set_enabled(on);
    }

    /// Drains the instrumentation cells to zero, returning the counts
    /// accumulated since the last drain.
    pub fn take_cells(&mut self) -> [u64; cells::COUNT] {
        self.rec.take()
    }

    /// Marks `nodes` missing in `lane`'s trial. Duplicates are harmless.
    #[inline]
    pub fn load<T: Copy + Into<usize>>(&mut self, lane: usize, nodes: &[T]) {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        for &v in nodes {
            rows::set(&mut self.missing[v.into()], lane);
        }
    }

    /// Marks `nodes` present again in `lane`'s trial: known, whether they
    /// were loaded or rebuilt since. Duplicates are harmless.
    #[inline]
    pub fn unload<T: Copy + Into<usize>>(&mut self, lane: usize, nodes: &[T]) {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        for &v in nodes {
            rows::clear(&mut self.missing[v.into()], lane);
        }
    }

    /// Marks `nodes` missing in every lane's trial.
    pub fn load_all(&mut self, nodes: &[usize]) {
        for &v in nodes {
            self.missing[v] = [!0; W];
        }
    }

    /// Peels every lane to its verdict, then empties every lane; returns
    /// how many of the first `group` lanes cannot reconstruct their data.
    pub fn run(&mut self, group: usize) -> u64 {
        let failures = self.settle(group);
        self.clear();
        failures
    }

    /// Empties every lane.
    pub fn clear(&mut self) {
        self.missing.fill(NONE);
    }

    /// Peels every lane to its verdict and returns how many of the first
    /// `group` lanes cannot reconstruct their data. The lanes keep their
    /// fixpoints, so after an [`LaneDecoder::unload`] the next `settle`
    /// resumes the peel instead of starting it over.
    pub fn settle(&mut self, group: usize) -> u64 {
        assert!(
            group <= Self::LANES,
            "group of {group} exceeds {} lanes",
            Self::LANES
        );
        let recoveries = self.peel();
        let mut loaded = NONE;
        rows::fill_range(&mut loaded, 0, group);
        self.failed = and(self.needy(), loaded);
        let failures = rows::count(&self.failed) as u64;
        self.rec.add(cells::TRIALS, group as u64);
        self.rec.add(cells::FAILURES, failures);
        self.rec.add(cells::RECOVERIES, recoveries);
        failures
    }

    /// Whether `lane` of the last settled group lost data.
    pub fn failed(&self, lane: usize) -> bool {
        rows::test(&self.failed, lane)
    }

    /// The lanes that miss a data node right now.
    fn needy(&self) -> Lanes {
        self.missing[..self.graph.num_data()]
            .iter()
            .fold(NONE, |acc, &w| or(acc, w))
    }

    /// Sweeps the checks, deepest first (a rebuilt check serves the
    /// shallower ones in the same sweep), until no lane that still misses
    /// data acted: a lane idle for a whole sweep saw every check against an
    /// unchanged state and is at its fixpoint, and one whose data is back is
    /// `decode`'s early exit. Returns the nodes recovered, counted only
    /// when recording.
    fn peel(&mut self) -> u64 {
        let (graph, record) = (self.graph, self.rec.is_enabled());
        let mut recoveries = 0;
        let mut live = self.needy();
        while live != NONE {
            let mut acted = NONE;
            for c in graph.check_ids().rev() {
                // Fold the equation: `ones` = lanes missing at least one
                // of its nodes, `twos` = at least two.
                let nbrs = graph.check_neighbors(c);
                let mut ones = self.missing[c as usize];
                let mut twos = NONE;
                for &v in nbrs {
                    let w = self.missing[v as usize];
                    twos = or(twos, and(ones, w));
                    ones = or(ones, w);
                }
                // Exactly one missing — the row kernel's `popcount(missing
                // & equation[c]) == 1` — so clearing `act` over the equation
                // recovers, in each acting lane, the one node it lacks.
                let act = and_not(ones, twos);
                if act == NONE {
                    continue;
                }
                for &v in nbrs.iter().chain([&c]) {
                    let w = &mut self.missing[v as usize];
                    *w = and_not(*w, act);
                }
                acted = or(acted, act);
                if record {
                    recoveries += rows::count(&act) as u64;
                }
            }
            live = and(self.needy(), acted);
        }
        recoveries
    }
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
    fn run_leaves_every_lane_empty() {
        let g = cascade();
        let mut lanes = LaneDecoder::new(&g);
        lanes.load(LaneDecoder::LANES - 1, &[0usize, 1]);
        assert_eq!(lanes.run(LaneDecoder::LANES), 1);
        assert!(lanes.failed(LaneDecoder::LANES - 1));
        assert_eq!(lanes.run(LaneDecoder::LANES), 0, "nothing carried over");
        assert!(!lanes.failed(LaneDecoder::LANES - 1));
    }

    #[test]
    fn lanes_past_the_group_are_not_counted() {
        // A pair missing everywhere fails in every lane, loaded or not.
        let g = cascade();
        let mut lanes = LaneDecoder::new(&g);
        lanes.load_all(&[0, 1]);
        lanes.load(0, &[2usize]);
        assert_eq!(lanes.run(1), 1);
        assert!(lanes.failed(0) && !lanes.failed(1));
        lanes.load_all(&[0, 1]);
        assert_eq!(lanes.run(65), 65);
    }

    #[test]
    fn recording_adds_each_group_once() {
        let g = cascade();
        let mut lanes = LaneDecoder::new(&g);
        lanes.load(0, &[0usize]);
        lanes.run(1);
        assert_eq!(lanes.take_cells(), [0; cells::COUNT], "off by default");
        lanes.set_recording(true);
        lanes.load(0, &[0usize, 4]); // check 6 rebuilds 4, check 4 recovers 0
        lanes.load(1, &[0usize, 1]); // nothing can act
        lanes.load(70, &[2usize]); // check 5 recovers 2
        assert_eq!(lanes.run(71), 1);
        let mut expected = [0; cells::COUNT];
        expected[cells::TRIALS] = 71;
        expected[cells::FAILURES] = 1;
        expected[cells::RECOVERIES] = 3;
        assert_eq!(lanes.take_cells(), expected);
    }
}
