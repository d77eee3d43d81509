//! The dense reference peeling kernel.
//!
//! This is the original O(n + checks)-reset decoder: per-trial it refills
//! the full availability and missing-count arrays and scans *every* check
//! to seed the worklist. It is retained verbatim as the **parity oracle**:
//! the property suite in `tests/kernel_parity.rs` asserts the bit-row
//! kernel ([`crate::ErasureDecoder`]) reaches exactly the same fixpoint
//! (success flag, lost sets) on random graphs × random erasure patterns.
//! A counter per check and a bit row per check share no code, which is
//! what makes the comparison worth having. Only tests call it.
//!
//! Do not optimise this module; its value is being the simple, obviously
//! correct formulation of the peeling fixpoint.

use crate::erasure::{DecodeDetail, RecoveryStep};
use tornado_graph::{Graph, NodeId};

/// Reference peeling decoder with dense per-trial reset.
///
/// Semantically identical to [`crate::ErasureDecoder`]; kept as the simple
/// formulation (see module docs). The recovery schedules of the two kernels
/// may order independent steps differently — both are valid schedules and
/// both reach the same fixpoint.
pub struct DenseDecoder<'g> {
    graph: &'g Graph,
    /// Availability per node.
    available: Vec<bool>,
    /// Missing-left-neighbour count per check (indexed by check ordinal).
    missing_count: Vec<u16>,
    /// Worklist of check ids to (re)examine.
    stack: Vec<NodeId>,
    /// Number of data nodes still missing.
    missing_data: usize,
}

impl<'g> DenseDecoder<'g> {
    /// Creates a decoder bound to `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            available: vec![true; graph.num_nodes()],
            missing_count: vec![0; graph.num_checks()],
            stack: Vec::with_capacity(graph.num_checks()),
            missing_data: 0,
        }
    }

    /// The graph this decoder runs over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    fn reset(&mut self, missing: &[usize]) {
        self.available.fill(true);
        self.missing_count.fill(0);
        self.stack.clear();
        self.missing_data = 0;
        let num_data = self.graph.num_data();
        for &m in missing {
            debug_assert!(m < self.graph.num_nodes(), "missing index out of range");
            if !std::mem::replace(&mut self.available[m], false) {
                continue; // duplicate in the pattern
            }
            if m < num_data {
                self.missing_data += 1;
            }
            for &c in self.graph.checks_of(m as NodeId) {
                self.missing_count[(c as usize) - num_data] += 1;
            }
        }
        // Dense seeding: scan every check for initial actionability.
        for c in self.graph.check_ids() {
            if self.actionable(c) {
                self.stack.push(c);
            }
        }
    }

    /// Whether check `c` can make progress right now.
    fn actionable(&self, c: NodeId) -> bool {
        let cnt = self.missing_count[c as usize - self.graph.num_data()];
        let avail = self.available[c as usize];
        (avail && cnt == 1) || (!avail && cnt == 0)
    }

    /// Marks `node` available and propagates to the checks that use it.
    fn make_available(&mut self, node: NodeId) {
        debug_assert!(!self.available[node as usize]);
        self.available[node as usize] = true;
        if self.graph.is_data(node) {
            self.missing_data -= 1;
        }
        for &c in self.graph.checks_of(node) {
            let slot = c as usize - self.graph.num_data();
            self.missing_count[slot] -= 1;
            if self.actionable(c) {
                self.stack.push(c);
            }
        }
        // A check that just became available may immediately peel.
        if self.graph.is_check(node) && self.actionable(node) {
            self.stack.push(node);
        }
    }

    /// Runs peeling to fixpoint (or until all data is recovered when
    /// `early_exit` is set). Returns whether all data nodes are available.
    fn run(&mut self, early_exit: bool, mut schedule: Option<&mut Vec<RecoveryStep>>) -> bool {
        let num_data = self.graph.num_data();
        while let Some(c) = self.stack.pop() {
            if early_exit && self.missing_data == 0 {
                return true;
            }
            let slot = c as usize - num_data;
            let cnt = self.missing_count[slot];
            if self.available[c as usize] {
                if cnt == 1 {
                    let missing = self
                        .graph
                        .check_neighbors(c)
                        .iter()
                        .copied()
                        .find(|&n| !self.available[n as usize])
                        .expect("missing_count said one neighbour is missing");
                    if let Some(s) = schedule.as_deref_mut() {
                        s.push(RecoveryStep::Peel {
                            node: missing,
                            via: c,
                        });
                    }
                    self.make_available(missing);
                }
            } else if cnt == 0 {
                if let Some(s) = schedule.as_deref_mut() {
                    s.push(RecoveryStep::Reencode { node: c });
                }
                self.make_available(c);
            }
        }
        self.missing_data == 0
    }

    /// Decodes one erasure pattern; returns whether reconstruction succeeds.
    pub fn decode(&mut self, missing: &[usize]) -> bool {
        self.reset(missing);
        if self.missing_data == 0 {
            return true;
        }
        self.run(true, None)
    }

    /// Decodes and reports which nodes stayed lost plus the recovery
    /// schedule (runs to full fixpoint; no early exit).
    pub fn decode_detailed(&mut self, missing: &[usize]) -> DecodeDetail {
        self.reset(missing);
        let mut schedule = Vec::new();
        let success = self.run(false, Some(&mut schedule));
        let lost_nodes: Vec<NodeId> = (0..self.graph.num_nodes() as NodeId)
            .filter(|&n| !self.available[n as usize])
            .collect();
        let lost_data: Vec<NodeId> = lost_nodes
            .iter()
            .copied()
            .filter(|&n| self.graph.is_data(n))
            .collect();
        DecodeDetail {
            success,
            lost_data,
            lost_nodes,
            schedule,
        }
    }

    /// Availability of `node` after the last decode call.
    pub fn is_available(&self, node: NodeId) -> bool {
        self.available[node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    #[test]
    fn dense_kernel_still_decodes() {
        // data 0..4; checks: 4 = 0^1, 5 = 2^3, 6 = 4^5.
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        let g = b.build().unwrap();
        let mut d = DenseDecoder::new(&g);
        assert!(d.decode(&[0]));
        assert!(d.decode(&[0, 4]));
        assert!(!d.decode(&[0, 1]));
        assert!(d.decode(&[4, 5, 6]));
        let detail = d.decode_detailed(&[0, 1]);
        assert!(!detail.success);
        assert_eq!(detail.lost_data, vec![0, 1]);
    }
}
