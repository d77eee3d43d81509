//! The test oracles the parity suites hold the data plane and the
//! decoders to. Nothing outside the tests runs them.
//!
//! * [`DenseDecoder`] — the original O(n + checks)-reset peeling decoder:
//!   per trial it refills the full availability and missing-count arrays
//!   and scans *every* check to seed the worklist. `tests/kernel_parity.rs`
//!   asserts the bit-row kernel (`ErasureDecoder`) and the lane kernel
//!   (`LaneDecoder`) reach exactly its fixpoint (success flag, lost sets)
//!   on random graphs × random erasure patterns. A counter per check and a
//!   bit row per check share no code, which is what makes the comparison
//!   worth having.
//! * [`scalar`] — the byte-serial loops the word-wide kernels replaced.
//!   The parity suites assert `word == scalar::…` on the same input.
//!
//! Do not optimise these; their value is being the simple, obviously
//! correct formulations.

use tornado_codec::{DecodeDetail, RecoveryStep};
use tornado_graph::{Graph, NodeId};

/// Reference peeling decoder with dense per-trial reset.
///
/// Semantically identical to `ErasureDecoder`; kept as the simple
/// formulation (see the module docs). The recovery schedules of the two
/// kernels may order independent steps differently — both are valid
/// schedules and both reach the same fixpoint.
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

/// Byte-serial reference kernels: the loops the data plane ran before the
/// word-wide rewrite, sharing no code path with the kernels they check.
pub mod scalar {
    use tornado_codec::gf256::Gf256;

    /// Byte-serial `dst ^= src`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn xor_into(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_into requires equal lengths");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    /// Byte-serial `dst ^= c · src` through the log/antilog tables — the
    /// original `Gf256::mul_acc` inner loop.
    ///
    /// # Panics
    /// Panics if the lengths differ, or if `c == 0` (callers peel the
    /// trivial coefficients before dispatch).
    pub fn mul_acc(field: &Gf256, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc requires equal lengths");
        assert_ne!(c, 0, "c == 0 is peeled off before dispatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= field.mul(c, s);
        }
    }

    /// Byte-serial 8-lane word-striped FNV-1a — the same function as
    /// `kernels::checksum`, assembling each little-endian word one byte per
    /// step and stepping the owning lane at every word boundary. The lane
    /// seeds, the step and the final fold are written out here rather than
    /// shared with the kernel; `kernel_parity.rs`'s GOLDEN digest pins them.
    pub fn checksum(data: &[u8]) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        // 2⁴⁴ + 0x1b3, the kernel's multiplier: not FNV-64's prime
        // (2⁴⁰ + 0x1b3), but odd and so invertible mod 2⁶⁴.
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let step = |l: u64, w: u64| (l ^ w).wrapping_mul(FNV_PRIME);
        let mut lanes: [u64; 8] =
            std::array::from_fn(|j| FNV_OFFSET ^ (j as u64).wrapping_mul(FNV_PRIME));
        let mut word = 0u64;
        for (i, &b) in data.iter().enumerate() {
            word |= (b as u64) << ((i % 8) * 8);
            if i % 8 == 7 {
                let j = (i / 8) % 8;
                lanes[j] = step(lanes[j], word);
                word = 0;
            }
        }
        if !data.len().is_multiple_of(8) {
            let j = (data.len() / 8) % 8;
            lanes[j] = step(lanes[j], word);
        }
        let mut h = FNV_OFFSET ^ data.len() as u64;
        for l in lanes {
            h = (h ^ l).wrapping_mul(FNV_PRIME);
            h ^= h >> 32;
        }
        h
    }
}
