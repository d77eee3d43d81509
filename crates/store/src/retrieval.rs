//! Guided retrieval planning (paper §5.2 and §6).
//!
//! "In a functioning archival system — especially one based on MAID where
//! disks must be powered on — the minimum set of blocks may not always be
//! the best set to retrieve." The planner answers the §6 future-work
//! question directly: given which nodes are available, which blocks should
//! actually be fetched so that every data block can be reconstructed?
//!
//! The plan is computed by running the availability-only peeling decoder,
//! then walking its recovery schedule *backwards* to keep only the steps —
//! and therefore only the fetched blocks — that the data nodes transitively
//! depend on. Fetching the planned set and replaying the pruned schedule
//! with XOR is guaranteed to reproduce the full data.
//!
//! Node sets here are [`tornado_bitset::rows`] — the representation the
//! decode kernel itself peels over — one `Vec<Word>` per set, sized for the
//! graph. The planner only decides *what* to read and in which order to
//! rebuild; turning a plan's schedule into bytes is
//! [`tornado_codec::Codec::replay`]'s job.

use tornado_bitset::rows::{self, Word};
use tornado_codec::{DecodeDetail, DecodeMetrics, ErasureDecoder, RecoveryStep};
use tornado_graph::{Graph, NodeId};

/// What one recovery cost: the currency repair-bandwidth papers (Park et
/// al., the Dimakis regenerating-codes line) argue codes must be judged in,
/// alongside P(loss).
///
/// All fields are attributed per *recovery* (one GET, one scrubbed stripe,
/// one federation exchange), and aggregate additively except
/// `recovery_depth`, which takes the maximum under [`RepairCost::absorb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairCost {
    /// Bytes read from devices to serve the recovery.
    pub bytes_read: u64,
    /// Blocks fetched from devices.
    pub blocks_fetched: u64,
    /// Distinct devices those blocks came from.
    pub devices_contacted: u64,
    /// Longest dependency chain in the recovery schedule (0 when nothing
    /// had to be regenerated; 1 when every lost block was rebuilt directly
    /// from fetched blocks; deeper when recovered blocks feed later steps).
    pub recovery_depth: u64,
}

impl RepairCost {
    /// Folds `other` into `self`: byte/block/device tallies add (devices
    /// contacted by several recoveries count once per recovery — see
    /// DESIGN.md on when attribution can lie), depth takes the maximum.
    pub fn absorb(&mut self, other: &RepairCost) {
        self.bytes_read += other.bytes_read;
        self.blocks_fetched += other.blocks_fetched;
        self.devices_contacted += other.devices_contacted;
        self.recovery_depth = self.recovery_depth.max(other.recovery_depth);
    }

    /// True when the recovery touched nothing (e.g. a skipped scrub tier).
    pub fn is_zero(&self) -> bool {
        *self == RepairCost::default()
    }
}

/// A retrieval plan: what to fetch and how to decode it. The default plan
/// is the empty one — nothing to fetch, nothing to replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetrievalPlan {
    /// Available blocks that must be fetched, ascending.
    pub fetch: Vec<NodeId>,
    /// Pruned recovery schedule to replay (order preserved from the full
    /// peeling schedule, so dependencies always precede their use).
    pub schedule: Vec<RecoveryStep>,
}

impl RetrievalPlan {
    /// Number of blocks the plan touches.
    pub fn blocks_fetched(&self) -> usize {
        self.fetch.len()
    }

    /// Longest dependency chain in the pruned schedule. Fetched blocks sit
    /// at depth 0; each step's output is one deeper than its deepest input,
    /// so a plan with no regeneration reports 0 and a single direct peel
    /// reports 1.
    pub fn recovery_depth(&self, graph: &Graph) -> u64 {
        let mut depth = vec![0u64; graph.num_nodes()];
        let mut max = 0u64;
        for step in &self.schedule {
            let (node, via) = step.node_and_check();
            let inputs = graph.check_neighbors(via).iter().copied().chain([via]);
            let deepest = inputs.filter(|&v| v != node).map(|v| depth[v as usize]);
            depth[node as usize] = deepest.max().unwrap_or(0) + 1;
            max = max.max(depth[node as usize]);
        }
        max
    }

    /// The cost of executing this plan with `block_len`-byte blocks, with
    /// `device_of` mapping each fetched node to the device that holds it
    /// (distinct devices are counted once).
    pub fn cost_with<F: FnMut(NodeId) -> usize>(
        &self,
        graph: &Graph,
        block_len: usize,
        device_of: F,
    ) -> RepairCost {
        let mut devices: Vec<usize> = self.fetch.iter().copied().map(device_of).collect();
        devices.sort_unstable();
        devices.dedup();
        RepairCost {
            bytes_read: self.fetch.len() as u64 * block_len as u64,
            blocks_fetched: self.fetch.len() as u64,
            devices_contacted: devices.len() as u64,
            recovery_depth: self.recovery_depth(graph),
        }
    }

    /// [`RetrievalPlan::cost_with`] under the one-block-per-device layout
    /// the analytic benches assume (node id = device id).
    pub fn cost(&self, graph: &Graph, block_len: usize) -> RepairCost {
        self.cost_with(graph, block_len, |n| n as usize)
    }
}

/// Plans a minimal-ish retrieval for reconstructing all data nodes of
/// `graph` when exactly `available` nodes are online. Returns `None` when
/// reconstruction is impossible.
///
/// The plan is optimal in the sense that it contains only blocks the
/// peeling derivation of the data actually uses; it is not guaranteed to
/// be the global minimum over all derivations (that problem is NP-hard),
/// which matches the paper's framing of guided search as an optimisation
/// heuristic.
pub fn plan_retrieval(graph: &Graph, available: &[NodeId]) -> Option<RetrievalPlan> {
    plan_retrieval_or_lost(graph, available).ok()
}

/// [`plan_retrieval`] for the GET miss path: when reconstruction is
/// impossible the error is the data nodes the planner's one decode found
/// lost, so the caller reports them without decoding the pattern again.
pub(crate) fn plan_retrieval_or_lost(
    graph: &Graph,
    available: &[NodeId],
) -> Result<RetrievalPlan, Vec<NodeId>> {
    // Everything a GET ultimately needs: the data nodes.
    plan_for(graph, available, |missing| {
        let mut data = vec![0; missing.len()];
        rows::fill_range(&mut data, 0, graph.num_data());
        data
    })
}

/// Plans the regeneration of every *missing* block — the scrubber's and
/// federation's job, as opposed to [`plan_retrieval`]'s "reassemble the
/// data". The fetch set is the guided repair cone: the blocks a
/// bandwidth-aware repair would read to rebuild everything that was lost.
/// Returns `None` when the stripe is unrecoverable.
pub fn plan_repair(graph: &Graph, available: &[NodeId]) -> Option<RetrievalPlan> {
    plan_for(graph, available, <[Word]>::to_vec).ok()
}

/// [`plan_repair`] for the scrubber, which also repairs what it can of a
/// stripe that is past saving: the plan regenerates every missing block
/// peeling reaches, and the flag says whether that is all of the data —
/// where it is, the plan is [`plan_repair`]'s. The peeling kernel's cells
/// are drained into `metrics` when given.
pub(crate) fn plan_partial_repair(
    graph: &Graph,
    available: &[NodeId],
    metrics: Option<&DecodeMetrics>,
) -> (RetrievalPlan, bool) {
    let (missing, detail) = peel(graph, available, metrics);
    let plan = prune(graph, &missing, &detail.schedule, missing.clone());
    (plan, detail.success)
}

/// Shared planner: peels, then keeps only the schedule steps the nodes
/// `seed` picks — given the row of missing ones — transitively depend on.
/// `Err` carries the decode's lost data nodes.
fn plan_for(
    graph: &Graph,
    available: &[NodeId],
    seed: impl FnOnce(&[Word]) -> Vec<Word>,
) -> Result<RetrievalPlan, Vec<NodeId>> {
    let (missing, detail) = peel(graph, available, None);
    if !detail.success {
        return Err(detail.lost_data);
    }
    let needed = seed(&missing);
    Ok(prune(graph, &missing, &detail.schedule, needed))
}

/// Runs the availability-only peeling decoder to fixpoint with exactly
/// `available` present; also returns the nodes *not* available as a row.
fn peel(
    graph: &Graph,
    available: &[NodeId],
    metrics: Option<&DecodeMetrics>,
) -> (Vec<Word>, DecodeDetail) {
    let n = graph.num_nodes();
    let mut missing = vec![0; rows::words_for(n)];
    rows::fill_range(&mut missing, 0, n);
    for &v in available {
        rows::clear(&mut missing, v as usize);
    }
    let mut dec = ErasureDecoder::new(graph);
    dec.set_recording(metrics.is_some());
    let detail = dec.decode_detailed(&rows::ones(&missing).collect::<Vec<_>>());
    if let Some(m) = metrics {
        m.absorb(&dec.take_cells());
    }
    (missing, detail)
}

/// The backward walk: a step of the peeling `schedule` is kept iff it
/// produces a `needed` node, and its inputs become needed in turn; what is
/// then needed and on a device is the fetch set. A needed node no step
/// produces (one peeling could not reach) is simply left out.
fn prune(
    graph: &Graph,
    missing: &[Word],
    schedule: &[RecoveryStep],
    mut needed: Vec<Word>,
) -> RetrievalPlan {
    let mut kept: Vec<RecoveryStep> = Vec::new();
    for step in schedule.iter().rev() {
        let (node, via) = step.node_and_check();
        if rows::test(&needed, node as usize) {
            kept.push(*step);
            for input in graph.check_neighbors(via).iter().copied().chain([via]) {
                if input != node {
                    rows::set(&mut needed, input as usize);
                }
            }
        }
    }
    kept.reverse();

    // Fetch = needed nodes that are genuinely on devices. The schedule only
    // regenerates missing nodes, so everything it produces is in `missing`.
    let on_devices = rows::ones(&needed).filter(|&v| !rows::test(missing, v));
    RetrievalPlan {
        fetch: on_devices.map(|v| v as NodeId).collect(),
        schedule: kept,
    }
}

/// Baseline strategy for the ablation benches: fetch every available block
/// (what a naive reader does).
pub fn plan_fetch_all(graph: &Graph, available: &[NodeId]) -> Option<RetrievalPlan> {
    let mut plan = plan_retrieval(graph, available)?;
    plan.fetch = {
        let mut v = available.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    /// data 0..4; checks 4 = 0^1, 5 = 2^3, 6 = 4^5.
    fn cascade() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    fn all_except(graph: &Graph, missing: &[NodeId]) -> Vec<NodeId> {
        (0..graph.num_nodes() as NodeId)
            .filter(|n| !missing.contains(n))
            .collect()
    }

    #[test]
    fn all_data_available_fetches_only_data() {
        let g = cascade();
        let plan = plan_retrieval(&g, &all_except(&g, &[])).unwrap();
        assert_eq!(plan.fetch, vec![0, 1, 2, 3], "checks untouched");
        assert!(plan.schedule.is_empty());
    }

    #[test]
    fn single_loss_fetches_its_repair_cone_only() {
        let g = cascade();
        // Data 0 missing: need check 4 and sibling 1, plus data 2, 3.
        let plan = plan_retrieval(&g, &all_except(&g, &[0])).unwrap();
        assert_eq!(plan.fetch, vec![1, 2, 3, 4]);
        assert_eq!(plan.schedule.len(), 1);
    }

    #[test]
    fn deep_recovery_pulls_in_the_deeper_level() {
        let g = cascade();
        // Data 0 and check 4 missing: 6 regenerates 4 (needs 5), 4 peels 0.
        let plan = plan_retrieval(&g, &all_except(&g, &[0, 4])).unwrap();
        assert_eq!(plan.fetch, vec![1, 2, 3, 5, 6]);
        assert_eq!(plan.schedule.len(), 2);
    }

    #[test]
    fn impossible_reconstruction_returns_none() {
        let g = cascade();
        assert!(plan_retrieval(&g, &all_except(&g, &[0, 1, 4])).is_none());
    }

    #[test]
    fn irrelevant_recoveries_are_pruned() {
        let g = cascade();
        // Check 6 missing: the full peeling would re-encode it, but data
        // needs nothing from it — plan must skip the step entirely.
        let plan = plan_retrieval(&g, &all_except(&g, &[6])).unwrap();
        assert_eq!(plan.fetch, vec![0, 1, 2, 3]);
        assert!(plan.schedule.is_empty());
    }

    #[test]
    fn fetch_all_baseline_is_a_superset() {
        let g = cascade();
        let avail = all_except(&g, &[0]);
        let smart = plan_retrieval(&g, &avail).unwrap();
        let naive = plan_fetch_all(&g, &avail).unwrap();
        assert!(naive.blocks_fetched() >= smart.blocks_fetched());
        for f in &smart.fetch {
            assert!(naive.fetch.contains(f));
        }
    }

    #[test]
    fn recovery_depth_counts_dependency_chains() {
        let g = cascade();
        let healthy = plan_retrieval(&g, &all_except(&g, &[])).unwrap();
        assert_eq!(healthy.recovery_depth(&g), 0, "nothing regenerated");

        let shallow = plan_retrieval(&g, &all_except(&g, &[0])).unwrap();
        assert_eq!(shallow.recovery_depth(&g), 1, "one direct peel");

        // Data 0 and check 4 missing: 4 is rebuilt first (depth 1), then
        // peels 0 (depth 2).
        let deep = plan_retrieval(&g, &all_except(&g, &[0, 4])).unwrap();
        assert_eq!(deep.recovery_depth(&g), 2);
    }

    #[test]
    fn plan_cost_counts_bytes_blocks_and_devices() {
        let g = cascade();
        let plan = plan_retrieval(&g, &all_except(&g, &[0])).unwrap();
        let cost = plan.cost(&g, 1024);
        assert_eq!(cost.blocks_fetched, 4);
        assert_eq!(cost.bytes_read, 4 * 1024);
        assert_eq!(
            cost.devices_contacted, 4,
            "identity layout: one device per node"
        );
        assert_eq!(cost.recovery_depth, 1);

        // Two nodes colocated on one device collapse the device count.
        let squeezed = plan.cost_with(&g, 1024, |n| (n as usize) / 2);
        assert_eq!(
            squeezed.devices_contacted, 3,
            "nodes 1|2|3|4 -> devices 0,1,2"
        );
        assert!(!cost.is_zero());
        let mut total = RepairCost::default();
        total.absorb(&cost);
        total.absorb(&squeezed);
        assert_eq!(total.blocks_fetched, 8);
        assert_eq!(total.recovery_depth, 1, "depth takes the max, not the sum");
    }

    #[test]
    fn repair_plan_targets_missing_blocks_not_data() {
        let g = cascade();
        // Check 6 missing: a GET needs nothing from it, but a repair must
        // rebuild it from its neighbours 4 and 5.
        let plan = plan_repair(&g, &all_except(&g, &[6])).unwrap();
        assert_eq!(plan.fetch, vec![4, 5]);
        assert_eq!(plan.schedule.len(), 1);
        assert_eq!(plan.recovery_depth(&g), 1);

        // Data 0 missing: the repair cone is just sibling 1 and check 4 —
        // smaller than the full-retrieval plan's fetch of all the data.
        let plan = plan_repair(&g, &all_except(&g, &[0])).unwrap();
        assert_eq!(plan.fetch, vec![1, 4]);
        assert_eq!(plan.cost(&g, 512).bytes_read, 2 * 512);

        assert!(plan_repair(&g, &all_except(&g, &[0, 1, 4])).is_none());
    }

    /// FNV-1a-style over every plan `plan_retrieval` and `plan_repair`
    /// return for each `stride`-th 4-erasure pattern of catalogue graph 1:
    /// `fetch`, then the schedule in order. The multiplier is the block
    /// digest's, 2⁴⁴ + 0x1b3 — not FNV-64's prime (2⁴⁰ + 0x1b3), but odd
    /// and so invertible mod 2⁶⁴; the pinned digests below depend on it.
    fn plans_digest(stride: usize) -> u64 {
        let g = tornado_core::tornado_graph_1();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x1000_0000_01b3);
        for missing in tornado_bitset::Combinations::of(96, 4).step_by(stride) {
            let missing: Vec<NodeId> = missing.iter().map(|&v| v as NodeId).collect();
            let avail = all_except(&g, &missing);
            for plan in [plan_retrieval(&g, &avail), plan_repair(&g, &avail)] {
                let Some(plan) = plan else {
                    eat(u64::MAX);
                    continue;
                };
                eat(plan.fetch.len() as u64);
                plan.fetch.iter().for_each(|&v| eat(v as u64));
                eat(plan.schedule.len() as u64);
                for step in &plan.schedule {
                    let (node, via) = step.node_and_check();
                    eat(node as u64);
                    eat(via as u64);
                }
            }
        }
        h
    }

    /// Both digests were taken at commit c2cc19b, before the planner moved
    /// onto `rows`: the plans are those, `fetch` for `fetch` and step for
    /// step.
    #[test]
    fn plans_are_the_pinned_ones_on_a_sample_of_4_erasure_patterns() {
        assert_eq!(plans_digest(101), 0x29b0_4fd1_314e_b9eb);
    }

    /// All 3,321,960 patterns, both planners: ~10 s in a release build.
    #[test]
    #[ignore = "minutes in a debug build; run with --release -- --ignored"]
    fn plans_are_the_pinned_ones_on_every_4_erasure_pattern() {
        assert_eq!(plans_digest(1), 0x4f18_0b95_5e02_e2c9);
    }

    #[test]
    fn plan_on_real_tornado_graph_beats_naive() {
        let g = tornado_gen::TornadoGenerator::new(48).generate(9).unwrap();
        // Lose 10 arbitrary nodes.
        let missing: Vec<NodeId> = (0..10).map(|i| i * 7 % 96).collect();
        let avail = all_except(&g, &missing);
        if let Some(plan) = plan_retrieval(&g, &avail) {
            assert!(plan.blocks_fetched() < avail.len());
            assert!(plan.blocks_fetched() >= g.num_data() - missing.len());
        }
    }
}
