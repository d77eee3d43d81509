//! Repair-bandwidth bake-off across the code zoo (ROADMAP item 4).
//!
//! The fault-tolerance experiments rank codes by P(loss) alone; the
//! repair-bandwidth literature (Park et al.'s LDPC arrays, the Dimakis
//! regenerating-codes line) argues that what a repair *costs* is an equal
//! design axis. This experiment runs every graph family the generators
//! produce — plus the paper's RAID5/RAID6 drawer systems in closed form —
//! through one unified sweep: x = devices offline, y = {P(loss), repair
//! bytes per lost block, devices contacted per recovery}.
//!
//! Graph families are measured empirically: random offline patterns feed
//! [`tornado_store::plan_repair`], whose guided repair cone is exactly
//! what the scrubber reads, and [`RetrievalPlan::cost`] converts the plan
//! into a [`RepairCost`] under the one-block-per-device layout. RAID rows
//! are analytic: a RAID5 group of `g` devices rebuilds any single loss by
//! reading the other `g - 1` members; RAID6 solves from any `g - 2`.
//!
//! [`RetrievalPlan::cost`]: tornado_store::RetrievalPlan::cost
//! [`RepairCost`]: tornado_store::RepairCost

use crate::effort::Effort;
use crate::harness::{csv, num, obj, Report};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tornado_analysis::analytic::GroupSystem;
use tornado_graph::{Graph, NodeId};
use tornado_obs::Json;
use tornado_store::plan_repair;

/// Block size the byte columns assume (costs scale linearly with it).
pub(crate) const BLOCK_BYTES: usize = 65_536;

/// One (code, devices-offline) measurement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SweepPoint {
    /// Devices offline.
    pub k: usize,
    /// Fraction of offline patterns the code could not repair.
    pub p_loss: f64,
    /// Mean blocks read per lost block, over repairable patterns.
    pub(crate) repair_blocks_per_lost: f64,
    /// Mean distinct devices contacted per repair.
    pub devices_contacted: f64,
    /// Mean longest dependency chain in the repair schedule.
    pub recovery_depth: f64,
}

/// One code's full sweep.
#[derive(Clone, Debug)]
pub(crate) struct CodeReport {
    /// Stable code label (JSON schema key).
    pub code: &'static str,
    /// `"graph"` (empirical, via `plan_repair`) or `"analytic"`.
    pub kind: &'static str,
    /// Storage overhead: total devices per data device.
    pub overhead: f64,
    /// Points in ascending `k`.
    pub sweep: Vec<SweepPoint>,
}

impl CodeReport {
    /// Looks a sweep point up by offline count.
    pub(crate) fn at(&self, k: usize) -> &SweepPoint {
        self.sweep
            .iter()
            .find(|p| p.k == k)
            .unwrap_or_else(|| panic!("{}: no sweep point at k = {k}", self.code))
    }
}

/// The whole bake-off.
#[derive(Clone, Debug)]
pub(crate) struct RepairBandwidthReport {
    /// One report per code, generator order then analytic.
    pub(crate) codes: Vec<CodeReport>,
}

impl RepairBandwidthReport {
    /// Looks a code up by label.
    pub(crate) fn code(&self, code: &str) -> &CodeReport {
        self.codes
            .iter()
            .find(|c| c.code == code)
            .unwrap_or_else(|| panic!("no code {code}"))
    }
}

/// Sweeps one graph-family code empirically.
fn sweep_graph(
    code: &'static str,
    graph: &Graph,
    ks: &[usize],
    trials: u64,
    seed: u64,
) -> CodeReport {
    let n = graph.num_nodes();
    let mut sweep = Vec::with_capacity(ks.len());
    for (ki, &k) in ks.iter().enumerate() {
        // One rng stream per (code, k): adding a k to the sweep never
        // reshuffles the patterns of the others.
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (code.len() as u64) << 48 ^ (graph.fingerprint() << 8) ^ ki as u64,
        );
        let mut losses = 0u64;
        let mut repaired = 0u64;
        let (mut blocks, mut devices, mut depth) = (0f64, 0f64, 0f64);
        let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
        for _ in 0..trials {
            // Shuffle-and-split: the first k ids are the offline pattern,
            // the rest are the surviving devices.
            ids.shuffle(&mut rng);
            let mut available: Vec<NodeId> = ids[k.min(n)..].to_vec();
            available.sort_unstable();
            match plan_repair(graph, &available) {
                None => losses += 1,
                Some(plan) => {
                    let cost = plan.cost(graph, BLOCK_BYTES);
                    repaired += 1;
                    blocks += cost.blocks_fetched as f64 / k as f64;
                    devices += cost.devices_contacted as f64;
                    depth += cost.recovery_depth as f64;
                }
            }
        }
        let mean = |sum: f64| {
            if repaired == 0 {
                0.0
            } else {
                sum / repaired as f64
            }
        };
        sweep.push(SweepPoint {
            k,
            p_loss: losses as f64 / trials as f64,
            repair_blocks_per_lost: mean(blocks),
            devices_contacted: mean(devices),
            recovery_depth: mean(depth),
        });
    }
    CodeReport {
        code,
        kind: "graph",
        overhead: n as f64 / graph.num_data() as f64,
        sweep,
    }
}

/// Sweeps a drawer-parity system in closed form. A surviving group of
/// size `g` with tolerance `t` rebuilds each lost member by reading
/// `g - t` of the others (RAID5: the remaining `g - 1`; RAID6: any
/// `g - 2`), and every read is a distinct device — a flat, depth-1 repair.
fn sweep_raid(code: &'static str, sys: &GroupSystem, ks: &[usize]) -> CodeReport {
    let nodes = sys.data_devices() + sys.parity_devices();
    let group = nodes / sys.layout.groups();
    let reads = (group - sys.tolerance) as f64;
    let sweep = ks
        .iter()
        .map(|&k| SweepPoint {
            k,
            p_loss: sys.failure_probability(k),
            repair_blocks_per_lost: reads,
            devices_contacted: reads,
            recovery_depth: 1.0,
        })
        .collect();
    CodeReport {
        code,
        kind: "analytic",
        overhead: nodes as f64 / sys.data_devices() as f64,
        sweep,
    }
}

/// Runs the whole bake-off: six generator families plus the two paper
/// RAID systems, all at 96-device scale.
pub(crate) fn measure(trials_per_k: u64, ks: &[usize], seed: u64) -> RepairBandwidthReport {
    let tornado = tornado_core::tornado_graph_1();
    let doubled = tornado_gen::altered::generate_doubled(48, seed).expect("doubled");
    let shifted = tornado_gen::altered::generate_shifted(48, seed).expect("shifted");
    let regular = tornado_gen::regular::generate_regular(48, 4, seed).expect("regular");
    let cascade = tornado_gen::cascaded::generate_fixed_degree(48, 4, seed).expect("cascade");
    let mirror = tornado_gen::mirror::generate_mirror(48).expect("mirror");

    let graphs: [(&'static str, &Graph); 6] = [
        ("tornado", &tornado),
        ("tornado_doubled", &doubled),
        ("tornado_shifted", &shifted),
        ("regular_d4", &regular),
        ("cascade_fixed_d4", &cascade),
        ("mirror", &mirror),
    ];
    let mut codes: Vec<CodeReport> = graphs
        .iter()
        .map(|(code, g)| sweep_graph(code, g, ks, trials_per_k, seed))
        .collect();
    codes.push(sweep_raid("raid5", &GroupSystem::raid5_paper(), ks));
    codes.push(sweep_raid("raid6", &GroupSystem::raid6_paper(), ks));

    RepairBandwidthReport { codes }
}

/// Runs the bake-off (k = 1..=8 offline, which is past every family's
/// worst-case bound), formats the EXPERIMENTS.md table and asserts the
/// floors. They are exact properties of the codes, independent of trial
/// count and build mode: all six graph families and both analytic rows are
/// present with one point per k, mirroring repairs exactly 1 block per
/// lost block, a RAID5 rebuild contacts the other 11 drawer members, and
/// tornado survives every single-device loss.
pub(crate) fn run(effort: &Effort) -> Report {
    let trials = if effort.quick { 100 } else { 2_000 };
    let ks: Vec<usize> = (1..=8).collect();
    let r = measure(trials, &ks, effort.seed);

    assert!(
        r.codes.len() >= 8,
        "expected >= 6 graph families + 2 analytic rows, got {}",
        r.codes.len()
    );
    let mut rows = Vec::new();
    for c in &r.codes {
        assert_eq!(c.sweep.len(), ks.len(), "{}: one sweep point per k", c.code);
        for p in &c.sweep {
            rows.push(obj([
                ("code", Json::Str(c.code.into())),
                ("kind", Json::Str(c.kind.into())),
                ("overhead", num(c.overhead, 2)),
                ("k", Json::U64(p.k as u64)),
                ("p_loss", num(p.p_loss, 6)),
                ("repair_blocks_per_lost", num(p.repair_blocks_per_lost, 4)),
                ("devices_contacted", num(p.devices_contacted, 4)),
                ("recovery_depth", num(p.recovery_depth, 4)),
            ]));
        }
    }
    let mirror1 = r.code("mirror").at(1);
    let tornado1 = r.code("tornado").at(1);
    assert!(
        (mirror1.repair_blocks_per_lost - 1.0).abs() < 1e-12,
        "mirroring must repair exactly 1 block per lost block, got {}",
        mirror1.repair_blocks_per_lost
    );
    assert_eq!(
        r.code("raid5").at(1).devices_contacted,
        11.0,
        "RAID5 rebuild must contact the other n - 1 = 11 drawer members"
    );
    assert_eq!(
        tornado1.p_loss, 0.0,
        "tornado must survive every single-device loss"
    );

    let text = format!(
        "# Repair-bandwidth bake-off: {trials} random offline patterns per (code, k), {} KiB blocks\n\
         {}\
         mirroring repairs {:.0} block/block at depth {:.0}; tornado reads {:.1} blocks/block \
         from {:.1} devices — the bandwidth price of surviving what mirroring cannot\n\
         floors: >= 8 codes, one point per k, mirror 1 block/lost, raid5 contacts 11, \
         tornado p_loss(k = 1) = 0\n",
        BLOCK_BYTES / 1024,
        csv(&rows),
        mirror1.repair_blocks_per_lost,
        mirror1.recovery_depth,
        tornado1.repair_blocks_per_lost,
        tornado1.devices_contacted
    );
    let data = obj([
        ("block_bytes", Json::U64(BLOCK_BYTES as u64)),
        ("trials_per_k", Json::U64(trials)),
        ("points", Json::Arr(rows)),
    ]);
    Report {
        text,
        data: Some(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_family_and_analytic_row() {
        let r = measure(25, &[1, 2], 7);
        assert_eq!(r.codes.len(), 8);
        assert!(r.codes.iter().filter(|c| c.kind == "graph").count() >= 6);
        for c in &r.codes {
            assert_eq!(c.sweep.len(), 2, "{}", c.code);
            assert!(c.overhead >= 1.0, "{}", c.code);
        }
    }

    #[test]
    fn mirror_repairs_one_block_per_block() {
        let r = measure(50, &[1], 3);
        let p = r.code("mirror").at(1);
        assert_eq!(p.p_loss, 0.0, "one loss never defeats a mirror pair");
        assert!(
            (p.repair_blocks_per_lost - 1.0).abs() < 1e-12,
            "a mirror repair reads exactly the surviving copy, got {}",
            p.repair_blocks_per_lost
        );
        assert!((p.devices_contacted - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raid_rows_match_the_closed_form() {
        let r = measure(25, &[1, 2, 3], 3);
        let raid5 = r.code("raid5");
        assert_eq!(raid5.at(1).devices_contacted, 11.0, "reads the other 11");
        assert_eq!(raid5.at(1).p_loss, 0.0, "RAID5 survives any single loss");
        assert!(raid5.at(2).p_loss > 0.0, "two losses can share a drawer");
        let raid6 = r.code("raid6");
        assert_eq!(raid6.at(1).devices_contacted, 10.0, "solves from any 10");
        assert_eq!(raid6.at(2).p_loss, 0.0, "RAID6 survives any double loss");
    }

    #[test]
    fn tornado_single_loss_is_always_repairable() {
        let r = measure(50, &[1], 11);
        let p = r.code("tornado").at(1);
        assert_eq!(p.p_loss, 0.0);
        assert!(p.repair_blocks_per_lost >= 1.0, "a repair reads something");
        assert!(p.recovery_depth >= 1.0);
    }
}
