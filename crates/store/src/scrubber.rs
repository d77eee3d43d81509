//! Proactive stripe health assurance (paper §6).
//!
//! "One important feature of the proposed system is a stripe reliability
//! assurance and user introspection mechanism to proactively monitor the
//! status of distributed encoded stripes and reconstruct missing blocks
//! before a stripe approaches the initial failure point."
//!
//! The scrubber walks every object, reports how many blocks each stripe is
//! missing relative to the graph's profiled first-failure level, and —
//! when asked — reconstructs missing blocks and writes them back to
//! whatever devices are online (replacement drives included).
//!
//! A scrub cycle is **checksum-gated** ([`ScrubMode`]). A stripe is either
//! skipped or goes through the one stripe routine, which does as little as
//! the stripe's state allows:
//!
//! 1. **Skip** — a stripe whose dirty generation and pool epoch are
//!    unchanged since it was last seen fully clean is not touched at all
//!    (near-O(1) per stripe). Only [`ScrubMode::Incremental`] uses this
//!    tier; it trusts that every store-API mutation bumps the generation.
//! 2. **Plan → stream → lent replay** — one device-index lookup per
//!    block ([`crate::device::Device::locate`]) says which blocks are
//!    there and where (nothing is read to find out); the repair planner's
//!    peeling schedule ([`crate::retrieval::plan_repair`]'s) says how to
//!    rebuild the ones that are not, and from which blocks — the *cone*.
//!    Every present block is hash-checked *in place* on its device, zero
//!    copies, four blocks to one kernel pass (`Device::verify_four`): one
//!    block's digest waits on its own multiply chains, four interleaved
//!    keep the multiplier busy. On memory devices that is the whole
//!    stream, the cone included. A device that does not hold its blocks
//!    in memory (a durable one: its hint is empty) cannot lend them, so
//!    its cone blocks are copied out instead, hashed as they land, one at
//!    a time. Each plan lists the blocks it will stream in ascending node
//!    order; the in-place ones go in groups of four, each group where its
//!    first block falls, looking past any copied block between its
//!    members, and the fewer than four left over one at a time
//!    ([`crate::device::Device::verify_block`]). Each read or verify
//!    carries the hint the lookup gave for the block streamed after it, so
//!    the kernel asks for that block's lines while it hashes: two visits
//!    to a block's device, the lookup and the read or verify. The first
//!    block that fails its check, or is gone since the index was asked,
//!    ends the plan — after the rest of its group, which keep their
//!    verdicts: it joins the missing set and the stripe is re-planned,
//!    keeping every verdict and every block already in hand. A plan
//!    streamed whole is replayed with real XOR (`Codec::replay`) from the
//!    copied blocks and the rest of its cone *lent* where the devices hold
//!    it (`Device::lend`: their read locks, ascending by id, for the
//!    replay's length), each lent block one repair-class read; a cone
//!    block gone by then is one more erasure and a re-plan. A rebuilt
//!    block is written home only if it hashes to its put-time digest; if
//!    one does not, the lent blocks are verified again, and one changed
//!    since its verify is one more erasure and a re-plan. A stripe past
//!    saving still gets every block the partial schedule reaches.
//!
//! A stripe with nothing missing has an empty cone: every block is
//! verified in place and nothing moves. [`ScrubMode::Full`] is the same
//! routine with every present block copied out — the whole stripe goes
//! through the read path.
//!
//! Every mode reports identical [`StripeHealth`]s for states reachable
//! through the store API; what was done per stripe is recorded as a
//! [`ScrubAction`].

//! Scrub passes can fan out across worker threads ([`Scrubber::new`]): each
//! worker scrubs whole stripes with its own thread-local block pool and
//! decoder, and the per-stripe results are folded back **in object-id
//! order**, so the outcome is bit-identical to a serial pass regardless of
//! thread count. The workers are not kept between cycles: a [`Scrubber`]'s
//! rayon `ThreadPool` is, under the vendored rayon every build uses, only a
//! thread count, and each cycle's parallel map spawns and joins its own
//! scoped threads. What a long-lived `Scrubber` does keep is the
//! clean-stripe marks the skip tier consults.
//! A cycle records into the observer attached to the store
//! ([`ArchivalStore::set_observer`]), when there is one.

use crate::backend::IndexMap;
use crate::device::BlockProbe;
use crate::retrieval::{plan_partial_repair, RepairCost, RetrievalPlan};
use crate::store::{ArchivalStore, ObjectId, ObjectMeta};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::borrow::Cow;
use std::time::Instant;
use tornado_codec::kernels::Ahead;
use tornado_codec::{pool, Codec, DecodeMetrics};
use tornado_graph::NodeId;

/// How much work a scrub cycle is allowed to avoid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrubMode {
    /// Read + checksum every present block of every stripe through the
    /// read path, repair degraded stripes — the exhaustive pass. What it
    /// guarantees over `Verify`: each block's bytes were actually served
    /// by its device into a buffer, not just hashed where they lie. Pays a
    /// full copy of the archive per cycle.
    Full,
    /// Hash-verify blocks in place; a damaged stripe's repair reads its
    /// cone where the devices hold it (a durable device's cone blocks are
    /// copied out). Detects everything `Full` detects (both trust the same
    /// per-block digests) without copying healthy bytes.
    Verify,
    /// Like [`ScrubMode::Verify`], but skip stripes whose dirty generation
    /// is unchanged since they were last seen clean. Blind to out-of-band
    /// device tampering on skipped stripes until a `Verify`/`Full` pass or
    /// a generation/epoch change — the cost of near-O(stripes) cycles on
    /// untouched data.
    Incremental,
}

/// What a scrub cycle actually did to one stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrubAction {
    /// Dirty generation and pool epoch unchanged since the stripe was last
    /// seen clean — not touched at all.
    Skipped,
    /// Every block checksum-verified (in place; via the read path in
    /// [`ScrubMode::Full`]) and found present and intact.
    Verified,
    /// At least one block missing or corrupt: the stripe's repair was
    /// planned and its schedule replayed from its cone (and the rebuilt
    /// blocks written home, when asked).
    Decoded,
}

/// Health snapshot for one stripe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeHealth {
    /// Object the stripe belongs to.
    pub id: ObjectId,
    /// Blocks currently unreadable (device offline or block missing).
    pub missing_blocks: Vec<NodeId>,
    /// Whether the stripe can still be fully reconstructed right now.
    pub recoverable: bool,
    /// Remaining loss margin: `first_failure_level − missing` (negative
    /// when the stripe is already past the worst-case bound yet may still
    /// be probabilistically fine). This is §6's distance to the initial
    /// failure point, and a lower bound on the exact margin (the additional
    /// losses some pattern needs to fail, which the live HEALTH document
    /// reports up to its cap) when the graph survives any
    /// `first_failure_level − 1` losses.
    pub margin: i64,
}

impl StripeHealth {
    /// A stripe needs attention when any block is missing.
    pub fn degraded(&self) -> bool {
        !self.missing_blocks.is_empty()
    }

    /// A stripe is urgent when its margin is at or below 1 — one more
    /// device failure could cross the worst-case failure level.
    pub fn urgent(&self) -> bool {
        self.degraded() && self.margin <= 1
    }
}

/// Result of one scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Per-stripe health, ascending by object id.
    pub stripes: Vec<StripeHealth>,
    /// What the cycle did to each stripe, parallel to `stripes`. Healths
    /// are mode-independent; actions are where the gating shows.
    pub actions: Vec<ScrubAction>,
    /// What scrubbing each stripe cost, parallel to `stripes`: actual
    /// bytes/blocks read off devices — copied out, or lent to the replay
    /// where the device holds them, one read each — and (for decoded
    /// stripes) the recovery-schedule depth. Zero for skipped and
    /// in-place-verified stripes — those move no block bytes; for a decoded
    /// stripe in `Verify`/`Incremental` mode it is the repair plan's own
    /// cost (`plan_repair(..).cost_with(..)`) unless a block failed its
    /// check on the way: then it is the last plan's cone on memory devices
    /// (a block only an abandoned plan's cone named is verified in place,
    /// never read), and every cone block copied along the way on durable
    /// ones. Deterministic per stripe, so parallel cycles fold the same
    /// costs as serial ones.
    pub costs: Vec<RepairCost>,
    /// Blocks rewritten by repair.
    pub blocks_repaired: usize,
    /// Objects that could not be fully repaired (unrecoverable or their
    /// home devices offline).
    pub objects_incomplete: Vec<ObjectId>,
}

impl ScrubOutcome {
    /// Count of degraded stripes.
    pub fn degraded_count(&self) -> usize {
        self.stripes.iter().filter(|s| s.degraded()).count()
    }

    /// Count of urgent stripes (degraded with margin ≤ 1 — one more
    /// device failure could cross the worst-case failure level).
    pub fn urgent_count(&self) -> usize {
        self.stripes.iter().filter(|s| s.urgent()).count()
    }

    /// Stripes the skip tier never touched.
    pub fn skipped_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|&&a| a == ScrubAction::Skipped)
            .count()
    }

    /// Stripes fully checksum-verified (and found intact).
    pub fn verified_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|&&a| a == ScrubAction::Verified)
            .count()
    }

    /// Stripes with damage, whose repair was planned and replayed.
    pub fn decoded_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|&&a| a == ScrubAction::Decoded)
            .count()
    }

    /// Total read cost of the cycle across every stripe (bytes, blocks and
    /// per-stripe device contacts add; depth takes the maximum).
    pub fn total_cost(&self) -> RepairCost {
        let mut total = RepairCost::default();
        for c in &self.costs {
            total.absorb(c);
        }
        total
    }

    /// Cost of the [`ScrubAction::Decoded`] stripes only — the cycle's
    /// pure repair traffic, excluding the full-read verification a
    /// [`ScrubMode::Full`] pass spends on intact stripes.
    pub fn repair_cost(&self) -> RepairCost {
        let mut total = RepairCost::default();
        for (c, a) in self.costs.iter().zip(&self.actions) {
            if *a == ScrubAction::Decoded {
                total.absorb(c);
            }
        }
        total
    }
}

/// Inspects every stripe; `repair` additionally reconstructs missing blocks
/// and writes them back where devices permit. `first_failure_level` is the
/// graph's profiled worst-case bound (5 for the paper's adjusted graphs)
/// used to compute margins. One serial cycle of a fresh [`Scrubber`] in
/// (the default) verify mode: blocks are hash-checked in place and only a
/// damaged stripe's repair cone is read; the reported healths are
/// identical to a [`ScrubMode::Full`] pass. Periodic loops should hold a
/// `Scrubber` so the clean marks persist across cycles.
pub fn scrub(store: &ArchivalStore, first_failure_level: usize, repair: bool) -> ScrubOutcome {
    Scrubber::new(1).run(store, first_failure_level, repair, ScrubMode::Verify)
}

/// A stripe's clean mark: the dirty generation and pool epoch at which it
/// was last observed fully present and intact. The skip tier trusts a mark
/// only while *both* values are unchanged.
#[derive(Clone, Copy, Debug)]
struct CleanMark {
    generation: u64,
    pool_epoch: u64,
}

/// A long-lived scrub driver: the worker count its cycles fan out to and
/// the per-stripe clean marks the incremental tier skips by. The workers
/// themselves are spawned per cycle (see the module doc). One `Scrubber`
/// per store; marks are keyed by object id and pruned as objects are
/// deleted.
pub struct Scrubber {
    /// `None` when serial. Under the vendored rayon a `ThreadPool` is a
    /// thread count that `install` scopes each cycle's parallel map to.
    pool: Option<rayon::ThreadPool>,
    /// Clean marks from previous cycles (skip-tier state).
    clean: Mutex<IndexMap<ObjectId, CleanMark>>,
}

impl Scrubber {
    /// Builds a scrubber with `threads` workers (`0` = automatic, `1` =
    /// serial). Every parallel cycle spawns that many scoped threads and
    /// joins them before it returns; no thread outlives a cycle.
    pub fn new(threads: usize) -> Self {
        let pool = (threads != 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("scrub thread pool")
        });
        Self {
            pool,
            clean: Mutex::new(IndexMap::default()),
        }
    }

    /// Number of stripes currently marked clean (skip-tier candidates).
    #[cfg(test)]
    pub(crate) fn clean_marks(&self) -> usize {
        self.clean.lock().len()
    }

    /// Runs one scrub cycle in `mode` over this scrubber's workers; results
    /// fold back in object-id order, bit-identical to a serial cycle. See
    /// [`scrub`] for the `repair` and `first_failure_level` semantics;
    /// healths are mode-independent, the per-stripe [`ScrubAction`]s record
    /// what the gating avoided. With an observer attached to `store` the
    /// cycle is also timed and recorded into it (time, tier counts, repair
    /// cost, decode cells, one `scrub_cycle` event); the outcome is the same.
    pub fn run(
        &self,
        store: &ArchivalStore,
        first_failure_level: usize,
        repair: bool,
        mode: ScrubMode,
    ) -> ScrubOutcome {
        let Some(obs) = store.observer() else {
            return self.run_inner(store, first_failure_level, repair, mode, None);
        };
        let started = Instant::now();
        let outcome = self.run_inner(store, first_failure_level, repair, mode, Some(&obs.decode));
        obs.record_scrub(&outcome, started.elapsed().as_micros() as u64, repair);
        outcome
    }

    fn run_inner(
        &self,
        store: &ArchivalStore,
        first_failure_level: usize,
        repair: bool,
        mode: ScrubMode,
        metrics: Option<&DecodeMetrics>,
    ) -> ScrubOutcome {
        let codec = Codec::new(store.graph());
        let metas = store.list();
        // The epoch is sampled once at cycle start: a device failing
        // mid-cycle invalidates every mark this cycle records, because the
        // next cycle observes a larger epoch.
        let epoch = store.pool_epoch();
        let marks: IndexMap<ObjectId, CleanMark> = if mode == ScrubMode::Incremental {
            self.clean.lock().clone()
        } else {
            IndexMap::default()
        };
        let per_stripe = |meta: &ObjectMeta| -> StripeScrub {
            scrub_stripe(
                store,
                &codec,
                meta,
                first_failure_level,
                repair,
                mode,
                marks.get(&meta.id).copied(),
                epoch,
                metrics,
            )
        };
        let ids: Vec<ObjectId> = metas.iter().map(|m| m.id).collect();
        let results: Vec<StripeScrub> = match &self.pool {
            None => metas.iter().map(per_stripe).collect(),
            Some(pool) => pool.install(|| {
                metas
                    .into_par_iter()
                    .map(|meta| per_stripe(&meta))
                    .collect()
            }),
        };
        // store.list() is ascending by id and the parallel map preserves
        // item order, so this fold reproduces the serial outcome exactly.
        let mut outcome = ScrubOutcome::default();
        let mut clean = self.clean.lock();
        clean.retain(|id, _| ids.binary_search(id).is_ok());
        for r in results {
            outcome.blocks_repaired += r.repaired;
            if r.incomplete {
                outcome.objects_incomplete.push(r.health.id);
            }
            match r.clean_mark {
                Some(m) => {
                    clean.insert(r.health.id, m);
                }
                None => {
                    clean.remove(&r.health.id);
                }
            }
            outcome.actions.push(r.action);
            outcome.costs.push(r.cost);
            outcome.stripes.push(r.health);
        }
        outcome
    }
}

/// Per-stripe scrub result, folded into a [`ScrubOutcome`] in id order.
struct StripeScrub {
    health: StripeHealth,
    action: ScrubAction,
    cost: RepairCost,
    repaired: usize,
    incomplete: bool,
    /// `Some` when the stripe is known fully present and intact at this
    /// mark; recorded for the next incremental cycle's skip tier.
    clean_mark: Option<CleanMark>,
}

/// A fully-present stripe's health (what the skip tier reports without
/// touching the stripe).
fn clean_health(id: ObjectId, first_failure_level: usize) -> StripeHealth {
    StripeHealth {
        id,
        missing_blocks: Vec::new(),
        recoverable: true,
        margin: first_failure_level as i64,
    }
}

/// In-place blocks hashed in one kernel pass. One block's digest waits on
/// its own multiply chains; pairs measured +20–25 % on cold blocks over
/// one at a time, fours about +40 %.
const GROUP: usize = 4;

/// One step of a plan's stream: a block copied out, or in-place blocks
/// hash-checked where they lie — four at a time, or one.
enum Visit<'a> {
    Read(NodeId),
    Verify(&'a [NodeId]),
}

impl Visit<'_> {
    /// The node whose bytes the visit streams first.
    fn first(&self) -> NodeId {
        match *self {
            Visit::Read(v) => v,
            Visit::Verify(nodes) => nodes[0],
        }
    }
}

/// A plan's `stream` as visits, in ascending node order: each `copied`
/// block where it falls, read alone; the `in_place` blocks (the rest of the
/// stream) in groups of [`GROUP`], each group visited where its first
/// block falls, looking past any copied block between its members; the
/// fewer than four left over one at a time.
fn visits<'a>(
    stream: &[NodeId],
    in_place: &'a [NodeId],
    copied: impl Fn(NodeId) -> bool,
) -> Vec<Visit<'a>> {
    let grouped = in_place.len() - in_place.len() % GROUP;
    let mut visits = Vec::new();
    // `in_place[k]` is the next in-place block the stream reaches.
    let mut k = 0;
    for &v in stream {
        if copied(v) {
            visits.push(Visit::Read(v));
            continue;
        }
        if k >= grouped {
            visits.push(Visit::Verify(&in_place[k..=k]));
        } else if k % GROUP == 0 {
            visits.push(Visit::Verify(&in_place[k..k + GROUP]));
        }
        k += 1;
    }
    visits
}

#[allow(clippy::too_many_arguments)]
fn scrub_stripe(
    store: &ArchivalStore,
    codec: &Codec<'_>,
    meta: &ObjectMeta,
    first_failure_level: usize,
    repair: bool,
    mode: ScrubMode,
    mark: Option<CleanMark>,
    epoch: u64,
    metrics: Option<&DecodeMetrics>,
) -> StripeScrub {
    let graph = store.graph();
    let n = graph.num_nodes();
    // The generation is sampled *before* any block is probed: a writer
    // racing with this pass makes the recorded mark stale (the next cycle
    // re-verifies) rather than the verification stale.
    let start_gen = store.stripe_generation(meta.id);

    // Skip: generation and epoch unchanged since last seen clean.
    if mode == ScrubMode::Incremental {
        if let Some(m) = mark {
            if m.generation == start_gen && m.pool_epoch == epoch {
                return StripeScrub {
                    health: clean_health(meta.id, first_failure_level),
                    action: ScrubAction::Skipped,
                    cost: RepairCost::default(),
                    repaired: 0,
                    incomplete: false,
                    clean_mark: Some(m),
                };
            }
        }
    }

    // What is there, and where, by the device index: nothing is read to
    // find out. The hints stream the blocks below; one may be stale by
    // then, which costs a wasted prefetch and nothing else.
    let hints: Vec<Option<Ahead>> = (0..n as NodeId).map(|v| store.locate(meta, v)).collect();
    let mut missing: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| hints[v as usize].is_none())
        .collect();
    // Blocks copied out, verified as they landed: every block in Full mode,
    // and a cone block whose device does not hold it in memory — its hint
    // is empty (no stored block is).
    let mut blocks: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut verified_in_place = vec![false; n];
    // Cone blocks lent to a replay, summed over the replays.
    let mut lent_blocks = 0u64;
    let (recoverable, recovery_depth, rebuilt) = loop {
        let (plan, recoverable) = if missing.is_empty() {
            (RetrievalPlan::default(), true)
        } else {
            let available: Vec<NodeId> =
                (0..n as NodeId).filter(|v| !missing.contains(v)).collect();
            plan_partial_repair(graph, &available, metrics)
        };
        let copied = |v: NodeId| {
            mode == ScrubMode::Full
                || (hints[v as usize].is_some_and(|h| h.is_empty())
                    && plan.fetch.binary_search(&v).is_ok())
        };
        // What this plan streams, in ascending node order: each block once,
        // and a block in hand is never read again — unless a re-plan pulls
        // one a durable device had verified in place into the cone.
        let stream: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| {
                let i = v as usize;
                !missing.contains(&v) && blocks[i].is_none() && (copied(v) || !verified_in_place[i])
            })
            .collect();
        let in_place: Vec<NodeId> = stream.iter().copied().filter(|&v| !copied(v)).collect();
        let visits = visits(&stream, &in_place, copied);
        let lost = visits.iter().enumerate().find_map(|(j, visit)| {
            // Each visit goes with the hint of the one after it, whose head
            // the kernel asks into L2 while this one is hashed.
            let next = visits
                .get(j + 1)
                .and_then(|after| hints[after.first() as usize])
                .unwrap_or(Ahead::NONE);
            match *visit {
                Visit::Read(v) => {
                    blocks[v as usize] = store.read_raw_block(meta, v, next);
                    blocks[v as usize].is_none().then_some(v)
                }
                Visit::Verify(&[v]) => {
                    let intact = store.probe_block(meta, v, next) == BlockProbe::Ok;
                    verified_in_place[v as usize] = intact;
                    (!intact).then_some(v)
                }
                Visit::Verify(group) => {
                    let nodes: [NodeId; GROUP] = group.try_into().expect("a group of four");
                    let [_, b, c, d] = nodes.map(|w| hints[w as usize].unwrap_or(Ahead::NONE));
                    let probes = store.probe_four(meta, nodes, [b, c, d, next]);
                    // Every block of the group keeps its verdict; the first
                    // to fail ends the plan.
                    for (v, probe) in nodes.iter().zip(probes) {
                        verified_in_place[*v as usize] = probe == BlockProbe::Ok;
                    }
                    nodes.into_iter().find(|&v| !verified_in_place[v as usize])
                }
            }
        });
        // Corrupt, or gone since the index was asked: one more erasure.
        if let Some(v) = lost {
            missing.push(v);
            continue;
        }
        if missing.is_empty() {
            break (true, 0, Vec::new());
        }
        // The replay reads the copied blocks from their buffers and the rest
        // of the cone where the devices hold it, under their read locks; a
        // rebuilt block comes back owned.
        let lent: Vec<NodeId> = (plan.fetch.iter().copied())
            .filter(|&v| blocks[v as usize].is_none())
            .collect();
        let replayed = store.lend_blocks(meta, &lent, |bytes| {
            let mut stripe: Vec<Option<Cow<'_, [u8]>>> =
                blocks.iter().map(|b| b.as_deref().map(Cow::from)).collect();
            for (&v, &block) in lent.iter().zip(bytes) {
                stripe[v as usize] = Some(Cow::from(block));
            }
            let depth = codec.replay(&plan.schedule, &mut [], &mut stripe);
            let rebuilt: Vec<(NodeId, Vec<u8>)> = (stripe.into_iter().enumerate())
                .filter_map(|(v, b)| match b {
                    Some(Cow::Owned(block)) => Some((v as NodeId, block)),
                    _ => None,
                })
                .collect();
            (depth, rebuilt)
        });
        // Gone since it was verified: one more erasure.
        let (depth, rebuilt) = match replayed {
            Ok(replayed) => replayed,
            Err(v) => {
                missing.push(v);
                continue;
            }
        };
        lent_blocks += lent.len() as u64;
        // The digest gate: a rebuilt block is the one that was lost only if
        // it hashes to its put-time digest.
        let rebuilt: Vec<(NodeId, Vec<u8>, bool)> = (rebuilt.into_iter())
            .map(|(v, block)| {
                let intact = tornado_codec::checksum(&block) == meta.checksums[v as usize];
                (v, block, intact)
            })
            .collect();
        // A miss may be a lent block changed since its verify: whichever
        // fails a second look is one more erasure, and the stripe is
        // re-planned. None does when the miss is not the cone's.
        if rebuilt.iter().any(|&(_, _, intact)| !intact) {
            let changed = (lent.iter().copied())
                .find(|&v| store.probe_block(meta, v, Ahead::NONE) != BlockProbe::Ok);
            if let Some(v) = changed {
                pool::with_thread_pool(|p| rebuilt.into_iter().for_each(|(_, b, _)| p.recycle(b)));
                missing.push(v);
                continue;
            }
        }
        break (recoverable, depth, rebuilt);
    };
    missing.sort_unstable();

    // What was read off devices — the per-stripe repair cost: the blocks
    // copied out and the blocks lent. A block that failed verification
    // contributes nothing here (its device-side bytes are the documented
    // attribution gap). One device per node and every verified block
    // `block_len` long: blocks, devices and bytes are one count in three
    // units.
    let blocks_fetched = blocks.iter().flatten().count() as u64 + lent_blocks;
    let cost = RepairCost {
        bytes_read: blocks_fetched * meta.block_len as u64,
        blocks_fetched,
        devices_contacted: blocks_fetched,
        recovery_depth,
    };
    // Whatever was copied out goes home to the pool.
    pool::with_thread_pool(|p| p.recycle_stripe(&mut blocks));

    let mut repaired = 0usize;
    // Blocks peeling cannot reach stay lost, and so does a rebuilt block
    // that missed its digest; the others are written home where a device
    // will take them.
    let mut incomplete = !recoverable;
    for (node, block, intact) in rebuilt {
        if !intact {
            incomplete = true;
        } else if repair {
            if store.write_raw_block(meta, node, block) {
                repaired += 1;
            } else {
                incomplete = true; // home device still offline
            }
            continue;
        }
        // Not written: home to the pool.
        pool::with_thread_pool(|p| p.recycle(block));
    }
    // A stripe is markable clean when every block is verifiably present:
    // either nothing was missing, or repair just rewrote every missing
    // block. Repair writes bumped the generation, so re-sample it — the
    // mark must cover our own writes.
    let clean_mark = if missing.is_empty() {
        Some(CleanMark {
            generation: start_gen,
            pool_epoch: epoch,
        })
    } else if repair && !incomplete {
        Some(CleanMark {
            generation: store.stripe_generation(meta.id),
            pool_epoch: epoch,
        })
    } else {
        None
    };
    let action = if missing.is_empty() {
        ScrubAction::Verified
    } else {
        ScrubAction::Decoded
    };
    StripeScrub {
        health: StripeHealth {
            id: meta.id,
            margin: first_failure_level as i64 - missing.len() as i64,
            recoverable,
            missing_blocks: missing,
        },
        action,
        cost,
        repaired,
        incomplete,
        clean_mark,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::hooked::{HookedBackend, Served};
    use crate::backend::BlockKey;
    use crate::device::Device;
    use crate::obs::StoreObserver;
    use crate::store::node_on_device;
    use std::sync::Arc;
    use tornado_graph::{Graph, GraphBuilder};

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn healthy_store_scrubs_clean() {
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"aaa").unwrap();
        store.put("b", b"bbb").unwrap();
        let out = scrub(&store, 2, false);
        assert_eq!(out.stripes.len(), 2);
        assert_eq!(out.degraded_count(), 0);
        assert_eq!(out.blocks_repaired, 0);
        assert!(out.objects_incomplete.is_empty());
    }

    #[test]
    fn detects_degraded_stripes_and_margins() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"payload").unwrap();
        store.fail_device(0).unwrap();
        let out = scrub(&store, 2, false);
        let h = &out.stripes[0];
        assert_eq!(h.id, id);
        assert_eq!(h.missing_blocks, vec![0]);
        assert!(h.recoverable);
        assert_eq!(h.margin, 1);
        assert!(h.urgent());
    }

    #[test]
    fn repair_rewrites_blocks_to_replacement_devices() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"precious data here").unwrap();
        store.fail_device(0).unwrap();
        store.replace_device(0).unwrap(); // empty replacement drive
        let out = scrub(&store, 2, true);
        assert_eq!(out.blocks_repaired, 1);
        assert!(out.objects_incomplete.is_empty());
        // A later failure of a *different* overlapping node is now fine.
        store.fail_device(4).unwrap();
        assert_eq!(store.get(id).unwrap(), b"precious data here");
        // And the re-scrub sees the repaired block in place.
        let again = scrub(&store, 2, false);
        assert_eq!(again.stripes[0].missing_blocks, vec![4]);
    }

    #[test]
    fn repair_cannot_write_to_offline_devices() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"data").unwrap();
        store.fail_device(0).unwrap(); // stays offline
        let out = scrub(&store, 2, true);
        assert_eq!(out.blocks_repaired, 0);
        assert_eq!(out.objects_incomplete, vec![id]);
    }

    #[test]
    fn unrecoverable_stripe_is_flagged() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"gone").unwrap();
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        let out = scrub(&store, 2, false);
        assert!(!out.stripes[0].recoverable);
        assert_eq!(out.objects_incomplete, vec![id]);
        assert_eq!(out.stripes[0].margin, 0);
    }

    #[test]
    fn scrub_repairs_silent_corruption() {
        // Checksums make a corrupt block look missing to the scrubber,
        // which re-encodes the correct content over it.
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"bit rot happens").unwrap();
        assert!(store.device(2).unwrap().corrupt_block(&(id, 2), 0x80));
        let detect = scrub(&store, 2, false);
        assert_eq!(detect.stripes[0].missing_blocks, vec![2]);
        let repair = scrub(&store, 2, true);
        assert_eq!(repair.blocks_repaired, 1);
        let clean = scrub(&store, 2, false);
        assert_eq!(clean.degraded_count(), 0);
        assert_eq!(store.get(id).unwrap(), b"bit rot happens");
    }

    #[test]
    fn rebuilt_block_that_misses_its_put_time_digest_is_not_written() {
        let store = ArchivalStore::new(small_graph());
        let id = store.put("a", b"digest gate").unwrap();
        store.fail_device(0).unwrap();
        store.replace_device(0).unwrap();
        // The stripe's record of what node 0 held is wrong, so whatever
        // the replay rebuilds cannot be shown to be the block that was lost.
        let mut meta = store.meta(id).unwrap();
        meta.checksums[0] ^= 1;
        let writes = |s: &ArchivalStore| -> u64 {
            (0..s.num_devices())
                .map(|d| s.device(d).unwrap().stats().writes)
                .sum()
        };
        let before = writes(&store);
        let r = scrub_stripe(
            &store,
            &Codec::new(store.graph()),
            &meta,
            2,
            true,
            ScrubMode::Verify,
            None,
            store.pool_epoch(),
            None,
        );
        assert_eq!(r.health.missing_blocks, vec![0]);
        assert!(r.health.recoverable);
        assert_eq!(r.repaired, 0);
        assert!(r.incomplete, "reported in objects_incomplete");
        assert!(r.clean_mark.is_none());
        assert_eq!(writes(&store), before, "nothing was written");
        assert!(store.locate(&meta, 0).is_none());
    }

    #[test]
    fn urgent_count_tracks_margin() {
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"one").unwrap();
        store.put("b", b"two").unwrap();
        store.fail_device(0).unwrap();
        // first_failure_level 3: one missing block leaves margin 2 — degraded
        // but not urgent.
        let relaxed = scrub(&store, 3, false);
        assert_eq!(relaxed.degraded_count(), 2);
        assert_eq!(relaxed.urgent_count(), 0);
        // The full-read pass reports every stripe degraded too.
        let full = Scrubber::new(1).run(&store, 3, false, ScrubMode::Full);
        assert_eq!(full.degraded_count(), 2);
        // Level 2: margin 1 — urgent.
        let tight = scrub(&store, 2, false);
        assert_eq!(tight.urgent_count(), 2);
    }

    /// Attaches a fresh observer to `store`: every later scrub records.
    fn observe(store: &ArchivalStore, obs: StoreObserver) -> Arc<StoreObserver> {
        let obs = Arc::new(obs);
        store.set_observer(Arc::clone(&obs));
        obs
    }

    #[test]
    fn observed_scrub_matches_and_records() {
        use tornado_obs::{EventFormat, EventSink};

        let store = ArchivalStore::new(small_graph());
        store.put("a", b"payload").unwrap();
        store.fail_device(0).unwrap();
        store.replace_device(0).unwrap();

        let (events, buf) = EventSink::memory(EventFormat::Json);
        let plain = scrub(&store, 2, false);
        let obs = observe(&store, StoreObserver::disabled().with_events(events));
        let observed = scrub(&store, 2, false);
        assert_eq!(plain, observed);
        assert_eq!(obs.degraded.get(), 1);
        assert_eq!(obs.urgent.get(), 1);
        assert_eq!(obs.scrub_cycles.get(), 1);
        assert_eq!(obs.scrub_cycle_us.count(), 1);

        let repaired = scrub(&store, 2, true);
        assert_eq!(repaired.blocks_repaired, 1);
        assert_eq!(obs.blocks_repaired.get(), 1);
        assert_eq!(obs.scrub_cycles.get(), 2);

        // Post-repair scrub: gauges reflect the latest pass, not history.
        scrub(&store, 2, false);
        assert_eq!(obs.degraded.get(), 0);
        assert_eq!(obs.urgent.get(), 0);

        let lines = buf.lock().unwrap();
        assert_eq!(lines.len(), 3);
        let doc = tornado_obs::json::parse(&lines[1]).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("scrub_cycle"));
        assert_eq!(doc.get("repaired").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("repair"), Some(&tornado_obs::Json::Bool(true)));
    }

    #[test]
    fn parallel_scrub_matches_serial_bit_for_bit() {
        let store = ArchivalStore::new(small_graph());
        for i in 0..12u32 {
            store
                .put(&format!("obj{i}"), format!("payload number {i}").as_bytes())
                .unwrap();
        }
        store.fail_device(0).unwrap();
        store.fail_device(5).unwrap();
        let serial = scrub(&store, 2, false);
        for threads in [2, 4, 7] {
            let parallel = Scrubber::new(threads).run(&store, 2, false, ScrubMode::Verify);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_repair_matches_serial_repair() {
        // Two identically damaged stores: repair one serially, one with a
        // 4-way scrub cycle. Outcomes and repaired contents must agree.
        let build = || {
            let store = ArchivalStore::new(small_graph());
            let ids: Vec<_> = (0..8u32)
                .map(|i| store.put(&format!("o{i}"), &[i as u8; 40]).unwrap())
                .collect();
            store.fail_device(1).unwrap();
            store.replace_device(1).unwrap();
            (store, ids)
        };
        let (a, ids_a) = build();
        let (b, ids_b) = build();
        let serial = scrub(&a, 2, true);
        let parallel = Scrubber::new(4).run(&b, 2, true, ScrubMode::Verify);
        assert_eq!(serial, parallel);
        assert!(serial.blocks_repaired > 0);
        for (&ia, &ib) in ids_a.iter().zip(&ids_b) {
            assert_eq!(a.get(ia).unwrap(), b.get(ib).unwrap());
        }
    }

    #[test]
    fn observed_parallel_scrub_drains_decode_metrics() {
        use tornado_codec::metrics::cells;

        let store = ArchivalStore::new(small_graph());
        for i in 0..6u32 {
            store.put(&format!("m{i}"), b"decode me").unwrap();
        }
        store.fail_device(0).unwrap();
        let obs = observe(&store, StoreObserver::disabled());
        let out = Scrubber::new(3).run(&store, 2, false, ScrubMode::Verify);
        assert_eq!(out.degraded_count(), 6);
        assert_eq!(obs.decode.get(cells::TRIALS), 6, "one decode per stripe");
        assert!(obs.decode.get(cells::RECOVERIES) >= 6);
    }

    /// Store states (all reachable through the store/device APIs) that the
    /// tier-identity tests scrub: healthy, degraded, bit-rotted, replaced.
    fn damaged_store() -> ArchivalStore {
        let store = ArchivalStore::new(small_graph());
        let ids: Vec<_> = (0..10u32)
            .map(|i| {
                store
                    .put(&format!("t{i}"), format!("tier test {i}").as_bytes())
                    .unwrap()
            })
            .collect();
        store.fail_device(0).unwrap();
        store.fail_device(5).unwrap();
        store.replace_device(5).unwrap();
        // Silent bit rot on one stripe's data block (device 2, rotation 0
        // puts object ids[0]'s node 2 there).
        assert!(store.device(2).unwrap().corrupt_block(&(ids[0], 2), 0x10));
        store
    }

    #[test]
    fn verify_and_incremental_healths_match_full_decode() {
        // The correctness bar: every tier reports the same stripe healths
        // as an exhaustive full-decode pass, at 1, 4, and automatic thread
        // counts. (A cold incremental scrubber has no marks, so its skip
        // tier is inert and it must verify everything.)
        for threads in [1usize, 4, 0] {
            let store = damaged_store();
            let full = Scrubber::new(threads).run(&store, 2, false, ScrubMode::Full);
            let verify = Scrubber::new(threads).run(&store, 2, false, ScrubMode::Verify);
            let incremental = Scrubber::new(threads).run(&store, 2, false, ScrubMode::Incremental);
            assert_eq!(
                full.stripes, verify.stripes,
                "verify healths, threads {threads}"
            );
            assert_eq!(
                full.stripes, incremental.stripes,
                "incremental healths, threads {threads}"
            );
            assert_eq!(full.objects_incomplete, verify.objects_incomplete);
            assert_eq!(full.objects_incomplete, incremental.objects_incomplete);
            // The gating shows only in the actions: the verify tier never
            // copies intact stripes, the decode tier runs only on damage.
            assert_eq!(full.skipped_count(), 0);
            assert_eq!(verify.decoded_count(), full.decoded_count());
        }
    }

    #[test]
    fn warm_incremental_matches_full_after_api_mutations() {
        // After a clean pass, every store-API mutation (put, delete,
        // repair write, device fail/replace) must invalidate exactly the
        // affected marks, so a warm incremental pass still reports
        // full-decode healths.
        for threads in [1usize, 4, 0] {
            let store = ArchivalStore::new(small_graph());
            let ids: Vec<_> = (0..6u32)
                .map(|i| store.put(&format!("w{i}"), &[i as u8; 32]).unwrap())
                .collect();
            let scrubber = Scrubber::new(threads);
            let first = scrubber.run(&store, 2, false, ScrubMode::Incremental);
            assert_eq!(first.verified_count(), 6, "cold pass verifies everything");
            // API-visible mutations after the clean pass.
            store.delete(ids[0]).unwrap();
            store.put("new", b"fresh object").unwrap();
            store.fail_device(1).unwrap();
            let warm = scrubber.run(&store, 2, false, ScrubMode::Incremental);
            let full = Scrubber::new(1).run(&store, 2, false, ScrubMode::Full);
            assert_eq!(warm.stripes, full.stripes, "threads {threads}");
            assert_eq!(
                warm.skipped_count(),
                0,
                "a device failure bumps the pool epoch, so nothing may be skipped"
            );
        }
    }

    #[test]
    fn incremental_skips_clean_stripes_and_rechecks_dirty() {
        let store = ArchivalStore::new(small_graph());
        for i in 0..4u32 {
            store.put(&format!("s{i}"), &[i as u8; 24]).unwrap();
        }
        let scrubber = Scrubber::new(1);
        let cold = scrubber.run(&store, 2, false, ScrubMode::Incremental);
        assert_eq!(cold.verified_count(), 4);
        assert_eq!(cold.skipped_count(), 0);
        assert_eq!(scrubber.clean_marks(), 4);

        // Untouched store: the second pass touches nothing.
        let warm = scrubber.run(&store, 2, false, ScrubMode::Incremental);
        assert_eq!(warm.skipped_count(), 4);
        assert_eq!(warm.degraded_count(), 0);
        assert_eq!(warm.stripes, cold.stripes, "skipped healths are identical");

        // A new object dirties only itself.
        store.put("s4", &[9u8; 24]).unwrap();
        let third = scrubber.run(&store, 2, false, ScrubMode::Incremental);
        assert_eq!(third.skipped_count(), 4);
        assert_eq!(third.verified_count(), 1);
    }

    #[test]
    fn repair_marks_stripe_clean_for_the_next_incremental_pass() {
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"repair then skip").unwrap();
        store.fail_device(0).unwrap();
        store.replace_device(0).unwrap();
        let scrubber = Scrubber::new(1);
        let repaired = scrubber.run(&store, 2, true, ScrubMode::Incremental);
        assert_eq!(repaired.blocks_repaired, 1);
        assert_eq!(repaired.decoded_count(), 1);
        // The repair wrote through the store API (bumping the stripe's
        // generation), but the recorded mark covers the scrubber's own
        // writes — so the follow-up pass skips.
        let after = scrubber.run(&store, 2, false, ScrubMode::Incremental);
        assert_eq!(after.skipped_count(), 1);
        assert_eq!(after.degraded_count(), 0);
    }

    #[test]
    fn verify_tier_counts_no_reads_on_clean_stores() {
        // The whole point: a clean-store verify pass moves zero block
        // bytes off the devices — probes only.
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"zero copy").unwrap();
        let reads_before: u64 = (0..store.num_devices())
            .map(|d| store.device(d).unwrap().stats().reads)
            .sum();
        let out = Scrubber::new(1).run(&store, 2, false, ScrubMode::Verify);
        assert_eq!(out.verified_count(), 1);
        let reads_after: u64 = (0..store.num_devices())
            .map(|d| store.device(d).unwrap().stats().reads)
            .sum();
        let verifies: u64 = (0..store.num_devices())
            .map(|d| store.device(d).unwrap().stats().verifies)
            .sum();
        assert_eq!(reads_after, reads_before, "no block was copied out");
        assert_eq!(
            verifies,
            store.num_devices() as u64,
            "every block was probed in place"
        );
    }

    #[test]
    fn observed_scrub_records_tier_counters() {
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"one").unwrap();
        store.put("b", b"two").unwrap();
        let obs = observe(&store, StoreObserver::disabled());
        let scrubber = Scrubber::new(1);
        scrubber.run(&store, 2, false, ScrubMode::Incremental);
        scrubber.run(&store, 2, false, ScrubMode::Incremental);
        assert_eq!(obs.stripes_verified.get(), 2, "cold pass verified both");
        assert_eq!(obs.stripes_skipped.get(), 2, "warm pass skipped both");
        assert_eq!(obs.stripes_decoded.get(), 0);
    }

    /// Every device of a store records in one shared log the key of each
    /// `locate`, `read_into` and `resident` it serves.
    type Log = Arc<std::sync::Mutex<Vec<(Served, BlockKey)>>>;

    #[test]
    fn each_plan_streams_its_blocks_once_in_ascending_node_order() {
        let graph = tornado_core::tornado_graph_1();
        let n = graph.num_nodes() as NodeId;
        // Per object (rotations 0, 1, 2): blocks rotted mid-stripe.
        let rotted: [&[NodeId]; 3] = [&[30], &[], &[5, 70]];
        for mode in [ScrubMode::Verify, ScrubMode::Full, ScrubMode::Incremental] {
            let log = Log::default();
            let devices = (0..n as usize)
                .map(|d| {
                    let log = Arc::clone(&log);
                    let record = move |how, key: &BlockKey| log.lock().unwrap().push((how, *key));
                    Device::with_backend(d, Box::new(HookedBackend::new(record)))
                })
                .collect();
            let store =
                ArchivalStore::assemble(graph.clone(), devices, IndexMap::default(), 1, 0, None);
            let ids: Vec<ObjectId> = (0..3)
                .map(|i| store.put(&format!("o{i}"), &vec![i as u8; 50_000]).unwrap())
                .collect();
            // Device 10 stays offline; device 40 comes back empty.
            store.fail_device(10).unwrap();
            store.fail_device(40).unwrap();
            store.replace_device(40).unwrap();
            for (&id, nodes) in ids.iter().zip(rotted) {
                let meta = store.meta(id).unwrap();
                for &v in nodes {
                    let device = store.device(store.device_of_block(&meta, v)).unwrap();
                    assert!(device.corrupt_block(&(id, v), 0x20));
                }
            }
            log.lock().unwrap().clear();
            let outcome = Scrubber::new(1).run(&store, 5, true, mode);
            assert_eq!(outcome.decoded_count(), 3, "{mode:?}");

            let log = log.lock().unwrap();
            let stripes = ids.iter().zip(rotted).zip(store.list()).zip(&outcome.costs);
            for (((&id, nodes), meta), cost) in stripes {
                let case = format!("{mode:?}, object {id}");
                let absent =
                    [10, 40].map(|d| node_on_device(d, meta.rotation, n as usize) as NodeId);
                let accesses: Vec<(Served, NodeId)> = log
                    .iter()
                    .filter(|(_, key)| key.0 == id)
                    .map(|&(how, key)| (how, key.1))
                    .collect();
                // One index lookup per node, on every online device, all
                // before the stream and none during it.
                let lookups = accesses
                    .iter()
                    .take_while(|&&(how, _)| how == Served::Locate)
                    .count();
                let (located, served) = accesses.split_at(lookups);
                let online: Vec<NodeId> = (0..n).filter(|&v| v != absent[0]).collect();
                let located: Vec<NodeId> = located.iter().map(|&(_, v)| v).collect();
                assert_eq!(located, online, "{case}: one lookup per node");
                assert!(
                    served.iter().all(|&(how, _)| how != Served::Locate),
                    "{case}: no lookup during the stream: {served:?}"
                );
                // Every present block streamed once, in ascending node order
                // across the re-plans: a plan ends at its rotted block (after
                // the block's group of four), and the next streams only what
                // the last did not reach. Full mode reads every block; the
                // others verify every block in place, the cone too.
                let present: Vec<NodeId> = (0..n).filter(|v| !absent.contains(v)).collect();
                let (stream, lend) = served.split_at(present.len().min(served.len()));
                let streamed: Vec<NodeId> = stream.iter().map(|&(_, v)| v).collect();
                assert_eq!(streamed, present, "{case}: {served:?}");
                let class = match mode {
                    ScrubMode::Full => Served::Read,
                    _ => Served::Resident,
                };
                assert!(stream.iter().all(|&(how, _)| how == class), "{case}");
                // Then the last plan's cone, lent to its replay where the
                // devices hold it: in ascending device id, each block once,
                // one repair-class read each. Full mode has it in hand.
                let lent: Vec<NodeId> = lend.iter().map(|&(_, v)| v).collect();
                if mode == ScrubMode::Full {
                    assert!(lent.is_empty(), "{case}: {lend:?}");
                    continue;
                }
                assert!(
                    lend.iter().all(|&(how, _)| how == Served::Resident),
                    "{case}"
                );
                assert_eq!(lent.len() as u64, cost.blocks_fetched, "{case}");
                let on: Vec<usize> = lent
                    .iter()
                    .map(|&v| store.device_of_block(&meta, v))
                    .collect();
                assert!(on.windows(2).all(|w| w[0] < w[1]), "{case}: {on:?}");
                assert!(
                    lent.iter().all(|v| !nodes.contains(v)),
                    "{case}: a rotted block is an erasure"
                );
            }
        }
    }

    #[test]
    fn repair_restores_full_redundancy_not_just_data() {
        let store = ArchivalStore::new(small_graph());
        store.put("a", b"x").unwrap();
        store.fail_device(6).unwrap(); // a check block
        store.replace_device(6).unwrap();
        let out = scrub(&store, 2, true);
        assert_eq!(out.blocks_repaired, 1, "check blocks are repaired too");
        let clean = scrub(&store, 2, false);
        assert_eq!(clean.degraded_count(), 0);
    }
}
