//! Observability hooks for the archival store.
//!
//! A [`StoreObserver`] is attached to a store
//! ([`ArchivalStore::set_observer`]) and collects what operators of the
//! archive care about between scrub passes: how long a cycle took, how
//! many stripes are degraded or urgent right now, how many blocks repair
//! has rewritten and what it read to do so. Every cell is declared once, in
//! [`StoreMetrics`]; [`DeviceTotals`] are the pool-wide device sums, read
//! off the devices themselves when a snapshot is taken.

use std::ops::Deref;
use tornado_codec::DecodeMetrics;
use tornado_obs::{metric_set, EventSink, Json, Snapshot};

use crate::scrubber::ScrubOutcome;
use crate::store::ArchivalStore;

metric_set! {
    /// What a [`Scrubber`](crate::Scrubber) counts, run over a store with an
    /// observer attached.
    pub struct StoreMetrics {
        /// Scrub cycle wall time.
        scrub_cycle_us: Histogram = "scrub.cycle_us", "us";
        /// Scrub cycles completed.
        scrub_cycles: Counter = "scrub.cycles", "cycles";
        /// Stripes with a block missing or corrupt, as of the latest scrub.
        degraded: Gauge = "scrub.degraded_stripes", "stripes";
        /// Stripes whose scrub margin (first-failure level − missing blocks)
        /// is ≤ 1, as of the latest scrub: a lower bound on HEALTH's exact margin.
        urgent: Gauge = "scrub.urgent_stripes", "stripes";
        /// Blocks rebuilt and written home by repair.
        blocks_repaired: Counter = "scrub.blocks_repaired", "blocks";
        /// Stripes the incremental tier skipped untouched.
        stripes_skipped: Counter = "scrub.skipped", "stripes", sampled;
        /// Stripes checksum-verified and found intact.
        stripes_verified: Counter = "scrub.verified", "stripes", sampled;
        /// Stripes with damage, whose repair was planned and replayed.
        stripes_decoded: Counter = "scrub.decoded", "stripes", sampled;
        /// Bytes scrub repairs read off devices to rebuild lost blocks:
        /// background repair traffic (a degraded GET's is `server.get.repair_bytes`).
        repair_bytes_read: Counter = "repair.bytes_read", "bytes", sampled;
        /// Blocks those repair reads fetched.
        repair_blocks_fetched: Counter = "repair.blocks_fetched", "blocks";
        /// Devices contacted by scrub repairs, summed per repaired stripe.
        repair_devices_contacted: Counter = "repair.devices_contacted", "devices";
        /// Recovery-schedule depth per repaired stripe.
        repair_depth: Histogram = "repair.depth", "steps";
    }
}

metric_set! {
    /// Pool-wide device figures: [`DeviceStats`](crate::DeviceStats) summed
    /// over every device when a snapshot is taken ([`DeviceTotals::of`]),
    /// so a scrape never reads a stale fleet.
    pub struct DeviceTotals {
        /// Devices offline now.
        offline: Gauge = "device.offline", "devices";
        /// Writes rejected because the device was offline.
        failed_writes: Counter = "device.failed_writes", "writes";
        /// Backend I/O failures on online devices: media trouble, not rejections.
        io_errors: Counter = "device.io_errors", "errors";
        /// Bytes read from devices, any class.
        bytes_read: Counter = "device.bytes_read", "bytes";
        /// Repair-class bytes read: check blocks for degraded GETs, scrub cones.
        bytes_repair_read: Counter = "device.bytes_repair_read", "bytes";
    }
}

impl DeviceTotals {
    /// The totals of `store`'s device pool as of now.
    pub(crate) fn of(store: &ArchivalStore) -> Self {
        let totals = Self::new();
        totals.offline.set(store.offline_devices().len() as i64);
        for d in (0..store.num_devices()).filter_map(|d| store.device(d).ok()) {
            let s = d.stats();
            totals.failed_writes.add(s.failed_writes);
            totals.io_errors.add(s.io_errors);
            totals.bytes_read.add(s.bytes_read);
            totals.bytes_repair_read.add(s.bytes_repair_read);
        }
        totals
    }
}

/// Observability bundle for one store: derefs to its [`StoreMetrics`], so
/// a cell is `obs.scrub_cycles`.
pub struct StoreObserver {
    /// Structured event sink (disabled by default).
    pub events: EventSink,
    /// The scrub and repair cells.
    pub metrics: StoreMetrics,
    /// Peeling-kernel counters drained from scrub decodes. Each scrub
    /// worker records into its own decoder and drains here at stripe
    /// boundaries; summation commutes, so the totals are independent of
    /// which worker scrubbed which stripe.
    pub decode: DecodeMetrics,
}

impl Deref for StoreObserver {
    type Target = StoreMetrics;

    fn deref(&self) -> &StoreMetrics {
        &self.metrics
    }
}

impl StoreObserver {
    /// An observer with no event output (metrics still accumulate).
    pub fn disabled() -> Self {
        Self {
            events: EventSink::disabled(),
            metrics: StoreMetrics::new(),
            decode: DecodeMetrics::new(),
        }
    }

    /// Records a completed recovery-on-open: emits a `recovery` event
    /// with the full [`crate::RecoveryReport`]. The `backend.*` counters the
    /// recovery bumped are process-wide and flow into every snapshot via
    /// [`StoreObserver::record_into`].
    pub fn record_recovery(&self, report: &crate::durable::RecoveryReport) {
        self.events.emit(
            "recovery",
            &[
                ("duration_us", Json::U64(report.duration_us)),
                ("journal_records", Json::U64(report.journal_records as u64)),
                ("torn_tail", Json::Bool(report.torn_tail)),
                ("committed_puts", Json::U64(report.committed_puts as u64)),
                ("rolled_back", Json::U64(report.rolled_back as u64)),
                (
                    "deletes_replayed",
                    Json::U64(report.deletes_replayed as u64),
                ),
                (
                    "invalid_sidecars",
                    Json::U64(report.invalid_sidecars as u64),
                ),
                ("objects", Json::U64(report.objects as u64)),
            ],
        );
    }

    /// Replaces the event sink.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Records one completed scrub pass: cycle time, health gauges, repair
    /// counters, and a `scrub_cycle` event.
    pub(crate) fn record_scrub(&self, outcome: &ScrubOutcome, elapsed_us: u64, repair: bool) {
        self.scrub_cycle_us.record(elapsed_us);
        self.scrub_cycles.inc();
        self.degraded.set(outcome.degraded_count() as i64);
        self.urgent.set(outcome.urgent_count() as i64);
        self.blocks_repaired.add(outcome.blocks_repaired as u64);
        self.stripes_skipped.add(outcome.skipped_count() as u64);
        self.stripes_verified.add(outcome.verified_count() as u64);
        self.stripes_decoded.add(outcome.decoded_count() as u64);
        // Each decoded stripe that read anything is one recovery: its cost
        // lands in the repair counters and its depth in the histogram.
        for (cost, action) in outcome.costs.iter().zip(&outcome.actions) {
            if *action == crate::scrubber::ScrubAction::Decoded && !cost.is_zero() {
                self.repair_bytes_read.add(cost.bytes_read);
                self.repair_blocks_fetched.add(cost.blocks_fetched);
                self.repair_devices_contacted.add(cost.devices_contacted);
                self.repair_depth.record(cost.recovery_depth);
            }
        }
        let repair_cost = outcome.repair_cost();
        self.events.emit(
            "scrub_cycle",
            &[
                ("repair_bytes_read", Json::U64(repair_cost.bytes_read)),
                (
                    "repair_devices_contacted",
                    Json::U64(repair_cost.devices_contacted),
                ),
                ("stripes", Json::U64(outcome.stripes.len() as u64)),
                ("degraded", Json::U64(outcome.degraded_count() as u64)),
                ("urgent", Json::U64(outcome.urgent_count() as u64)),
                ("skipped", Json::U64(outcome.skipped_count() as u64)),
                ("verified", Json::U64(outcome.verified_count() as u64)),
                ("decoded", Json::U64(outcome.decoded_count() as u64)),
                ("repaired", Json::U64(outcome.blocks_repaired as u64)),
                (
                    "incomplete",
                    Json::U64(outcome.objects_incomplete.len() as u64),
                ),
                ("repair", Json::Bool(repair)),
                ("elapsed_us", Json::U64(elapsed_us)),
            ],
        );
    }

    /// Records every store-layer metric into `snap`: this observer's
    /// cells, the decode-kernel counters its scrubs drained, `store`'s
    /// device totals as of now and the process-wide `backend.*` counters.
    pub fn record_into(&self, store: &ArchivalStore, snap: &mut Snapshot) {
        snap.record(&self.metrics)
            .record(&self.decode)
            .record(&DeviceTotals::of(store))
            .record(crate::backend::metrics());
    }
}
