//! Observability for the serving layer.
//!
//! A [`ServerObserver`] is shared by the accept loop, every shard, and
//! every engine worker. Its cells are declared once, in [`ServerMetrics`]
//! (request path) and [`LoopStats`] (one per event-loop shard), as sharded
//! relaxed atomics (`tornado-obs`), so the hot request path pays a few
//! nanoseconds per emit; the JSON-lines event sink is off unless asked for.
//! The METRICS admin op and the periodic time-series sampler go through one
//! list of metric sets, which is also what [`crate::catalogue()`] documents.

use crate::health::HealthModel;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use tornado_obs::{metric_set, EventSink, Json, SeriesPoint, Snapshot, TimeSeries, Tracer};
use tornado_store::{ArchivalStore, StoreObserver};

/// How many periodic samples the server's time-series ring retains.
/// At the default 500 ms interval this is one minute of history.
pub(crate) const TIMESERIES_CAPACITY: usize = 120;

metric_set! {
    /// One event-loop shard's statistics, summed across shards at snapshot
    /// time. The loop's own cells are written by that shard's thread; the
    /// output cells (`write_flushes`, `batched_writes`, `responses_out`,
    /// `inflight`) by whichever thread answers on one of its connections —
    /// the shard, or the worker that made the reply.
    pub struct LoopStats {
        /// Readiness wakeups (returns from the poller's wait).
        wakeups: Counter = "server.loop.wakeups", "wakeups";
        /// Readiness events delivered; per wakeup, the loop's batching factor.
        events: Counter = "server.loop.events", "events";
        /// Output flushes that put two or more response frames in one write.
        batched_writes: Counter = "server.loop.batched_writes", "writes";
        /// Writes of response bytes to a socket, by a shard or by the worker
        /// that made the reply.
        write_flushes: Counter = "server.loop.write_flushes", "writes";
        /// Request frames reassembled and dispatched or answered.
        frames_in: Counter = "server.loop.frames_in", "frames";
        /// Response frames written or queued for output.
        responses_out: Counter = "server.loop.responses_out", "frames";
        /// Connections open now.
        connections: Gauge = "server.loop.connections", "connections", sampled;
        /// Frames dispatched to the engine and not yet answered.
        inflight: Gauge = "server.loop.inflight", "frames", sampled;
    }
}

metric_set! {
    /// The request-path cells of one server.
    pub struct ServerMetrics {
        /// Connections accepted.
        connections_opened: Counter = "server.connections_opened", "connections";
        /// PUT requests admitted to the queue.
        puts: Counter = "server.put", "requests", sampled;
        /// GET requests admitted.
        gets: Counter = "server.get", "requests", sampled;
        /// DELETE requests admitted.
        deletes: Counter = "server.delete", "requests";
        /// STAT requests admitted.
        stats_ops: Counter = "server.stat", "requests";
        /// PING and admin requests admitted (fail, revive, metrics, health, …).
        admin: Counter = "server.admin", "requests";
        /// Requests answered BUSY, the engine queue being at depth: backpressure.
        busy_rejected: Counter = "server.busy_rejected", "requests", sampled;
        /// Requests whose deadline expired before a worker picked them up.
        deadline_exceeded: Counter = "server.deadline_exceeded", "requests", sampled;
        /// Requests answered NOT_FOUND.
        not_found: Counter = "server.not_found", "requests";
        /// GETs answered UNRECOVERABLE.
        unrecoverable: Counter = "server.unrecoverable", "requests";
        /// Malformed frames or requests.
        bad_requests: Counter = "server.bad_requests", "requests";
        /// Requests that failed with an internal error.
        errors: Counter = "server.errors", "requests", sampled;
        /// GETs served degraded: a block was rebuilt, or the plan recomputed.
        degraded_reads: Counter = "server.get.degraded", "requests", sampled;
        /// Blocks rebuilt by the decoder to serve GETs.
        blocks_recovered: Counter = "server.get.blocks_recovered", "blocks";
        /// Replans mid-GET: a planned block turned out corrupt or newly lost.
        replans: Counter = "server.get.replans", "replans", sampled;
        /// Check-block bytes read to serve degraded GETs: foreground repair
        /// traffic (a scrub's is `repair.bytes_read`).
        get_repair_bytes: Counter = "server.get.repair_bytes", "bytes", sampled;
        /// Devices contacted by GETs, summed per request.
        get_devices_contacted: Counter = "server.get.devices_contacted", "devices";
        /// Object payload bytes received by PUTs.
        bytes_in: Counter = "server.bytes_in", "bytes", sampled;
        /// Object payload bytes served by GETs.
        bytes_out: Counter = "server.bytes_out", "bytes", sampled;
        /// Engine queue depth now.
        queue_depth: Gauge = "server.queue_depth", "jobs";
        /// Engine queue depth, high-water mark.
        queue_depth_peak: Gauge = "server.queue_depth_peak", "jobs";
        /// Time jobs spent queued before a worker picked them up.
        queue_wait_us: Histogram = "server.queue_wait_us", "us";
        /// PUT service time, excluding queue wait.
        put_us: Histogram = "server.put_us", "us";
        /// GET service time, excluding queue wait.
        get_us: Histogram = "server.get_us", "us";
        /// Service time of every other op, excluding queue wait.
        other_us: Histogram = "server.other_us", "us";
    }
}

metric_set! {
    /// Values a server works out when a snapshot is taken.
    pub(crate) struct Derived {
        /// Requests admitted to the queue, all op classes.
        requests: Counter = "server.requests", "requests", sampled;
        /// Open connections on the fullest shard minus the emptiest: large for
        /// long means round-robin accepting is fighting uneven lifetimes.
        shard_imbalance: Gauge = "server.loop.shard_imbalance", "connections";
        /// Trace spans recorded (`serve --trace-sample N`).
        spans_recorded: Counter = "trace.spans_recorded", "spans";
        /// Trace spans evicted from the bounded ring before export.
        spans_dropped: Counter = "trace.spans_dropped", "spans";
    }
}

/// Metrics and events for one server instance: derefs to its
/// [`ServerMetrics`], so a cell is `obs.gets`.
pub struct ServerObserver {
    /// Structured event sink (disabled by default).
    pub events: EventSink,
    /// Request-scoped span collector (disabled by default).
    pub tracer: Tracer,
    /// Periodic samples of the metrics declared `sampled`.
    pub timeseries: TimeSeries,
    /// The request-path cells.
    pub metrics: ServerMetrics,
    /// The store layer's observer; `serve` attaches it to the store it serves.
    pub store_obs: Arc<StoreObserver>,
    /// The durability observatory, set by `serve` when `HealthConfig::enabled`:
    /// workers answer HEALTH from it, the sampler thread drives its SLO clock.
    pub health: OnceLock<Arc<HealthModel>>,
    /// Per-shard event-loop statistics, set once by `serve`. An observer no
    /// server was started on still exports `server.loop.*`, as zeros.
    pub loop_shards: OnceLock<Vec<Arc<LoopStats>>>,
}

impl Deref for ServerObserver {
    type Target = ServerMetrics;

    fn deref(&self) -> &ServerMetrics {
        &self.metrics
    }
}

impl ServerObserver {
    /// An observer with no event output (metrics still accumulate).
    pub fn disabled() -> Self {
        Self {
            events: EventSink::disabled(),
            tracer: Tracer::disabled(),
            timeseries: TimeSeries::new(TIMESERIES_CAPACITY),
            metrics: ServerMetrics::new(),
            store_obs: Arc::new(StoreObserver::disabled()),
            health: OnceLock::new(),
            loop_shards: OnceLock::new(),
        }
    }

    /// Replaces the event sink.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Replaces the tracer (enables span collection).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Shared, disabled observer (the common construction).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::disabled())
    }

    /// Counts one admitted request by op class.
    pub(crate) fn count_op(&self, kind: &str) {
        match kind {
            "put" => self.puts.inc(),
            "get" => self.gets.inc(),
            "delete" => self.deletes.inc(),
            "stat" => self.stats_ops.inc(),
            _ => self.admin.inc(),
        }
    }

    /// Records the queue depth after a push/pop.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
        self.queue_depth_peak.raise(depth as i64);
    }

    /// Takes one time-series sample: every metric declared `sampled`, at the
    /// value a METRICS snapshot taken now would carry (the sampler thread's call).
    pub(crate) fn sample_timeseries(&self, store: &ArchivalStore, t_ms: u64) {
        let mut snap = Snapshot::default();
        self.record_all(store, &mut snap);
        self.timeseries.push(SeriesPoint {
            t_ms,
            values: snap.sampled(),
        });
    }

    /// Records every metric set a server exports: the one list behind
    /// METRICS, the time series and (by the catalogue test) the catalogue.
    /// Kernel, pool and backend counters are process-wide, as the server is.
    fn record_all(&self, store: &ArchivalStore, snap: &mut Snapshot) {
        let derived = Derived::new();
        for class in [
            &self.puts,
            &self.gets,
            &self.deletes,
            &self.stats_ops,
            &self.admin,
        ] {
            derived.requests.add(class.get());
        }
        derived.spans_recorded.add(self.tracer.recorded());
        derived.spans_dropped.add(self.tracer.dropped());
        let shards = self.loop_shards.get().map_or(&[][..], Vec::as_slice);
        let open = || shards.iter().map(|s| s.connections.get());
        derived
            .shard_imbalance
            .set(open().max().unwrap_or(0) - open().min().unwrap_or(0));
        // A zero `LoopStats` first: the names are there before `serve` sets the shards.
        snap.record(&self.metrics)
            .record(&derived)
            .record(&LoopStats::new());
        for shard in shards {
            snap.record(&**shard);
        }
        if let Some(model) = self.health.get() {
            snap.record(&model.metrics);
        }
        self.store_obs.record_into(store, snap);
        snap.record(tornado_codec::kernels::metrics())
            .record(tornado_codec::pool::metrics());
    }

    /// Builds a complete `tornado-metrics-v1` snapshot for the METRICS admin op.
    pub fn snapshot(&self, store: &ArchivalStore, elapsed_ms: u64) -> Snapshot {
        let mut snap = Snapshot::new("serve", elapsed_ms);
        snap.set("devices", Json::U64(store.num_devices() as u64));
        if !self.timeseries.is_empty() {
            // Extra top-level key: tornado-metrics-v1 validators ignore
            // unknown keys, so old consumers keep parsing these snapshots.
            snap.set("timeseries", self.timeseries.to_json());
        }
        // The latest tick's health document rides along the same way (never
        // a fresh rendering on the metrics path — METRICS must stay cheap).
        if let Some(doc) = self.health.get().and_then(|m| m.latest()) {
            snap.set("health", doc);
        }
        self.record_all(store, &mut snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> ArchivalStore {
        ArchivalStore::new(tornado_gen::mirror::generate_mirror(4).unwrap())
    }

    #[test]
    fn every_sampled_name_is_a_catalogue_counter_carrying_the_counters_value() {
        let (obs, store) = (ServerObserver::disabled(), small_store());
        obs.count_op("get");
        obs.replans.add(2);
        obs.get_repair_bytes.add(4096);
        obs.store_obs.repair_bytes_read.add(1024);
        obs.store_obs.stripes_skipped.add(7);
        obs.sample_timeseries(&store, 50);
        let doc = obs.snapshot(&store, 50).to_json();
        let point = obs.timeseries.points().pop().unwrap();
        // The two occupancy gauges `watch` shows raw, never as rates.
        let (raw_gauges, rows) = (
            [LoopStats::connections, LoopStats::inflight],
            crate::catalogue(),
        );
        for (name, value) in &point.values {
            let row = rows.iter().find(|d| d.name == name).expect(name);
            assert!(row.sampled, "{name}");
            let section = match row.kind {
                "counter" => "counters",
                _ if raw_gauges.contains(&row.name) => "gauges",
                other => panic!("{name} is sampled as a rate but is a {other}"),
            };
            let in_document = doc
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Json::as_u64);
            assert_eq!(
                in_document,
                Some(*value),
                "{name}: one meaning per document"
            );
        }
        // Repair traffic keeps its two sources apart, each under its own name.
        assert_eq!(point.value(ServerMetrics::get_repair_bytes), Some(4096));
        assert_eq!(
            point.value(tornado_store::StoreMetrics::repair_bytes_read),
            Some(1024)
        );
        assert_eq!(point.value(Derived::requests), Some(1));
    }

    #[test]
    fn snapshot_carries_request_counters_and_validates() {
        let (obs, store) = (ServerObserver::disabled(), small_store());
        obs.count_op("put");
        obs.count_op("get");
        obs.count_op("get");
        obs.count_op("metrics");
        obs.degraded_reads.inc();
        obs.get_us.record(120);
        obs.record_queue_depth(5);
        obs.record_queue_depth(2);

        let doc = tornado_obs::json::parse(&obs.snapshot(&store, 10).to_pretty()).unwrap();
        tornado_obs::snapshot::validate(&doc).unwrap();
        crate::catalogue::check_snapshot(&doc).unwrap();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("server.requests").unwrap().as_u64(), Some(4));
        assert_eq!(counters.get("server.get").unwrap().as_u64(), Some(2));
        assert_eq!(
            counters.get("server.get.degraded").unwrap().as_u64(),
            Some(1)
        );
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("server.queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(
            gauges.get("server.queue_depth_peak").unwrap().as_u64(),
            Some(5)
        );
    }
}
