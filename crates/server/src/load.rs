//! Load generators for the archival block service.
//!
//! [`run_load`] opens `connections` client connections, each driven by its
//! own worker thread over a [`PipelinedClient`]: pick the next operation
//! from the seeded weighted mix, submit it, settle completions by
//! correlation id in whatever order the server finishes them, record the
//! latency, repeat until the clock runs out. Object popularity is zipfian
//! — earlier objects are hotter — so GETs concentrate on a warm set the
//! way archival read traffic does. Two knobs change the discipline:
//!
//! * `pipeline_depth` is how many requests a worker keeps in flight on
//!   its connection; at 1 each request waits for its response;
//! * `rate_ops_per_sec` > 0 switches from closed-loop (issue as fast as
//!   responses come back) to open-loop: arrivals follow a fixed schedule
//!   and latency is measured from the *scheduled* time, so server
//!   backlog shows up as queueing delay instead of quietly throttling
//!   the arrival stream (the coordinated-omission correction).
//!
//! [`mux::run_mux`] is a separate driver: thousands of connections from
//! one thread over the readiness reactor — the connection-count scaling
//! harness, where a driver thread per connection would perturb the
//! measurement more than the server under test.
//!
//! Determinism: every random choice (op, object, payload size, payload
//! bytes) derives from `LoadConfig::seed`, so two runs with the same seed
//! issue the same operation stream per worker. Payload bytes regenerate
//! from a per-object seed, which is how every GET is verified
//! byte-for-byte — any corruption the decoder fails to repair shows up as
//! a `payload_mismatches` count, not a silent pass.
//!
//! Mid-run failure injection: when `fail_devices` is non-empty, a
//! dedicated admin connection fails those devices (spaced by
//! `fail_spacing_ms`) after `fail_after_ms`, while the workers keep
//! hammering the server — exercising the transparently-degraded read path
//! under concurrency.

use crate::client::{Client, PipelinedClient};
use crate::error::ClientError;
use crate::obs::ServerMetrics;
use crate::protocol::{Op, Response};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tornado_obs::{Histogram, Json, Snapshot};

/// Weighted operation mix (weights need not sum to anything particular).
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Relative weight of PUT.
    pub put: u32,
    /// Relative weight of GET.
    pub get: u32,
    /// Relative weight of DELETE.
    pub delete: u32,
}

impl Default for OpMix {
    /// Read-heavy archival mix: mostly GETs, steady ingest, rare deletes.
    fn default() -> Self {
        Self {
            put: 20,
            get: 75,
            delete: 5,
        }
    }
}

/// Tunables for one [`run_load`] run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7401`.
    pub addr: String,
    /// Concurrent connections, one closed-loop worker each.
    pub connections: usize,
    /// Wall-clock run length in milliseconds (after prefill).
    pub duration_ms: u64,
    /// Master seed — same seed, same per-worker operation stream.
    pub seed: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Smallest payload, bytes.
    pub payload_min: usize,
    /// Largest payload, bytes.
    pub payload_max: usize,
    /// Zipf exponent for object popularity (0 = uniform; ~0.99 typical).
    pub zipf_theta: f64,
    /// Objects each worker PUTs before the measured window opens, so GETs
    /// have something to hit from the first sample.
    pub prefill: usize,
    /// Devices to fail mid-run (empty = no injection).
    pub fail_devices: Vec<u32>,
    /// Delay before the first injected failure, milliseconds.
    pub fail_after_ms: u64,
    /// Spacing between injected failures, milliseconds.
    pub fail_spacing_ms: u64,
    /// Per-request deadline stamped by each client (0 = none).
    pub deadline_ms: u32,
    /// Trace propagation: stamp every logical operation with a
    /// deterministic trace id drawn from the worker's seeded rng, and
    /// report the 1-in-N ids the server's sampler will keep (same
    /// `tornado_obs::trace::sampled` key function on both sides).
    /// 0 stamps no trace ids at all — the wire format stays pre-trace.
    pub trace_sample: u64,
    /// Stop each worker after this many measured operations (0 = run
    /// until the clock). With a generous `duration_ms` this makes the
    /// op stream — and therefore the sampled trace-id set — an exact
    /// function of `seed`, independent of server worker count.
    pub op_limit: u64,
    /// Requests each worker keeps in flight on its connection, matched
    /// to their completions by correlation id. 1 (or 0) waits for each
    /// response before issuing the next request.
    pub pipeline_depth: usize,
    /// Open-loop arrival rate, operations per second across the whole
    /// run (0 = closed loop). Each worker paces at `rate / connections`
    /// and latency is measured from the *scheduled* send time, so a
    /// server that falls behind accrues queueing delay in the histogram
    /// instead of silently slowing the arrival stream
    /// (coordinated-omission corrected).
    pub rate_ops_per_sec: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7401".into(),
            connections: 4,
            duration_ms: 2_000,
            seed: 1,
            mix: OpMix::default(),
            payload_min: 1 << 10,
            payload_max: 64 << 10,
            zipf_theta: 0.99,
            prefill: 8,
            fail_devices: Vec::new(),
            fail_after_ms: 300,
            fail_spacing_ms: 50,
            deadline_ms: 0,
            trace_sample: 256,
            op_limit: 0,
            pipeline_depth: 1,
            rate_ops_per_sec: 0.0,
        }
    }
}

/// How many slowest-operation exemplars each run retains.
pub const EXEMPLAR_KEEP: usize = 5;

/// One slow sampled operation, printable next to p50/p99 so the operator
/// can jump straight from a latency number to its span tree in the
/// server's trace export.
#[derive(Clone, Copy, Debug)]
pub struct TraceExemplar {
    /// Client-observed latency, microseconds.
    pub latency_us: u64,
    /// The trace id stamped on the request (look it up in the export).
    pub trace_id: u64,
    /// Operation kind: `"put"`, `"get"`, or `"delete"`.
    pub op: &'static str,
}

/// Keeps the `EXEMPLAR_KEEP` slowest exemplars via min-replace.
fn note_exemplar(slowest: &mut Vec<TraceExemplar>, e: TraceExemplar) {
    if slowest.len() < EXEMPLAR_KEEP {
        slowest.push(e);
        return;
    }
    if let Some(i) = (0..slowest.len()).min_by_key(|&i| slowest[i].latency_us) {
        if e.latency_us > slowest[i].latency_us {
            slowest[i] = e;
        }
    }
}

tornado_obs::metric_set! {
    /// The names a load run's own snapshot exports ([`LoadReport::snapshot`]).
    pub struct LoadMetrics {
        /// Operations completed (BUSY retries excluded).
        ops: Counter = "load.ops", "ops";
        /// PUTs completed.
        puts: Counter = "load.put", "ops";
        /// GETs completed, each verified byte-for-byte.
        gets: Counter = "load.get", "ops";
        /// DELETEs completed.
        deletes: Counter = "load.delete", "ops";
        /// BUSY rejections absorbed, each retried after backoff.
        busy_retries: Counter = "load.busy_retries", "retries";
        /// Operations that failed with a transport or server error.
        errors: Counter = "load.errors", "ops";
        /// GETs answered UNRECOVERABLE.
        unrecoverable: Counter = "load.unrecoverable", "ops";
        /// GETs whose payload did not match the expected bytes; must be 0.
        payload_mismatches: Counter = "load.payload_mismatches", "ops";
        /// Devices failed by the injector during the run.
        devices_failed: Counter = "load.devices_failed", "devices";
        /// The server's `server.get.degraded` when the run ended.
        degraded_reads: Counter = "load.degraded_reads", "requests";
        /// The server's `server.get.replans` when the run ended.
        replans: Counter = "load.replans", "replans";
        /// The server's `server.get.repair_bytes` when the run ended.
        repair_bytes: Counter = "load.repair_bytes", "bytes";
        /// Trace ids the server's deterministic sampler will have kept.
        sampled_traces: Counter = "load.sampled_traces", "traces";
        /// Client-observed operation latency.
        latency_us: Histogram = "load.latency_us", "us";
    }
}

/// Aggregated result of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Measured window length, milliseconds.
    pub elapsed_ms: u64,
    /// Completed operations (excludes busy retries).
    pub ops: u64,
    /// Completed PUTs.
    pub puts: u64,
    /// Completed GETs.
    pub gets: u64,
    /// Completed DELETEs.
    pub deletes: u64,
    /// BUSY rejections absorbed (each retried after backoff).
    pub busy_retries: u64,
    /// Operations that failed with a transport or server error.
    pub errors: u64,
    /// GETs answered UNRECOVERABLE (possible only past the fault
    /// tolerance of the graph).
    pub unrecoverable: u64,
    /// GETs whose payload did not match the expected bytes — must be zero.
    pub payload_mismatches: u64,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Client-observed operation latency, microseconds.
    pub latency_us: Histogram,
    /// Devices failed by the injector during the run.
    pub devices_failed: Vec<u32>,
    /// `server.get.degraded` from the server's final metrics snapshot.
    pub degraded_reads: u64,
    /// `server.get.replans` from the server's final metrics snapshot —
    /// GETs that had to fall back to a wider plan mid-fetch.
    pub replans: u64,
    /// `server.get.repair_bytes` from the server's final metrics snapshot
    /// — repair-class (check-block) bytes the degraded GETs pulled.
    pub repair_bytes: u64,
    /// The server's final `tornado-metrics-v1` snapshot (pretty JSON).
    pub server_metrics_json: String,
    /// Trace ids the server's deterministic sampler will have kept
    /// (sorted, deduplicated; empty when `trace_sample` is 0).
    pub sampled_trace_ids: Vec<u64>,
    /// The slowest sampled operations across all workers, latency
    /// descending (at most [`EXEMPLAR_KEEP`]).
    pub slowest: Vec<TraceExemplar>,
}

impl LoadReport {
    /// Median latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.latency_us.percentile(0.5).unwrap_or(0)
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.latency_us.percentile(0.99).unwrap_or(0)
    }

    /// Builds a client-side `tornado-metrics-v1` snapshot of this run,
    /// embedding the server's own final snapshot under `"server"`.
    pub fn snapshot(&self, seed: u64) -> Snapshot {
        let m = LoadMetrics::new();
        m.ops.add(self.ops);
        m.puts.add(self.puts);
        m.gets.add(self.gets);
        m.deletes.add(self.deletes);
        m.busy_retries.add(self.busy_retries);
        m.errors.add(self.errors);
        m.unrecoverable.add(self.unrecoverable);
        m.payload_mismatches.add(self.payload_mismatches);
        m.devices_failed.add(self.devices_failed.len() as u64);
        m.degraded_reads.add(self.degraded_reads);
        m.replans.add(self.replans);
        m.repair_bytes.add(self.repair_bytes);
        m.sampled_traces.add(self.sampled_trace_ids.len() as u64);
        m.latency_us.merge(&self.latency_us);
        let mut snap = Snapshot::new("load", self.elapsed_ms);
        snap.set("seed", Json::U64(seed))
            .set("ops_per_sec", Json::F64(self.ops_per_sec))
            .record(&m);
        if !self.slowest.is_empty() {
            let arr = self
                .slowest
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("latency_us".into(), Json::U64(e.latency_us)),
                        (
                            "trace_id".into(),
                            Json::Str(format!("{:#018x}", e.trace_id)),
                        ),
                        ("op".into(), Json::Str(e.op.into())),
                    ])
                })
                .collect();
            snap.set("slowest_traces", Json::Arr(arr));
        }
        if let Ok(server) = tornado_obs::json::parse(&self.server_metrics_json) {
            snap.set("server", server);
        }
        snap
    }
}

/// Deterministic payload bytes for object seed `seed` — regenerated on the
/// GET side for byte-for-byte verification.
pub fn payload_for(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = vec![0u8; len];
    for chunk in buf.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    buf
}

/// One worker's view of an object it stored.
struct ObjEntry {
    id: u64,
    seed: u64,
    len: usize,
}

/// Zipfian sampler over a growing table: object at rank `r` (insertion
/// order) has weight `1/(r+1)^theta`, so earlier objects stay hottest.
struct ZipfTable {
    entries: Vec<ObjEntry>,
    cumulative: Vec<f64>,
    theta: f64,
}

impl ZipfTable {
    fn new(theta: f64) -> Self {
        Self {
            entries: Vec::new(),
            cumulative: Vec::new(),
            theta,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn push(&mut self, e: ObjEntry) {
        let rank = self.entries.len();
        let w = 1.0 / ((rank + 1) as f64).powf(self.theta);
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        self.entries.push(e);
        self.cumulative.push(total + w);
    }

    /// Samples an index zipfian-by-rank.
    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let u = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.entries.len() - 1)
    }

    /// Removes index `i`, recomputing the rank weights of what remains.
    fn remove(&mut self, i: usize) -> ObjEntry {
        let e = self.entries.remove(i);
        self.cumulative.clear();
        let mut total = 0.0;
        for rank in 0..self.entries.len() {
            total += 1.0 / ((rank + 1) as f64).powf(self.theta);
            self.cumulative.push(total);
        }
        e
    }
}

/// Per-worker tallies, summed into the report after join.
#[derive(Default)]
struct WorkerTally {
    ops: u64,
    puts: u64,
    gets: u64,
    deletes: u64,
    busy_retries: u64,
    errors: u64,
    unrecoverable: u64,
    payload_mismatches: u64,
    latency_us: Histogram,
    sampled_trace_ids: Vec<u64>,
    slowest: Vec<TraceExemplar>,
}

impl WorkerTally {
    /// Records one completed operation: latency, per-op counter, and —
    /// when its trace id is one the server's sampler keeps — the sampled
    /// id and a slowest-exemplar candidate.
    fn complete(
        &mut self,
        cfg: &LoadConfig,
        trace_id: Option<u64>,
        op: &'static str,
        latency_us: u64,
    ) {
        self.latency_us.record(latency_us);
        self.ops += 1;
        match op {
            "put" => self.puts += 1,
            "get" => self.gets += 1,
            "delete" => self.deletes += 1,
            _ => {}
        }
        if let Some(id) = trace_id {
            if tornado_obs::trace::sampled(id, cfg.trace_sample) {
                self.sampled_trace_ids.push(id);
                note_exemplar(
                    &mut self.slowest,
                    TraceExemplar {
                        latency_us,
                        trace_id: id,
                        op,
                    },
                );
            }
        }
    }
}

/// Runs the load and returns the aggregated report.
///
/// Fails fast if the first connection cannot be established; individual
/// op errors during the run are counted, not fatal.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    // Probe the server before spawning anything.
    let mut admin = Client::connect(&cfg.addr)?;
    admin.ping()?;

    let connections = cfg.connections.max(1);
    let start = Instant::now();
    let stop_at = start + Duration::from_millis(cfg.duration_ms);
    let seq = Arc::new(AtomicU64::new(0));

    let mut tallies: Vec<WorkerTally> = Vec::with_capacity(connections);
    let mut devices_failed = Vec::new();
    thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|worker| {
                let cfg = cfg.clone();
                let seq = Arc::clone(&seq);
                s.spawn(move || worker_loop_pipelined(&cfg, worker as u64, stop_at, &seq))
            })
            .collect();

        // Failure injection rides on the admin connection while workers run.
        if !cfg.fail_devices.is_empty() {
            thread::sleep(Duration::from_millis(cfg.fail_after_ms));
            for &device in &cfg.fail_devices {
                match admin.fail_device(device) {
                    Ok(()) => devices_failed.push(device),
                    Err(_) => break,
                }
                thread::sleep(Duration::from_millis(cfg.fail_spacing_ms));
            }
        }

        for w in workers {
            tallies.push(w.join().expect("load worker panicked"));
        }
    });
    let elapsed_ms = (start.elapsed().as_millis() as u64).max(1);

    let mut report = LoadReport {
        elapsed_ms,
        ops: 0,
        puts: 0,
        gets: 0,
        deletes: 0,
        busy_retries: 0,
        errors: 0,
        unrecoverable: 0,
        payload_mismatches: 0,
        ops_per_sec: 0.0,
        latency_us: Histogram::new(),
        devices_failed,
        degraded_reads: 0,
        replans: 0,
        repair_bytes: 0,
        server_metrics_json: String::new(),
        sampled_trace_ids: Vec::new(),
        slowest: Vec::new(),
    };
    for t in &tallies {
        report.ops += t.ops;
        report.puts += t.puts;
        report.gets += t.gets;
        report.deletes += t.deletes;
        report.busy_retries += t.busy_retries;
        report.errors += t.errors;
        report.unrecoverable += t.unrecoverable;
        report.payload_mismatches += t.payload_mismatches;
        report.latency_us.merge(&t.latency_us);
        report.sampled_trace_ids.extend(&t.sampled_trace_ids);
        for &e in &t.slowest {
            note_exemplar(&mut report.slowest, e);
        }
    }
    report.sampled_trace_ids.sort_unstable();
    report.sampled_trace_ids.dedup();
    report
        .slowest
        .sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_us));
    report.ops_per_sec = report.ops as f64 * 1000.0 / elapsed_ms as f64;

    report.server_metrics_json = admin.metrics()?;
    if let Ok(doc) = tornado_obs::json::parse(&report.server_metrics_json) {
        let counter = |key: &str| {
            doc.get("counters")
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        report.degraded_reads = counter(ServerMetrics::degraded_reads);
        report.replans = counter(ServerMetrics::replans);
        report.repair_bytes = counter(ServerMetrics::get_repair_bytes);
    }
    Ok(report)
}

/// The per-worker arrival interval for open-loop runs (`None` = closed
/// loop).
fn per_worker_interval(cfg: &LoadConfig) -> Option<Duration> {
    if cfg.rate_ops_per_sec > 0.0 {
        Some(Duration::from_secs_f64(
            cfg.connections.max(1) as f64 / cfg.rate_ops_per_sec,
        ))
    } else {
        None
    }
}

/// What one in-flight pipelined request was, in enough detail to verify
/// its completion — or resubmit it verbatim after a BUSY.
enum PendingKind {
    /// `obj_seed`/`len` regenerate the payload on retry (and are what
    /// the table learns on PutOk), so no payload bytes are retained.
    Put {
        name: String,
        obj_seed: u64,
        len: usize,
    },
    Get {
        obj_id: u64,
        obj_seed: u64,
        len: usize,
    },
    Delete {
        obj_id: u64,
    },
}

/// One submitted-but-unanswered pipelined request.
struct PendingOp {
    kind: PendingKind,
    trace_id: Option<u64>,
    /// Latency origin: the scheduled arrival (open loop) or the instant
    /// the frame was first handed to the socket (closed loop). Survives
    /// busy-resubmits unchanged — backlog is the user's latency.
    sched: Instant,
}

/// Mutable state of one pipelined worker, so submit/receive logic can be
/// factored into methods instead of functions with ten parameters.
struct PipelinedWorker<'a> {
    cfg: &'a LoadConfig,
    client: PipelinedClient,
    rng: SmallRng,
    table: ZipfTable,
    /// In-flight requests by correlation id.
    pending: HashMap<u32, PendingOp>,
    /// Objects with in-flight GETs, by object id — a DELETE of such an
    /// object is deferred (its out-of-order completion could otherwise
    /// race the reads and turn verified GETs into NotFounds).
    inflight_gets: HashMap<u64, u32>,
    tally: WorkerTally,
    seq: &'a AtomicU64,
}

impl PipelinedWorker<'_> {
    /// Draws a fresh object to PUT: length, then payload seed. The atomic
    /// sequence makes names globally unique across workers; payload bytes
    /// stay a pure function of `obj_seed`.
    fn new_put(&mut self) -> PendingKind {
        let len = if self.cfg.payload_max > self.cfg.payload_min {
            self.rng
                .gen_range(self.cfg.payload_min..=self.cfg.payload_max)
        } else {
            self.cfg.payload_min.max(1)
        };
        let obj_seed = self.rng.next_u64();
        let name = format!("load-{}", self.seq.fetch_add(1, Ordering::Relaxed));
        PendingKind::Put {
            name,
            obj_seed,
            len: len.max(1),
        }
    }

    /// Draws the next op from the weighted mix. DELETE of an object with
    /// reads still in flight degrades to a GET of that object.
    fn pick_kind(&mut self) -> PendingKind {
        let total = self.cfg.mix.put + self.cfg.mix.get + self.cfg.mix.delete;
        let pick = if total == 0 {
            0
        } else {
            self.rng.gen_range(0..total)
        };
        if pick < self.cfg.mix.put || self.table.len() == 0 {
            return self.new_put();
        }
        let i = self.table.sample(&mut self.rng);
        if pick < self.cfg.mix.put + self.cfg.mix.get
            || self
                .inflight_gets
                .get(&self.table.entries[i].id)
                .copied()
                .unwrap_or(0)
                > 0
        {
            let e = &self.table.entries[i];
            PendingKind::Get {
                obj_id: e.id,
                obj_seed: e.seed,
                len: e.len,
            }
        } else {
            // Removing at submit time keeps later picks off this object.
            let e = self.table.remove(i);
            PendingKind::Delete { obj_id: e.id }
        }
    }

    /// Submits `kind`, registering it in the pending window. `sched` is
    /// the latency origin; `None` (a closed-loop first attempt) starts the
    /// clock as the frame is handed to the socket, so generating a PUT
    /// payload is not billed to the server. Returns `false` when the
    /// connection is unusable.
    fn submit_kind(
        &mut self,
        kind: PendingKind,
        trace_id: Option<u64>,
        sched: Option<Instant>,
    ) -> bool {
        let op = match &kind {
            PendingKind::Put {
                name,
                obj_seed,
                len,
            } => Op::Put {
                name: name.clone(),
                payload: payload_for(*obj_seed, *len),
            },
            PendingKind::Get { obj_id, .. } => Op::Get { id: *obj_id },
            PendingKind::Delete { obj_id } => Op::Delete { id: *obj_id },
        };
        self.client.set_trace_id(trace_id);
        let sched = sched.unwrap_or_else(Instant::now);
        match self.client.submit(op) {
            Ok(corr) => {
                if let PendingKind::Get { obj_id, .. } = &kind {
                    *self.inflight_gets.entry(*obj_id).or_insert(0) += 1;
                }
                self.pending.insert(
                    corr,
                    PendingOp {
                        kind,
                        trace_id,
                        sched,
                    },
                );
                true
            }
            Err(_) => {
                self.tally.errors += 1;
                false
            }
        }
    }

    /// Blocks for one completion and settles it against the pending
    /// window. Returns `false` when the connection is unusable.
    fn recv_one(&mut self) -> bool {
        let (corr, resp) = match self.client.recv() {
            Ok(pair) => pair,
            Err(_) => {
                self.tally.errors += 1;
                return false;
            }
        };
        let Some(p) = self.pending.remove(&corr) else {
            // A correlation id we never issued — protocol breakage.
            self.tally.errors += 1;
            return true;
        };
        if let PendingKind::Get { obj_id, .. } = &p.kind {
            if let Some(n) = self.inflight_gets.get_mut(obj_id) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.inflight_gets.remove(obj_id);
                }
            }
        }
        let latency_us = p.sched.elapsed().as_micros() as u64;
        match (resp, p.kind) {
            (Response::PutOk { id }, PendingKind::Put { obj_seed, len, .. }) => {
                self.tally.complete(self.cfg, p.trace_id, "put", latency_us);
                self.table.push(ObjEntry {
                    id,
                    seed: obj_seed,
                    len,
                });
            }
            (Response::GetOk { payload }, PendingKind::Get { obj_seed, len, .. }) => {
                self.tally.complete(self.cfg, p.trace_id, "get", latency_us);
                if payload != payload_for(obj_seed, len) {
                    self.tally.payload_mismatches += 1;
                }
            }
            (Response::Ok, PendingKind::Delete { .. }) => {
                self.tally
                    .complete(self.cfg, p.trace_id, "delete", latency_us);
            }
            (Response::Busy, kind) => {
                // Back off, then the identical op goes back out under a
                // fresh correlation id with its original latency clock
                // still running.
                self.tally.busy_retries += 1;
                thread::sleep(Duration::from_millis(1));
                return self.submit_kind(kind, p.trace_id, Some(p.sched));
            }
            (Response::Unrecoverable { .. }, PendingKind::Get { .. }) => {
                self.tally.unrecoverable += 1;
            }
            _ => {
                self.tally.errors += 1;
            }
        }
        true
    }
}

/// The worker body: up to `pipeline_depth` requests in flight on one
/// connection, completions settled in whatever order the shards finish
/// them. The trace id is drawn from the same seeded stream as the op
/// choice (trace id → mix pick → length → object seed / zipf sample), so
/// the id sequence — and the sampled subset — is an exact function of
/// (seed, worker index).
fn worker_loop_pipelined(
    cfg: &LoadConfig,
    worker: u64,
    stop_at: Instant,
    seq: &AtomicU64,
) -> WorkerTally {
    let mut client = match PipelinedClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(_) => {
            let mut tally = WorkerTally::default();
            tally.errors += 1;
            return tally;
        }
    };
    client.set_deadline_ms(cfg.deadline_ms);
    // Golden-ratio stride keeps per-worker streams uncorrelated while the
    // whole run stays a pure function of cfg.seed.
    let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker + 1));
    let mut w = PipelinedWorker {
        cfg,
        client,
        rng,
        table: ZipfTable::new(cfg.zipf_theta),
        pending: HashMap::new(),
        inflight_gets: HashMap::new(),
        tally: WorkerTally::default(),
        seq,
    };

    // Prefill serially (depth 1) so the zipf table is warm before the
    // window opens.
    for _ in 0..cfg.prefill {
        let tid = (cfg.trace_sample > 0).then(|| w.rng.next_u64());
        let kind = w.new_put();
        if !w.submit_kind(kind, tid, None) {
            return w.tally;
        }
        while !w.pending.is_empty() {
            if !w.recv_one() {
                return w.tally;
            }
        }
    }

    let depth = cfg.pipeline_depth.max(1);
    // Open-loop pacing: one worker owns a 1/connections slice of the
    // aggregate rate, and each operation's latency clock starts at its
    // *scheduled* arrival, not when the (possibly backlogged) worker got
    // around to sending it.
    let interval = per_worker_interval(cfg);
    let open_start = Instant::now();
    let mut issued: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= stop_at {
            break;
        }
        let limit_hit = cfg.op_limit > 0 && issued >= cfg.op_limit;
        if !limit_hit && w.pending.len() < depth {
            let sched = match interval {
                Some(iv) => {
                    let due =
                        open_start + Duration::from_secs_f64(issued as f64 * iv.as_secs_f64());
                    if due >= stop_at {
                        break;
                    }
                    if due > now {
                        // Sleep in short slices so the stop clock stays
                        // responsive at low rates; completions buffer in
                        // the socket meanwhile and settle instantly.
                        thread::sleep((due - now).min(Duration::from_millis(5)));
                        continue;
                    }
                    Some(due)
                }
                None => None,
            };
            issued += 1;
            let tid = (cfg.trace_sample > 0).then(|| w.rng.next_u64());
            let kind = w.pick_kind();
            if !w.submit_kind(kind, tid, sched) {
                return w.tally;
            }
            continue;
        }
        if w.pending.is_empty() {
            if limit_hit {
                break;
            }
            continue;
        }
        if !w.recv_one() {
            return w.tally;
        }
    }
    // Settle whatever is still in flight — those were real arrivals.
    while !w.pending.is_empty() {
        if !w.recv_one() {
            break;
        }
    }
    w.tally
}

/// Multiplexed open-loop driver: thousands of connections, one thread.
///
/// The connection-count scaling bench needs 10,000+ concurrent
/// connections against a server sharing the same machine. Driving those
/// with one thread each would measure the *driver's* scheduler, not the
/// server; instead [`mux::run_mux`] multiplexes every connection over the
/// same readiness reactor the server itself uses — nonblocking sockets,
/// per-connection frame reassembly, correlation-id matching — and paces
/// arrivals on a fixed open-loop schedule. Latency is measured from each
/// operation's *scheduled* arrival, so a server that falls behind at
/// high connection counts shows the backlog in p99 rather than silently
/// slowing the offered load.
pub mod mux {
    use super::payload_for;
    use crate::client::Client;
    use crate::error::ClientError;
    use crate::protocol::{append_frame, FrameBuffer, Op, Request, Response};
    use crate::reactor::{Event, Interest, Poller};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    use tornado_obs::Histogram;

    /// Tunables for one [`run_mux`] run.
    #[derive(Clone, Debug)]
    pub struct MuxConfig {
        /// Server address.
        pub addr: String,
        /// Concurrent connections, all multiplexed on one driver thread.
        pub connections: usize,
        /// Measured window, milliseconds (arrivals stop at the window
        /// edge; stragglers get a bounded drain).
        pub duration_ms: u64,
        /// Aggregate open-loop arrival rate, operations per second,
        /// spread round-robin across all connections.
        pub rate_ops_per_sec: f64,
        /// Seed for object choice and verification sampling.
        pub seed: u64,
        /// Objects PUT up front (serially) that the GET stream reads.
        pub prefill: usize,
        /// Payload length of each prefilled object, bytes.
        pub payload_len: usize,
        /// Deadline stamped on every request (0 = none).
        pub deadline_ms: u32,
        /// In-flight cap per connection; arrivals that find every
        /// connection at its cap are shed (counted, not sent).
        pub max_inflight_per_conn: usize,
        /// Verify payload bytes on 1-in-N GETs (0 = never) — full
        /// verification at 10k connections would bottleneck the driver.
        pub verify_sample: u64,
    }

    impl Default for MuxConfig {
        fn default() -> Self {
            Self {
                addr: "127.0.0.1:7401".into(),
                connections: 256,
                duration_ms: 2_000,
                rate_ops_per_sec: 1_000.0,
                seed: 1,
                prefill: 16,
                payload_len: 4 << 10,
                deadline_ms: 0,
                max_inflight_per_conn: 32,
                verify_sample: 64,
            }
        }
    }

    /// Aggregated result of one [`run_mux`] run.
    #[derive(Debug)]
    pub struct MuxReport {
        /// Connections requested.
        pub connections: usize,
        /// Connections actually established.
        pub connected: usize,
        /// Wall-clock from first arrival to last settled completion, ms.
        pub elapsed_ms: u64,
        /// Successfully completed operations.
        pub ops: u64,
        /// BUSY answers (open loop does not retry — shed at the server).
        pub busy: u64,
        /// Arrivals dropped because every connection was at its
        /// in-flight cap (shed at the driver).
        pub shed: u64,
        /// Transport or server errors (includes completions lost to a
        /// dead connection).
        pub errors: u64,
        /// Verified GETs whose bytes did not match — must stay zero.
        pub payload_mismatches: u64,
        /// Requests submitted onto the wire.
        pub submitted: u64,
        /// Still unanswered when the drain deadline expired.
        pub unanswered: u64,
        /// The configured arrival rate, ops/s.
        pub target_rate: f64,
        /// Completed ops per second over the elapsed window.
        pub achieved_rate: f64,
        /// Latency from scheduled arrival to settled completion, µs.
        pub latency_us: Histogram,
    }

    impl MuxReport {
        /// Median latency in microseconds.
        pub fn p50_us(&self) -> u64 {
            self.latency_us.percentile(0.5).unwrap_or(0)
        }

        /// 99th-percentile latency in microseconds.
        pub fn p99_us(&self) -> u64 {
            self.latency_us.percentile(0.99).unwrap_or(0)
        }
    }

    /// One request on the wire, awaiting its completion.
    struct MuxPending {
        corr: u32,
        /// Scheduled arrival — the latency origin.
        sched: Instant,
        obj_seed: u64,
        len: usize,
        verify: bool,
    }

    /// One multiplexed connection's state.
    struct MuxConn {
        stream: TcpStream,
        inbuf: FrameBuffer,
        out: Vec<u8>,
        out_pos: usize,
        pending: Vec<MuxPending>,
        next_corr: u32,
        write_interest: bool,
        dead: bool,
    }

    /// How long past the arrival window stragglers may settle.
    const DRAIN_GRACE: Duration = Duration::from_secs(5);

    /// Runs the multiplexed open-loop GET stream and returns the report.
    ///
    /// Fails fast if the server is unreachable or prefill fails; errors
    /// on individual connections during the run are counted, not fatal.
    pub fn run_mux(cfg: &MuxConfig) -> Result<MuxReport, ClientError> {
        // Prefill over an ordinary blocking connection.
        let mut admin = Client::connect(&cfg.addr)?;
        admin.ping()?;
        let mut objects = Vec::with_capacity(cfg.prefill.max(1));
        for i in 0..cfg.prefill.max(1) {
            let obj_seed = cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let len = cfg.payload_len.max(1);
            let payload = payload_for(obj_seed, len);
            let id = admin.put(&format!("mux-{}-{i}", cfg.seed), &payload)?;
            objects.push((id, obj_seed, len));
        }

        // File descriptors: connections + listener-side headroom.
        let _ = crate::reactor::raise_nofile_limit(cfg.connections as u64 + 128);
        let poller = Poller::new().map_err(ClientError::Io)?;
        let mut conns: Vec<MuxConn> = Vec::with_capacity(cfg.connections);
        let mut connect_errors = 0u64;
        for i in 0..cfg.connections.max(1) {
            // Blocking connect gives natural backpressure against the
            // server's accept queue; nonblocking takes over after.
            match TcpStream::connect(&cfg.addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(true).map_err(ClientError::Io)?;
                    poller
                        .register(&s, conns.len() as u64, Interest::READ)
                        .map_err(ClientError::Io)?;
                    conns.push(MuxConn {
                        stream: s,
                        inbuf: FrameBuffer::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        pending: Vec::new(),
                        next_corr: (i as u32) << 16,
                        write_interest: false,
                        dead: false,
                    });
                }
                Err(_) => connect_errors += 1,
            }
        }
        if conns.is_empty() {
            return Err(ClientError::Unexpected(
                "no mux connections established".into(),
            ));
        }

        let mut report = MuxReport {
            connections: cfg.connections,
            connected: conns.len(),
            elapsed_ms: 0,
            ops: 0,
            busy: 0,
            shed: 0,
            errors: connect_errors,
            payload_mismatches: 0,
            submitted: 0,
            unanswered: 0,
            target_rate: cfg.rate_ops_per_sec,
            achieved_rate: 0.0,
            latency_us: Histogram::new(),
        };

        let rate = cfg.rate_ops_per_sec.max(1.0);
        let interval_s = 1.0 / rate;
        let start = Instant::now();
        let stop_at = start + Duration::from_millis(cfg.duration_ms);
        let drain_by = stop_at + DRAIN_GRACE;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arrivals = 0u64;
        let mut rr = 0usize;
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 16 << 10];

        loop {
            let now = Instant::now();

            // Emit every arrival that is due, round-robin over
            // connections with window capacity.
            if now < stop_at {
                loop {
                    let due = start + Duration::from_secs_f64(arrivals as f64 * interval_s);
                    if due > now {
                        break;
                    }
                    arrivals += 1;
                    let n = conns.len();
                    let slot = (0..n).map(|k| (rr + k) % n).find(|&c| {
                        !conns[c].dead && conns[c].pending.len() < cfg.max_inflight_per_conn.max(1)
                    });
                    rr = rr.wrapping_add(1);
                    match slot {
                        Some(c) => {
                            let (id, obj_seed, len) = objects[rng.gen_range(0..objects.len())];
                            let verify =
                                cfg.verify_sample > 0 && rng.gen_range(0..cfg.verify_sample) == 0;
                            submit_get(&mut conns[c], cfg, id, obj_seed, len, verify, due);
                            report.submitted += 1;
                            flush_conn(&poller, &mut conns[c], c as u64, &mut report);
                        }
                        None => report.shed += 1,
                    }
                }
            }

            let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
            if (now >= stop_at && outstanding == 0) || now >= drain_by {
                report.unanswered = outstanding as u64;
                break;
            }

            // Sleep until the next arrival is due (capped so the stop
            // and drain clocks stay responsive).
            let next_due = start + Duration::from_secs_f64(arrivals as f64 * interval_s);
            let timeout = if now < stop_at {
                next_due
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(10))
            } else {
                Duration::from_millis(10)
            };
            poller
                .wait(&mut events, Some(timeout))
                .map_err(ClientError::Io)?;
            for ev in events.drain(..) {
                let c = ev.token as usize;
                if c >= conns.len() || conns[c].dead {
                    continue;
                }
                if ev.readable {
                    read_conn(&poller, &mut conns[c], cfg, &mut scratch, &mut report);
                }
                if ev.writable && !conns[c].dead {
                    flush_conn(&poller, &mut conns[c], c as u64, &mut report);
                }
            }
        }

        let elapsed_ms = (start.elapsed().as_millis() as u64).max(1);
        report.elapsed_ms = elapsed_ms;
        report.achieved_rate = report.ops as f64 * 1000.0 / elapsed_ms as f64;
        Ok(report)
    }

    /// Frames one correlated GET into the connection's output buffer.
    fn submit_get(
        conn: &mut MuxConn,
        cfg: &MuxConfig,
        id: u64,
        obj_seed: u64,
        len: usize,
        verify: bool,
        sched: Instant,
    ) {
        let corr = conn.next_corr;
        conn.next_corr = conn.next_corr.wrapping_add(1);
        let req = Request {
            deadline_ms: cfg.deadline_ms,
            corr_id: Some(corr),
            trace_id: None,
            op: Op::Get { id },
        };
        append_frame(&mut conn.out, &req.encode());
        conn.pending.push(MuxPending {
            corr,
            sched,
            obj_seed,
            len,
            verify,
        });
    }

    /// Writes as much buffered output as the socket accepts, tracking
    /// write interest across WouldBlock.
    fn flush_conn(poller: &Poller, conn: &mut MuxConn, token: u64, report: &mut MuxReport) {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    kill_conn(poller, conn, report);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.write_interest {
                        conn.write_interest = true;
                        let _ = poller.reregister(&conn.stream, token, Interest::READ_WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    kill_conn(poller, conn, report);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.write_interest {
            conn.write_interest = false;
            let _ = poller.reregister(&conn.stream, token, Interest::READ);
        }
    }

    /// Drains readable bytes and settles every completed frame.
    fn read_conn(
        poller: &Poller,
        conn: &mut MuxConn,
        cfg: &MuxConfig,
        scratch: &mut [u8],
        report: &mut MuxReport,
    ) {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    kill_conn(poller, conn, report);
                    return;
                }
                Ok(n) => conn.inbuf.extend(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    kill_conn(poller, conn, report);
                    return;
                }
            }
        }
        loop {
            match conn.inbuf.next_frame() {
                Ok(Some(body)) => settle(conn, cfg, &body, report),
                Ok(None) => break,
                Err(_) => {
                    kill_conn(poller, conn, report);
                    return;
                }
            }
        }
    }

    /// Matches one response frame to its pending request and records it.
    fn settle(conn: &mut MuxConn, _cfg: &MuxConfig, body: &[u8], report: &mut MuxReport) {
        let (corr, resp) = match Response::decode_corr(body) {
            Ok(pair) => pair,
            Err(_) => {
                report.errors += 1;
                return;
            }
        };
        let Some(corr) = corr else {
            report.errors += 1;
            return;
        };
        let Some(i) = conn.pending.iter().position(|p| p.corr == corr) else {
            report.errors += 1;
            return;
        };
        let p = conn.pending.swap_remove(i);
        let latency_us = p.sched.elapsed().as_micros() as u64;
        match resp {
            Response::GetOk { payload } => {
                report.ops += 1;
                report.latency_us.record(latency_us);
                if p.verify && payload != payload_for(p.obj_seed, p.len) {
                    report.payload_mismatches += 1;
                }
            }
            Response::Busy => report.busy += 1,
            _ => report.errors += 1,
        }
    }

    /// Tears a connection down; its in-flight requests become errors.
    fn kill_conn(poller: &Poller, conn: &mut MuxConn, report: &mut MuxReport) {
        if conn.dead {
            return;
        }
        conn.dead = true;
        let _ = poller.deregister(&conn.stream);
        report.errors += conn.pending.len() as u64;
        conn.pending.clear();
        conn.out.clear();
        conn.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_per_seed() {
        assert_eq!(payload_for(42, 1000), payload_for(42, 1000));
        assert_ne!(payload_for(42, 1000), payload_for(43, 1000));
        assert_eq!(payload_for(7, 13).len(), 13);
    }

    #[test]
    fn zipf_prefers_early_ranks() {
        let mut t = ZipfTable::new(0.99);
        for i in 0..50 {
            t.push(ObjEntry {
                id: i,
                seed: i,
                len: 1,
            });
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let mut hits = [0u32; 50];
        for _ in 0..20_000 {
            hits[t.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10], "rank 0 hotter than rank 10: {hits:?}");
        assert!(hits[0] > hits[49] * 3, "strongly skewed head");
        assert!(hits.iter().all(|&h| h > 0), "every rank still reachable");
    }

    #[test]
    fn zipf_remove_keeps_sampling_valid() {
        let mut t = ZipfTable::new(1.0);
        for i in 0..10 {
            t.push(ObjEntry {
                id: i,
                seed: i,
                len: 1,
            });
        }
        let removed = t.remove(3);
        assert_eq!(removed.id, 3);
        assert_eq!(t.len(), 9);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = t.sample(&mut rng);
            assert!(i < 9);
            assert_ne!(t.entries[i].id, 3);
        }
    }

    #[test]
    fn op_mix_default_is_read_heavy() {
        let m = OpMix::default();
        assert!(m.get > m.put + m.delete);
    }

    #[test]
    fn exemplar_keeper_retains_the_slowest() {
        let mut slowest = Vec::new();
        for (i, lat) in [50u64, 900, 10, 700, 300, 5, 800, 600].iter().enumerate() {
            note_exemplar(
                &mut slowest,
                TraceExemplar {
                    latency_us: *lat,
                    trace_id: i as u64,
                    op: "get",
                },
            );
        }
        assert_eq!(slowest.len(), EXEMPLAR_KEEP);
        let mut kept: Vec<u64> = slowest.iter().map(|e| e.latency_us).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![300, 600, 700, 800, 900]);
    }

    /// A protocol-speaking stub server: every connection gets a thread
    /// (test scale only) that answers each request immediately, echoing
    /// correlation ids. PUTs get `PutOk`, GETs a fixed fake payload.
    fn spawn_stub_server() -> std::net::SocketAddr {
        use crate::protocol::{read_frame, write_frame, Request};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { break };
                thread::spawn(move || {
                    while let Ok(Some(body)) = read_frame(&mut s) {
                        let Ok(req) = Request::decode(&body) else {
                            return;
                        };
                        let resp = match req.op {
                            Op::Put { .. } => Response::PutOk { id: 7 },
                            Op::Get { .. } => Response::GetOk {
                                payload: vec![1, 2, 3],
                            },
                            Op::Metrics => Response::MetricsOk { json: "{}".into() },
                            _ => Response::Ok,
                        };
                        if write_frame(&mut s, &resp.encode_corr(req.corr_id)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn per_worker_interval_splits_rate_across_connections() {
        let cfg = LoadConfig {
            connections: 4,
            rate_ops_per_sec: 200.0,
            ..LoadConfig::default()
        };
        let iv = per_worker_interval(&cfg).expect("open loop");
        assert!(
            (iv.as_secs_f64() - 0.02).abs() < 1e-9,
            "4 workers share 200/s: {iv:?}"
        );
        assert_eq!(per_worker_interval(&LoadConfig::default()), None);
    }

    #[test]
    fn pipelined_worker_completes_its_op_limit_exactly() {
        let addr = spawn_stub_server();
        for pipeline_depth in [1, 8] {
            let cfg = LoadConfig {
                addr: addr.to_string(),
                connections: 1,
                duration_ms: 10_000,
                pipeline_depth,
                // PUT-only mix: the stub fakes GET payloads, which would
                // (correctly) trip byte-for-byte verification.
                mix: OpMix {
                    put: 100,
                    get: 0,
                    delete: 0,
                },
                payload_min: 32,
                payload_max: 64,
                prefill: 8,
                op_limit: 40,
                trace_sample: 0,
                ..LoadConfig::default()
            };
            let report = run_load(&cfg).expect("load run");
            assert_eq!(
                report.ops, 48,
                "depth {pipeline_depth}, 8 prefill + 40 measured: {report:?}"
            );
            assert_eq!(report.puts, 48);
            assert_eq!(report.errors, 0);
            assert_eq!(report.payload_mismatches, 0);
        }
    }

    #[test]
    fn mux_driver_sustains_open_loop_over_many_connections() {
        let addr = spawn_stub_server();
        let cfg = mux::MuxConfig {
            addr: addr.to_string(),
            connections: 32,
            duration_ms: 400,
            rate_ops_per_sec: 500.0,
            prefill: 4,
            payload_len: 64,
            verify_sample: 0, // stub payloads are fake by design
            ..mux::MuxConfig::default()
        };
        let report = mux::run_mux(&cfg).expect("mux run");
        assert_eq!(report.connected, 32);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.unanswered, 0, "drain settles everything");
        assert_eq!(report.shed, 0, "32x32 window absorbs 500/s");
        assert!(report.ops >= 100, "~200 arrivals in 400ms: {}", report.ops);
        assert!(report.p99_us() > 0);
        assert!(report.achieved_rate > 0.0);
    }

    #[test]
    fn worker_tally_keeps_only_server_sampled_trace_ids() {
        let cfg = LoadConfig {
            trace_sample: 4,
            ..LoadConfig::default()
        };
        let mut tally = WorkerTally::default();
        let mut expected = Vec::new();
        for id in 0..400u64 {
            tally.complete(&cfg, Some(id), "get", id);
            if tornado_obs::trace::sampled(id, cfg.trace_sample) {
                expected.push(id);
            }
        }
        assert_eq!(tally.sampled_trace_ids, expected);
        assert!(
            !expected.is_empty(),
            "1-in-4 sampling over 400 ids keeps some"
        );
        assert!(tally
            .slowest
            .iter()
            .all(|e| tornado_obs::trace::sampled(e.trace_id, cfg.trace_sample)));
    }
}
