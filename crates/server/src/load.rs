//! The load generator for the archival block service.
//!
//! [`run_load`] drives `connections` client connections from one thread:
//! every socket is nonblocking and registered with one readiness
//! `Poller` — the reactor the server itself runs on — so a run holds
//! 10,000 connections with the threads it holds 4 with, and the driver's
//! own scheduler stays out of the measurement. Each connection picks its
//! next operation from the seeded weighted mix, frames it with a
//! correlation id, settles completions in whatever order the server
//! finishes them, and records the latency. Object popularity is zipfian —
//! earlier objects are hotter — so GETs concentrate on a warm set the way
//! archival read traffic does. Two knobs change the discipline:
//!
//! * `pipeline_depth` is how many requests a connection keeps in flight;
//!   at 1 each request waits for its response;
//! * `rate_ops_per_sec` > 0 switches from closed loop (issue as fast as
//!   responses come back) to open loop: arrival `j` of connection `i` of
//!   `N` is due at `start + (i + j·N) / rate`, one aggregate stream
//!   dealt round-robin over the connections. An arrival that finds its
//!   connection `pipeline_depth` deep waits for a slot, and its latency
//!   counts from its *scheduled* time either way, so server backlog shows
//!   up as queueing delay instead of quietly throttling the arrival
//!   stream (the coordinated-omission correction). Nothing is shed.
//!
//! A BUSY answer puts the same operation back on the wire 1 ms later with
//! its original latency clock; the driver never sleeps. When the window
//! closes, what is in flight (and what waited for a slot) gets a bounded
//! drain ([`DRAIN_GRACE`]); whatever is still unanswered after it is
//! reported as `unanswered`. A connection the server closes (or answers
//! SHUTTING_DOWN on) turns its in-flight requests into errors and issues
//! nothing more, so a server that goes away ends the run.
//!
//! Prefill: `prefill` objects are PUT once, over the admin connection,
//! before the window opens; every connection's zipf table starts with them
//! as its hottest ranks. They are never deleted — a connection deletes only
//! objects it PUT itself — so a GET-only mix reads them for the whole run.
//!
//! Determinism: every random choice (op, object, payload size, payload
//! bytes) derives from `LoadConfig::seed`: connection `i` draws from its
//! own stream, seeded `seed ^ φ·(i + 1)`, in the order trace id → mix →
//! length → object seed / zipf rank, so two runs with the same seed issue
//! the same operation stream per connection. Payload bytes regenerate from
//! a per-object seed, which is how every GET is verified byte-for-byte —
//! any corruption the decoder fails to repair shows up as a
//! `payload_mismatches` count, not a silent pass.
//!
//! Mid-run failure injection: when `fail_devices` is non-empty, one helper
//! thread fails those devices over the admin connection (spaced by
//! `fail_spacing_ms`) `fail_after_ms` into the window, while the
//! connections keep hammering the server — exercising the
//! transparently-degraded read path under concurrency.

use crate::client::Client;
use crate::error::ClientError;
use crate::obs::ServerMetrics;
use crate::protocol::{
    next_corr, put_frame_head, release_drained, FrameBuffer, Op, Request, Response,
};
use crate::reactor::{Event, Interest, Poller};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
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
    /// Concurrent connections, all multiplexed on the driver thread.
    pub connections: usize,
    /// Wall-clock run length in milliseconds (after prefill).
    pub duration_ms: u64,
    /// Master seed — same seed, same per-connection operation stream.
    pub seed: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Smallest payload, bytes.
    pub payload_min: usize,
    /// Largest payload, bytes.
    pub payload_max: usize,
    /// Zipf exponent for object popularity (0 = uniform; ~0.99 typical).
    pub zipf_theta: f64,
    /// Objects PUT once before the measured window opens, shared by every
    /// connection, so GETs have something to hit from the first sample.
    pub prefill: usize,
    /// Devices to fail mid-run (empty = no injection).
    pub fail_devices: Vec<u32>,
    /// Delay before the first injected failure, milliseconds.
    pub fail_after_ms: u64,
    /// Spacing between injected failures, milliseconds.
    pub fail_spacing_ms: u64,
    /// Per-request deadline stamped on every request of the window
    /// (0 = none).
    pub deadline_ms: u32,
    /// Trace propagation: stamp every logical operation with a
    /// deterministic trace id drawn from the connection's seeded rng, and
    /// report the 1-in-N ids the server's sampler will keep (same
    /// `tornado_obs::trace::sampled` key function on both sides).
    /// 0 stamps no trace ids at all: every request's trace id is 0, and
    /// the server assigns its own.
    pub trace_sample: u64,
    /// Stop each connection after this many measured operations (0 = run
    /// until the clock). With a generous `duration_ms` this makes the
    /// op stream — and therefore the sampled trace-id set — an exact
    /// function of `seed`, independent of server worker count.
    pub op_limit: u64,
    /// Requests each connection keeps in flight, matched to their
    /// completions by correlation id. 1 (or 0) waits for each response
    /// before issuing the next request.
    pub pipeline_depth: usize,
    /// Open-loop arrival rate, operations per second across the whole
    /// run (0 = closed loop). Arrivals are dealt round-robin, so each
    /// connection paces at `rate / connections`, and latency is measured
    /// from the *scheduled* arrival time, so a server that falls behind
    /// accrues queueing delay in the histogram instead of silently
    /// slowing the arrival stream (coordinated-omission corrected).
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
pub(crate) const EXEMPLAR_KEEP: usize = 5;

/// How long past the window in-flight and waiting requests may settle.
pub const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// How long a request answered BUSY waits before it goes out again.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

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
    pub(crate) struct LoadMetrics {
        /// Connections established (of `connections` requested).
        connected: Gauge = "load.connected", "connections";
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
        /// Requests still unanswered when the drain grace ran out.
        unanswered: Counter = "load.unanswered", "requests";
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
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Connections established (a failed connect also counts an error).
    pub connected: usize,
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
    /// Operations that failed with a transport or server error, including
    /// those in flight on a connection the server closed.
    pub errors: u64,
    /// Requests still in flight, backing off or waiting for a pipeline
    /// slot when the drain grace ran out.
    pub unanswered: u64,
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
    /// The server's final `tornado-metrics-v1` snapshot (pretty JSON;
    /// empty when the server was gone by the end of the run).
    pub server_metrics_json: String,
    /// Trace ids the server's deterministic sampler will have kept
    /// (sorted, deduplicated; empty when `trace_sample` is 0).
    pub sampled_trace_ids: Vec<u64>,
    /// The slowest sampled operations across all connections, latency
    /// descending (at most `EXEMPLAR_KEEP`).
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

    /// Records one completed operation: latency, per-op counter, and —
    /// when its trace id is one the server's sampler keeps — the sampled
    /// id and a slowest-exemplar candidate.
    fn complete(
        &mut self,
        trace_sample: u64,
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
            if tornado_obs::trace::sampled(id, trace_sample) {
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

    /// Builds a client-side `tornado-metrics-v1` snapshot of this run,
    /// embedding the server's own final snapshot under `"server"`.
    pub fn snapshot(&self, seed: u64) -> Snapshot {
        let m = LoadMetrics::new();
        m.connected.set(self.connected as i64);
        m.ops.add(self.ops);
        m.puts.add(self.puts);
        m.gets.add(self.gets);
        m.deletes.add(self.deletes);
        m.busy_retries.add(self.busy_retries);
        m.errors.add(self.errors);
        m.unanswered.add(self.unanswered);
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

/// One object a connection may read.
#[derive(Clone)]
struct ObjEntry {
    id: u64,
    seed: u64,
    len: usize,
    /// PUT by the prefill, shared by every connection: never deleted.
    prefilled: bool,
}

/// Zipfian sampler over a growing table: object at rank `r` (insertion
/// order) has weight `1/(r+1)^theta`, so earlier objects stay hottest.
#[derive(Clone)]
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

/// Draws a fresh object's length, then its payload seed.
fn draw_object(cfg: &LoadConfig, rng: &mut SmallRng) -> (usize, u64) {
    let len = if cfg.payload_max > cfg.payload_min {
        rng.gen_range(cfg.payload_min..=cfg.payload_max)
    } else {
        cfg.payload_min.max(1)
    };
    (len.max(1), rng.next_u64())
}

/// What one submitted request was, in enough detail to verify its
/// completion — or resubmit it verbatim after a BUSY.
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

/// One operation between its first submission and its final answer.
struct PendingOp {
    kind: PendingKind,
    trace_id: Option<u64>,
    /// Latency origin: the scheduled arrival (open loop) or the instant
    /// the frame was first queued for the socket (closed loop). Survives
    /// busy-resubmits unchanged — backlog is the user's latency.
    sched: Instant,
}

/// One multiplexed connection and the operation stream it drives.
struct Conn {
    stream: TcpStream,
    /// This connection's seeded stream.
    rng: SmallRng,
    table: ZipfTable,
    /// Requests on the wire, by correlation id.
    pending: HashMap<u32, PendingOp>,
    /// Objects with GETs in flight or backing off, by object id — a
    /// DELETE of such an object is deferred (its out-of-order completion
    /// could otherwise race the reads and turn verified GETs into
    /// NotFounds).
    inflight_gets: HashMap<u64, u32>,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
    next_corr: u32,
    write_interest: bool,
    dead: bool,
    /// Operations issued in the window: the `op_limit` count, and in open
    /// loop the index of the next arrival to send.
    issued: u64,
    /// Open loop: this connection's arrivals that have come due.
    due: u64,
    /// Operations answered BUSY and waiting out their backoff; they keep
    /// their place in the pipeline window.
    backing_off: usize,
}

/// The single-threaded driver: every connection, the arrival schedule,
/// the BUSY backoff queue and the running tallies.
struct Driver<'a> {
    cfg: &'a LoadConfig,
    poller: Poller,
    conns: Vec<Conn>,
    report: &'a mut LoadReport,
    start: Instant,
    stop_at: Instant,
    depth: usize,
    /// Open loop: the spacing of one connection's arrivals.
    interval: Option<Duration>,
    /// Open loop: the schedule index of the next arrival to come due.
    arrivals: u64,
    /// Operations answered BUSY, by resubmission time (every backoff is
    /// the same, so arrival order is due order).
    bounced: VecDeque<(Instant, usize, PendingOp)>,
    /// Operations submitted and not yet finally answered.
    open_ops: u64,
    /// Open-loop arrivals due but not yet sent (their connection was at
    /// depth).
    backlog: u64,
    /// Connections that may still issue: neither dead nor at `op_limit`.
    live: usize,
    /// PUT names issued so far (names are `load-N`, unique in the run).
    names: u64,
}

/// Runs the load and returns the aggregated report.
///
/// Fails fast if the server is unreachable, a prefill PUT fails, or no
/// connection can be established; errors on individual connections and
/// operations during the run are counted, not fatal.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    let mut admin = Client::connect(&cfg.addr)?;
    admin.ping()?;
    let mut report = LoadReport::default();
    let prefilled = prefill(cfg, &mut admin, &mut report)?;

    let want = cfg.connections.max(1);
    let _ = crate::reactor::raise_nofile_limit(want as u64 + 128);
    let poller = Poller::new()?;
    let mut conns = Vec::with_capacity(want);
    for i in 0..want {
        // A blocking connect gives natural backpressure against the
        // server's accept queue; the socket is nonblocking after.
        let Ok(stream) = TcpStream::connect(&cfg.addr) else {
            report.errors += 1;
            continue;
        };
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(&stream, conns.len() as u64, Interest::READ)?;
        conns.push(Conn {
            stream,
            // Golden-ratio stride keeps per-connection streams
            // uncorrelated while the whole run stays a pure function of
            // cfg.seed.
            rng: SmallRng::seed_from_u64(
                cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
            ),
            table: prefilled.clone(),
            pending: HashMap::new(),
            inflight_gets: HashMap::new(),
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            written: 0,
            next_corr: 1,
            write_interest: false,
            dead: false,
            issued: 0,
            due: 0,
            backing_off: 0,
        });
    }
    if conns.is_empty() {
        return Err(ClientError::Unexpected(
            "no load connection could be established".into(),
        ));
    }
    report.connected = conns.len();

    let start = Instant::now();
    let mut driver = Driver {
        cfg,
        poller,
        live: conns.len(),
        conns,
        report: &mut report,
        start,
        stop_at: start + Duration::from_millis(cfg.duration_ms),
        depth: cfg.pipeline_depth.max(1),
        interval: per_worker_interval(cfg),
        arrivals: 0,
        bounced: VecDeque::new(),
        open_ops: 0,
        backlog: 0,
        names: cfg.prefill as u64,
    };
    // Failure injection rides on the admin connection, on the one helper
    // thread a run may start, while the driver runs.
    let devices_failed = thread::scope(|s| {
        let injector = (!cfg.fail_devices.is_empty())
            .then(|| s.spawn(|| inject_failures(cfg, &mut admin, start)));
        let run = driver.run();
        let failed = injector.map_or_else(Vec::new, |h| h.join().expect("failure injector"));
        run.map(|()| failed)
    })?;
    let elapsed_ms = (start.elapsed().as_millis() as u64).max(1);

    report.elapsed_ms = elapsed_ms;
    report.devices_failed = devices_failed;
    report.sampled_trace_ids.sort_unstable();
    report.sampled_trace_ids.dedup();
    report
        .slowest
        .sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_us));
    report.ops_per_sec = report.ops as f64 * 1000.0 / elapsed_ms as f64;

    // A server that went away mid-run leaves the report without its
    // snapshot; the lost requests are already counted.
    if let Ok(json) = admin.metrics() {
        if let Ok(doc) = tornado_obs::json::parse(&json) {
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
        report.server_metrics_json = json;
    }
    Ok(report)
}

/// PUTs the shared prefill over the admin connection, one at a time and
/// with no deadline, drawing each object (trace id → length → object
/// seed) from a stream seeded with `cfg.seed` itself; returns the table
/// every connection starts from.
fn prefill(
    cfg: &LoadConfig,
    admin: &mut Client,
    report: &mut LoadReport,
) -> Result<ZipfTable, ClientError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut table = ZipfTable::new(cfg.zipf_theta);
    for i in 0..cfg.prefill {
        let trace_id = draw_trace_id(cfg, &mut rng);
        let (len, seed) = draw_object(cfg, &mut rng);
        let payload = payload_for(seed, len);
        let name = format!("load-{i}");
        admin.set_trace_id(trace_id);
        let t = Instant::now();
        let id = loop {
            match admin.put(&name, &payload) {
                Err(ClientError::Busy) => {
                    report.busy_retries += 1;
                    thread::sleep(BUSY_BACKOFF);
                }
                other => break other?,
            }
        };
        report.complete(
            cfg.trace_sample,
            trace_id,
            "put",
            t.elapsed().as_micros() as u64,
        );
        table.push(ObjEntry {
            id,
            seed,
            len,
            prefilled: true,
        });
    }
    admin.set_trace_id(None);
    Ok(table)
}

/// A traced run's next trace id, drawn from `rng`; one drawn as 0, which
/// the wire reserves for "absent", goes out untraced.
fn draw_trace_id(cfg: &LoadConfig, rng: &mut SmallRng) -> Option<u64> {
    (cfg.trace_sample > 0)
        .then(|| rng.next_u64())
        .filter(|&id| id != 0)
}

/// The helper thread's body: fails `cfg.fail_devices` over the admin
/// connection, the first `fail_after_ms` after `start`, then one every
/// `fail_spacing_ms`. Returns the devices the server accepted, in order.
fn inject_failures(cfg: &LoadConfig, admin: &mut Client, start: Instant) -> Vec<u32> {
    let first = start + Duration::from_millis(cfg.fail_after_ms);
    thread::sleep(first.saturating_duration_since(Instant::now()));
    let mut failed = Vec::new();
    for &device in &cfg.fail_devices {
        if admin.fail_device(device).is_err() {
            break;
        }
        failed.push(device);
        thread::sleep(Duration::from_millis(cfg.fail_spacing_ms));
    }
    failed
}

/// The spacing of one connection's open-loop arrivals (`None` = closed
/// loop): the aggregate rate dealt over the connections.
fn per_worker_interval(cfg: &LoadConfig) -> Option<Duration> {
    (cfg.rate_ops_per_sec > 0.0)
        .then(|| Duration::from_secs_f64(cfg.connections.max(1) as f64 / cfg.rate_ops_per_sec))
}

impl Driver<'_> {
    /// Runs the window and the drain.
    fn run(&mut self) -> io::Result<()> {
        for c in 0..self.conns.len() {
            self.pump(c);
        }
        let drain_by = self.stop_at + DRAIN_GRACE;
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            self.admit_arrivals(now);
            self.resubmit_bounced(now);
            let waiting = self.open_ops + self.backlog;
            if waiting == 0 && (now >= self.stop_at || self.live == 0) {
                return Ok(());
            }
            if now >= drain_by {
                self.report.unanswered = waiting;
                return Ok(());
            }
            let mut wake = drain_by;
            if now < self.stop_at {
                wake = wake.min(self.stop_at);
            }
            if let Some(due) = self.next_arrival() {
                wake = wake.min(due);
            }
            if let Some(&(due, ..)) = self.bounced.front() {
                wake = wake.min(due);
            }
            self.poller
                .wait(&mut events, Some(wake.saturating_duration_since(now)))?;
            for ev in &events {
                let c = ev.token as usize;
                if ev.readable && !self.conns[c].dead {
                    self.read(c);
                }
                if ev.writable && !self.conns[c].dead {
                    self.flush(c);
                }
            }
        }
    }

    /// When open-loop arrival `a` is due: it belongs to connection
    /// `a % N` and is due at `start + a / rate`.
    fn due_at(&self, interval: Duration, a: u64) -> Instant {
        self.start + interval.mul_f64(a as f64 / self.conns.len() as f64)
    }

    /// When the next open-loop arrival is due, if there is one.
    fn next_arrival(&self) -> Option<Instant> {
        let iv = self.interval?;
        let n = self.conns.len() as u64;
        if self.cfg.op_limit > 0 && self.arrivals / n >= self.cfg.op_limit {
            return None;
        }
        let due = self.due_at(iv, self.arrivals);
        (due < self.stop_at).then_some(due)
    }

    /// Deals every arrival due by `now` to its connection.
    fn admit_arrivals(&mut self, now: Instant) {
        while let Some(due) = self.next_arrival() {
            if due > now {
                return;
            }
            let c = (self.arrivals % self.conns.len() as u64) as usize;
            self.arrivals += 1;
            if !self.conns[c].dead {
                self.conns[c].due += 1;
                self.backlog += 1;
                self.pump(c);
            }
        }
    }

    /// Puts every BUSY-bounced operation whose backoff is over back on
    /// the wire, under a fresh correlation id, with its original clock.
    fn resubmit_bounced(&mut self, now: Instant) {
        while self.bounced.front().is_some_and(|&(due, ..)| due <= now) {
            let (_, c, op) = self.bounced.pop_front().expect("front checked");
            self.conns[c].backing_off -= 1;
            if self.conns[c].dead {
                self.report.errors += 1;
                self.open_ops -= 1;
                continue;
            }
            self.submit(c, op);
            self.flush(c);
        }
    }

    /// Issues what connection `c` may issue now — up to its pipeline
    /// depth: new operations while the window is open (closed loop), or
    /// the arrivals that have come due (open loop) — then flushes.
    fn pump(&mut self, c: usize) {
        loop {
            let conn = &self.conns[c];
            if conn.dead || conn.pending.len() + conn.backing_off >= self.depth {
                break;
            }
            let sched = match self.interval {
                Some(iv) => {
                    if conn.issued == conn.due {
                        break;
                    }
                    self.backlog -= 1;
                    self.due_at(iv, c as u64 + conn.issued * self.conns.len() as u64)
                }
                None => {
                    let limited = self.cfg.op_limit > 0 && conn.issued >= self.cfg.op_limit;
                    let now = Instant::now();
                    if limited || now >= self.stop_at {
                        break;
                    }
                    now
                }
            };
            self.issue(c, sched);
        }
        self.flush(c);
    }

    /// Draws connection `c`'s next operation and submits it.
    fn issue(&mut self, c: usize, sched: Instant) {
        let cfg = self.cfg;
        let conn = &mut self.conns[c];
        let trace_id = draw_trace_id(cfg, &mut conn.rng);
        let total = cfg.mix.put + cfg.mix.get + cfg.mix.delete;
        let pick = if total == 0 {
            0
        } else {
            conn.rng.gen_range(0..total)
        };
        let kind = if pick < cfg.mix.put || conn.table.len() == 0 {
            let (len, obj_seed) = draw_object(cfg, &mut conn.rng);
            let name = format!("load-{}", self.names);
            self.names += 1;
            PendingKind::Put {
                name,
                obj_seed,
                len,
            }
        } else {
            let i = conn.table.sample(&mut conn.rng);
            let e = &conn.table.entries[i];
            // A DELETE of a shared object, or of one with reads in
            // flight, degrades to a GET of it.
            if pick < cfg.mix.put + cfg.mix.get
                || e.prefilled
                || conn.inflight_gets.contains_key(&e.id)
            {
                *conn.inflight_gets.entry(e.id).or_insert(0) += 1;
                PendingKind::Get {
                    obj_id: e.id,
                    obj_seed: e.seed,
                    len: e.len,
                }
            } else {
                // Removing at submit time keeps later picks off this object.
                let e = conn.table.remove(i);
                PendingKind::Delete { obj_id: e.id }
            }
        };
        conn.issued += 1;
        if cfg.op_limit > 0 && conn.issued == cfg.op_limit {
            self.live -= 1;
        }
        self.open_ops += 1;
        self.submit(
            c,
            PendingOp {
                kind,
                trace_id,
                sched,
            },
        );
    }

    /// Frames `op` into connection `c`'s output under a fresh correlation
    /// id and registers it as pending. An unframeable request (a PUT over
    /// the frame cap) is an error, never sent.
    fn submit(&mut self, c: usize, op: PendingOp) {
        let deadline_ms = self.cfg.deadline_ms;
        let conn = &mut self.conns[c];
        let corr = conn.next_corr;
        conn.next_corr = next_corr(corr);
        let trace_id = op.trace_id;
        let frame = |op| {
            Request {
                deadline_ms,
                corr_id: Some(corr),
                trace_id,
                op,
            }
            .encode_frame()
        };
        let out = &mut conn.out;
        let framed = match &op.kind {
            PendingKind::Put {
                name,
                obj_seed,
                len,
            } => put_frame_head(deadline_ms, Some(corr), trace_id, name, *len).map(|head| {
                out.extend_from_slice(&head);
                out.extend_from_slice(&payload_for(*obj_seed, *len));
            }),
            PendingKind::Get { obj_id, .. } => {
                frame(Op::Get { id: *obj_id }).map(|f| out.extend_from_slice(&f))
            }
            PendingKind::Delete { obj_id } => {
                frame(Op::Delete { id: *obj_id }).map(|f| out.extend_from_slice(&f))
            }
        };
        if framed.is_ok() {
            conn.pending.insert(corr, op);
        } else {
            self.report.errors += 1;
            self.finish(c, &op);
        }
    }

    /// Takes a finally answered (or failed) operation off the books.
    fn finish(&mut self, c: usize, op: &PendingOp) {
        self.open_ops -= 1;
        if let PendingKind::Get { obj_id, .. } = op.kind {
            let gets = &mut self.conns[c].inflight_gets;
            if let Some(n) = gets.get_mut(&obj_id) {
                *n -= 1;
                if *n == 0 {
                    gets.remove(&obj_id);
                }
            }
        }
    }

    /// Writes as much of connection `c`'s output as the socket takes,
    /// asking for write readiness while some is left.
    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return self.kill(c),
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.write_interest {
                        conn.write_interest = true;
                        let _ =
                            self.poller
                                .reregister(&conn.stream, c as u64, Interest::READ_WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.kill(c),
            }
        }
        release_drained(&mut conn.out);
        conn.written = 0;
        if conn.write_interest {
            conn.write_interest = false;
            let _ = self
                .poller
                .reregister(&conn.stream, c as u64, Interest::READ);
        }
    }

    /// Reads what connection `c` has, settles every complete frame, and
    /// refills its pipeline.
    fn read(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let open = conn.inbuf.fill_from(&mut conn.stream).unwrap_or(false);
        while !self.conns[c].dead {
            match self.conns[c].inbuf.take_frame() {
                Ok(Some((buf, at))) => self.settle(c, &buf[at..]),
                Ok(None) => break,
                Err(_) => return self.kill(c),
            }
        }
        if open {
            self.pump(c);
        } else {
            self.kill(c);
        }
    }

    /// Matches one response frame to its pending request and records it.
    fn settle(&mut self, c: usize, body: &[u8]) {
        let conn = &mut self.conns[c];
        let Some((resp, op)) = Response::decode_corr(body)
            .ok()
            .and_then(|(corr, resp)| Some((resp, conn.pending.remove(&corr?)?)))
        else {
            // Undecodable, or a correlation id never issued: protocol
            // breakage.
            self.report.errors += 1;
            return;
        };
        match resp {
            Response::Busy => {
                self.report.busy_retries += 1;
                conn.backing_off += 1;
                self.bounced
                    .push_back((Instant::now() + BUSY_BACKOFF, c, op));
                return;
            }
            // A draining server answers every request on the connection
            // so: it is as good as closed.
            Response::ShuttingDown => {
                self.report.errors += 1;
                self.finish(c, &op);
                return self.kill(c);
            }
            _ => {}
        }
        self.finish(c, &op);
        let latency_us = op.sched.elapsed().as_micros() as u64;
        let sample = self.cfg.trace_sample;
        let report = &mut *self.report;
        match (resp, op.kind) {
            (Response::PutOk { id }, PendingKind::Put { obj_seed, len, .. }) => {
                report.complete(sample, op.trace_id, "put", latency_us);
                self.conns[c].table.push(ObjEntry {
                    id,
                    seed: obj_seed,
                    len,
                    prefilled: false,
                });
            }
            (Response::GetOk { payload }, PendingKind::Get { obj_seed, len, .. }) => {
                report.complete(sample, op.trace_id, "get", latency_us);
                if payload != payload_for(obj_seed, len) {
                    report.payload_mismatches += 1;
                }
            }
            (Response::Ok, PendingKind::Delete { .. }) => {
                report.complete(sample, op.trace_id, "delete", latency_us);
            }
            (Response::Unrecoverable { .. }, PendingKind::Get { .. }) => {
                report.unrecoverable += 1;
            }
            _ => report.errors += 1,
        }
    }

    /// Tears connection `c` down: its in-flight requests become errors,
    /// its waiting arrivals are dropped, and it issues nothing more.
    fn kill(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        if conn.dead {
            return;
        }
        conn.dead = true;
        let _ = self.poller.deregister(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.inbuf = FrameBuffer::new();
        let lost = conn.pending.len() as u64;
        conn.pending.clear();
        conn.inflight_gets.clear();
        conn.out = Vec::new();
        conn.written = 0;
        self.report.errors += lost;
        self.open_ops -= lost;
        if self.interval.is_some() {
            self.backlog -= conn.due - conn.issued;
        }
        if self.cfg.op_limit == 0 || conn.issued < self.cfg.op_limit {
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn payloads_are_deterministic_per_seed() {
        assert_eq!(payload_for(42, 1000), payload_for(42, 1000));
        assert_ne!(payload_for(42, 1000), payload_for(43, 1000));
        assert_eq!(payload_for(7, 13).len(), 13);
    }

    fn entry(i: u64) -> ObjEntry {
        ObjEntry {
            id: i,
            seed: i,
            len: 1,
            prefilled: false,
        }
    }

    #[test]
    fn zipf_prefers_early_ranks() {
        let mut t = ZipfTable::new(0.99);
        for i in 0..50 {
            t.push(entry(i));
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
            t.push(entry(i));
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

    /// What a [`spawn_stub_server`] saw.
    #[derive(Default)]
    struct StubLog {
        deleted: Mutex<Vec<u64>>,
    }

    /// How a [`spawn_stub_server`] answers.
    #[derive(Clone, Copy, PartialEq)]
    enum Stub {
        /// Every request, at once.
        Store,
        /// Every other PUT on a connection BUSY first.
        BouncePuts,
        /// No GET: a connection is closed, its GETs unanswered, once it
        /// has sent this many.
        VanishAfterGets(usize),
    }

    /// A protocol-speaking in-memory object store: every connection gets
    /// a thread (test scale only) that answers each request immediately,
    /// echoing correlation ids, as `mode` says. Ids count up from 1.
    fn spawn_stub_server(mode: Stub) -> (std::net::SocketAddr, Arc<StubLog>) {
        use crate::protocol::{read_frame, write_frame};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let log = Arc::new(StubLog::default());
        let objects = Arc::new(Mutex::new(HashMap::<u64, Vec<u8>>::new()));
        let next_id = Arc::new(AtomicU64::new(1));
        let seen = Arc::clone(&log);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { break };
                let _ = s.set_nodelay(true);
                let (objects, next_id, log) = (
                    Arc::clone(&objects),
                    Arc::clone(&next_id),
                    Arc::clone(&seen),
                );
                thread::spawn(move || {
                    let mut bounce = mode == Stub::BouncePuts;
                    let mut swallowed = 0;
                    while let Ok(Some(body)) = read_frame(&mut s) {
                        let Ok(req) = Request::decode(&body) else {
                            return;
                        };
                        if let (Stub::VanishAfterGets(n), Op::Get { .. }) = (mode, &req.op) {
                            swallowed += 1;
                            if swallowed == n {
                                return;
                            }
                            continue;
                        }
                        let is_put = matches!(req.op, Op::Put { .. });
                        let mut objects = objects.lock().unwrap();
                        let resp = match req.op {
                            Op::Put { .. } if bounce => Response::Busy,
                            Op::Put { payload, .. } => {
                                let id = next_id.fetch_add(1, Ordering::Relaxed);
                                objects.insert(id, payload);
                                Response::PutOk { id }
                            }
                            Op::Get { id } => match objects.get(&id) {
                                Some(payload) => Response::GetOk {
                                    payload: payload.clone(),
                                },
                                None => Response::NotFound { id },
                            },
                            Op::Delete { id } => {
                                log.deleted.lock().unwrap().push(id);
                                match objects.remove(&id) {
                                    Some(_) => Response::Ok,
                                    None => Response::NotFound { id },
                                }
                            }
                            Op::Metrics => Response::MetricsOk { json: "{}".into() },
                            _ => Response::Ok,
                        };
                        if is_put {
                            bounce = mode == Stub::BouncePuts && !bounce;
                        }
                        drop(objects);
                        if write_frame(&mut s, &resp.encode_corr(req.corr_id)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, log)
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
        let (addr, _) = spawn_stub_server(Stub::Store);
        for pipeline_depth in [1, 8] {
            let cfg = LoadConfig {
                addr: addr.to_string(),
                connections: 1,
                duration_ms: 10_000,
                pipeline_depth,
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
        let (addr, _) = spawn_stub_server(Stub::Store);
        let cfg = LoadConfig {
            addr: addr.to_string(),
            connections: 32,
            duration_ms: 400,
            rate_ops_per_sec: 500.0,
            pipeline_depth: 32,
            mix: OpMix {
                put: 0,
                get: 100,
                delete: 0,
            },
            prefill: 4,
            payload_min: 64,
            payload_max: 64,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg).expect("load run");
        assert_eq!(report.connected, 32);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.unanswered, 0, "drain settles everything");
        assert_eq!(report.payload_mismatches, 0, "every GET verified");
        assert!(
            report.gets >= 100,
            "~200 arrivals in 400ms: {}",
            report.gets
        );
        assert_eq!(report.puts, 4, "a GET-only mix PUTs only the prefill");
        assert!(report.p99_us() > 0);
        assert!(report.ops_per_sec > 0.0);
    }

    #[test]
    fn busy_answers_are_retried_with_the_same_operation() {
        let (addr, _) = spawn_stub_server(Stub::BouncePuts);
        let report = run_load(&LoadConfig {
            addr: addr.to_string(),
            connections: 1,
            duration_ms: 10_000,
            mix: OpMix {
                put: 100,
                get: 0,
                delete: 0,
            },
            payload_min: 32,
            payload_max: 64,
            prefill: 2,
            op_limit: 20,
            trace_sample: 1,
            ..LoadConfig::default()
        })
        .expect("load run");
        assert_eq!(report.puts, 22, "every bounced PUT lands: {report:?}");
        assert_eq!(report.busy_retries, 22, "each PUT bounced once");
        assert_eq!(report.errors, 0);
        assert_eq!(
            report.sampled_trace_ids.len(),
            22,
            "a retry keeps its trace id: one id per logical PUT"
        );
    }

    #[test]
    fn a_server_that_vanishes_turns_in_flight_requests_into_errors() {
        let (addr, _) = spawn_stub_server(Stub::VanishAfterGets(4));
        let started = Instant::now();
        let report = run_load(&LoadConfig {
            addr: addr.to_string(),
            connections: 3,
            duration_ms: 60_000,
            pipeline_depth: 4,
            mix: OpMix {
                put: 0,
                get: 1,
                delete: 0,
            },
            payload_min: 32,
            payload_max: 64,
            prefill: 2,
            trace_sample: 0,
            ..LoadConfig::default()
        })
        .expect("a run whose server went away still reports");
        assert!(
            started.elapsed() < DRAIN_GRACE,
            "the closed connections, not the 60 s window, end the run"
        );
        assert_eq!(report.errors, 12, "3 connections x 4 GETs lost: {report:?}");
        assert_eq!(report.unanswered, 0, "nothing is left waiting");
        assert_eq!(report.ops, 2, "only the prefill was answered");
    }

    #[test]
    fn prefilled_objects_are_never_deleted() {
        let (addr, log) = spawn_stub_server(Stub::Store);
        let report = run_load(&LoadConfig {
            addr: addr.to_string(),
            connections: 3,
            duration_ms: 10_000,
            mix: OpMix {
                put: 30,
                get: 0,
                delete: 70,
            },
            payload_min: 32,
            payload_max: 64,
            prefill: 4,
            op_limit: 60,
            trace_sample: 0,
            ..LoadConfig::default()
        })
        .expect("load run");
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.payload_mismatches, 0);
        assert!(report.deletes > 0, "own objects are deleted: {report:?}");
        let deleted: HashSet<u64> = log.deleted.lock().unwrap().iter().copied().collect();
        assert_eq!(deleted.len() as u64, report.deletes, "each deleted once");
        assert!(
            (1..=4).all(|prefilled| !deleted.contains(&prefilled)),
            "the prefill (ids 1-4) is shared: {deleted:?}"
        );
    }

    #[test]
    fn report_keeps_only_server_sampled_trace_ids() {
        let sample = 4;
        let mut report = LoadReport::default();
        let mut expected = Vec::new();
        for id in 0..400u64 {
            report.complete(sample, Some(id), "get", id);
            if tornado_obs::trace::sampled(id, sample) {
                expected.push(id);
            }
        }
        assert_eq!(report.sampled_trace_ids, expected);
        assert!(
            !expected.is_empty(),
            "1-in-4 sampling over 400 ids keeps some"
        );
        assert!(report
            .slowest
            .iter()
            .all(|e| tornado_obs::trace::sampled(e.trace_id, sample)));
    }
}
