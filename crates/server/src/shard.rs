//! Event-loop connection shards.
//!
//! Connections are served by a small, fixed set of shards. Each shard is
//! one thread around a
//! [`crate::reactor::Poller`]: it owns a slab of connection states
//! (per-connection read [`FrameBuffer`], write buffer, and in-flight
//! bookkeeping), reassembles frames incrementally, dispatches decoded
//! requests to the engine's worker pool, and writes completed responses
//! back — coalescing every response queued since the last flush into one
//! write syscall. Requests are read from the socket straight into the
//! connection's [`FrameBuffer`] — no scratch buffer in between, nothing
//! zero-filled — which sizes itself from a frame's length prefix, so a PUT
//! lands in one allocation of its own size, leaves the buffer *with* it,
//! and has its payload cut out of it by the decoder: between the socket
//! and the store's encoder a payload byte moves once (the cut). Responses
//! arrive already encoded (`Frame`): when a
//! connection has nothing unflushed the frame's buffer *becomes* its
//! output buffer (a 1 MiB GET reply is not copied on its way to the
//! socket); behind unflushed output it is appended, so frames still leave
//! in the order they were queued and share a write.
//!
//! Invariants the shard maintains:
//!
//! * **Never desync.** Partial frames interleaved across connections are
//!   reassembled per-connection by [`FrameBuffer`]; a frame's bytes are
//!   only consumed once the whole frame is present.
//! * **An announcement buys no memory.** A read buffer is never reserved
//!   more than `RETAINED_CAPACITY` ahead of the bytes its peer has sent,
//!   whatever length the peer's prefix claims, and a prefix over
//!   `MAX_FRAME` ends the connection's read side with nothing reserved
//!   for it.
//! * **Legacy ordering.** A request without a correlation id (an
//!   old-header, one-at-a-time client) holds further frame extraction on
//!   its connection until it is answered, so responses stay in request
//!   order on the wire, byte-identical to what such a client always saw.
//! * **Pipelining.** Correlated requests run concurrently up to
//!   `max_inflight_per_conn`; completions arrive out of order and are
//!   matched back by slot, generation, and correlation id. Stale
//!   completions for a reused slot are dropped by a per-slot generation
//!   counter.
//! * **Nonblocking backpressure.** A full engine queue answers BUSY
//!   inline (`server.busy_rejected`); the loop never blocks on dispatch, so
//!   a saturated queue cannot stall readiness processing.
//! * **Level-triggered liveness.** When a completion frees pipeline
//!   capacity, frame extraction re-runs immediately — buffered bytes are
//!   never stranded waiting for a readiness edge that will not come.
//! * **Bounded output.** A peer that pipelines requests and does not read
//!   the replies stops being served: no further frame is taken from a
//!   connection holding more than `MAX_UNFLUSHED` (2 × `MAX_FRAME`) bytes
//!   of unsent output, until a flush drains it below that (extraction
//!   then resumes from the flush, for the same reason). Requests already
//!   dispatched still complete, so the buffer tops out at the bound plus
//!   `max_inflight_per_conn` replies.
//! * **Drain ordering.** On shutdown a shard stops dispatching, answers
//!   already-buffered frames SHUTTING_DOWN, finishes in-flight requests,
//!   flushes every write buffer, then closes — with a force-close
//!   deadline so a stuck peer cannot wedge exit.

use crate::engine::{Job, JobTrace, Reply};
use crate::obs::{LoopStats, ServerObserver};
use crate::protocol::{release_drained, Frame, FrameBuffer, Op, Request, Response, MAX_FRAME};
use crate::reactor::{Interest, Poller, Waker};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tornado_obs::trace::SpanRecord;
use tornado_obs::Json;

/// Poller token reserved for the shard's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Unsent output past which a connection's buffered requests wait (see
/// *Bounded output* in the module docs): room for two of the largest
/// replies, so one can queue while another drains.
const MAX_UNFLUSHED: usize = 2 * MAX_FRAME;

/// How long a draining shard waits for in-flight requests and write
/// buffers before force-closing connections.
const DRAIN_FORCE_CLOSE: Duration = Duration::from_secs(5);

/// Where shards receive work from other threads: adopted connections from
/// the acceptor and completions from engine workers. Every push kicks the
/// shard's waker so the loop reacts without waiting out its poll timeout.
pub(crate) struct ShardMailbox {
    completions: Mutex<Vec<Completion>>,
    adopted: Mutex<Vec<TcpStream>>,
    waker: OnceLock<Waker>,
}

/// One finished request on its way back to a connection.
struct Completion {
    slot: usize,
    gen: u64,
    corr: Option<u32>,
    frame: Frame,
}

impl ShardMailbox {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            completions: Mutex::new(Vec::new()),
            adopted: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
        })
    }

    /// Delivers a finished, encoded response (engine worker side of
    /// [`Reply`]).
    pub fn complete(&self, slot: usize, gen: u64, corr: Option<u32>, frame: Frame) {
        self.completions
            .lock()
            .expect("mailbox lock")
            .push(Completion {
                slot,
                gen,
                corr,
                frame,
            });
        self.kick();
    }

    /// Hands a freshly accepted connection to the shard.
    pub fn adopt(&self, stream: TcpStream) {
        self.adopted.lock().expect("mailbox lock").push(stream);
        self.kick();
    }

    /// Wakes the shard's event loop (no-op until the shard installs its
    /// waker on startup; the loop's first pass drains the mailbox anyway).
    pub fn kick(&self) {
        if let Some(w) = self.waker.get() {
            w.wake();
        }
    }

    /// Blocks until a completion arrives and returns its response: how
    /// the engine's unit tests, which run no shard, read a worker's reply.
    #[cfg(test)]
    pub fn wait_response(&self) -> Response {
        loop {
            if let Some(done) = self.completions.lock().expect("mailbox lock").pop() {
                let body = &done.frame.wire()[4..];
                return Response::decode_corr(body)
                    .expect("a worker's frame decodes")
                    .1;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Dispatches decoded requests to the worker pool. The engine implements
/// this; tests substitute doubles (e.g. an always-busy pool) to pin loop
/// behavior without standing up workers.
pub(crate) trait Dispatcher: Send + Sync + 'static {
    /// Admits a job or returns the rejection response (BUSY / SHUTTING_DOWN).
    fn dispatch(&self, job: Job) -> Result<(), Response>;
}

impl Dispatcher for crate::engine::Engine {
    fn dispatch(&self, job: Job) -> Result<(), Response> {
        self.submit(job)
    }
}

/// Everything a shard needs beyond its mailbox.
pub(crate) struct ShardContext<D: Dispatcher> {
    pub dispatcher: Arc<D>,
    pub obs: Arc<ServerObserver>,
    pub stats: Arc<LoopStats>,
    pub mailbox: Arc<ShardMailbox>,
    pub shutdown: Arc<AtomicBool>,
    pub default_deadline_ms: u32,
    pub slow_request_us: u64,
    pub poll_interval_ms: u64,
    pub max_inflight_per_conn: usize,
}

/// Metadata for one dispatched, unanswered request.
struct PendingMeta {
    corr: Option<u32>,
    op_kind: &'static str,
    req_start: Instant,
    trace_id: u64,
    /// `(root_span, root_start_us)` when the request is trace-sampled.
    trace: Option<(u64, u64)>,
}

/// One connection's state within the shard slab.
struct Conn {
    stream: TcpStream,
    /// Generation stamped on dispatches; completions carrying an older
    /// generation targeted a previous tenant of this slot and are dropped.
    gen: u64,
    inbuf: FrameBuffer,
    /// Queued response bytes not yet written: `out[out_pos..]`. `out_pos`
    /// is the progress of a partial write and, for an adopted frame, where
    /// the frame starts in its buffer.
    out: Vec<u8>,
    out_pos: usize,
    /// Frames appended to `out` since the last fully-drained flush — the
    /// write-batching counter.
    out_frames: usize,
    /// Requests dispatched to the engine and not yet answered.
    pending: Vec<PendingMeta>,
    /// An uncorrelated (one-at-a-time) request is in flight: extraction
    /// holds until it is answered so legacy responses stay ordered.
    serial_hold: bool,
    /// Extraction stopped because more than [`MAX_UNFLUSHED`] bytes were
    /// waiting for the peer to read; the flush that drains them resumes it.
    output_hold: bool,
    /// The poller currently watches this fd for writability.
    write_interest: bool,
    /// Read side is finished (EOF or fatal error); tear down once
    /// in-flight requests drain and the write buffer flushes.
    peer_gone: bool,
    /// Close once the write buffer drains (post-SHUTDOWN reply).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            inbuf: FrameBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            out_frames: 0,
            pending: Vec::new(),
            serial_hold: false,
            output_hold: false,
            write_interest: false,
            peer_gone: false,
            close_after_flush: false,
        }
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn has_output(&self) -> bool {
        self.unflushed() > 0
    }
}

/// Trace ids assigned to requests whose client sent none. A plain counter
/// is enough: the sampling decision mixes the id, so sequential ids still
/// sample uniformly.
static SHARD_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Runs one shard's event loop until shutdown completes. This is the
/// shard thread's entire body.
pub(crate) fn run_shard<D: Dispatcher>(ctx: ShardContext<D>) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    let waker = match Waker::new(&poller, WAKER_TOKEN) {
        Ok(w) => w,
        Err(_) => return,
    };
    let _ = ctx.mailbox.waker.set(waker);

    let mut shard = ShardState {
        poller,
        ctx,
        conns: Vec::new(),
        free: Vec::new(),
        gen_counter: 0,
        drain_started: None,
    };
    shard.run();
}

struct ShardState<D: Dispatcher> {
    poller: Poller,
    ctx: ShardContext<D>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen_counter: u64,
    drain_started: Option<Instant>,
}

impl<D: Dispatcher> ShardState<D> {
    fn run(&mut self) {
        let mut events = Vec::new();
        let timeout = Some(Duration::from_millis(self.ctx.poll_interval_ms.max(1)));
        loop {
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.ctx.stats.wakeups.inc();
            self.ctx.stats.events.add(events.len() as u64);

            // Slots whose output changed this wakeup; flushed once at the
            // end so every response queued in this pass shares a syscall.
            let mut dirty: Vec<usize> = Vec::new();

            for ev in events.drain(..) {
                if ev.token == WAKER_TOKEN {
                    if let Some(w) = self.ctx.mailbox.waker.get() {
                        w.drain();
                    }
                    continue;
                }
                let slot = ev.token as usize;
                if ev.readable {
                    self.handle_readable(slot, &mut dirty);
                }
                if ev.writable {
                    self.flush(slot);
                }
            }

            self.adopt_new();
            self.process_completions(&mut dirty);

            dirty.sort_unstable();
            dirty.dedup();
            for slot in dirty {
                self.flush(slot);
            }

            if self.ctx.shutdown.load(Ordering::SeqCst) && self.drain() {
                return;
            }
        }
    }

    /// Drain pass, entered once the shutdown flag is up. Returns true when
    /// the shard is fully drained (or force-closed) and the loop may exit.
    fn drain(&mut self) -> bool {
        let deadline_passed = match self.drain_started {
            None => {
                self.drain_started = Some(Instant::now());
                false
            }
            Some(t) => t.elapsed() >= DRAIN_FORCE_CLOSE,
        };
        // Close every connection that is finished: nothing in flight and
        // nothing left to write. Past the force-close deadline, close
        // unconditionally — a peer that stopped reading cannot wedge exit.
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => (c.inflight() == 0 && !c.has_output()) || deadline_passed,
                None => false,
            };
            if done {
                self.teardown(slot);
            }
        }
        self.conns.iter().all(Option::is_none)
    }

    /// Takes connections the acceptor handed over and registers them.
    fn adopt_new(&mut self) {
        let adopted: Vec<TcpStream> =
            std::mem::take(&mut *self.ctx.mailbox.adopted.lock().expect("mailbox lock"));
        for stream in adopted {
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                // Acceptor race during drain: the peer has sent nothing
                // yet, so closing is indistinguishable from never having
                // been accepted.
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            self.gen_counter += 1;
            let gen = self.gen_counter;
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self.poller.register(&stream, slot as u64, Interest::READ).is_err() {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Conn::new(stream, gen));
            self.ctx.stats.connections.add(1);
        }
    }

    /// Reads straight into the connection's frame buffer until the socket
    /// would block or a buffer sized for its frame is full (the poller is
    /// level-triggered: what is left unread is reported again), then
    /// extracts as many complete frames as pipelining rules allow.
    fn handle_readable(&mut self, slot: usize, dirty: &mut Vec<usize>) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.peer_gone || conn.close_after_flush {
            return;
        }
        // End of stream and a failed read both end the read side.
        conn.peer_gone = !conn.inbuf.fill_from(&mut conn.stream).unwrap_or(false);
        self.extract_frames(slot, dirty);
        self.maybe_teardown(slot);
    }

    /// Pulls complete frames out of the connection's read buffer and
    /// dispatches them, honoring the output bound, the serial hold (legacy
    /// ordering), the per-connection in-flight cap, and drain mode.
    fn extract_frames(&mut self, slot: usize, dirty: &mut Vec<usize>) {
        let shutting_down = self.ctx.shutdown.load(Ordering::SeqCst);
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.close_after_flush {
                return;
            }
            if conn.unflushed() > MAX_UNFLUSHED {
                conn.output_hold = true;
                return;
            }
            if !shutting_down {
                if conn.serial_hold {
                    return;
                }
                if conn.inflight() >= self.ctx.max_inflight_per_conn {
                    return;
                }
            }
            let (frame, body_start) = match conn.inbuf.take_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    // Framing violation (oversized length prefix): the
                    // stream can never resync, so stop reading. In-flight
                    // requests still complete and flush before teardown.
                    conn.peer_gone = true;
                    return;
                }
            };
            self.ctx.stats.frames_in.inc();
            let req_start = Instant::now();
            let frame_bytes = (frame.len() - body_start) as u64;
            let request = match Request::decode_owned(frame, body_start) {
                Ok(r) => r,
                Err(e) => {
                    self.ctx.obs.bad_requests.inc();
                    // No correlation id survives a failed decode; answer
                    // unflagged.
                    let resp = Response::BadRequest { message: e.to_string() };
                    self.queue_frame(slot, Frame::encode(&resp, None), dirty);
                    continue;
                }
            };
            let decode_us = req_start.elapsed().as_micros() as u64;
            let corr = request.corr_id;

            if matches!(request.op, Op::Shutdown) {
                self.ctx.shutdown.store(true, Ordering::SeqCst);
                self.ctx.obs.admin.inc();
                self.ctx.obs.events.emit("server.shutdown_requested", &[]);
                self.queue_frame(slot, Frame::encode(&Response::Ok, corr), dirty);
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.close_after_flush = true;
                }
                return;
            }
            if shutting_down {
                self.queue_frame(slot, Frame::encode(&Response::ShuttingDown, corr), dirty);
                continue;
            }

            // Trace context: the client's id if it sent one (so its spans
            // and ours share a trace), a server-assigned id otherwise.
            // Sampling is a pure function of the id — no per-request coin
            // flip. TRACE_EXPORT itself is never traced: it snapshots the
            // ring mid-request, so its own half-built tree (children
            // recorded, root still pending) would pollute every export
            // with orphans.
            let obs = Arc::clone(&self.ctx.obs);
            let trace_id = request
                .trace_id
                .unwrap_or_else(|| SHARD_TRACE_SEQ.fetch_add(1, Ordering::Relaxed));
            let traceable = !matches!(request.op, Op::TraceExport);
            let trace =
                (traceable && obs.tracer.is_enabled() && obs.tracer.sampled(trace_id)).then(|| {
                    let root_span = obs.tracer.next_span_id();
                    let now_us = obs.tracer.now_us();
                    let root_start_us = now_us.saturating_sub(decode_us);
                    obs.tracer.record(SpanRecord {
                        trace_id,
                        span_id: obs.tracer.next_span_id(),
                        parent_id: Some(root_span),
                        name: "frame.decode",
                        start_us: root_start_us,
                        dur_us: decode_us,
                        fields: vec![("frame_bytes", Json::U64(frame_bytes))],
                    });
                    (root_span, root_start_us)
                });

            let op_kind = request.op.kind();
            let accepted_at = Instant::now();
            let deadline_ms = if request.deadline_ms > 0 {
                request.deadline_ms
            } else {
                self.ctx.default_deadline_ms
            };
            let deadline =
                (deadline_ms > 0).then(|| accepted_at + Duration::from_millis(deadline_ms as u64));
            let job_trace = trace.map(|(root_span, _)| JobTrace {
                trace_id,
                root_span,
                accepted_us: obs.tracer.now_us(),
            });
            let gen = self.conns[slot].as_ref().expect("conn present").gen;
            let job = Job {
                request,
                reply: Reply { mailbox: Arc::clone(&self.ctx.mailbox), slot, gen, corr },
                accepted_at,
                deadline,
                trace: job_trace,
            };
            match self.ctx.dispatcher.dispatch(job) {
                Ok(()) => {
                    let conn = self.conns[slot].as_mut().expect("conn present");
                    conn.pending.push(PendingMeta {
                        corr,
                        op_kind,
                        req_start,
                        trace_id,
                        trace,
                    });
                    if corr.is_none() {
                        conn.serial_hold = true;
                    }
                    self.ctx.stats.inflight.add(1);
                }
                Err(rejection) => {
                    // Nonblocking backpressure: the rejection (BUSY /
                    // SHUTTING_DOWN) is queued inline and the loop moves
                    // on — a full engine queue never stalls readiness.
                    let meta = PendingMeta { corr, op_kind, req_start, trace_id, trace };
                    self.finish_request(slot, &meta, Frame::encode(&rejection, corr), dirty);
                }
            }
        }
    }

    /// Applies completed requests from the engine, matching each back to
    /// its connection (slot + generation) and request (correlation id).
    fn process_completions(&mut self, dirty: &mut Vec<usize>) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *self.ctx.mailbox.completions.lock().expect("mailbox lock"));
        // Re-extract on every connection that got capacity back: buffered
        // frames beyond the in-flight cap have no readiness edge coming.
        let mut freed: VecDeque<usize> = VecDeque::new();
        for done in completions {
            let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != done.gen {
                continue; // a previous tenant of this slot
            }
            let idx = match done.corr {
                Some(c) => conn.pending.iter().position(|m| m.corr == Some(c)),
                None => conn.pending.iter().position(|m| m.corr.is_none()),
            };
            let Some(idx) = idx else { continue };
            let meta = conn.pending.remove(idx);
            if meta.corr.is_none() {
                conn.serial_hold = false;
            }
            self.ctx.stats.inflight.add(-1);
            self.finish_request(done.slot, &meta, done.frame, dirty);
            freed.push_back(done.slot);
        }
        while let Some(slot) = freed.pop_front() {
            self.extract_frames(slot, dirty);
            self.maybe_teardown(slot);
        }
    }

    /// Queues the response frame, then records the root span — last, so
    /// every child is already recorded and the root's window (decode start
    /// → reply queued) encloses them all — and emits the slow-request
    /// event.
    fn finish_request(
        &mut self,
        slot: usize,
        meta: &PendingMeta,
        frame: Frame,
        dirty: &mut Vec<usize>,
    ) {
        let status = frame.kind;
        self.queue_frame(slot, frame, dirty);
        let obs = &self.ctx.obs;
        if let Some((root_span, root_start_us)) = meta.trace {
            obs.tracer.record(SpanRecord {
                trace_id: meta.trace_id,
                span_id: root_span,
                parent_id: None,
                name: "request",
                start_us: root_start_us,
                dur_us: obs.tracer.now_us().saturating_sub(root_start_us),
                fields: vec![
                    ("op", Json::Str(meta.op_kind.into())),
                    ("status", Json::Str(status.into())),
                ],
            });
        }
        let total_us = meta.req_start.elapsed().as_micros() as u64;
        if self.ctx.slow_request_us > 0
            && total_us >= self.ctx.slow_request_us
            && obs.events.is_enabled()
        {
            emit_slow_request(
                obs,
                meta.trace_id,
                meta.op_kind,
                status,
                total_us,
                meta.trace.is_some(),
            );
        }
    }

    /// The one way a response reaches a connection, completions and inline
    /// rejections alike: with nothing unflushed the frame's buffer becomes
    /// the connection's output buffer, otherwise its bytes are appended
    /// behind what is already waiting.
    fn queue_frame(&mut self, slot: usize, frame: Frame, dirty: &mut Vec<usize>) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.has_output() {
            conn.out.extend_from_slice(frame.wire());
        } else {
            conn.out = frame.bytes;
            conn.out_pos = frame.start;
        }
        conn.out_frames += 1;
        self.ctx.stats.responses_out.inc();
        dirty.push(slot);
    }

    /// Writes the connection's output, then — if that drained a buffer
    /// whose size had stopped frame extraction — takes up the buffered
    /// requests again and writes what they queued, until the connection is
    /// back on hold or has nothing more to say.
    fn flush(&mut self, slot: usize) {
        loop {
            self.write_out(slot);
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if !conn.output_hold || conn.unflushed() > MAX_UNFLUSHED {
                break;
            }
            conn.output_hold = false;
            let mut queued = Vec::new();
            self.extract_frames(slot, &mut queued);
            if queued.is_empty() {
                break;
            }
        }
        self.maybe_teardown(slot);
    }

    /// Writes the connection's whole output buffer in one syscall (the
    /// write-batching win: every frame queued since the last drain shares
    /// it). Short writes keep the remainder and register write interest.
    fn write_out(&mut self, slot: usize) {
        // Split borrows: the connection slab, the poller, and the stats
        // are all touched while the connection is held mutably.
        let Self { poller, ctx, conns, .. } = self;
        let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !conn.has_output() {
            return;
        }
        let frames = conn.out_frames;
        let mut wrote_all = false;
        let mut broken = false;
        loop {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    ctx.stats.write_flushes.inc();
                    conn.out_pos += n;
                    if conn.out_pos == conn.out.len() {
                        wrote_all = true;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if broken || wrote_all {
            conn.peer_gone |= broken;
            if wrote_all && frames >= 2 {
                ctx.stats.batched_writes.inc();
            }
            release_drained(&mut conn.out);
            conn.out_pos = 0;
            conn.out_frames = 0;
            if wrote_all && conn.write_interest {
                conn.write_interest = false;
                let _ = poller.reregister(&conn.stream, slot as u64, Interest::READ);
            }
        } else if !conn.write_interest {
            conn.write_interest = true;
            let _ = poller.reregister(&conn.stream, slot as u64, Interest::READ_WRITE);
        }
    }

    /// Closes the connection if it has reached a terminal state: the peer
    /// is gone (or SHUTDOWN was answered) with nothing left in flight and
    /// nothing left to write.
    fn maybe_teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let flushed = !conn.has_output();
        let idle = conn.inflight() == 0;
        let closing = (conn.close_after_flush || conn.peer_gone) && flushed && idle;
        if closing {
            self.teardown(slot);
        }
    }

    fn teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        let _ = self.poller.deregister(&conn.stream);
        drop(conn);
        self.free.push(slot);
        self.ctx.stats.connections.add(-1);
    }
}

/// Emits a `server.slow_request` event; when the request was sampled the
/// event carries its full span tree (name/span/parent/start/duration), so
/// the slow path is diagnosable straight from the event stream.
fn emit_slow_request(
    obs: &ServerObserver,
    trace_id: u64,
    op_kind: &str,
    status: &str,
    total_us: u64,
    sampled: bool,
) {
    let mut fields = vec![
        ("trace_id", Json::Str(format!("{trace_id:#018x}"))),
        ("op", Json::Str(op_kind.into())),
        ("status", Json::Str(status.into())),
        ("total_us", Json::U64(total_us)),
        ("sampled", Json::Bool(sampled)),
    ];
    if sampled {
        let spans: Vec<Json> = obs
            .tracer
            .spans_for(trace_id)
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("span".into(), Json::U64(s.span_id)),
                    (
                        "parent".into(),
                        s.parent_id.map(Json::U64).unwrap_or(Json::Null),
                    ),
                    ("start_us".into(), Json::U64(s.start_us)),
                    ("dur_us".into(), Json::U64(s.dur_us)),
                ])
            })
            .collect();
        fields.push(("spans", Json::Arr(spans)));
    }
    obs.events.emit("server.slow_request", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        append_frame, read_frame, write_frame, READ_CHUNK, RESPONSE_HEAD_MAX, RETAINED_CAPACITY,
    };
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Dispatcher double whose queue is permanently full.
    struct AlwaysBusy;
    impl Dispatcher for AlwaysBusy {
        fn dispatch(&self, _job: Job) -> Result<(), Response> {
            Err(Response::Busy)
        }
    }

    /// Dispatcher double that answers every request inline (everything is
    /// Ok except GETs, which echo their id as a one-byte payload so tests
    /// can match responses to requests).
    struct Inline;
    impl Dispatcher for Inline {
        fn dispatch(&self, job: Job) -> Result<(), Response> {
            let response = match &job.request.op {
                Op::Get { id } => Response::GetOk { payload: vec![*id as u8] },
                _ => Response::Ok,
            };
            let frame = Frame::encode(&response, job.reply.corr);
            job.reply.send(frame);
            Ok(())
        }
    }

    /// What [`Sized`] answers `GET id` with: `id` patterned bytes.
    fn sized_payload(id: u64) -> Vec<u8> {
        (0..id).map(|i| (i * 31 + id) as u8).collect()
    }

    /// Dispatcher double that answers `GET id` inline with `id` bytes,
    /// framed the way a worker frames the store's buffer (headroom, the
    /// stripe's length header, the payload), and counts what it was given.
    #[derive(Default)]
    struct Sized {
        dispatched: Arc<AtomicUsize>,
    }
    impl Dispatcher for Sized {
        fn dispatch(&self, job: Job) -> Result<(), Response> {
            self.dispatched.fetch_add(1, Ordering::SeqCst);
            let corr = job.reply.corr;
            let frame = match &job.request.op {
                Op::Get { id } => {
                    let mut buf = vec![0xEE; RESPONSE_HEAD_MAX + 8];
                    buf.extend_from_slice(&sized_payload(*id));
                    Frame::get_ok(buf, RESPONSE_HEAD_MAX + 8, corr)
                }
                _ => Frame::encode(&Response::Ok, corr),
            };
            job.reply.send(frame);
            Ok(())
        }
    }

    /// The bytes a reply put on the wire before workers framed replies.
    fn reference_frame(corr: Option<u32>, resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        append_frame(&mut wire, &resp.encode_corr(corr));
        wire
    }

    /// Pins the socket's send buffer at the kernel's minimum, so a large
    /// reply is certain to leave in several partial writes.
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    fn shrink_send_buffer(stream: &TcpStream) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        let bytes: i32 = 1;
        // SAFETY: `fd` is an open socket for as long as `stream` is
        // borrowed, and `value`/`len` describe one live `i32`, which is
        // what SO_SNDBUF reads.
        let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, &bytes, 4) };
        assert_eq!(rc, 0, "setsockopt(SO_SNDBUF)");
    }

    struct Harness {
        addr: std::net::SocketAddr,
        shutdown: Arc<AtomicBool>,
        mailbox: Arc<ShardMailbox>,
        stats: Arc<LoopStats>,
        accept: Option<thread::JoinHandle<()>>,
        shard: Option<thread::JoinHandle<()>>,
    }

    impl Harness {
        /// Stands up one shard behind a real listener: accepted
        /// connections go straight to the shard's mailbox.
        fn start<D: Dispatcher>(dispatcher: D, max_inflight: usize) -> Self {
            Self::start_with(dispatcher, max_inflight, |_| ())
        }

        /// As [`Harness::start`], with `on_accept` run on every accepted
        /// stream before the shard sees it.
        fn start_with<D: Dispatcher>(
            dispatcher: D,
            max_inflight: usize,
            on_accept: fn(&TcpStream),
        ) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = Arc::new(AtomicBool::new(false));
            let mailbox = ShardMailbox::new();
            let stats = Arc::new(LoopStats::new());
            let ctx = ShardContext {
                dispatcher: Arc::new(dispatcher),
                obs: ServerObserver::shared(),
                stats: Arc::clone(&stats),
                mailbox: Arc::clone(&mailbox),
                shutdown: Arc::clone(&shutdown),
                default_deadline_ms: 0,
                slow_request_us: 0,
                poll_interval_ms: 5,
                max_inflight_per_conn: max_inflight,
            };
            let shard = thread::spawn(move || run_shard(ctx));
            let accept = {
                let shutdown = Arc::clone(&shutdown);
                let mailbox = Arc::clone(&mailbox);
                thread::spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                on_accept(&stream);
                                mailbox.adopt(stream);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                    }
                })
            };
            Self {
                addr,
                shutdown,
                mailbox,
                stats,
                accept: Some(accept),
                shard: Some(shard),
            }
        }

        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        }

        /// Waits for the shard to have queued `n` responses.
        fn await_responses_out(&self, n: u64) {
            let patience = Instant::now();
            while self.stats.responses_out.get() < n {
                assert!(
                    patience.elapsed() < Duration::from_secs(10),
                    "{n} responses never queued"
                );
                thread::sleep(Duration::from_millis(1));
            }
        }

        fn stop(mut self) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.mailbox.kick();
            if let Some(t) = self.accept.take() {
                let _ = t.join();
            }
            if let Some(t) = self.shard.take() {
                let _ = t.join();
            }
        }
    }

    fn req(corr: Option<u32>, op: Op) -> Vec<u8> {
        Request { deadline_ms: 0, corr_id: corr, trace_id: None, op }.encode()
    }

    fn read_response(stream: &mut TcpStream) -> (Option<u32>, Response) {
        let body = read_frame(stream).unwrap().expect("a frame, not EOF");
        Response::decode_corr(&body).unwrap()
    }

    #[test]
    fn pipelined_requests_complete_and_match_by_corr_id() {
        let h = Harness::start(Inline, 64);
        let mut c = h.connect();
        // Issue 10 GETs before reading anything; responses must carry the
        // echoed corr ids and the per-request payloads.
        for i in 0..10u32 {
            write_frame(&mut c, &req(Some(i), Op::Get { id: i as u64 })).unwrap();
        }
        let mut seen = [false; 10];
        for _ in 0..10 {
            let (corr, resp) = read_response(&mut c);
            let corr = corr.expect("pipelined response carries its corr id");
            assert!(!seen[corr as usize], "corr {corr} answered twice");
            seen[corr as usize] = true;
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![corr as u8]),
                other => panic!("{other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(h.stats.frames_in.get() >= 10);
        h.stop();
    }

    #[test]
    fn uncorrelated_requests_stay_strictly_ordered() {
        let h = Harness::start(Inline, 64);
        let mut c = h.connect();
        // A legacy client writes several frames back-to-back; replies must
        // come back unflagged and in order.
        for i in 0..5u64 {
            write_frame(&mut c, &req(None, Op::Get { id: i })).unwrap();
        }
        for i in 0..5u64 {
            let (corr, resp) = read_response(&mut c);
            assert_eq!(corr, None, "legacy responses are unflagged");
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![i as u8]),
                other => panic!("{other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn interleaved_partial_frames_across_connections_never_desync() {
        let h = Harness::start(Inline, 64);
        let mut conns: Vec<TcpStream> = (0..8).map(|_| h.connect()).collect();
        // Build one distinct correlated frame per connection, then drip
        // them byte-by-byte round-robin so every connection's frame is
        // partial most of the time.
        let frames: Vec<Vec<u8>> = (0..conns.len() as u32)
            .map(|i| {
                let body = req(Some(100 + i), Op::Get { id: i as u64 });
                let mut f = Vec::new();
                append_frame(&mut f, &body);
                f
            })
            .collect();
        let max_len = frames.iter().map(Vec::len).max().unwrap();
        for byte_idx in 0..max_len {
            for (ci, frame) in frames.iter().enumerate() {
                if byte_idx < frame.len() {
                    conns[ci].write_all(&frame[byte_idx..=byte_idx]).unwrap();
                }
            }
        }
        for (ci, c) in conns.iter_mut().enumerate() {
            let (corr, resp) = read_response(c);
            assert_eq!(corr, Some(100 + ci as u32));
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![ci as u8]),
                other => panic!("{other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn saturated_queue_answers_busy_without_stalling_readiness() {
        let h = Harness::start(AlwaysBusy, 64);
        let mut a = h.connect();
        let mut b = h.connect();
        // Every dispatch is rejected; the loop must keep answering — on
        // this connection and on others — without blocking.
        for i in 0..20u32 {
            write_frame(&mut a, &req(Some(i), Op::Ping)).unwrap();
        }
        write_frame(&mut b, &req(None, Op::Ping)).unwrap();
        // All 21 frames come back, each one BUSY.
        for _ in 0..20 {
            let (corr, resp) = read_response(&mut a);
            assert!(corr.is_some());
            assert_eq!(resp, Response::Busy);
        }
        let (corr, resp) = read_response(&mut b);
        assert_eq!(corr, None);
        assert_eq!(resp, Response::Busy);
        assert_eq!(h.stats.responses_out.get(), 21);
        assert_eq!(
            h.stats.inflight.get(),
            0,
            "rejected dispatches never count as in flight"
        );
        h.stop();
    }

    #[test]
    fn pipelined_client_against_shard_via_client_api() {
        // The library client's pipelined mode against a real shard.
        let h = Harness::start(Inline, 8);
        let mut pc = crate::client::PipelinedClient::connect(h.addr).unwrap();
        let mut ids = Vec::new();
        for i in 0..6u64 {
            ids.push(pc.submit(Op::Get { id: i }).unwrap());
        }
        let mut got = 0;
        while got < 6 {
            let (corr, resp) = pc.recv().unwrap();
            let idx = ids.iter().position(|&c| c == corr).expect("known corr id");
            match resp {
                Response::GetOk { payload } => assert_eq!(payload, vec![idx as u8]),
                other => panic!("{other:?}"),
            }
            got += 1;
        }
        h.stop();
    }

    #[test]
    fn shutdown_drains_and_closes() {
        let h = Harness::start(Inline, 8);
        let mut c = h.connect();
        write_frame(&mut c, &req(Some(1), Op::Ping)).unwrap();
        let (corr, resp) = read_response(&mut c);
        assert_eq!((corr, resp), (Some(1), Response::Ok));
        write_frame(&mut c, &req(Some(2), Op::Shutdown)).unwrap();
        let (corr, resp) = read_response(&mut c);
        assert_eq!((corr, resp), (Some(2), Response::Ok));
        // The server closes the connection after answering SHUTDOWN.
        assert_eq!(read_frame(&mut c).unwrap(), None, "EOF after the shutdown reply");
        h.stop();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn adopted_and_appended_frames_leave_in_order_byte_identical_to_encoded_bodies() {
        let h = Harness::start_with(Sized::default(), 64, shrink_send_buffer);
        let mut c = h.connect();
        // Nothing is queued, so the first reply's buffer becomes the
        // connection's output; 2 MiB against a pinned send buffer and a
        // peer that is not reading leaves most of it unflushed.
        write_frame(&mut c, &req(Some(1), Op::Get { id: 2 << 20 })).unwrap();
        h.await_responses_out(1);
        // These two are appended behind the partially written buffer.
        write_frame(&mut c, &req(Some(2), Op::Get { id: 300 << 10 })).unwrap();
        write_frame(&mut c, &req(Some(3), Op::Get { id: 5 })).unwrap();
        h.await_responses_out(3);

        let mut expect = Vec::new();
        for (corr, id) in [(1, 2 << 20), (2, 300 << 10), (3, 5)] {
            let resp = Response::GetOk {
                payload: sized_payload(id),
            };
            expect.extend_from_slice(&reference_frame(Some(corr), &resp));
        }
        let mut got = vec![0u8; expect.len()];
        c.read_exact(&mut got).unwrap();
        assert!(got == expect, "three replies, in order, byte for byte");

        // A legacy request's reply is adopted too, behind the shorter
        // (uncorrelated) header.
        write_frame(&mut c, &req(None, Op::Get { id: 1000 })).unwrap();
        let expect = reference_frame(
            None,
            &Response::GetOk {
                payload: sized_payload(1000),
            },
        );
        let mut got = vec![0u8; expect.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
        h.stop();
    }

    #[test]
    fn a_peer_that_never_reads_stops_being_served_and_loses_nothing() {
        const REQUESTS: u32 = 200;
        const OBJECT: u64 = 1 << 20;
        let dispatcher = Sized::default();
        let dispatched = Arc::clone(&dispatcher.dispatched);
        let h = Harness::start(dispatcher, 16);

        // 200 pipelined 1 MiB GETs (4 KiB of requests) and not one read.
        let mut greedy = h.connect();
        for corr in 0..REQUESTS {
            write_frame(&mut greedy, &req(Some(corr), Op::Get { id: OBJECT })).unwrap();
        }
        // The shard goes on serving everyone else...
        let mut polite = h.connect();
        for _ in 0..50 {
            write_frame(&mut polite, &req(None, Op::Ping)).unwrap();
            assert_eq!(read_response(&mut polite), (None, Response::Ok));
        }
        // ...while the greedy peer's requests wait in its read buffer:
        // what was dispatched is what fits the output bound, the in-flight
        // cap on top of it, and the kernel's socket buffers.
        let served = dispatched.load(Ordering::SeqCst) - 50;
        let bound = MAX_UNFLUSHED / OBJECT as usize + 16;
        assert!(
            served <= bound + 16,
            "{served} replies of 1 MiB buffered for a peer that reads none (bound {bound})"
        );

        // When it does read, every reply is there, once, intact.
        let expect = sized_payload(OBJECT);
        let mut seen = vec![false; REQUESTS as usize];
        for _ in 0..REQUESTS {
            let (corr, resp) = read_response(&mut greedy);
            let corr = corr.expect("correlated") as usize;
            assert!(
                !std::mem::replace(&mut seen[corr], true),
                "corr {corr} answered twice"
            );
            match resp {
                Response::GetOk { payload } => assert!(payload == expect, "corr {corr}"),
                other => panic!("{other:?}"),
            }
        }
        h.stop();
    }

    #[test]
    fn a_drained_connection_gives_back_its_large_buffers() {
        const BIG: usize = 4 << 20;
        // One shard, driven by hand on this thread, around one connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let mailbox = ShardMailbox::new();
        mailbox.adopt(served);
        let mut shard = ShardState {
            poller: Poller::new().unwrap(),
            ctx: ShardContext {
                dispatcher: Arc::new(Sized::default()),
                obs: ServerObserver::shared(),
                stats: Arc::new(LoopStats::new()),
                mailbox,
                shutdown: Arc::new(AtomicBool::new(false)),
                default_deadline_ms: 0,
                slow_request_us: 0,
                poll_interval_ms: 5,
                max_inflight_per_conn: 8,
            },
            conns: Vec::new(),
            free: Vec::new(),
            gen_counter: 0,
            drain_started: None,
        };
        shard.adopt_new();
        // Runs the loop body until `done`, without the poller: read,
        // complete, flush.
        let turn_until = |shard: &mut ShardState<Sized>, done: &dyn Fn(&Conn) -> bool| {
            let patience = Instant::now();
            loop {
                let mut dirty = Vec::new();
                shard.handle_readable(0, &mut dirty);
                shard.process_completions(&mut dirty);
                shard.flush(0);
                if done(shard.conns[0].as_ref().expect("connection stays open")) {
                    return;
                }
                assert!(
                    patience.elapsed() < Duration::from_secs(10),
                    "shard made no progress"
                );
                thread::sleep(Duration::from_millis(1));
            }
        };

        // Capacities are judged once the peer has its replies and is gone:
        // a panic inside the scope would wait on it forever.
        let (inbuf_idle, out_idle) = thread::scope(|s| {
            // The peer: a 4 MiB PUT, its reply, a 4 MiB GET, its reply.
            s.spawn(|| {
                let mut c = client;
                let put = Op::Put {
                    name: "big".into(),
                    payload: vec![7; BIG],
                };
                write_frame(&mut c, &req(Some(1), put)).unwrap();
                assert_eq!(read_response(&mut c), (Some(1), Response::Ok));
                write_frame(&mut c, &req(Some(2), Op::Get { id: BIG as u64 })).unwrap();
                match read_response(&mut c) {
                    (Some(2), Response::GetOk { payload }) => assert_eq!(payload.len(), BIG),
                    other => panic!("{other:?}"),
                }
            });
            let stats = Arc::clone(&shard.ctx.stats);
            turn_until(&mut shard, &|conn| {
                stats.responses_out.get() == 1 && !conn.has_output()
            });
            let inbuf_idle = shard.conns[0].as_ref().unwrap().inbuf.capacity();
            turn_until(&mut shard, &|conn| {
                stats.responses_out.get() == 2 && !conn.has_output()
            });
            (inbuf_idle, shard.conns[0].as_ref().unwrap().out.capacity())
        });
        assert!(
            inbuf_idle <= RETAINED_CAPACITY,
            "idle, yet holding {inbuf_idle} bytes of its largest request"
        );
        assert!(
            out_idle <= RETAINED_CAPACITY,
            "idle, yet holding {out_idle} bytes of its largest reply"
        );
    }

    /// Dispatcher double that accepts every job and answers none, until
    /// the test takes them back.
    #[derive(Default)]
    struct Parked {
        jobs: Arc<Mutex<Vec<Job>>>,
    }
    impl Dispatcher for Parked {
        fn dispatch(&self, job: Job) -> Result<(), Response> {
            self.jobs.lock().unwrap().push(job);
            Ok(())
        }
    }

    /// One shard around one connection, to be driven by hand on the test's
    /// thread, and the peer's end of that connection.
    fn hand_driven<D: Dispatcher>(dispatcher: D) -> (ShardState<D>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (served, _) = listener.accept().unwrap();
        let mailbox = ShardMailbox::new();
        mailbox.adopt(served);
        let mut shard = ShardState {
            poller: Poller::new().unwrap(),
            ctx: ShardContext {
                dispatcher: Arc::new(dispatcher),
                obs: ServerObserver::shared(),
                stats: Arc::new(LoopStats::new()),
                mailbox,
                shutdown: Arc::new(AtomicBool::new(false)),
                default_deadline_ms: 0,
                slow_request_us: 0,
                poll_interval_ms: 5,
                max_inflight_per_conn: 8,
            },
            conns: Vec::new(),
            free: Vec::new(),
            gen_counter: 0,
            drain_started: None,
        };
        shard.adopt_new();
        (shard, client)
    }

    /// Reads connection 0 until `done`, as readiness events would have it.
    fn read_until<D: Dispatcher>(shard: &mut ShardState<D>, done: impl Fn(&ShardState<D>) -> bool) {
        let patience = Instant::now();
        while !done(shard) {
            assert!(
                patience.elapsed() < Duration::from_secs(10),
                "shard made no progress"
            );
            shard.handle_readable(0, &mut Vec::new());
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_peer_that_announces_a_frame_and_stalls_holds_a_bounded_buffer() {
        let (mut shard, mut peer) = hand_driven(Inline);
        // The largest frame there is, announced; ten bytes of it, sent.
        peer.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
        peer.write_all(&[1; 10]).unwrap();
        read_until(&mut shard, |shard| {
            shard.conns[0].as_ref().expect("stays open").inbuf.buffered() == 14
        });
        // A few more readiness events change nothing.
        for _ in 0..3 {
            shard.handle_readable(0, &mut Vec::new());
        }
        let held = shard.conns[0].as_ref().unwrap().inbuf.capacity();
        assert!(
            held <= RETAINED_CAPACITY + READ_CHUNK,
            "{held} bytes reserved for 14 that arrived"
        );
    }

    #[test]
    fn a_prefix_over_max_frame_stops_the_connection_before_anything_is_reserved() {
        let dispatcher = Parked::default();
        let jobs = Arc::clone(&dispatcher.jobs);
        let (mut shard, mut peer) = hand_driven(dispatcher);
        // A request that stays in flight keeps the connection around to be
        // looked at; behind it, a frame one byte over the limit.
        write_frame(&mut peer, &req(Some(1), Op::Ping)).unwrap();
        peer.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
        peer.write_all(&[1; 10]).unwrap();
        read_until(&mut shard, |shard| {
            shard.conns[0].as_ref().expect("a request is in flight").peer_gone
        });
        let conn = shard.conns[0].as_ref().unwrap();
        assert_eq!(conn.inflight(), 1);
        assert!(
            conn.inbuf.capacity() <= READ_CHUNK,
            "{} bytes reserved on the word of a frame that is refused",
            conn.inbuf.capacity()
        );
        // Nothing more is read from it...
        peer.write_all(&[2; 100]).unwrap();
        thread::sleep(Duration::from_millis(20));
        let before = shard.conns[0].as_ref().unwrap().inbuf.buffered();
        shard.handle_readable(0, &mut Vec::new());
        assert_eq!(shard.conns[0].as_ref().unwrap().inbuf.buffered(), before);
        // ...the request in flight is still answered, and then it is closed.
        let job = jobs.lock().unwrap().pop().expect("the PING was dispatched");
        job.reply.send(Frame::encode(&Response::Ok, Some(1)));
        shard.process_completions(&mut Vec::new());
        shard.flush(0);
        assert_eq!(read_response(&mut peer), (Some(1), Response::Ok));
        assert!(shard.conns[0].is_none(), "torn down");
    }
}
