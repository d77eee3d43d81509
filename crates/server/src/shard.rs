//! Event-loop connection shards.
//!
//! Connections are served by a small, fixed set of shards. Each shard is
//! one thread around a
//! [`crate::reactor::Poller`]: it owns a slab of connection states
//! (per-connection read [`FrameBuffer`] and hold flags), reassembles frames
//! incrementally and dispatches decoded requests to the engine's worker
//! pool. Requests are read from the socket straight into the
//! connection's [`FrameBuffer`] — no scratch buffer in between, nothing
//! zero-filled — which sizes itself from a frame's length prefix, so a PUT
//! lands in one allocation of its own size, leaves the buffer *with* it,
//! and has its payload cut out of it by the decoder: between the socket
//! and the store's encoder a payload byte moves once (the cut).
//!
//! A connection's **write half** — the socket, its unsent output and its
//! in-flight count, `ConnWriter` — sits behind one per-connection lock
//! and has one entry, `ConnWriter::send`, which any thread may call.
//! Responses arrive there already encoded (`Frame`). A frame with nothing
//! to share a write with — no output waiting, no other request of its
//! connection in flight — is written to the socket by the thread that made
//! it, nonblocking, and its buffer is what the socket reads from (a 1 MiB
//! GET reply is not copied on its way out, and the worker that allocated
//! it frees it); the shard is not woken. Any other frame — and the part of
//! a write the socket would not take — waits in the connection's output
//! buffer, in the order queued, and the shard is asked, once, to flush
//! what has gathered in one write.
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
//! * **One writer at a time.** Whoever writes — a worker or the shard —
//!   first takes the queued output out from under the connection's lock
//!   and marks the write in progress (`in_write`); until it has put back
//!   what the socket would not take, everyone else only queues behind it.
//!   So frames never interleave, and every write starts where the last
//!   one stopped. The lock itself is a leaf — nothing else is locked while
//!   it is held; the engine queue, the mailbox and the store are entered
//!   only after it is released — and is never held through a syscall: a
//!   write wakes the peer, and on a busy core the peer's next request
//!   would otherwise find the shard queued behind a lock whose holder was
//!   preempted inside `write`.
//! * **No lost wake-up.** Whatever the shard waits on another thread for —
//!   the in-flight cap with requests still buffered, a closing or draining
//!   connection with requests outstanding or a write in progress — it
//!   notes (`parked`) in the critical section in which it saw the count,
//!   and a sender lowers the count (or ends its write) and reads the note
//!   in one critical section of the same lock: either the shard saw the
//!   new state or the sender sees the note and asks for the shard.
//! * **Pipelining.** Requests run concurrently up to
//!   `max_inflight_per_conn` and are answered in the order they finish;
//!   the correlation id in the reply is all that matches one to its
//!   request. A request without one, which the protocol allows only one at
//!   a time, is admitted like any other and answered unflagged. A `Reply`
//!   holds its connection, so a reply that outlives its connection finds it
//!   closed and is dropped, and the socket's descriptor is not reused while
//!   one is still to come.
//! * **Nonblocking backpressure.** A full engine queue answers BUSY
//!   inline (`server.busy_rejected`); the loop never blocks on dispatch, so
//!   a saturated queue cannot stall readiness processing.
//! * **Level-triggered liveness.** When a reply frees pipeline capacity,
//!   frame extraction re-runs at once — buffered bytes are never stranded
//!   waiting for a readiness edge that will not come.
//! * **Asleep when there is nothing to do.** The shard's wait has no
//!   timeout — sockets, the mailbox and shutdown all announce themselves —
//!   so an idle shard is not woken at all; a draining one also wakes at its
//!   force-close deadline. A connection whose read side has ended (EOF, a
//!   read or framing error, SHUTDOWN answered) but which is still owed
//!   replies is no longer watched for readability — a hang-up is
//!   level-triggered and would wake the loop without pause — only for
//!   writability while its output is blocked; the replies it waits for
//!   announce themselves through the mailbox.
//! * **Bounded output.** A peer that pipelines requests and does not read
//!   the replies stops being served: no further frame is taken from a
//!   connection holding more than `MAX_UNFLUSHED` (2 × `MAX_FRAME`) bytes
//!   of unsent output, until a flush drains it below that (extraction
//!   then resumes from the flush, for the same reason). Requests already
//!   dispatched still complete, so the buffer tops out at the bound plus
//!   `max_inflight_per_conn` replies.
//! * **Drain ordering.** Woken by shutdown, a shard stops dispatching,
//!   answers already-buffered frames SHUTTING_DOWN, finishes in-flight
//!   requests, flushes every write buffer, then closes — with a
//!   force-close deadline so a stuck peer cannot wedge exit.

use crate::engine::{Job, JobTrace};
use crate::obs::{LoopStats, ServerObserver};
use crate::protocol::{Frame, FrameBuffer, Op, Request, Response, MAX_FRAME};
use crate::reactor::{Interest, Poller, Waker};
use crate::server::Shutdown;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Where a shard hears from other threads: connections the acceptor
/// adopted out to it, the slots of connections a sender left something on
/// for it (output to flush, a hold to lift), and shutdown. Every push
/// kicks the shard's waker, which is the shard's only way to hear of them.
pub(crate) struct ShardMailbox {
    adopted: Mutex<Vec<TcpStream>>,
    unsettled: Mutex<Vec<usize>>,
    waker: Waker,
}

impl ShardMailbox {
    /// A shard's poller, and the mailbox whose kicks wake it.
    pub fn new() -> io::Result<(Poller, Arc<Self>)> {
        let poller = Poller::new()?;
        let mailbox = Arc::new(Self {
            adopted: Mutex::new(Vec::new()),
            unsettled: Mutex::new(Vec::new()),
            waker: Waker::new(&poller, WAKER_TOKEN)?,
        });
        Ok((poller, mailbox))
    }

    /// Hands a freshly accepted connection to the shard.
    pub fn adopt(&self, stream: TcpStream) {
        self.adopted.lock().expect("mailbox lock").push(stream);
        self.kick();
    }

    /// Asks the shard to attend to the connection in `slot`.
    fn unsettle(&self, slot: usize) {
        self.unsettled.lock().expect("mailbox lock").push(slot);
        self.kick();
    }

    /// Wakes the shard's event loop, now or at its next wait.
    pub fn kick(&self) {
        self.waker.wake();
    }
}

/// Dispatches decoded requests to the worker pool. The engine implements
/// this; tests substitute doubles (e.g. an always-busy pool) to pin loop
/// behavior without standing up workers.
pub(crate) trait Dispatcher: Send + Sync + 'static {
    /// Admits a job, or answers it (BUSY / SHUTTING_DOWN) before
    /// returning. Never blocks.
    fn dispatch(&self, job: Job);
}

impl Dispatcher for crate::engine::Engine {
    fn dispatch(&self, job: Job) {
        self.submit(job)
    }
}

/// Everything a shard needs beyond its mailbox.
pub(crate) struct ShardContext<D: Dispatcher> {
    pub dispatcher: Arc<D>,
    pub obs: Arc<ServerObserver>,
    pub stats: Arc<LoopStats>,
    pub mailbox: Arc<ShardMailbox>,
    pub shutdown: Arc<Shutdown>,
    pub slow_request_us: u64,
    pub max_inflight_per_conn: usize,
}

/// A connection's write half: the socket, its unsent output and its
/// in-flight count behind one lock, so that the thread that made a reply
/// can write it. Shared (`Arc`) by the shard's slab and every [`Reply`]
/// outstanding, which is also what keeps the descriptor from being reused
/// while a reply is still to come.
pub(crate) struct ConnWriter {
    stream: TcpStream,
    /// The connection's slot in its shard's slab (what the mailbox names).
    slot: usize,
    mailbox: Arc<ShardMailbox>,
    stats: Arc<LoopStats>,
    obs: Arc<ServerObserver>,
    slow_request_us: u64,
    state: Mutex<WriteState>,
}

/// What the connection's lock guards.
#[derive(Default)]
struct WriteState {
    /// Queued response bytes not yet written: `out[out_pos..]`. `out_pos`
    /// is the progress of a partial write and, for an adopted frame, where
    /// the frame starts in its buffer.
    out: Vec<u8>,
    out_pos: usize,
    /// Frames put in `out` since it was last empty — the write-batching
    /// counter.
    out_frames: usize,
    /// Bytes a thread has taken out of `out` and is writing to the socket
    /// with the lock released; nobody else writes until it has put back
    /// what the socket would not take.
    in_write: usize,
    /// Requests dispatched to the engine and not yet answered.
    inflight: usize,
    /// The shard left something undone that only a sender unblocks
    /// (buffered requests behind the in-flight cap, a teardown or drain
    /// waiting for the count to reach zero or a write to end): every reply
    /// asks for the shard until it has looked again.
    parked: bool,
    /// The shard has been asked for and has not looked yet.
    kicked: bool,
    /// A write failed: nothing more is sent, and the shard tears the
    /// connection down once nothing is in flight.
    broken: bool,
    /// The shard closed the connection: a late reply is dropped.
    closed: bool,
}

impl WriteState {
    fn queued(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn unflushed(&self) -> usize {
        self.in_write + self.queued()
    }

    fn has_output(&self) -> bool {
        self.unflushed() > 0
    }
}

impl ConnWriter {
    fn lock(&self) -> MutexGuard<'_, WriteState> {
        self.state.lock().expect("connection lock")
    }

    /// Counts one more request in flight and returns the claim on it that
    /// [`Reply::send`] gives back. Only the shard admits, so a count it
    /// checked a moment ago can only have fallen since.
    fn admit(self: &Arc<Self>) -> Reply {
        self.lock().inflight += 1;
        self.stats.inflight.add(1);
        Reply(Arc::clone(self))
    }

    /// The one way a response reaches a connection, workers' replies
    /// (`answers`: the frame answers a request in flight) and the shard's
    /// inline rejections alike, and the one place that decides who writes
    /// it: a frame with nothing to share a write with — no output waiting
    /// or being written, nothing else in flight — goes to the socket here;
    /// any other joins the output buffer, behind what is already waiting,
    /// and — unless a writer is at work, who will see it — the shard is
    /// asked (once, until it has looked) to flush it.
    fn send(&self, frame: Frame, answers: bool) {
        let kick = {
            let mut st = self.lock();
            if answers {
                st.inflight -= 1;
                self.stats.inflight.add(-1);
            }
            if st.closed {
                return;
            }
            if !st.broken {
                let alone = !st.has_output() && st.inflight == 0;
                if st.queued() > 0 {
                    st.out.extend_from_slice(frame.wire());
                } else {
                    st.out = frame.bytes;
                    st.out_pos = frame.start;
                }
                st.out_frames += 1;
                self.stats.responses_out.inc();
                if alone {
                    st = self.write_out(st);
                }
            }
            // The shard is needed for output nobody is writing, to tear
            // down a connection whose write failed, and for whatever it
            // parked.
            let idle_output = st.in_write == 0 && st.queued() > 0;
            let kick = (idle_output || st.broken || st.parked) && !st.kicked;
            st.kicked |= kick;
            kick
        };
        if kick {
            self.mailbox.unsettle(self.slot);
        }
    }

    /// The one place response bytes are written to a connection's socket:
    /// everything queued, in one syscall when the socket takes it (the
    /// write-batching win: every frame queued since the buffer was last
    /// empty shares it). The caller holds the lock and nobody is writing.
    /// The output is taken and the lock released for the `write` — which
    /// wakes the peer, whose next request must not find the shard waiting
    /// on a lock held through a syscall — then taken again: a buffer the
    /// socket took whole is dropped here, by the thread that wrote it, and
    /// whatever was queued meanwhile is written next; what the socket
    /// would not take goes back in front of it, for the shard, which
    /// watches for writability.
    fn write_out<'a>(&'a self, mut st: MutexGuard<'a, WriteState>) -> MutexGuard<'a, WriteState> {
        debug_assert_eq!(st.in_write, 0, "one writer at a time");
        while st.queued() > 0 && !st.broken && !st.closed {
            let (mut buf, mut pos) = (std::mem::take(&mut st.out), std::mem::take(&mut st.out_pos));
            let frames = std::mem::take(&mut st.out_frames);
            st.in_write = buf.len() - pos;
            drop(st);
            let mut stream = &self.stream;
            let mut outcome = Ok(());
            while pos < buf.len() {
                match stream.write(&buf[pos..]) {
                    Ok(0) => outcome = Err(std::io::ErrorKind::WriteZero),
                    Ok(n) => {
                        self.stats.write_flushes.inc();
                        pos += n;
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => outcome = Err(e.kind()),
                }
                break;
            }
            if outcome.is_ok() {
                // Freed by the thread that wrote it, outside the lock.
                buf = Vec::new();
            }
            st = self.lock();
            st.in_write = 0;
            match outcome {
                Ok(()) if frames >= 2 => self.stats.batched_writes.inc(),
                Ok(()) => {}
                Err(std::io::ErrorKind::WouldBlock) if !st.closed => {
                    buf.extend_from_slice(&st.out[st.out_pos..]);
                    st.out = buf;
                    st.out_pos = pos;
                    st.out_frames += frames;
                    return st;
                }
                Err(_) => {
                    st.broken = true;
                    st.out = Vec::new();
                    st.out_pos = 0;
                    st.out_frames = 0;
                }
            }
        }
        st
    }

    /// Whether everything the connection is owed has been answered and
    /// written. If not, the sender that changes that must bring the shard
    /// back (output left over is already watched for writability).
    fn settled(&self) -> bool {
        let mut st = self.lock();
        st.parked |= st.inflight > 0 || st.in_write > 0;
        st.inflight == 0 && !st.has_output()
    }

    /// Ends the connection: late replies become no-ops, unsent output is
    /// dropped, and the peer sees the close now rather than when the last
    /// [`Reply`] lets go of the socket.
    fn close(&self) {
        {
            let mut st = self.lock();
            st.closed = true;
            st.out = Vec::new();
            st.out_pos = 0;
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One in-flight request's claim on its connection: made by the shard when
/// it dispatches the request, given back — with the response — by whoever
/// answers it.
pub(crate) struct Reply(Arc<ConnWriter>);

impl Reply {
    /// Delivers the encoded response. A connection that has since hung up
    /// is not an error; the work itself already happened.
    pub fn send(self, frame: Frame) {
        self.0.send(frame, true);
    }

    /// The observer and slow-request threshold of the server the
    /// connection belongs to.
    pub fn observer(&self) -> (&ServerObserver, u64) {
        (&self.0.obs, self.0.slow_request_us)
    }
}

#[cfg(test)]
impl Reply {
    /// A claim on a connection no shard serves, and the peer's end of it:
    /// how the engine's unit tests read a worker's reply. The socket is
    /// left blocking, so the worker writes the whole frame while the test
    /// blocks reading it.
    pub fn to_peer(obs: Arc<ServerObserver>) -> (Reply, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let (stream, _) = listener.accept().expect("accept");
        let conn = Arc::new(ConnWriter {
            stream,
            slot: 0,
            mailbox: ShardMailbox::new().expect("mailbox").1,
            stats: Arc::new(LoopStats::new()),
            obs,
            slow_request_us: 0,
            state: Mutex::default(),
        });
        (conn.admit(), peer)
    }
}

/// One connection's state within the shard slab: the read half, which only
/// the shard touches, and the shared write half.
struct Conn {
    tx: Arc<ConnWriter>,
    inbuf: FrameBuffer,
    /// Extraction stopped because more than [`MAX_UNFLUSHED`] bytes were
    /// waiting for the peer to read; the flush that drains them resumes it.
    output_hold: bool,
    /// What the poller watches this fd for; `None` once it watches nothing.
    /// A connection whose read side is finished is watched only while its
    /// output is blocked: a hang-up is level-triggered, and would wake the
    /// shard in a loop for as long as the connection cannot be torn down.
    watching: Option<Interest>,
    /// Read side is finished (EOF or fatal error); tear down once
    /// in-flight requests drain and the write buffer flushes.
    peer_gone: bool,
    /// Close once the write buffer drains (post-SHUTDOWN reply).
    close_after_flush: bool,
}

/// Brings what the poller watches `conn` for in line with what the shard
/// waits on it for: readability while its read side is open, writability
/// while its output is `blocked`, nothing otherwise.
fn watch(poller: &Poller, conn: &mut Conn, slot: usize, blocked: bool) {
    let read = !(conn.peer_gone || conn.close_after_flush);
    let want = (read || blocked).then_some(Interest {
        read,
        write: blocked,
    });
    if want == conn.watching {
        return;
    }
    let fd = &conn.tx.stream;
    let _ = match (conn.watching, want) {
        (None, Some(interest)) => poller.register(fd, slot as u64, interest),
        (Some(_), Some(interest)) => poller.reregister(fd, slot as u64, interest),
        (_, None) => poller.deregister(fd),
    };
    conn.watching = want;
}

/// Trace ids assigned to requests whose client sent none. A plain counter
/// is enough: the sampling decision mixes the id, so sequential ids still
/// sample uniformly.
static SHARD_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Runs one shard's event loop on `poller` — the one its mailbox wakes —
/// until shutdown completes. This is the shard thread's entire body.
pub(crate) fn run_shard<D: Dispatcher>(poller: Poller, ctx: ShardContext<D>) {
    ShardState {
        poller,
        ctx,
        conns: Vec::new(),
        free: Vec::new(),
        drain_started: None,
    }
    .run();
}

struct ShardState<D: Dispatcher> {
    poller: Poller,
    ctx: ShardContext<D>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    drain_started: Option<Instant>,
}

impl<D: Dispatcher> ShardState<D> {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            // Asleep until a socket or the mailbox wakes the shard; a
            // draining shard also wakes at its force-close deadline.
            let force_close = self
                .drain_started
                .map(|t| DRAIN_FORCE_CLOSE.saturating_sub(t.elapsed()));
            if self.poller.wait(&mut events, force_close).is_err() {
                break;
            }
            self.ctx.stats.wakeups.inc();
            self.ctx.stats.events.add(events.len() as u64);

            for ev in events.drain(..) {
                if ev.token == WAKER_TOKEN {
                    self.ctx.mailbox.waker.drain();
                    continue;
                }
                let slot = ev.token as usize;
                if ev.readable {
                    self.handle_readable(slot);
                }
                if ev.writable {
                    self.flush(slot);
                }
            }

            self.adopt_new();
            self.attend_unsettled();

            if self.ctx.shutdown.is_raised() && self.drain() {
                return;
            }
        }
    }

    /// Drain pass, entered once shutdown is raised. Returns true when
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
            let done = self.conns[slot].as_ref().is_some_and(|c| c.tx.settled());
            if done || deadline_passed {
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
            if self.ctx.shutdown.is_raised() {
                // Acceptor race during drain: the peer has sent nothing
                // yet, so closing is indistinguishable from never having
                // been accepted.
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            if self
                .poller
                .register(&stream, slot as u64, Interest::READ)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            let tx = Arc::new(ConnWriter {
                stream,
                slot,
                mailbox: Arc::clone(&self.ctx.mailbox),
                stats: Arc::clone(&self.ctx.stats),
                obs: Arc::clone(&self.ctx.obs),
                slow_request_us: self.ctx.slow_request_us,
                state: Mutex::default(),
            });
            self.conns[slot] = Some(Conn {
                tx,
                inbuf: FrameBuffer::new(),
                output_hold: false,
                watching: Some(Interest::READ),
                peer_gone: false,
                close_after_flush: false,
            });
            self.ctx.stats.connections.add(1);
        }
    }

    /// Attends to every connection a sender named since the last pass:
    /// takes up its buffered requests again (a reply may have lifted a
    /// hold) and flushes what has gathered in its output. The flags are
    /// cleared before anything is looked at, so a reply that lands while
    /// the shard is looking asks again rather than going unseen. A slot
    /// whose tenant has changed in the meantime costs its new tenant a
    /// look.
    fn attend_unsettled(&mut self) {
        let unsettled: Vec<usize> =
            std::mem::take(&mut *self.ctx.mailbox.unsettled.lock().expect("mailbox lock"));
        for slot in unsettled {
            let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                continue;
            };
            {
                let mut st = conn.tx.lock();
                st.kicked = false;
                st.parked = false;
            }
            self.extract_frames(slot);
            self.flush(slot);
        }
    }

    /// Reads straight into the connection's frame buffer until the socket
    /// would block or a buffer sized for its frame is full (the poller is
    /// level-triggered: what is left unread is reported again), then
    /// extracts as many complete frames as pipelining rules allow.
    fn handle_readable(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.peer_gone || conn.close_after_flush {
            return;
        }
        // End of stream and a failed read both end the read side.
        conn.peer_gone = !conn.inbuf.fill_from(&mut &conn.tx.stream).unwrap_or(false);
        self.extract_frames(slot);
        self.maybe_teardown(slot);
    }

    /// Pulls complete frames out of the connection's read buffer and
    /// dispatches them, honoring the output bound, the per-connection
    /// in-flight cap, and drain mode.
    fn extract_frames(&mut self, slot: usize) {
        let shutting_down = self.ctx.shutdown.is_raised();
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        loop {
            if conn.close_after_flush {
                return;
            }
            {
                let mut st = conn.tx.lock();
                if st.unflushed() > MAX_UNFLUSHED {
                    conn.output_hold = true;
                    return;
                }
                if !shutting_down && st.inflight >= self.ctx.max_inflight_per_conn {
                    // Bytes already buffered have no readiness edge
                    // coming: the reply that lifts the hold must say so.
                    st.parked |= conn.inbuf.buffered() > 0;
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
            let started_at = Instant::now();
            let frame_bytes = (frame.len() - body_start) as u64;
            let request = match Request::decode_owned(frame, body_start) {
                Ok(r) => r,
                Err(e) => {
                    self.ctx.obs.bad_requests.inc();
                    // No correlation id survives a failed decode; answer
                    // unflagged.
                    let resp = Response::BadRequest {
                        message: e.to_string(),
                    };
                    conn.tx.send(Frame::encode(&resp, None), false);
                    continue;
                }
            };
            let decode_us = started_at.elapsed().as_micros() as u64;
            let corr = request.corr_id;

            if matches!(request.op, Op::Shutdown) {
                self.ctx.shutdown.raise();
                self.ctx.obs.admin.inc();
                self.ctx.obs.events.emit("server.shutdown_requested", &[]);
                conn.tx.send(Frame::encode(&Response::Ok, corr), false);
                conn.close_after_flush = true;
                return;
            }
            if shutting_down {
                conn.tx
                    .send(Frame::encode(&Response::ShuttingDown, corr), false);
                continue;
            }

            // Trace context: the client's id if it sent one (so its spans
            // and ours share a trace), a server-assigned id otherwise.
            // Sampling is a pure function of the id — no per-request coin
            // flip. TRACE_EXPORT itself is never traced: it snapshots the
            // ring mid-request, so its own half-built tree (children
            // recorded, root still pending) would pollute every export
            // with orphans.
            let tracer = &self.ctx.obs.tracer;
            let trace_id = request
                .trace_id
                .unwrap_or_else(|| SHARD_TRACE_SEQ.fetch_add(1, Ordering::Relaxed));
            let traceable = !matches!(request.op, Op::TraceExport);
            let trace = (traceable && tracer.is_enabled() && tracer.sampled(trace_id)).then(|| {
                let root_span = tracer.next_span_id();
                let root_start_us = tracer.now_us().saturating_sub(decode_us);
                tracer.record(SpanRecord {
                    trace_id,
                    span_id: tracer.next_span_id(),
                    parent_id: Some(root_span),
                    name: "frame.decode",
                    start_us: root_start_us,
                    dur_us: decode_us,
                    fields: vec![("frame_bytes", Json::U64(frame_bytes))],
                });
                JobTrace {
                    root_span,
                    root_start_us,
                    accepted_us: tracer.now_us(),
                }
            });

            let accepted_at = Instant::now();
            let deadline = (request.deadline_ms > 0)
                .then(|| accepted_at + Duration::from_millis(request.deadline_ms as u64));
            // Nonblocking backpressure: a full engine queue answers the
            // job BUSY before `dispatch` returns and the loop moves on — a
            // saturated queue never stalls readiness.
            self.ctx.dispatcher.dispatch(Job {
                request,
                reply: conn.tx.admit(),
                started_at,
                accepted_at,
                deadline,
                trace_id,
                trace,
            });
        }
    }

    /// Writes the connection's output (what workers left for the shard:
    /// frames queued behind one another, the rest of a write the socket
    /// would not take) and watches for writability while some remains;
    /// then — if that drained a buffer whose size had stopped frame
    /// extraction — takes up the buffered requests again.
    fn flush(&mut self, slot: usize) {
        // Split borrows: the connection is held mutably while the poller
        // is used.
        let Self { poller, conns, .. } = self;
        let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let (blocked, unflushed) = {
            let mut st = conn.tx.lock();
            // A write in progress is its writer's to finish, or to hand over.
            if st.in_write == 0 {
                st = conn.tx.write_out(st);
            }
            conn.peer_gone |= st.broken;
            (st.in_write == 0 && st.queued() > 0, st.unflushed())
        };
        watch(poller, conn, slot, blocked);
        if conn.output_hold && unflushed <= MAX_UNFLUSHED {
            conn.output_hold = false;
            self.extract_frames(slot);
        }
        self.maybe_teardown(slot);
    }

    /// Closes the connection if it has reached a terminal state: the peer
    /// is gone (or SHUTDOWN was answered) with nothing left in flight and
    /// nothing left to write.
    fn maybe_teardown(&mut self, slot: usize) {
        let Self { poller, conns, .. } = self;
        let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !(conn.close_after_flush || conn.peer_gone) {
            return;
        }
        if conn.tx.settled() {
            self.teardown(slot);
        } else {
            // Nothing more is read from it: stop hearing that it hung up.
            let blocked = conn.watching.is_some_and(|interest| interest.write);
            watch(poller, conn, slot, blocked);
        }
    }

    fn teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if conn.watching.is_some() {
            let _ = self.poller.deregister(&conn.tx.stream);
        }
        conn.tx.close();
        self.free.push(slot);
        self.ctx.stats.connections.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        append_frame, read_frame, write_frame, READ_CHUNK, RESPONSE_HEAD_MAX, RETAINED_CAPACITY,
    };
    use crate::server::accept_until_shutdown;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Dispatcher double whose queue is permanently full.
    struct AlwaysBusy;
    impl Dispatcher for AlwaysBusy {
        fn dispatch(&self, job: Job) {
            job.respond(&Response::Busy);
        }
    }

    /// Dispatcher double that answers every request inline (everything is
    /// Ok except GETs, which echo their id as a one-byte payload so tests
    /// can match responses to requests).
    struct Inline;
    impl Dispatcher for Inline {
        fn dispatch(&self, job: Job) {
            let response = match &job.request.op {
                Op::Get { id } => Response::GetOk {
                    payload: vec![*id as u8],
                },
                _ => Response::Ok,
            };
            job.respond(&response);
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
        fn dispatch(&self, job: Job) {
            self.dispatched.fetch_add(1, Ordering::SeqCst);
            answer_sized(job);
        }
    }

    /// How [`Sized`] answers a job.
    fn answer_sized(job: Job) {
        let corr = job.request.corr_id;
        let frame = match &job.request.op {
            Op::Get { id } => {
                let mut buf = vec![0xEE; RESPONSE_HEAD_MAX + 8];
                buf.extend_from_slice(&sized_payload(*id));
                Frame::get_ok(buf, RESPONSE_HEAD_MAX + 8, corr)
            }
            _ => Frame::encode(&Response::Ok, corr),
        };
        job.answer(frame);
    }

    /// Dispatcher double that answers as [`Sized`] does, but each request
    /// from a thread of its own after a pause that depends on the request,
    /// so replies to one connection race one another.
    struct Racing;
    impl Dispatcher for Racing {
        fn dispatch(&self, job: Job) {
            let pause = match job.request.op {
                Op::Get { id } => Duration::from_micros(id % 5 * 300),
                _ => Duration::ZERO,
            };
            thread::spawn(move || {
                thread::sleep(pause);
                answer_sized(job);
            });
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
        shutdown: Arc<Shutdown>,
        stats: Arc<LoopStats>,
        accept: Option<thread::JoinHandle<()>>,
        shard: Option<thread::JoinHandle<()>>,
    }

    impl Harness {
        /// Stands up one shard behind a real listener and the server's
        /// acceptor loop: accepted connections go straight to the shard's
        /// mailbox.
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
            let accept_poller = Poller::new().unwrap();
            accept_poller
                .register(&listener, 0, Interest::READ)
                .unwrap();
            let (poller, mailbox) = ShardMailbox::new().unwrap();
            let shutdown = Shutdown::new(
                vec![Arc::clone(&mailbox)],
                Waker::new(&accept_poller, 1).unwrap(),
            );
            let stats = Arc::new(LoopStats::new());
            let ctx = ShardContext {
                dispatcher: Arc::new(dispatcher),
                obs: ServerObserver::shared(),
                stats: Arc::clone(&stats),
                mailbox: Arc::clone(&mailbox),
                shutdown: Arc::clone(&shutdown),
                slow_request_us: 0,
                max_inflight_per_conn: max_inflight,
            };
            let shard = thread::spawn(move || run_shard(poller, ctx));
            let accept = {
                let shutdown = Arc::clone(&shutdown);
                thread::spawn(move || {
                    accept_until_shutdown(&listener, &accept_poller, &shutdown, |stream| {
                        on_accept(&stream);
                        mailbox.adopt(stream);
                    })
                })
            };
            Self {
                addr,
                shutdown,
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
        fn until_responses_out(&self, n: u64) {
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
            self.shutdown.raise();
            if let Some(t) = self.accept.take() {
                let _ = t.join();
            }
            if let Some(t) = self.shard.take() {
                let _ = t.join();
            }
        }
    }

    fn req(corr: Option<u32>, op: Op) -> Vec<u8> {
        Request {
            deadline_ms: 0,
            corr_id: corr,
            trace_id: None,
            op,
        }
        .encode()
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
    fn uncorrelated_pipelined_gets_are_each_answered_once_unflagged_and_whole() {
        let h = Harness::start(Racing, 64);
        let mut c = h.connect();
        // A peer the protocol does not provide for: uncorrelated GETs of
        // distinct objects, written back to back. Each is admitted like any
        // other; its reply's length says which GET it answers.
        let ids: Vec<u64> = (1..=16).map(|i| i * 4099).collect();
        for &id in &ids {
            write_frame(&mut c, &req(None, Op::Get { id })).unwrap();
        }
        let mut owed: std::collections::HashSet<u64> = ids.iter().copied().collect();
        for _ in 0..ids.len() {
            let (corr, resp) = read_response(&mut c);
            assert_eq!(corr, None, "an uncorrelated request's reply is unflagged");
            let Response::GetOk { payload } = resp else {
                panic!("{resp:?}")
            };
            let id = payload.len() as u64;
            assert!(owed.remove(&id), "a reply of {id} bytes twice, or unasked");
            assert!(payload == sized_payload(id), "GET {id}: altered");
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
        assert_eq!(
            read_frame(&mut c).unwrap(),
            None,
            "EOF after the shutdown reply"
        );
        h.stop();
    }

    #[test]
    fn adopted_and_appended_frames_leave_in_order_byte_identical_to_encoded_bodies() {
        let h = Harness::start_with(Sized::default(), 64, shrink_send_buffer);
        let mut c = h.connect();
        // Nothing is queued, so the first reply's buffer becomes the
        // connection's output; 2 MiB against a pinned send buffer and a
        // peer that is not reading leaves most of it unflushed.
        write_frame(&mut c, &req(Some(1), Op::Get { id: 2 << 20 })).unwrap();
        h.until_responses_out(1);
        // These two are appended behind the partially written buffer.
        write_frame(&mut c, &req(Some(2), Op::Get { id: 300 << 10 })).unwrap();
        write_frame(&mut c, &req(Some(3), Op::Get { id: 5 })).unwrap();
        h.until_responses_out(3);

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
        let (mut shard, client) = hand_driven(Sized::default());
        // Runs the loop body until `done`, without the poller: read,
        // attend, flush.
        let turn_until = |shard: &mut ShardState<Sized>, done: &dyn Fn(&WriteState) -> bool| {
            let patience = Instant::now();
            loop {
                shard.handle_readable(0);
                shard.attend_unsettled();
                shard.flush(0);
                let conn = shard.conns[0].as_ref().expect("connection stays open");
                if done(&conn.tx.lock()) {
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
            turn_until(&mut shard, &|out| {
                stats.responses_out.get() == 1 && !out.has_output()
            });
            let inbuf_idle = shard.conns[0].as_ref().unwrap().inbuf.capacity();
            turn_until(&mut shard, &|out| {
                stats.responses_out.get() == 2 && !out.has_output()
            });
            let out_idle = shard.conns[0].as_ref().unwrap().tx.lock().out.capacity();
            (inbuf_idle, out_idle)
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
        fn dispatch(&self, job: Job) {
            self.jobs.lock().unwrap().push(job);
        }
    }

    /// One shard around one connection, to be driven by hand on the test's
    /// thread, and the peer's end of that connection.
    fn hand_driven<D: Dispatcher>(dispatcher: D) -> (ShardState<D>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (served, _) = listener.accept().unwrap();
        let (poller, mailbox) = ShardMailbox::new().unwrap();
        mailbox.adopt(served);
        // There is no acceptor: its waker wakes a poller nobody waits on.
        let no_acceptor = Waker::new(&Poller::new().unwrap(), 0).unwrap();
        let mut shard = ShardState {
            poller,
            ctx: ShardContext {
                dispatcher: Arc::new(dispatcher),
                obs: ServerObserver::shared(),
                stats: Arc::new(LoopStats::new()),
                shutdown: Shutdown::new(vec![Arc::clone(&mailbox)], no_acceptor),
                mailbox,
                slow_request_us: 0,
                max_inflight_per_conn: 8,
            },
            conns: Vec::new(),
            free: Vec::new(),
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
            shard.handle_readable(0);
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
            shard.conns[0]
                .as_ref()
                .expect("stays open")
                .inbuf
                .buffered()
                == 14
        });
        // A few more readiness events change nothing.
        for _ in 0..3 {
            shard.handle_readable(0);
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
        peer.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        peer.write_all(&[1; 10]).unwrap();
        read_until(&mut shard, |shard| {
            shard.conns[0]
                .as_ref()
                .expect("a request is in flight")
                .peer_gone
        });
        let conn = shard.conns[0].as_ref().unwrap();
        assert_eq!(conn.tx.lock().inflight, 1);
        assert!(
            conn.inbuf.capacity() <= READ_CHUNK,
            "{} bytes reserved on the word of a frame that is refused",
            conn.inbuf.capacity()
        );
        // Nothing more is read from it...
        peer.write_all(&[2; 100]).unwrap();
        thread::sleep(Duration::from_millis(20));
        let before = shard.conns[0].as_ref().unwrap().inbuf.buffered();
        shard.handle_readable(0);
        assert_eq!(shard.conns[0].as_ref().unwrap().inbuf.buffered(), before);
        // ...the request in flight is still answered, and then it is closed.
        let job = jobs.lock().unwrap().pop().expect("the PING was dispatched");
        job.respond(&Response::Ok);
        shard.attend_unsettled();
        assert_eq!(read_response(&mut peer), (Some(1), Response::Ok));
        assert!(shard.conns[0].is_none(), "torn down");
    }

    /// A hand-driven shard whose one connection has `pings` requests
    /// parked, up to the moment the peer has reset the connection: the
    /// first reply had siblings in flight, so it waited for the shard, which
    /// wrote it; the peer hung up without reading it. Returns the shard and
    /// what answers the next parked request.
    fn reset_with_requests_in_flight(pings: u32) -> (ShardState<Parked>, impl Fn()) {
        let dispatcher = Parked::default();
        let jobs = Arc::clone(&dispatcher.jobs);
        let (mut shard, mut peer) = hand_driven(dispatcher);
        for corr in 0..pings {
            write_frame(&mut peer, &req(Some(corr), Op::Ping)).unwrap();
        }
        read_until(&mut shard, |_| jobs.lock().unwrap().len() == pings as usize);
        let answer = move || {
            let job = jobs.lock().unwrap().pop().expect("a request is parked");
            job.respond(&Response::Ok);
        };
        answer();
        shard.attend_unsettled();
        drop(peer);
        let served = &shard.conns[0]
            .as_ref()
            .expect("requests are in flight")
            .tx
            .stream;
        let patience = Instant::now();
        while matches!(served.peek(&mut [0]), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
        {
            assert!(
                patience.elapsed() < Duration::from_secs(10),
                "the reset never arrived"
            );
            thread::sleep(Duration::from_millis(1));
        }
        (shard, answer)
    }

    #[test]
    fn a_senders_failed_write_tears_the_connection_down_and_frees_its_slot() {
        let (mut shard, answer) = reset_with_requests_in_flight(2);
        // The last reply has the connection to itself: its sender's own
        // write fails, and it asks for the shard.
        answer();
        assert!(shard.conns[0].as_ref().unwrap().tx.lock().broken);
        assert_eq!(shard.ctx.stats.connections.get(), 1);
        shard.attend_unsettled();
        assert!(shard.conns[0].is_none(), "torn down");
        assert_eq!(shard.ctx.stats.connections.get(), 0);
        assert_eq!(shard.ctx.stats.inflight.get(), 0);

        // The slot serves the next connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _next = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        shard.ctx.mailbox.adopt(listener.accept().unwrap().0);
        shard.adopt_new();
        assert!(
            shard.conns[0].is_some() && shard.conns.len() == 1,
            "slot 0 reused"
        );
    }

    #[test]
    fn replies_to_a_broken_connection_are_dropped_and_still_counted_out() {
        let (mut shard, answer) = reset_with_requests_in_flight(3);
        // The second reply still has a sibling in flight, so the failed
        // write is the shard's; the connection waits for that sibling...
        answer();
        shard.attend_unsettled();
        let conn = shard.conns[0]
            .as_ref()
            .expect("a request is still in flight");
        assert!(conn.peer_gone && conn.tx.lock().broken);
        // ...whose reply goes nowhere, and brings the shard back.
        let before = shard.ctx.stats.responses_out.get();
        answer();
        assert_eq!(
            shard.ctx.stats.responses_out.get(),
            before,
            "nothing was sent"
        );
        shard.attend_unsettled();
        assert!(shard.conns[0].is_none(), "torn down");
        assert_eq!(
            shard.ctx.stats.inflight.get(),
            0,
            "every sibling was counted out"
        );
    }

    #[test]
    fn a_reply_to_a_connection_already_closed_is_dropped() {
        let dispatcher = Parked::default();
        let jobs = Arc::clone(&dispatcher.jobs);
        let (mut shard, mut peer) = hand_driven(dispatcher);
        write_frame(&mut peer, &req(Some(1), Op::Ping)).unwrap();
        read_until(&mut shard, |_| jobs.lock().unwrap().len() == 1);
        // What a drain past its force-close deadline does.
        shard.teardown(0);
        let job = jobs.lock().unwrap().pop().unwrap();
        job.respond(&Response::Ok);
        assert_eq!(shard.ctx.stats.inflight.get(), 0);
        assert_eq!(shard.ctx.stats.responses_out.get(), 0, "nothing was sent");
        assert!(
            shard.ctx.mailbox.unsettled.lock().unwrap().is_empty(),
            "nor the shard asked for"
        );
        assert_eq!(
            read_frame(&mut peer).unwrap(),
            None,
            "the peer saw the close, and only that"
        );
    }

    #[test]
    fn a_drain_is_woken_by_the_last_reply_not_by_the_poll_timeout() {
        let dispatcher = Parked::default();
        let jobs = Arc::clone(&dispatcher.jobs);
        let h = Harness::start(dispatcher, 64);
        let mut c = h.connect();
        for corr in 0..64 {
            write_frame(&mut c, &req(Some(corr), Op::Get { id: 1 })).unwrap();
        }
        let patience = Instant::now();
        while jobs.lock().unwrap().len() < 64 {
            assert!(
                patience.elapsed() < Duration::from_secs(10),
                "64 GETs never dispatched"
            );
            thread::sleep(Duration::from_millis(1));
        }
        // The drain begins with 64 requests in flight. All but one are
        // answered — from another thread — and the shard, having written
        // them, goes back to sleep on the last...
        h.shutdown.raise();
        let answer = |job: Job| {
            job.respond(&Response::GetOk {
                payload: vec![7; 4096],
            })
        };
        let last = jobs.lock().unwrap().pop().expect("64 are parked");
        jobs.lock().unwrap().drain(..).for_each(answer);
        for _ in 0..63 {
            assert!(matches!(read_response(&mut c).1, Response::GetOk { .. }));
        }
        thread::sleep(Duration::from_millis(50));
        // ...whose reply has the connection to itself, so its sender writes
        // it — and must still bring the shard back.
        let answered = Instant::now();
        answer(last);
        assert!(matches!(read_response(&mut c).1, Response::GetOk { .. }));
        assert_eq!(read_frame(&mut c).unwrap(), None, "drained, then closed");
        h.stop();
        // The shard's one timed wait is the force-close deadline.
        assert!(
            answered.elapsed() < DRAIN_FORCE_CLOSE / 10,
            "the drain took {:?}: it waited for the force-close deadline",
            answered.elapsed()
        );
    }

    #[test]
    fn a_peer_that_hung_up_does_not_keep_waking_the_shard_while_it_is_owed_a_reply() {
        let dispatcher = Parked::default();
        let jobs = Arc::clone(&dispatcher.jobs);
        let h = Harness::start(dispatcher, 8);
        let mut c = h.connect();
        write_frame(&mut c, &req(Some(1), Op::Ping)).unwrap();
        drop(c);
        let patience = Instant::now();
        while jobs.lock().unwrap().is_empty() {
            assert!(
                patience.elapsed() < Duration::from_secs(10),
                "the PING never arrived"
            );
            thread::sleep(Duration::from_millis(1));
        }
        // The hang-up stays readable for as long as the socket is open, and
        // the socket stays open for as long as the request is in flight:
        // the shard must be asleep through that, not polling it. It has no
        // timeout either, so once it has seen the hang-up nothing wakes it.
        thread::sleep(Duration::from_millis(20));
        let before = h.stats.wakeups.get();
        thread::sleep(Duration::from_millis(100));
        let woken = h.stats.wakeups.get() - before;
        assert!(woken <= 1, "{woken} wake-ups in 100 ms with nothing to do");
        // The reply is still what closes it.
        assert_eq!(h.stats.connections.get(), 1);
        let job = jobs.lock().unwrap().pop().unwrap();
        job.respond(&Response::Ok);
        while h.stats.connections.get() != 0 {
            assert!(
                patience.elapsed() < Duration::from_secs(10),
                "never torn down"
            );
            thread::sleep(Duration::from_millis(1));
        }
        h.stop();
    }
}
