//! Blocking clients for the archival block service.
//!
//! A [`PipelinedClient`] is the primitive: one TCP connection on which
//! every request carries a correlation id, so several can be in flight and
//! responses are matched back as they arrive, in any order
//! ([`PipelinedClient::submit`] / [`PipelinedClient::recv`]). A [`Client`]
//! is the blocking call on top of it: submit one request, wait for its
//! response, with typed methods per operation. Error statuses come back
//! as typed [`ClientError`] variants so callers can distinguish
//! backpressure ([`ClientError::Busy`] — back off and retry) from real
//! failures.
//!
//! A request leaves in one write — on a `TCP_NODELAY` socket two writes
//! are two segments and two server wake-ups — and a PUT's payload leaves
//! from where the caller holds it: the length prefix, header and name are
//! built in a small buffer and the payload slice goes out behind them in
//! the same vectored write ([`Client::put`] copies nothing, and
//! [`PipelinedClient::submit`] sends an [`Op::Put`]'s payload from inside
//! the op). A reply is decoded as it is read
//! (`read_response`): header fields come out of a small read-ahead
//! buffer, and a GET's payload goes from the socket into the `Vec` that
//! [`Client::get`] returns — allocated once at its final size, never
//! zero-filled, never copied again.

use crate::error::ClientError;
use crate::protocol::{put_frame_head, read_response, Op, Request, Response, StatMeta, MAX_NAME};
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to one server: one request at a time over a
/// [`PipelinedClient`].
pub struct Client {
    inner: PipelinedClient,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Ok(Self {
            inner: PipelinedClient::connect(addr)?,
        })
    }

    /// Sets the per-request deadline stamped on subsequent requests
    /// (0 clears it).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.inner.set_deadline_ms(deadline_ms);
    }

    /// Sets the trace id stamped on subsequent requests (`None` clears
    /// it). Retries of the same logical operation should keep the same
    /// id so their spans land in one trace.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.inner.set_trace_id(trace_id);
    }

    /// Sends one request and waits for its response.
    pub fn roundtrip(&mut self, op: Op) -> Result<Response, ClientError> {
        self.inner.roundtrip(op)
    }

    /// Stores `payload` under `name`, returning the assigned object id.
    pub fn put(&mut self, name: &str, payload: &[u8]) -> Result<u64, ClientError> {
        let want = self.inner.submit_put(name, payload)?;
        match self.inner.wait(want)? {
            Response::PutOk { id } => Ok(id),
            other => Err(error_from(other, "PUT")),
        }
    }

    /// Retrieves an object (transparently degraded under device failures).
    pub fn get(&mut self, id: u64) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip(Op::Get { id })? {
            Response::GetOk { payload } => Ok(payload),
            other => Err(error_from(other, "GET")),
        }
    }

    /// Deletes an object.
    pub fn delete(&mut self, id: u64) -> Result<(), ClientError> {
        match self.roundtrip(Op::Delete { id })? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, "DELETE")),
        }
    }

    /// Fetches object metadata.
    pub fn stat(&mut self, id: u64) -> Result<StatMeta, ClientError> {
        match self.roundtrip(Op::Stat { id })? {
            Response::StatOk { meta } => Ok(meta),
            other => Err(error_from(other, "STAT")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(Op::Ping)? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, "PING")),
        }
    }

    /// Admin: fails a device (its contents are destroyed).
    pub fn fail_device(&mut self, device: u32) -> Result<(), ClientError> {
        match self.roundtrip(Op::FailDevice { device })? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, "FAIL_DEVICE")),
        }
    }

    /// Admin: replaces a failed device with an empty one.
    pub fn revive_device(&mut self, device: u32) -> Result<(), ClientError> {
        match self.roundtrip(Op::ReviveDevice { device })? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, "REVIVE_DEVICE")),
        }
    }

    /// Admin: fetches the server's `tornado-metrics-v1` snapshot as JSON.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::Metrics)? {
            Response::MetricsOk { json } => Ok(json),
            other => Err(error_from(other, "METRICS")),
        }
    }

    /// Admin: fetches the server's `tornado-health-v1` durability
    /// document (live P(loss), risk margins, SLO burn rates) as JSON.
    pub fn health(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::Health)? {
            Response::HealthOk { json } => Ok(json),
            other => Err(error_from(other, "HEALTH")),
        }
    }

    /// Admin: exports the server's retained trace spans as Chrome
    /// trace-event JSON (loadable in Perfetto).
    pub fn trace_export(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(Op::TraceExport)? {
            Response::TraceOk { json } => Ok(json),
            other => Err(error_from(other, "TRACE_EXPORT")),
        }
    }

    /// Admin: asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(Op::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(error_from(other, "SHUTDOWN")),
        }
    }
}

/// A pipelined connection: issue up to many requests before reading any
/// response, then match completions by correlation id.
pub struct PipelinedClient {
    /// Replies are read through the buffer (a frame header costs no
    /// syscall of its own; reads larger than the buffer bypass it);
    /// requests are written to the socket inside.
    stream: BufReader<TcpStream>,
    /// Deadline stamped on every request (milliseconds; 0 = none).
    deadline_ms: u32,
    /// Trace id stamped on every request (`None` = untraced).
    trace_id: Option<u64>,
    /// Next correlation id to assign (wraps; in-flight windows are far
    /// smaller than 2³²).
    next_corr: u32,
    /// Requests submitted and not yet received.
    inflight: usize,
}

impl PipelinedClient {
    fn over(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
            deadline_ms: 0,
            trace_id: None,
            next_corr: 0,
            inflight: 0,
        })
    }

    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Sets the per-request deadline stamped on subsequent requests
    /// (0 clears it).
    pub(crate) fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Sets the trace id stamped on subsequent requests.
    pub(crate) fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// Requests submitted and not yet matched to a response.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Sends one request without waiting, returning the correlation id its
    /// response will carry. A PUT name over [`MAX_NAME`] bytes is refused
    /// with [`ClientError::BadRequest`] before anything is written (its
    /// length would not fit the wire's `u16`, or would ship the whole
    /// payload only for the server to refuse it).
    pub fn submit(&mut self, op: Op) -> Result<u32, ClientError> {
        if let Op::Put { name, payload } = &op {
            return self.submit_put(name, payload);
        }
        let corr = self.take_corr();
        let req = Request {
            deadline_ms: self.deadline_ms,
            corr_id: Some(corr),
            trace_id: self.trace_id,
            op,
        };
        write_request(self.stream.get_mut(), &req)?;
        self.inflight += 1;
        Ok(corr)
    }

    /// [`PipelinedClient::submit`] of a PUT whose name and payload the
    /// caller only lends: the same checks, the same bytes on the wire.
    pub(crate) fn submit_put(&mut self, name: &str, payload: &[u8]) -> Result<u32, ClientError> {
        if name.len() > MAX_NAME {
            return Err(ClientError::BadRequest(format!(
                "name length {} exceeds {MAX_NAME}",
                name.len()
            )));
        }
        let corr = self.take_corr();
        let (deadline_ms, trace_id) = (self.deadline_ms, self.trace_id);
        let head = put_frame_head(deadline_ms, Some(corr), trace_id, name, payload.len())?;
        write_parts(self.stream.get_mut(), &head, payload)?;
        self.inflight += 1;
        Ok(corr)
    }

    /// Assigns the next correlation id.
    fn take_corr(&mut self) -> u32 {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        corr
    }

    /// Reads the next response frame — whichever in-flight request
    /// finished first — as `(correlation id, response)`.
    ///
    /// A server that cannot decode a frame has no id to echo and answers
    /// it unflagged; that reply settles one in-flight request and comes
    /// back as the typed error it is (`BadRequest`), not as a response.
    pub fn recv(&mut self) -> Result<(u32, Response), ClientError> {
        let reply = read_response::<ClientError>(&mut self.stream)?;
        let (corr, resp) = reply.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection with requests in flight",
            ))
        })?;
        self.inflight = self.inflight.saturating_sub(1);
        match corr {
            Some(corr) => Ok((corr, resp)),
            None => Err(error_from(
                resp,
                "uncorrelated reply to a pipelined request",
            )),
        }
    }

    /// Sends one request and waits for its specific response (correlation
    /// ids still matched, so stray completions from earlier fire-and-forget
    /// submits are surfaced as errors rather than misattributed).
    pub(crate) fn roundtrip(&mut self, op: Op) -> Result<Response, ClientError> {
        let want = self.submit(op)?;
        self.wait(want)
    }

    /// Reads the next response, which must be the one to request `want`.
    fn wait(&mut self, want: u32) -> Result<Response, ClientError> {
        let (corr, resp) = self.recv()?;
        if corr != want {
            return Err(ClientError::Unexpected(format!(
                "response corr {corr} does not match request corr {want} \
                 (interleaved with unread completions?)"
            )));
        }
        Ok(resp)
    }
}

/// Sends `req` as one frame in one write (short writes aside). PUTs do not
/// come this way: [`PipelinedClient::submit_put`] sends theirs without
/// building the frame around a copy of the payload.
fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_parts(w, &req.encode_frame()?, &[])
}

/// The one request writer: `head` then `payload` in one vectored write,
/// repeated from where a short write stopped until both are out.
fn write_parts(w: &mut impl Write, mut head: &[u8], mut payload: &[u8]) -> io::Result<()> {
    while !(head.is_empty() && payload.is_empty()) {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(payload)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                payload = &payload[n - of_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Maps an error-status response onto a typed [`ClientError`].
fn error_from(resp: Response, op: &str) -> ClientError {
    match resp {
        Response::Busy => ClientError::Busy,
        Response::NotFound { id } => ClientError::NotFound(id),
        Response::Unrecoverable { id, lost_blocks } => {
            ClientError::Unrecoverable { id, lost_blocks }
        }
        Response::BadRequest { message } => ClientError::BadRequest(message),
        Response::DeadlineExceeded => ClientError::DeadlineExceeded,
        Response::ShuttingDown => ClientError::ShuttingDown,
        Response::ServerError { message } => ClientError::Server(message),
        ok => ClientError::Unexpected(format!("{op} answered {}", ok.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn one_request_is_one_write() {
        /// Records the size of every `write` it is handed.
        struct Recorder(Vec<usize>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for op in [
            Op::Get { id: 7 },
            Op::Put {
                name: "n".into(),
                payload: vec![3; 64 << 10],
            },
        ] {
            let req = Request {
                deadline_ms: 0,
                corr_id: Some(1),
                trace_id: None,
                op,
            };
            let mut wire = Recorder(Vec::new());
            write_request(&mut wire, &req).unwrap();
            assert_eq!(
                wire.0,
                [4 + req.encode().len()],
                "prefix and body leave together"
            );
        }
    }

    /// Takes at most `per_call` bytes per call and counts the calls of
    /// each kind.
    struct Trickle {
        per_call: usize,
        wire: Vec<u8>,
        writes: usize,
        vectored: usize,
    }

    impl Trickle {
        fn new(per_call: usize) -> Self {
            Self {
                per_call,
                wire: Vec::new(),
                writes: 0,
                vectored: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.per_call);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = buf.len().min(room);
                self.wire.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_put_is_one_vectored_write() {
        let payload: Vec<u8> = (0..64usize << 10).map(|i| (i * 7 % 251) as u8).collect();
        let req = Request {
            deadline_ms: 9,
            corr_id: Some(3),
            trace_id: Some(5),
            op: Op::Put {
                name: "archive/tape-01".into(),
                payload: payload.clone(),
            },
        };
        // The bytes the parent put on the wire: the body behind its length.
        let mut expect = (req.encode().len() as u32).to_le_bytes().to_vec();
        expect.extend_from_slice(&req.encode());

        // What `submit_put` — `Client::put` and `submit(Op::Put)` alike —
        // hands the writer: a head that announces the payload, and the
        // payload where the caller holds it.
        let head = put_frame_head(9, Some(3), Some(5), "archive/tape-01", payload.len()).unwrap();
        assert!(head.len() < 64, "no payload byte was copied to build it");
        for per_call in [usize::MAX, 4096, 7, 1] {
            let mut sent = Trickle::new(per_call);
            write_parts(&mut sent, &head, &payload).unwrap();
            assert!(sent.wire == expect, "{per_call} bytes per call");
            assert_eq!(sent.writes, 0, "only ever vectored");
            assert_eq!(sent.vectored, expect.len().div_ceil(per_call));
        }
    }

    #[test]
    fn an_oversized_put_and_an_overlong_name_are_refused_with_nothing_written() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();

        // A name plus a payload of exactly MAX_FRAME cannot fit the frame.
        let huge = vec![0u8; crate::protocol::MAX_FRAME];
        let name = "x".repeat(MAX_NAME + 1);
        for pipelined in [false, true] {
            let too_big = match pipelined {
                false => client.put("big", &huge).map(drop),
                true => {
                    let op = Op::Put {
                        name: "big".into(),
                        payload: huge.clone(),
                    };
                    client.inner.submit(op).map(drop)
                }
            };
            match too_big {
                Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
            let too_long = match pipelined {
                false => client.put(&name, b"payload").map(drop),
                true => {
                    let op = Op::Put {
                        name: name.clone(),
                        payload: b"payload".to_vec(),
                    };
                    client.inner.submit(op).map(drop)
                }
            };
            match too_long {
                Err(ClientError::BadRequest(m)) => {
                    assert_eq!(
                        m,
                        format!("name length {} exceeds {MAX_NAME}", MAX_NAME + 1)
                    )
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        assert_eq!(client.inner.inflight(), 0);
        // The connection is still in step: a PING goes out, and it is the
        // first thing the peer sees.
        client.inner.submit(Op::Ping).unwrap();
        let frame = read_frame(&mut served).unwrap().expect("a frame");
        assert_eq!(Request::decode(&frame).unwrap().op, Op::Ping);
    }

    #[test]
    fn flagless_error_reply_comes_back_typed_and_settles_the_request() {
        // A peer that answers every frame the way the server answers one
        // it cannot decode: BAD_REQUEST with no correlation id to echo.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reply = Response::BadRequest {
            message: "unknown opcode 66".into(),
        };
        let peer = thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                while let Ok(Some(_)) = read_frame(&mut s) {
                    write_frame(&mut s, &reply.encode_corr(None)).unwrap();
                }
            }
        });

        let mut pipelined = PipelinedClient::connect(addr).unwrap();
        pipelined.submit(Op::Ping).unwrap();
        match pipelined.recv() {
            Err(ClientError::BadRequest(m)) => assert_eq!(m, "unknown opcode 66"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(pipelined.inflight(), 0, "the reply settled the request");
        drop(pipelined);

        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(client.ping(), Err(ClientError::BadRequest(_))));
        drop(client);
        peer.join().unwrap();
    }
}
