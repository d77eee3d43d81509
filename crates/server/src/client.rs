//! The blocking client for the archival block service.
//!
//! A [`Client`] owns one TCP connection and makes one request at a time:
//! each typed method sends its request with a fresh correlation id, waits
//! for the reply and checks that it echoes that id. Error statuses come
//! back as typed [`ClientError`] variants so callers can distinguish
//! backpressure ([`ClientError::Busy`] — back off and retry) from real
//! failures. Pipelined traffic (many requests in flight on a connection)
//! is the load generator's, which frames its own requests
//! ([`crate::load::run_load`]).
//!
//! A request leaves in one write — on a `TCP_NODELAY` socket two writes
//! are two segments and two server wake-ups — and a PUT's payload leaves
//! from where the caller holds it: the length prefix, header and name are
//! built in a small buffer and the payload slice goes out behind them in
//! the same vectored write ([`Client::put`] copies nothing). A reply is
//! decoded as it is read (`read_response`): header fields come out of a
//! small read-ahead buffer, and a GET's payload goes from the socket into
//! the `Vec` that [`Client::get`] returns — allocated once at its final
//! size, never zero-filled, never copied again.

use crate::error::ClientError;
use crate::protocol::{next_corr, put_frame_head, read_response, Op, Request, Response, StatMeta};
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to one server.
pub struct Client {
    /// Replies are read through the buffer (a frame header costs no
    /// syscall of its own; reads larger than the buffer bypass it);
    /// requests are written to the socket inside.
    stream: BufReader<TcpStream>,
    /// Deadline stamped on every request (milliseconds; 0 = none).
    deadline_ms: u32,
    /// Trace id stamped on every request (`None` = untraced).
    trace_id: Option<u64>,
    /// Correlation id of the next request (never 0, see
    /// [`next_corr`](crate::protocol::next_corr)).
    next_corr: u32,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
            deadline_ms: 0,
            trace_id: None,
            next_corr: 1,
        })
    }

    /// Sets the per-request deadline stamped on subsequent requests
    /// (0 clears it).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Sets the trace id stamped on subsequent requests (`None` clears
    /// it). Retries of the same logical operation should keep the same
    /// id so their spans land in one trace.
    pub fn set_trace_id(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// Sends one request and waits for its response.
    pub fn roundtrip(&mut self, op: Op) -> Result<Response, ClientError> {
        let corr = self.send(op)?;
        self.receive(corr)
    }

    /// Stores `payload` under `name`, returning the assigned object id.
    pub fn put(&mut self, name: &str, payload: &[u8]) -> Result<u64, ClientError> {
        let corr = self.send_put(name, payload)?;
        match self.receive(corr)? {
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

    /// Sends one request, returning the correlation id its response must
    /// carry. A PUT whose name is over [`MAX_NAME`](crate::protocol::MAX_NAME)
    /// bytes, or whose frame would be over
    /// [`MAX_FRAME`](crate::protocol::MAX_FRAME), is refused by the
    /// protocol's frame check before anything is written, as
    /// [`ClientError::Io`] of kind `InvalidInput` (the name's length would
    /// not fit the wire's `u16`, or would ship the whole payload only for
    /// the server to refuse it).
    fn send(&mut self, op: Op) -> Result<u32, ClientError> {
        if let Op::Put { name, payload } = &op {
            return self.send_put(name, payload);
        }
        let corr = self.take_corr();
        let req = Request {
            deadline_ms: self.deadline_ms,
            corr_id: Some(corr),
            trace_id: self.trace_id,
            op,
        };
        write_request(self.stream.get_mut(), &req)?;
        Ok(corr)
    }

    /// [`Client::send`] of a PUT whose name and payload the caller only
    /// lends: the same checks, the same bytes on the wire.
    fn send_put(&mut self, name: &str, payload: &[u8]) -> Result<u32, ClientError> {
        let corr = self.take_corr();
        let (deadline_ms, trace_id) = (self.deadline_ms, self.trace_id);
        let head = put_frame_head(deadline_ms, Some(corr), trace_id, name, payload.len())?;
        write_parts(self.stream.get_mut(), &head, payload)?;
        Ok(corr)
    }

    /// Assigns the next correlation id.
    fn take_corr(&mut self) -> u32 {
        let corr = self.next_corr;
        self.next_corr = next_corr(corr);
        corr
    }

    /// Reads the next response, which must be the one to request `want`.
    ///
    /// A server that cannot decode a frame has no id to echo and answers
    /// it with corr 0; that reply comes back as the typed error it is
    /// (`BadRequest`), not as a response.
    fn receive(&mut self, want: u32) -> Result<Response, ClientError> {
        let reply = read_response::<ClientError>(&mut self.stream)?;
        let (corr, resp) = reply.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection with a request in flight",
            ))
        })?;
        match corr {
            Some(corr) if corr == want => Ok(resp),
            Some(corr) => Err(ClientError::Unexpected(format!(
                "response corr {corr} does not match request corr {want}"
            ))),
            None => Err(error_from(resp, "uncorrelated reply to a request")),
        }
    }
}

/// Sends `req` as one frame in one write (short writes aside). PUTs do not
/// come this way: [`Client::send_put`] sends theirs without building the
/// frame around a copy of the payload.
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
    use crate::protocol::{read_frame, write_frame, MAX_FRAME, MAX_NAME};
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
        // `put` lends the payload; `roundtrip` hands over an owned op.
        let huge = vec![0u8; MAX_FRAME];
        let name = "x".repeat(MAX_NAME + 1);
        for owned in [false, true] {
            let mut put = |name: &str, payload: &[u8]| match owned {
                false => client.put(name, payload).map(drop),
                true => {
                    let op = Op::Put {
                        name: name.into(),
                        payload: payload.to_vec(),
                    };
                    client.roundtrip(op).map(drop)
                }
            };
            for (name, payload) in [("big", &huge[..]), (&name[..], b"payload")] {
                match put(name, payload) {
                    Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
                    other => panic!("expected InvalidInput, got {other:?}"),
                }
            }
        }
        // The connection is still in step: a PING goes out, and it is the
        // first thing the peer sees.
        client.send(Op::Ping).unwrap();
        let frame = read_frame(&mut served).unwrap().expect("a frame");
        assert_eq!(Request::decode(&frame).unwrap().op, Op::Ping);
    }

    /// Connects a client to a one-connection peer that answers every
    /// request frame with what `answer` makes of the request's corr id.
    fn stub_peer(
        answer: impl Fn(Option<u32>) -> Vec<u8> + Send + 'static,
    ) -> (Client, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let peer = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            while let Ok(Some(frame)) = read_frame(&mut s) {
                let corr = Request::decode(&frame).unwrap().corr_id;
                write_frame(&mut s, &answer(corr)).unwrap();
            }
        });
        (client, peer)
    }

    #[test]
    fn flagless_error_reply_comes_back_typed_and_settles_the_request() {
        // A peer that answers every frame the way the server answers one
        // it cannot decode: BAD_REQUEST with no correlation id to echo.
        let reply = Response::BadRequest {
            message: "unknown opcode 66".into(),
        };
        let (mut client, peer) = stub_peer(move |_| reply.encode_corr(None));
        // Each reply settles its request: the second PING reads its own.
        for _ in 0..2 {
            match client.ping() {
                Err(ClientError::BadRequest(m)) => assert_eq!(m, "unknown opcode 66"),
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn a_wrapping_corr_counter_never_sends_0() {
        let (seen, corrs) = std::sync::mpsc::channel();
        let (mut client, peer) = stub_peer(move |corr| {
            seen.send(corr).unwrap();
            Response::Ok.encode_corr(corr)
        });
        client.next_corr = u32::MAX;
        for _ in 0..3 {
            client.ping().unwrap();
        }
        drop(client);
        peer.join().unwrap();
        let sent: Vec<_> = corrs.iter().collect();
        assert_eq!(sent, [Some(u32::MAX), Some(1), Some(2)]);
    }

    #[test]
    fn a_reply_echoing_another_corr_id_is_refused() {
        let (mut client, peer) = stub_peer(|corr| {
            let corr = corr.expect("every request is correlated");
            Response::Ok.encode_corr(Some(corr + 1))
        });
        match client.ping() {
            Err(ClientError::Unexpected(m)) => {
                assert_eq!(m, "response corr 2 does not match request corr 1")
            }
            other => panic!("expected Unexpected, got {other:?}"),
        }
        drop(client);
        peer.join().unwrap();
    }
}
