//! Wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | body: len bytes     |
//! +----------------+---------------------+
//! ```
//!
//! A request body is a fixed 17-byte header followed by op-specific
//! fields, all integers little-endian:
//!
//! ```text
//! byte 0       opcode
//! bytes 1..5   deadline_ms: u32 (0 = no deadline)
//! bytes 5..9   corr_id: u32     (0 = absent)
//! bytes 9..17  trace_id: u64    (0 = absent)
//! bytes 17..   op fields
//! ```
//!
//! The correlation id is the pipelining handle: a client may issue further
//! requests on the same connection before reading responses, and the
//! server may answer them out of order — each response echoes the id, so
//! the client matches it to its request. A client that leaves it 0 gets
//! its replies in request order only while it waits for each. A trace id
//! of 0 means the client sent none (the server then assigns its own for
//! sampled spans), as an all-zero trace-id is invalid in W3C Trace
//! Context. [`Request`] carries both as `Option`s; `None` travels as 0.
//!
//! | opcode | op            | fields                                   |
//! |--------|---------------|------------------------------------------|
//! | 1      | PUT           | name_len: u16, name, payload (rest)      |
//! | 2      | GET           | id: u64                                  |
//! | 3      | DELETE        | id: u64                                  |
//! | 4      | STAT          | id: u64                                  |
//! | 5      | PING          | —                                        |
//! | 6      | FAIL_DEVICE   | device: u32                              |
//! | 7      | REVIVE_DEVICE | device: u32                              |
//! | 8      | METRICS       | —                                        |
//! | 9      | SHUTDOWN      | —                                        |
//! | 10     | TRACE_EXPORT  | —                                        |
//! | 11     | HEALTH        | —                                        |
//!
//! A response body starts with a fixed 5-byte head — the status byte, then
//! the echoed `corr_id: u32` (0 for a frame the server could not decode,
//! whose id it cannot know). Successful statuses are op-shaped so
//! responses decode without request context:
//!
//! | status | meaning            | fields                                |
//! |--------|--------------------|---------------------------------------|
//! | 0      | OK (empty)         | —                                     |
//! | 1      | OK PUT             | id: u64                               |
//! | 2      | OK GET             | payload (rest)                        |
//! | 3      | OK STAT            | id u64, size u64, block_len u64, rotation u32, name_len u16, name |
//! | 4      | OK METRICS         | JSON snapshot, UTF-8 (rest)           |
//! | 5      | OK TRACE           | Chrome trace JSON, UTF-8 (rest)       |
//! | 6      | OK HEALTH          | `tornado-health-v1` JSON, UTF-8 (rest)|
//! | 16     | BUSY               | — (queue full: back off and retry)    |
//! | 17     | NOT_FOUND          | id: u64                               |
//! | 18     | UNRECOVERABLE      | id: u64, lost_blocks: u32             |
//! | 19     | BAD_REQUEST        | message (rest, UTF-8)                 |
//! | 20     | DEADLINE_EXCEEDED  | —                                     |
//! | 21     | SHUTTING_DOWN      | —                                     |
//! | 22     | SERVER_ERROR       | message (rest, UTF-8)                 |

use std::io::{self, Read};

/// Hard cap on one frame body; larger length prefixes are rejected before
/// allocation (a corrupt or hostile peer cannot balloon memory).
pub const MAX_FRAME: usize = 16 << 20;

/// Longest PUT object name, bytes. Checked by the client before anything
/// is written and by the server's decoder; it also keeps the `u16` name
/// length on the wire from wrapping.
pub const MAX_NAME: usize = 4096;

/// One decoded request: a deadline plus the operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Milliseconds the client allows for this request, measured from
    /// server acceptance; 0 means no deadline.
    pub deadline_ms: u32,
    /// Pipelining correlation id; `None` (0 on the wire) leaves replies
    /// nothing to be matched by but their order.
    pub corr_id: Option<u32>,
    /// Client-assigned distributed-trace id; `None` (0 on the wire) lets
    /// the server assign its own for sampled spans.
    pub trace_id: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// Protocol operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Store an object.
    Put {
        /// User-visible object name.
        name: String,
        /// Object payload.
        payload: Vec<u8>,
    },
    /// Retrieve an object (transparently degraded when devices are down).
    Get {
        /// Object id.
        id: u64,
    },
    /// Delete an object.
    Delete {
        /// Object id.
        id: u64,
    },
    /// Fetch object metadata.
    Stat {
        /// Object id.
        id: u64,
    },
    /// Liveness probe.
    Ping,
    /// Admin: fail a device (contents destroyed).
    FailDevice {
        /// Device index.
        device: u32,
    },
    /// Admin: replace a failed device with an empty one.
    ReviveDevice {
        /// Device index.
        device: u32,
    },
    /// Admin: snapshot the server metrics as JSON.
    Metrics,
    /// Admin: gracefully shut the server down (drains in-flight work).
    Shutdown,
    /// Admin: export retained trace spans as Chrome trace-event JSON.
    TraceExport,
    /// Durability observatory: the live `tornado-health-v1` document
    /// (conditional P(loss), risk margins, SLO burn rates).
    Health,
}

impl Op {
    /// Short label for metrics/event dimensions.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Op::Put { .. } => "put",
            Op::Get { .. } => "get",
            Op::Delete { .. } => "delete",
            Op::Stat { .. } => "stat",
            Op::Ping => "ping",
            Op::FailDevice { .. } => "fail_device",
            Op::ReviveDevice { .. } => "revive_device",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::TraceExport => "trace_export",
            Op::Health => "health",
        }
    }
}

/// Object metadata returned by STAT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatMeta {
    /// Object id.
    pub id: u64,
    /// Object name.
    pub name: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Per-block size after framing/padding.
    pub block_len: u64,
    /// Device rotation offset.
    pub rotation: u32,
}

/// One decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (DELETE, PING, admin ops).
    Ok,
    /// Successful PUT.
    PutOk {
        /// Assigned object id.
        id: u64,
    },
    /// Successful GET.
    GetOk {
        /// The object payload.
        payload: Vec<u8>,
    },
    /// Successful STAT.
    StatOk {
        /// Object metadata.
        meta: StatMeta,
    },
    /// Successful METRICS.
    MetricsOk {
        /// Pretty-printed `tornado-metrics-v1` JSON.
        json: String,
    },
    /// Successful TRACE_EXPORT.
    TraceOk {
        /// Pretty-printed Chrome trace-event JSON.
        json: String,
    },
    /// Successful HEALTH.
    HealthOk {
        /// Pretty-printed `tornado-health-v1` JSON.
        json: String,
    },
    /// The bounded request queue is full — explicit backpressure; the
    /// client should back off and retry.
    Busy,
    /// No such object.
    NotFound {
        /// The requested id.
        id: u64,
    },
    /// Too many blocks lost: the decoder cannot reconstruct the object.
    Unrecoverable {
        /// The requested id.
        id: u64,
        /// Number of data blocks lost for good.
        lost_blocks: u32,
    },
    /// The request was malformed or referenced an invalid resource.
    BadRequest {
        /// Human-readable reason.
        message: String,
    },
    /// The per-request deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining for shutdown; no new work is accepted.
    ShuttingDown,
    /// Internal failure executing the request.
    ServerError {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Short label for metrics/event dimensions.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Ok
            | Response::PutOk { .. }
            | Response::GetOk { .. }
            | Response::StatOk { .. }
            | Response::MetricsOk { .. }
            | Response::TraceOk { .. }
            | Response::HealthOk { .. } => "ok",
            Response::Busy => "busy",
            Response::NotFound { .. } => "not_found",
            Response::Unrecoverable { .. } => "unrecoverable",
            Response::BadRequest { .. } => "bad_request",
            Response::DeadlineExceeded => "deadline_exceeded",
            Response::ShuttingDown => "shutting_down",
            Response::ServerError { .. } => "server_error",
        }
    }
}

/// Decode-side failure: the frame arrived intact but its body is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

// --- body encoding helpers -------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Sequential little-endian reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn string(&mut self, n: usize, what: &str) -> Result<String, WireError> {
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| WireError(format!("{what} is not UTF-8")))
    }

    fn rest_string(&mut self, what: &str) -> Result<String, WireError> {
        self.string(self.buf.len() - self.pos, what)
    }

    fn finish(&self, what: &str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Request {
    /// Serializes the request body (no frame prefix). Panics on a PUT name
    /// over [`MAX_NAME`] bytes, which its `u16` length could not carry.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body_capacity());
        self.write_body(&mut buf);
        buf
    }

    /// Serializes the whole frame — length prefix and body in one buffer.
    /// A PUT name over [`MAX_NAME`] or a body over [`MAX_FRAME`] is refused.
    pub fn encode_frame(&self) -> io::Result<Vec<u8>> {
        if let Op::Put { name, .. } = &self.op {
            check_name(name)?;
        }
        let frame = build_frame(self.body_capacity(), |buf| self.write_body(buf));
        check_frame_len(frame.len() - 4)?;
        Ok(frame)
    }

    /// Header, the widest fixed fields, and the variable part of a PUT.
    fn body_capacity(&self) -> usize {
        let variable = match &self.op {
            Op::Put { name, payload } => 2 + name.len() + payload.len(),
            _ => 0,
        };
        HEADER_LEN + 8 + variable
    }

    /// The one request encoder: appends the body to `buf`.
    fn write_body(&self, buf: &mut Vec<u8>) {
        let opcode: u8 = match &self.op {
            Op::Put { .. } => OPCODE_PUT,
            Op::Get { .. } => 2,
            Op::Delete { .. } => 3,
            Op::Stat { .. } => 4,
            Op::Ping => 5,
            Op::FailDevice { .. } => 6,
            Op::ReviveDevice { .. } => 7,
            Op::Metrics => 8,
            Op::Shutdown => 9,
            Op::TraceExport => 10,
            Op::Health => 11,
        };
        write_header(buf, opcode, self.deadline_ms, self.corr_id, self.trace_id);
        match &self.op {
            Op::Put { name, payload } => {
                put_name(buf, name);
                buf.extend_from_slice(payload);
            }
            Op::Get { id } | Op::Delete { id } | Op::Stat { id } => put_u64(buf, *id),
            Op::FailDevice { device } | Op::ReviveDevice { device } => put_u32(buf, *device),
            Op::Ping | Op::Metrics | Op::Shutdown | Op::TraceExport | Op::Health => {}
        }
    }

    /// Parses a request body: the owning decoder the server runs on the
    /// buffer a frame was read into, over a copy.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        Self::decode_owned(body.to_vec(), 0)
    }

    /// The one request decoder: parses the body `buf[body_start..]`, taking
    /// the buffer (as [`FrameBuffer::take_frame`] returns it) so that a
    /// PUT's payload is that allocation with the front cut off, not a copy.
    pub(crate) fn decode_owned(mut buf: Vec<u8>, body_start: usize) -> Result<Request, WireError> {
        let mut c = Cursor::new(&buf[body_start..]);
        let opcode = c.u8("opcode")?;
        let deadline_ms = c.u32("deadline")?;
        let corr_id = present(c.u32("corr id")?);
        let trace_id = present(c.u64("trace id")?);
        let op = match opcode {
            OPCODE_PUT => {
                let name_len = c.u16("name length")? as usize;
                if name_len > MAX_NAME {
                    return Err(WireError(format!(
                        "name length {name_len} exceeds {MAX_NAME}"
                    )));
                }
                let name = c.string(name_len, "name")?;
                // The payload is the rest of the body.
                let payload_start = body_start + c.pos;
                buf.drain(..payload_start);
                return Ok(Request {
                    deadline_ms,
                    corr_id,
                    trace_id,
                    op: Op::Put { name, payload: buf },
                });
            }
            2 => Op::Get { id: c.u64("id")? },
            3 => Op::Delete { id: c.u64("id")? },
            4 => Op::Stat { id: c.u64("id")? },
            5 => Op::Ping,
            6 => Op::FailDevice {
                device: c.u32("device")?,
            },
            7 => Op::ReviveDevice {
                device: c.u32("device")?,
            },
            8 => Op::Metrics,
            9 => Op::Shutdown,
            10 => Op::TraceExport,
            11 => Op::Health,
            other => return Err(WireError(format!("unknown opcode {other}"))),
        };
        c.finish(op.kind())?;
        Ok(Request {
            deadline_ms,
            corr_id,
            trace_id,
            op,
        })
    }
}

/// An id as it comes off the wire: 0, which the wire reserves for
/// "absent", is `None`.
fn present<T: Default + PartialEq>(id: T) -> Option<T> {
    (id != T::default()).then_some(id)
}

/// The correlation id to use after `corr`: ids count up from 1 and skip 0,
/// which the wire reserves for "absent", when they wrap.
pub(crate) fn next_corr(corr: u32) -> u32 {
    corr.checked_add(1).unwrap_or(1)
}

/// Opcode of a PUT (see the module table).
const OPCODE_PUT: u8 = 1;

/// Bytes of a request header: opcode, deadline, corr id and trace id.
const HEADER_LEN: usize = 1 + 4 + 4 + 8;

/// Appends a request header; an absent id goes out as 0.
fn write_header(
    buf: &mut Vec<u8>,
    opcode: u8,
    deadline_ms: u32,
    corr_id: Option<u32>,
    trace_id: Option<u64>,
) {
    buf.push(opcode);
    put_u32(buf, deadline_ms);
    put_u32(buf, corr_id.unwrap_or(0));
    put_u64(buf, trace_id.unwrap_or(0));
}

/// Refuses a PUT name over [`MAX_NAME`] bytes, as [`check_frame_len`]
/// refuses an oversized body.
fn check_name(name: &str) -> io::Result<()> {
    if name.len() > MAX_NAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("name length {} exceeds {MAX_NAME}", name.len()),
        ));
    }
    Ok(())
}

/// Appends a PUT's `name_len: u16` and name. Past [`MAX_NAME`] the length
/// would not describe the name, so that is a caller's bug.
fn put_name(buf: &mut Vec<u8>, name: &str) {
    assert!(
        name.len() <= MAX_NAME,
        "name length {} exceeds {MAX_NAME}",
        name.len()
    );
    put_u16(buf, name.len() as u16);
    buf.extend_from_slice(name.as_bytes());
}

/// A PUT frame up to its payload: the length prefix — which counts the
/// `payload_len` bytes the caller sends behind it — header and name. A
/// name over [`MAX_NAME`] or a body over [`MAX_FRAME`] is refused.
pub(crate) fn put_frame_head(
    deadline_ms: u32,
    corr_id: Option<u32>,
    trace_id: Option<u64>,
    name: &str,
    payload_len: usize,
) -> io::Result<Vec<u8>> {
    check_name(name)?;
    let mut head = build_frame(HEADER_LEN + 2 + name.len(), |buf| {
        write_header(buf, OPCODE_PUT, deadline_ms, corr_id, trace_id);
        put_name(buf, name);
    });
    let body_len = check_frame_len(head.len() - 4 + payload_len)?;
    head[..4].copy_from_slice(&body_len.to_le_bytes());
    Ok(head)
}

/// Status byte of a successful GET (`OK GET` in the module table).
const STATUS_GET_OK: u8 = 2;

/// Bytes every response body starts with: the status byte and the echoed
/// corr id.
const RESPONSE_HEAD_LEN: usize = 1 + 4;

/// The head of a response body; an absent corr id goes out as 0.
fn response_head(status: u8, corr_id: Option<u32>) -> [u8; RESPONSE_HEAD_LEN] {
    let mut head = [status, 0, 0, 0, 0];
    head[1..].copy_from_slice(&corr_id.unwrap_or(0).to_le_bytes());
    head
}

impl Response {
    /// Serializes the response body: the status byte, `corr_id` (0 for
    /// `None`), then the status fields.
    pub fn encode_corr(&self, corr_id: Option<u32>) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body_capacity());
        self.write_body(corr_id, &mut buf);
        buf
    }

    /// Enough for status, corr id, the widest fixed fields (STAT: 30
    /// bytes) and the variable part, so a body is written without
    /// regrowing.
    fn body_capacity(&self) -> usize {
        let variable = match self {
            Response::GetOk { payload } => payload.len(),
            Response::StatOk { meta } => meta.name.len(),
            Response::MetricsOk { json }
            | Response::TraceOk { json }
            | Response::HealthOk { json } => json.len(),
            Response::BadRequest { message } | Response::ServerError { message } => message.len(),
            _ => 0,
        };
        RESPONSE_HEAD_LEN + 30 + variable
    }

    /// The one response encoder: appends the body — head, fields — to
    /// `buf`.
    fn write_body(&self, corr_id: Option<u32>, buf: &mut Vec<u8>) {
        let head = |buf: &mut Vec<u8>, status: u8| {
            buf.extend_from_slice(&response_head(status, corr_id));
        };
        match self {
            Response::Ok => head(buf, 0),
            Response::PutOk { id } => {
                head(buf, 1);
                put_u64(buf, *id);
            }
            Response::GetOk { payload } => {
                head(buf, STATUS_GET_OK);
                buf.extend_from_slice(payload);
            }
            Response::StatOk { meta } => {
                head(buf, 3);
                put_u64(buf, meta.id);
                put_u64(buf, meta.size);
                put_u64(buf, meta.block_len);
                put_u32(buf, meta.rotation);
                put_u16(buf, meta.name.len() as u16);
                buf.extend_from_slice(meta.name.as_bytes());
            }
            Response::MetricsOk { json } => {
                head(buf, 4);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::TraceOk { json } => {
                head(buf, 5);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::HealthOk { json } => {
                head(buf, 6);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::Busy => head(buf, 16),
            Response::NotFound { id } => {
                head(buf, 17);
                put_u64(buf, *id);
            }
            Response::Unrecoverable { id, lost_blocks } => {
                head(buf, 18);
                put_u64(buf, *id);
                put_u32(buf, *lost_blocks);
            }
            Response::BadRequest { message } => {
                head(buf, 19);
                buf.extend_from_slice(message.as_bytes());
            }
            Response::DeadlineExceeded => head(buf, 20),
            Response::ShuttingDown => head(buf, 21),
            Response::ServerError { message } => {
                head(buf, 22);
                buf.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Parses a response body into its echoed corr id (`None` for 0) and
    /// the response.
    pub fn decode_corr(body: &[u8]) -> Result<(Option<u32>, Response), WireError> {
        let mut c = Cursor::new(body);
        let status = c.u8("status")?;
        let corr = present(c.u32("corr id")?);
        Ok((corr, Self::decode_fields(status, &mut c)?))
    }

    /// The fields that follow the head.
    fn decode_fields(status: u8, c: &mut Cursor<'_>) -> Result<Response, WireError> {
        let resp = match status {
            0 => Response::Ok,
            1 => Response::PutOk { id: c.u64("id")? },
            STATUS_GET_OK => Response::GetOk {
                payload: c.rest().to_vec(),
            },
            3 => {
                let id = c.u64("id")?;
                let size = c.u64("size")?;
                let block_len = c.u64("block_len")?;
                let rotation = c.u32("rotation")?;
                let name_len = c.u16("name length")? as usize;
                let name = c.string(name_len, "name")?;
                Response::StatOk {
                    meta: StatMeta {
                        id,
                        name,
                        size,
                        block_len,
                        rotation,
                    },
                }
            }
            4 => Response::MetricsOk {
                json: c.rest_string("metrics JSON")?,
            },
            5 => Response::TraceOk {
                json: c.rest_string("trace JSON")?,
            },
            6 => Response::HealthOk {
                json: c.rest_string("health JSON")?,
            },
            16 => Response::Busy,
            17 => Response::NotFound { id: c.u64("id")? },
            18 => Response::Unrecoverable {
                id: c.u64("id")?,
                lost_blocks: c.u32("lost_blocks")?,
            },
            19 => Response::BadRequest {
                message: String::from_utf8_lossy(c.rest()).into_owned(),
            },
            20 => Response::DeadlineExceeded,
            21 => Response::ShuttingDown,
            22 => Response::ServerError {
                message: String::from_utf8_lossy(c.rest()).into_owned(),
            },
            other => return Err(WireError(format!("unknown status {other}"))),
        };
        c.finish(resp.kind())?;
        Ok(resp)
    }
}

// --- frame I/O -------------------------------------------------------------

/// Appends one frame (`u32` LE length prefix plus `body`) to an in-memory
/// buffer — the write-batching building block: shards queue several
/// response frames into one buffer and flush them with a single syscall.
pub fn append_frame(out: &mut Vec<u8>, body: &[u8]) {
    debug_assert!(body.len() <= MAX_FRAME, "oversized frame body");
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// Builds a whole frame in one buffer: room for the length prefix, the
/// body `write_body` appends, then the prefix filled in.
fn build_frame(body_capacity: usize, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body_capacity);
    frame.extend_from_slice(&[0; 4]);
    write_body(&mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// Bytes a response frame puts in front of its fields: the length prefix
/// and the head. A GET asks the store for this much room in front of the
/// payload.
pub(crate) const RESPONSE_FRAME_HEAD: usize = 4 + RESPONSE_HEAD_LEN;

/// One encoded response frame on its way to a socket: `bytes[start..]` is
/// `[len u32][body]`, and the bytes before `start` are never sent. The
/// worker that ran the request produces it; the shard only moves it.
pub(crate) struct Frame {
    /// The buffer holding the frame.
    pub bytes: Vec<u8>,
    /// Where the frame starts in `bytes`.
    pub start: usize,
    /// [`Response::kind`] of what was encoded (span and event label).
    pub kind: &'static str,
}

impl Frame {
    /// Encodes `response` — length prefix included — into a buffer of its
    /// own.
    pub(crate) fn encode(response: &Response, corr_id: Option<u32>) -> Frame {
        let bytes = build_frame(response.body_capacity(), |buf| {
            response.write_body(corr_id, buf)
        });
        debug_assert!(bytes.len() - 4 <= MAX_FRAME, "oversized frame body");
        Frame {
            bytes,
            start: 0,
            kind: response.kind(),
        }
    }

    /// A successful GET whose payload is `buf[payload_start..]`, as
    /// `ArchivalStore::get_framed` returns it: the frame header is written
    /// into the bytes just in front of the payload and the buffer becomes
    /// the frame — no payload byte moves. Byte-identical on the wire to
    /// encoding [`Response::GetOk`].
    pub(crate) fn get_ok(mut buf: Vec<u8>, payload_start: usize, corr_id: Option<u32>) -> Frame {
        let body_len = RESPONSE_HEAD_LEN + buf.len() - payload_start;
        debug_assert!(body_len <= MAX_FRAME, "oversized frame body");
        let start = payload_start
            .checked_sub(RESPONSE_FRAME_HEAD)
            .expect("the store left room for the frame header");
        buf[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
        buf[start + 4..payload_start].copy_from_slice(&response_head(STATUS_GET_OK, corr_id));
        Frame {
            bytes: buf,
            start,
            kind: "ok",
        }
    }

    /// The bytes that go on the wire.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.bytes[self.start..]
    }
}

/// Incremental frame reassembly over a nonblocking byte stream.
///
/// Bytes arrive in arbitrary chunks — read from the stream straight into
/// the buffer's spare capacity by the shard (`FrameBuffer::fill_from`), or
/// handed over ([`FrameBuffer::extend`]); complete frames come out one at a
/// time ([`FrameBuffer::next_frame`]). The length prefix is only ever
/// consumed together with its body, so a partial read can never desync the
/// stream — the never-desync property of the blocking [`read_frame`] path,
/// preserved under readiness-driven I/O.
///
/// The shard's path writes a frame's bytes here once: the buffer is sized
/// for the frame when its length prefix is in, and a frame that is all the
/// buffer holds leaves *with* it (`FrameBuffer::take_frame`). What a peer
/// *announces* buys it no memory: the buffer is never reserved more than
/// `RETAINED_CAPACITY` (256 KiB) ahead of the bytes that have arrived.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

/// Largest capacity a connection's drained read or write buffer keeps for
/// its next frame. Above it the allocation is given back, so an idle
/// connection does not hold its largest request and reply for as long as
/// it stays open; below it a stream of small requests reuses one
/// allocation. Also the most a read buffer reserves ahead of what arrived.
pub(crate) const RETAINED_CAPACITY: usize = 256 << 10;

/// Least spare capacity a read is offered: what one readiness event of a
/// connection sending small requests typically holds.
pub(crate) const READ_CHUNK: usize = 16 << 10;

/// Empties a fully drained connection buffer, keeping its allocation only
/// up to [`RETAINED_CAPACITY`].
pub(crate) fn release_drained(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_CAPACITY {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// Consumed-prefix size past which [`FrameBuffer`] compacts its backing
/// storage instead of letting dead bytes accumulate.
const COMPACT_THRESHOLD: usize = 32 << 10;

impl FrameBuffer {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes of backing storage currently allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The length the frame at the front announces, once its prefix is in.
    fn announced(&self) -> Option<usize> {
        let prefix = self.buf.get(self.pos..self.pos + 4)?;
        Some(u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize)
    }

    /// Reads from a nonblocking stream into the buffer's spare capacity —
    /// nothing zero-filled first, nothing copied afterwards — until the
    /// stream would block (`Ok(true)`) or has ended (`Ok(false)`). A read
    /// is offered the rest of the frame being received, up to
    /// [`RETAINED_CAPACITY`] of it, so a frame under that gets a buffer of
    /// exactly its size; with no frame announced (or one over
    /// [`MAX_FRAME`], which extraction then refuses) it is offered
    /// [`READ_CHUNK`]. Beyond that the buffer grows with what has arrived:
    /// doubling, then [`RETAINED_CAPACITY`] at a time. It sheds the frames
    /// already taken before it grows, so what a waiting buffer holds is
    /// what has arrived plus one offer. Filling a buffer
    /// sized for its frame also ends the call — the frame can leave with
    /// the buffer only while it has it to itself, and the level-triggered
    /// poller reports again whatever is still unread.
    pub(crate) fn fill_from(&mut self, stream: &mut impl Read) -> io::Result<bool> {
        loop {
            let missing = match self.announced() {
                Some(len) if len <= MAX_FRAME => (4 + len).saturating_sub(self.buffered()),
                _ => 0,
            };
            let want = match missing {
                0 => READ_CHUNK,
                rest => rest.min(RETAINED_CAPACITY),
            };
            if self.buf.capacity() - self.buf.len() < want {
                // Frames already taken are not carried into a larger buffer.
                self.buf.drain(..self.pos);
                self.pos = 0;
                let grow = want.max(self.buf.len().min(RETAINED_CAPACITY));
                self.buf.reserve_exact(grow);
            }
            // `read_to_end` appends into spare capacity and, because the
            // `Take` ends where the capacity does, never grows the buffer.
            let room = self.buf.capacity() - self.buf.len();
            match stream.by_ref().take(room as u64).read_to_end(&mut self.buf) {
                Ok(n) if n < room => return Ok(false),
                Ok(_) if room == missing => return Ok(true),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }

    /// Where the front frame lies — `(body_start, end)` — once all of it
    /// is in. A length prefix over [`MAX_FRAME`] is a hard protocol error —
    /// the connection cannot be resynchronized.
    fn complete_frame(&mut self) -> Result<Option<(usize, usize)>, WireError> {
        let Some(len) = self.announced() else {
            self.compact();
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(WireError(format!(
                "frame length {len} exceeds MAX_FRAME {MAX_FRAME}"
            )));
        }
        let (body_start, end) = (self.pos + 4, self.pos + 4 + len);
        if self.buf.len() < end {
            self.compact();
            return Ok(None);
        }
        Ok(Some((body_start, end)))
    }

    /// Copies the body `buf[body_start..end]` out and consumes the frame.
    fn copy_out(&mut self, body_start: usize, end: usize) -> Vec<u8> {
        let body = self.buf[body_start..end].to_vec();
        self.pos = end;
        self.compact();
        body
    }

    /// Extracts the next complete frame body (a copy), `Ok(None)` until
    /// one is fully buffered; `Err` for a length prefix over [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let frame = self.complete_frame()?;
        Ok(frame.map(|(body_start, end)| self.copy_out(body_start, end)))
    }

    /// [`FrameBuffer::next_frame`] for a caller that can take the buffer:
    /// the body is `buf[body_start..]` of the returned pair. A frame that
    /// is all the buffer holds and at least half its capacity leaves with
    /// it (a small request is cheaper to copy out than a large buffer is
    /// to replace); any other is copied out, with `body_start == 0`.
    pub(crate) fn take_frame(&mut self) -> Result<Option<(Vec<u8>, usize)>, WireError> {
        let frame = self.complete_frame()?;
        Ok(frame.map(|(body_start, end)| {
            if end == self.buf.len() && end >= self.buf.capacity() / 2 {
                self.pos = 0;
                (std::mem::take(&mut self.buf), body_start)
            } else {
                (self.copy_out(body_start, end), 0)
            }
        }))
    }

    /// Reclaims the consumed prefix: free when the buffer is fully
    /// drained (a large allocation is given back, see
    /// [`RETAINED_CAPACITY`]), a memmove once the dead prefix crosses the
    /// threshold.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            release_drained(&mut self.buf);
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// The `u32` a frame body of `len` bytes announces itself with; a body
/// over [`MAX_FRAME`] is refused.
fn check_frame_len(len: usize) -> io::Result<u32> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    Ok(len as u32)
}

/// Writes one frame: `u32` LE length prefix plus `body` (the tests'
/// blocking peer).
#[cfg(test)]
pub(crate) fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&check_frame_len(body.len())?.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads a frame's length prefix from a blocking stream. `None` is a
/// clean EOF at a frame boundary; EOF once the prefix has started is an
/// error, and a length over [`MAX_FRAME`] is rejected here — before
/// anyone allocates for it.
fn read_frame_len(r: &mut impl Read) -> io::Result<Option<usize>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    Ok(Some(len))
}

/// Reads exactly `len` bytes into a new `Vec`: the stream writes into the
/// allocation's spare capacity, so the bytes are written once and nothing
/// is zero-filled first. EOF before `len` bytes is `UnexpectedEof`.
fn read_exact_vec(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(len);
    // `read_to_end` retries `Interrupted`.
    if r.by_ref().take(len as u64).read_to_end(&mut bytes)? != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(bytes)
}

/// Reads one frame from a blocking stream. `None` is a clean EOF at a
/// frame boundary; EOF once a frame has started is an error, and an
/// oversized length prefix is rejected without allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    read_exact_vec(r, len).map(Some)
}

/// Reads one response frame from a blocking stream, decoding as it
/// arrives: the length prefix (under [`read_frame`]'s EOF and
/// [`MAX_FRAME`] rules), the head, and then the fields — which for a
/// successful GET are the payload, read from the stream straight into the
/// `Vec` that [`Response::GetOk`] hands the caller. `E` is the caller's
/// sum of the two ways this fails.
pub(crate) fn read_response<E>(r: &mut impl Read) -> Result<Option<(Option<u32>, Response)>, E>
where
    E: From<io::Error> + From<WireError>,
{
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    let rest = len
        .checked_sub(RESPONSE_HEAD_LEN)
        .ok_or_else(|| WireError("truncated response head".into()))?;
    let mut head = [0u8; RESPONSE_HEAD_LEN];
    r.read_exact(&mut head)?;
    let corr = present(u32::from_le_bytes(head[1..].try_into().expect("4 bytes")));
    let fields = read_exact_vec(r, rest)?;
    let response = match head[0] {
        STATUS_GET_OK => Response::GetOk { payload: fields },
        status => Response::decode_fields(status, &mut Cursor::new(&fields))?,
    };
    Ok(Some((corr, response)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn round_trip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = resp.encode_corr(None);
        assert_eq!(Response::decode_corr(&body).unwrap(), (None, resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request {
            deadline_ms: 0,
            corr_id: None,
            trace_id: None,
            op: Op::Put {
                name: "hello/世界".into(),
                payload: vec![0, 1, 2, 255],
            },
        });
        round_trip_request(Request {
            deadline_ms: 250,
            corr_id: None,
            trace_id: None,
            op: Op::Put {
                name: String::new(),
                payload: Vec::new(),
            },
        });
        for op in [
            Op::Get { id: u64::MAX },
            Op::Delete { id: 7 },
            Op::Stat { id: 0 },
            Op::Ping,
            Op::FailDevice { device: 95 },
            Op::ReviveDevice { device: 0 },
            Op::Metrics,
            Op::Shutdown,
            Op::TraceExport,
            Op::Health,
        ] {
            round_trip_request(Request {
                deadline_ms: 42,
                corr_id: None,
                trace_id: None,
                op,
            });
        }
    }

    /// A GET with every header field non-zero, and the bytes it travels as.
    fn golden_get() -> (Request, Vec<u8>) {
        let req = Request {
            deadline_ms: 500,
            corr_id: Some(0xAABB_CCDD),
            trace_id: Some(0x1122_3344_5566_7788),
            op: Op::Get { id: 77 },
        };
        #[rustfmt::skip]
        let wire = vec![
            2,                                              // opcode: GET
            0xF4, 0x01, 0, 0,                               // deadline_ms 500
            0xDD, 0xCC, 0xBB, 0xAA,                         // corr_id
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // trace_id
            77, 0, 0, 0, 0, 0, 0, 0,                        // id
        ];
        (req, wire)
    }

    #[test]
    fn corr_header_layout_is_deadline_then_corr_then_trace() {
        let (req, wire) = golden_get();
        assert_eq!(req.encode(), wire);
        assert_eq!(Request::decode(&wire).unwrap(), req);
        for cut in 0..HEADER_LEN {
            assert!(Request::decode(&wire[..cut]).is_err(), "cut at {cut}");
        }
        // A header whose opcode has a high bit set is an unknown opcode,
        // never a GET with extras.
        let mut flagged = wire.clone();
        flagged[0] = 0x42;
        assert_eq!(
            Request::decode(&flagged),
            Err(WireError("unknown opcode 66".into()))
        );
    }

    #[test]
    fn correlated_requests_round_trip_with_and_without_trace_ids() {
        // Both ids absent: they travel as 0 and come back absent.
        let (mut req, mut wire) = golden_get();
        (req.corr_id, req.trace_id) = (None, None);
        wire[5..17].fill(0);
        assert_eq!(req.encode(), wire);
        assert_eq!(Request::decode(&wire).unwrap(), req);
        for corr_id in [Some(1u32), Some(u32::MAX), None] {
            for trace_id in [None, Some(7u64), Some(u64::MAX)] {
                for op in [
                    Op::Put {
                        name: "p".into(),
                        payload: vec![1, 2, 3],
                    },
                    Op::Get { id: 9 },
                    Op::Ping,
                    Op::Health,
                ] {
                    round_trip_request(Request {
                        deadline_ms: 5,
                        corr_id,
                        trace_id,
                        op,
                    });
                }
            }
        }
    }

    #[test]
    fn correlated_responses_round_trip_for_every_status() {
        let resp = Response::PutOk { id: 7 };
        #[rustfmt::skip]
        let wire = vec![
            1,                       // status: OK PUT
            0xDD, 0xCC, 0xBB, 0xAA,  // corr_id
            7, 0, 0, 0, 0, 0, 0, 0,  // id
        ];
        assert_eq!(resp.encode_corr(Some(0xAABB_CCDD)), wire);
        assert_eq!(
            Response::decode_corr(&wire).unwrap(),
            (Some(0xAABB_CCDD), resp)
        );
        for cut in 0..RESPONSE_HEAD_LEN {
            assert!(Response::decode_corr(&wire[..cut]).is_err(), "cut at {cut}");
        }
        // An absent corr id travels as 0 and comes back absent.
        assert_eq!(Response::Busy.encode_corr(None), [16, 0, 0, 0, 0]);
        assert_eq!(
            Response::decode_corr(&[16, 0, 0, 0, 0]).unwrap(),
            (None, Response::Busy)
        );
        for resp in [
            Response::Ok,
            Response::GetOk {
                payload: vec![9; 1000],
            },
            Response::MetricsOk { json: "{}".into() },
            Response::NotFound { id: 12 },
            Response::Unrecoverable {
                id: 12,
                lost_blocks: 3,
            },
            Response::BadRequest {
                message: "no".into(),
            },
            Response::DeadlineExceeded,
            Response::ShuttingDown,
            Response::ServerError {
                message: "boom".into(),
            },
        ] {
            let body = resp.encode_corr(Some(0xFEED_BEEF));
            assert_eq!(
                Response::decode_corr(&body).unwrap(),
                (Some(0xFEED_BEEF), resp.clone()),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok,
            Response::PutOk { id: 99 },
            Response::GetOk {
                payload: vec![9; 1000],
            },
            Response::GetOk {
                payload: Vec::new(),
            },
            Response::StatOk {
                meta: StatMeta {
                    id: 3,
                    name: "obj".into(),
                    size: 4096,
                    block_len: 128,
                    rotation: 17,
                },
            },
            Response::MetricsOk {
                json: "{\"schema\": \"tornado-metrics-v1\"}".into(),
            },
            Response::TraceOk {
                json: "{\"traceEvents\": []}".into(),
            },
            Response::HealthOk {
                json: "{\"schema\": \"tornado-health-v1\"}".into(),
            },
            Response::Busy,
            Response::NotFound { id: 12 },
            Response::Unrecoverable {
                id: 12,
                lost_blocks: 3,
            },
            Response::BadRequest {
                message: "no".into(),
            },
            Response::DeadlineExceeded,
            Response::ShuttingDown,
            Response::ServerError {
                message: "boom".into(),
            },
        ] {
            round_trip_response(resp);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        let mut header = [0u8; HEADER_LEN];
        header[0] = 200;
        assert!(Request::decode(&header).is_err(), "unknown opcode");
        header[0] = 2;
        assert!(
            Request::decode(&[&header[..], &[1, 2]].concat()).is_err(),
            "truncated id"
        );
        // Trailing bytes after a fixed-size op are an error.
        let mut body = Request {
            deadline_ms: 0,
            corr_id: None,
            trace_id: None,
            op: Op::Ping,
        }
        .encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        assert!(
            Response::decode_corr(&[99, 0, 0, 0, 0]).is_err(),
            "unknown status"
        );
    }

    #[test]
    fn put_name_length_is_bounded() {
        let mut body = vec![0u8; HEADER_LEN];
        body[0] = OPCODE_PUT;
        body.extend_from_slice(&8000u16.to_le_bytes());
        body.extend_from_slice(&[b'x'; 8000]);
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn a_put_name_over_max_name_is_refused_not_framed() {
        for len in [MAX_NAME, MAX_NAME + 1, 65_636] {
            let name = "n".repeat(len);
            let req = Request {
                deadline_ms: 0,
                corr_id: Some(1),
                trace_id: None,
                op: Op::Put {
                    name: name.clone(),
                    payload: b"payload".to_vec(),
                },
            };
            let head = put_frame_head(0, Some(1), None, &name, 7);
            if len <= MAX_NAME {
                let frame = req.encode_frame().unwrap();
                assert_eq!(Request::decode(&frame[4..]).unwrap(), req);
                assert_eq!(frame[..frame.len() - 7], head.unwrap()[..]);
                continue;
            }
            for refused in [req.encode_frame().map(drop), head.map(drop)] {
                let e = refused.unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{len}");
                assert_eq!(
                    e.to_string(),
                    format!("name length {len} exceeds {MAX_NAME}")
                );
            }
            let encoded = std::panic::catch_unwind(|| req.encode());
            assert!(encoded.is_err(), "encode() framed a {len}-byte name");
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert!(read_frame(&mut r).unwrap().unwrap().is_empty());
        assert_eq!(read_frame(&mut r).unwrap().unwrap().len(), 300);
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF at a frame boundary"
        );
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = std::io::Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1u8; 100]).unwrap();
        wire.truncate(50);
        let mut r = std::io::Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    // --- incremental frame reassembly --------------------------------------

    #[test]
    fn frame_buffer_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert!(frames[1].is_empty());
        assert_eq!(frames[2], vec![7u8; 300]);
        assert_eq!(fb.buffered(), 0, "nothing left over");
    }

    #[test]
    fn frame_buffer_never_desyncs_across_arbitrary_chunking() {
        // 100 frames with varied bodies, delivered in every chunk size
        // from 1 to 17 bytes — the reassembled stream must be identical.
        let mut wire = Vec::new();
        let mut expect = Vec::new();
        for i in 0..100usize {
            let body: Vec<u8> = (0..i * 7 % 97).map(|j| (i * 31 + j) as u8).collect();
            write_frame(&mut wire, &body).unwrap();
            expect.push(body);
        }
        for chunk in 1..=17usize {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.extend(piece);
                while let Some(f) = fb.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix_without_allocating() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_buffer_compacts_consumed_prefix() {
        let mut fb = FrameBuffer::new();
        let body = vec![3u8; 8 << 10];
        for _ in 0..16 {
            let mut wire = Vec::new();
            write_frame(&mut wire, &body).unwrap();
            fb.extend(&wire);
            assert_eq!(fb.next_frame().unwrap().unwrap(), body);
        }
        // After compaction the dead prefix is bounded, not 16 frames deep.
        assert!(
            fb.buf.len() < 2 * (body.len() + 4),
            "backing store stays bounded"
        );
    }

    #[test]
    fn frame_buffer_gives_back_a_large_allocation_once_drained() {
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        append_frame(&mut wire, &vec![5u8; 4 << 20]);
        for chunk in wire.chunks(16 << 10) {
            fb.extend(chunk);
        }
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), 4 << 20);
        assert_eq!(fb.buffered(), 0);
        assert!(
            fb.buf.capacity() <= RETAINED_CAPACITY,
            "an idle connection keeps {} bytes of its largest request",
            fb.buf.capacity()
        );
        // A stream of 64 KiB PUTs keeps reusing one allocation.
        let mut wire = Vec::new();
        append_frame(&mut wire, &vec![6u8; (64 << 10) + 30]);
        for chunk in wire.chunks(16 << 10) {
            fb.extend(chunk);
        }
        fb.next_frame().unwrap().unwrap();
        let kept = fb.buf.capacity();
        assert!(kept > 64 << 10);
        fb.extend(&wire);
        assert_eq!(fb.buf.capacity(), kept);
    }

    // --- frames read in place and taken with their buffer --------------------

    /// A nonblocking stream: delivers what is `ready`, then would block.
    struct Stalling<'a> {
        ready: &'a [u8],
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.ready.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.ready.len());
            buf[..n].copy_from_slice(&self.ready[..n]);
            self.ready = &self.ready[n..];
            Ok(n)
        }
    }

    /// A PUT of `size` seeded bytes under a seeded name and header.
    fn seeded_put(rng: &mut rand::rngs::SmallRng, size: usize) -> Request {
        use rand::RngCore;
        let mut payload = vec![0u8; size];
        rng.fill_bytes(&mut payload);
        let draw = rng.next_u64();
        Request {
            deadline_ms: draw as u32 & 0xFFFF,
            corr_id: (draw & 1 << 32 != 0).then_some((draw >> 40) as u32 | 1),
            trace_id: (draw & 1 << 33 != 0).then_some(draw.rotate_left(17)),
            op: Op::Put {
                name: "n".repeat((draw >> 34) as usize % 40),
                payload,
            },
        }
    }

    #[test]
    fn a_put_decodes_the_same_wherever_it_is_cut_and_however_it_leaves_the_buffer() {
        use rand::SeedableRng;
        const SEED: u64 = 0x21_5EED;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(SEED);
        let get = Request {
            deadline_ms: 0,
            corr_id: Some(9),
            trace_id: None,
            op: Op::Get { id: 77 },
        };
        for size in [0usize, 1, 4 << 10, 64 << 10, 1 << 20] {
            let put = seeded_put(&mut rng, size);
            // Size and cut decide which way each frame leaves: with the
            // buffer when it has it to itself, copied out when a successor
            // arrived in the same read or the frame is a corner of it.
            let streams = [
                vec![put.clone()],
                vec![put.clone(), get.clone()],
                vec![put.clone(), seeded_put(&mut rng, size)],
            ];
            for (stream, expect) in streams.iter().enumerate() {
                let mut wire = Vec::new();
                for req in expect {
                    append_frame(&mut wire, &req.encode());
                }
                let cuts = (1..=64).chain((1..).map(|i| i * (16 << 10)));
                for cut in cuts.take_while(|&cut| cut < wire.len()) {
                    let case = format!("seed {SEED:#x} size {size} stream {stream} cut {cut}");
                    let pieces = [&wire[..cut], &wire[cut..]];

                    // Handed over and copied out: the parent's path.
                    let mut copied = FrameBuffer::new();
                    let mut got = Vec::new();
                    for piece in pieces {
                        copied.extend(piece);
                        while let Some(body) = copied.next_frame().expect(&case) {
                            got.push(Request::decode(&body).expect(&case));
                        }
                    }
                    assert!(got == *expect, "{case}: copied out");

                    // Read in place and taken: the shard's path.
                    let mut taken = FrameBuffer::new();
                    let mut got = Vec::new();
                    for piece in pieces {
                        let mut peer = Stalling { ready: piece };
                        // As the level-triggered poller has it: readable
                        // until read dry.
                        loop {
                            assert!(taken.fill_from(&mut peer).expect(&case), "{case}: open");
                            while let Some((buf, body_start)) = taken.take_frame().expect(&case) {
                                got.push(Request::decode_owned(buf, body_start).expect(&case));
                            }
                            if peer.ready.is_empty() {
                                break;
                            }
                        }
                    }
                    assert!(got == *expect, "{case}: taken");
                    assert_eq!(taken.buffered(), 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_frame_leaves_with_the_buffer_only_when_it_is_most_of_it() {
        let put = Request {
            deadline_ms: 0,
            corr_id: Some(1),
            trace_id: None,
            op: Op::Put {
                name: "n".into(),
                payload: vec![7; 64 << 10],
            },
        };
        let mut wire = Vec::new();
        append_frame(&mut wire, &put.encode());
        let mut fb = FrameBuffer::new();
        fb.fill_from(&mut Stalling { ready: &wire }).unwrap();
        assert!(
            fb.capacity() <= wire.len() + READ_CHUNK,
            "sized from the prefix, not by doubling: {}",
            fb.capacity()
        );
        let at = fb.buf.as_ptr();
        let (buf, body_start) = fb.take_frame().unwrap().unwrap();
        assert_eq!((buf.as_ptr(), body_start), (at, 4), "the buffer itself");
        assert_eq!(fb.capacity(), 0);
        match Request::decode_owned(buf, body_start).unwrap().op {
            Op::Put { payload, .. } => assert_eq!(payload.as_ptr(), at, "cut down in place"),
            other => panic!("{other:?}"),
        }

        // A 25-byte GET in a 16 KiB buffer is copied out, and the buffer
        // stays for the next request.
        let mut wire = Vec::new();
        append_frame(&mut wire, &golden_get().1);
        fb.fill_from(&mut Stalling { ready: &wire }).unwrap();
        let kept = fb.capacity();
        let (buf, body_start) = fb.take_frame().unwrap().unwrap();
        assert_eq!((buf.len(), body_start), (25, 0));
        assert_eq!(fb.capacity(), kept);
    }

    #[test]
    fn a_large_frame_that_shared_its_buffer_is_copied_out_and_the_buffer_given_back() {
        // 300 KiB is read in steps, the last of them not sized for the
        // frame, so the GET behind it lands in the same buffer.
        let put = Request {
            deadline_ms: 0,
            corr_id: Some(1),
            trace_id: None,
            op: Op::Put {
                name: "n".into(),
                payload: vec![7; 300 << 10],
            },
        };
        let get = Request {
            deadline_ms: 0,
            corr_id: Some(2),
            trace_id: None,
            op: Op::Get { id: 5 },
        };
        let mut wire = Vec::new();
        append_frame(&mut wire, &put.encode());
        append_frame(&mut wire, &get.encode());
        let mut fb = FrameBuffer::new();
        let mut peer = Stalling { ready: &wire };
        assert!(fb.fill_from(&mut peer).unwrap());
        assert!(peer.ready.is_empty(), "read dry in one call");
        assert!(fb.capacity() > RETAINED_CAPACITY);
        let (buf, body_start) = fb.take_frame().unwrap().unwrap();
        assert_eq!(body_start, 0, "copied out");
        assert_eq!(Request::decode_owned(buf, 0).unwrap(), put);
        let (buf, body_start) = fb.take_frame().unwrap().unwrap();
        assert_eq!(Request::decode_owned(buf, body_start).unwrap(), get);
        assert_eq!(fb.buffered(), 0);
        assert!(
            fb.capacity() <= RETAINED_CAPACITY,
            "drained, yet holding {} bytes",
            fb.capacity()
        );
    }

    #[test]
    fn an_announced_length_buys_no_memory() {
        // Ten bytes of a frame that claims to be as large as frames get.
        let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[1; 10]);
        let mut fb = FrameBuffer::new();
        assert!(fb.fill_from(&mut Stalling { ready: &wire }).unwrap());
        assert!(fb.take_frame().unwrap().is_none());
        assert!(fb.fill_from(&mut Stalling { ready: &[] }).unwrap());
        assert!(
            fb.capacity() <= RETAINED_CAPACITY + READ_CHUNK,
            "{} bytes held for 14 that arrived",
            fb.capacity()
        );
        // One byte more than that, and not even the announcement counts.
        let mut wire = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        wire.extend_from_slice(&[1; 10]);
        let mut fb = FrameBuffer::new();
        assert!(fb.fill_from(&mut Stalling { ready: &wire }).unwrap());
        assert!(fb.capacity() <= READ_CHUNK, "{}", fb.capacity());
        assert!(fb.take_frame().is_err());
        // End of stream is told apart from a stream that would block.
        assert!(!fb.fill_from(&mut io::empty()).unwrap());
    }

    // --- encoded frames -----------------------------------------------------

    /// What the wire carried before responses were framed by their
    /// producer: the body from `encode_corr`, prefixed by `append_frame`.
    fn reference_frame(resp: &Response, corr: Option<u32>) -> Vec<u8> {
        let mut wire = Vec::new();
        append_frame(&mut wire, &resp.encode_corr(corr));
        wire
    }

    #[test]
    fn encoded_frames_are_byte_identical_to_prefixed_bodies() {
        for corr in [None, Some(0), Some(0xFEED_BEEF)] {
            for resp in [
                Response::Ok,
                Response::PutOk { id: 99 },
                Response::GetOk {
                    payload: vec![9; 1000],
                },
                Response::GetOk {
                    payload: Vec::new(),
                },
                Response::NotFound { id: 12 },
                Response::BadRequest {
                    message: "no".into(),
                },
            ] {
                let frame = Frame::encode(&resp, corr);
                assert_eq!(
                    frame.wire(),
                    reference_frame(&resp, corr),
                    "{resp:?} {corr:?}"
                );
                assert_eq!(frame.kind, resp.kind());
            }
        }
    }

    #[test]
    fn a_get_is_framed_in_front_of_its_payload_without_moving_it() {
        for payload_len in [0usize, 1, 5000] {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
            let resp = Response::GetOk {
                payload: payload.clone(),
            };
            for headroom in [RESPONSE_FRAME_HEAD, 64] {
                // As the store returns it: headroom, the stripe's 8-byte
                // length header, the payload.
                let mut buf = vec![0xEE; headroom + 8];
                buf.extend_from_slice(&payload);
                let payload_at = buf[headroom + 8..].as_ptr();
                for corr in [None, Some(7)] {
                    let frame = Frame::get_ok(buf.clone(), headroom + 8, corr);
                    assert_eq!(frame.start, headroom + 8 - RESPONSE_FRAME_HEAD);
                    assert_eq!(frame.wire(), reference_frame(&resp, corr));
                    assert_eq!(frame.kind, resp.kind());
                }
                let frame = Frame::get_ok(buf, headroom + 8, Some(1));
                assert_eq!(
                    frame.bytes[headroom + 8..].as_ptr(),
                    payload_at,
                    "same allocation"
                );
            }
        }
    }

    #[test]
    fn request_frames_are_prefix_and_body_in_one_buffer() {
        for op in [
            Op::Put {
                name: "p".into(),
                payload: vec![1, 2, 3],
            },
            Op::Get { id: 9 },
            Op::Ping,
        ] {
            let req = Request {
                deadline_ms: 5,
                corr_id: Some(3),
                trace_id: Some(8),
                op,
            };
            let mut wire = Vec::new();
            append_frame(&mut wire, &req.encode());
            assert_eq!(req.encode_frame().unwrap(), wire);
        }
        let huge = Request {
            deadline_ms: 0,
            corr_id: None,
            trace_id: None,
            op: Op::Put {
                name: String::new(),
                payload: vec![0; MAX_FRAME],
            },
        };
        assert_eq!(
            huge.encode_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    // --- streaming response read -------------------------------------------

    /// A peer that delivers `wire` at most `chunk` bytes per read, then
    /// closes; it counts what it was asked for.
    struct Dribble {
        wire: Vec<u8>,
        pos: usize,
        chunk: usize,
        reads: usize,
    }

    impl Dribble {
        fn new(wire: Vec<u8>, chunk: usize) -> Self {
            Self {
                wire,
                pos: 0,
                chunk,
                reads: 0,
            }
        }
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.chunk).min(self.wire.len() - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The two ways `read_response` fails, comparable.
    #[derive(Debug, PartialEq)]
    enum Failure {
        Io(io::ErrorKind),
        Wire(WireError),
    }

    impl From<io::Error> for Failure {
        fn from(e: io::Error) -> Self {
            Failure::Io(e.kind())
        }
    }

    impl From<WireError> for Failure {
        fn from(e: WireError) -> Self {
            Failure::Wire(e)
        }
    }

    type Reply = Option<(Option<u32>, Response)>;

    fn read_one(r: &mut impl Read) -> Result<Reply, Failure> {
        read_response(r)
    }

    #[test]
    fn responses_stream_in_whatever_the_chunking() {
        let replies = [
            (
                Some(7),
                Response::GetOk {
                    payload: (0..70_000).map(|i| (i % 253) as u8).collect(),
                },
            ),
            (
                None,
                Response::GetOk {
                    payload: vec![1, 2, 3],
                },
            ),
            (
                Some(8),
                Response::GetOk {
                    payload: Vec::new(),
                },
            ),
            (Some(9), Response::PutOk { id: 4 }),
            (
                None,
                Response::BadRequest {
                    message: "unknown opcode 66".into(),
                },
            ),
            (Some(u32::MAX), Response::Ok),
        ];
        let mut wire = Vec::new();
        for (corr, resp) in &replies {
            wire.extend_from_slice(&reference_frame(resp, *corr));
        }
        for chunk in [1, 3, 4096, usize::MAX] {
            let mut peer = Dribble::new(wire.clone(), chunk);
            for (corr, resp) in &replies {
                assert_eq!(
                    read_one(&mut peer),
                    Ok(Some((*corr, resp.clone()))),
                    "chunk {chunk}"
                );
            }
            assert_eq!(
                read_one(&mut peer),
                Ok(None),
                "clean EOF at a frame boundary"
            );
        }
    }

    #[test]
    fn a_reply_cut_short_is_an_eof_error_wherever_it_is_cut() {
        let wire = reference_frame(
            &Response::GetOk {
                payload: vec![7; 300],
            },
            Some(1),
        );
        for cut in [1, 4, 5, 8, 9, 200, wire.len() - 1] {
            let mut peer = Dribble::new(wire[..cut].to_vec(), 1);
            assert_eq!(
                read_one(&mut peer),
                Err(Failure::Io(io::ErrorKind::UnexpectedEof)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn an_oversized_reply_is_refused_at_its_prefix() {
        let mut wire = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[STATUS_GET_OK; 64]);
        let mut peer = Dribble::new(wire, usize::MAX);
        assert_eq!(
            read_one(&mut peer),
            Err(Failure::Io(io::ErrorKind::InvalidData))
        );
        assert_eq!(
            (peer.reads, peer.pos),
            (1, 4),
            "nothing is read, or allocated, for the body"
        );
    }

    #[test]
    fn a_frame_too_short_for_its_own_header_is_a_wire_error() {
        let mut peer = Dribble::new(0u32.to_le_bytes().to_vec(), usize::MAX);
        assert!(
            matches!(read_one(&mut peer), Err(Failure::Wire(_))),
            "no status byte"
        );
        let mut wire = Vec::new();
        append_frame(&mut wire, &[STATUS_GET_OK, 1, 2]);
        let mut peer = Dribble::new(wire, usize::MAX);
        assert!(
            matches!(read_one(&mut peer), Err(Failure::Wire(_))),
            "no room for the corr id"
        );
    }

    #[test]
    fn append_frame_matches_write_frame_bytes() {
        let mut streamed = Vec::new();
        write_frame(&mut streamed, b"hello").unwrap();
        let mut batched = Vec::new();
        append_frame(&mut batched, b"hello");
        assert_eq!(streamed, batched);
    }

    // --- decode fuzz ---------------------------------------------------------

    /// Runs `f`; if it panics, panics again naming `case` — the seed and
    /// the bytes, since the vendored `proptest` does not shrink.
    fn reported<T>(case: impl Fn() -> String, f: impl FnOnce() -> T) -> T {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| panic!("{}", case()))
    }

    /// `len` random printable ASCII bytes, as a string.
    fn ascii(rng: &mut SmallRng, len: usize) -> String {
        (0..len)
            .map(|_| rng.gen_range(b' '..=b'~') as char)
            .collect()
    }

    /// One of every operation, with random fields.
    fn every_op(rng: &mut SmallRng) -> Vec<Op> {
        let mut payload = vec![0; rng.gen_range(0..40)];
        rng.fill_bytes(&mut payload);
        let name_len = rng.gen_range(0..12);
        vec![
            Op::Put {
                name: ascii(rng, name_len),
                payload,
            },
            Op::Get { id: rng.next_u64() },
            Op::Delete { id: rng.next_u64() },
            Op::Stat { id: rng.next_u64() },
            Op::Ping,
            Op::FailDevice {
                device: rng.next_u32(),
            },
            Op::ReviveDevice {
                device: rng.next_u32(),
            },
            Op::Metrics,
            Op::Shutdown,
            Op::TraceExport,
            Op::Health,
        ]
    }

    /// One of every response, with random fields.
    fn every_response(rng: &mut SmallRng) -> Vec<Response> {
        let mut payload = vec![0; rng.gen_range(0..40)];
        rng.fill_bytes(&mut payload);
        let text = |rng: &mut SmallRng| {
            let len = rng.gen_range(0..24);
            ascii(rng, len)
        };
        vec![
            Response::Ok,
            Response::PutOk { id: rng.next_u64() },
            Response::GetOk { payload },
            Response::StatOk {
                meta: StatMeta {
                    id: rng.next_u64(),
                    name: text(rng),
                    size: rng.next_u64(),
                    block_len: rng.next_u64(),
                    rotation: rng.next_u32(),
                },
            },
            Response::MetricsOk { json: text(rng) },
            Response::TraceOk { json: text(rng) },
            Response::HealthOk { json: text(rng) },
            Response::Busy,
            Response::NotFound { id: rng.next_u64() },
            Response::Unrecoverable {
                id: rng.next_u64(),
                lost_blocks: rng.next_u32(),
            },
            Response::BadRequest { message: text(rng) },
            Response::DeadlineExceeded,
            Response::ShuttingDown,
            Response::ServerError { message: text(rng) },
        ]
    }

    /// An encoding (never empty: it has its leading byte) damaged one way:
    /// a bit flipped, cut short, bytes appended, or high bits of the
    /// leading byte — where old headers kept their flags — flipped.
    fn mutate(rng: &mut SmallRng, body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        match rng.gen_range(0..4) {
            0 => {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8u8);
            }
            1 => out.truncate(rng.gen_range(0..out.len())),
            2 => {
                let mut tail = vec![0; rng.gen_range(1..9)];
                rng.fill_bytes(&mut tail);
                out.extend_from_slice(&tail);
            }
            _ => {
                let stray = [0x80, 0x40, 0xC0, 0x20];
                out[0] ^= stray[rng.gen_range(0..stray.len())];
            }
        }
        out
    }

    /// Every decoder over `bytes`: none may panic, and the owning request
    /// decoder behind `garbage` must agree with the borrowing one.
    fn decode_everywhere(seed: u64, bytes: &[u8], garbage: &[u8]) {
        let case = || format!("seed {seed:#x}: body {bytes:02x?} behind {garbage:02x?}");
        reported(case, || {
            let direct = Request::decode(bytes);
            let behind = [garbage, bytes].concat();
            assert_eq!(Request::decode_owned(behind, garbage.len()), direct);
            let _ = Response::decode_corr(bytes);
        });
    }

    #[test]
    fn decoders_survive_random_and_mutated_bodies() {
        const SEED: u64 = 0xF022_0001;
        let mut rng = SmallRng::seed_from_u64(SEED);
        let garbage = |rng: &mut SmallRng| {
            let mut g = vec![0; rng.gen_range(0..8)];
            rng.fill_bytes(&mut g);
            g
        };

        // Random bytes, about half of them led by a plausible opcode or
        // status so the decoders get past the first byte.
        for _ in 0..20_000 {
            let mut bytes = vec![0; rng.gen_range(0..48)];
            rng.fill_bytes(&mut bytes);
            if !bytes.is_empty() && rng.gen_bool(0.5) {
                bytes[0] = rng.gen_range(0..=22u8) | (bytes[0] & 0xC0);
            }
            let g = garbage(&mut rng);
            decode_everywhere(SEED, &bytes, &g);
        }

        // Valid encodings round-trip exactly, then survive damage.
        for round in 0..150 {
            let mut bodies = Vec::new();
            for op in every_op(&mut rng) {
                for (corr_id, trace_id) in [(None, None), (Some(7), None), (None, Some(9))]
                    .into_iter()
                    .chain([(Some(rng.next_u32() | 1), Some(rng.next_u64() | 1))])
                {
                    let req = Request {
                        deadline_ms: rng.next_u32(),
                        corr_id,
                        trace_id,
                        op: op.clone(),
                    };
                    let body = req.encode();
                    let case = || format!("seed {SEED:#x} round {round}: {req:?}");
                    assert_eq!(Request::decode(&body).as_ref(), Ok(&req), "{}", case());
                    bodies.push(body);
                }
            }
            for resp in every_response(&mut rng) {
                for corr in [None, Some(rng.next_u32() | 1)] {
                    let body = resp.encode_corr(corr);
                    let case = || format!("seed {SEED:#x} round {round}: {resp:?} {corr:?}");
                    let decoded = Response::decode_corr(&body);
                    assert_eq!(decoded, Ok((corr, resp.clone())), "{}", case());
                    bodies.push(body);
                }
            }
            for body in &bodies {
                let g = garbage(&mut rng);
                decode_everywhere(SEED, body, &g);
                for _ in 0..3 {
                    let damaged = mutate(&mut rng, body);
                    let g = garbage(&mut rng);
                    decode_everywhere(SEED, &damaged, &g);
                }
            }
        }
    }

    #[test]
    fn a_stream_ending_in_a_hostile_length_prefix_yields_its_frames_and_holds_little() {
        const SEED: u64 = 0xF022_0002;
        let mut rng = SmallRng::seed_from_u64(SEED);
        let bound = RETAINED_CAPACITY + READ_CHUNK;
        for hostile in [0, 1, MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX] {
            for round in 0..200 {
                let valid: Vec<Vec<u8>> = (0..rng.gen_range(0..6))
                    .map(|_| {
                        let size = [0, 100, 3000, 20_000, 40_000][rng.gen_range(0..5usize)];
                        seeded_put(&mut rng, size).encode()
                    })
                    .collect();
                let mut wire = Vec::new();
                for body in &valid {
                    append_frame(&mut wire, body);
                }
                wire.extend_from_slice(&hostile.to_le_bytes());
                let mut cuts = Vec::new();
                let mut at = 0;
                while at < wire.len() {
                    at += rng.gen_range(1..=(wire.len() - at).min(20_000));
                    cuts.push(at);
                }
                let case =
                    || format!("seed {SEED:#x} prefix {hostile} round {round} cuts {cuts:?}");

                let (mut fb, mut got, mut refused) = (FrameBuffer::new(), Vec::new(), false);
                let mut from = 0;
                for &to in &cuts {
                    fb.extend(&wire[from..to]);
                    from = to;
                    loop {
                        match fb.next_frame() {
                            Ok(Some(body)) => got.push(body),
                            Ok(None) => break,
                            Err(_) => {
                                refused = true;
                                break;
                            }
                        }
                    }
                    assert!(
                        fb.capacity() <= bound,
                        "{}: holds {}",
                        case(),
                        fb.capacity()
                    );
                }
                // The shard's path: read in place, taken with the buffer.
                let (mut taken, mut got_taken, mut from) = (FrameBuffer::new(), Vec::new(), 0);
                for &to in &cuts {
                    let mut peer = Stalling {
                        ready: &wire[from..to],
                    };
                    from = to;
                    while !peer.ready.is_empty() {
                        assert!(taken.fill_from(&mut peer).unwrap());
                        while let Ok(Some((buf, start))) = taken.take_frame() {
                            got_taken.push(buf[start..].to_vec());
                        }
                        let held = taken.capacity();
                        assert!(held <= bound, "{}: fill_from holds {held}", case());
                    }
                }
                // Readable again with nothing there: the read that waits
                // for the announced body.
                assert!(taken.fill_from(&mut Stalling { ready: &[] }).unwrap());
                let held = taken.capacity();
                assert!(held <= bound, "{}: waiting, fill_from holds {held}", case());
                assert!(got_taken == got, "{}: the two paths differ", case());
                reported(case, || {
                    assert_eq!(got[..valid.len()], valid[..], "the valid frames, in order");
                    match hostile {
                        // An empty frame is a frame; its body is no request.
                        0 => {
                            assert_eq!(got.len(), valid.len() + 1);
                            assert!(Request::decode(&got[valid.len()]).is_err());
                            assert!(!refused);
                        }
                        // Waiting for a body that may yet come.
                        h if h as usize <= MAX_FRAME => {
                            assert_eq!((got.len(), refused), (valid.len(), false));
                            assert_eq!(fb.buffered(), 4);
                        }
                        _ => assert_eq!((got.len(), refused), (valid.len(), true)),
                    }
                });
            }
        }
    }
}
