//! Client-side errors for the serving protocol.

use crate::protocol::WireError;
use std::fmt;
use std::io;

/// Everything a [`crate::Client`] call can fail with: transport problems,
/// malformed frames, or error statuses from the server mapped onto typed
/// variants.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer sent a frame this protocol version cannot parse.
    Wire(WireError),
    /// The server shed the request under backpressure — retry later.
    Busy,
    /// No such object.
    NotFound(u64),
    /// The object cannot be reconstructed (too many blocks lost).
    Unrecoverable {
        /// The requested object.
        id: u64,
        /// Data blocks lost for good.
        lost_blocks: u32,
    },
    /// The per-request deadline expired on the server.
    DeadlineExceeded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The server rejected the request as malformed.
    BadRequest(String),
    /// The server failed internally.
    Server(String),
    /// The server answered with a status that does not fit the request
    /// (protocol confusion).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Busy => write!(f, "server busy (queue full)"),
            ClientError::NotFound(id) => write!(f, "object {id} not found"),
            ClientError::Unrecoverable { id, lost_blocks } => {
                write!(
                    f,
                    "object {id} unrecoverable ({lost_blocks} data blocks lost)"
                )
            }
            ClientError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ClientError::ShuttingDown => write!(f, "server shutting down"),
            ClientError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}
