//! `tornado-server` — a concurrent archival block service over the
//! Tornado-coded [`tornado_store::ArchivalStore`].
//!
//! The paper's methodology measures codes statically (worst-case erasure
//! search, Monte-Carlo profiles); related storage-systems work (Dimakis et
//! al., Park et al.) evaluates them *live* — repair traffic, degraded
//! reads, reconstruction latency under load. This crate closes that gap
//! with a serving layer built on `std::net` alone:
//!
//! * [`protocol`] — the length-prefixed binary wire format (PUT / GET /
//!   DELETE / STAT object ops, PING, device fail/revive admin ops, a
//!   metrics snapshot op, and SHUTDOWN);
//! * [`queue`] — a bounded MPMC request queue with explicit backpressure:
//!   past the configured depth the service answers BUSY instead of
//!   buffering without bound;
//! * [`engine`] — the fixed worker pool draining the queue, enforcing
//!   per-request deadlines, and serving GETs through the store's guided
//!   retrieval path (checksum failures and offline devices degrade into
//!   erasures that the Tornado decoder reconstructs transparently);
//! * [`reactor`] — the epoll readiness poller under the acceptor, the
//!   shards and the mux load driver;
//! * [`shard`] — the event-loop connection shards: incremental frame
//!   reassembly, pipelined dispatch to the engine, batched writes;
//! * [`server`] — the acceptor that hands connections to the shards, and
//!   graceful shutdown that drains in-flight requests before exiting;
//! * [`client`] — the client library: a pipelined connection (submit /
//!   recv by correlation id) and the blocking call built on it;
//! * [`load`] — a multi-connection load generator (closed or open loop,
//!   any pipeline depth) with a seeded operation mix (weighted
//!   put/get/delete, zipfian object popularity) and mid-run
//!   device-failure injection, verifying every GET byte-for-byte, plus
//!   the one-thread multiplexed driver for connection-count sweeps;
//! * [`obs`] — `tornado-obs` counters, latency histograms, JSON-lines
//!   events, sampled request-scoped trace spans (exported as Chrome
//!   trace-event JSON), and a time-series ring of periodic counter
//!   samples for windowed rates;
//! * [`health`] — the durability observatory: a live §5.1 reliability
//!   model (conditional P(loss), per-stripe risk margins, MTTDL) plus
//!   SLO burn-rate alerting, published through the HEALTH wire op as a
//!   validated `tornado-health-v1` document.

// `deny` rather than `forbid`: the readiness reactor is the one sanctioned
// exception (raw epoll FFI behind `#[allow(unsafe_code)]` with documented
// invariants); everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// The one serving path is built on epoll; no other platform has ever been
// built or tested.
#[cfg(not(target_os = "linux"))]
compile_error!("tornado-server serves connections through Linux's epoll");

pub mod catalogue;
pub mod client;
pub mod config;
pub mod engine;
pub mod error;
pub mod health;
pub mod load;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod shard;

pub use catalogue::catalogue;
pub use client::{Client, PipelinedClient};
pub use config::{HealthConfig, ServerConfig};
pub use error::ClientError;
pub use health::{validate_health, HealthModel, HEALTH_SCHEMA};
pub use load::{run_load, LoadConfig, LoadReport, OpMix, TraceExemplar};
pub use obs::{LoopStats, ServerMetrics, ServerObserver};
pub use protocol::{Op, Request, Response, StatMeta};
pub use queue::BoundedQueue;
pub use server::{serve, ServerHandle};
