//! `tornado-obs` — zero-dependency observability for the simulation
//! pipeline.
//!
//! The paper's methodology is empirical: hundreds of millions of decode
//! trials per graph (§3's full `C(96, k)` enumeration plus Monte-Carlo
//! sampling). This crate gives every long-running layer eyes without
//! slowing the kernels down:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic aggregates (the counter
//!   sharded), safe to hammer from every rayon worker;
//! * [`Recorder`] — plain-u64 cells behind an on/off flag, for hot loops
//!   that cannot afford even a relaxed atomic per trial; drained at batch
//!   boundaries into the shared counters (summation commutes, so merged
//!   totals stay deterministic under any scheduling);
//! * [`Histogram`] — log2-bucketed with percentile queries, exact
//!   min/max/sum;
//! * [`metric_set!`] — the one declaration form: a struct of such cells, each
//!   written once with name, unit and meaning; its [`MetricSet`] rows are the catalogue;
//! * [`Progress`] — throttled rate + ETA reporting to stderr (or silent),
//!   driven by a clock tests can replace;
//! * [`EventSink`] — a JSON-lines (or human-readable) event stream;
//! * [`Snapshot`] — a point-in-time dump of recorded metric sets through the
//!   hand-rolled [`json`] serializer, with a [`snapshot::validate`] checker;
//! * [`Tracer`] — request-scoped span collection with deterministic
//!   1-in-N sampling and a Chrome trace-event exporter;
//! * [`TimeSeries`] — a bounded ring of periodic counter samples for
//!   windowed rates;
//! * [`SloTracker`] — error budgets with multi-window burn-rate alert
//!   transitions;
//! * [`expo`] — Prometheus-style text exposition of health documents.
//!
//! Everything is built on `std` alone — no external crates — so the
//! workspace keeps building offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod clock;
pub mod counter;
pub mod events;
pub mod expo;
pub mod histogram;
pub mod json;
pub mod progress;
mod recorder;
pub mod set;
pub mod slo;
pub mod snapshot;
pub mod timeseries;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use events::{EventFormat, EventSink};
pub use histogram::Histogram;
pub use json::Json;
pub use progress::{Progress, ProgressConfig};
pub use recorder::Recorder;
pub use set::MetricSet;
pub use slo::{standard_windows, BurnReading, BurnWindow, SloAlert, SloTracker};
pub use snapshot::Snapshot;
pub use timeseries::{SeriesPoint, TimeSeries};
pub use trace::{SpanRecord, Tracer};
