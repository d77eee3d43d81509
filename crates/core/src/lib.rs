//! High-level Tornado Code pipeline — the paper's end-to-end procedure for
//! producing storage-grade graphs.
//!
//! The paper's conclusion is operational: "A storage system using Tornado
//! Codes where data loss must be avoided should use precompiled graphs and
//! not random graphs, or perform basic worst-case fault detection on new
//! graphs before use." This crate provides both halves:
//!
//! * [`pipeline`] — generate → structural screen → worst-case test →
//!   feedback adjustment → verify: the §3 procedure as one call, producing
//!   a [`pipeline::ProfiledGraph`] with its certification attached;
//! * [`catalog`] — precompiled 96-node graphs ("Tornado Graph 1–3" in the
//!   paper's numbering) produced by that pipeline, embedded as GraphML and
//!   pinned by fingerprint, each certified to survive any four device
//!   failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod catalog;
pub mod pipeline;

pub use catalog::{tornado_graph_1, tornado_graph_2, tornado_graph_3};
pub use pipeline::{build_profiled_graph, PipelineConfig, ProfiledGraph};
