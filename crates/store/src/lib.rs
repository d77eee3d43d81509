//! A simulated Tornado-coded archival storage system.
//!
//! The paper's target (§2.2, §6): a transactional, file-granularity
//! archival store — objects are uploaded and downloaded whole, never
//! updated in place — over a pool of individually failing devices, with
//! Tornado Codes as the erasure mechanism. This crate builds that system
//! end to end:
//!
//! * [`device`] — in-memory devices with failure injection and access
//!   accounting (the stand-in for the paper's MAID/object-storage backing
//!   stores; the analysis depends only on the erasure-pattern → decode
//!   map, so an in-memory array preserves all studied behaviour);
//! * [`store`] — [`store::ArchivalStore`]: put/get/delete of byte objects,
//!   one encoded block per device, rotation across stripes;
//! * [`retrieval`] — the guided retrieval planner (§5.2/§6 future work):
//!   computes a minimal-ish block set sufficient to reconstruct, so `get`
//!   touches far fewer devices than a naive full-stripe read — exactly the
//!   MAID motivation of powering up as few disks as possible;
//! * [`scrubber`] — proactive stripe-health monitoring and repair (§6's
//!   "stripe reliability assurance" mechanism): re-encodes missing blocks
//!   back to healthy devices before a stripe approaches its failure point;
//! * [`federation`] — the §5.3 two-site system: both sites hold every
//!   object under *different* Tornado graphs, and a joint cross-site decode
//!   recovers data even when both sites individually cannot;
//! * [`workload`] — synthetic archival workload generation and replay with
//!   device-activation accounting (the MAID cost model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod backend;
mod backend_file;
mod backend_segment;
pub mod device;
pub mod durable;
pub mod error;
pub mod federation;
pub mod journal;
pub mod obs;
pub mod retrieval;
pub mod scrubber;
pub mod store;
pub mod workload;

pub use backend::{Appended, BlockBackend, MemoryBackend, Resident};
pub use backend_file::FileBackend;
pub use backend_segment::SegmentBackend;
pub use device::{BlockProbe, Device, DeviceStats, ReadClass};
pub use durable::{BackendKind, DurableConfig, RecoveryReport};
pub use error::StoreError;
pub use federation::{ExchangeReport, FederatedStore, FetchPath};
pub use journal::{CrashInjector, IntentJournal, JournalRecord};
pub use obs::{DeviceTotals, StoreMetrics, StoreObserver};
pub use retrieval::{plan_repair, plan_retrieval, RepairCost, RetrievalPlan};
pub use scrubber::{ScrubAction, ScrubMode, ScrubOutcome, Scrubber, StripeHealth};
pub use store::{node_on_device, ArchivalStore, GetStats, ObjectMeta};
