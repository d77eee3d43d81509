//! XOR block codec and iterative peeling decoder.
//!
//! Encoding a Tornado Code is a single forward sweep: each check node stores
//! the XOR of its left neighbours, and because every neighbour has a smaller
//! node id the sweep is well-defined (paper §2, Fig. 2).
//!
//! Decoding peels (paper §2): a *present* check node with exactly one
//! missing left neighbour recovers that neighbour; a *missing* check node
//! whose left neighbours are all present is regenerated by re-encoding.
//! The process runs to fixpoint across all cascade levels; reconstruction
//! succeeds when every data node is present.
//!
//! Two entry points share that logic:
//!
//! * [`ErasureDecoder`] — availability-only peeling for the fault-tolerance
//!   simulator. Allocation-free per trial, used hundreds of millions of
//!   times by the worst-case search. The erasure pattern is a bit row and
//!   so is every check's equation; a check's state is the popcount of
//!   their intersection, computed when the check is examined, so there is
//!   nothing to maintain or reset. Lexicographic sweeps decide most
//!   patterns from the certificates of their shared prefix without peeling
//!   at all, via [`ErasureDecoder::begin_pattern`] /
//!   [`ErasureDecoder::decode_tail`] (see the [`erasure`] module docs).
//!   Random patterns share no prefix; the Monte-Carlo suites peel them a
//!   group at a time through [`LaneDecoder`], one bit lane per trial (see
//!   [`lanes`]).
//! * [`Codec`] — the real data path: byte blocks in, byte blocks out, used
//!   by the archival store.
//!
//! The byte arithmetic both entry points execute lives in [`kernels`]
//! (word-wide XOR and nibble-table GF(256) multiply-accumulate), and
//! block-sized buffers are recycled through [`pool::BlockPool`] arenas
//! instead of being allocated per node.
//!
//! The parity suites hold the decoders and the kernels to oracles that are
//! test code (`tests/oracle/mod.rs`): `DenseDecoder`, the counter-per-check
//! kernel, and the byte-serial `scalar` loops.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod erasure;
pub mod error;
pub mod gf256;
pub mod kernels;
pub mod lanes;
pub mod metrics;
pub mod pool;
pub mod reed_solomon;

pub use block::{Codec, DecodeReport, EncodedStripe};
pub use erasure::{
    recovery_certificate, BatchStats, DecodeDetail, ErasureDecoder, OneNodeRule, RecoveryStep,
};
pub use error::CodecError;
pub use kernels::{mul_acc, xor_into, MulTable};
pub use lanes::LaneDecoder;
pub use metrics::{DecodeMetrics, DecodeRecorder};
pub use pool::BlockPool;
pub use reed_solomon::ReedSolomon;

/// The digest of a lone buffer — a journal frame, a segment record, a
/// payload — that nothing is streamed after: [`kernels::checksum`] with
/// [`kernels::Ahead::NONE`].
pub fn checksum(data: &[u8]) -> u64 {
    kernels::checksum(data, kernels::Ahead::NONE)
}
