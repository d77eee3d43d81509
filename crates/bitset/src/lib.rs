//! Bit-set primitives for erasure-pattern simulation.
//!
//! The fault-tolerance testing system in this workspace decodes hundreds of
//! millions of erasure patterns over 96-node graphs. Each pattern is a set of
//! node indices; this crate provides the set representations used on that hot
//! path:
//!
//! * [`FixedBitSet`] — a const-generic, stack-allocated bit set backed by
//!   `u64` words. [`Bits128`] (two words) covers the paper's 96-node graphs
//!   and [`Bits256`] (four words) covers the 192-device federated systems.
//! * [`DynBitSet`] — a heap-backed bit set for arbitrary sizes, used by the
//!   storage layer and anywhere graph sizes are not known at compile time.
//! * [`rows`] — bit rows as plain word slices and [`RowTable`], a flat table
//!   of them. They are the state representation behind the decode kernel: an
//!   erasure pattern is one row, each check's neighbourhood another, and a
//!   check's state is the popcount of their intersection.
//! * [`combinations`] — lexicographic *k*-subset enumeration with
//!   combinatorial ranking/unranking, which lets the simulator split an
//!   exhaustive `C(96, k)` search into independent, evenly sized chunks for
//!   data-parallel execution.
//!
//! All types are `Copy`/cheaply clonable where possible and perform no
//! allocation in their query operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinations;
pub mod dynamic;
pub mod fixed;
pub mod rows;

pub use combinations::{CombinationIter, Combinations};
pub use dynamic::DynBitSet;
pub use fixed::{Bits128, Bits256, Bits64, FixedBitSet};
pub use rows::RowTable;
