//! Bit-set primitives for erasure-pattern simulation.
//!
//! The fault-tolerance testing system in this workspace decodes hundreds of
//! millions of erasure patterns over 96-node graphs. Each pattern is a set of
//! node indices; this crate provides the set representations used on that hot
//! path:
//!
//! * [`rows`] — bit rows as plain word slices and [`RowTable`], a flat table
//!   of them: the workspace's one node-set type. They are the state
//!   representation behind the decode kernel — an erasure pattern is one
//!   row, each check's neighbourhood another, and a check's state is the
//!   popcount of their intersection — and what the store's retrieval
//!   planner keeps its needed / missing sets in.
//! * [`combinations`] — lexicographic *k*-subset enumeration with
//!   combinatorial ranking/unranking, which lets the simulator split an
//!   exhaustive `C(96, k)` search into independent, evenly sized chunks for
//!   data-parallel execution.
//!
//! Query operations perform no allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod combinations;
pub mod rows;

pub use combinations::{CombinationIter, Combinations};
pub use rows::RowTable;
