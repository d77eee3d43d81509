//! Graph generators for Tornado Codes and the paper's comparator families.
//!
//! §3.1 of the paper builds Tornado graphs from Luby's edge-degree
//! distributions with two practical amendments for small graphs:
//!
//! 1. a *numeric solver* finds a constant multiplier for the edge-degree
//!    distribution so that it produces the exact number of nodes required
//!    (naive rounding yields, e.g., "5 edges of degree 6" — meaningless);
//! 2. the Typhoon treatment of the final cascade levels: the last two check
//!    stages share the same set of left nodes, each computed independently
//!    over the full left set.
//!
//! §3.2–3.3 add *structural defect detection*: randomly generated graphs
//! occasionally contain small closed sets of left nodes whose loss is
//! unrecoverable no matter how many other blocks survive. Graphs failing
//! the screen are discarded and regenerated.
//!
//! Families provided (paper §4):
//!
//! * [`tornado`] — cascaded Tornado graphs (heavy-tail left / Poisson right);
//! * [`altered`] — Tornado variants with the distribution doubled or
//!   shifted +1 (§4.3, Fig. 5 / Table 3);
//! * [`cascaded`] — fixed-degree cascaded random graphs (§4.3, Fig. 6 /
//!   Table 4);
//! * [`regular`] — biregular single-stage graphs of degree 4 / 11;
//! * [`mirror`] — mirrored systems expressed as graphs (for the Eq. 1
//!   simulator validation and the RAID 10 comparison);
//! * [`defects`] — small-stopping-set detection, and [`screened`], the
//!   one generation-time screen loop every family is drawn through.
//!
//! [`solve`] holds the §3.1 numeric solver. The test-only `density` module
//! computes density-evolution (asymptotic erasure) thresholds, the theory
//! whose finite-size gap motivates the paper's empirical method; its tests
//! hold the generator's distributions to it.
//!
//! All generators are deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod altered;
pub mod cascaded;
pub mod defects;
#[cfg(test)]
mod density;
mod distribution;
pub mod error;
mod matching;
pub mod mirror;
pub mod regular;
pub mod solve;
pub mod tornado;

pub use defects::{find_stopping_sets, screen, screened};
pub use error::GenError;
pub use tornado::TornadoGenerator;
