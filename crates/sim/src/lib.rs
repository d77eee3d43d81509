//! The fault-tolerance testing system (paper §3).
//!
//! Two metrics characterise a graph (paper §3):
//!
//! 1. **Worst-case failure scenario** — the minimum number of missing nodes
//!    that makes the graph unrecoverable, found by full combinatorial
//!    examination of `C(n, 1)` through `C(n, k_max)` ([`worst_case`]).
//! 2. **Fraction of reconstruction failures** for each number of missing
//!    nodes, estimated on random samples for the combinatorially intractable
//!    middle range ([`monte_carlo`]).
//!
//! Both feed a [`profile::FailureProfile`] ([`hybrid_profile`] builds the
//! paper's: exact to a depth, sampled above), from which the paper's
//! summary statistics derive: first failure, average number of nodes
//! capable of reconstructing the data (Tables 1–4), the node count for
//! 50 % success probability (Table 6), the conditional profile composed
//! with the device-failure model (Table 5), and the literature's
//! retrieve-until-decodable overhead (§5.2) that the paper contrasts with.
//!
//! [`mirror`] provides the closed-form mirrored-system profile (paper
//! Eq. 1) used to validate the simulator, and [`multi`] the two-site
//! federation combinator and the targeted failure search behind Table 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod mirror;
pub mod monte_carlo;
pub mod multi;
pub mod obs;
pub mod profile;
pub mod worst_case;

pub use mirror::mirrored_failure_probability;
pub use monte_carlo::{monte_carlo_profile, monte_carlo_profile_observed, MonteCarloConfig};
pub use obs::SimObserver;
pub use profile::{hybrid_profile, FailureProfile, ProfileEntry};
pub use worst_case::{
    worst_case_search, worst_case_search_observed, KLevelResult, WorstCaseConfig, WorstCaseReport,
};
