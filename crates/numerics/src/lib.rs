//! Numeric support for fault-tolerance analysis.
//!
//! The reliability model of the paper composes *exact* combinatorial counts
//! (how many erasure patterns avoid completing a mirrored pair / RAID group)
//! with *floating-point* probability models (binomial device-failure rates,
//! Eq. 2–3). This crate provides both halves plus the root-finding used by
//! the Tornado edge-distribution rescaler (§3.1):
//!
//! * [`binomial`] — numerically stable `ln`-space coefficients for large
//!   arguments (the exact `u128` ones are
//!   `tornado_bitset::combinations::binomial`);
//! * [`dist`] — the binomial failure-count distribution (paper Eq. 2) and
//!   the total-probability composition (paper Eq. 3);
//! * [`sum`] — compensated (Neumaier) summation so that summing 97 terms
//!   spanning 30 orders of magnitude stays accurate;
//! * [`solve`] — bracketing bisection and integer-target search used to find
//!   the constant edge-distribution multiplier that yields an exact node
//!   count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod dist;
pub mod solve;
pub mod sum;

pub use binomial::{ln_binomial, ln_factorial};
pub use dist::{binomial_pmf, compose_failure_probability, BinomialFailureModel};
pub use solve::{bisect, solve_integer_target, Bracket, SolveError};
pub use sum::NeumaierSum;
