//! RAID comparator systems (paper §4.1, Fig. 3 / Tables 1 and 5).
//!
//! The paper compares its Tornado graphs against conventional layouts on
//! the same 96 devices:
//!
//! * **Striping** — no redundancy; any loss is fatal.
//! * **RAID5** — 8 drawers of 12 disks, one parity disk per drawer; a
//!   drawer dies when ≥ 2 of its disks die.
//! * **RAID6** — same drawers, two parity disks each; a drawer dies when
//!   ≥ 3 of its disks die.
//! * **Mirroring (RAID 10)** — 48 pairs; a pair dying is fatal. (The
//!   closed form lives in `tornado_sim::mirror`; re-exported here.)
//!
//! RAID5/6 failure probabilities given `k` offline devices have exact
//! closed forms by counting the placements that keep every group within
//! its parity budget — a product of per-group polynomials evaluated by
//! integer convolution ([`analytic`]). The unit tests of the test-only
//! `simulate` module cross-check the same quantities by random sampling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod layout;
#[cfg(test)]
mod simulate;

pub use analytic::{group_failure_probability, GroupSystem};
pub use layout::GroupLayout;
pub use tornado_sim::mirror::{mirrored_failure_probability, mirrored_profile};
