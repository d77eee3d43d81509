//! Experiment harness: regenerates every table and figure of the paper,
//! its ablations, and the three measurements committed as
//! `BENCH_<name>.json`, from one binary.
//!
//! Each experiment is a module of [`experiments`] with one entry point,
//! `run(&Effort) -> Report`, which measures, renders its table and asserts
//! its own floors; [`experiments::ALL`] lists them in paper order. The one
//! binary, `run_all [NAME]... [--list] [--quick] [--write]`, runs the named
//! ones (all of them when none is named) and prints each report on stdout;
//! status and the timing table go to stderr. `--list` prints the registry.
//! `--quick` is CI's smoke: the measurements run their small shape (the
//! connection sweep stops near 1,000 and asserts that). `--write` wraps
//! each experiment's data in the `tornado-bench-v1` envelope
//! ([`harness::envelope`]) and writes it to `BENCH_<name>.json` at the
//! repository root (release builds at full effort only).
//!
//! Fidelity comes from the environment so CI stays fast while
//! full-fidelity runs remain one variable away: `TORNADO_TRIALS`
//! (Monte-Carlo trials per point, default 20 000), `TORNADO_MAX_K`
//! (exhaustive search depth, default 4; the paper used 6) and
//! `TORNADO_SEED`. A value that does not parse is an error, not a default.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod effort;
pub mod experiments;
pub mod harness;

pub use effort::Effort;
pub use experiments::{Experiment, ALL};
pub use harness::Report;
