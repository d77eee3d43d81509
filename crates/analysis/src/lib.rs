//! Reliability modelling, critical-set analysis, and the feedback graph
//! adjustment procedure.
//!
//! * [`reliability`] — composes a measured conditional failure profile with
//!   the binomial device-failure model (paper §5.1, Eqs. 2–3, Table 5):
//!   [`binomial_pmf`] is Eq. 2 and [`compose_failure_probability`] Eq. 3,
//!   with log-space binomials ([`ln_binomial`]) and a compensated sum
//!   ([`NeumaierSum`]) so the 97 terms spanning thirty orders of magnitude
//!   stay exact to the last ulp.
//! * [`analytic`] and [`layout`] — the RAID systems the paper sets against
//!   its graphs (striping, RAID5, RAID6 on 8 × 12 drawers), in exact closed
//!   form (§4.1, Fig. 3, Tables 1 and 5).
//! * [`critical`] — turns the worst-case search's failing erasure patterns
//!   into *critical left-node sets* with their closed right-node
//!   dependencies, the paper's "left node [ right nodes ]" view (§3.2–3.3).
//! * [`adjust`] — the §3.3 feedback loop: pick the left node implicated in
//!   the most failure sets, rewire its most-implicated check edge to a
//!   check outside the failures, re-test, repeat. Takes screened graphs
//!   from first failure at 4 to first failure at 5.
//! * [`lifetime`] — time-stepped reliability with proactive scrub/repair,
//!   extending Table 5's no-repair model toward the §6 scrubber design.
//! * [`stopping`] — exact minimum blocking sets by certificate-guided
//!   branch and bound, an independent cross-check of the brute-force
//!   worst-case search.
//! * [`health`] — the live variant of [`reliability`]: failure profiles and
//!   P(loss) conditioned on the fleet's *current* erasure pattern, risk
//!   margins (additional losses until unrecoverable), and MTTDL summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod adjust;
pub mod analytic;
mod binomial;
pub mod critical;
mod dist;
pub mod health;
pub mod layout;
pub mod lifetime;
pub mod reliability;
#[cfg(test)]
mod simulate;
pub mod stopping;
mod sum;

pub use adjust::{adjust_graph, AdjustOutcome, AdjustmentStep};
pub use binomial::ln_binomial;
pub use critical::{critical_sets, CriticalSet};
pub use dist::{binomial_pmf, compose_failure_probability};
pub use health::{
    conditional_failure_probability, conditional_failure_profile, horizon_failure_probability,
    mttdl_hours, risk_margin, ConditionalConfig,
};
pub use stopping::minimum_distance;
pub use sum::NeumaierSum;
