//! Simulator validation against the mirrored closed form (paper §3, Eq. 1).
//!
//! The paper built a 96-node mirrored system with its graph tool and
//! verified the sampled failure fractions against Eq. 1 "to at least 9
//! significant digits". We reproduce the check: the graph-based sampler
//! must agree with `1 − C(n,k)·2^k / C(2n,k)` within binomial sampling
//! error at every k, and *exactly* on the exhaustively enumerated levels.

use crate::effort::Effort;
use std::fmt::Write as _;
use tornado_gen::mirror::generate_mirror;
use tornado_sim::mirror::mirrored_failure_probability;
use tornado_sim::worst_case::search_level;
use tornado_sim::{monte_carlo_profile, MonteCarloConfig};

/// Runs the validation; the report lists per-k analytic vs sampled values
/// and the worst deviation in sampling sigmas.
pub(crate) fn run(effort: &Effort) -> String {
    let pairs = 48usize;
    let graph = generate_mirror(pairs).expect("mirror generation");
    let n = graph.num_nodes();
    let mut out = String::new();
    let _ = writeln!(out, "# Eq. 1 validation — 96-device mirrored system");
    let _ = writeln!(out, "k, analytic, sampled, |diff|/sigma");

    // Exhaustive levels: agreement must be exact.
    for k in 1..=effort.exhaustive_max_k.min(n) {
        let level = search_level(&graph, k, 1);
        let sampled = level.failures as f64 / level.cases as f64;
        let analytic = mirrored_failure_probability(pairs, k);
        assert!(
            (sampled - analytic).abs() < 1e-12,
            "exhaustive level {k} disagrees: {sampled} vs {analytic}"
        );
        let _ = writeln!(out, "{k}, {analytic:.9}, {sampled:.9}, exact");
    }

    // The stepped levels in one pass: each row's marginal is a uniform
    // sample of its level, which is all Eq. 1 is compared with.
    let ks: Vec<usize> = (effort.exhaustive_max_k + 1..=n).step_by(4).collect();
    let profile = monte_carlo_profile(
        &graph,
        &MonteCarloConfig {
            trials_per_k: effort.mc_trials,
            seed: effort.seed,
            ks: Some(ks.clone()),
        },
    );
    let mut worst_sigmas = 0.0f64;
    for k in ks {
        let sampled = profile.entry(k).fraction();
        let analytic = mirrored_failure_probability(pairs, k);
        let sigma = (analytic * (1.0 - analytic) / effort.mc_trials as f64)
            .sqrt()
            .max(1e-9);
        let dev = (sampled - analytic).abs() / sigma;
        worst_sigmas = worst_sigmas.max(dev);
        let _ = writeln!(out, "{k}, {analytic:.9}, {sampled:.9}, {dev:.2}");
    }
    let _ = writeln!(out, "# worst deviation: {worst_sigmas:.2} sigma");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_runs_and_agrees() {
        let report = run(&Effort::smoke());
        assert!(report.contains("exact"));
        assert!(report.contains("worst deviation"));
    }
}
