//! Federated failure profile (extends Table 7).
//!
//! Table 7 reports only the *first failure detected* for two-site systems;
//! this extension measures the full fraction-failed curve over the 192
//! federated devices, comparing four-copy mirroring against identical and
//! complementary Tornado pairs. Expected shape: the complementary pair's
//! curve sits below the identical pair's, which sits far below mirroring —
//! the same ordering Table 7's first-failure column summarises.

use crate::effort::Effort;
use crate::harness::{render_figure, SystemRow};
use tornado_gen::mirror::generate_mirror;
use tornado_sim::multi::FederatedSystem;
use tornado_sim::{monte_carlo_profile, MonteCarloConfig};

/// Builds profiles for the three federation configurations.
pub(crate) fn rows(effort: &Effort) -> Vec<SystemRow> {
    let t1 = tornado_core::tornado_graph_1();
    let t2 = tornado_core::tornado_graph_2();
    let mirror = generate_mirror(48).expect("mirror generation");

    let configs = vec![
        (
            "Mirrored (4 copies)",
            FederatedSystem::new(&mirror, &mirror),
        ),
        ("Tornado 1 + Tornado 1", FederatedSystem::new(&t1, &t1)),
        ("Tornado 1 + Tornado 2", FederatedSystem::new(&t1, &t2)),
    ];
    configs
        .into_iter()
        .map(|(label, fed)| {
            let profile = monte_carlo_profile(
                fed.graph(),
                &MonteCarloConfig {
                    trials_per_k: effort.mc_trials,
                    seed: effort.seed,
                    // Every 4th k, the figure's resolution: 48 points show
                    // the curve's shape. (Each trial draws its order to the
                    // deepest level either way, so all 192 would add only
                    // two settles a lane group, ⌈log₂(m + 1)⌉ for m levels,
                    // not a draw.)
                    ks: Some((1..=fed.total_devices()).step_by(4).collect()),
                },
            );
            SystemRow {
                label: label.to_string(),
                profile,
                num_data: fed.num_data(),
            }
        })
        .collect()
}

/// Runs the experiment.
pub(crate) fn run(effort: &Effort) -> String {
    render_figure(
        "Federated failure profiles — 192 devices, two sites (extends Table 7)",
        &rows(effort),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complementary_pair_dominates_mirroring() {
        let rows = rows(&Effort::smoke());
        let frac = |label: &str, k: usize| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap()
                .profile
                .entry(k)
                .fraction()
        };
        // At a quarter of the devices lost, four-copy mirroring fails far
        // more often than either Tornado federation.
        let k = 49;
        assert!(
            frac("Mirrored", k) > 3.0 * frac("Tornado 1 + Tornado 2", k),
            "mirror {} vs complementary {}",
            frac("Mirrored", k),
            frac("Tornado 1 + Tornado 2", k)
        );
    }
}
