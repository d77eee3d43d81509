//! Conditional reliability for a *degraded* fleet (the live §5.1 model).
//!
//! Table 5 composes the conditional failure profile with the binomial
//! device-failure model for a healthy fleet. A running store is rarely in
//! that state: some devices are already offline. This module rebuilds the
//! same Eq. 2–3 machinery *conditioned on the current erasure pattern* —
//! the profile's row `j` becomes `P(fail | missing ∪ j further random
//! losses)` and the binomial sums over the devices still standing — plus
//! the per-stripe **risk margin** (minimum additional losses until
//! unrecoverable) and an MTTDL-style view of the composed probability.
//!
//! Every question is asked of the graph one of two ways, both through the
//! lane kernel: the `tornado_sim::monte_carlo` sampler on top of the
//! missing nodes, or an exhaustive count of every `j`-subset of the rest
//! (row 0, every row small enough to enumerate, and every risk margin).
//!
//! Determinism matters here exactly as in `tornado_sim::monte_carlo`: the
//! live health surface and any offline recomputation must agree bit for
//! bit when given the same `(trials, seed, max_k)` parameters. With no
//! devices missing the sampling path *is*
//! [`sample_level`](tornado_sim::monte_carlo::sample_level), so the live
//! healthy-fleet number equals the offline
//! [`crate::reliability::system_failure_probability`] exactly.

use tornado_bitset::combinations::CombinationIter;
use tornado_codec::LaneDecoder;
use tornado_graph::Graph;
use tornado_numerics::{binomial_u128, compose_failure_probability};
use tornado_sim::monte_carlo::{complement, sample_level_observed};
use tornado_sim::{FailureProfile, SimObserver};

/// Hours in a year (the AFR's implicit period), Julian convention.
pub const HOURS_PER_YEAR: f64 = 8_766.0;

/// Parameters for building a conditional failure profile.
#[derive(Clone, Debug)]
pub struct ConditionalConfig {
    /// Monte-Carlo trials per additional-loss count `j`. A degraded row
    /// with no more patterns than this is enumerated instead.
    pub trials_per_k: u64,
    /// Master seed: per-batch reseeding makes rows reproducible
    /// regardless of scheduling, mirroring `tornado_sim::monte_carlo`.
    pub seed: u64,
    /// Largest additional-loss count measured. Rows past it inherit the
    /// last measured fraction through the profile's monotone completion,
    /// which is conservative (failure probability never decreases in the
    /// loss count), so a small `max_k` still yields a sound upper tail.
    pub max_k: usize,
}

impl Default for ConditionalConfig {
    fn default() -> Self {
        Self {
            trials_per_k: 4_000,
            seed: 0x7042_6F72_6E61_646F,
            max_k: 8,
        }
    }
}

/// Builds `P(fail | j additional losses)` for `j = 0..=max_k`, with the
/// nodes in `missing` *already* erased in every trial.
///
/// The returned profile covers the `n − |missing|` remaining nodes, so it
/// composes with the binomial model over the devices still standing.
/// Row 0 is the exact decodability of the current pattern; a later row is
/// enumerated when its `C(n − |missing|, j)` patterns are no more than the
/// `trials_per_k` its sample would draw, and sampled otherwise. With
/// `missing` empty every row is sampled through [`sample_level`], so the
/// result is identical to `monte_carlo_profile` over the same `j` range,
/// seed, and trial count.
///
/// [`sample_level`]: tornado_sim::monte_carlo::sample_level
///
/// # Panics
/// Panics if any missing index is out of range or repeated.
pub fn conditional_failure_profile(
    graph: &Graph,
    missing: &[usize],
    cfg: &ConditionalConfig,
) -> FailureProfile {
    let n_rem = complement(graph.num_nodes(), missing).len();
    let mut profile = FailureProfile::new(n_rem);
    if !missing.is_empty() {
        profile.record(0, 1, failures(graph, missing, 0), true);
    }
    for j in 1..=cfg.max_k.min(n_rem) {
        let patterns = binomial_u128(n_rem as u64, j as u64);
        if !missing.is_empty() && patterns <= u128::from(cfg.trials_per_k) {
            profile.record(j, patterns as u64, failures(graph, missing, j), true);
        } else {
            let sampled = sample_level_observed(
                graph,
                missing,
                j,
                cfg.trials_per_k,
                cfg.seed,
                &SimObserver::disabled(),
            );
            profile.record(j, cfg.trials_per_k, sampled, false);
        }
    }
    profile
}

/// Composes a conditional profile with the binomial failure model over the
/// remaining devices: the live analogue of
/// [`crate::reliability::system_failure_probability`]. `p_device` is the
/// per-device failure probability over the modelled horizon (see
/// [`horizon_failure_probability`]).
pub fn conditional_failure_probability(
    graph: &Graph,
    missing: &[usize],
    p_device: f64,
    cfg: &ConditionalConfig,
) -> f64 {
    let profile = conditional_failure_profile(graph, missing, cfg);
    compose_failure_probability(
        profile.num_nodes() as u64,
        p_device,
        &profile.conditional_vec(),
    )
}

/// Per-device failure probability over `horizon_hours`, from an annual
/// failure rate: `1 − (1 − afr)^(horizon/year)` (independent exponential
/// failures, the paper's no-repair convention).
pub fn horizon_failure_probability(afr: f64, horizon_hours: f64) -> f64 {
    assert!((0.0..=1.0).contains(&afr), "afr {afr} is not a probability");
    assert!(horizon_hours >= 0.0);
    1.0 - (1.0 - afr).powf(horizon_hours / HOURS_PER_YEAR)
}

/// MTTDL-style summary of a composed loss probability: the mean time to
/// data loss implied by `P(loss over horizon) = p_loss` under a constant
/// hazard rate. `0` losses → infinite MTTDL; certainty → 0.
pub fn mttdl_hours(p_loss: f64, horizon_hours: f64) -> f64 {
    assert!(horizon_hours > 0.0);
    if p_loss <= 0.0 {
        return f64::INFINITY;
    }
    let p = p_loss.min(1.0);
    // P(loss by t) = 1 − e^(−t/MTTDL)  ⇒  MTTDL = −t / ln(1 − p).
    -horizon_hours / (1.0 - p).ln()
}

/// Minimum number of *additional* node losses (beyond `missing`) that
/// makes the graph unrecoverable, searched exhaustively up to `cap`:
///
/// * `0` — the current pattern is already undecodable;
/// * `1..=cap` — an exact margin (some set of that size fails, none
///   smaller does);
/// * `cap + 1` — every pattern with up to `cap` further losses decodes;
///   the true margin is at least this value.
///
/// # Panics
/// Panics if any missing index is out of range or repeated.
pub fn risk_margin(graph: &Graph, missing: &[usize], cap: usize) -> usize {
    let cap = cap.min(graph.num_nodes().saturating_sub(missing.len()));
    (0..=cap)
        .find(|&j| failures(graph, missing, j) > 0)
        .unwrap_or(cap + 1)
}

/// How many of the `C(n − |base|, j)` ways to lose `j` more nodes on top
/// of `base` leave data unrecoverable — every one, peeled side by side:
/// `base` in every lane of a [`LaneDecoder`], one `j`-subset of the rest
/// per lane (`j = 0` is `base` itself, one pattern).
fn failures(graph: &Graph, base: &[usize], j: usize) -> u64 {
    let rest = complement(graph.num_nodes(), base);
    let mut lanes = LaneDecoder::new(graph);
    let mut subsets = CombinationIter::new(rest.len(), j);
    let (mut failures, mut group) = (0, 0);
    while let Some(idxs) = subsets.next_slice() {
        if group == 0 {
            lanes.load_all(base);
        }
        for &i in idxs {
            lanes.load(group, &[rest[i]]);
        }
        group += 1;
        if group == LaneDecoder::LANES {
            failures += lanes.run(group);
            group = 0;
        }
    }
    failures + lanes.run(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::system_failure_probability;
    use tornado_codec::ErasureDecoder;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::regular::generate_regular;
    use tornado_sim::{monte_carlo_profile, MonteCarloConfig};

    #[test]
    fn healthy_fleet_matches_offline_model_exactly() {
        // The tentpole acceptance bar: with zero observed failures the
        // live estimate IS the offline §5.1 number — same sampling stream,
        // same composition, bit-for-bit.
        let g = generate_regular(24, 3, 7).unwrap();
        let cfg = ConditionalConfig {
            trials_per_k: 3_000,
            seed: 99,
            max_k: 6,
        };
        let offline = monte_carlo_profile(
            &g,
            &MonteCarloConfig {
                trials_per_k: cfg.trials_per_k,
                seed: cfg.seed,
                ks: Some((1..=cfg.max_k).collect()),
            },
        );
        let afr = 0.01;
        let live = conditional_failure_probability(&g, &[], afr, &cfg);
        assert_eq!(live, system_failure_probability(&offline, afr));
    }

    #[test]
    fn degraded_fleet_is_strictly_riskier() {
        let g = generate_mirror(8).unwrap(); // 16 nodes, pairs (i, i+8)
        let cfg = ConditionalConfig {
            trials_per_k: 2_000,
            seed: 5,
            max_k: 6,
        };
        let afr = 0.01;
        let healthy = conditional_failure_probability(&g, &[], afr, &cfg);
        let degraded = conditional_failure_probability(&g, &[0, 3], afr, &cfg);
        assert!(
            degraded > healthy,
            "degraded {degraded} must exceed healthy {healthy}"
        );
    }

    #[test]
    fn conditional_profile_rows_are_exact_for_small_counts() {
        // Mirror of 4 pairs, node 0 missing: decoding fails exactly when
        // node 4 (its mirror) also goes. Row 1 enumerates C(7,1) = 7
        // patterns, one fatal.
        let g = generate_mirror(4).unwrap();
        let p = conditional_failure_profile(&g, &[0], &ConditionalConfig::default());
        assert_eq!(p.num_nodes(), 7);
        let e0 = p.entry(0);
        assert!(e0.exact);
        assert_eq!(e0.failures, 0, "one missing node always decodes");
        let e1 = p.entry(1);
        assert!(e1.exact);
        assert_eq!((e1.trials, e1.failures), (7, 1));
        // Row 2: C(7,2) = 21 patterns; fatal iff node 4 is in the pair
        // (6 ways) or the pair is itself a mirror pair ({1,5},{2,6},{3,7}).
        let e2 = p.entry(2);
        assert!(e2.exact);
        assert_eq!((e2.trials, e2.failures), (21, 9));
    }

    #[test]
    fn undecodable_pattern_composes_to_near_certain_loss() {
        let g = generate_mirror(4).unwrap();
        let cfg = ConditionalConfig::default();
        // A whole mirror pair gone: row 0 fails, so P(loss) = 1 regardless
        // of further failures.
        let p = conditional_failure_probability(&g, &[0, 4], 0.01, &cfg);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn risk_margin_matches_brute_force_on_small_graphs() {
        let graphs = [
            generate_mirror(4).unwrap(),
            generate_regular(12, 3, 1).unwrap(),
        ];
        let missing_sets: [&[usize]; 4] = [&[], &[0], &[0, 3], &[1, 2, 5]];
        for g in &graphs {
            for missing in missing_sets {
                let cap = 3;
                let got = risk_margin(g, missing, cap);
                let want = brute_force_margin(g, missing, cap);
                assert_eq!(got, want, "graph n={} missing {missing:?}", g.num_nodes());
            }
        }
    }

    /// Independent oracle: test every subset of the remaining nodes up to
    /// `cap` by bitmask enumeration through the bit-row decoder, one pattern
    /// at a time (no shared combination walker, and not the lane kernel
    /// `risk_margin` runs; codec's parity suite holds the two kernels equal
    /// to each other and to the dense reference decoder).
    fn brute_force_margin(g: &Graph, missing: &[usize], cap: usize) -> usize {
        let n = g.num_nodes();
        let mut dec = ErasureDecoder::new(g);
        if !dec.decode(missing) {
            return 0;
        }
        let remaining: Vec<usize> = (0..n).filter(|i| !missing.contains(i)).collect();
        let mut best = cap.min(remaining.len()) + 1;
        for mask in 1u64..(1 << remaining.len()) {
            let size = mask.count_ones() as usize;
            if size > cap || size >= best {
                continue;
            }
            let mut pattern = missing.to_vec();
            for (i, &node) in remaining.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pattern.push(node);
                }
            }
            if !dec.decode(&pattern) {
                best = size;
            }
        }
        best
    }

    #[test]
    fn risk_margin_degenerate_cases() {
        let g = generate_mirror(4).unwrap();
        // A dead mirror pair is already unrecoverable.
        assert_eq!(risk_margin(&g, &[2, 6], 3), 0);
        // Healthy mirror: the closest failure is any one full pair, two
        // losses away.
        assert_eq!(risk_margin(&g, &[], 3), 2);
        // One node down: its mirror is a single loss away.
        assert_eq!(risk_margin(&g, &[5], 3), 1);
        // Cap smaller than the true margin reports cap + 1.
        assert_eq!(risk_margin(&g, &[], 1), 2);
    }

    #[test]
    fn horizon_probability_and_mttdl_behave() {
        assert_eq!(horizon_failure_probability(0.0, 1_000.0), 0.0);
        let year = horizon_failure_probability(0.01, HOURS_PER_YEAR);
        assert!((year - 0.01).abs() < 1e-12);
        let month = horizon_failure_probability(0.01, HOURS_PER_YEAR / 12.0);
        assert!(month > 0.0 && month < year);

        assert_eq!(mttdl_hours(0.0, 100.0), f64::INFINITY);
        let m = mttdl_hours(1e-6, 8_766.0);
        // Small p: MTTDL ≈ horizon / p.
        assert!((m - 8_766.0 / 1e-6).abs() / m < 1e-3, "got {m}");
        assert_eq!(mttdl_hours(1.0, 10.0), 0.0);
    }

    #[test]
    fn sampled_conditional_rows_are_deterministic() {
        let g = generate_regular(24, 3, 3).unwrap();
        let cfg = ConditionalConfig {
            trials_per_k: 2_000,
            seed: 42,
            max_k: 5,
        };
        let a = conditional_failure_profile(&g, &[1, 7], &cfg);
        let b = conditional_failure_profile(&g, &[1, 7], &cfg);
        assert_eq!(a, b);
        let c = conditional_failure_profile(&g, &[1, 7], &ConditionalConfig { seed: 43, ..cfg });
        assert_ne!(a, c, "different seed, different stream");
    }
}
