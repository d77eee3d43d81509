//! Scrub-interval reliability sweep (extends Table 5 toward §6).
//!
//! Table 5 assumes no repair; the paper's §6 scrubber exists precisely to
//! beat that. This ablation sweeps the number of annual scrub/repair
//! passes for the Table 5 systems and reports the simulated annual data
//! loss probability. Expected shape: striping gains nothing (any failure
//! is instantly fatal), parity systems gain polynomially, and the Tornado
//! system's loss probability falls below measurement resolution almost
//! immediately.

use crate::effort::Effort;
use std::fmt::Write as _;
use tornado_analysis::analytic::GroupSystem;
use tornado_analysis::lifetime::{simulate_graph_lifetime, simulate_lifetime, LifetimeConfig};
use tornado_gen::mirror::generate_mirror;

/// The sweep of scrubs-per-year (0 = Table 5's model).
pub(crate) const SCRUBS: [usize; 4] = [0, 4, 12, 52];

/// Runs the sweep.
pub(crate) fn run(effort: &Effort) -> String {
    let trials = (effort.mc_trials * 5).clamp(50_000, 2_000_000);
    let afr = 0.01;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Scrub sweep — simulated annual P(data loss), AFR = {afr}, {trials} trials"
    );
    let _ = writeln!(out, "system, scrubs_per_year, p_loss");

    let base = |scrubs: usize| LifetimeConfig {
        afr,
        scrubs,
        trials,
        seed: effort.seed,
    };

    for &scrubs in &SCRUBS {
        let r = simulate_lifetime(96, &base(scrubs), |p| !p.is_empty());
        let _ = writeln!(out, "Striping, {scrubs}, {:.6}", r.loss_probability());
    }
    for (label, sys) in [
        ("RAID5", GroupSystem::raid5_paper()),
        ("RAID6", GroupSystem::raid6_paper()),
    ] {
        for &scrubs in &SCRUBS {
            let r = simulate_lifetime(96, &base(scrubs), |p| sys.pattern_fails(p));
            let _ = writeln!(out, "{label}, {scrubs}, {:.6}", r.loss_probability());
        }
    }
    let mirror = generate_mirror(48).expect("mirror");
    for &scrubs in &SCRUBS {
        let r = simulate_graph_lifetime(&mirror, &base(scrubs));
        let _ = writeln!(out, "Mirrored, {scrubs}, {:.6}", r.loss_probability());
    }
    let tornado = tornado_core::tornado_graph_1();
    for &scrubs in &SCRUBS {
        let r = simulate_graph_lifetime(&tornado, &base(scrubs));
        let _ = writeln!(
            out,
            "Tornado Graph 1, {scrubs}, {:.6}",
            r.loss_probability()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_expected_shape() {
        let report = run(&Effort::smoke());
        let value = |sys: &str, scrubs: usize| -> f64 {
            report
                .lines()
                .find(|l| l.starts_with(&format!("{sys}, {scrubs},")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("row {sys}/{scrubs} missing:\n{report}"))
        };
        // Striping is scrub-immune (within MC noise of the same estimate).
        let s0 = value("Striping", 0);
        let s52 = value("Striping", 52);
        assert!((s0 - s52).abs() < 0.05, "striping {s0} vs {s52}");
        assert!(s0 > 0.5, "striping must lose data often");
        // RAID5 benefits from weekly scrubs.
        assert!(value("RAID5", 52) < value("RAID5", 0));
        // Tornado with no repair is already ~0 at 96 devices/AFR 1%.
        assert!(value("Tornado Graph 1", 0) < 0.01);
    }
}
