//! System reliability under independent device failures
//! (paper §5.1, Eqs. 2–3, Table 5).

use tornado_numerics::{compose_failure_probability, BinomialFailureModel};
use tornado_sim::FailureProfile;

/// One row of a Table 5-style reliability report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliabilityRow {
    /// System label (e.g. "RAID5", "Tornado Graph 1").
    pub system: String,
    /// Data devices presented to the user.
    pub data_devices: usize,
    /// Parity devices.
    pub parity_devices: usize,
    /// `P(fail)` over the modelled period (paper: one year, AFR = 0.01, no
    /// repair).
    pub p_fail: f64,
}

impl ReliabilityRow {
    /// Formats the probability the way the paper's Table 5 does (fixed
    /// point for large values, scientific for tiny ones).
    pub fn formatted_p_fail(&self) -> String {
        if self.p_fail >= 1e-4 {
            format!("{:.5}", self.p_fail)
        } else {
            format!("{:.3E}", self.p_fail)
        }
    }
}

/// Composes a conditional failure profile with the binomial failure model:
/// `P(fail) = Σ_k P(fail | k lost) · P(k lost)` (Eq. 3) with
/// `P(k lost) = C(n,k) p^k (1-p)^(n-k)` (Eq. 2).
pub fn system_failure_probability(profile: &FailureProfile, afr: f64) -> f64 {
    let n = profile.num_nodes() as u64;
    compose_failure_probability(n, afr, &profile.conditional_vec())
}

/// `P(fail)` for a striped system of `n` devices: any device failure loses
/// data. Closed form `1 − (1−p)ⁿ`; Table 5 reports 0.61895 for `n = 96`,
/// `p = 0.01`.
pub fn striping_failure_probability(n: u64, afr: f64) -> f64 {
    let m = BinomialFailureModel::new(n, afr);
    1.0 - m.pmf(0)
}

/// `P(fail)` for a single independent device — Table 5's "Individual Disk"
/// row, which is just the AFR itself.
pub fn individual_disk_failure_probability(afr: f64) -> f64 {
    afr
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_sim::mirror::mirrored_profile;

    const AFR: f64 = 0.01;

    #[test]
    fn striping_matches_table5() {
        let p = striping_failure_probability(96, AFR);
        assert!((p - 0.61895).abs() < 5e-5, "got {p}");
    }

    #[test]
    fn individual_disk_is_afr() {
        assert_eq!(individual_disk_failure_probability(AFR), 0.01);
    }

    #[test]
    fn mirrored_system_matches_table5() {
        // Table 5: Mirrored (48+48) → P(fail) = 0.00479.
        let profile = mirrored_profile(48);
        let p = system_failure_probability(&profile, AFR);
        assert!((p - 0.00479).abs() < 5e-5, "got {p}");
    }

    #[test]
    fn perfect_system_never_fails() {
        // All-zero conditional profile → P(fail) = 0.
        let profile = FailureProfile::new(96); // only k=0 measured (never fails)
        let p = system_failure_probability(&profile, AFR);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn always_failing_system_fails_with_any_loss() {
        let mut profile = FailureProfile::new(8);
        for k in 1..=8 {
            profile.record(k, 1, 1, true);
        }
        let p = system_failure_probability(&profile, AFR);
        let expected = 1.0 - (1.0f64 - AFR).powi(8);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn first_failure_level_dominates() {
        // Paper §5.1: "the reliability of the entire system is dominated by
        // the worst case failures". A profile failing from k = 5 should be
        // orders of magnitude more reliable than one failing from k = 2.
        let mut early = FailureProfile::new(96);
        let mut late = FailureProfile::new(96);
        for k in 1..=96u64 {
            early.record(k as usize, 1000, if k >= 2 { 10 } else { 0 }, false);
            late.record(k as usize, 1000, if k >= 5 { 10 } else { 0 }, false);
        }
        let pe = system_failure_probability(&early, AFR);
        let pl = system_failure_probability(&late, AFR);
        // P(≥2 of 96 fail) / P(≥5 fail) ≈ 86 at AFR 0.01.
        assert!(pe > 50.0 * pl, "early {pe} vs late {pl}");
    }

    #[test]
    fn row_formatting_matches_table_style() {
        let row = ReliabilityRow {
            system: "Tornado Graph 1".into(),
            data_devices: 48,
            parity_devices: 48,
            p_fail: 1.34e-9,
        };
        assert_eq!(row.formatted_p_fail(), "1.340E-9");
        let row2 = ReliabilityRow {
            system: "RAID5".into(),
            data_devices: 88,
            parity_devices: 8,
            p_fail: 0.04834,
        };
        assert_eq!(row2.formatted_p_fail(), "0.04834");
    }
}
