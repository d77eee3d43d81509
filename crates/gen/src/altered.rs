//! Altered Tornado distributions (paper §4.3, Fig. 5 / Table 3).
//!
//! The paper tests "several alterations of Tornado Code graphs. For
//! example, these adjustments doubled the degree distribution or shifted
//! the degree distribution +1 edge. Altering Tornado Code graphs by
//! increasing the connectivity generally increased the first failure but
//! with the penalty of an earlier average failure point."

use crate::error::GenError;
use crate::tornado::{DistTransform, TornadoGenerator};
use tornado_graph::Graph;

/// Generates a Tornado graph whose per-stage left distribution has every
/// degree doubled.
pub fn generate_doubled(num_data: usize, seed: u64) -> Result<Graph, GenError> {
    TornadoGenerator::with_transform(num_data, DistTransform::Doubled).generate(seed)
}

/// Generates a Tornado graph whose per-stage left distribution has every
/// degree shifted by +1.
pub fn generate_shifted(num_data: usize, seed: u64) -> Result<Graph, GenError> {
    TornadoGenerator::with_transform(num_data, DistTransform::Shifted).generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::DegreeStats;

    #[test]
    fn doubled_has_higher_connectivity() {
        let base = TornadoGenerator::new(48).generate(11).unwrap();
        let doubled = generate_doubled(48, 11).unwrap();
        let base_deg = DegreeStats::of(&base).mean_degree_per_node;
        let doubled_deg = DegreeStats::of(&doubled).mean_degree_per_node;
        assert!(
            doubled_deg > base_deg * 1.3,
            "doubled {doubled_deg} vs base {base_deg}"
        );
        assert_eq!(doubled.num_nodes(), 96);
    }

    #[test]
    fn shifted_increases_degree_by_about_one() {
        let base = TornadoGenerator::new(48).generate(11).unwrap();
        let shifted = generate_shifted(48, 11).unwrap();
        let d_base = DegreeStats::of(&base).mean_degree_per_node;
        let d_shift = DegreeStats::of(&shifted).mean_degree_per_node;
        assert!(d_shift > d_base + 0.3, "shift {d_shift} vs base {d_base}");
        assert!(
            d_shift < d_base + 3.5,
            "shift {d_shift} should add roughly one edge per left node (2 per 2E/N), got base {d_base}"
        );
    }

    #[test]
    fn altered_graphs_are_valid_and_rate_half() {
        for g in [
            generate_doubled(48, 5).unwrap(),
            generate_shifted(48, 5).unwrap(),
        ] {
            g.validate().unwrap();
            assert_eq!(g.num_data(), 48);
            assert_eq!(g.num_checks(), 48);
        }
    }

    #[test]
    fn screened_variants_produce_clean_graphs() {
        let (g, _) = crate::screened(21, 3, |s| generate_doubled(48, s)).unwrap();
        assert!(crate::defects::screen(&g, 3).is_ok());
        let (g, _) = crate::screened(21, 3, |s| generate_shifted(48, s)).unwrap();
        assert!(crate::defects::screen(&g, 3).is_ok());
    }
}
