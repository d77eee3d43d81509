//! Precompiled, certified 96-node Tornado graphs.
//!
//! The paper's recommendation (§7): production systems "should use
//! precompiled graphs and not random graphs". These three graphs play the
//! role of the paper's "Tornado Graph 1–3": produced by the §3 pipeline
//! (screened generation + feedback adjustment), each certified by full
//! combinatorial search to survive **any four device failures** (first
//! failure at five lost nodes, like the paper's best graphs).
//!
//! The graphs are embedded as GraphML (the paper's own storage format);
//! `assets/PROVENANCE.txt` records the seeds, adjustment counts and
//! fingerprints they were made with, and their measured k = 5 and k = 6
//! failure counts (re-derived by the `--ignored` release test in
//! `tests/regression.rs`).
//!
//! The committed assets are the catalog; the pipeline that made them has
//! since changed, so the seed column is history, not a recipe. `cargo run
//! --release -p tornado-core --example make_catalog -- OUT_DIR` runs the
//! current pipeline, and from seed 1 it makes a graph 1 with fingerprint
//! 0xb9e30fa1fe245c88, not the committed 0x8aa161a00049e572. Until the
//! pipeline is pinned to reproduce the assets or the assets are declared
//! frozen, nothing regenerates them in place.

use tornado_graph::{graphml, Graph};

/// Parses an embedded asset, panicking with context on corruption (the
/// assets are test-covered, so this only fires on a broken build).
fn load(name: &str, xml: &str) -> Graph {
    graphml::from_graphml(xml)
        .unwrap_or_else(|e| panic!("embedded catalog graph {name} is corrupt: {e}"))
}

/// The paper-style "Tornado Graph 1": 48 data + 48 check nodes, certified
/// first failure at 5 lost nodes.
pub fn tornado_graph_1() -> Graph {
    load("1", include_str!("../assets/tornado_graph_1.graphml"))
}

/// "Tornado Graph 2" — same certification, independent random wiring.
pub fn tornado_graph_2() -> Graph {
    load("2", include_str!("../assets/tornado_graph_2.graphml"))
}

/// "Tornado Graph 3" — same certification, independent random wiring.
pub fn tornado_graph_3() -> Graph {
    load("3", include_str!("../assets/tornado_graph_3.graphml"))
}

/// All three catalog graphs with their paper-style labels.
pub fn all() -> Vec<(&'static str, Graph)> {
    vec![
        ("Tornado Graph 1", tornado_graph_1()),
        ("Tornado Graph 2", tornado_graph_2()),
        ("Tornado Graph 3", tornado_graph_3()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_sim::worst_case::search_level;

    #[test]
    fn catalog_graphs_have_paper_shape() {
        for (label, g) in all() {
            assert_eq!(g.num_data(), 48, "{label}");
            assert_eq!(g.num_checks(), 48, "{label}");
            g.validate().unwrap();
            let shape: Vec<usize> = g.levels().iter().map(|l| l.len()).collect();
            assert_eq!(shape, vec![48, 24, 12, 6, 6], "{label}");
        }
    }

    #[test]
    fn catalog_graphs_are_distinct() {
        let fps: Vec<u64> = all().iter().map(|(_, g)| g.fingerprint()).collect();
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[1], fps[2]);
        assert_ne!(fps[0], fps[2]);
    }

    #[test]
    fn no_failures_at_k2_quick_check() {
        // Full certification to k = 4 runs in the release-mode experiment
        // suite (and `catalog_graphs_survive_any_four_losses` below); debug
        // tests keep to the cheap levels.
        for (label, g) in all() {
            assert_eq!(search_level(&g, 1, 4).failures, 0, "{label}");
            assert_eq!(search_level(&g, 2, 4).failures, 0, "{label}");
        }
    }

    #[test]
    #[ignore = "exhaustive C(96,3)+C(96,4) sweep; run with --ignored --release"]
    fn catalog_graphs_survive_any_four_losses() {
        for (label, g) in all() {
            assert_eq!(search_level(&g, 3, 4).failures, 0, "{label}");
            assert_eq!(search_level(&g, 4, 4).failures, 0, "{label}");
        }
    }

    #[test]
    #[ignore = "certificate-guided B&B over 48 data nodes; run with --ignored --release"]
    fn catalog_minimum_distance_is_exactly_five() {
        // Independent verification of the certification: the exact
        // branch-and-bound must find no blocking set of size ≤ 4 and a
        // witness of size 5 (matching the k = 5 failure counts recorded in
        // PROVENANCE.txt).
        for (label, g) in all() {
            let found = tornado_analysis::minimum_distance(&g, 5);
            match found {
                Some((5, witness)) => {
                    let mut dec = tornado_codec::ErasureDecoder::new(&g);
                    assert!(!dec.decode(&witness), "{label}: witness must fail");
                }
                other => panic!("{label}: expected distance 5, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_and_double_losses_decode_with_real_data() {
        let g = tornado_graph_1();
        let codec = tornado_codec::Codec::new(&g);
        let data: Vec<Vec<u8>> = (0..48).map(|i| vec![i as u8; 32]).collect();
        let blocks = codec.encode(&data).unwrap();
        for lost in [vec![0usize], vec![47, 95], vec![10, 60]] {
            let mut stored: Vec<Option<Vec<u8>>> = blocks.iter().cloned().map(Some).collect();
            for &l in &lost {
                stored[l] = None;
            }
            let report = codec.decode(&mut stored).unwrap();
            assert!(report.complete(), "losing {lost:?}");
            for i in 0..48 {
                assert_eq!(stored[i].as_deref().unwrap(), &data[i][..]);
            }
        }
    }
}
