//! Property-based tests for the graph model and its serialisations.

use proptest::prelude::*;
use tornado_graph::{dot, graphml, Graph, GraphBuilder};

/// Random small cascade described as per-level neighbour picks.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..12, proptest::collection::vec(any::<u64>(), 1..12)).prop_map(|(num_data, picks)| {
        let mut b = GraphBuilder::new(num_data);
        b.begin_level("l0");
        for (i, seed) in picks.iter().enumerate() {
            let total = num_data as u32 + i as u32;
            if i > 0 && seed % 5 == 0 {
                b.begin_level(&format!("l{i}"));
            }
            // 1–3 distinct neighbours among existing nodes.
            let mut s = *seed | 1;
            let want = 1 + (s % 3) as usize;
            let mut nbrs = Vec::new();
            while nbrs.len() < want.min(total as usize) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let cand = (s % total as u64) as u32;
                if !nbrs.contains(&cand) {
                    nbrs.push(cand);
                }
            }
            b.add_check(&nbrs);
        }
        b.build().expect("constructed graphs are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Validation accepts everything the builder accepts.
    #[test]
    fn built_graphs_validate(g in arb_graph()) {
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_nodes(), g.num_data() + g.num_checks());
    }

    /// Forward and reverse adjacency describe the same edge set.
    #[test]
    fn adjacency_is_an_involution(g in arb_graph()) {
        for c in g.check_ids() {
            for &n in g.check_neighbors(c) {
                prop_assert!(g.checks_of(n).contains(&c), "edge {n}->{c} missing in reverse");
            }
        }
        for v in 0..g.num_nodes() as u32 {
            for &c in g.checks_of(v) {
                prop_assert!(g.check_neighbors(c).contains(&v));
            }
        }
        let forward: usize = g.check_ids().map(|c| g.check_neighbors(c).len()).sum();
        prop_assert_eq!(forward, g.num_edges());
    }

    /// Levels partition the id space and level_of is consistent.
    #[test]
    fn levels_partition_ids(g in arb_graph()) {
        let mut covered = 0u32;
        for level in g.levels() {
            prop_assert_eq!(level.start, covered);
            covered = level.end;
            for id in level.nodes() {
                prop_assert_eq!(g.level_of(id).label.clone(), level.label.clone());
            }
        }
        prop_assert_eq!(covered as usize, g.num_nodes());
    }

    /// GraphML round-trips arbitrary graphs; fingerprints are stable.
    #[test]
    fn graphml_roundtrip(g in arb_graph()) {
        let back = graphml::from_graphml(&graphml::to_graphml(&g)).expect("parse");
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(back.fingerprint(), g.fingerprint());
    }

    /// Rebuilding through a builder is the identity.
    #[test]
    fn builder_roundtrip(g in arb_graph()) {
        prop_assert_eq!(g.to_builder().build().expect("rebuild"), g);
    }

    /// DOT output mentions every node and edge exactly once.
    #[test]
    fn dot_covers_everything(g in arb_graph()) {
        let rendered = dot::to_dot(&g);
        for v in 0..g.num_nodes() {
            prop_assert!(rendered.contains(&format!("n{v} [")), "node {v} missing");
        }
        let edge_lines = rendered.lines().filter(|l| l.contains("->")).count();
        prop_assert_eq!(edge_lines, g.num_edges());
    }
}
