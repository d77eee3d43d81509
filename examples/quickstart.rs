//! Quickstart: encode data with a certified Tornado graph, lose devices,
//! recover everything.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tornado::codec::Codec;
use tornado::core::catalog;
use tornado::graph::DegreeStats;

fn main() {
    // A precompiled 96-node Tornado Code graph (48 data + 48 check nodes),
    // certified by exhaustive search to survive any four device failures.
    let graph = catalog::tornado_graph_1();
    let stats = DegreeStats::of(&graph);
    println!(
        "graph: {} nodes, {} edges, {:.2} edges/node, levels {:?}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_edges() as f64 / graph.num_nodes() as f64,
        graph.levels().iter().map(|l| l.len()).collect::<Vec<_>>(),
    );
    println!("check degree range: {:?}", stats.check_degree_range);

    // Encode 48 data blocks into 96 stored blocks (rate 1/2 — the same
    // 50% capacity overhead as RAID 10, with far better fault tolerance).
    let codec = Codec::new(&graph);
    let data: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 1024]).collect();
    let blocks = codec.encode(&data).expect("48 equal-length blocks");
    println!(
        "encoded {} data blocks into {} stored blocks",
        data.len(),
        blocks.len()
    );

    // Lose any four devices — data AND parity, mixed.
    let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
    let lost = [7usize, 23, 56, 88];
    for &l in &lost {
        stored[l] = None;
    }
    println!("lost devices {lost:?}");

    // Peeling decode recovers every block.
    let report = codec.decode(&mut stored).expect("well-formed stripe");
    assert!(report.complete());
    println!("recovered nodes in order: {:?}", report.recovered);
    for (i, d) in data.iter().enumerate() {
        assert_eq!(stored[i].as_deref().unwrap(), &d[..]);
    }
    println!("all 48 data blocks verified intact");
}
