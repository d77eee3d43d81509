//! The paper's §3 workflow end to end: generate a random Tornado graph,
//! screen it for structural defects, find its worst-case failure sets,
//! adjust it with the feedback procedure, and export the result.
//!
//! Uses 32-node graphs so the exhaustive sweeps finish instantly; swap in
//! `TornadoGenerator::new(48)` (and release mode) for the paper's scale.
//!
//! ```text
//! cargo run --release --example graph_workshop
//! ```

use tornado::analysis::adjust_graph;
use tornado::analysis::critical::critical_sets;
use tornado::gen::defects::find_stopping_sets;
use tornado::gen::TornadoGenerator;
use tornado::graph::{dot, graphml};
use tornado::sim::{worst_case_search, WorstCaseConfig};

fn main() {
    let generator = TornadoGenerator::new(16);

    // Step 1: raw random generation, checking for the §3.2 defects.
    let mut seed = 1u64;
    let raw = loop {
        let g = generator.generate(seed).expect("generation");
        let defects = find_stopping_sets(&g, 3);
        if defects.is_empty() {
            println!("seed {seed}: passes the structural screen");
            break g;
        }
        println!("seed {seed}: rejected, stopping sets {defects:?}");
        seed += 1;
    };

    // Step 2: worst-case search — the testing system.
    let search_cfg = WorstCaseConfig {
        max_k: 3,
        collect_cap: 64,
        stop_at_first_failure: false,
    };
    let report = worst_case_search(&raw, &search_cfg);
    for level in &report.levels {
        println!(
            "k = {}: {} failures in {} cases",
            level.k, level.failures, level.cases
        );
    }

    match report.first_failure() {
        Some(k) => {
            // Step 3: render the failures the way the paper does.
            let sets = critical_sets(&raw, &report.levels[k - 1].failure_sets);
            println!("first failure at k = {k}; critical structure:");
            for s in sets.iter().take(3) {
                println!("{}", s.render());
                println!("--");
            }
        }
        None => println!("no failures up to k = {}", search_cfg.max_k),
    }

    // Step 4: feedback adjustment toward first failure 4 (32-node scale of
    // the paper's 4 → 5 improvement).
    let outcome = adjust_graph(&raw, 4);
    for step in &outcome.steps {
        println!(
            "rewired left node {}: check {} -> check {} (failures {} -> {})",
            step.left, step.from_check, step.to_check, step.failures_before, step.failures_after
        );
    }
    println!(
        "adjustment {}",
        if outcome.achieved() {
            "achieved the target".to_string()
        } else {
            format!(
                "stalled (first failure {:?})",
                outcome.first_failure_below_target
            )
        }
    );

    // Step 5: export for inspection — GraphML (the testing system's format)
    // and DOT with the first failure set highlighted, like the paper's
    // failed-graph renderings.
    let out_dir = std::env::temp_dir().join("tornado-workshop");
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    let gml = out_dir.join("adjusted.graphml");
    std::fs::write(&gml, graphml::to_graphml(&outcome.graph)).expect("write graphml");
    let final_report = worst_case_search(&outcome.graph, &search_cfg);
    let highlight: Vec<u32> = final_report
        .first_failure()
        .map(|k| {
            final_report.levels[k - 1].failure_sets[0]
                .iter()
                .map(|&n| n as u32)
                .collect()
        })
        .unwrap_or_default();
    let dot_path = out_dir.join("adjusted.dot");
    std::fs::write(
        &dot_path,
        dot::to_dot_highlighted(&outcome.graph, &highlight),
    )
    .expect("write dot");
    println!("exported {} and {}", gml.display(), dot_path.display());
}
