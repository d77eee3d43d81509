//! Regenerates the graph catalog into a directory you name.
//!
//! Runs the full §3 pipeline over successive seeds, keeps the first three
//! 96-node graphs certified to survive any four losses, measures their
//! k = 5 and k = 6 failure counts, and writes `tornado_graph_{1,2,3}.graphml`
//! plus a `PROVENANCE.txt` summary into `OUT_DIR`, which must exist. Run in
//! release:
//!
//! ```text
//! cargo run --release -p tornado-core --example make_catalog -- OUT_DIR
//! ```
//!
//! It never writes the committed assets under `crates/core/assets/`: the
//! current pipeline does not reproduce them (see `tornado_core::catalog`),
//! so compare before copying anything over them.

use std::path::PathBuf;
use tornado_core::pipeline::{build_profiled_graph, PipelineConfig};
use tornado_sim::worst_case::search_level;

fn main() {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let out = match args.as_slice() {
        [dir] if PathBuf::from(dir).is_dir() => PathBuf::from(dir),
        _ => {
            eprintln!(
                "usage: make_catalog OUT_DIR\n\
                 OUT_DIR must be an existing directory; it receives \
                 tornado_graph_{{1,2,3}}.graphml and PROVENANCE.txt"
            );
            std::process::exit(2);
        }
    };
    let mut kept = 0usize;
    let mut seed = 1u64;
    let mut provenance = String::new();
    while kept < 3 {
        let cfg = PipelineConfig {
            seed,
            ..PipelineConfig::default()
        };
        let profiled = match build_profiled_graph(&cfg) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("seed {seed}: generation failed: {e}");
                seed += 1;
                continue;
            }
        };
        if !profiled.achieved_target(cfg.target_first_failure) {
            eprintln!(
                "seed {seed}: stalled at first failure {:?}",
                profiled.first_failure
            );
            seed += 1;
            continue;
        }
        // Characterise the first failing level (the paper reports e.g. "14
        // losses out of 61,124,064" at k = 5).
        let [l5, l6] = [5, 6].map(|k| search_level(&profiled.graph, k, 0));
        kept += 1;
        let path = out.join(format!("tornado_graph_{kept}.graphml"));
        std::fs::write(&path, tornado_graph::graphml::to_graphml(&profiled.graph))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        let line = format!(
            "graph {kept}: seed {seed}, attempts {}, adjustments {}, fingerprint {:#018x}, \
             k5 failures {}/{}, k6 failures {}/{}\n",
            profiled.generation_attempts,
            profiled.adjustment_steps.len(),
            profiled.graph.fingerprint(),
            l5.failures,
            l5.cases,
            l6.failures,
            l6.cases,
        );
        print!("{line}");
        provenance.push_str(&line);
        seed += 1;
    }
    let path = out.join("PROVENANCE.txt");
    std::fs::write(&path, provenance).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}
