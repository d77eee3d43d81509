//! MAID-style workload replay: how many device activations does a
//! Tornado-coded archive actually need?
//!
//! The paper's deployment target is massive arrays of idle disks (§2.2),
//! where the operating cost of a read is the number of drives it spins up.
//! This example generates a synthetic archival workload (bulk ingest,
//! skewed retrievals, failures with delayed repair), replays it against a
//! 96-device store, and reports the activation savings of guided retrieval
//! over a naive full-stripe reader.
//!
//! ```text
//! cargo run --release --example maid_workload
//! ```

use tornado::store::workload::{device_load, generate_events, replay, Event, WorkloadConfig};
use tornado::store::ArchivalStore;

fn main() {
    let store = ArchivalStore::new(tornado::core::catalog::tornado_graph_3());
    let cfg = WorkloadConfig {
        objects: 30,
        reads: 400,
        seed: 2026,
    };
    let events = generate_events(&cfg, store.num_devices());
    let failures = events
        .iter()
        .filter(|e| matches!(e, Event::FailDevice { .. }))
        .count();
    println!(
        "replaying {} events ({} ingests, {} reads, {} failures, repair on)",
        events.len(),
        cfg.objects,
        cfg.reads,
        failures
    );

    let report = replay(&store, &events);
    println!(
        "reads served: {}/{}",
        report.reads_ok,
        report.reads_ok + report.reads_failed
    );
    println!(
        "bytes: {} ingested, {} served",
        report.bytes_ingested, report.bytes_served
    );
    println!(
        "device activations: {} guided vs {} naive — {:.0}% saved",
        report.blocks_fetched,
        report.blocks_naive,
        100.0 * report.activation_savings()
    );
    println!(
        "blocks re-encoded by repair scrubs: {}",
        report.blocks_repaired
    );

    // Load balance across the array (rotation spreads stripes).
    let loads = device_load(&store);
    let reads: Vec<u64> = loads.iter().map(|s| s.reads).collect();
    let (min, max) = (
        reads.iter().min().copied().unwrap_or(0),
        reads.iter().max().copied().unwrap_or(0),
    );
    let mean = reads.iter().sum::<u64>() as f64 / reads.len() as f64;
    println!("per-device reads: min {min}, mean {mean:.1}, max {max}");
    assert!(
        report.reads_failed == 0,
        "certified tolerance must cover this workload"
    );
}
