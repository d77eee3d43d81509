//! Two-site data stewarding with complementary Tornado graphs (paper §5.3).
//!
//! Both sites hold every object, each protected by a *different* certified
//! graph. When failures at both sites individually defeat reconstruction,
//! the joint cross-site decode — the paper's block exchange — still
//! recovers the data, and anti-entropy repair restores both sites.
//!
//! ```text
//! cargo run --release --example federated_stewarding
//! ```

use tornado::sim::multi::{first_failure_detected, FederatedSearchConfig};
use tornado::store::federation::FetchPath;
use tornado::store::scrubber::scrub;
use tornado::store::{FederatedStore, StoreError};

fn main() {
    // Complementary graphs: different random wiring, same certification.
    let graph_a = tornado::core::catalog::tornado_graph_1();
    let graph_b = tornado::core::catalog::tornado_graph_2();
    let fed = FederatedStore::new(graph_a.clone(), graph_b.clone());
    println!(
        "federation: 2 sites x 96 devices, complementary graphs {:#x} / {:#x}",
        graph_a.fingerprint(),
        graph_b.fingerprint()
    );

    let id = fed
        .put("national-archive/records-1942.tar", &vec![0x42; 100_000])
        .expect("replicated ingest");
    println!("object {id} replicated to both sites");

    // Find a small device set that kills site A's graph, using the same
    // targeted search the Table 7 experiment uses on site A alone.
    let cfg = FederatedSearchConfig {
        seed: 42,
        rounds_per_node: 16,
        exhaustive_seed_depth: 0,
    };
    let block_a = tornado::sim::multi::min_blocking_upper_bound(&graph_a, 0, cfg.seed, 24);
    println!("critical set for data block 0 at site A: {block_a:?}");
    for &d in &block_a {
        fed.site_a().fail_device(d).unwrap();
    }
    assert!(matches!(
        fed.site_a().get(id),
        Err(StoreError::Unrecoverable { .. })
    ));
    println!("site A can no longer reconstruct on its own");

    // The scrubber quantifies the damage: every stripe on site A is past
    // the graph's worst-case bound (negative margin ⇒ urgent).
    let health = scrub(fed.site_a(), 5, false);
    println!(
        "site A scrub: {} stripes, {} degraded, {} urgent, {} unrecoverable",
        health.stripes.len(),
        health.degraded_count(),
        health.urgent_count(),
        health.objects_incomplete.len()
    );

    // Site B serves the read.
    let (payload, path) = fed.get(id).expect("federated read");
    assert_eq!(payload.len(), 100_000);
    assert_eq!(path, FetchPath::SiteB);
    println!("federated read satisfied by site B");

    // Now damage site B too — but differently; the joint decode survives.
    let block_b = tornado::sim::multi::min_blocking_upper_bound(&graph_b, 1, cfg.seed, 24);
    for &d in &block_b {
        fed.site_b().fail_device(d).unwrap();
    }
    println!("failed site B's critical set for data block 1: {block_b:?}");
    assert!(matches!(
        fed.site_b().get(id),
        Err(StoreError::Unrecoverable { .. })
    ));
    let (payload, path) = fed.get(id).expect("cross-site decode");
    assert_eq!(payload.len(), 100_000);
    let FetchPath::CrossSite { blocks_crossed } = path else {
        panic!("expected a cross-site decode, got {path:?}");
    };
    println!(
        "both sites individually failed; cross-site exchange recovered the object \
         ({blocks_crossed} site-B blocks crossed)"
    );

    // Replace drives and repair by exchange.
    for &d in &block_a {
        fed.site_a().replace_device(d).unwrap();
    }
    for &d in &block_b {
        fed.site_b().replace_device(d).unwrap();
    }
    let report = fed.exchange_repair(id).expect("anti-entropy");
    println!(
        "exchange repair restored {} blocks across the federation \
         ({} blocks / {} bytes crossed sites)",
        report.blocks_restored, report.blocks_crossed, report.bytes_crossed
    );
    let (_, path) = fed.get(id).expect("post-repair read");
    assert_eq!(path, FetchPath::SiteA);
    println!("site A self-sufficient again");

    let healed = scrub(fed.site_a(), 5, false);
    assert_eq!(healed.degraded_count(), 0);
    assert_eq!(healed.urgent_count(), 0);
    println!(
        "post-repair scrub: {} stripes, 0 degraded, 0 urgent",
        healed.stripes.len()
    );

    // How much better is a complementary pair than doubling up one graph?
    let same = first_failure_detected(&graph_a, &graph_a, &cfg);
    let diff = first_failure_detected(&graph_a, &graph_b, &cfg);
    println!(
        "first failure detected: same-graph pair = {} devices, complementary pair = {} devices",
        same.size(),
        diff.size()
    );
}
