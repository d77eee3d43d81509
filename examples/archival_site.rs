//! A single-site archival storage system under failure: put objects, fail
//! drives, watch guided retrieval keep device traffic low, and let the
//! scrubber restore full redundancy onto replacement drives.
//!
//! This is the paper's MAID scenario (§2.2): the fewer devices a `get` has
//! to power on, the better.
//!
//! ```text
//! cargo run --release --example archival_site
//! ```

use tornado::core::catalog;
use tornado::store::scrubber::scrub;
use tornado::store::ArchivalStore;

fn main() {
    let store = ArchivalStore::new(catalog::tornado_graph_2());
    println!(
        "archival site: {} devices, rate-1/2 Tornado protection",
        store.num_devices()
    );

    // Ingest a small archive.
    let objects: Vec<(&str, Vec<u8>)> = vec![
        ("climate-1998.nc", vec![0xA1; 200_000]),
        ("census-rolls.tar", vec![0xB2; 64_000]),
        (
            "observatory-log",
            b"1998-06-12 03:11 seeing 0.8 arcsec".to_vec(),
        ),
    ];
    let mut ids = Vec::new();
    for (name, payload) in &objects {
        let id = store.put(name, payload).expect("ingest");
        println!("ingested {name} as object {id} ({} bytes)", payload.len());
        ids.push(id);
    }

    // A healthy read touches only the data blocks.
    let (payload, stats) = store.get_detailed(ids[0]).expect("healthy read");
    println!(
        "healthy read: {} bytes by powering {} of {} devices",
        payload.len(),
        stats.blocks_fetched,
        store.num_devices()
    );

    // Four drives die — the certified worst case.
    for d in [5usize, 19, 52, 77] {
        store.fail_device(d).unwrap();
    }
    println!("failed devices 5, 19, 52, 77");
    let health = scrub(&store, 5, false);
    println!(
        "scrub report: {} degraded stripes, all recoverable: {}",
        health.degraded_count(),
        health.objects_incomplete.is_empty()
    );

    // Degraded reads still succeed, still touching few devices.
    for &id in &ids {
        let (payload, stats) = store.get_detailed(id).expect("degraded read");
        let meta = store.meta(id).unwrap();
        assert_eq!(payload.len(), meta.size);
        println!(
            "degraded read of '{}': ok, fetched {} blocks",
            meta.name, stats.blocks_fetched
        );
    }

    // Operators replace the drives; the scrubber re-encodes the missing
    // blocks onto them (§6's stripe reliability assurance).
    for d in [5usize, 19, 52, 77] {
        store.replace_device(d).unwrap();
    }
    let repair = scrub(&store, 5, true);
    println!(
        "repair pass: {} blocks re-encoded onto replacement drives",
        repair.blocks_repaired
    );
    let clean = scrub(&store, 5, false);
    assert_eq!(clean.degraded_count(), 0);
    println!("site back to full redundancy");
}
