//! The metrics catalogue, held to both of its ends: what a live server
//! exports, and what DESIGN.md documents.

use std::collections::BTreeSet;
use std::sync::Arc;
use tornado_core::tornado_graph_1;
use tornado_obs::Json;
use tornado_server::catalogue::{catalogue, check_snapshot, render_markdown};
use tornado_server::{serve, Client, HealthConfig, ServerConfig, ServerHandle, ServerObserver};
use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

fn boot(config: ServerConfig) -> (ServerHandle, Arc<ArchivalStore>, Client) {
    let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
    let handle = serve(config, Arc::clone(&store), ServerObserver::shared()).expect("bind");
    let client = Client::connect(handle.local_addr().to_string()).unwrap();
    (handle, store, client)
}

/// `(section, name)` of every metric in a METRICS document.
fn exported(doc: &Json) -> BTreeSet<(String, String)> {
    let names = |section: &str| match doc.get(section) {
        Some(Json::Obj(entries)) => entries.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    };
    ["counters", "gauges", "histograms"]
        .into_iter()
        .flat_map(|section| {
            names(section)
                .into_iter()
                .map(move |name| (section.to_string(), name))
        })
        .collect()
}

/// `(section, name)` of the catalogue's server rows: every layer but the
/// load generator's own, and `health` only with the observatory on.
fn server_rows(health: bool) -> BTreeSet<(String, String)> {
    catalogue()
        .into_iter()
        .filter(|d| d.layer() != "load" && (health || d.layer() != "health"))
        .map(|d| (format!("{}s", d.kind), d.name.to_string()))
        .collect()
}

/// Puts, reads back healthy and degraded, fails and revives: nothing a
/// request does may add a name, and none may wait for one to appear.
fn drive(client: &mut Client) -> Json {
    let idle = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    let payload = vec![7u8; 40_000];
    let id = client.put("catalogue", &payload).unwrap();
    assert_eq!(client.get(id).unwrap(), payload);
    for device in [7, 29, 55, 88] {
        client.fail_device(device).unwrap();
    }
    assert_eq!(client.get(id).unwrap(), payload, "degraded GET");
    client.revive_device(7).unwrap();
    let driven = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    assert_eq!(
        exported(&idle),
        exported(&driven),
        "names are present from the first snapshot"
    );
    let degraded = driven
        .get("counters")
        .and_then(|c| c.get("server.get.degraded"));
    assert_eq!(degraded.and_then(Json::as_u64), Some(1));
    driven
}

#[test]
fn a_live_servers_metrics_equal_the_catalogues_server_rows() {
    // Default config, then the `--no-health` one: only the health rows go.
    for health in [true, false] {
        let config = ServerConfig {
            health: HealthConfig {
                enabled: health,
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        };
        let (handle, _store, mut client) = boot(config);
        let doc = drive(&mut client);
        check_snapshot(&doc).unwrap();
        let (exported, rows) = (exported(&doc), server_rows(health));
        let undocumented: Vec<_> = exported.difference(&rows).collect();
        let dead: Vec<_> = rows.difference(&exported).collect();
        assert!(
            undocumented.is_empty() && dead.is_empty(),
            "health {health}: exported but not in the catalogue: {undocumented:?}; \
             in the catalogue but not exported: {dead:?}"
        );
        client.shutdown().unwrap();
        handle.join();
    }
}

#[test]
fn a_name_is_declared_by_one_set() {
    let mut seen = BTreeSet::new();
    let twice: Vec<&str> = catalogue()
        .into_iter()
        .map(|d| d.name)
        .filter(|name| !seen.insert(*name))
        .collect();
    assert!(
        twice.is_empty(),
        "declared by more than one metric set: {twice:?}"
    );
}

#[test]
fn a_scrubber_over_a_served_store_moves_the_servers_scrub_counters() {
    let (handle, store, mut client) = boot(ServerConfig::default());
    for i in 0..3 {
        client
            .put(&format!("object-{i}"), &vec![i as u8; 9_000])
            .unwrap();
    }
    client.fail_device(11).unwrap();
    client.revive_device(11).unwrap();
    let outcome = Scrubber::new(1).run(&store, 5, true, ScrubMode::Verify);
    assert_eq!(
        outcome.decoded_count(),
        3,
        "every stripe lost its block on device 11"
    );

    let doc = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(counter("scrub.cycles"), 1);
    assert_eq!(counter("scrub.decoded"), 3);
    assert_eq!(counter("scrub.blocks_repaired"), 3);
    assert_eq!(
        counter("repair.bytes_read"),
        outcome.repair_cost().bytes_read
    );
    assert!(
        counter("decode.trials") >= 3,
        "the repair planner's decodes were drained"
    );

    // The observatory's corruption SLO reads the same cells.
    let health = tornado_obs::json::parse(&client.health().unwrap()).unwrap();
    let slo = health
        .get("slo")
        .and_then(|s| s.get("scrub_corruption"))
        .unwrap();
    assert_eq!(slo.get("bad").and_then(Json::as_u64), Some(3));
    assert_eq!(slo.get("total").and_then(Json::as_u64), Some(3));
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn the_table_in_design_md_is_the_catalogues_rendering() {
    const BEGIN: &str = "<!-- metrics-catalogue:begin -->\n";
    const END: &str = "<!-- metrics-catalogue:end -->";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md at the repository root");
    let start = design.find(BEGIN).expect("begin marker") + BEGIN.len();
    let end = design.find(END).expect("end marker");
    let rendered = render_markdown();
    assert!(
        design[start..end] == rendered,
        "DESIGN.md's metrics table is stale; paste this between the markers:\n{rendered}"
    );
}
