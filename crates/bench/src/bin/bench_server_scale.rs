//! Connection-count scaling bench for the event-loop server; writes
//! `BENCH_server_scale.json` at the repository root.
//!
//! Two sections:
//!
//! * `sweep` — an open-loop GET stream at a fixed 1,000 ops/s offered
//!   rate, multiplexed over 64 → 10,000 concurrent connections by a
//!   single driver thread. Fixed load + growing connection count
//!   isolates the cost of *holding and serving sockets*; the deliverable
//!   is the p99-vs-connections curve (latency measured from scheduled
//!   arrival, so backlog can never hide as reduced throughput).
//! * `closed_loop_64_connections` — closed-loop throughput and p99 at 64
//!   connections (reported, not floored: it depends on the machine).
//!
//! Floors (asserted here, not just reported):
//!
//! * the sweep establishes ≥ 10,000 concurrent connections (≥ 1,000
//!   under `--quick`) with zero errors and zero unanswered requests;
//! * p99 at every point stays bounded (≤ 2 s — an open-loop stream that
//!   backlogs past that has stopped keeping up).
//!
//! The 10k sweep point needs two sockets per connection, which does not
//! fit one process's fd budget under a 20k hard cap — the sweep server
//! therefore runs as a separate process (the sibling `tornado` binary;
//! build the workspace first). Usage: `cargo run --release -p
//! tornado-bench --bin bench_server_scale`. `--check` verifies floors
//! without rewriting the JSON; `--quick` is the CI smoke (smaller sweep,
//! JSON schema-validated in memory but never written). Debug builds
//! refuse to write since their numbers are meaningless.

use tornado_bench::experiments::server_scale;

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 42u64;

    let r = server_scale::measure(quick, seed);

    println!(
        "server scale: {} sweep server, {} shards, {} build",
        r.sweep_server,
        r.shards,
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!(
        "  {:>11}  {:>10}  {:>9}  {:>9}  {:>6}  {:>6}  {:>6}",
        "connections", "ops/s", "p50 us", "p99 us", "busy", "shed", "errors"
    );
    for p in &r.sweep {
        println!(
            "  {:>11}  {:>10.0}  {:>9}  {:>9}  {:>6}  {:>6}  {:>6}",
            p.connected, p.achieved_rate, p.p50_us, p.p99_us, p.busy, p.shed, p.errors
        );
    }
    println!(
        "  closed loop at {} connections: {:.0} ops/s (p99 {} us)",
        r.closed_loop.connections, r.closed_loop.ops_per_sec, r.closed_loop.p99_us
    );

    let conn_floor = if quick { 1_000 } else { 10_000 };
    let p99_ceiling_us = 2_000_000u64;
    let max_conns = r.max_connections();
    let worst_p99 = r.sweep.iter().map(|p| p.p99_us).max().unwrap_or(0);
    let target_met = max_conns >= 10_000 && worst_p99 <= p99_ceiling_us;
    println!(
        "  target: >=10k conns, p99 <= {p99_ceiling_us} us -> {}",
        if target_met { "MET" } else { "NOT MET" }
    );

    // Hand-formatted JSON (the workspace deliberately has no serde); the
    // parser round-trip below keeps the formatting honest.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"server_scale\",\n");
    json.push_str("  \"graph\": \"tornado_graph_1 (96 nodes, 48 data)\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    ));
    json.push_str(&format!("  \"sweep_server\": \"{}\",\n", r.sweep_server));
    json.push_str(&format!("  \"shards\": {},\n", r.shards));
    json.push_str("  \"discipline\": \"open_loop_1000_ops_per_sec_scheduled_latency\",\n");
    json.push_str("  \"sweep\": [\n");
    for (i, p) in r.sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"connections\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"busy\": {}, \"shed\": {}, \"errors\": {}, \"unanswered\": {}}}{}\n",
            p.connected,
            p.achieved_rate,
            p.p50_us,
            p.p99_us,
            p.busy,
            p.shed,
            p.errors,
            p.unanswered,
            if i + 1 < r.sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"closed_loop_64_connections\": {{\"ops_per_sec\": {:.1}, \"p99_us\": {}}},\n",
        r.closed_loop.ops_per_sec, r.closed_loop.p99_us
    ));
    json.push_str("  \"target\": \">=10000 concurrent connections with bounded p99\",\n");
    json.push_str(&format!("  \"target_met\": {target_met}\n"));
    json.push_str("}\n");

    // Schema self-check: the JSON must parse and carry every field the
    // docs (EXPERIMENTS.md) and CI rely on.
    let doc = tornado_obs::json::parse(&json).expect("bench JSON must parse");
    for field in
        ["bench", "sweep_server", "shards", "sweep", "closed_loop_64_connections", "target_met"]
    {
        assert!(doc.get(field).is_some(), "bench JSON is missing the '{field}' field");
    }
    for field in ["ops_per_sec", "p99_us"] {
        assert!(
            doc.get("closed_loop_64_connections").and_then(|c| c.get(field)).is_some(),
            "closed_loop_64_connections is missing '{field}'"
        );
    }
    let sweep_rows = match doc.get("sweep") {
        Some(tornado_obs::Json::Arr(rows)) => rows.len(),
        _ => 0,
    };
    assert_eq!(sweep_rows, r.sweep.len(), "sweep rows survive the JSON round-trip");

    for p in &r.sweep {
        assert_eq!(
            p.connected, p.connections,
            "only {} of {} connections established",
            p.connected, p.connections
        );
        assert_eq!(p.errors, 0, "sweep at {} conns hit {} errors", p.connected, p.errors);
        assert_eq!(
            p.unanswered, 0,
            "sweep at {} conns left {} requests unanswered",
            p.connected, p.unanswered
        );
        assert_eq!(p.payload_mismatches, 0, "sweep GETs must verify byte-for-byte");
        assert!(
            p.p99_us <= p99_ceiling_us,
            "p99 {} us at {} conns exceeds the {} us ceiling",
            p.p99_us,
            p.connected,
            p99_ceiling_us
        );
    }
    assert!(
        max_conns >= conn_floor,
        "sweep reached {max_conns} concurrent connections — floor is {conn_floor}"
    );
    assert!(r.closed_loop.ops > 0, "the closed-loop point completed no operations");

    if quick {
        println!("--quick: connection and latency floors hold, JSON schema valid");
        return;
    }
    if cfg!(debug_assertions) {
        println!("debug build: numbers are meaningless, not writing JSON");
        return;
    }
    if check_only {
        println!("--check: floors hold, JSON left untouched");
        return;
    }

    // The bin lives two levels below the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server_scale.json");
    std::fs::write(out, json).expect("write BENCH_server_scale.json");
    println!("wrote {out}");
}
