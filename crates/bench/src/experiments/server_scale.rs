//! Connection-count scaling of the event-loop server.
//!
//! Two questions, one load driver ([`tornado_server::run_load`], which
//! multiplexes every connection on one thread):
//!
//! 1. **How far do connections scale?** An open-loop GET stream at a
//!    fixed aggregate rate is dealt round-robin over `N` concurrent
//!    connections, with `N` swept from 64 to 10,000+. The offered load stays
//!    constant, so the p99-vs-connections curve isolates what holding
//!    (and serving) more sockets costs the server, not what more demand
//!    costs it. Latency is measured from each operation's *scheduled*
//!    arrival — a server that buckles under connection count shows up as
//!    p99 inflation, never as silently reduced throughput.
//!    Every GET is verified byte-for-byte against the 16 objects the
//!    driver PUTs once before the window.
//! 2. **What does it sustain at a low count?** One closed-loop point at
//!    64 connections, fresh in-process server.
//!
//! The process `RLIMIT_NOFILE` hard cap (20k in CI containers) cannot
//! hold two sockets per connection at the 10k point, so the sweep's
//! server runs as a *separate process* — the sibling `tornado serve`
//! binary — giving each side its own descriptor budget and a real
//! process boundary. When that binary is absent (e.g. `cargo run -p
//! tornado-bench` without building the CLI) the sweep falls back to an
//! in-process server and caps the sweep at what the fd budget fits,
//! reporting which mode ran.
//!
//! Floors (asserted by [`run`], not just reported): every connection of
//! every point established, zero errors, zero unanswered requests, zero
//! payload mismatches, p99 ≤ 2 s at every point (an open-loop stream that
//! backlogs past that has stopped keeping up), ≥ 10,000 concurrent
//! connections reached (≥ 1,000 under `Effort::quick`), and a closed-loop
//! point that completed operations. The closed-loop rate is reported, not
//! floored: it depends on the machine.

use crate::effort::Effort;
use crate::harness::{csv, num, obj, Report};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tornado_obs::Json;
use tornado_server::{
    run_load, serve, Client, HealthConfig, LoadConfig, LoadReport, OpMix, ServerConfig,
    ServerObserver,
};
use tornado_store::ArchivalStore;

/// Full result of one scaling run.
pub(crate) struct ScaleResult {
    /// Event-loop shards serving the sweep.
    pub shards: usize,
    /// `"external-process"` or `"in-process"` (fd-budget fallback).
    pub(crate) sweep_server: &'static str,
    /// Sweep points, ascending connection count: the connections asked
    /// for and the run that held them concurrently under the fixed
    /// offered load, latency from each operation's scheduled arrival.
    pub sweep: Vec<(usize, LoadReport)>,
    /// The closed-loop point at 64 connections.
    pub(crate) closed_loop: LoadReport,
}

impl ScaleResult {
    /// Largest connection count the sweep actually established.
    pub(crate) fn max_connections(&self) -> usize {
        self.sweep
            .iter()
            .map(|(_, p)| p.connected)
            .max()
            .unwrap_or(0)
    }
}

/// A server for the sweep: either a child process or an in-process
/// handle, shut down via the wire op either way.
enum SweepServer {
    External(Child),
    InProcess(tornado_server::ServerHandle),
}

/// File descriptors reserved for everything that is not a benchmark
/// socket (stdio, listener, epoll/waker fds, admin + prefill conns).
const FD_SLACK: u64 = 512;

/// An in-process server on a loopback ephemeral port, configured as
/// [`spawn_external`] configures the child, and its address.
fn serve_in_process(shards: usize) -> (tornado_server::ServerHandle, String) {
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 256,
        shards,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle =
        serve(cfg, store, Arc::new(ServerObserver::disabled())).expect("bind loopback server");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// Boots the sweep server with `shards` event-loop shards, preferring
/// the sibling `tornado` binary so driver and server each get a full
/// descriptor budget. Returns the server, its address, and which mode.
fn boot_sweep_server(shards: usize) -> (SweepServer, String, &'static str) {
    if let Some((child, addr)) = spawn_external(shards) {
        return (SweepServer::External(child), addr, "external-process");
    }
    let (handle, addr) = serve_in_process(shards);
    (SweepServer::InProcess(handle), addr, "in-process")
}

/// Spawns `tornado serve` (sibling binary of the current exe) and reads
/// the kernel-assigned address from its `--port-file`. `None` when the
/// binary is missing or the server does not come up in time.
fn spawn_external(shards: usize) -> Option<(Child, String)> {
    let exe = std::env::current_exe().ok()?;
    let cli = exe.parent()?.join("tornado");
    if !cli.exists() {
        return None;
    }
    let port_file = std::env::temp_dir().join(format!(
        "tornado-scale-port-{}-{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(&cli)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-depth",
            "256",
            "--shards",
        ])
        .arg(shards.to_string())
        .args(["--no-health", "--quiet", "--port-file"])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                let _ = std::fs::remove_file(&port_file);
                return Some((child, addr));
            }
        }
        if let Ok(Some(_)) = child.try_wait() {
            // Died before publishing a port (e.g. stale build).
            let _ = std::fs::remove_file(&port_file);
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&port_file);
    None
}

/// Asks the sweep server to drain and waits for it to exit.
fn stop_sweep_server(server: SweepServer, addr: &str) {
    if let Ok(mut admin) = Client::connect(addr) {
        let _ = admin.shutdown();
    }
    match server {
        SweepServer::External(mut child) => {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        SweepServer::InProcess(handle) => handle.join(),
    }
}

/// Runs the closed-loop point against a fresh in-process server.
fn run_closed_loop(shards: usize, connections: usize, duration_ms: u64, seed: u64) -> LoadReport {
    let (handle, addr) = serve_in_process(shards);
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections,
        duration_ms,
        seed,
        mix: OpMix {
            put: 10,
            get: 88,
            delete: 2,
        },
        payload_min: 1 << 10,
        payload_max: 8 << 10,
        prefill: 4,
        trace_sample: 0,
        ..LoadConfig::default()
    })
    .expect("closed-loop point");
    if let Ok(mut admin) = Client::connect(&addr) {
        let _ = admin.shutdown();
    }
    handle.join();
    assert_eq!(
        report.payload_mismatches, 0,
        "closed-loop GETs must verify byte-for-byte"
    );
    report
}

/// Runs the sweep and the closed-loop point, returning the structured
/// result.
///
/// `quick` caps the sweep at ~1k connections with shorter windows — the
/// CI smoke; the full run reaches 10,000.
pub(crate) fn measure(quick: bool, seed: u64) -> ScaleResult {
    let shards = 2usize;
    let rate = 1_000.0;
    let (duration_ms, counts): (u64, Vec<usize>) = if quick {
        (800, vec![64, 256, 1_024])
    } else {
        (2_000, vec![64, 256, 1_024, 4_096, 10_000])
    };

    let (server, addr, sweep_server) = boot_sweep_server(shards);

    // In-process fallback shares one fd budget between both socket ends;
    // cap the sweep so two fds per connection plus slack always fit.
    let fd_cap = tornado_server::reactor::raise_nofile_limit(42_000).unwrap_or(1_024);
    let conn_cap = if sweep_server == "in-process" {
        ((fd_cap.saturating_sub(FD_SLACK)) / 2) as usize
    } else {
        (fd_cap.saturating_sub(FD_SLACK)) as usize
    };

    let mut sweep = Vec::new();
    for (i, &want) in counts.iter().enumerate() {
        let connections = want.min(conn_cap);
        let report = run_load(&LoadConfig {
            addr: addr.clone(),
            connections,
            duration_ms,
            seed: seed ^ (i as u64 + 1),
            mix: OpMix {
                put: 0,
                get: 1,
                delete: 0,
            },
            payload_min: 4 << 10,
            payload_max: 4 << 10,
            prefill: 16,
            trace_sample: 0,
            pipeline_depth: 32,
            rate_ops_per_sec: rate,
            ..LoadConfig::default()
        })
        .expect("open-loop sweep point");
        sweep.push((connections, report));
    }
    stop_sweep_server(server, &addr);

    let closed_loop = run_closed_loop(shards, 64, if quick { 800 } else { 1_500 }, seed);

    ScaleResult {
        shards,
        sweep_server,
        sweep,
        closed_loop,
    }
}

/// The most p99 (from scheduled arrival) any sweep point may show, µs.
const P99_CEILING_US: u64 = 2_000_000;

/// Runs the sweep (to 10,000 connections; to 1,024 under `effort.quick`)
/// and the closed-loop point, renders the table and asserts the floors.
pub(crate) fn run(effort: &Effort) -> Report {
    let conn_floor = if effort.quick { 1_000 } else { 10_000 };
    let r = measure(effort.quick, effort.seed);

    let mut rows = Vec::new();
    for (connections, p) in &r.sweep {
        let p99_us = p.p99_us();
        assert_eq!(
            p.connected, *connections,
            "only {} of {connections} connections established",
            p.connected
        );
        assert_eq!(
            p.errors, 0,
            "sweep at {} conns hit {} errors",
            p.connected, p.errors
        );
        assert_eq!(
            p.unanswered, 0,
            "sweep at {} conns left {} requests unanswered",
            p.connected, p.unanswered
        );
        assert_eq!(
            p.payload_mismatches, 0,
            "sweep GETs must verify byte-for-byte"
        );
        assert!(
            p99_us <= P99_CEILING_US,
            "p99 {p99_us} us at {} conns exceeds the {P99_CEILING_US} us ceiling",
            p.connected
        );
        rows.push(obj([
            ("connections", Json::U64(p.connected as u64)),
            // The window's operations are its GETs; its PUTs are the
            // prefill, made before the window opened.
            (
                "ops_per_sec",
                num(p.gets as f64 * 1000.0 / p.elapsed_ms as f64, 1),
            ),
            ("p50_us", Json::U64(p.p50_us())),
            ("p99_us", Json::U64(p99_us)),
            ("busy", Json::U64(p.busy_retries)),
            ("errors", Json::U64(p.errors)),
            ("unanswered", Json::U64(p.unanswered)),
        ]));
    }
    let max_conns = r.max_connections();
    assert!(
        max_conns >= conn_floor,
        "sweep reached {max_conns} concurrent connections — floor is {conn_floor}"
    );
    assert!(
        r.closed_loop.ops > 0,
        "the closed-loop point completed no operations"
    );

    let text = format!(
        "# Event-loop connection scaling — open-loop sweep ({} server, {} shards) + 64-conn \
         closed loop\n\
         {}\
         closed_loop_64conn_ops_s, {:.0}\n\
         closed_loop_64conn_p99_us, {}\n\
         floors: >= {conn_floor} connections, all established, 0 errors / unanswered / \
         mismatches, p99 <= {P99_CEILING_US} us, closed loop > 0 ops\n",
        r.sweep_server,
        r.shards,
        csv(&rows),
        r.closed_loop.ops_per_sec,
        r.closed_loop.p99_us()
    );
    let data = obj([
        (
            "graph",
            Json::Str("tornado_graph_1 (96 nodes, 48 data)".into()),
        ),
        ("sweep_server", Json::Str(r.sweep_server.into())),
        ("shards", Json::U64(r.shards as u64)),
        (
            "discipline",
            Json::Str("open_loop_1000_ops_per_sec_scheduled_latency".into()),
        ),
        ("sweep", Json::Arr(rows)),
        (
            "closed_loop_64_connections",
            obj([
                ("ops_per_sec", num(r.closed_loop.ops_per_sec, 1)),
                ("p99_us", Json::U64(r.closed_loop.p99_us())),
            ]),
        ),
        (
            "floors",
            obj([
                ("connections", Json::U64(conn_floor as u64)),
                ("p99_ceiling_us", Json::U64(P99_CEILING_US)),
            ]),
        ),
    ]);
    Report {
        text,
        data: Some(data),
    }
}
