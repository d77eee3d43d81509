//! Connection-count scaling of the event-loop server.
//!
//! Two questions, one harness:
//!
//! 1. **How far do connections scale?** An open-loop GET stream at a
//!    fixed aggregate rate is multiplexed over `N` concurrent
//!    connections from a single driver thread ([`tornado_server::load::mux`]),
//!    with `N` swept from 64 to 10,000+. The offered load stays
//!    constant, so the p99-vs-connections curve isolates what holding
//!    (and serving) more sockets costs the server, not what more demand
//!    costs it. Latency is measured from each operation's *scheduled*
//!    arrival — a server that buckles under connection count shows up as
//!    p99 inflation, never as silently reduced throughput.
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

use crate::effort::Effort;
use std::fmt::Write as _;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tornado_server::load::mux::{run_mux, MuxConfig, MuxReport};
use tornado_server::{
    run_load, serve, Client, HealthConfig, LoadConfig, OpMix, ServerConfig, ServerObserver,
};
use tornado_store::ArchivalStore;

/// One sweep point: `connections` held concurrently under a fixed
/// offered load.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Connections requested at this point.
    pub connections: usize,
    /// Connections actually established (must equal `connections`).
    pub connected: usize,
    /// Offered (open-loop) arrival rate, ops/s.
    pub target_rate: f64,
    /// Completed ops/s over the measured window.
    pub achieved_rate: f64,
    /// Completed operations.
    pub ops: u64,
    /// Median latency from scheduled arrival, µs.
    pub p50_us: u64,
    /// 99th-percentile latency from scheduled arrival, µs.
    pub p99_us: u64,
    /// BUSY answers (not retried; open loop sheds at the server).
    pub busy: u64,
    /// Arrivals shed at the driver (every connection at its cap).
    pub shed: u64,
    /// Transport/server errors.
    pub errors: u64,
    /// Requests still unanswered at the drain deadline.
    pub unanswered: u64,
    /// Verified GETs with wrong bytes (must be 0).
    pub payload_mismatches: u64,
}

/// The closed-loop point at a fixed connection count.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopPoint {
    /// Connections driven.
    pub connections: usize,
    /// Completed operations.
    pub ops: u64,
    /// Completed ops/s.
    pub ops_per_sec: f64,
    /// 99th-percentile client latency, µs.
    pub p99_us: u64,
}

/// Full result of one scaling run.
#[derive(Clone, Debug)]
pub struct ScaleResult {
    /// Event-loop shards serving the sweep.
    pub shards: usize,
    /// `"external-process"` or `"in-process"` (fd-budget fallback).
    pub sweep_server: &'static str,
    /// Sweep points, ascending connection count.
    pub sweep: Vec<SweepPoint>,
    /// The closed-loop point at 64 connections.
    pub closed_loop: ClosedLoopPoint,
}

impl ScaleResult {
    /// Largest connection count the sweep actually established.
    pub fn max_connections(&self) -> usize {
        self.sweep.iter().map(|p| p.connected).max().unwrap_or(0)
    }
}

/// Headline numbers of the last [`run`], for the `run_all` manifest.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSummary {
    /// Largest concurrent connection count established.
    pub max_connections: usize,
    /// p99 latency at that count, µs.
    pub p99_at_max_us: u64,
    /// Achieved ops/s at that count.
    pub rate_at_max: f64,
    /// Closed-loop ops/s at 64 connections.
    pub closed_loop_ops_per_sec: f64,
    /// Closed-loop p99 at 64 connections, µs.
    pub closed_loop_p99_us: u64,
}

/// Last run's summary (populated by [`run`], read by `run_all`).
pub static LAST_SUMMARY: Mutex<Option<ScaleSummary>> = Mutex::new(None);

/// A server for the sweep: either a child process or an in-process
/// handle, shut down via the wire op either way.
enum SweepServer {
    External(Child),
    InProcess(tornado_server::ServerHandle),
}

/// File descriptors reserved for everything that is not a benchmark
/// socket (stdio, listener, epoll/waker fds, admin + prefill conns).
const FD_SLACK: u64 = 512;

/// Boots the sweep server with `shards` event-loop shards, preferring
/// the sibling `tornado` binary so driver and server each get a full
/// descriptor budget. Returns the server, its address, and which mode.
fn boot_sweep_server(shards: usize) -> (SweepServer, String, &'static str) {
    if let Some((child, addr)) = spawn_external(shards) {
        return (SweepServer::External(child), addr, "external-process");
    }
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 256,
        shards,
        health: HealthConfig { enabled: false, ..HealthConfig::default() },
        ..ServerConfig::default()
    };
    let handle =
        serve(cfg, store, Arc::new(ServerObserver::disabled())).expect("bind loopback server");
    let addr = handle.local_addr().to_string();
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
fn run_closed_loop(shards: usize, connections: usize, duration_ms: u64, seed: u64) -> ClosedLoopPoint {
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 256,
        shards,
        health: HealthConfig { enabled: false, ..HealthConfig::default() },
        ..ServerConfig::default()
    };
    let handle =
        serve(cfg, store, Arc::new(ServerObserver::disabled())).expect("bind loopback server");
    let addr = handle.local_addr().to_string();
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections,
        duration_ms,
        seed,
        mix: OpMix { put: 10, get: 88, delete: 2 },
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
    assert_eq!(report.payload_mismatches, 0, "closed-loop GETs must verify byte-for-byte");
    ClosedLoopPoint {
        connections,
        ops: report.ops,
        ops_per_sec: report.ops_per_sec,
        p99_us: report.p99_us(),
    }
}

/// Runs the sweep and the closed-loop point, returning the structured
/// result.
///
/// `quick` caps the sweep at ~1k connections with shorter windows — the
/// CI smoke; the full run reaches 10,000.
pub fn measure(quick: bool, seed: u64) -> ScaleResult {
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
        let report: MuxReport = run_mux(&MuxConfig {
            addr: addr.clone(),
            connections,
            duration_ms,
            rate_ops_per_sec: rate,
            seed: seed ^ (i as u64 + 1),
            prefill: 16,
            payload_len: 4 << 10,
            max_inflight_per_conn: 32,
            verify_sample: 64,
            ..MuxConfig::default()
        })
        .expect("open-loop sweep point");
        sweep.push(SweepPoint {
            connections,
            connected: report.connected,
            target_rate: report.target_rate,
            achieved_rate: report.achieved_rate,
            ops: report.ops,
            p50_us: report.p50_us(),
            p99_us: report.p99_us(),
            busy: report.busy,
            shed: report.shed,
            errors: report.errors,
            unanswered: report.unanswered,
            payload_mismatches: report.payload_mismatches,
        });
    }
    stop_sweep_server(server, &addr);

    let closed_loop = run_closed_loop(shards, 64, if quick { 800 } else { 1_500 }, seed);

    let result = ScaleResult { shards, sweep_server, sweep, closed_loop };
    let at_max = result
        .sweep
        .iter()
        .max_by_key(|p| p.connected)
        .copied()
        .expect("non-empty sweep");
    *LAST_SUMMARY.lock().unwrap() = Some(ScaleSummary {
        max_connections: result.max_connections(),
        p99_at_max_us: at_max.p99_us,
        rate_at_max: at_max.achieved_rate,
        closed_loop_ops_per_sec: result.closed_loop.ops_per_sec,
        closed_loop_p99_us: result.closed_loop.p99_us,
    });
    result
}

/// Runs the experiment for `run_all`, returning the printable report.
pub fn run(effort: &Effort) -> String {
    // run_all always runs the quick shape: the 10k point is the
    // standalone bin's job (it needs the sibling CLI binary and a
    // release build to mean anything).
    let r = measure(true, effort.seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Event-loop connection scaling — open-loop sweep ({} server, {} shards) + 64-conn closed loop",
        r.sweep_server, r.shards
    );
    let _ = writeln!(out, "connections, achieved_ops_s, p50_us, p99_us, busy, errors");
    for p in &r.sweep {
        let _ = writeln!(
            out,
            "{}, {:.0}, {}, {}, {}, {}",
            p.connected, p.achieved_rate, p.p50_us, p.p99_us, p.busy, p.errors
        );
    }
    let _ = writeln!(out, "closed_loop_64conn_ops_s, {:.0}", r.closed_loop.ops_per_sec);
    let _ = writeln!(out, "closed_loop_64conn_p99_us, {}", r.closed_loop.p99_us);
    for p in &r.sweep {
        assert_eq!(p.payload_mismatches, 0, "sweep GETs must verify byte-for-byte");
    }
    out
}
