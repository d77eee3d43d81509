//! Out of descriptors at accept: the server goes on serving the
//! connections it has, its acceptor backs off instead of spinning on a
//! listener that stays readable, and the connection left waiting is
//! accepted once descriptors are free again.
//!
//! Linux only (the limit's number and `/proc/self/stat`), and a test binary
//! of its own with a single test: the descriptor limit is process-wide.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tornado_server::{serve, Client, HealthConfig, ServerConfig, ServerObserver};
use tornado_store::ArchivalStore;

const RLIMIT_NOFILE: i32 = 7;
const SC_CLK_TCK: i32 = 2;

/// The kernel's `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// The soft descriptor limit lowered, until dropped — a failing assertion
/// included — when the limit it replaced is back.
struct LoweredLimit(RLimit);

impl LoweredLimit {
    fn to(soft: u64) -> Self {
        let mut was = RLimit { cur: 0, max: 0 };
        // SAFETY: `was` is a live `struct rlimit` for the call to fill.
        assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut was) }, 0);
        let lowered = RLimit {
            cur: soft,
            max: was.max,
        };
        // SAFETY: `lowered` is a live `struct rlimit` for the call to read.
        assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lowered) }, 0);
        Self(was)
    }
}

impl Drop for LoweredLimit {
    fn drop(&mut self) {
        // SAFETY: as in `to`; the hard limit was never lowered, so putting
        // the old soft limit back cannot fail.
        unsafe { setrlimit(RLIMIT_NOFILE, &self.0) };
    }
}

/// The lowest descriptor number free now: the one the next open takes.
fn lowest_free_fd() -> u64 {
    File::open("/dev/null").unwrap().as_raw_fd() as u64
}

/// User plus system CPU seconds of this process, read through a
/// `/proc/self/stat` opened while descriptors were still to be had.
fn cpu_seconds(stat: &mut File) -> f64 {
    // SAFETY: `sysconf` reads a constant of the C library.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as f64;
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).unwrap();
    stat.read_to_string(&mut text).unwrap();
    // After the parenthesised command name the fields start at the third
    // (state); utime and stime are the fourteenth and fifteenth.
    let fields: Vec<&str> = text[text.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / ticks_per_s
}

#[test]
fn out_of_descriptors_the_acceptor_backs_off_and_then_accepts() {
    // No sampler and so no health model: no server thread opens a file
    // while the limit is down.
    let cfg = ServerConfig {
        workers: 1,
        shards: 1,
        timeseries_interval_ms: 0,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServerConfig::default()
    };
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let handle = serve(cfg, store, ServerObserver::shared()).expect("bind ephemeral port");
    let addr = handle.local_addr();
    let mut early = Client::connect(addr).unwrap();
    early.ping().unwrap();
    let mut stat = File::open("/proc/self/stat").unwrap();

    // Every descriptor number under the limit is taken but one, kept in
    // reserve and then freed for the waiting client's socket: the server's
    // accept of that connection finds none.
    let reserve = File::open("/dev/null").unwrap();
    let limit = LoweredLimit::to(lowest_free_fd());
    drop(reserve);
    let mut late = Client::connect(addr).expect("the reserved descriptor is the socket's");
    let waiting = thread::spawn(move || late.ping());
    thread::sleep(Duration::from_millis(100));

    // A connection accepted before is served as ever.
    early.ping().unwrap();

    // The listener stays readable while the accept fails: the acceptor
    // backs off rather than spins.
    let (cpu_before, since) = (cpu_seconds(&mut stat), Instant::now());
    thread::sleep(Duration::from_secs(1));
    let share = (cpu_seconds(&mut stat) - cpu_before) / since.elapsed().as_secs_f64();
    assert!(
        share < 0.2,
        "{:.0} % of a core spent while out of descriptors",
        share * 100.0
    );
    assert!(
        !waiting.is_finished(),
        "answered with no descriptor to accept it with"
    );

    // Descriptors back: the waiting client is accepted and answered.
    drop(limit);
    waiting
        .join()
        .unwrap()
        .expect("a PING answered once accepted");
    early.shutdown().unwrap();
    handle.join();
}
