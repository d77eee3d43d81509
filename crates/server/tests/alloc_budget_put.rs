//! The allocation budget of a served 64 KiB PUT: one large buffer — the
//! connection's read buffer, sized from the frame's length prefix, which
//! leaves with the frame and becomes the payload — and nothing else of
//! that size on the way. The client sends the caller's slice, the decoder
//! cuts the payload out of the buffer it was read into, and the encoder
//! builds the stored blocks (1.4 KB each) straight from it.
//!
//! A test binary of its own with a single test: the counting allocator is
//! process-wide, so any test running beside it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tornado_server::{serve, Client, HealthConfig, ServerConfig, ServerObserver};
use tornado_store::ArchivalStore;

/// Allocations at least this large are counted.
const LARGE: usize = 32 << 10;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting requests for [`LARGE`] bytes or more
/// (a `realloc` that grows to that size is one) and the bytes they ask for.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counting touches two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_served_64_kib_put_makes_one_large_allocation() {
    const PUTS: u64 = 64;
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    // No sampler thread: what it snapshots twice a second is not a PUT's.
    // The health model goes with it, the sampler being its clock.
    let cfg = ServerConfig {
        workers: 1,
        timeseries_interval_ms: 0,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle =
        serve(cfg, Arc::clone(&store), ServerObserver::shared()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr().to_string()).unwrap();
    let payload: Vec<u8> = (0..64u32 << 10).map(|i| (i % 251) as u8).collect();

    // Connection buffers, the worker's thread-locals and the store's maps
    // (which double as they fill: more objects than are put below) exist
    // after this.
    let names: Vec<String> = (0..PUTS).map(|i| format!("object-{i}")).collect();
    for i in 0..4 * PUTS {
        client.put(&format!("warm-up-{i}"), &payload).unwrap();
    }
    let before = (
        LARGE_ALLOCS.load(Ordering::Relaxed),
        LARGE_BYTES.load(Ordering::Relaxed),
    );
    let ids: Vec<u64> = names
        .iter()
        .map(|name| client.put(name, &payload).unwrap())
        .collect();
    let allocs = (LARGE_ALLOCS.load(Ordering::Relaxed) - before.0) as f64 / PUTS as f64;
    let bytes = (LARGE_BYTES.load(Ordering::Relaxed) - before.1) as f64 / PUTS as f64;
    assert!(
        allocs <= 1.0,
        "{allocs} allocations of 32 KiB or more per PUT: the budget is the buffer the frame is read into"
    );
    assert!(
        bytes <= 70_000.0,
        "{bytes} bytes in allocations of 32 KiB or more per PUT of 65,536"
    );
    assert_eq!(store.get(ids[0]).unwrap(), payload);

    client.shutdown().unwrap();
    handle.join();
}
