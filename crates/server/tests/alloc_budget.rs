//! The allocation budget of a served 1 MiB GET: two large buffers — the
//! store's reply, which the worker frames in place and the shard sends as
//! it is, and the client's result, which the socket is read into — and
//! nothing else of that size on the way.
//!
//! A test binary of its own with a single test: the counting allocator is
//! process-wide, so any test running beside it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tornado_server::{serve, Client, ServerConfig, ServerObserver};
use tornado_store::ArchivalStore;

/// Allocations at least this large are counted.
const LARGE: usize = 512 << 10;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting requests for [`LARGE`] bytes or more
/// (a `realloc` that grows to that size is one).
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counting touches one atomic.
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
fn a_served_1_mib_get_makes_two_large_allocations() {
    const GETS: u64 = 32;
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(cfg, store, ServerObserver::shared()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr().to_string()).unwrap();
    let payload: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let id = client.put("big", &payload).unwrap();

    // Connection buffers and the worker's thread-locals exist after this.
    for _ in 0..4 {
        assert!(client.get(id).unwrap() == payload);
    }
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..GETS {
        assert_eq!(client.get(id).unwrap().len(), payload.len());
    }
    let per_get = (LARGE_ALLOCS.load(Ordering::Relaxed) - before) as f64 / GETS as f64;
    assert!(
        per_get <= 2.0,
        "{per_get} allocations of 512 KiB or more per GET: \
         the budget is the store's reply and the client's result"
    );

    client.shutdown().unwrap();
    handle.join();
}
