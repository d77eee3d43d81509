//! The wake-up budget of a served request, in counts: the shard wakes once,
//! for the request's arrival, and the reply is written once, by the worker
//! that made it — the shard is not woken to write it. An idle shard is not
//! woken at all. Read from METRICS deltas, so what is checked is what an
//! operator sees.
//!
//! One worker and one shard: the worker that takes a METRICS snapshot has
//! finished every earlier request, so the deltas are exact.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tornado_server::protocol::read_frame;
use tornado_server::{serve, Client, Op, Request, ServerConfig, ServerHandle};
use tornado_server::{Response, ServerObserver};
use tornado_store::ArchivalStore;

fn start() -> (ServerHandle, String) {
    start_with(ServerConfig {
        workers: 1,
        shards: 1,
        ..ServerConfig::default()
    })
}

fn start_with(cfg: ServerConfig) -> (ServerHandle, String) {
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let handle = serve(cfg, store, ServerObserver::shared()).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// `server.loop.{wakeups, write_flushes, batched_writes}` as METRICS has them.
fn loop_counters(client: &mut Client) -> [u64; 3] {
    let doc = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    let counters = doc.get("counters").unwrap();
    ["wakeups", "write_flushes", "batched_writes"].map(|name| {
        counters
            .get(&format!("server.loop.{name}"))
            .unwrap()
            .as_u64()
            .unwrap()
    })
}

/// Runs `requests` calls of `op` between two METRICS snapshots and returns
/// the shard wake-ups and socket writes they cost. Each delta also holds the
/// tail of the first METRICS request (its reply's write, in one piece or
/// two) and the head of the second (its arrival).
fn cost_of(client: &mut Client, requests: u64, mut op: impl FnMut(&mut Client)) -> (u64, u64) {
    let before = loop_counters(client);
    for _ in 0..requests {
        op(client);
    }
    let after = loop_counters(client);
    (after[0] - before[0], after[1] - before[1])
}

#[test]
fn a_closed_loop_request_wakes_its_shard_once_and_is_written_once() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr).unwrap();
    let small: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let large: Vec<u8> = (0..1u32 << 20).map(|i| (i % 241) as u8).collect();
    let small_id = client.put("small", &small).unwrap();
    let large_id = client.put("large", &large).unwrap();
    // Socket buffers have grown to a 1 MiB reply after this.
    for _ in 0..8 {
        assert!(client.get(large_id).unwrap() == large);
    }

    let (wakeups, writes) = cost_of(&mut client, 2_000, |c| c.ping().unwrap());
    assert!(wakeups <= 2_003, "{wakeups} shard wake-ups for 2,000 PINGs");
    assert!(
        (2_000..=2_003).contains(&writes),
        "{writes} writes for 2,000 PING replies"
    );

    let (wakeups, writes) = cost_of(&mut client, 2_000, |c| {
        assert_eq!(c.get(small_id).unwrap().len(), small.len());
    });
    assert!(
        wakeups <= 2_003,
        "{wakeups} shard wake-ups for 2,000 GETs of 4 KiB"
    );
    assert!(
        (2_000..=2_003).contains(&writes),
        "{writes} writes for 2,000 replies of 4 KiB"
    );

    // A reply the socket does not take whole is finished by the shard: a
    // wake-up and a write more, for a few replies in a hundred at most.
    let (wakeups, writes) = cost_of(&mut client, 200, |c| {
        assert_eq!(c.get(large_id).unwrap().len(), large.len());
    });
    assert!(
        wakeups <= 220,
        "{wakeups} shard wake-ups for 200 GETs of 1 MiB"
    );
    assert!(
        (200..=204).contains(&writes),
        "{writes} writes for 200 replies of 1 MiB"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn an_idle_server_does_not_wake_its_shards() {
    // The default server: two shards, the sampler and the health model
    // running. Nothing arrives for 2 s but the second METRICS request.
    let (handle, addr) = start_with(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let before = loop_counters(&mut client)[0];
    std::thread::sleep(Duration::from_secs(2));
    let woken = loop_counters(&mut client)[0] - before;
    assert!(
        woken <= 1,
        "{woken} shard wake-ups in 2 s with one request arriving"
    );
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn pipelined_replies_still_share_writes() {
    const DEPTH: usize = 16;
    let (handle, addr) = start();
    let mut admin = Client::connect(&addr).unwrap();
    let before = loop_counters(&mut admin)[2];

    // Sixteen in flight on one connection: all but the last to finish find
    // siblings still in flight and wait in the output buffer for the shard,
    // which writes what has gathered in one write.
    let mut pipe = TcpStream::connect(&addr).unwrap();
    pipe.set_nodelay(true).unwrap();
    let ping = |corr: u32| {
        let request = Request {
            deadline_ms: 0,
            corr_id: Some(corr),
            trace_id: None,
            op: Op::Ping,
        };
        request.encode_frame().unwrap()
    };
    for corr in 0..DEPTH as u32 {
        pipe.write_all(&ping(corr)).unwrap();
    }
    let mut sent = DEPTH as u32;
    for answered in 0..2_000 {
        let body = read_frame(&mut pipe).unwrap().expect("a reply, not EOF");
        let (corr, response) = Response::decode_corr(&body).unwrap();
        assert_eq!(response, Response::Ok, "reply {answered} (corr {corr:?})");
        if sent < 2_000 {
            pipe.write_all(&ping(sent)).unwrap();
            sent += 1;
        }
    }
    let batched = loop_counters(&mut admin)[2] - before;
    assert!(batched > 0, "no write carried two replies at depth {DEPTH}");

    admin.shutdown().unwrap();
    handle.join();
}
