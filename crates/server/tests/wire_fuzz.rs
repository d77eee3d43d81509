//! Random valid traffic on many connections, each then cut at a random byte
//! in the middle of a frame: no server thread may panic, every shard must
//! get back to no connections and no requests in flight, and a fresh
//! connection must still be served. The traffic is seeded and a failure
//! prints the seed.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tornado_server::protocol::read_frame;
use tornado_server::{serve, Client, Op, Request, ServerConfig, ServerObserver};
use tornado_store::ArchivalStore;

const SEED: u64 = 0xF022_C0DE;
const CONNECTIONS: usize = 64;

/// splitmix64: all the randomness the traffic needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Says which seed a failing run used, wherever it panicked.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if thread::panicking() {
            eprintln!("wire_fuzz: failed with seed {:#x}", self.0);
        }
    }
}

/// One request the server must answer, never one that changes the fleet
/// or stops the server: a GET of a stored object or of none, PUT, STAT,
/// DELETE of an id never issued, PING, METRICS or HEALTH, with or without
/// a deadline, a correlation id and a trace id.
fn random_frame(rng: &mut Rng, stored: &[u64]) -> Vec<u8> {
    let missing = rng.next() | (1 << 63);
    let op = match rng.below(8) {
        0 => Op::Put {
            name: format!("fuzz-{}", rng.next()),
            payload: vec![rng.next() as u8; rng.below(6_000) as usize],
        },
        1 | 2 => Op::Get {
            id: stored[rng.below(stored.len() as u64) as usize],
        },
        3 => Op::Get { id: missing },
        4 => Op::Stat { id: missing },
        5 => Op::Delete { id: missing },
        6 => [Op::Ping, Op::Metrics][rng.below(2) as usize].clone(),
        _ => Op::Health,
    };
    let request = Request {
        deadline_ms: [0, 1 + rng.below(500) as u32][rng.below(2) as usize],
        corr_id: (rng.below(2) == 0).then(|| rng.next() as u32),
        trace_id: (rng.below(2) == 0).then(|| rng.next()),
        op,
    };
    request.encode_frame().unwrap()
}

#[test]
fn connections_cut_mid_frame_leave_nothing_behind() {
    let _seed = SeedOnPanic(SEED);
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        report(info);
    }));

    let obs = ServerObserver::shared();
    let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
    let handle = serve(ServerConfig::default(), store, Arc::clone(&obs)).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let objects: Vec<(u64, Vec<u8>)> = (0..3u8)
        .map(|i| {
            let payload = vec![i; 3_000 + 1_000 * i as usize];
            (client.put(&format!("kept-{i}"), &payload).unwrap(), payload)
        })
        .collect();
    drop(client);
    let stored: Vec<u64> = objects.iter().map(|(id, _)| *id).collect();

    // Every connection is answered one PING, so a shard holds it before it
    // is cut, and sends up to three whole frames; then, in a shuffled
    // order, each sends the head of one more, cut anywhere from inside its
    // length prefix to one byte short of its end, and hangs up.
    let ping = Request {
        deadline_ms: 0,
        corr_id: None,
        trace_id: None,
        op: Op::Ping,
    };
    let mut rng = Rng(SEED);
    let mut open: Vec<(TcpStream, Vec<u8>)> = (0..CONNECTIONS)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream.write_all(&ping.encode_frame().unwrap()).unwrap();
            read_frame(&mut stream).unwrap().expect("a PING reply");
            for _ in 0..rng.below(4) {
                stream.write_all(&random_frame(&mut rng, &stored)).unwrap();
            }
            let mut cut = random_frame(&mut rng, &stored);
            cut.truncate(1 + rng.below(cut.len() as u64 - 1) as usize);
            (stream, cut)
        })
        .collect();
    while !open.is_empty() {
        let (mut stream, cut) = open.swap_remove(rng.below(open.len() as u64) as usize);
        stream.write_all(&cut).unwrap();
    }

    let shards = obs.loop_shards.get().expect("serve sets the shards");
    let patience = Instant::now();
    loop {
        let gauges: Vec<(i64, i64)> = shards
            .iter()
            .map(|s| (s.connections.get(), s.inflight.get()))
            .collect();
        if gauges.iter().all(|&g| g == (0, 0)) {
            break;
        }
        assert!(
            patience.elapsed() < Duration::from_secs(10),
            "(connections, in flight) per shard: {gauges:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a server thread panicked");

    let mut fresh = Client::connect(&addr).unwrap();
    fresh.ping().unwrap();
    for (id, payload) in &objects {
        assert!(fresh.get(*id).unwrap() == *payload, "object {id}");
    }
    fresh.shutdown().unwrap();
    handle.join();
}
