//! Replies are written by whichever thread made them — a worker, when the
//! reply has the connection to itself, the shard otherwise — and the peer
//! must not be able to tell: every request is answered exactly once, with
//! the bytes `Response::encode_corr` would have produced, whole (no frame
//! inside another), unflagged for a one-at-a-time peer.
//! Four workers race on every connection here; the traffic is seeded and a
//! failure prints the seed.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tornado_server::protocol::{append_frame, MAX_FRAME, RESP_CORR_FLAG};
use tornado_server::ServerObserver;
use tornado_server::{serve, Client, Op, Request, Response, ServerConfig, ServerHandle};
use tornado_store::ArchivalStore;

const SEED: u64 = 0x7E91_1CA7;
const SMALL: usize = 4 << 10;
const LARGE: usize = 1 << 20;
/// More than the kernel lets a socket's send buffer grow to (4 MiB): a
/// reply this size never leaves in one write.
const HUGE: usize = 6 << 20;
const IN_FLIGHT: usize = 64;

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
            eprintln!("reply_delivery: failed with seed {:#x}", self.0);
        }
    }
}

/// A stored object: its id and its bytes.
type Object = (u64, Vec<u8>);

/// A served store holding one object of each size.
struct Served {
    handle: ServerHandle,
    addr: String,
    small: Object,
    large: Object,
    huge: Object,
}

impl Served {
    fn start(max_inflight_per_conn: usize) -> Self {
        let cfg = ServerConfig {
            workers: 4,
            // Room for every request the test keeps in flight: a BUSY
            // would be a correct answer, but not one known in advance.
            queue_depth: 1024,
            max_inflight_per_conn,
            ..ServerConfig::default()
        };
        let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
        let handle = serve(cfg, store, ServerObserver::shared()).expect("bind ephemeral port");
        let addr = handle.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let mut object = |name: &str, len: usize, modulus: usize| {
            let bytes: Vec<u8> = (0..len).map(|i| (i % modulus) as u8).collect();
            (client.put(name, &bytes).unwrap(), bytes)
        };
        let small = object("small", SMALL, 251);
        let large = object("large", LARGE, 241);
        let huge = object("huge", HUGE, 239);
        Self {
            handle,
            addr,
            small,
            large,
            huge,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
    }

    /// One request of the mix — PINGs and small GETs in equal parts, a GET
    /// of `big` one time in `big_in` — and the response it must get.
    fn pick(&self, rng: &mut Rng, big: &Object, big_in: u64) -> (Op, Response) {
        match rng.below(2 * big_in) {
            0 | 1 => (
                Op::Get { id: big.0 },
                Response::GetOk {
                    payload: big.1.clone(),
                },
            ),
            n if n % 2 == 0 => (
                Op::Get { id: self.small.0 },
                Response::GetOk {
                    payload: self.small.1.clone(),
                },
            ),
            _ => (Op::Ping, Response::Ok),
        }
    }

    /// Named counters or gauges of one METRICS snapshot.
    fn metrics<const N: usize>(admin: &mut Client, section: &str, names: [&str; N]) -> [u64; N] {
        let doc = tornado_obs::json::parse(&admin.metrics().unwrap()).unwrap();
        let section = doc.get(section).unwrap();
        names.map(|name| section.get(name).unwrap().as_u64().unwrap())
    }

    fn stop(self, mut admin: Client) {
        admin.shutdown().unwrap();
        self.handle.join();
    }
}

fn send(stream: &mut TcpStream, corr: Option<u32>, op: Op) {
    let request = Request {
        deadline_ms: 0,
        corr_id: corr,
        trace_id: None,
        op,
    };
    stream.write_all(&request.encode_frame().unwrap()).unwrap();
}

/// The bytes `response` must arrive as.
fn wire(corr: Option<u32>, response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    append_frame(&mut frame, &response.encode_corr(corr));
    frame
}

/// The peer's reading side: takes whole frames — prefix included — off the
/// stream, reading at most `sip` bytes at a time.
struct FrameReader {
    buf: Vec<u8>,
    sip: Sip,
}

/// How many bytes a peer offers its next read.
type Sip = fn(&mut Rng) -> usize;

impl FrameReader {
    fn next(&mut self, stream: &mut TcpStream, rng: &mut Rng) -> Vec<u8> {
        loop {
            if let Some(prefix) = self.buf.get(..4) {
                let len = u32::from_le_bytes(prefix.try_into().unwrap()) as usize;
                assert!(
                    len <= MAX_FRAME,
                    "a reply announced {len} bytes: the stream desynced"
                );
                if self.buf.len() >= 4 + len {
                    let rest = self.buf.split_off(4 + len);
                    return std::mem::replace(&mut self.buf, rest);
                }
            }
            let held = self.buf.len();
            self.buf.resize(held + (self.sip)(rng), 0);
            let n = stream
                .read(&mut self.buf[held..])
                .expect("a reply, not a timeout");
            assert!(n > 0, "the server closed the connection with replies owed");
            self.buf.truncate(held + n);
        }
    }
}

/// The correlation id a reply frame carries, if it is flagged as carrying one.
fn corr_of(frame: &[u8]) -> Option<u32> {
    (frame[4] & RESP_CORR_FLAG != 0).then(|| {
        u32::from_le_bytes(
            frame[5..9]
                .try_into()
                .expect("a flagged reply holds its id"),
        )
    })
}

/// Nothing more arrives on a connection whose every request was answered.
fn assert_quiet(stream: &mut TcpStream, reader: &FrameReader) {
    assert!(
        reader.buf.is_empty(),
        "{} bytes beyond the last reply",
        reader.buf.len()
    );
    stream
        .set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    match stream.read(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("a reply nobody asked for: {other:?}"),
    }
}

/// A peer's traffic: how many requests, which big object it asks for one
/// time in how many, and how many bytes it offers each read.
struct Traffic<'a> {
    seed: u64,
    requests: u32,
    big: &'a Object,
    big_in: u64,
    sip: Sip,
}

/// Keeps `IN_FLIGHT` correlated requests of the mix in flight until all
/// were sent; checks that each is answered once, byte for byte.
fn pipelined_peer(mut stream: TcpStream, served: &Served, traffic: Traffic) {
    let Traffic {
        seed,
        requests,
        big,
        big_in,
        sip,
    } = traffic;
    let mut rng = Rng(seed);
    let mut reader = FrameReader {
        buf: Vec::new(),
        sip,
    };
    let mut expected: Vec<Option<Vec<u8>>> = Vec::new();
    let (mut sent, mut answered) = (0u32, 0u32);
    while answered < requests {
        while sent < requests && (sent - answered) < IN_FLIGHT as u32 {
            let (op, response) = served.pick(&mut rng, big, big_in);
            send(&mut stream, Some(sent), op);
            expected.push(Some(wire(Some(sent), &response)));
            sent += 1;
        }
        let frame = reader.next(&mut stream, &mut rng);
        let corr = corr_of(&frame).expect("a correlated request's reply carries its id") as usize;
        let want = expected
            .get_mut(corr)
            .unwrap_or_else(|| panic!("corr {corr} was never sent"))
            .take()
            .unwrap_or_else(|| panic!("corr {corr} answered twice"));
        assert!(
            frame == want,
            "corr {corr}: {} bytes, not the {} encoded",
            frame.len(),
            want.len()
        );
        answered += 1;
    }
    assert_quiet(&mut stream, &reader);
}

/// Sends uncorrelated requests of the mix one at a time, each once the last
/// is answered — the only way the protocol lets a client without
/// correlation ids send; every reply must come back unflagged, byte for
/// byte.
fn one_at_a_time_peer(mut stream: TcpStream, served: &Served, traffic: Traffic) {
    let Traffic {
        seed,
        requests,
        big,
        big_in,
        sip,
    } = traffic;
    let mut rng = Rng(seed);
    let mut reader = FrameReader {
        buf: Vec::new(),
        sip,
    };
    for i in 0..requests {
        let (op, response) = served.pick(&mut rng, big, big_in);
        send(&mut stream, None, op);
        let frame = reader.next(&mut stream, &mut rng);
        assert!(frame == wire(None, &response), "request {i}: altered");
    }
    assert_quiet(&mut stream, &reader);
}

/// Pins the socket's receive buffer at 64 KiB (the kernel doubles it), so
/// the window never grows to hold a large reply. (Much smaller, and on
/// loopback — where a segment is 64 KiB — the connection spends its time in
/// window probes, whoever serves it.)
fn pin_receive_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 64 << 10;
    // SAFETY: `fd` is an open socket for as long as `stream` is borrowed,
    // and `value`/`len` describe one live `i32`, which is what SO_RCVBUF
    // reads.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn every_request_is_answered_once_in_order_byte_for_byte() {
    let _seed = SeedOnPanic(SEED);
    let served = Served::start(IN_FLIGHT);
    let (large, huge) = (&served.large, &served.huge);
    let gulp: Sip = |_| 64 << 10;
    let sips: Sip = |rng| (1 << 10) + rng.below(3 << 10) as usize;
    thread::scope(|s| {
        // Three peers that read as fast as they can.
        for peer in 0..3 {
            let traffic = Traffic {
                seed: SEED + peer,
                requests: 256,
                big: large,
                big_in: 8,
                sip: gulp,
            };
            let served = &served;
            s.spawn(move || pipelined_peer(served.connect(), served, traffic));
        }
        // One that asks for more than the kernel will buffer (16 MiB of
        // large replies in flight) and sips it 1–4 KiB at a time: its
        // replies queue behind one another and the shard's writes of them
        // stop part-way.
        s.spawn(|| {
            let traffic = Traffic {
                seed: SEED + 3,
                requests: 128,
                big: large,
                big_in: 4,
                sip: sips,
            };
            let stream = served.connect();
            pin_receive_buffer(&stream);
            pipelined_peer(stream, &served, traffic)
        });
        // One old-header peer, one request at a time, sipping likewise: each
        // reply has the connection to itself, so a worker starts the write;
        // a huge one stops part-way and the shard finishes the frame.
        s.spawn(|| {
            let traffic = Traffic {
                seed: SEED + 4,
                requests: 48,
                big: huge,
                big_in: 4,
                sip: sips,
            };
            let stream = served.connect();
            pin_receive_buffer(&stream);
            one_at_a_time_peer(stream, &served, traffic)
        });
    });
    let admin = Client::connect(&served.addr).unwrap();
    served.stop(admin);
}

#[test]
fn a_peer_that_hangs_up_with_requests_in_flight_costs_nothing_but_its_replies() {
    let served = Served::start(IN_FLIGHT);
    let mut admin = Client::connect(&served.addr).unwrap();

    // 64 large GETs, and gone before the first reply: workers find the
    // socket reset under them, or the connection already closed.
    let mut rude = served.connect();
    for corr in 0..IN_FLIGHT as u32 {
        send(&mut rude, Some(corr), Op::Get { id: served.large.0 });
    }
    drop(rude);

    let patience = Instant::now();
    loop {
        let loop_gauges = ["server.loop.connections", "server.loop.inflight"];
        let [open, inflight] = Served::metrics(&mut admin, "gauges", loop_gauges);
        // The connection and the request taking the reading are all there is.
        if open == 1 && inflight == 1 {
            break;
        }
        assert!(
            patience.elapsed() < Duration::from_secs(10),
            "{open} connections open, {inflight} requests in flight"
        );
        thread::sleep(Duration::from_millis(5));
    }
    // Every worker is still there to serve.
    for _ in 0..16 {
        assert!(admin.get(served.large.0).unwrap() == served.large.1);
    }
    served.stop(admin);
}

#[test]
fn a_peer_that_never_reads_is_owed_a_bounded_number_of_replies() {
    const REQUESTS: u32 = 120;
    const MAX_IN_FLIGHT: usize = 16;
    let served = Served::start(MAX_IN_FLIGHT);
    let mut admin = Client::connect(&served.addr).unwrap();
    let gets = |admin: &mut Client| Served::metrics(admin, "counters", ["server.get"])[0];
    let gets_before = gets(&mut admin);

    // 120 pipelined large GETs and not one read: workers append behind one
    // another until the connection's unsent output passes its bound
    // (2 × MAX_FRAME), and nothing further is taken from it.
    let mut greedy = served.connect();
    for corr in 0..REQUESTS {
        send(&mut greedy, Some(corr), Op::Get { id: served.large.0 });
    }
    let bound = (2 * MAX_FRAME / LARGE + MAX_IN_FLIGHT) as u64;
    let mut admitted = 0;
    let settled = Instant::now();
    // The count stops moving: two readings 50 ms apart agree.
    loop {
        thread::sleep(Duration::from_millis(50));
        let now = gets(&mut admin) - gets_before;
        if now == admitted {
            break;
        }
        admitted = now;
        assert!(
            settled.elapsed() < Duration::from_secs(10),
            "GETs never stop being admitted"
        );
    }
    // The kernel's socket buffers hold a few replies more.
    assert!(
        admitted <= bound + 16,
        "{admitted} replies of 1 MiB made for a peer that reads none (bound {bound})"
    );

    // When it does read, every reply is there, once, intact.
    let mut rng = Rng(SEED);
    let mut reader = FrameReader {
        buf: Vec::new(),
        sip: |_| 256 << 10,
    };
    let mut seen = vec![false; REQUESTS as usize];
    for _ in 0..REQUESTS {
        let frame = reader.next(&mut greedy, &mut rng);
        let corr = corr_of(&frame).expect("correlated");
        assert!(
            !std::mem::replace(&mut seen[corr as usize], true),
            "corr {corr} answered twice"
        );
        let want = wire(
            Some(corr),
            &Response::GetOk {
                payload: served.large.1.clone(),
            },
        );
        assert!(frame == want, "corr {corr}");
    }
    assert_quiet(&mut greedy, &reader);
    served.stop(admin);
}
