//! End-to-end tests over real TCP on localhost: protocol round trips,
//! concurrent degraded reads while devices fail mid-run, backpressure,
//! deadlines, and graceful shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tornado_core::tornado_graph_1;
use tornado_obs::Tracer;
use tornado_server::protocol::read_frame;
use tornado_server::{
    load, serve, Client, ClientError, HealthConfig, LoadConfig, Op, OpMix, Request, Response,
    ServerConfig, ServerObserver,
};
use tornado_store::ArchivalStore;

fn start_server(workers: usize, queue_depth: usize) -> (tornado_server::ServerHandle, String) {
    let cfg = ServerConfig {
        workers,
        queue_depth,
        ..ServerConfig::default()
    };
    start_server_with(cfg, ServerObserver::shared())
}

fn start_server_with(
    cfg: ServerConfig,
    obs: Arc<ServerObserver>,
) -> (tornado_server::ServerHandle, String) {
    let store = Arc::new(ArchivalStore::new(tornado_graph_1()));
    let handle = serve(cfg, store, obs).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn object_lifecycle_over_tcp() {
    let (handle, addr) = start_server(2, 16);
    let mut client = Client::connect(&addr).unwrap();

    client.ping().unwrap();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
    let id = client.put("archive/tape-01", &payload).unwrap();
    assert_eq!(client.get(id).unwrap(), payload);

    let meta = client.stat(id).unwrap();
    assert_eq!(meta.id, id);
    assert_eq!(meta.name, "archive/tape-01");
    assert_eq!(meta.size, payload.len() as u64);
    assert!(meta.block_len > 0);

    client.delete(id).unwrap();
    match client.get(id) {
        Err(ClientError::NotFound(got)) => assert_eq!(got, id),
        other => panic!("expected NotFound, got {other:?}"),
    }

    let json = client.metrics().unwrap();
    let doc = tornado_obs::json::parse(&json).unwrap();
    tornado_obs::snapshot::validate(&doc).unwrap();
    let counters = doc.get("counters").unwrap();
    assert!(counters.get("server.put").unwrap().as_u64().unwrap() >= 1);
    assert!(counters.get("server.get").unwrap().as_u64().unwrap() >= 2);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn concurrent_degraded_reads_while_devices_fail() {
    let (handle, addr) = start_server(4, 64);

    // Ingest objects with payloads regenerable from their seed.
    let mut admin = Client::connect(&addr).unwrap();
    let objects: Vec<(u64, u64, usize)> = (0..6u64)
        .map(|i| {
            let seed = 0xA5A5_0000 + i;
            let len = 4_000 + (i as usize) * 1_777;
            let payload = load::payload_for(seed, len);
            let id = admin.put(&format!("obj-{i}"), &payload).unwrap();
            (id, seed, len)
        })
        .collect();

    // Readers hammer GET over their own connections while the admin
    // connection fails four devices (the catalog graphs are certified to
    // survive any four).
    let objects = Arc::new(objects);
    thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let addr = addr.clone();
                let objects = Arc::clone(&objects);
                s.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut reads = 0u64;
                    for round in 0..40 {
                        let (id, seed, len) = objects[(r + round) % objects.len()];
                        let got = client.get(id).expect("read must survive 4 failures");
                        assert_eq!(got, load::payload_for(seed, len), "byte-for-byte");
                        reads += 1;
                        thread::sleep(Duration::from_millis(2));
                    }
                    reads
                })
            })
            .collect();

        thread::sleep(Duration::from_millis(15));
        for device in [3, 17, 48, 95] {
            admin.fail_device(device).unwrap();
            thread::sleep(Duration::from_millis(10));
        }

        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert_eq!(total, 160);
    });

    let json = admin.metrics().unwrap();
    let doc = tornado_obs::json::parse(&json).unwrap();
    let counters = doc.get("counters").unwrap();
    assert!(
        counters
            .get("server.get.degraded")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0,
        "degraded reads must be visible in the snapshot"
    );
    assert_eq!(
        doc.get("gauges")
            .unwrap()
            .get("device.offline")
            .unwrap()
            .as_u64(),
        Some(4)
    );

    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn expired_deadline_is_answered_not_executed() {
    let (handle, addr) = start_server(1, 8);
    let mut blocker = Client::connect(&addr).unwrap();
    let mut client = Client::connect(&addr).unwrap();

    // Saturate the single worker so the deadlined request waits in queue.
    let big = vec![7u8; 2 << 20];
    let blocker_thread = thread::spawn(move || {
        blocker.put("big", &big).unwrap();
        blocker
    });
    thread::sleep(Duration::from_millis(5));
    client.set_deadline_ms(1);
    match client.roundtrip(Op::Ping) {
        Ok(Response::DeadlineExceeded) | Ok(Response::Ok) => {}
        other => panic!("expected DeadlineExceeded or Ok, got {other:?}"),
    }
    let mut blocker = blocker_thread.join().unwrap();

    // A generously-deadlined request still succeeds.
    client.set_deadline_ms(10_000);
    client.ping().unwrap();

    blocker.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let (handle, addr) = start_server(2, 16);
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();

    let id = a.put("x", &[1, 2, 3, 4]).unwrap();
    a.shutdown().unwrap();

    // The other connection is told to go away at its next request.
    match b.get(id) {
        Err(ClientError::ShuttingDown) | Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("post-shutdown request must not be served"),
        Err(other) => panic!("unexpected error {other:?}"),
    }
    handle.join();

    // The listener is gone after join.
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn a_shutdown_op_on_one_shard_closes_idle_connections_on_every_shard() {
    let cfg = ServerConfig {
        workers: 1,
        shards: 4,
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, ServerObserver::shared());
    // Connections are adopted round-robin: eight made one after another
    // are two on each shard, and a PING answered on each says it was.
    let mut idle: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let ping = Request {
                deadline_ms: 0,
                corr_id: None,
                trace_id: None,
                op: Op::Ping,
            };
            stream.write_all(&ping.encode_frame().unwrap()).unwrap();
            let reply = read_frame(&mut stream).unwrap().expect("a PING reply");
            assert_eq!(Response::decode_corr(&reply).unwrap(), (None, Response::Ok));
            stream
        })
        .collect();

    // SHUTDOWN arrives on a ninth connection, on one shard; every shard
    // hears of it at once and closes what it holds.
    let asked = Instant::now();
    Client::connect(&addr).unwrap().shutdown().unwrap();
    for (i, stream) in idle.iter_mut().enumerate() {
        assert_eq!(
            read_frame(stream).unwrap(),
            None,
            "idle connection {i} sees EOF and nothing else"
        );
    }
    handle.join();
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "the drain of idle connections took {:?}",
        asked.elapsed()
    );
}

#[test]
fn a_health_model_without_a_sampler_is_refused() {
    let store = || Arc::new(ArchivalStore::new(tornado_graph_1()));
    let cfg = ServerConfig {
        timeseries_interval_ms: 0,
        ..ServerConfig::default()
    };
    let refused = serve(cfg, store(), ServerObserver::shared())
        .err()
        .expect("no sampler means the health model has no clock");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    let message = refused.to_string();
    assert!(
        message.contains("health.enabled") && message.contains("timeseries_interval_ms"),
        "the refusal names both settings: {message}"
    );

    // Without the health model, no sampler is fine.
    let cfg = ServerConfig {
        timeseries_interval_ms: 0,
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, ServerObserver::shared());
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_frames_get_bad_request() {
    use std::io::Write;
    let (handle, addr) = start_server(1, 4);

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    // opcode 200 does not exist.
    let body = [200u8, 0, 0, 0, 0];
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    let resp = tornado_server::protocol::read_frame(&mut raw)
        .unwrap()
        .expect("a reply frame");
    assert_eq!(resp[0], 19, "BAD_REQUEST status byte");
    drop(raw);

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn load_generator_end_to_end_with_failure_injection() {
    let (handle, addr) = start_server(4, 64);

    let cfg = LoadConfig {
        addr: addr.clone(),
        connections: 3,
        duration_ms: 800,
        seed: 42,
        prefill: 4,
        payload_min: 512,
        payload_max: 8 << 10,
        fail_devices: vec![5, 23, 60, 91],
        fail_after_ms: 100,
        fail_spacing_ms: 20,
        ..LoadConfig::default()
    };
    let report = load::run_load(&cfg).expect("load run succeeds");

    assert!(report.ops > 0, "closed loop made progress");
    assert!(report.gets > 0 && report.puts > 0);
    assert_eq!(report.payload_mismatches, 0, "every GET byte-for-byte");
    assert_eq!(report.unrecoverable, 0, "4 failures are within tolerance");
    assert_eq!(report.devices_failed, vec![5, 23, 60, 91]);
    assert!(report.ops_per_sec > 0.0);
    assert!(report.latency_us.count() >= report.ops);

    // The run's snapshot validates and embeds the server's snapshot.
    let snap = report.snapshot(cfg.seed);
    let doc = tornado_obs::json::parse(&snap.to_pretty()).unwrap();
    tornado_obs::snapshot::validate(&doc).unwrap();
    tornado_obs::snapshot::validate(doc.get("server").unwrap()).unwrap();
    assert!(
        report.degraded_reads > 0,
        "mid-run failures must surface degraded reads in server metrics"
    );

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn trace_export_over_tcp_shows_the_degraded_get_span_tree() {
    // Sample everything so the one GET we care about is guaranteed kept.
    let obs = Arc::new(ServerObserver::disabled().with_tracer(Tracer::new(1, 4096, 16)));
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, obs);

    let mut client = Client::connect(&addr).unwrap();
    let payload = load::payload_for(0xFEED, 30_000);
    let id = client.put("traced", &payload).unwrap();
    for device in [2, 17, 48, 95] {
        client.fail_device(device).unwrap();
    }
    client.set_trace_id(Some(0xDEAD_BEEF));
    assert_eq!(
        client.get(id).unwrap(),
        payload,
        "degraded read still byte-for-byte"
    );
    client.set_trace_id(None);

    let json = client.trace_export().unwrap();
    let doc = tornado_obs::json::parse(&json).unwrap();
    let stats = tornado_obs::trace::validate_chrome_trace(
        &doc,
        &[
            "request",
            "frame.decode",
            "queue.wait",
            "execute",
            "store.get",
            "decode.recover",
        ],
    )
    .expect("export is well-nested Chrome trace JSON");
    assert!(
        stats.events >= 8,
        "full span tree exported, got {}",
        stats.events
    );
    assert!(stats.traces >= 2, "PUT and GET traces both sampled");

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn slow_request_events_attach_the_span_tree_for_sampled_requests() {
    let (events, lines) = tornado_obs::EventSink::memory(tornado_obs::EventFormat::Json);
    let obs = Arc::new(
        ServerObserver::disabled()
            .with_events(events)
            .with_tracer(Tracer::new(1, 4096, 16)),
    );
    // A 1µs threshold makes every request slow.
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 8,
        slow_request_us: 1,
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, obs);

    let mut client = Client::connect(&addr).unwrap();
    client.set_trace_id(Some(0x51));
    let id = client.put("slow", &[9u8; 4096]).unwrap();
    client.get(id).unwrap();
    client.set_trace_id(None);
    client.shutdown().unwrap();
    handle.join();

    let lines = lines.lock().unwrap();
    let slow: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("server.slow_request"))
        .collect();
    assert!(
        slow.len() >= 2,
        "PUT and GET both crossed the 1µs threshold: {lines:?}"
    );
    let parsed = tornado_obs::json::parse(slow[0]).unwrap();
    assert_eq!(
        parsed.get("trace_id").and_then(tornado_obs::Json::as_str),
        Some("0x0000000000000051")
    );
    assert_eq!(parsed.get("sampled"), Some(&tornado_obs::Json::Bool(true)));
    let spans = parsed
        .get("spans")
        .expect("sampled slow request carries its span tree");
    match spans {
        tornado_obs::Json::Arr(items) => assert!(!items.is_empty()),
        other => panic!("spans should be an array, got {other:?}"),
    }
}

#[test]
fn metrics_snapshot_carries_a_populated_timeseries() {
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 16,
        timeseries_interval_ms: 20,
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, ServerObserver::shared());

    let mut client = Client::connect(&addr).unwrap();
    for i in 0..5 {
        let id = client.put(&format!("ts-{i}"), &[i as u8; 2048]).unwrap();
        client.get(id).unwrap();
        thread::sleep(Duration::from_millis(15));
    }

    // Poll until the sampler has taken a post-traffic sample (the thread
    // runs on its own 20ms cadence, so one fetch could race it).
    let series_value = |p: &tornado_obs::SeriesPoint, k: &str| {
        p.values
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let doc = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
        tornado_obs::snapshot::validate(&doc).unwrap();
        let points = tornado_obs::timeseries::points_from_json(
            doc.get("timeseries").expect("timeseries key"),
        )
        .expect("parseable series points");
        if points.len() >= 2 {
            let first = &points[0];
            let last = &points[points.len() - 1];
            assert!(last.t_ms > first.t_ms, "samples are time-ordered");
            if series_value(last, "server.requests") >= 10 {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never caught up to the 10 issued requests: {points:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn sampled_trace_ids_are_identical_across_server_worker_counts() {
    // Same load seed + op_limit against a 1-worker and a 4-worker server:
    // the sampled trace-id set must match exactly, because sampling is a
    // pure function of the client-generated ids, never of server timing.
    let run = |workers: usize| {
        let cfg = ServerConfig {
            workers,
            queue_depth: 64,
            ..ServerConfig::default()
        };
        let (handle, addr) = start_server_with(cfg, ServerObserver::shared());
        let report = load::run_load(&LoadConfig {
            addr: addr.clone(),
            connections: 2,
            duration_ms: 30_000, // generous: op_limit is what stops the run
            op_limit: 60,
            trace_sample: 4,
            seed: 7,
            prefill: 3,
            payload_min: 256,
            payload_max: 2048,
            ..LoadConfig::default()
        })
        .expect("load run succeeds");
        let mut c = Client::connect(&addr).unwrap();
        c.shutdown().unwrap();
        handle.join();
        report
    };

    let a = run(1);
    let b = run(4);
    assert_eq!(a.ops, b.ops, "op_limit bounds both runs identically");
    assert!(
        !a.sampled_trace_ids.is_empty(),
        "1-in-4 sampling over 126 ops keeps some"
    );
    assert_eq!(a.sampled_trace_ids, b.sampled_trace_ids);
    assert!(!a.slowest.is_empty(), "exemplars recorded");
    assert!(a
        .slowest
        .windows(2)
        .all(|w| w[0].latency_us >= w[1].latency_us));
}

#[test]
fn backpressure_answers_busy_not_buffering() {
    // One worker, depth-1 queue, four barrier-aligned large PUTs: at most
    // one executes and one queues, so at least one MUST bounce with BUSY.
    // Busy callers back off and retry until everything lands.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    let (handle, addr) = start_server(1, 1);
    let barrier = Barrier::new(4);
    let busy = AtomicU64::new(0);

    thread::scope(|s| {
        for t in 0..4u8 {
            let addr = &addr;
            let barrier = &barrier;
            let busy = &busy;
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let big = vec![t; 8 << 20];
                barrier.wait();
                loop {
                    match c.put(&format!("grind-{t}"), &big) {
                        Ok(_) => return,
                        Err(ClientError::Busy) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                            thread::sleep(Duration::from_micros(500));
                        }
                        Err(e) => panic!("{e:?}"),
                    }
                }
            });
        }
    });
    assert!(
        busy.load(Ordering::Relaxed) >= 1,
        "a saturated depth-1 queue must shed load as BUSY"
    );

    // The rejections are visible in the server's own metrics.
    let mut c = Client::connect(&addr).unwrap();
    let doc = tornado_obs::json::parse(&c.metrics().unwrap()).unwrap();
    let rejected = doc
        .get("counters")
        .and_then(|cs| cs.get("server.busy_rejected"))
        .and_then(tornado_obs::Json::as_u64)
        .unwrap();
    assert!(rejected >= 1);
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn durable_store_survives_server_restart() {
    // Same ServerConfig + observer plumbing as everywhere else, but the
    // store opens over a durable file backend: objects ingested over TCP
    // in the first server incarnation are served byte-for-byte by a
    // second incarnation over the same data dir.
    let dir = std::env::temp_dir().join(format!("tornado-server-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        tornado_store::ArchivalStore::open(
            tornado_graph_1(),
            tornado_store::DurableConfig::new_nosync(dir.clone(), tornado_store::BackendKind::File),
        )
        .expect("open durable store")
    };
    let cfg = || ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    };

    let (store, report) = open();
    assert_eq!(report.objects, 0);
    let handle = serve(cfg(), Arc::new(store), ServerObserver::shared()).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let payload: Vec<u8> = (0..25_000u32)
        .map(|i| (i.wrapping_mul(97) % 251) as u8)
        .collect();
    let id = client.put("durable/tcp-01", &payload).unwrap();
    client.shutdown().unwrap();
    handle.join();

    let (store, report) = open();
    assert_eq!(report.objects, 1, "recovery found the object");
    let handle = serve(cfg(), Arc::new(store), ServerObserver::shared()).expect("rebind");
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(
        client.get(id).unwrap(),
        payload,
        "byte-for-byte across restart"
    );
    let meta = client.stat(id).unwrap();
    assert_eq!(meta.name, "durable/tcp-01");
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_op_reports_conditional_risk_that_matches_offline_analysis() {
    // The observatory's acceptance bar, end to end over TCP: fail k
    // devices, ask HEALTH, and check (a) the document validates, (b) the
    // conditional P(loss) strictly exceeds the healthy baseline, and
    // (c) an offline recomputation with the published parameters and
    // erasure pattern reproduces the live number exactly.
    let health = HealthConfig::default();
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 16,
        timeseries_interval_ms: 20,
        health: health.clone(),
        ..ServerConfig::default()
    };
    let graph = tornado_gen::mirror::generate_mirror(12).unwrap();
    let store = Arc::new(ArchivalStore::new(graph.clone()));
    let obs = ServerObserver::shared();
    let handle = serve(cfg, Arc::clone(&store), Arc::clone(&obs)).expect("bind");
    let addr = handle.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for i in 0..5u64 {
        let payload = load::payload_for(0xBEEF + i, 2_000 + i as usize * 311);
        client.put(&format!("health-obj-{i}"), &payload).unwrap();
    }

    let healthy_doc = tornado_obs::json::parse(&client.health().unwrap()).unwrap();
    tornado_server::validate_health(&healthy_doc).unwrap();
    let healthy_rel = healthy_doc.get("reliability").unwrap();
    let p_healthy = healthy_rel.get("p_loss").unwrap().as_f64().unwrap();
    assert_eq!(
        healthy_rel.get("p_loss_healthy").unwrap().as_f64(),
        Some(p_healthy),
        "clean fleet: live estimate IS the baseline"
    );

    for device in [1u32, 7] {
        client.fail_device(device).unwrap();
    }
    let doc = tornado_obs::json::parse(&client.health().unwrap()).unwrap();
    tornado_server::validate_health(&doc).unwrap();
    let rel = doc.get("reliability").unwrap();
    let p_loss = rel.get("p_loss").unwrap().as_f64().unwrap();
    assert!(
        p_loss > p_healthy,
        "2 failed devices must raise P(loss): {p_loss} vs {p_healthy}"
    );
    assert_eq!(
        doc.get("fleet").unwrap().get("offline").unwrap().as_u64(),
        Some(2)
    );

    // Offline recomputation from the published parameters.
    let missing: Vec<usize> = rel
        .get("missing_nodes")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(missing, vec![1, 7]);
    let offline_p = tornado_analysis::health::conditional_failure_probability(
        &graph,
        &missing,
        tornado_analysis::health::horizon_failure_probability(health.afr, health.horizon_hours),
        &tornado_server::health::CONDITIONAL,
    );
    assert!(
        (p_loss - offline_p).abs() <= 1e-9,
        "live {p_loss} vs offline {offline_p}: same pattern, same seed, same number"
    );

    // Margins: a mirror with both copies of some pairs intact has margin
    // 1 once one copy is gone, and the at-risk gauge covers every stripe.
    let margins = doc.get("margins").unwrap();
    assert_eq!(margins.get("min_margin").unwrap().as_u64(), Some(1));
    assert!(
        margins
            .get("stripes_at_margin_le_1")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    // The latest tick's document also rides on the METRICS snapshot.
    let snap = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    tornado_obs::snapshot::validate(&snap).unwrap();
    let embedded = snap
        .get("health")
        .expect("metrics snapshot embeds the health doc");
    tornado_server::validate_health(embedded).unwrap();

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn health_validates_while_other_connections_fail_replace_and_put() {
    // Every reply is rendered from the fleet as it is at that moment, while
    // one connection fails and replaces devices and another PUTs.
    const ROUNDS: u64 = 30;
    let cfg = ServerConfig {
        timeseries_interval_ms: 20,
        ..ServerConfig::default()
    };
    let graph = tornado_gen::mirror::generate_mirror(12).unwrap();
    let store = Arc::new(ArchivalStore::new(graph));
    let handle = serve(cfg, store, ServerObserver::shared()).expect("bind");
    let addr = handle.local_addr().to_string();
    let read = |doc: &tornado_obs::Json, section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_u64())
    };
    thread::scope(|s| {
        s.spawn(|| {
            let mut admin = Client::connect(&addr).unwrap();
            for round in 0..ROUNDS as u32 {
                // Never both copies of a mirrored pair: 12 apart.
                let device = round % 12;
                admin.fail_device(device).unwrap();
                admin.revive_device(device).unwrap();
            }
        });
        s.spawn(|| {
            let mut writer = Client::connect(&addr).unwrap();
            for i in 0..ROUNDS {
                writer.put(&format!("churn-{i}"), &[i as u8; 900]).unwrap();
            }
        });
        let mut reader = Client::connect(&addr).unwrap();
        let mut stripes = 0;
        for _ in 0..ROUNDS {
            let doc = tornado_obs::json::parse(&reader.health().unwrap()).unwrap();
            tornado_server::validate_health(&doc).unwrap();
            let now = read(&doc, "margins", "stripes_total").unwrap();
            assert!(now >= stripes, "stripes_total went from {stripes} to {now}");
            stripes = now;
        }
    });
    // With the churn over, the fleet is whole and every transition counted.
    let mut client = Client::connect(&addr).unwrap();
    let doc = tornado_obs::json::parse(&client.health().unwrap()).unwrap();
    tornado_server::validate_health(&doc).unwrap();
    assert_eq!(read(&doc, "fleet", "offline"), Some(0));
    assert_eq!(read(&doc, "margins", "stripes_total"), Some(ROUNDS));
    assert_eq!(read(&doc, "observed", "failures"), Some(ROUNDS));
    assert_eq!(read(&doc, "observed", "replacements"), Some(ROUNDS));
    client.shutdown().unwrap();
    handle.join();
}

/// The devices the mid-run injector fails — within catalog graph 1's
/// certified tolerance (survives ANY four losses), so every read must
/// still verify.
const TOLERATED_FAILURES: [u32; 4] = [7, 29, 55, 88];

#[test]
fn pipelined_gets_complete_byte_for_byte_under_device_failures() {
    let (handle, addr) = start_server(3, 32);
    let mut writer = Client::connect(&addr).unwrap();

    // Mixed sizes so decode work per GET differs wildly — the engine's
    // worker pool finishes them out of submission order.
    let mut objects = Vec::new();
    for i in 0..10u64 {
        let len = if i % 2 == 0 { 48_000 } else { 900 };
        let payload: Vec<u8> = (0..len)
            .map(|j| ((i * 131 + j as u64 * 7) % 251) as u8)
            .collect();
        let id = writer.put(&format!("ooo-{i}"), &payload).unwrap();
        objects.push((id, payload));
    }

    // Every GET on one connection, each framed with its own correlation id.
    let mut pipelined = TcpStream::connect(&addr).unwrap();
    let mut expected = std::collections::HashMap::new();
    let mut submit_wave = |pipelined: &mut TcpStream| {
        for (id, payload) in &objects {
            let corr = expected.len() as u32 + 1;
            let request = Request {
                deadline_ms: 0,
                corr_id: Some(corr),
                trace_id: None,
                op: Op::Get { id: *id },
            };
            pipelined
                .write_all(&request.encode_frame().unwrap())
                .unwrap();
            expected.insert(corr, payload.clone());
        }
    };

    // First wave in flight...
    submit_wave(&mut pipelined);
    // ...devices die mid-run on a separate admin connection...
    let mut admin = Client::connect(&addr).unwrap();
    for d in TOLERATED_FAILURES {
        admin.fail_device(d).unwrap();
    }
    // ...second wave reads through the failures.
    submit_wave(&mut pipelined);

    while !expected.is_empty() {
        let body = read_frame(&mut pipelined)
            .unwrap()
            .expect("a reply, not EOF");
        let (corr, resp) = Response::decode_corr(&body).unwrap();
        let corr = corr.expect("a correlated request gets a correlated reply");
        let want = expected
            .remove(&corr)
            .expect("response corr matches a submitted GET");
        match resp {
            Response::GetOk { payload } => {
                assert_eq!(payload, want, "GET corr {corr} must verify byte-for-byte");
            }
            other => panic!("GET corr {corr} answered {:?}", other.kind()),
        }
    }

    // The failures really happened: reads past this point are degraded.
    let metrics = admin.metrics().unwrap();
    let doc = tornado_obs::json::parse(&metrics).unwrap();
    let failed = doc
        .get("gauges")
        .and_then(|g| g.get("device.offline"))
        .and_then(tornado_obs::Json::as_u64)
        .unwrap_or(0);
    assert_eq!(failed, TOLERATED_FAILURES.len() as u64);

    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn pipelined_open_loop_load_survives_device_failures() {
    let (handle, addr) = start_server(3, 48);
    let report = load::run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 2,
        duration_ms: 1_500,
        seed: 11,
        pipeline_depth: 8,
        rate_ops_per_sec: 400.0,
        prefill: 6,
        payload_min: 1 << 10,
        payload_max: 16 << 10,
        fail_devices: TOLERATED_FAILURES.to_vec(),
        fail_after_ms: 300,
        fail_spacing_ms: 30,
        trace_sample: 0,
        ..LoadConfig::default()
    })
    .unwrap();

    assert!(report.ops > 0, "pipelined open-loop run made progress");
    assert_eq!(
        report.payload_mismatches, 0,
        "reads through 4 failures stay byte-perfect"
    );
    assert_eq!(
        report.unrecoverable, 0,
        "4 failures are within certified tolerance"
    );
    assert_eq!(report.devices_failed, TOLERATED_FAILURES.to_vec());

    let mut admin = Client::connect(&addr).unwrap();
    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn one_load_driver_holds_256_open_loop_connections() {
    let (handle, addr) = start_server(2, 256);
    let report = load::run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 256,
        duration_ms: 600,
        seed: 5,
        mix: OpMix {
            put: 0,
            get: 1,
            delete: 0,
        },
        payload_min: 4 << 10,
        payload_max: 4 << 10,
        prefill: 8,
        pipeline_depth: 32,
        rate_ops_per_sec: 1_000.0,
        trace_sample: 0,
        ..LoadConfig::default()
    })
    .expect("load run succeeds");

    assert_eq!(report.connected, 256, "every connection established");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.unanswered, 0, "the drain settles every arrival");
    assert_eq!(report.payload_mismatches, 0, "every GET byte-for-byte");
    assert_eq!(
        report.puts, 8,
        "a GET-only run PUTs only the shared prefill"
    );
    assert!(
        report.gets >= 400,
        "~600 arrivals in the 600 ms window, got {}",
        report.gets
    );

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_server_shut_down_mid_run_ends_the_load_run() {
    let (handle, addr) = start_server(2, 64);
    let stopper = {
        let addr = addr.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            Client::connect(&addr).unwrap().shutdown().unwrap();
        })
    };
    let started = Instant::now();
    let report = load::run_load(&LoadConfig {
        addr,
        connections: 8,
        // Far longer than the test may take: the server going away, not
        // the clock, has to end the run.
        duration_ms: 60_000,
        seed: 13,
        payload_min: 512,
        payload_max: 8 << 10,
        pipeline_depth: 4,
        trace_sample: 0,
        ..LoadConfig::default()
    })
    .expect("a run whose server went away still reports");
    let took = started.elapsed();
    stopper.join().unwrap();
    handle.join();

    assert!(
        took < load::DRAIN_GRACE,
        "the run ended {took:?} in, not at its window plus the drain grace"
    );
    assert!(report.ops > 0, "the run made progress before the shutdown");
    // Whether a request was in flight when its connection closed is a
    // race; whatever was is an error (`load.rs` pins the count against a
    // server that vanishes), and nothing is left waiting.
    assert_eq!(report.unanswered, 0, "{report:?}");
    assert_eq!(report.payload_mismatches, 0);
    assert!(
        report.server_metrics_json.is_empty(),
        "no server left to ask for a snapshot"
    );
}

#[test]
fn over_long_put_names_are_refused_before_anything_is_sent() {
    use tornado_server::protocol::MAX_NAME;

    let (handle, addr) = start_server(1, 4);
    let mut client = Client::connect(&addr).unwrap();
    let payload = [7u8; 100];

    // The longest legal name goes through and comes back from STAT.
    let longest = "n".repeat(MAX_NAME);
    let id = client.put(&longest, &payload).unwrap();
    assert_eq!(client.stat(id).unwrap().name, longest);

    // One byte over is what the server's decoder would refuse after the
    // whole payload had been shipped; 70,000 wraps a u16 length, so the
    // name's tail would be stored as the head of the payload.
    for len in [MAX_NAME + 1, 70_000] {
        match client.put(&"n".repeat(len), &payload) {
            Err(ClientError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                assert!(e.to_string().contains("name length"), "{e}");
            }
            other => panic!("{len}-byte name: expected InvalidInput, got {other:?}"),
        }
        // Nothing was written, so the connection is still in step.
        assert_eq!(client.get(id).unwrap(), payload);
    }
    let doc = tornado_obs::json::parse(&client.metrics().unwrap()).unwrap();
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters.get("server.bad_requests").unwrap().as_u64(),
        Some(0),
        "refused by the client: the server never saw the frames"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn first_request_on_a_fresh_connection_does_not_wait_out_the_poll_interval() {
    // The acceptor waits on the listener's readiness. Connect once the
    // acceptor has gone idle: the first reply must not wait for a timer.
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (handle, addr) = start_server_with(cfg, ServerObserver::shared());
    thread::sleep(Duration::from_millis(50));

    // Fastest of three fresh connections, so a descheduled test thread
    // cannot fail it; an acceptor that sleeps makes every one of them slow.
    let fastest = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            Client::connect(&addr).unwrap().ping().unwrap();
            t.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(250),
        "connect + PING took {fastest:?}"
    );

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}
