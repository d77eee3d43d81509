//! CLI integration tests: drive commands through the library entry point
//! with real files in a temp directory.

use tornado_cli::{run_command, ParsedArgs};

fn args(parts: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tornado-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_then_inspect_then_test() {
    let out = temp_path("gen.graphml");
    let out_s = out.to_str().unwrap();
    // Use a small graph so the exhaustive search stays debug-affordable.
    run_command(
        "generate",
        &args(&[
            "--seed", "3", "--data", "16", "--screen", "2", "--out", out_s,
        ]),
    )
    .expect("generate");
    let xml = std::fs::read_to_string(&out).unwrap();
    assert!(xml.contains("<graphml"));

    run_command("inspect", &args(&["--graph", out_s])).expect("inspect");
    run_command("worst-case", &args(&["--graph", out_s, "--max-k", "2"])).expect("worst-case");
    run_command(
        "monte-carlo",
        &args(&["--graph", out_s, "--trials", "300", "--seed", "1"]),
    )
    .expect("monte-carlo");
}

#[test]
fn generate_families() {
    for family in ["regular", "cascaded", "mirror", "doubled", "shifted"] {
        let out = temp_path(&format!("{family}.graphml"));
        let out_s = out.to_str().unwrap();
        run_command(
            "generate",
            &args(&[
                "--seed",
                "5",
                "--data",
                "16",
                "--family",
                family,
                "--degree",
                "3",
                "--out",
                out_s,
                "--no-screen",
            ]),
        )
        .unwrap_or_else(|e| panic!("{family}: {e}"));
        assert!(std::fs::read_to_string(&out).unwrap().contains("graphml"));
    }
}

#[test]
fn screen_flags_reach_every_family() {
    // The raw degree-3 cascade from seed 1 closes a small set of data
    // nodes; `--screen 3` draws through the screen loop instead.
    let generate = |extra: &[&str], name: &str| {
        let out = temp_path(name);
        let mut flags = vec!["--seed", "1", "--family", "cascaded", "--degree", "3"];
        flags.extend_from_slice(extra);
        flags.extend_from_slice(&["--out", out.to_str().unwrap()]);
        run_command("generate", &args(&flags)).unwrap();
        tornado_graph::graphml::from_graphml(&std::fs::read_to_string(&out).unwrap()).unwrap()
    };
    let raw = generate(&[], "cascade-raw.graphml");
    assert!(tornado_gen::screen(&raw, 3).is_err());
    let screened = generate(&["--screen", "3"], "cascade-screened.graphml");
    assert!(tornado_gen::screen(&screened, 3).is_ok());
    assert_ne!(raw.fingerprint(), screened.fingerprint());
    // Drawn raw by default, so `--no-screen` changes nothing here.
    let unscreened = generate(&["--no-screen"], "cascade-unscreened.graphml");
    assert_eq!(unscreened.fingerprint(), raw.fingerprint());
    let both = args(&["--screen", "3", "--no-screen"]);
    assert!(run_command("generate", &both).is_err());
}

#[test]
fn unknown_family_is_rejected() {
    let err = run_command("generate", &args(&["--family", "fountain"])).unwrap_err();
    assert!(err.contains("fountain"));
}

#[test]
fn unknown_command_is_rejected() {
    let err = run_command("frobnicate", &args(&[])).unwrap_err();
    assert!(err.contains("frobnicate"));
    // Retired copies of an experiment or an example: `run_all table5`,
    // `run_all scrub_sweep`, `examples/archival_site.rs` and
    // `examples/maid_workload.rs` make what they printed.
    for retired in ["reliability", "lifetime", "demo", "workload"] {
        let err = run_command(retired, &args(&[])).unwrap_err();
        assert_eq!(err, format!("unknown command '{retired}'"));
    }
}

#[test]
fn catalog_dumps_parseable_graphml() {
    let out = temp_path("catalog.graphml");
    let out_s = out.to_str().unwrap();
    run_command("catalog", &args(&["--index", "2", "--out", out_s])).expect("catalog");
    let g = tornado_graph::graphml::from_graphml(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(g.num_nodes(), 96);
    assert!(run_command("catalog", &args(&["--index", "9"])).is_err());
}

#[test]
fn dot_export_works() {
    let src = temp_path("dotsrc.graphml");
    let src_s = src.to_str().unwrap();
    run_command(
        "generate",
        &args(&["--seed", "1", "--data", "16", "--no-screen", "--out", src_s]),
    )
    .expect("generate");
    let out = temp_path("graph.dot");
    run_command(
        "dot",
        &args(&["--graph", src_s, "--out", out.to_str().unwrap()]),
    )
    .expect("dot");
    assert!(std::fs::read_to_string(&out)
        .unwrap()
        .starts_with("digraph"));
}

#[test]
fn adjust_small_graph() {
    let src = temp_path("adj.graphml");
    let src_s = src.to_str().unwrap();
    run_command(
        "generate",
        &args(&[
            "--seed", "7", "--data", "16", "--screen", "2", "--out", src_s,
        ]),
    )
    .expect("generate");
    let out = temp_path("adjusted.graphml");
    run_command(
        "adjust",
        &args(&[
            "--graph",
            src_s,
            "--target",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]),
    )
    .expect("adjust");
    let g = tornado_graph::graphml::from_graphml(&std::fs::read_to_string(&out).unwrap()).unwrap();
    g.validate().unwrap();
}

#[test]
fn missing_required_flag_errors() {
    assert!(run_command("inspect", &args(&[])).is_err());
    assert!(run_command("worst-case", &args(&[])).is_err());
}

#[test]
fn mindist_on_small_graph() {
    let src = temp_path("md.graphml");
    let src_s = src.to_str().unwrap();
    run_command(
        "generate",
        &args(&[
            "--seed", "4", "--data", "16", "--family", "mirror", "--out", src_s,
        ]),
    )
    .expect("generate");
    run_command("mindist", &args(&["--graph", src_s, "--cap", "3"])).expect("mindist");
}

#[test]
fn plank_statistics_run() {
    let src = temp_path("il.graphml");
    let src_s = src.to_str().unwrap();
    run_command(
        "generate",
        &args(&[
            "--seed", "4", "--data", "16", "--screen", "2", "--out", src_s,
        ]),
    )
    .expect("generate");
    // Plank's retrieve-until-decodable mean and range are `monte-carlo`'s
    // lines now; the old command is gone.
    run_command("monte-carlo", &args(&["--graph", src_s, "--trials", "200"])).expect("monte-carlo");
    assert!(run_command("incremental", &args(&["--graph", src_s])).is_err());
}

#[test]
fn worst_case_writes_a_validating_metrics_snapshot() {
    let src = temp_path("wc-metrics.graphml");
    let src_s = src.to_str().unwrap();
    run_command(
        "generate",
        &args(&[
            "--seed", "3", "--data", "16", "--screen", "2", "--out", src_s,
        ]),
    )
    .expect("generate");
    let out = temp_path("wc-metrics.json");
    let out_s = out.to_str().unwrap();
    run_command(
        "worst-case",
        &args(&[
            "--graph",
            src_s,
            "--max-k",
            "2",
            "--metrics",
            out_s,
            "--quiet",
        ]),
    )
    .expect("worst-case");

    let text = std::fs::read_to_string(&out).unwrap();
    let doc = tornado_obs::json::parse(&text).expect("snapshot parses");
    tornado_obs::snapshot::validate(&doc).expect("snapshot validates");
    assert_eq!(
        doc.get("command").and_then(tornado_obs::Json::as_str),
        Some("worst-case")
    );

    // Trial accounting must be exact: one decode per erasure pattern,
    // summed over k = 1..=2 on a 32-node graph.
    let nodes = 32u64;
    let expected = nodes + nodes * (nodes - 1) / 2;
    let trials = doc
        .get("counters")
        .and_then(|c| c.get("decode.trials"))
        .and_then(tornado_obs::Json::as_u64)
        .expect("decode.trials counter");
    assert_eq!(trials, expected, "trials == sum_k C(32,k)");

    // And `validate --metrics` accepts the same file.
    run_command("validate", &args(&["--metrics", out_s])).expect("validate --metrics");
}

#[test]
fn validate_metrics_rejects_garbage() {
    let bad = temp_path("bad-metrics.json");
    let bad_s = bad.to_str().unwrap();
    std::fs::write(&bad, "not json at all").unwrap();
    assert!(run_command("validate", &args(&["--metrics", bad_s])).is_err());
    std::fs::write(
        &bad,
        r#"{"schema": "other-schema", "command": "x", "elapsed_ms": 1, "counters": {}}"#,
    )
    .unwrap();
    let err = run_command("validate", &args(&["--metrics", bad_s])).unwrap_err();
    assert!(err.contains("schema"), "mentions the offending key: {err}");
    assert!(run_command(
        "validate",
        &args(&["--metrics", "/nonexistent/metrics.json"])
    )
    .is_err());
    // The flag names the kind: exactly one, and the other kinds' checks
    // are an error beside it rather than silently unread.
    for (misuse, says) in [
        (&[][..], "exactly one of"),
        (&["--metrics", bad_s, "--trace", bad_s], "exactly one of"),
        (
            &["--metrics", bad_s, "--require", "request"],
            "needs --trace",
        ),
        (
            &["--health", bad_s, "--require", "request"],
            "needs --trace",
        ),
        (
            &["--metrics", bad_s, "--expect-offline", "2"],
            "needs --health",
        ),
        (&["--trace", bad_s, "--expect-alert"], "needs --health"),
    ] {
        let err = run_command("validate", &args(misuse)).unwrap_err();
        assert!(err.contains(says), "{misuse:?}: {err}");
    }
}

#[test]
fn validate_metrics_refuses_names_the_catalogue_does_not_have_or_files_elsewhere() {
    let path = temp_path("off-catalogue-metrics.json");
    let path_s = path.to_str().unwrap();
    let snapshot = |counters: &str, gauges: &str| {
        format!(
            r#"{{"schema": "tornado-metrics-v1", "command": "serve", "elapsed_ms": 1,
                "counters": {{{counters}}}, "gauges": {{{gauges}}}}}"#
        )
    };
    std::fs::write(
        &path,
        snapshot(r#""server.get": 3"#, r#""device.offline": 0"#),
    )
    .unwrap();
    run_command("validate", &args(&["--metrics", path_s])).expect("catalogue names, filed by kind");
    // One name nobody declares, and one cumulative sum filed as a gauge.
    std::fs::write(
        &path,
        snapshot(
            r#""server.get": 3, "server.queue.busy": 0"#,
            r#""device.bytes_read": 9"#,
        ),
    )
    .unwrap();
    let err = run_command("validate", &args(&["--metrics", path_s])).unwrap_err();
    assert!(
        err.contains("'server.queue.busy' is not in the catalogue"),
        "{err}"
    );
    assert!(
        err.contains("'device.bytes_read' is a counter filed under 'gauges'"),
        "{err}"
    );
    assert!(
        !err.contains("server.get'"),
        "only the offenders are named: {err}"
    );
}

#[test]
fn monte_carlo_with_metrics_counts_trials() {
    let out = temp_path("mc-metrics.json");
    let out_s = out.to_str().unwrap();
    run_command(
        "monte-carlo",
        &args(&[
            "--catalog",
            "1",
            "--trials",
            "50",
            "--seed",
            "1",
            "--metrics",
            out_s,
            "--quiet",
        ]),
    )
    .expect("monte-carlo");
    let doc = tornado_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    tornado_obs::snapshot::validate(&doc).expect("validates");
    let trials = doc
        .get("counters")
        .and_then(|c| c.get("decode.trials"))
        .and_then(tornado_obs::Json::as_u64)
        .unwrap();
    // 96 levels x 50 trials each.
    assert_eq!(trials, 96 * 50);
}

#[test]
fn scrub_reports_health_and_writes_metrics() {
    let out = temp_path("scrub-metrics.json");
    let out_s = out.to_str().unwrap();
    run_command(
        "scrub",
        &args(&[
            "--catalog",
            "1",
            "--objects",
            "3",
            "--fail",
            "0",
            "--fail",
            "7",
            "--replace",
            "0",
            "--replace",
            "7",
            "--repair",
            "--metrics",
            out_s,
            "--quiet",
        ]),
    )
    .expect("scrub");
    run_command("validate", &args(&["--metrics", out_s])).expect("validate --metrics");
    let doc = tornado_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters
            .get("scrub.cycles")
            .and_then(tornado_obs::Json::as_u64),
        Some(1)
    );
    assert!(
        counters
            .get("scrub.blocks_repaired")
            .and_then(tornado_obs::Json::as_u64)
            .unwrap()
            > 0,
        "repair pass rewrote the lost blocks"
    );
    assert!(doc
        .get("histograms")
        .and_then(|h| h.get("scrub.cycle_us"))
        .is_some());
}

#[test]
fn serve_load_watch_trace_end_to_end() {
    let port_file = temp_path("e2e.port");
    let trace_file = temp_path("e2e-server.trace.json");
    let pf = port_file.to_str().unwrap().to_string();
    let tf = trace_file.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&port_file);

    // `serve` blocks until SHUTDOWN, so it runs on its own thread;
    // --port-file publishes the kernel-chosen port for the rest of the test.
    let serve_args = args(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--port-file",
        &pf,
        "--trace-sample",
        "1",
        "--trace-file",
        &tf,
        "--timeseries-ms",
        "20",
        "--quiet",
    ]);
    let server = std::thread::spawn(move || run_command("serve", &serve_args));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().to_string();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never published its port"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    // A deterministic degraded GET: ingest, fail four devices, re-read.
    let mut client = tornado_server::Client::connect(&addr).expect("connect");
    let payload = tornado_server::load::payload_for(0xE2E, 20_000);
    let id = client.put("e2e-object", &payload).expect("put");
    for device in [3, 17, 48, 95] {
        client.fail_device(device).expect("fail device");
    }
    assert_eq!(client.get(id).expect("degraded get"), payload);

    // Seeded load with trace propagation, bounded by op count.
    let metrics_file = temp_path("e2e-load.metrics.json");
    let metrics_s = metrics_file.to_str().unwrap();
    run_command(
        "load",
        &args(&[
            "--addr",
            &addr,
            "--connections",
            "2",
            "--duration-ms",
            "30000",
            "--op-limit",
            "30",
            "--seed",
            "11",
            "--prefill",
            "3",
            "--payload-min",
            "512",
            "--payload-max",
            "4096",
            "--trace-sample",
            "4",
            "--metrics",
            metrics_s,
            "--quiet",
        ]),
    )
    .expect("load");

    // Live rate view over the server's time-series ring.
    run_command(
        "watch",
        &args(&["--addr", &addr, "--interval-ms", "30", "--count", "2"]),
    )
    .expect("watch");

    // Client-side export while the server is still running.
    let live_trace = temp_path("e2e-live.trace.json");
    let live_s = live_trace.to_str().unwrap();
    run_command("trace", &args(&["--addr", &addr, "--out", live_s])).expect("trace");
    run_command(
        "validate",
        &args(&[
            "--trace",
            live_s,
            "--require",
            "request",
            "--require",
            "store.get",
            "--require",
            "decode.recover",
        ]),
    )
    .expect("live export holds a well-nested degraded-GET span tree");

    // One validator, three kinds: through the real binary, each flag
    // accepts its own kind of document and refuses the other two.
    let health_file = temp_path("e2e.health.json");
    let health_s = health_file.to_str().unwrap();
    run_command("health", &args(&["--addr", &addr, "--out", health_s])).expect("health");
    let documents = [
        ("--metrics", metrics_s),
        ("--health", health_s),
        ("--trace", live_s),
    ];
    for (flag, _) in documents {
        for (kind, file) in documents {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_tornado"))
                .args(["validate", flag, file])
                .output()
                .expect("run tornado");
            assert_eq!(
                out.status.code(),
                Some(if flag == kind { 0 } else { 1 }),
                "validate {flag} on a {kind} document: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("serve exits cleanly");

    // The shutdown-time export must validate too, and METRICS consumers
    // aside, the file is what Perfetto loads.
    run_command(
        "validate",
        &args(&[
            "--trace",
            &tf,
            "--require",
            "request",
            "--require",
            "decode.recover",
        ]),
    )
    .expect("shutdown trace file validates");
}

#[test]
fn serve_refuses_health_without_a_sampler_and_a_server_side_deadline() {
    // With no sampler the health model has no clock: refused before
    // anything is bound, naming both settings.
    let err = run_command(
        "serve",
        &args(&["--addr", "127.0.0.1:0", "--timeseries-ms", "0", "--quiet"]),
    )
    .expect_err("a health model that never ticks");
    assert!(
        err.contains("health.enabled") && err.contains("timeseries_interval_ms"),
        "{err}"
    );
    // A request carries its own deadline; the server has no default.
    let err = run_command(
        "serve",
        &args(&["--addr", "127.0.0.1:0", "--deadline-ms", "5", "--quiet"]),
    )
    .expect_err("serve reads no --deadline-ms");
    assert!(err.contains("deadline-ms"), "{err}");
}

#[test]
fn serve_durable_restart_round_trip() {
    let data_dir = temp_path("durable-serve");
    let _ = std::fs::remove_dir_all(&data_dir);
    let dd = data_dir.to_str().unwrap().to_string();

    let spawn_server = |port_tag: &str| {
        let port_file = temp_path(port_tag);
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.to_str().unwrap().to_string();
        let dd = dd.clone();
        let handle = std::thread::spawn(move || {
            run_command(
                "serve",
                &args(&[
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--port-file",
                    &pf,
                    "--data-dir",
                    &dd,
                    "--backend",
                    "segment",
                    "--no-fsync",
                    "--quiet",
                ]),
            )
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().to_string();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its port"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        (handle, addr)
    };

    // First incarnation: ingest through the `put` command (fresh store,
    // so the assigned id is deterministically 1).
    let (server, addr) = spawn_server("durable-a.port");
    let payload: Vec<u8> = (0..30_000u32)
        .map(|b| (b.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let payload_file = temp_path("durable.payload");
    std::fs::write(&payload_file, &payload).unwrap();
    run_command(
        "put",
        &args(&[
            "--addr",
            &addr,
            "--name",
            "durable-1",
            "--payload-file",
            payload_file.to_str().unwrap(),
        ]),
    )
    .expect("cli put");
    let mut client = tornado_server::Client::connect(&addr).expect("connect");
    let id2 = client.put("durable-2", b"second object").expect("put 2");
    assert_eq!(id2, 2);
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("serve exits cleanly");

    // Second incarnation over the same --data-dir: recovery rebuilds the
    // catalog and both objects GET byte-for-byte.
    let (server, addr) = spawn_server("durable-b.port");
    let out = temp_path("durable.out");
    run_command(
        "get",
        &args(&["--addr", &addr, "--id", "1", "--out", out.to_str().unwrap()]),
    )
    .expect("cli get after restart");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        payload,
        "byte-for-byte across restart"
    );
    let mut client = tornado_server::Client::connect(&addr).expect("reconnect");
    assert_eq!(client.get(2).expect("get 2"), b"second object");
    // The recovered store keeps allocating fresh ids.
    assert_eq!(client.put("durable-3", b"post-restart").expect("put 3"), 3);
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("backend.journal_appends"),
        "backend counters in METRICS"
    );
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn validate_trace_rejects_garbage() {
    let bad = temp_path("bad-trace.json");
    let bad_s = bad.to_str().unwrap();
    std::fs::write(&bad, "not json").unwrap();
    assert!(run_command("validate", &args(&["--trace", bad_s])).is_err());
    std::fs::write(&bad, r#"{"traceEvents": [{"ph": "B", "name": "x"}]}"#).unwrap();
    let err = run_command("validate", &args(&["--trace", bad_s])).unwrap_err();
    assert!(err.contains("invalid trace"), "{err}");
    std::fs::write(&bad, r#"{"traceEvents": []}"#).unwrap();
    let err = run_command(
        "validate",
        &args(&["--trace", bad_s, "--require", "decode.recover"]),
    )
    .unwrap_err();
    assert!(
        err.contains("decode.recover"),
        "missing required span is named: {err}"
    );
}

#[test]
fn catalog_and_graph_flags_are_interchangeable() {
    // --catalog on worst-case must match dumping the graph and reading it back.
    run_command(
        "worst-case",
        &args(&["--catalog", "1", "--max-k", "1", "--quiet"]),
    )
    .expect("worst-case --catalog");
    assert!(run_command("worst-case", &args(&["--catalog", "7", "--quiet"])).is_err());
    assert!(
        run_command("worst-case", &args(&["--quiet"])).is_err(),
        "needs a graph source"
    );
}

#[test]
fn a_misspelt_flag_is_an_error_not_a_default_depth() {
    // `tornado worst-case --catalog 1 --maxk 6` used to run the default
    // k = 4 and print "first failure: none". Through the real binary: it
    // must exit non-zero, name the flag, and search nothing.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tornado"))
        .args(["worst-case", "--catalog", "1", "--maxk", "6"])
        .output()
        .expect("run tornado");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --maxk"), "{stderr}");
    assert!(
        stderr.contains("--max-k"),
        "the message lists what it does read: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
