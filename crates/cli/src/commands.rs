//! Command implementations.

use crate::args::ParsedArgs;
use crate::obs::CliObs;
use tornado_analysis::adjust_graph;
use tornado_gen::{GenError, TornadoGenerator};
use tornado_graph::{dot, graphml, DegreeStats, Graph};
use tornado_obs::Json;
use tornado_sim::{
    monte_carlo_profile_observed, worst_case_search_observed, MonteCarloConfig, WorstCaseConfig,
};

type CmdResult = Result<(), String>;

fn load_graph(path: &str) -> Result<Graph, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    graphml::from_graphml(&xml).map_err(|e| format!("{path}: {e}"))
}

/// The flags `load_target_graph` reads.
pub(crate) const TARGET_FLAGS: &[&str] = &["catalog", "graph"];

/// Resolves `--catalog N` or `--graph FILE` to a graph plus a label for
/// metrics snapshots.
fn load_target_graph(args: &ParsedArgs) -> Result<(Graph, String), String> {
    if let Some(idx) = args.get("catalog") {
        let index: usize = idx.parse().map_err(|e| format!("--catalog {idx}: {e}"))?;
        Ok((catalog_graph(index)?, format!("catalog:{index}")))
    } else {
        let path = args.require("graph")?;
        Ok((load_graph(path)?, path.to_string()))
    }
}

/// Catalog graph `index` (1, 2 or 3).
fn catalog_graph(index: usize) -> Result<Graph, String> {
    match index {
        1 => Ok(tornado_core::tornado_graph_1()),
        2 => Ok(tornado_core::tornado_graph_2()),
        3 => Ok(tornado_core::tornado_graph_3()),
        other => Err(format!("catalog index {other} (valid: 1, 2, 3)")),
    }
}

/// Refuses a graph of `nodes` nodes, read from `label`, that is too large
/// for the exhaustive search.
fn searchable(label: &str, nodes: usize) -> CmdResult {
    let max = tornado_sim::worst_case::MAX_NODES;
    if nodes > max {
        return Err(format!(
            "{label}: {nodes} nodes; the worst-case search takes at most {max}"
        ));
    }
    Ok(())
}

fn write_or_print(out: Option<&str>, content: &str) -> CmdResult {
    match out {
        Some(path) => std::fs::write(path, content).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

/// `tornado generate`. Every family is screened through the one loop:
/// tornado graphs at 3 unless `--screen N` or `--no-screen` says
/// otherwise, the other families only when `--screen N` asks.
pub(crate) fn generate(args: &ParsedArgs) -> CmdResult {
    let seed: u64 = args.get_parsed("seed", 1)?;
    let num_data: usize = args.get_parsed("data", 48)?;
    let family = args.get("family").unwrap_or("tornado");
    let degree: u32 = args.get_parsed("degree", 4)?;
    let draw: fn(usize, u32, u64) -> Result<Graph, GenError> = match family {
        "tornado" => |k, _, seed| TornadoGenerator::new(k).generate(seed),
        "regular" => tornado_gen::regular::generate_regular,
        "cascaded" => tornado_gen::cascaded::generate_fixed_degree,
        "mirror" => |k, _, _| tornado_gen::mirror::generate_mirror(k),
        "doubled" => |k, _, seed| tornado_gen::altered::generate_doubled(k, seed),
        "shifted" => |k, _, seed| tornado_gen::altered::generate_shifted(k, seed),
        other => return Err(format!("unknown family '{other}'")),
    };
    let screen = match (args.get("screen"), args.flag("no-screen")) {
        (Some(_), true) => return Err("--screen and --no-screen contradict".into()),
        (Some(_), false) => Some(args.get_parsed("screen", 3)?),
        (None, false) if family == "tornado" => Some(3),
        (None, _) => None,
    };
    let graph = match screen {
        Some(size) => {
            tornado_gen::screened(seed, size, |s| draw(num_data, degree, s)).map(|(g, _)| g)
        }
        None => draw(num_data, degree, seed),
    }
    .map_err(|e| e.to_string())?;
    CliObs::from_args(args).status(
        "graph_generated",
        &[
            ("family", Json::Str(family.to_string())),
            ("nodes", Json::U64(graph.num_nodes() as u64)),
            ("edges", Json::U64(graph.num_edges() as u64)),
            (
                "fingerprint",
                Json::Str(format!("{:#018x}", graph.fingerprint())),
            ),
        ],
    );
    write_or_print(args.get("out"), &graphml::to_graphml(&graph))
}

/// `tornado catalog`
pub(crate) fn catalog(args: &ParsedArgs) -> CmdResult {
    let graph = catalog_graph(args.get_parsed("index", 1)?)?;
    write_or_print(args.get("out"), &graphml::to_graphml(&graph))
}

/// `tornado inspect`
pub(crate) fn inspect(args: &ParsedArgs) -> CmdResult {
    let graph = load_graph(args.require("graph")?)?;
    let stats = DegreeStats::of(&graph);
    println!(
        "nodes:        {} ({} data + {} check)",
        graph.num_nodes(),
        graph.num_data(),
        graph.num_checks()
    );
    println!("edges:        {}", graph.num_edges());
    println!("fingerprint:  {:#018x}", graph.fingerprint());
    let shape: Vec<String> = graph
        .levels()
        .iter()
        .map(|l| format!("{}({})", l.label, l.len()))
        .collect();
    println!("levels:       {}", shape.join(" -> "));
    println!(
        "mean degree:  {:.2} per node (2E/N)",
        stats.mean_degree_per_node
    );
    println!(
        "edges/node:   {:.2} (paper's 'average degree')",
        graph.num_edges() as f64 / graph.num_nodes() as f64
    );
    println!(
        "check degree: min {} max {}",
        stats.check_degree_range.0, stats.check_degree_range.1
    );
    if stats.unprotected_data_nodes > 0 {
        println!(
            "WARNING: {} unprotected data node(s)",
            stats.unprotected_data_nodes
        );
    }
    let defects = tornado_gen::defects::find_stopping_sets(&graph, 3);
    if defects.is_empty() {
        println!("screen:       no stopping sets of size <= 3");
    } else {
        println!("screen:       DEFECTIVE — stopping sets: {defects:?}");
    }
    Ok(())
}

/// `tornado dot`
pub(crate) fn dot(args: &ParsedArgs) -> CmdResult {
    let graph = load_graph(args.require("graph")?)?;
    write_or_print(args.get("out"), &dot::to_dot(&graph))
}

/// `tornado worst-case`
pub(crate) fn worst_case(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let (graph, label) = load_target_graph(args)?;
    searchable(&label, graph.num_nodes())?;
    let max_k: usize = args.get_parsed("max-k", 4)?;
    let report = worst_case_search_observed(
        &graph,
        &WorstCaseConfig {
            max_k,
            collect_cap: 16,
            stop_at_first_failure: false,
        },
        &obs.sim_observer(),
    );
    println!("k, cases, failures, fraction");
    for l in &report.levels {
        println!(
            "{}, {}, {}, {:.3e}",
            l.k,
            l.cases,
            l.failures,
            l.failures as f64 / l.cases as f64
        );
    }
    match report.first_failure() {
        Some(k) => {
            println!("first failure: {k} lost nodes");
            for s in report.levels[k - 1].failure_sets.iter().take(8) {
                println!("  failure set: {s:?}");
            }
        }
        None => println!("first failure: none up to k = {max_k}"),
    }
    obs.write_metrics("worst-case", |snap| {
        snap.set("graph", Json::Str(label.clone()))
            .set("max_k", Json::U64(max_k as u64));
        match report.first_failure() {
            Some(k) => snap.set("first_failure", Json::U64(k as u64)),
            None => snap.set("first_failure", Json::Null),
        };
        let levels: Vec<Json> = report
            .levels
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("k".into(), Json::U64(l.k as u64)),
                    (
                        "cases".into(),
                        Json::U64(u64::try_from(l.cases).unwrap_or(u64::MAX)),
                    ),
                    ("failures".into(), Json::U64(l.failures)),
                ])
            })
            .collect();
        snap.set("levels", Json::Arr(levels));
    })
}

/// `tornado monte-carlo`
pub(crate) fn monte_carlo(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let (graph, label) = load_target_graph(args)?;
    let trials: u64 = args.get_parsed("trials", 20_000)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let profile = monte_carlo_profile_observed(
        &graph,
        &MonteCarloConfig {
            trials_per_k: trials,
            seed,
            ks: None,
        },
        &obs.sim_observer(),
    );
    println!("k, trials, failures, fraction");
    for e in profile.entries() {
        if e.trials > 0 {
            println!("{}, {}, {}, {:.6}", e.k, e.trials, e.failures, e.fraction());
        }
    }
    let data = graph.num_data() as f64;
    let nodes = profile
        .nodes_for_success_probability(0.5)
        .expect("losing no node never fails, so all of them always reconstruct");
    let overhead = nodes as f64 / data;
    println!("nodes for 50% reconstruction: {nodes}");
    println!("overhead: {overhead:.2}");
    // Each trial is one failure order read at every level, so this mean and
    // range are also Plank's retrieve-until-decodable ones.
    let average = profile.average_nodes_to_reconstruct();
    println!(
        "average nodes to reconstruct: {average:.2} ({:.2})",
        average / data
    );
    if let Some(range) = profile.nodes_to_reconstruct_range() {
        println!("range of nodes to reconstruct: {range:?}");
    }
    obs.write_metrics("monte-carlo", |snap| {
        snap.set("graph", Json::Str(label.clone()))
            .set("trials_per_k", Json::U64(trials))
            .set("seed", Json::U64(seed))
            .set("overhead", Json::F64(overhead));
    })
}

/// `tornado scrub`
pub(crate) fn scrub(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let (graph, label) = load_target_graph(args)?;
    let objects: usize = args.get_parsed("objects", 8)?;
    let level: usize = args.get_parsed("level", 5)?;
    let repair = args.flag("repair");
    // `--threads 0` means automatic; 1 (the default) scrubs serially.
    let threads: usize = args.get_parsed("threads", 1)?;
    // Tier selection: hash-verify by default; `--full` forces the
    // historical read-and-decode-everything pass; `--incremental` also
    // skips stripes unchanged since the last clean pass (only observable
    // with `--cycles` > 1, since marks start empty).
    let mode = match (
        args.flag("full"),
        args.flag("verify"),
        args.flag("incremental"),
    ) {
        (true, false, false) => tornado_store::ScrubMode::Full,
        (false, _, false) => tornado_store::ScrubMode::Verify,
        (false, false, true) => tornado_store::ScrubMode::Incremental,
        _ => return Err("pick at most one of --full / --verify / --incremental".into()),
    };
    let cycles: usize = args.get_parsed("cycles", 1)?;
    if cycles == 0 {
        return Err("--cycles must be at least 1".into());
    }
    let store = tornado_store::ArchivalStore::new(graph);
    for i in 0..objects {
        let payload = vec![(i % 251) as u8; 4096];
        store
            .put(&format!("object-{i}"), &payload)
            .map_err(|e| e.to_string())?;
    }
    let mut failed = Vec::new();
    for dev in args.get_all("fail") {
        let d: usize = dev.parse().map_err(|e| format!("--fail {dev}: {e}"))?;
        store.fail_device(d).map_err(|e| e.to_string())?;
        failed.push(d);
    }
    // `--replace` brings a failed device back online empty, so a repair
    // scrub has somewhere to rewrite the reconstructed blocks.
    for dev in args.get_all("replace") {
        let d: usize = dev.parse().map_err(|e| format!("--replace {dev}: {e}"))?;
        store.replace_device(d).map_err(|e| e.to_string())?;
    }
    let store_obs = tornado_store::StoreObserver::disabled().with_events(obs.events());
    let store_obs = std::sync::Arc::new(store_obs);
    store.set_observer(store_obs.clone());
    // One scrubber across all cycles: the clean marks accumulate, so later
    // incremental cycles skip.
    let scrubber = tornado_store::Scrubber::new(threads);
    let mut outcome = scrubber.run(&store, level, repair, mode);
    for cycle in 1..cycles {
        println!(
            "cycle {cycle}: {} skipped / {} verified / {} decoded",
            outcome.skipped_count(),
            outcome.verified_count(),
            outcome.decoded_count()
        );
        outcome = scrubber.run(&store, level, repair, mode);
    }
    println!("stripes scanned:     {}", outcome.stripes.len());
    println!("  skipped (clean):   {}", outcome.skipped_count());
    println!("  hash-verified:     {}", outcome.verified_count());
    println!("  read and decoded:  {}", outcome.decoded_count());
    println!("degraded stripes:    {}", outcome.degraded_count());
    println!("urgent stripes:      {}", outcome.urgent_count());
    println!("blocks repaired:     {}", outcome.blocks_repaired);
    let repair_cost = outcome.repair_cost();
    println!(
        "repair cost:         {} bytes / {} blocks / {} device contacts (max depth {})",
        repair_cost.bytes_read,
        repair_cost.blocks_fetched,
        repair_cost.devices_contacted,
        repair_cost.recovery_depth
    );
    println!("objects incomplete:  {}", outcome.objects_incomplete.len());
    for s in outcome.stripes.iter().filter(|s| s.degraded()) {
        println!(
            "  object {}: {} missing, margin {}{}",
            s.id,
            s.missing_blocks.len(),
            s.margin,
            if s.urgent() { " (URGENT)" } else { "" }
        );
    }
    obs.write_metrics("scrub", |snap| {
        snap.set("graph", Json::Str(label.clone()))
            .set("objects", Json::U64(objects as u64))
            .set("level", Json::U64(level as u64))
            .set("repair", Json::Bool(repair))
            .set("mode", Json::Str(format!("{mode:?}").to_lowercase()))
            .set("cycles", Json::U64(cycles as u64))
            .set(
                "failed_devices",
                Json::Arr(failed.iter().map(|&d| Json::U64(d as u64)).collect()),
            );
        store_obs.record_into(&store, snap);
    })
}

/// `tornado validate --metrics FILE | --health FILE | --trace FILE` —
/// check a saved document against the schema its flag names (so a metrics
/// snapshot handed to `--health` still fails): a `tornado-metrics-v1`
/// snapshot, each metric name of which must be in the catalogue and in its
/// kind's section; a `tornado-health-v1` document, with the same `--expect-*`
/// assertions as `health` for post-hoc CI checks on captured files; or a
/// Chrome trace-event export with well-nested spans, where `--require
/// NAME` (repeatable) additionally demands that span names be present.
pub(crate) fn validate(args: &ParsedArgs) -> CmdResult {
    let kinds: Vec<&str> = ["metrics", "health", "trace"]
        .into_iter()
        .filter(|k| args.flag(k))
        .collect();
    let &[kind] = kinds.as_slice() else {
        return Err(
            "validate takes exactly one of --metrics FILE, --health FILE, --trace FILE".into(),
        );
    };
    if let Some(stray) = EXPECT_FLAGS
        .iter()
        .find(|f| kind != "health" && args.flag(f))
    {
        return Err(format!(
            "--{stray} checks a health document: it needs --health"
        ));
    }
    if kind != "trace" && args.flag("require") {
        return Err("--require names spans of a trace export: it needs --trace".into());
    }
    let path = args.require(kind)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = tornado_obs::json::parse(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    match kind {
        "metrics" => {
            tornado_obs::snapshot::validate(&doc)
                .and_then(|()| tornado_server::catalogue::check_snapshot(&doc))
                .map_err(|e| format!("{path}: invalid snapshot: {e}"))?;
            let counters = match doc.get("counters") {
                Some(Json::Obj(entries)) => entries.len(),
                _ => 0,
            };
            println!(
                "valid {} snapshot: command={} elapsed_ms={} counters={counters}",
                tornado_obs::snapshot::SCHEMA,
                doc.get("command").and_then(Json::as_str).unwrap_or("?"),
                doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        "health" => {
            tornado_server::validate_health(&doc).map_err(|e| format!("{path}: invalid: {e}"))?;
            check_health_expectations(args, &doc)?;
            let field = |section: &str, key: &str| {
                doc.get(section)
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            println!(
                "valid {} document: {} devices, {} offline, min margin {}",
                tornado_server::HEALTH_SCHEMA,
                field("fleet", "devices"),
                field("fleet", "offline"),
                field("margins", "min_margin"),
            );
        }
        _ => {
            let stats = tornado_obs::trace::validate_chrome_trace(&doc, &args.get_all("require"))
                .map_err(|e| format!("{path}: invalid trace: {e}"))?;
            println!(
                "valid Chrome trace: {} events across {} traces ({} roots)",
                stats.events, stats.traces, stats.roots
            );
        }
    }
    Ok(())
}

/// `tornado adjust`
pub(crate) fn adjust(args: &ParsedArgs) -> CmdResult {
    let path = args.require("graph")?;
    let graph = load_graph(path)?;
    searchable(path, graph.num_nodes())?;
    let target: usize = args.get_parsed("target", 5)?;
    let outcome = adjust_graph(&graph, target);
    for s in &outcome.steps {
        println!(
            "moved left {} from check {} to check {} (failures {} -> {})",
            s.left, s.from_check, s.to_check, s.failures_before, s.failures_after
        );
    }
    match outcome.first_failure_below_target {
        None => println!("target achieved: survives any {} losses", target - 1),
        Some(k) => println!("stalled: still fails at k = {k}"),
    }
    write_or_print(args.get("out"), &graphml::to_graphml(&outcome.graph))
}

/// `tornado mindist`
pub(crate) fn mindist(args: &ParsedArgs) -> CmdResult {
    let graph = load_graph(args.require("graph")?)?;
    let cap: usize = args.get_parsed("cap", 5)?;
    match tornado_analysis::minimum_distance(&graph, cap) {
        Some((dist, witness)) => {
            println!("minimum blocking distance: {dist}");
            println!("witness erasure set: {witness:?}");
        }
        None => println!("no blocking set of size <= {cap}: the graph survives any {cap} losses"),
    }
    Ok(())
}

/// `tornado serve`
pub(crate) fn serve(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let workers: usize = args.get_parsed("workers", 4)?;
    let queue_depth: usize = args.get_parsed("queue-depth", 64)?;
    let trace_sample: u64 = args.get_parsed("trace-sample", 0)?;
    let slow_ms: u64 = args.get_parsed("slow-ms", 0)?;
    let timeseries_interval_ms: u64 = args.get_parsed("timeseries-ms", 500)?;
    let shards: usize = args.get_parsed("shards", 2)?;
    let max_inflight: usize = args.get_parsed("max-inflight", 64)?;
    let health = health_config_from_args(args)?;
    let (graph, label) = if args.get("graph").is_some() || args.get("catalog").is_some() {
        load_target_graph(args)?
    } else {
        (tornado_core::tornado_graph_1(), "catalog:1".into())
    };

    // A `--data-dir` turns the in-memory simulation store into a durable
    // one: blocks live in a file or segment backend and puts are
    // journaled, so a SIGKILLed server recovers its catalog on restart.
    let (store, recovery) = match args.get("data-dir") {
        Some(dir) => {
            let backend = args.get("backend").unwrap_or("file");
            let kind = tornado_store::BackendKind::parse(backend)
                .ok_or_else(|| format!("--backend {backend}: expected file|segment"))?;
            if kind == tornado_store::BackendKind::Memory {
                return Err("--backend memory cannot be combined with --data-dir".into());
            }
            let cfg = if args.flag("no-fsync") {
                tornado_store::DurableConfig::new_nosync(dir, kind)
            } else {
                tornado_store::DurableConfig::new(dir, kind)
            };
            let (store, report) =
                tornado_store::ArchivalStore::open(graph, cfg).map_err(|e| format!("open: {e}"))?;
            (store, Some(report))
        }
        None => {
            if args.get("backend").is_some() {
                return Err("--backend requires --data-dir".into());
            }
            (tornado_store::ArchivalStore::new(graph), None)
        }
    };
    let store = std::sync::Arc::new(store);
    let mut server_obs = tornado_server::ServerObserver::disabled().with_events(obs.events());
    if trace_sample > 0 {
        // A ring of 4,096 spans; the 16 slowest roots outlive eviction.
        server_obs = server_obs.with_tracer(tornado_obs::Tracer::new(trace_sample, 4096, 16));
    }
    if let Some(report) = &recovery {
        server_obs.store_obs.record_recovery(report);
        if server_obs.tracer.is_enabled() {
            server_obs.tracer.record(tornado_obs::trace::SpanRecord {
                trace_id: 0,
                span_id: server_obs.tracer.next_span_id(),
                parent_id: None,
                name: "store.recover",
                start_us: 0,
                dur_us: report.duration_us,
                fields: vec![
                    ("objects", Json::U64(report.objects as u64)),
                    ("journal_records", Json::U64(report.journal_records as u64)),
                    ("rolled_back", Json::U64(report.rolled_back as u64)),
                ],
            });
        }
        obs.status(
            "serve_recovered",
            &[
                ("objects", Json::U64(report.objects as u64)),
                ("journal_records", Json::U64(report.journal_records as u64)),
                ("committed_puts", Json::U64(report.committed_puts as u64)),
                ("rolled_back", Json::U64(report.rolled_back as u64)),
                (
                    "deletes_replayed",
                    Json::U64(report.deletes_replayed as u64),
                ),
                ("torn_tail", Json::Bool(report.torn_tail)),
                ("duration_us", Json::U64(report.duration_us)),
            ],
        );
    }
    let server_obs = std::sync::Arc::new(server_obs);
    let config = tornado_server::ServerConfig {
        addr,
        workers,
        queue_depth,
        slow_request_us: slow_ms.saturating_mul(1_000),
        timeseries_interval_ms,
        shards,
        max_inflight_per_conn: max_inflight,
        health,
        ..tornado_server::ServerConfig::default()
    };
    let handle = tornado_server::serve(
        config,
        std::sync::Arc::clone(&store),
        std::sync::Arc::clone(&server_obs),
    )
    .map_err(|e| format!("serve: {e}"))?;
    let bound = handle.local_addr();
    obs.status(
        "serve_listening",
        &[
            ("addr", Json::Str(bound.to_string())),
            ("graph", Json::Str(label.clone())),
            ("backend", Json::Str(store.backend_kind().to_string())),
            ("workers", Json::U64(workers as u64)),
            ("queue_depth", Json::U64(queue_depth as u64)),
            ("shards", Json::U64(shards as u64)),
        ],
    );

    // With `--addr 127.0.0.1:0` the kernel picks the port; publish it
    // atomically (write + rename) so scripts can poll for the file and
    // never observe a partial write.
    if let Some(port_file) = args.get("port-file") {
        let tmp = format!("{port_file}.tmp");
        std::fs::write(&tmp, format!("{bound}\n")).map_err(|e| format!("{tmp}: {e}"))?;
        std::fs::rename(&tmp, port_file).map_err(|e| format!("{port_file}: {e}"))?;
    }

    // Serve until a SHUTDOWN op drains the server — or until SIGTERM: the
    // reactor latches the signal into a flag (the handler itself only
    // stores an atomic), and this supervising loop turns it into the same
    // graceful drain the wire op triggers.
    let started = std::time::Instant::now();
    let sigterm = tornado_server::reactor::install_sigterm_flag();
    while !handle.is_shutting_down() && !sigterm.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if sigterm.load(std::sync::atomic::Ordering::SeqCst) {
        obs.status("serve_sigterm", &[]);
    }
    handle.shutdown();
    handle.join();
    // After the drain every in-flight root span is recorded, so the
    // export written here is complete and well-nested by construction.
    if let Some(path) = args.get("trace-file") {
        let spans = server_obs.tracer.spans();
        let json = tornado_obs::trace::to_chrome_trace(&spans).to_pretty();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        obs.status(
            "trace_written",
            &[
                ("path", Json::Str(path.into())),
                ("spans", Json::U64(spans.len() as u64)),
                ("dropped", Json::U64(server_obs.tracer.dropped())),
            ],
        );
    }
    obs.write_metrics("serve", |snap| {
        snap.set("graph", Json::Str(label.clone()));
        snap.set("addr", Json::Str(bound.to_string()));
        let final_snap = server_obs.snapshot(&store, started.elapsed().as_millis() as u64);
        if let Ok(doc) = tornado_obs::json::parse(&final_snap.to_pretty()) {
            snap.set("server", doc);
        }
    })?;
    obs.status("serve_stopped", &[]);
    Ok(())
}

/// `tornado load`
pub(crate) fn load(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let mut fail_devices = Vec::new();
    for d in args.get_all("fail") {
        fail_devices.push(d.parse::<u32>().map_err(|e| format!("--fail {d}: {e}"))?);
    }
    let cfg = tornado_server::LoadConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7401").to_string(),
        connections: args.get_parsed("connections", 4)?,
        duration_ms: args.get_parsed("duration-ms", 2_000)?,
        seed: args.get_parsed("seed", 1)?,
        mix: tornado_server::OpMix {
            put: args.get_parsed("put", 20)?,
            get: args.get_parsed("get", 75)?,
            delete: args.get_parsed("delete", 5)?,
        },
        payload_min: args.get_parsed("payload-min", 1usize << 10)?,
        payload_max: args.get_parsed("payload-max", 64usize << 10)?,
        zipf_theta: args.get_parsed("zipf", 0.99)?,
        prefill: args.get_parsed("prefill", 8)?,
        fail_devices,
        fail_after_ms: args.get_parsed("fail-after-ms", 300)?,
        fail_spacing_ms: args.get_parsed("fail-spacing-ms", 50)?,
        deadline_ms: args.get_parsed("deadline-ms", 0)?,
        trace_sample: args.get_parsed("trace-sample", 256)?,
        op_limit: args.get_parsed("op-limit", 0)?,
        pipeline_depth: args.get_parsed("pipeline", 1)?,
        rate_ops_per_sec: args.get_parsed("rate", 0.0)?,
    };

    let report = tornado_server::run_load(&cfg).map_err(|e| format!("load: {e}"))?;
    if cfg.pipeline_depth > 1 || cfg.rate_ops_per_sec > 0.0 {
        let loop_kind = if cfg.rate_ops_per_sec > 0.0 {
            "open loop".to_string()
        } else {
            "closed loop".into()
        };
        let rate = if cfg.rate_ops_per_sec > 0.0 {
            format!(", target rate {:.0}/s", cfg.rate_ops_per_sec)
        } else {
            String::new()
        };
        println!(
            "discipline: {loop_kind}, pipeline depth {}{rate}",
            cfg.pipeline_depth.max(1)
        );
    }
    println!(
        "ops: {} in {} ms ({:.0} ops/s) over {} of {} connections",
        report.ops,
        report.elapsed_ms,
        report.ops_per_sec,
        report.connected,
        cfg.connections.max(1)
    );
    println!(
        "mix: {} put / {} get / {} delete",
        report.puts, report.gets, report.deletes
    );
    println!(
        "latency us: p50 {} / p99 {} (mean {:.0}, max {})",
        report.p50_us(),
        report.p99_us(),
        report.latency_us.mean(),
        report.latency_us.max().unwrap_or(0)
    );
    if !report.slowest.is_empty() {
        println!(
            "slowest sampled traces ({} ids kept at 1-in-{}; look them up in the server's trace export):",
            report.sampled_trace_ids.len(),
            cfg.trace_sample
        );
        for e in &report.slowest {
            println!(
                "  {:>8} us  {:<6}  trace {:#018x}",
                e.latency_us, e.op, e.trace_id
            );
        }
    }
    println!(
        "backpressure: {} busy retries; errors: {}; unanswered: {}; unrecoverable: {}",
        report.busy_retries, report.errors, report.unanswered, report.unrecoverable
    );
    println!(
        "payload mismatches: {} (must be 0)",
        report.payload_mismatches
    );
    if !report.devices_failed.is_empty() {
        println!(
            "devices failed mid-run: {:?}; degraded reads served: {}",
            report.devices_failed, report.degraded_reads
        );
    }
    println!(
        "repair: {} replans; {} repair bytes read by degraded GETs",
        report.replans, report.repair_bytes
    );

    if let Some(path) = args.get("metrics") {
        report
            .snapshot(cfg.seed)
            .write(path)
            .map_err(|e| format!("{path}: {e}"))?;
        obs.status("metrics_written", &[("path", Json::Str(path.into()))]);
    }
    if args.flag("shutdown") {
        let mut c =
            tornado_server::Client::connect(&cfg.addr).map_err(|e| format!("shutdown: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        obs.status("server_shutdown_sent", &[]);
    }
    if report.payload_mismatches > 0 {
        return Err(format!("{} payload mismatches", report.payload_mismatches));
    }
    Ok(())
}

/// `tornado put` — store one object on a running server. Prints the
/// assigned object id (bare, on stdout) so shell scripts can capture it.
pub(crate) fn put(args: &ParsedArgs) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let name = args.require("name")?;
    let path = args.require("payload-file")?;
    let payload = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut client =
        tornado_server::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let id = client
        .put(name, &payload)
        .map_err(|e| format!("put: {e}"))?;
    println!("{id}");
    Ok(())
}

/// `tornado get` — fetch one object from a running server by id, writing
/// the payload to `--out FILE` (or raw bytes to stdout without it).
pub(crate) fn get(args: &ParsedArgs) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let id: u64 = args
        .require("id")?
        .parse()
        .map_err(|e| format!("--id: {e}"))?;
    let mut client =
        tornado_server::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let payload = client.get(id).map_err(|e| format!("get {id}: {e}"))?;
    match args.get("out") {
        Some(path) => std::fs::write(path, &payload).map_err(|e| format!("{path}: {e}"))?,
        None => {
            use std::io::Write;
            std::io::stdout()
                .write_all(&payload)
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

/// How a `watch` column reads and shows a time-series name.
#[derive(Clone, Copy, PartialEq)]
enum Read {
    /// Rate over the latest two samples, per second.
    Rate,
    /// The same, in MiB.
    MibRate,
    /// Rate over the whole retained window, per second.
    WindowRate,
    /// The latest sample, raw: occupancy gauges are never rates.
    Latest,
}

/// The columns of `tornado watch`: header, width, the time-series names the
/// column adds up, and how each is read. The only place outside a metric's
/// declaration where its name is typed; a unit test checks each against
/// `tornado_server::catalogue()`.
const WATCH_COLUMNS: [(&str, usize, &[&str], Read); 11] = [
    ("req/s", 10, &["server.requests"], Read::Rate),
    ("put/s", 9, &["server.put"], Read::Rate),
    ("get/s", 9, &["server.get"], Read::Rate),
    ("busy/s", 9, &["server.busy_rejected"], Read::Rate),
    ("degr/s", 9, &["server.get.degraded"], Read::Rate),
    ("MB out/s", 11, &["server.bytes_out"], Read::MibRate),
    // Repair bandwidth: check-block bytes degraded GETs pulled plus scrub repair reads.
    (
        "rep MB/s",
        11,
        &["server.get.repair_bytes", "repair.bytes_read"],
        Read::MibRate,
    ),
    // Stripes scrubbed across all three tiers; a skip-heavy cadence shows
    // as high scrub/s at near-zero device traffic.
    (
        "scrub/s",
        10,
        &["scrub.skipped", "scrub.verified", "scrub.decoded"],
        Read::Rate,
    ),
    ("conns", 7, &["server.loop.connections"], Read::Latest),
    ("inflight", 8, &["server.loop.inflight"], Read::Latest),
    ("window req/s", 12, &["server.requests"], Read::WindowRate),
];

/// `tornado watch` — live windowed rates from a running server's
/// time-series ring (polls the METRICS admin op).
pub(crate) fn watch(args: &ParsedArgs) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let interval_ms: u64 = args.get_parsed("interval-ms", 1_000)?;
    let count: u64 = args.get_parsed("count", 0)?; // 0 = until interrupted
    let mut client =
        tornado_server::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;

    let header = WATCH_COLUMNS.map(|(title, width, ..)| format!("{title:>width$}"));
    println!("{}", header.join(" "));
    let mut tick = 0u64;
    loop {
        tick += 1;
        let doc = tornado_obs::json::parse(&client.metrics().map_err(|e| format!("metrics: {e}"))?)
            .map_err(|e| format!("metrics: {e}"))?;
        let points = doc
            .get("timeseries")
            .and_then(tornado_obs::timeseries::points_from_json)
            .unwrap_or_default();
        if points.len() < 2 {
            println!(
                "(waiting for the server's sampler: {} point(s) so far)",
                points.len()
            );
        } else {
            // Rebuild the ring client-side so the same windowed-rate code
            // serves the live view and the server.
            let series = tornado_obs::TimeSeries::new(points.len());
            let latest = points.last().cloned().expect("two points or more");
            for p in points {
                series.push(p);
            }
            let row: Vec<String> = WATCH_COLUMNS
                .iter()
                .map(|&(_, width, names, read)| {
                    let (decimals, divisor) = match read {
                        Read::MibRate => (2, 1024.0 * 1024.0),
                        Read::Latest => (0, 1.0),
                        Read::Rate | Read::WindowRate => (1, 1.0),
                    };
                    let value = |name: &&str| match read {
                        Read::Rate | Read::MibRate => series.latest_rate(name),
                        Read::WindowRate => series.window_rate(name),
                        Read::Latest => latest.value(name).map(|v| v as f64),
                    };
                    let sum: f64 = names.iter().map(|name| value(name).unwrap_or(0.0)).sum();
                    format!("{:>width$.decimals$}", sum / divisor)
                })
                .collect();
            println!("{}", row.join(" "));
        }
        // The metrics snapshot embeds the observatory's latest tick;
        // one compact durability line rides under the rate row.
        if let Some(health) = doc.get("health") {
            let u = |sec: &str, key: &str| {
                health
                    .get(sec)
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let p_loss = health
                .get("reliability")
                .and_then(|r| r.get("p_loss"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let alerts = match health.get("slo") {
                Some(Json::Obj(slos)) => slos
                    .iter()
                    .map(|(_, e)| e.get("alerts_total").and_then(Json::as_u64).unwrap_or(0))
                    .sum::<u64>(),
                _ => 0,
            };
            println!(
                "  health: P(loss)={p_loss:.3e} offline={} margin={} at-risk={}/{} alerts={alerts}",
                u("fleet", "offline"),
                u("margins", "min_margin"),
                u("margins", "stripes_at_margin_le_1"),
                u("margins", "stripes_total"),
            );
        }
        if count > 0 && tick >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}

/// `tornado trace` — export a running server's retained spans as Chrome
/// trace-event JSON (open the file in Perfetto / chrome://tracing).
pub(crate) fn trace(args: &ParsedArgs) -> CmdResult {
    let obs = CliObs::from_args(args);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let mut client =
        tornado_server::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let json = client
        .trace_export()
        .map_err(|e| format!("trace export: {e}"))?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            obs.status("trace_written", &[("path", Json::Str(path.into()))]);
            Ok(())
        }
        None => {
            println!("{json}");
            Ok(())
        }
    }
}

/// The flags `health_config_from_args` reads.
pub(crate) const HEALTH_FLAGS: &[&str] = &[
    "no-health",
    "afr",
    "horizon-hours",
    "slo-degraded",
    "slo-corruption",
    "slo-window",
];

/// Builds a [`tornado_server::HealthConfig`] from `serve` flags.
/// `--slo-window label:short_ms:long_ms:threshold` (repeatable) replaces
/// the standard 5m/1h + 30m/6h pairs — CI shrinks these to seconds so a
/// burn-rate alert can fire inside a smoke test.
fn health_config_from_args(args: &ParsedArgs) -> Result<tornado_server::HealthConfig, String> {
    let defaults = tornado_server::HealthConfig::default();
    let mut cfg = tornado_server::HealthConfig {
        enabled: !args.flag("no-health"),
        afr: args.get_parsed("afr", defaults.afr)?,
        horizon_hours: args.get_parsed("horizon-hours", defaults.horizon_hours)?,
        degraded_read_objective: args
            .get_parsed("slo-degraded", defaults.degraded_read_objective)?,
        corruption_objective: args.get_parsed("slo-corruption", defaults.corruption_objective)?,
        ..defaults
    };
    let windows = args.get_all("slo-window");
    if !windows.is_empty() {
        cfg.slo_windows = windows
            .iter()
            .map(|spec| {
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 4 {
                    return Err(format!(
                        "--slo-window {spec}: expected label:short_ms:long_ms:threshold"
                    ));
                }
                Ok(tornado_obs::slo::BurnWindow {
                    label: parts[0].to_string(),
                    short_ms: parts[1]
                        .parse()
                        .map_err(|e| format!("--slo-window {spec}: {e}"))?,
                    long_ms: parts[2]
                        .parse()
                        .map_err(|e| format!("--slo-window {spec}: {e}"))?,
                    threshold: parts[3]
                        .parse()
                        .map_err(|e| format!("--slo-window {spec}: {e}"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
    }
    Ok(cfg)
}

/// `tornado health` — fetch a running server's durability document,
/// validate it, and print a summary (or the raw JSON / Prometheus text).
/// The `--expect-*` flags turn the command into a smoke-test assertion.
pub(crate) fn health(args: &ParsedArgs) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401").to_string();
    let mut client =
        tornado_server::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let json = client.health().map_err(|e| format!("health: {e}"))?;
    let doc = tornado_obs::json::parse(&json).map_err(|e| format!("health: parse error: {e}"))?;
    tornado_server::validate_health(&doc).map_err(|e| format!("invalid health doc: {e}"))?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.flag("prometheus") {
        print!("{}", tornado_obs::expo::render_flat("tornado_health", &doc));
    } else if args.flag("json") {
        println!("{json}");
    } else {
        print_health_summary(&doc);
    }
    check_health_expectations(args, &doc)
}

fn print_health_summary(doc: &Json) {
    let g = |path: &[&str]| -> Option<&Json> {
        let mut cur = doc;
        for k in path {
            cur = cur.get(k)?;
        }
        Some(cur)
    };
    let f = |path: &[&str]| g(path).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let u = |path: &[&str]| g(path).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "fleet: {} devices, {} offline (pool epoch {})",
        u(&["fleet", "devices"]),
        u(&["fleet", "offline"]),
        u(&["fleet", "pool_epoch"])
    );
    println!(
        "reliability: P(loss|{:.0}h) = {:.3e} (healthy {:.3e}), afr {:.3}",
        f(&["reliability", "horizon_hours"]),
        f(&["reliability", "p_loss"]),
        f(&["reliability", "p_loss_healthy"]),
        f(&["reliability", "afr"]),
    );
    match g(&["reliability", "mttdl_hours"]).and_then(Json::as_f64) {
        Some(m) => println!("mttdl: {:.3e} hours ({:.1} years)", m, m / 8_766.0),
        None => println!("mttdl: effectively unbounded at this resolution"),
    }
    println!(
        "margins: min {}{} (cap {}), {}/{} stripes at margin <= 1",
        u(&["margins", "min_margin"]),
        if g(&["margins", "min_margin_exact"]) == Some(&Json::Bool(false)) {
            "+"
        } else {
            ""
        },
        u(&["margins", "margin_cap"]),
        u(&["margins", "stripes_at_margin_le_1"]),
        u(&["margins", "stripes_total"]),
    );
    if let Some(Json::Obj(slos)) = doc.get("slo") {
        for (name, entry) in slos {
            let firing: Vec<String> = entry
                .get("windows")
                .and_then(Json::as_arr)
                .map(|ws| {
                    ws.iter()
                        .filter(|w| w.get("firing") == Some(&Json::Bool(true)))
                        .filter_map(|w| w.get("label").and_then(Json::as_str))
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            println!(
                "slo {name}: {}/{} bad (objective {}), alerts {}{}",
                entry.get("bad").and_then(Json::as_u64).unwrap_or(0),
                entry.get("total").and_then(Json::as_u64).unwrap_or(0),
                entry.get("objective").and_then(Json::as_f64).unwrap_or(0.0),
                entry
                    .get("alerts_total")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                if firing.is_empty() {
                    String::new()
                } else {
                    format!(" FIRING[{}]", firing.join(","))
                },
            );
        }
    }
}

/// The flags `check_health_expectations` reads.
pub(crate) const EXPECT_FLAGS: &[&str] = &["expect-offline", "expect-max-margin", "expect-alert"];

/// `--expect-offline N`, `--expect-max-margin N`, `--expect-alert`:
/// smoke-test assertions against a fetched (and already validated)
/// health document.
fn check_health_expectations(args: &ParsedArgs, doc: &Json) -> CmdResult {
    if let Some(want) = args.get("expect-offline") {
        let want: u64 = want.parse().map_err(|e| format!("--expect-offline: {e}"))?;
        let got = doc
            .get("fleet")
            .and_then(|f| f.get("offline"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if got != want {
            return Err(format!(
                "expected {want} offline devices, health reports {got}"
            ));
        }
    }
    if let Some(want) = args.get("expect-max-margin") {
        let want: u64 = want
            .parse()
            .map_err(|e| format!("--expect-max-margin: {e}"))?;
        let got = doc
            .get("margins")
            .and_then(|m| m.get("min_margin"))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        if got > want {
            return Err(format!(
                "expected min margin <= {want}, health reports {got}"
            ));
        }
    }
    if args.flag("expect-alert") {
        let fired = match doc.get("slo") {
            Some(Json::Obj(slos)) => slos.iter().any(|(_, entry)| {
                entry
                    .get("alerts_total")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    > 0
            }),
            _ => false,
        };
        if !fired {
            return Err("expected at least one burn-rate alert, none fired".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searches_refuse_graphs_above_the_row_limit() {
        // A graph just past the limit needs gigabytes of parity rows to
        // build, so the gate is checked on its node count.
        assert_eq!(searchable("g.graphml", 65_536), Ok(()));
        let err = searchable("g.graphml", 65_537).unwrap_err();
        assert_eq!(
            err,
            "g.graphml: 65537 nodes; the worst-case search takes at most 65536"
        );
    }

    #[test]
    fn every_watch_column_reads_a_sampled_catalogue_name_of_the_right_kind() {
        let catalogue = tornado_server::catalogue();
        for (title, .., names, read) in WATCH_COLUMNS {
            for name in names {
                let row = catalogue
                    .iter()
                    .find(|d| d.name == *name)
                    .unwrap_or_else(|| panic!("{title}: '{name}' is not in the catalogue"));
                assert!(row.sampled, "{title}: '{name}' is not in the time series");
                let wanted = if read == Read::Latest {
                    "gauge"
                } else {
                    "counter"
                };
                assert_eq!(row.kind, wanted, "{title}: '{name}'");
            }
        }
    }
}
