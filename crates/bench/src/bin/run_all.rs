//! Runs every experiment in paper order, printing one combined report —
//! the source of EXPERIMENTS.md's measured columns.
//!
//! Besides the per-experiment reports, the run emits:
//!
//! * a final per-experiment timing table, and
//! * `run_manifest.json` (override with `--manifest PATH`) recording the
//!   suite configuration and wall time of each experiment, so a finished
//!   run is auditable without re-parsing its stdout.

use std::time::Instant;
use tornado_bench::experiments as exp;
use tornado_bench::Effort;
use tornado_obs::Json;

/// One experiment: display name and its entry point.
type Experiment = (&'static str, fn(&Effort) -> String);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let manifest_path = args
        .iter()
        .position(|a| a == "--manifest")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("run_manifest.json");

    let effort = Effort::from_env();
    println!("# Tornado Codes for Archival Storage — full experiment suite");
    println!("# effort: {effort:?}\n");
    let experiments: Vec<Experiment> = vec![
        ("Eq. 1 validation", exp::eq1::run),
        ("Figure 3 + Table 1", exp::fig3_table1::run),
        ("Figure 4 + Table 2", exp::fig4_table2::run),
        ("Figure 5 + Table 3", exp::fig5_table3::run),
        ("Figure 6 + Table 4", exp::fig6_table4::run),
        ("Table 5", exp::table5::run),
        ("Table 6", exp::table6::run),
        ("Table 7", exp::table7::run),
        ("Guided retrieval ablation", exp::retrieval::run),
        ("Degree sweep ablation", exp::degree_sweep::run),
        ("Incremental overhead (Plank metric)", exp::plank_overhead::run),
        ("Scrub-interval sweep", exp::scrub_sweep::run),
        ("Size sweep (Plank regime)", exp::size_sweep::run),
        ("Federated failure profiles", exp::fed_profile::run),
        ("Serving-layer load test", exp::load_test::run),
        ("Event-loop connection scaling", exp::server_scale::run),
        ("Data-plane kernels", exp::data_plane::run),
        ("Checksum-gated scrub tiers", exp::data_plane::run_scrub_modes),
        ("Repair-bandwidth bake-off", exp::repair_bandwidth::run),
        ("Cold-start recovery", exp::recovery::run),
    ];

    let suite_start = Instant::now();
    let mut timings: Vec<(&'static str, u64)> = Vec::new();
    for (name, run) in experiments {
        let t = Instant::now();
        let report = run(&effort);
        let wall_ms = t.elapsed().as_millis() as u64;
        println!("{report}");
        println!("# [{name}] completed in {wall_ms} ms\n");
        timings.push((name, wall_ms));
    }
    let total_ms = suite_start.elapsed().as_millis() as u64;

    println!("# Timing summary");
    println!("# {:<38} {:>10}", "experiment", "wall ms");
    for (name, wall_ms) in &timings {
        println!("# {name:<38} {wall_ms:>10}");
    }
    println!("# {:<38} {:>10}", "TOTAL", total_ms);

    let mut manifest_fields = vec![
        ("suite".into(), Json::Str("tornado-run-all".into())),
        ("mode".into(), Json::Str(build_mode().into())),
        ("mc_trials".into(), Json::U64(effort.mc_trials)),
        (
            "exhaustive_max_k".into(),
            Json::U64(effort.exhaustive_max_k as u64),
        ),
        ("seed".into(), Json::U64(effort.seed)),
        ("total_wall_ms".into(), Json::U64(total_ms)),
        (
            "experiments".into(),
            Json::Arr(
                timings
                    .iter()
                    .map(|&(name, wall_ms)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.into())),
                            ("wall_ms".into(), Json::U64(wall_ms)),
                            ("output".into(), Json::Str("stdout".into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // The load test is the one experiment whose headline numbers matter
    // beyond its wall time; surface them as a manifest summary row.
    if let Some(s) = *exp::load_test::LAST_SUMMARY.lock().unwrap() {
        manifest_fields.push((
            "load_test".into(),
            Json::Obj(vec![
                ("ops".into(), Json::U64(s.ops)),
                ("ops_per_sec".into(), Json::F64(s.ops_per_sec)),
                ("latency_p99_us".into(), Json::U64(s.p99_us)),
                ("degraded_reads".into(), Json::U64(s.degraded_reads)),
                ("payload_mismatches".into(), Json::U64(s.payload_mismatches)),
                ("ops_per_sec_untraced".into(), Json::F64(s.ops_per_sec_untraced)),
                ("ops_per_sec_traced_1_in_256".into(), Json::F64(s.ops_per_sec_traced)),
                ("tracing_overhead_frac".into(), Json::F64(s.tracing_overhead_frac)),
                ("traced_spans_recorded".into(), Json::U64(s.traced_spans_recorded)),
                ("ops_per_sec_health_off".into(), Json::F64(s.ops_per_sec_health_off)),
                ("ops_per_sec_health_on".into(), Json::F64(s.ops_per_sec_health_on)),
                ("health_recomputes".into(), Json::U64(s.health_recomputes)),
                ("health_compute_frac".into(), Json::F64(s.health_compute_frac)),
            ]),
        ));
    }
    // Likewise the connection-scaling run: its sweep shape and the
    // closed-loop point are the reviewable outcome.
    if let Some(s) = *exp::server_scale::LAST_SUMMARY.lock().unwrap() {
        manifest_fields.push((
            "server_scale".into(),
            Json::Obj(vec![
                ("max_connections".into(), Json::U64(s.max_connections as u64)),
                ("p99_at_max_us".into(), Json::U64(s.p99_at_max_us)),
                ("ops_per_sec_at_max".into(), Json::F64(s.rate_at_max)),
                ("closed_loop_64_ops_per_sec".into(), Json::F64(s.closed_loop_ops_per_sec)),
                ("closed_loop_64_p99_us".into(), Json::U64(s.closed_loop_p99_us)),
            ]),
        ));
    }
    let manifest = Json::Obj(manifest_fields);
    match std::fs::write(manifest_path, manifest.to_pretty()) {
        Ok(()) => println!("# wrote {manifest_path}"),
        Err(e) => eprintln!("# could not write {manifest_path}: {e}"),
    }
}

fn build_mode() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
