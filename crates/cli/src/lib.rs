//! `tornado` CLI implementation (library side, for testability).
//!
//! The binary in `main.rs` is a thin wrapper over [`run_command`].

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod obs;

pub use args::ParsedArgs;

/// CLI usage text.
pub const USAGE: &str = "\
tornado — Tornado Code graphs for archival storage (HPDC 2006 reproduction)

USAGE:
    tornado <COMMAND> [OPTIONS]

COMMANDS:
    generate     Generate a Tornado graph           --seed N [--data 48] [--screen 3]
                                                    [--family tornado|regular|cascaded|mirror|doubled|shifted]
                                                    [--degree D] [--out FILE]
    catalog      Dump a certified catalog graph     --index 1|2|3 [--out FILE]
    inspect      Show structure and degree stats    --graph FILE
    dot          Export Graphviz DOT                --graph FILE [--out FILE]
    worst-case   Exhaustive worst-case search       --graph FILE | --catalog 1|2|3 [--max-k 4]
    monte-carlo  Monte-Carlo failure profile        --graph FILE | --catalog 1|2|3
                                                    [--trials 20000] [--seed N]
    scrub        Fail devices, scrub, report health  --graph FILE | --catalog 1|2|3
                                                     [--objects 8] [--level 5] [--repair]
                                                     [--threads 1] [--fail DEV]...
                                                     [--replace DEV]... [--cycles 1]
                                                     [--full | --verify | --incremental]
                                                     (default --verify: hash-check in
                                                     place, decode only on damage)
    validate-metrics  Validate a metrics snapshot    --file FILE
    adjust       Feedback adjustment (§3.3)         --graph FILE [--target 5] [--out FILE]
    reliability  Table 5 reliability comparison     [--graph FILE]... [--afr 0.01] [--trials 20000]
    demo         Archival store walkthrough         [--seed N]
    mindist      Exact minimum blocking distance     --graph FILE [--cap 5]
    incremental  Retrieve-until-decodable overhead   --graph FILE [--trials 2000]
    lifetime     Annual loss with scrub/repair       --graph FILE [--afr 0.01]
                                                     [--scrubs 0] [--trials 100000]
    workload     Synthetic archival workload replay  [--seed N] [--objects 20] [--reads 100]
    serve        TCP archival block service          [--addr 127.0.0.1:7401] [--workers 4]
                                                     [--queue-depth 64] [--deadline-ms 0]
                                                     [--shards 2] [--max-inflight 64]
                                                     [--catalog 1|2|3 | --graph FILE]
                                                     [--data-dir DIR [--backend file|segment]
                                                     [--no-fsync]] (durable store with
                                                     crash recovery on restart)
                                                     [--port-file FILE]
                                                     [--trace-sample N] [--trace-file FILE]
                                                     [--trace-capacity 4096] [--trace-slow-keep 16]
                                                     [--slow-ms N] [--timeseries-ms 500]
                                                     [--no-health] [--afr 0.029]
                                                     [--horizon-hours 8760]
                                                     [--health-trials 2000] [--health-seed N]
                                                     [--health-max-k 6] [--margin-cap 2]
                                                     [--health-recompute-ms 2000]
                                                     [--slo-degraded 0.05] [--slo-corruption 0.01]
                                                     [--slo-window label:short:long:thresh]...
    put          Store one object on a server        --addr ADDR --name NAME
                                                     --payload-file FILE (prints the id)
    get          Fetch one object from a server      --addr ADDR --id N [--out FILE]
    load         Closed-loop load generator          --addr ADDR [--connections 4]
                                                     [--duration-ms 2000] [--seed N]
                                                     [--put 20 --get 75 --delete 5]
                                                     [--payload-min N --payload-max N]
                                                     [--zipf 0.99] [--prefill 8]
                                                     [--fail DEV]... [--fail-after-ms 300]
                                                     [--metrics FILE] [--shutdown]
                                                     [--trace-sample 256] [--op-limit N]
                                                     [--pipeline N] (N requests in flight
                                                     per connection, matched by corr id)
                                                     [--rate OPS_PER_SEC] (open-loop mode:
                                                     fixed arrival rate, queue-wait counted
                                                     in latency)
    watch        Live windowed rates from a server    --addr ADDR [--interval-ms 1000]
                                                     [--count N]
    health       Durability observatory snapshot      --addr ADDR [--json | --prometheus]
                                                     [--out FILE] [--expect-offline N]
                                                     [--expect-max-margin N] [--expect-alert]
    validate-health  Validate a health document       --file FILE [--expect-offline N]
                                                     [--expect-max-margin N] [--expect-alert]
    trace        Export server spans (Chrome JSON)    --addr ADDR [--out FILE]
    validate-trace  Validate a trace export           --file FILE [--require SPAN]...

OBSERVABILITY (worst-case, monte-carlo, scrub):
    --progress        Throttled progress lines (rate + ETA) on stderr
    --metrics FILE    Write a JSON metrics snapshot on completion
    --log-json        JSON-lines events on stderr instead of human text
    --quiet           Suppress status and progress output

All commands are deterministic in their seeds.
";

/// Dispatches a parsed command line. Returns `Err` with a user-facing
/// message on failure.
pub fn run_command(command: &str, parsed: &ParsedArgs) -> Result<(), String> {
    match command {
        "generate" => commands::generate(parsed),
        "catalog" => commands::catalog(parsed),
        "inspect" => commands::inspect(parsed),
        "dot" => commands::dot(parsed),
        "worst-case" => commands::worst_case(parsed),
        "monte-carlo" => commands::monte_carlo(parsed),
        "scrub" => commands::scrub(parsed),
        "validate-metrics" => commands::validate_metrics(parsed),
        "adjust" => commands::adjust(parsed),
        "reliability" => commands::reliability(parsed),
        "demo" => commands::demo(parsed),
        "mindist" => commands::mindist(parsed),
        "incremental" => commands::incremental(parsed),
        "lifetime" => commands::lifetime(parsed),
        "workload" => commands::workload(parsed),
        "serve" => commands::serve(parsed),
        "put" => commands::put(parsed),
        "get" => commands::get(parsed),
        "load" => commands::load(parsed),
        "watch" => commands::watch(parsed),
        "health" => commands::health(parsed),
        "validate-health" => commands::validate_health(parsed),
        "trace" => commands::trace(parsed),
        "validate-trace" => commands::validate_trace(parsed),
        other => Err(format!("unknown command '{other}'")),
    }
}
