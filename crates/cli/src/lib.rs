//! `tornado` CLI implementation (library side, for testability).
//!
//! The binary in `main.rs` is a thin wrapper over [`run_command`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub mod args;
mod commands;
pub mod obs;

pub use args::ParsedArgs;

/// CLI usage text.
pub const USAGE: &str = "\
tornado — Tornado Code graphs for archival storage (HPDC 2006 reproduction)

USAGE:
    tornado <COMMAND> [OPTIONS]

COMMANDS:
    generate     Generate a Tornado graph           --seed N [--data 48] [--screen N | --no-screen]
                                                    [--family tornado|regular|cascaded|mirror|doubled|shifted]
                                                    [--degree D] [--out FILE]
                                                    (tornado is screened at 3 by default,
                                                    the other families only with --screen)
    catalog      Dump a certified catalog graph     --index 1|2|3 [--out FILE]
    inspect      Show structure and degree stats    --graph FILE
    dot          Export Graphviz DOT                --graph FILE [--out FILE]
    worst-case   Exhaustive worst-case search       --graph FILE | --catalog 1|2|3 [--max-k 4]
                                                    (up to 65,536 nodes; 96 nodes, one core:
                                                    k = 5 in 0.04-0.07 s, the paper's k = 6
                                                    in 1-1.5 s)
    monte-carlo  Monte-Carlo failure profile        --graph FILE | --catalog 1|2|3
                                                    [--trials 20000] [--seed N]
                                                    (its average and range of nodes to
                                                    reconstruct are also Plank's
                                                    retrieve-until-decodable ones)
    scrub        Fail devices, scrub, report health  --graph FILE | --catalog 1|2|3
                                                     [--objects 8] [--level 5] [--repair]
                                                     [--threads 1] [--fail DEV]...
                                                     [--replace DEV]... [--cycles 1]
                                                     [--full | --verify | --incremental]
                                                     (default --verify: hash-check in
                                                     place, decode only on damage)
    validate     Check a saved document's schema     --metrics FILE | --health FILE
                                                     [--expect-offline N]
                                                     [--expect-max-margin N] [--expect-alert]
                                                     | --trace FILE [--require SPAN]...
    adjust       Feedback adjustment (§3.3)         --graph FILE [--target 5] [--out FILE]
    mindist      Exact minimum blocking distance     --graph FILE [--cap 5]
    serve        TCP archival block service          [--addr 127.0.0.1:7401] [--workers 4]
                                                     [--queue-depth 64] [--shards 2]
                                                     [--max-inflight 64]
                                                     [--catalog 1|2|3 | --graph FILE]
                                                     [--data-dir DIR [--backend file|segment]
                                                     [--no-fsync]] (durable store with
                                                     crash recovery on restart)
                                                     [--port-file FILE]
                                                     [--trace-sample N] [--trace-file FILE]
                                                     [--slow-ms N] [--timeseries-ms 500]
                                                     [--no-health] [--afr 0.029]
                                                     [--horizon-hours 8760]
                                                     [--slo-degraded 0.05] [--slo-corruption 0.01]
                                                     [--slo-window label:short:long:thresh]...
    put          Store one object on a server        --addr ADDR --name NAME
                                                     --payload-file FILE (prints the id)
    get          Fetch one object from a server      --addr ADDR --id N [--out FILE]
    load         Load generator, one thread          --addr ADDR [--connections 4]
                                                     [--duration-ms 2000] [--seed N]
                                                     [--put 20 --get 75 --delete 5]
                                                     [--payload-min N --payload-max N]
                                                     [--zipf 0.99] [--prefill 8] (objects
                                                     PUT once before the window, read by
                                                     every connection, never deleted)
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
    trace        Export server spans (Chrome JSON)    --addr ADDR [--out FILE]

OBSERVABILITY (worst-case, monte-carlo, scrub):
    --progress        Throttled progress lines (rate + ETA) on stderr
    --metrics FILE    Write a JSON metrics snapshot on completion
    --log-json        JSON-lines events on stderr instead of human text
    --quiet           Suppress status and progress output

All commands are deterministic in their seeds.
";

/// One subcommand: its name, its implementation, and every flag it reads
/// (in groups, so the shared readers declare theirs once). A flag outside
/// the groups is an error before the command runs — a mistyped `--maxk 6`
/// must not silently certify the default depth.
pub struct Command {
    /// The word after `tornado`.
    pub name: &'static str,
    /// Flag names (without `--`) the command reads.
    pub flags: &'static [&'static [&'static str]],
    run: fn(&ParsedArgs) -> Result<(), String>,
}

use commands::{EXPECT_FLAGS, HEALTH_FLAGS, TARGET_FLAGS};
use obs::OBS_FLAGS;

/// Every subcommand, in `USAGE` order.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = &[
    Command { name: "generate", run: commands::generate, flags: &[
        &["seed", "data", "screen", "no-screen", "family", "degree", "out"], OBS_FLAGS] },
    Command { name: "catalog", run: commands::catalog, flags: &[&["index", "out"]] },
    Command { name: "inspect", run: commands::inspect, flags: &[&["graph"]] },
    Command { name: "dot", run: commands::dot, flags: &[&["graph", "out"]] },
    Command { name: "worst-case", run: commands::worst_case, flags: &[
        &["max-k"], TARGET_FLAGS, OBS_FLAGS] },
    Command { name: "monte-carlo", run: commands::monte_carlo, flags: &[
        &["trials", "seed"], TARGET_FLAGS, OBS_FLAGS] },
    Command { name: "scrub", run: commands::scrub, flags: &[
        &["objects", "level", "repair", "threads", "fail", "replace", "cycles", "full", "verify",
          "incremental"],
        TARGET_FLAGS, OBS_FLAGS] },
    Command { name: "validate", run: commands::validate, flags: &[
        &["metrics", "health", "trace", "require"], EXPECT_FLAGS] },
    Command { name: "adjust", run: commands::adjust, flags: &[&["graph", "target", "out"]] },
    Command { name: "mindist", run: commands::mindist, flags: &[&["graph", "cap"]] },
    Command { name: "serve", run: commands::serve, flags: &[
        &["addr", "workers", "queue-depth", "shards", "max-inflight", "data-dir",
          "backend", "no-fsync", "port-file", "trace-sample", "trace-file", "slow-ms",
          "timeseries-ms"],
        TARGET_FLAGS, HEALTH_FLAGS, OBS_FLAGS] },
    Command { name: "put", run: commands::put, flags: &[&["addr", "name", "payload-file"]] },
    Command { name: "get", run: commands::get, flags: &[&["addr", "id", "out"]] },
    Command { name: "load", run: commands::load, flags: &[
        &["addr", "connections", "duration-ms", "seed", "put", "get", "delete", "payload-min",
          "payload-max", "zipf", "prefill", "fail", "fail-after-ms", "fail-spacing-ms",
          "deadline-ms", "shutdown", "trace-sample", "op-limit", "pipeline", "rate"],
        OBS_FLAGS] },
    Command { name: "watch", run: commands::watch, flags: &[
        &["addr", "interval-ms", "count"]] },
    Command { name: "health", run: commands::health, flags: &[
        &["addr", "json", "prometheus", "out"], EXPECT_FLAGS] },
    Command { name: "trace", run: commands::trace, flags: &[&["addr", "out"], OBS_FLAGS] },
];

/// Dispatches a parsed command line. Returns `Err` with a user-facing
/// message on failure — an unknown command, a flag the command does not
/// read, or whatever the command itself reports.
pub fn run_command(command: &str, parsed: &ParsedArgs) -> Result<(), String> {
    let found = COMMANDS
        .iter()
        .find(|c| c.name == command)
        .ok_or_else(|| format!("unknown command '{command}'"))?;
    let declared = found.flags.concat();
    if let Some(stray) = parsed.keys().find(|k| !declared.contains(k)) {
        return Err(format!(
            "unknown flag --{stray} for '{command}' (it reads: --{})",
            declared.join(", --")
        ));
    }
    (found.run)(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// The part of `USAGE` that describes `command`: from the line that
    /// starts with its name to the next line that starts a command or a
    /// section.
    fn usage_block(command: &str) -> String {
        let mut lines = USAGE
            .lines()
            .skip_while(|l| !l.starts_with(&format!("    {command} ")));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("USAGE omits '{command}'"));
        let rest = lines.take_while(|l| l.starts_with("     ") || l.is_empty());
        std::iter::once(first)
            .chain(rest)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// `--flag` words in `text`.
    fn flags_in(text: &str) -> Vec<String> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_command_table_rejects_strays_and_admits_what_usage_documents() {
        for c in COMMANDS {
            let declared = c.flags.concat();
            // A stray flag is refused by name, before the command runs.
            let err = run_command(c.name, &parse(&["--no-such-flag", "1"])).unwrap_err();
            assert!(
                err.contains("--no-such-flag") && err.contains(c.name),
                "{}: {err}",
                c.name
            );
            // The help text and the table agree on what the command reads.
            for flag in flags_in(&usage_block(c.name)) {
                assert!(
                    declared.contains(&flag.as_str()),
                    "{}: USAGE shows --{flag}",
                    c.name
                );
            }
            let mut sorted = declared.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                declared.len(),
                "{}: a flag is declared twice",
                c.name
            );
        }
        let observed = flags_in(USAGE.split("OBSERVABILITY").nth(1).unwrap());
        assert_eq!(observed, OBS_FLAGS);
    }

    #[test]
    fn usage_shows_every_flag_serve_reads() {
        let serve = COMMANDS.iter().find(|c| c.name == "serve").unwrap();
        let declared = serve.flags.concat();
        let shown = flags_in(&usage_block("serve"));
        for flag in declared.iter().filter(|f| !OBS_FLAGS.contains(f)) {
            assert!(shown.iter().any(|s| s == flag), "USAGE omits --{flag}");
        }
        assert_eq!(declared.len(), 25, "{declared:?}");
    }

    /// README's command list (between its markers) and DESIGN.md's
    /// `tornado-cli` row name the table's commands, in its order.
    #[test]
    fn readme_and_design_list_the_commands_of_the_table() {
        const BEGIN: &str = "<!-- tornado-commands:begin -->";
        const END: &str = "<!-- tornado-commands:end -->";
        let names: Vec<String> = COMMANDS.iter().map(|c| format!("`{}`", c.name)).collect();
        let rendered = format!("{} commands: {}", names.len(), names.join(", "));
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let readme = std::fs::read_to_string(format!("{root}/README.md")).expect("README.md");
        let start = readme.find(BEGIN).expect("begin marker") + BEGIN.len();
        let end = readme.find(END).expect("end marker");
        assert!(
            readme[start..end] == rendered,
            "README.md's command list is stale; put this between the markers:\n{rendered}"
        );
        let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("DESIGN.md");
        let row = format!("The `tornado` binary's {rendered}.");
        assert!(
            design.contains(&row),
            "DESIGN.md's tornado-cli row is stale; it should read:\n{row}"
        );
    }

    #[test]
    fn usage_lists_exactly_the_commands() {
        for line in USAGE
            .lines()
            .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
        {
            let name = line.split_whitespace().next().unwrap();
            if !name.starts_with("--") && name != "tornado" {
                assert!(
                    COMMANDS.iter().any(|c| c.name == name),
                    "USAGE shows '{name}'"
                );
            }
        }
    }
}
