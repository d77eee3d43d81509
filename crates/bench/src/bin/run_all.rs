//! `run_all [NAME]... [--list] [--quick] [--write]` — the one experiment
//! driver (see the crate docs). Reports go to stdout, one blank line
//! apart; everything else goes to stderr, so `run_all table5 > table5.txt`
//! captures exactly the table.

use std::time::Instant;
use tornado_bench::harness::{bench_file, build_mode, envelope};
use tornado_bench::{Effort, Experiment, ALL};

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Args {
    /// Experiments to run, in registry order.
    names: Vec<&'static str>,
    list: bool,
    quick: bool,
    write: bool,
}

/// Parses the command line. An unknown flag or experiment name is an
/// error that lists the valid ones — never a silently smaller run.
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        names: Vec::new(),
        list: false,
        quick: false,
        write: false,
    };
    let mut named = Vec::new();
    for arg in argv {
        match arg.as_str() {
            "--list" => args.list = true,
            "--quick" => args.quick = true,
            "--write" => args.write = true,
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown flag {flag} (flags: --list, --quick, --write)"
                ))
            }
            name => match ALL.iter().find(|e| e.name == name) {
                Some(e) => named.push(e.name),
                None => {
                    let valid: Vec<&str> = ALL.iter().map(|e| e.name).collect();
                    return Err(format!(
                        "unknown experiment '{name}' (experiments: {})",
                        valid.join(", ")
                    ));
                }
            },
        }
    }
    if args.write && (args.quick || cfg!(debug_assertions)) {
        return Err(
            "--write records full-effort release numbers: not with --quick, \
                    not from a debug build"
                .into(),
        );
    }
    args.names = ALL
        .iter()
        .map(|e| e.name)
        .filter(|n| named.is_empty() || named.contains(n))
        .collect();
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, effort) = match parse(&argv).and_then(|a| Ok((a, Effort::from_env()?))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.list {
        for e in ALL {
            println!("{}", e.list_line());
        }
        return;
    }
    let effort = Effort {
        quick: args.quick,
        ..effort
    };
    eprintln!(
        "# Tornado Codes for Archival Storage — experiment suite ({} build)",
        build_mode()
    );
    eprintln!("# effort: {effort:?}\n");

    let suite_start = Instant::now();
    let mut timings: Vec<(&Experiment, u128)> = Vec::new();
    for e in ALL.iter().filter(|e| args.names.contains(&e.name)) {
        let t = Instant::now();
        let report = (e.run)(&effort);
        let wall_ms = t.elapsed().as_millis();
        if !timings.is_empty() {
            println!();
        }
        print!("{}", report.text);
        eprintln!("# [{}] completed in {wall_ms} ms", e.title);
        if let (true, Some(data)) = (args.write, report.data) {
            let path = bench_file(e.name);
            std::fs::write(&path, envelope(e.name, &effort, data).to_pretty())
                .unwrap_or_else(|err| panic!("write {path}: {err}"));
            eprintln!("# wrote BENCH_{}.json", e.name);
        }
        timings.push((e, wall_ms));
    }

    eprintln!("\n# Timing summary");
    eprintln!("# {:<18} {:<42} {:>10}", "name", "experiment", "wall ms");
    for (e, wall_ms) in &timings {
        eprintln!("# {:<18} {:<42} {wall_ms:>10}", e.name, e.title);
    }
    eprintln!(
        "# {:<61} {:>10}",
        "TOTAL",
        suite_start.elapsed().as_millis()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Args, String> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_names_means_every_experiment_in_registry_order() {
        let args = parse_words(&["--quick"]).unwrap();
        assert!(args.quick && !args.list && !args.write);
        assert_eq!(args.names, ALL.iter().map(|e| e.name).collect::<Vec<_>>());
        let picked = parse_words(&["table5", "eq1"]).unwrap();
        assert_eq!(picked.names, ["eq1", "table5"]);
    }

    #[test]
    fn an_unknown_name_or_flag_is_an_error_listing_the_valid_ones() {
        let err = parse_words(&["table5", "tabel6"]).unwrap_err();
        assert!(
            err.contains("'tabel6'") && err.contains("table6") && err.contains("eq1"),
            "{err}"
        );
        for stale in ["--check", "--manifest", "--only"] {
            let err = parse_words(&[stale]).unwrap_err();
            assert!(err.contains(stale) && err.contains("--write"), "{err}");
        }
    }

    #[test]
    fn write_is_refused_under_quick_and_in_debug_builds() {
        assert!(parse_words(&["--write", "--quick"]).is_err());
        assert_eq!(parse_words(&["--write"]).is_err(), cfg!(debug_assertions));
    }
}
