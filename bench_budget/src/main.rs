//! `bench_budget` — the repository's benchmark: seven workloads over the
//! public APIs of `tornado-server`, `tornado-store`, `tornado-codec`,
//! `tornado-sim` and `tornado-core`, every output verified, every metric
//! printed by name with its unit. See `README.md` beside this package.
//!
//! ```text
//! bench_budget --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of stdout is the result
//!     object BENCHMARK.json's contract describes
//! bench_budget [--seed N] [--seconds S] [--quick] [--check] [--trace-out FILE]
//!     every workload, each in its own child process, untraced then traced
//! ```

mod catalogue;
mod env;
mod probes;
mod served;
mod stats;
mod trace;
mod workloads;

use catalogue::{
    check_benchmark_json, check_result, compare_sets, Better, END_TO_END, PER_LAYER, SERVED,
    WORKLOADS,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use tornado_obs::Json;
use workloads::{Ctx, Output};

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    check: bool,
    trace_out: Option<PathBuf>,
    /// Internal: set the workload up, print the set-up time, exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        traced: false,
        quick: false,
        check: false,
        trace_out: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workload =
                    Some(known.ok_or_else(|| {
                        format!("unknown workload '{name}'; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The result object of one run: `correct`, `attempted`, `failed`, and
/// under `metrics` every end-to-end metric (untraced) or every per-layer
/// metric (traced; 0 for those this workload does not measure).
fn result_json(out: &Output, traced: bool) -> Json {
    let entry = |value: f64, unit: &str| {
        Json::Obj(vec![
            ("value".into(), Json::F64(value)),
            ("unit".into(), Json::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.to_string(), entry(value, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let spread = out
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .expect("every end-to-end metric is measured")
                    .1;
                (m.name.to_string(), entry(spread.value, m.unit))
            })
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct && out.failed == 0)),
        ("attempted".into(), Json::U64(out.attempted.max(1))),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Runs one workload in this process and prints its report, the result
/// object last.
fn run_one(args: &Args, workload: &'static str) -> ExitCode {
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        trace_out: args.trace_out.clone(),
    };
    env::confine_to_one_cpu();
    if args.setup_only {
        println!("{}", workloads::setup_only(&ctx));
        return ExitCode::SUCCESS;
    }
    let out = match workload {
        catalogue::PUT => workloads::run_put(&ctx),
        catalogue::REPAIR => workloads::run_repair(&ctx),
        catalogue::CERTIFY => workloads::run_certify(&ctx),
        catalogue::PROFILE => workloads::run_profile(&ctx),
        _ => workloads::run_get(&ctx),
    };
    println!(
        "workload {workload} ({})",
        if args.traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for (key, value) in env::fingerprint(args.seed) {
        println!("  env {key} = {value}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    println!("  failed_share = {} / {} ops", out.failed, out.attempted);
    if args.traced {
        for m in PER_LAYER.iter().filter(|m| m.homes.contains(&workload)) {
            match out.layers.iter().find(|(n, _)| *n == m.name) {
                Some((_, v)) => println!("  {:<40} {v:>14.4} {}", m.name, m.unit),
                None => println!("  {:<40} {:>14} {}", m.name, "not measured", m.unit),
            }
        }
    } else {
        for (name, s) in &out.end_to_end {
            let unit = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .map_or("", |m| m.unit);
            println!(
                "  {name:<16} {:>14.4} {unit:<4} (min {:.4}, max {:.4}, {} repeats)",
                s.value, s.min, s.max, s.repeats
            );
        }
    }
    let result = result_json(&out, args.traced);
    println!("{}", result.to_line());
    if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Re-executes this binary for one workload and returns its result object.
/// The child's report is passed through; whatever scratch it left behind
/// (it removes its own unless it was killed) is removed here.
fn run_child(
    args: &Args,
    workload: &str,
    traced: bool,
    trace_out: Option<&PathBuf>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn child for {workload}: {e}"))?;
    let pid = child.id();
    let output = child
        .wait_with_output()
        .map_err(|e| format!("wait for {workload}: {e}"));
    env::remove_scratch_of(pid);
    let output = output?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    tornado_obs::json::parse(last)
        .map_err(|e| format!("{workload}: last line is not a result object: {e}"))
}

/// The value of metric `name` in a result object.
fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload untraced, each in its own child, and returns the
/// end-to-end values as `(workload, metric, value)`.
fn end_to_end_set(
    args: &Args,
    results: &mut Vec<(String, bool, Json)>,
) -> Result<Vec<(String, String, f64)>, String> {
    let mut set = Vec::new();
    for w in WORKLOADS {
        let result = run_child(args, w, false, None)?;
        for m in &END_TO_END {
            let value = metric_value(&result, m.name);
            set.push((
                w.to_string(),
                m.name.to_string(),
                value.ok_or_else(|| format!("{w}: no value for {}", m.name))?,
            ));
        }
        results.push((w.to_string(), false, result));
    }
    Ok(set)
}

fn print_set(title: &str, set: &[(String, String, f64)]) {
    println!("\n{title}");
    print!("{:<20}", "workload");
    for m in &END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for w in WORKLOADS {
        print!("{w:<20}");
        for m in &END_TO_END {
            let v = set
                .iter()
                .find(|(sw, sm, _)| sw == w && sm == m.name)
                .map_or(f64::NAN, |t| t.2);
            print!(" {v:>18.4}");
        }
        println!();
    }
}

/// Every workload in its own child process: untraced for the end-to-end
/// metrics, then traced for the per-layer ones.
fn run_all(args: &Args) -> Result<(), String> {
    let mut results = Vec::new();
    let first = end_to_end_set(args, &mut results)?;
    print_set("end-to-end values", &first);

    if args.check {
        let second = end_to_end_set(args, &mut results)?;
        print_set("end-to-end values, second set", &second);
        let violations = compare_sets(&first, &second);
        for v in &violations {
            println!(
                "OUT OF BOUND {} {}: {:.4} -> {:.4}, worse by {:.1} % (bound {:.0} %)",
                v.workload,
                v.metric,
                v.first,
                v.second,
                v.worse_by * 100.0,
                v.bound * 100.0
            );
        }
        if !violations.is_empty() {
            return Err(format!(
                "{} end-to-end metrics left their bound between two sets of the same code",
                violations.len()
            ));
        }
        println!(
            "check: every end-to-end metric of the second set is within its bound of the first"
        );
        return Ok(());
    }

    let mut parts = Vec::new();
    for w in WORKLOADS {
        let part = args
            .trace_out
            .as_ref()
            .filter(|_| SERVED.contains(&w))
            .map(|path| {
                let mut name = path.as_os_str().to_owned();
                name.push(format!(".{w}.part"));
                PathBuf::from(name)
            });
        let result = run_child(args, w, true, part.as_ref());
        parts.extend(part);
        results.push((w.to_string(), true, result?));
    }
    if let Some(path) = &args.trace_out {
        let mut documents = Vec::new();
        for part in &parts {
            documents.push(
                std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?,
            );
            let _ = std::fs::remove_file(part);
        }
        std::fs::write(path, trace::concat(&documents)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "merged Chrome trace of the served workloads written to {}",
            path.display()
        );
    }

    println!("\nper-layer metrics (each under the workloads whose traced run measures it)");
    for m in &PER_LAYER {
        print!(
            "{:<40} {:<6} {:<7}",
            m.name,
            m.unit,
            if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        );
        for (w, _, result) in results
            .iter()
            .filter(|(w, traced, _)| *traced && m.homes.contains(&w.as_str()))
        {
            let v = metric_value(result, m.name);
            print!("  {w}={:.4}", v.unwrap_or(f64::NAN));
        }
        println!();
    }

    if args.quick {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        check_benchmark_json(&tornado_obs::json::parse(&text)?)?;
        for (w, traced, result) in &results {
            check_result(result, *traced)
                .map_err(|e| format!("{w} (trace {}): {e}", u8::from(*traced)))?;
        }
        println!(
            "schema self-check: BENCHMARK.json and {} result objects name the catalogue's metrics",
            results.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("bench_budget: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_budget: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = args.workload {
        return run_one(&args, workload);
    }
    match run_all(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_budget: {e}");
            ExitCode::from(1)
        }
    }
}
