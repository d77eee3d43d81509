//! The seven workloads: set-up, measured passes, verification, and — in a
//! traced run — the counters, probes and span attribution of the layers
//! each workload exercises.
//!
//! A run is set-up (timed, and repeated afterwards), a warm-up, then
//! `--seconds` of measuring, cut into short *windows* of a fixed operation
//! count. Each end-to-end value is the one a fiftieth of the run's windows beat
//! (`stats::quiet`): on a shared host the slow windows measure the
//! neighbours. Verification is outside every timed span: expected checksums
//! are computed while the inputs are built.

use crate::catalogue::{GET_LARGE, GET_LARGE_DEGRADED, GET_SMALL, OPEN_LOOP_RATES};
use crate::env::{cpu_seconds, dir_bytes, next_cpu, peak_rss_mb, ScratchDir, Stopwatch, CPU_TURN};
use crate::probes::{self, Metrics, FAILED_DEVICES};
use crate::served::{
    counter, drive, gauge, histogram_count_sum, timed, Limit, Pacing, Pass, Served,
};
use crate::stats::{
    highest_supported_quantile, median, percentile, quiet, samples_beyond, single, windows, Spread,
    Window,
};
use crate::trace;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tornado_codec::checksum;
use tornado_core::tornado_graph_1;
use tornado_graph::Graph;
use tornado_obs::trace::{mix64, to_chrome_trace, validate_chrome_trace};
use tornado_obs::Json;
use tornado_sim::monte_carlo::sample_level;
use tornado_sim::{monte_carlo_profile, worst_case_search, MonteCarloConfig, WorstCaseConfig};
use tornado_store::{ArchivalStore, BackendKind, DurableConfig, ScrubMode, Scrubber};

/// How one invocation was asked to run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured window of an untraced run, seconds.
    pub seconds: f64,
    /// Per-layer run: counters, probes and the span tree instead of the
    /// gated end-to-end numbers.
    pub traced: bool,
    /// 1/20 of every op count, one pass, one set-up.
    pub quick: bool,
    /// Where a traced served run writes its merged Chrome trace.
    pub trace_out: Option<PathBuf>,
}

impl Ctx {
    fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// A seeded generator for one named stream of this run's inputs.
    fn rng(&self, stream: u64, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(mix64(self.seed ^ mix64(stream ^ mix64(index))))
    }

    /// One-based position of the workload; the high bits of its trace ids,
    /// which keeps the workloads apart in a merged trace.
    fn trace_lane(&self) -> u64 {
        crate::catalogue::WORKLOADS
            .iter()
            .position(|w| *w == self.workload)
            .unwrap_or(0) as u64
            + 1
    }
}

/// What one invocation measured.
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    /// Every invariant beyond per-op verification held.
    pub correct: bool,
    /// Untraced runs: every end-to-end metric.
    pub end_to_end: Vec<(&'static str, Spread)>,
    /// Traced runs: the per-layer metrics this workload measures.
    pub layers: Metrics,
    /// Human-readable lines: sample counts, op counts, derived figures.
    pub notes: Vec<String>,
}

impl Output {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            end_to_end: vec![],
            layers: vec![],
            notes: vec![],
        }
    }

    fn check(&mut self, holds: bool, what: &str) {
        if !holds {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }
}

/// Measures for `--seconds` (a quick run: one pass): `pass` after `pass`,
/// each yielding one window or several, another one starting only while at
/// least half of it still fits. Whenever the process's turn on a CPU is
/// over it moves to the next one and sets the workload up once more there
/// (`setup_again`, untimed here, returns what that set-up took), so that the
/// set-up times are spread over the run as the windows are. Returns the
/// windows and the set-up times, `first_setup_s` first.
fn measure(
    ctx: &Ctx,
    first_setup_s: f64,
    mut setup_again: impl FnMut() -> f64,
    mut pass: impl FnMut(usize) -> Vec<Window>,
) -> (Vec<Window>, Vec<f64>) {
    let (mut windows, mut setups) = (Vec::new(), vec![first_setup_s]);
    let (mut measuring_s, mut turn_s) = (0.0, 0.0);
    for n in 1.. {
        if turn_s >= CPU_TURN.as_secs_f64() {
            next_cpu();
            setups.push(setup_again());
            turn_s = 0.0;
        }
        let started = Instant::now();
        windows.extend(pass(n - 1));
        let pass_s = started.elapsed().as_secs_f64();
        measuring_s += pass_s;
        turn_s += pass_s;
        if ctx.quick || measuring_s + 0.5 * measuring_s / n as f64 > ctx.seconds {
            break;
        }
    }
    (windows, setups)
}

/// The end-to-end metrics of a run in catalogue order: the rate and the
/// median latency only one window in fifty beats (`stats::quiet`), the
/// set-up time by the same rule, and `peak_rss_mb`, which the caller reads
/// once measuring is done.
fn summarise(
    out: &mut Output,
    unit_of_work: &str,
    call: &str,
    setups: &[f64],
    peak_rss_mb: f64,
    windows: &[Window],
) {
    assert!(!windows.is_empty(), "the run measured no complete window");
    let rates: Vec<f64> = windows.iter().map(Window::ops_per_s).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    out.end_to_end = vec![
        ("setup_s", quiet(setups, false)),
        ("ops_per_s", quiet(&rates, true)),
        ("p50_us", quiet(&p50s, false)),
        ("peak_rss_mb", single(peak_rss_mb)),
    ];
    let per_window = windows[0].ops;
    out.notes.push(format!(
        "{} windows of {per_window} ops; one op = {unit_of_work}; p50_us is the median of {call} \
         over a window's samples ({} per window)",
        windows.len(),
        if windows[0].p50_us == windows[0].wall_s * 1e6 {
            1
        } else {
            per_window
        }
    ));
    out.notes.push(format!(
        "each value is the one only one window in fifty beats; the medians over windows: \
         ops_per_s {:.4}, p50_us {:.4}; setup_s per repeat: {}",
        median(&rates),
        median(&p50s),
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Set-up of an in-memory store workload alone, for [`cold_setup`].
pub fn setup_only(ctx: &Ctx) -> f64 {
    let graph = tornado_graph_1();
    match ctx.workload {
        crate::catalogue::REPAIR => setup_repair(ctx, &graph).setup_s,
        crate::catalogue::PUT => setup_put_only(ctx),
        workload => setup_get(ctx, &GetSpec::of(workload), &graph).setup_s,
    }
}

/// One more set-up time of this workload, from a fresh process
/// (`--setup-only`) on the CPU this one is on. Prefilling an in-memory store
/// is mostly first-touch page faults, so a repeat inside this process would
/// cost anything between half and all of the first one, depending on how
/// much of the freed heap the allocator had handed back.
fn cold_setup(ctx: &Ctx) -> f64 {
    let exe = std::env::current_exe().expect("path of the running executable");
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            ctx.workload,
            "--seed",
            &ctx.seed.to_string(),
            "--setup-only",
        ])
        .output()
        .expect("run a set-up child");
    assert!(out.status.success(), "set-up child failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up child prints seconds")
}

// ---------------------------------------------------------------------------
// get_small, get_large, get_large_degraded

struct GetSpec {
    objects: usize,
    size: usize,
    /// Ops of a traced run's counter pass.
    counter_ops: usize,
    /// Consecutive completions that make one window of an untraced run.
    per_window: usize,
    degraded: bool,
}

impl GetSpec {
    fn of(workload: &str) -> Self {
        match workload {
            GET_SMALL => Self {
                objects: 1_024,
                size: 4 << 10,
                counter_ops: 2_500,
                per_window: 250,
                degraded: false,
            },
            GET_LARGE => Self {
                objects: 128,
                size: 1 << 20,
                counter_ops: 600,
                per_window: 50,
                degraded: false,
            },
            GET_LARGE_DEGRADED => Self {
                objects: 128,
                size: 1 << 20,
                counter_ops: 600,
                per_window: 50,
                degraded: true,
            },
            other => unreachable!("{other} is not a GET workload"),
        }
    }
}

/// A stored object as the verifier knows it: id, checksum, length.
type Expected = (u64, u64, usize);

struct GetSystem {
    served: Served,
    objects: Vec<Expected>,
    setup_s: f64,
}

/// One closed-loop pass of uniform-random verified GETs.
fn get_pass(
    ctx: &Ctx,
    sys: &GetSystem,
    limit: Limit,
    stream: u64,
    tracer: Option<(&tornado_obs::Tracer, u64)>,
) -> Pass {
    let mut rng = ctx.rng(stream, 0);
    let objects = &sys.objects;
    drive(&sys.served, limit, Pacing::Closed, tracer, |client, _i| {
        let (id, sum, len) = objects[(rng.next_u64() % objects.len() as u64) as usize];
        timed(
            || client.get(id),
            |payload| payload.len() == len && checksum(&payload) == sum,
        )
    })
}

/// Memory store on catalog graph 1, prefilled, devices failed if the
/// workload says so, server up. Only the program's own calls are on the
/// set-up clock; generating payloads is not.
fn setup_get(ctx: &Ctx, spec: &GetSpec, graph: &Graph) -> GetSystem {
    let mut clock = Stopwatch::default();
    let store = clock.time(|| Arc::new(ArchivalStore::new(graph.clone())));
    let mut buf = vec![0u8; spec.size];
    let mut objects = Vec::with_capacity(spec.objects);
    for i in 0..spec.objects {
        ctx.rng(1, i as u64).fill_bytes(&mut buf);
        let id = clock
            .time(|| store.put(&format!("obj-{i}"), &buf))
            .expect("prefill PUT");
        objects.push((id, checksum(&buf), buf.len()));
    }
    if spec.degraded {
        for d in FAILED_DEVICES {
            clock.time(|| store.fail_device(d)).expect("fail_device");
        }
    }
    let served = clock.time(|| Served::start(store, false));
    GetSystem {
        served,
        objects,
        setup_s: clock.seconds(),
    }
}

pub fn run_get(ctx: &Ctx) -> Output {
    let spec = GetSpec::of(ctx.workload);
    let graph = tornado_graph_1();
    let mut out = Output::new();
    let sys = setup_get(ctx, &spec, &graph);
    let counter_ops = ctx.scaled(spec.counter_ops);
    let warm_up = get_pass(ctx, &sys, Limit::Ops((counter_ops / 10).max(1)), 2, None);
    out.check(warm_up.failed == 0, "warm-up GETs verify");
    out.notes.push(format!(
        "{} objects x {} B; one closed-loop connection",
        spec.objects, spec.size
    ));

    if ctx.traced {
        layers_get(ctx, &spec, &graph, sys, counter_ops, &mut out);
        return out;
    }
    // A pass lasts one turn on a CPU (a quick run: a twentieth of the
    // counter pass) on a fresh connection, and is cut into windows.
    let limit = if ctx.quick {
        Limit::Ops(counter_ops)
    } else {
        Limit::For(CPU_TURN)
    };
    let (measured, setups) = measure(
        ctx,
        sys.setup_s,
        || cold_setup(ctx),
        |n| {
            let pass = get_pass(ctx, &sys, limit, 16 + n as u64, None);
            out.attempted += pass.attempted();
            out.failed += pass.failed;
            let per_window = spec.per_window.min(pass.completions.len().max(1));
            windows(&pass.completions, per_window)
        },
    );
    let degraded = sys.served.obs.degraded_reads.get();
    if spec.degraded {
        out.check(
            degraded > 0,
            "server.get.degraded > 0 with four devices failed",
        );
    } else {
        out.check(degraded == 0, "no degraded read with every device online");
    }
    out.notes.push(format!("server.get.degraded = {degraded}"));
    summarise(
        &mut out,
        "one verified GET",
        "Client::get",
        &setups,
        peak_rss_mb(),
        &measured,
    );
    out
}

/// `client.p95_us`, `client.p99_us`: the tail of a whole counter pass,
/// ungated. Between runs of one commit these spread twice as far as the
/// median does.
fn client_tail(pass: &Pass, out: &mut Output) {
    let n = pass.samples_ns.len();
    out.notes.push(format!(
        "client.p95_us and client.p99_us over the {n} samples of the counter pass, {} and {} \
         beyond them; highest usual percentile with >= 10 samples beyond it: {}",
        samples_beyond(n, 0.95),
        samples_beyond(n, 0.99),
        highest_supported_quantile(n).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    ));
    let us = |q| percentile(&pass.samples_ns, q).unwrap_or(0) as f64 / 1_000.0;
    out.layers.push(("client.p95_us", us(0.95)));
    out.layers.push(("client.p99_us", us(0.99)));
}

/// Process-wide and store-wide counters around a measured pass.
struct Counters {
    server: Option<Json>,
    xored: u64,
    hashed: u64,
    pool_hits: u64,
    pool_misses: u64,
    device_bytes_read: u64,
}

impl Counters {
    fn read(served: Option<&Served>, store: &ArchivalStore) -> Self {
        let k = tornado_codec::kernels::metrics();
        let p = tornado_codec::pool::metrics();
        Self {
            server: served.map(Served::metrics),
            xored: k.bytes_xored.get(),
            hashed: k.bytes_hashed.get(),
            pool_hits: p.hits.get(),
            pool_misses: p.misses.get(),
            device_bytes_read: (0..store.num_devices())
                .map(|d| store.device(d).expect("device index").stats().bytes_read)
                .sum(),
        }
    }

    /// Codec and device counts per user byte between `self` and `after`.
    /// `client_hashed` is what the benchmark's own verification hashed in
    /// this process, which the kernel counter cannot tell apart.
    fn data_plane(&self, after: &Counters, user_bytes: u64, client_hashed: u64) -> Metrics {
        let per_byte = |delta: u64| delta as f64 / user_bytes.max(1) as f64;
        let (hits, misses) = (
            after.pool_hits - self.pool_hits,
            after.pool_misses - self.pool_misses,
        );
        vec![
            (
                "codec.xor_bytes_per_user_byte",
                per_byte(after.xored - self.xored),
            ),
            (
                "codec.hash_bytes_per_user_byte",
                per_byte((after.hashed - self.hashed).saturating_sub(client_hashed)),
            ),
            (
                "codec.pool_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
        ]
    }

    /// Serving-layer counts per op between two METRICS snapshots.
    fn serving(&self, after: &Counters, ops: u64) -> Metrics {
        let (Some(a), Some(b)) = (&self.server, &after.server) else {
            return vec![];
        };
        let delta = |name: &str| (counter(b, name) - counter(a, name)) as f64;
        let per_op = |name: &str| delta(name) / ops.max(1) as f64;
        let (wait_n0, wait_sum0) = histogram_count_sum(a, "server.queue_wait_us");
        let (wait_n1, wait_sum1) = histogram_count_sum(b, "server.queue_wait_us");
        let busy = delta("server.busy_rejected");
        vec![
            ("server.wakeups_per_op", per_op("server.loop.wakeups")),
            (
                "server.frames_per_wakeup",
                delta("server.loop.frames_in") / delta("server.loop.wakeups").max(1.0),
            ),
            (
                "server.write_flushes_per_op",
                per_op("server.loop.write_flushes"),
            ),
            (
                "server.queue_wait_mean_us",
                (wait_sum1 - wait_sum0) as f64 / (wait_n1 - wait_n0).max(1) as f64,
            ),
            (
                "server.queue_depth_peak",
                gauge(b, "server.queue_depth_peak"),
            ),
            (
                "server.busy_share",
                busy / (delta("server.requests") + busy).max(1.0),
            ),
        ]
    }
}

/// The traced part of a served run: the same ops against a server whose
/// tracer samples every request, merged with the benchmark's own client
/// spans. `untraced` is a pass of the same size on the untraced server.
fn attribute_pass(
    ctx: &Ctx,
    traced_server: &Served,
    traced: &Pass,
    untraced: &Pass,
    require: &[&str],
    out: &mut Output,
) {
    // The spans come straight from the tracer the benchmark handed the
    // server, not through `Client::trace_export()`: parsing that reply back
    // with `tornado_obs::json::parse` takes time quadratic in its size
    // (35 s for the 2.4 MB of a 1,000-op pass).
    let tracer = &traced_server.obs.tracer;
    let attribution = trace::attribute(tracer.spans(), &traced.spans);
    out.check(
        attribution.unmatched == 0,
        "every traced op has a server request span",
    );
    let mut required = vec!["client.roundtrip", "request"];
    required.extend_from_slice(require);
    if let Err(e) = validate_chrome_trace(&to_chrome_trace(&attribution.merged), &required) {
        out.check(false, &format!("merged trace validates: {e}"));
    }
    let mean_latency_us = traced.samples_ns.iter().sum::<u64>() as f64
        / traced.samples_ns.len().max(1) as f64
        / 1_000.0;
    let attributed: f64 = attribution.self_us.iter().map(|(_, v)| v).sum();
    let coverage = attributed / mean_latency_us;
    out.check(
        (0.9..=1.1).contains(&coverage),
        "trace.coverage within 0.9..1.1",
    );
    out.check(tracer.dropped() == 0, "no span dropped");
    out.layers.extend(attribution.self_us);
    out.layers.push(("trace.coverage", coverage));
    out.layers
        .push(("trace.spans_dropped", tracer.dropped() as f64));
    let rate = |p: &Pass| (p.attempted() - p.failed) as f64 / p.wall.as_secs_f64();
    out.layers.push((
        "obs.tracing_overhead_frac",
        1.0 - rate(traced) / rate(untraced),
    ));
    out.notes.push(format!(
        "traced pass: {} ops, mean client latency {mean_latency_us:.1} us, {attributed:.1} us attributed",
        traced.attempted()
    ));
    if let Some(path) = &ctx.trace_out {
        // The low 32 bits of a trace id are the op's index on its connection.
        let sample: Vec<_> = attribution
            .merged
            .into_iter()
            .filter(|s| s.trace_id & 0xFFFF_FFFF < TRACE_FILE_OPS_PER_CONN)
            .collect();
        std::fs::write(path, to_chrome_trace(&sample).to_line()).expect("write --trace-out file");
        out.notes.push(format!(
            "merged Chrome trace of the first {TRACE_FILE_OPS_PER_CONN} ops per connection written to {}",
            path.display()
        ));
    }
}

/// How many ops per connection a `--trace-out` file holds: `tornado
/// validate-trace` reads it with the quadratic parser.
const TRACE_FILE_OPS_PER_CONN: u64 = 64;

/// Ops per connection of a traced pass: small enough that no tracer ring
/// shard (16,384 spans) overflows.
fn traced_ops(ctx: &Ctx) -> usize {
    ctx.scaled(500).max(25)
}

fn layers_get(
    ctx: &Ctx,
    spec: &GetSpec,
    graph: &Graph,
    sys: GetSystem,
    counter_ops: usize,
    out: &mut Output,
) {
    // Counter pass: one full measured pass between two counter readings.
    let before = Counters::read(Some(&sys.served), &sys.served.store);
    let pass = get_pass(ctx, &sys, Limit::Ops(counter_ops), 16, None);
    let after = Counters::read(Some(&sys.served), &sys.served.store);
    out.attempted += pass.attempted();
    out.failed += pass.failed;
    let ops = pass.attempted() - pass.failed;
    let user_bytes = ops * spec.size as u64;
    out.layers.extend(before.serving(&after, pass.attempted()));
    client_tail(&pass, out);
    out.layers.push((
        "process.cpu_us_per_op",
        pass.cpu_s * 1e6 / ops.max(1) as f64,
    ));
    out.layers
        .extend(before.data_plane(&after, user_bytes, user_bytes));
    out.layers.push((
        "store.device_bytes_per_user_byte",
        (after.device_bytes_read - before.device_bytes_read) as f64 / user_bytes.max(1) as f64,
    ));
    let (a, b) = (
        before.server.as_ref().expect("served"),
        after.server.as_ref().expect("served"),
    );
    let gets = counter(b, "server.get") - counter(a, "server.get");
    let degraded = counter(b, "server.get.degraded") - counter(a, "server.get.degraded");
    out.layers.push((
        "server.get_degraded_share",
        degraded as f64 / gets.max(1) as f64,
    ));
    out.check(
        spec.degraded == (degraded > 0),
        "degraded reads exactly when devices are failed",
    );

    // Probes of the layers this workload informs, on the idle system.
    let ids: Vec<u64> = sys.objects.iter().map(|o| o.0).collect();
    let direct = probes::direct_gets(&sys.served.store, &ids, ctx.seed, 1_000);
    match ctx.workload {
        GET_SMALL => {
            out.layers.push(("store.get_4k_us", direct.median_us));
            out.layers
                .extend(probes::server_rtt(&mut sys.served.connect(), ids[0]));
            out.layers.extend(probes::plan_healthy(graph));
            open_loop(ctx, &sys, out);
        }
        GET_LARGE => {
            out.layers.push(("store.get_1m_us", direct.median_us));
            out.layers.extend(probes::protocol_get_reply(ctx.seed));
            out.layers.extend(probes::backend_memory(ctx.seed));
            out.layers.extend(probes::codec_kernels(ctx.seed));
        }
        _ => {
            out.layers
                .push(("store.get_1m_degraded_us", direct.median_us));
            out.layers.push(("store.plan_share", direct.plan_share));
            out.layers.push(("store.fetch_share", direct.fetch_share));
            out.layers.push(("store.decode_share", direct.decode_share));
            out.layers
                .push(("retrieval.blocks_fetched_degraded", direct.blocks_fetched));
            out.layers.push((
                "retrieval.devices_contacted_degraded",
                direct.devices_contacted,
            ));
            out.layers.extend(probes::plan_degraded(graph));
            out.layers.extend(probes::codec_decode4(graph, ctx.seed));
        }
    }

    // Traced pass, against an untraced pass of the same size.
    let n = traced_ops(ctx);
    let untraced = get_pass(ctx, &sys, Limit::Ops(n), 3, None);
    let GetSystem {
        served, objects, ..
    } = sys;
    let sys = GetSystem {
        served: Served::start(served.stop(), true),
        objects,
        setup_s: 0.0,
    };
    let traced = get_pass(
        ctx,
        &sys,
        Limit::Ops(n),
        3,
        Some((&sys.served.obs.tracer, ctx.trace_lane() << 48)),
    );
    out.attempted += untraced.attempted() + traced.attempted();
    out.failed += untraced.failed + traced.failed;
    let require: &[&str] = if spec.degraded {
        &["store.get", "decode.recover"]
    } else {
        &["store.get"]
    };
    attribute_pass(ctx, &sys.served, &traced, &untraced, require, out);
}

/// Ungated saturation probe: the connection paced at fixed total
/// rates, latency clocked from the scheduled send time.
fn open_loop(ctx: &Ctx, sys: &GetSystem, out: &mut Output) {
    const NAMES: [[&str; 3]; 3] = [
        [
            "server.open_p50_us.2000",
            "server.open_p99_us.2000",
            "server.open_late_share.2000",
        ],
        [
            "server.open_p50_us.6000",
            "server.open_p99_us.6000",
            "server.open_late_share.6000",
        ],
        [
            "server.open_p50_us.10000",
            "server.open_p99_us.10000",
            "server.open_late_share.10000",
        ],
    ];
    let seconds = if ctx.quick { 0.15 } else { 3.0 };
    for (rate, names) in OPEN_LOOP_RATES.into_iter().zip(NAMES) {
        let mut rng = ctx.rng(4 + rate as u64, 0);
        let objects = &sys.objects;
        let pass = drive(
            &sys.served,
            Limit::Ops((rate as f64 * seconds) as usize),
            Pacing::Open { rate },
            None,
            |client, _i| {
                let (id, sum, len) = objects[(rng.next_u64() % objects.len() as u64) as usize];
                timed(
                    || client.get(id),
                    |payload| payload.len() == len && checksum(&payload) == sum,
                )
            },
        );
        out.attempted += pass.attempted();
        out.failed += pass.failed;
        let us = |q| percentile(&pass.samples_ns, q).unwrap_or(0) as f64 / 1_000.0;
        out.layers.push((names[0], us(0.5)));
        out.layers.push((names[1], us(0.99)));
        out.layers
            .push((names[2], pass.late as f64 / pass.attempted().max(1) as f64));
    }
}

// ---------------------------------------------------------------------------
// put_64k

const PUT_SIZE: usize = 64 << 10;
/// Ops of a traced run's counter pass and of its durable pass.
const PUT_OPS: usize = 1_000;
/// Consecutive acknowledgements that make one window.
const PUT_PER_WINDOW: usize = 100;
/// Distinct payloads PUTs draw from (generating one per PUT would cost the
/// client more than the PUT).
const PUT_POOL: usize = 32;
const READ_BACKS: usize = 200;
/// Objects already stored when PUTs begin: an archive is never empty. For
/// the durable pass they are in the directory it opens, so that its set-up
/// is recovery-on-open (a checksum-verified scan, the program's time) and
/// not the creation of ~200 files (the filesystem's, which wanders
/// several-fold on ext4).
const PUT_PREFILL: usize = 512;

/// One closed-loop pass of PUTs of pooled payloads. `after(id, k)` runs
/// untimed once payload `k` was acknowledged as object `id`, and says
/// whether the op verified.
fn put_pass(
    ctx: &Ctx,
    served: &Served,
    pool: &[Vec<u8>],
    limit: Limit,
    stream: u64,
    tracer: Option<(&tornado_obs::Tracer, u64)>,
    mut after: impl FnMut(u64, usize) -> bool + Send,
) -> Pass {
    let mut rng = ctx.rng(stream, 0);
    drive(served, limit, Pacing::Closed, tracer, |client, i| {
        let k = (rng.next_u64() % pool.len() as u64) as usize;
        let name = format!("put-{stream}-{i}");
        timed(|| client.put(&name, &pool[k]), |id| after(id, k))
    })
}

/// The memory store `put_64k` PUTs into, prefilled, behind a server.
fn setup_put(ctx: &Ctx, graph: &Graph, pool: &[Vec<u8>]) -> (Served, f64) {
    let mut clock = Stopwatch::default();
    let store = clock.time(|| Arc::new(ArchivalStore::new(graph.clone())));
    for i in 0..ctx.scaled(PUT_PREFILL) {
        clock
            .time(|| store.put(&format!("prefill-{i}"), &pool[i % pool.len()]))
            .expect("prefill PUT");
    }
    let served = clock.time(|| Served::start(store, false));
    (served, clock.seconds())
}

fn put_pool(ctx: &Ctx) -> Vec<Vec<u8>> {
    (0..PUT_POOL)
        .map(|i| probes::payload(mix64(ctx.seed ^ i as u64), PUT_SIZE))
        .collect()
}

/// Set-up of `put_64k` alone, for [`cold_setup`].
fn setup_put_only(ctx: &Ctx) -> f64 {
    setup_put(ctx, &tornado_graph_1(), &put_pool(ctx)).1
}

pub fn run_put(ctx: &Ctx) -> Output {
    let graph = tornado_graph_1();
    let mut out = Output::new();
    let pool = put_pool(ctx);
    let (served, setup_s) = setup_put(ctx, &graph, &pool);
    out.notes.push(format!(
        "memory store prefilled with {} objects; one closed-loop connection, PUTs of \
         {PUT_SIZE} B; every acknowledged object is read back from the store byte for byte, then \
         deleted (untimed)",
        ctx.scaled(PUT_PREFILL)
    ));
    // What makes a PUT a verified op: the store holds the acknowledged id
    // with exactly the payload sent. Deleting it keeps memory level.
    let store = Arc::clone(&served.store);
    let read_back_and_delete = |id: u64, k: usize| {
        store.get(id).ok().as_deref() == Some(&pool[k][..]) && store.delete(id).is_ok()
    };
    let ops = ctx.scaled(PUT_OPS);
    let warm_up = put_pass(
        ctx,
        &served,
        &pool,
        Limit::Ops((ops / 10).max(1)),
        2,
        None,
        read_back_and_delete,
    );
    out.check(warm_up.failed == 0, "warm-up PUTs verify");

    if ctx.traced {
        layers_put(ctx, &graph, &pool, served, ops, &mut out);
        return out;
    }
    let limit = if ctx.quick {
        Limit::Ops(ops)
    } else {
        Limit::For(CPU_TURN)
    };
    let (measured, setups) = measure(
        ctx,
        setup_s,
        || cold_setup(ctx),
        |n| {
            let pass = put_pass(
                ctx,
                &served,
                &pool,
                limit,
                16 + n as u64,
                None,
                read_back_and_delete,
            );
            out.attempted += pass.attempted();
            out.failed += pass.failed;
            let per_window = PUT_PER_WINDOW.min(pass.completions.len().max(1));
            windows(&pass.completions, per_window)
        },
    );
    out.check(
        served.store.list().len() == ctx.scaled(PUT_PREFILL),
        "only the prefilled objects are left",
    );
    summarise(
        &mut out,
        "one acknowledged and verified PUT",
        "Client::put",
        &setups,
        peak_rss_mb(),
        &measured,
    );
    out
}

/// The traced run of `put_64k`: counters and probes on the memory store,
/// the traced pass, and one pass into a durable store for what durability
/// adds.
fn layers_put(
    ctx: &Ctx,
    graph: &Graph,
    pool: &[Vec<u8>],
    served: Served,
    ops: usize,
    out: &mut Output,
) {
    let store = Arc::clone(&served.store);
    let read_back_and_delete = |id: u64, k: usize| {
        store.get(id).ok().as_deref() == Some(&pool[k][..]) && store.delete(id).is_ok()
    };
    let before = Counters::read(Some(&served), &served.store);
    let pass = put_pass(
        ctx,
        &served,
        pool,
        Limit::Ops(ops),
        16,
        None,
        // Deleting is left to the end of the pass: the data-plane counters
        // are those of the PUTs alone.
        |_, _| true,
    );
    let after = Counters::read(Some(&served), &served.store);
    out.attempted += pass.attempted();
    out.failed += pass.failed;
    let acked = pass.attempted() - pass.failed;
    out.layers.extend(before.serving(&after, pass.attempted()));
    client_tail(&pass, out);
    out.layers.push((
        "process.cpu_us_per_op",
        pass.cpu_s * 1e6 / acked.max(1) as f64,
    ));
    out.layers
        .extend(before.data_plane(&after, acked * PUT_SIZE as u64, 0));
    for meta in served.store.list() {
        if meta.name.starts_with("put-") {
            served.store.delete(meta.id).expect("delete a counted PUT");
        }
    }

    out.layers.extend(probes::protocol_put_frame(ctx.seed));
    out.layers.extend(probes::store_put(graph, ctx.seed));
    out.layers.extend(probes::backends_durable(ctx.seed));
    out.layers.extend(probes::fsync_pass(graph, ctx.seed));
    out.layers.extend(probes::codec_encode(graph, ctx.seed));

    // Traced pass, against an untraced pass of the same size.
    let n = traced_ops(ctx);
    let untraced = put_pass(
        ctx,
        &served,
        pool,
        Limit::Ops(n),
        3,
        None,
        read_back_and_delete,
    );
    let served = Served::start(served.stop(), true);
    let traced = put_pass(
        ctx,
        &served,
        pool,
        Limit::Ops(n),
        3,
        Some((&served.obs.tracer, ctx.trace_lane() << 48)),
        read_back_and_delete,
    );
    out.attempted += untraced.attempted() + traced.attempted();
    out.failed += untraced.failed + traced.failed;
    attribute_pass(ctx, &served, &traced, &untraced, &["store.put"], out);
    drop(store);
    drop(served.stop());

    durable_pass(ctx, graph, pool, ops, out);
}

fn durable_config(dir: &ScratchDir) -> DurableConfig {
    DurableConfig::new_nosync(dir.path(), BackendKind::Segment)
}

/// What durability adds to a PUT, ungated because most of it is the
/// filesystem's time (one sidecar create-and-rename and 96 appends per
/// PUT; on this VM's ext4 the PUT rate wanders between 700 and 1,700 per
/// second within one pass): a fresh directory is given [`PUT_PREFILL`]
/// objects and closed; it is opened again (segment backend, fsync off —
/// recovery-on-open) and served; `ops` PUTs; [`READ_BACKS`] seeded
/// read-backs through the server; then everything is dropped, the directory
/// reopened, every acknowledged id looked up and [`READ_BACKS`] more read
/// back byte for byte.
fn durable_pass(ctx: &Ctx, graph: &Graph, pool: &[Vec<u8>], ops: usize, out: &mut Output) {
    let dir = ScratchDir::new("put");
    let mut rng = ctx.rng(6, 0);
    let mut acked: Vec<(u64, usize)> = {
        let (store, _fresh) = ArchivalStore::open(graph.clone(), durable_config(&dir))
            .expect("create a durable store");
        (0..ctx.scaled(PUT_PREFILL))
            .map(|i| {
                let k = (rng.next_u64() % pool.len() as u64) as usize;
                let id = store.put(&format!("prefill-{i}"), &pool[k]);
                (id.expect("prefill PUT"), k)
            })
            .collect()
    };
    let (store, report) =
        ArchivalStore::open(graph.clone(), durable_config(&dir)).expect("open the durable store");
    out.check(
        report.objects == acked.len(),
        "recovery-on-open finds every prefilled object",
    );
    out.layers.push((
        "store.recovery_us_per_object",
        report.duration_us as f64 / report.objects.max(1) as f64,
    ));
    let served = Served::start(Arc::new(store), false);
    let pass = put_pass(ctx, &served, pool, Limit::Ops(ops), 7, None, |id, k| {
        acked.push((id, k));
        true
    });
    out.attempted += pass.attempted();
    out.failed += pass.failed;
    out.layers.push((
        "store.durable_put_p50_us",
        percentile(&pass.samples_ns, 0.5).unwrap_or(0) as f64 / 1_000.0,
    ));

    let mut sample = |n: usize| -> Vec<(u64, usize)> {
        (0..n.min(acked.len()))
            .map(|_| acked[(rng.next_u64() % acked.len() as u64) as usize])
            .collect()
    };
    let mut client = served.connect();
    for (id, k) in sample(READ_BACKS) {
        out.attempted += 1;
        out.failed += u64::from(client.get(id).ok().as_deref() != Some(&pool[k][..]));
    }
    drop(client);

    // Drop the server and the store, then reopen the directory.
    let store = served.stop();
    drop(
        Arc::try_unwrap(store)
            .unwrap_or_else(|_| panic!("the stopped server still holds the store")),
    );
    out.layers.push((
        "store.stored_bytes_per_user_byte",
        dir_bytes(dir.path()) as f64 / (acked.len() * PUT_SIZE).max(1) as f64,
    ));
    let (reopened, report) =
        ArchivalStore::open(graph.clone(), durable_config(&dir)).expect("reopen the directory");
    let listed: std::collections::HashSet<u64> = reopened.list().iter().map(|m| m.id).collect();
    out.attempted += acked.len() as u64;
    out.failed += acked.iter().filter(|(id, _)| !listed.contains(id)).count() as u64;
    for (id, k) in sample(READ_BACKS) {
        out.attempted += 1;
        out.failed += u64::from(reopened.get(id).ok().as_deref() != Some(&pool[k][..]));
    }
    out.check(
        report.rolled_back == 0 && !report.torn_tail,
        "a clean shutdown leaves nothing to roll back",
    );
}

// ---------------------------------------------------------------------------
// repair

const REPAIR_OBJECTS: usize = 128;
const REPAIR_SIZE: usize = 1 << 20;
const REPAIR_CYCLES: usize = 20;

struct RepairSystem {
    store: ArchivalStore,
    objects: Vec<Expected>,
    scrubber: Scrubber,
    block_len: usize,
    setup_s: f64,
}

/// Fails and replaces four seeded devices, then scrubs with repair.
/// Returns the cycle's wall time and what the scrub did.
fn repair_cycle(sys: &RepairSystem, rng: &mut SmallRng) -> (f64, f64, tornado_store::ScrubOutcome) {
    let mut devices: Vec<usize> = (0..sys.store.num_devices()).collect();
    devices.shuffle(rng);
    let t0 = Instant::now();
    for &d in &devices[..4] {
        sys.store.fail_device(d).expect("fail_device");
        sys.store.replace_device(d).expect("replace_device");
    }
    let scrub_started = Instant::now();
    let outcome = sys.scrubber.run(&sys.store, 5, true, ScrubMode::Verify);
    (
        t0.elapsed().as_secs_f64(),
        scrub_started.elapsed().as_secs_f64(),
        outcome,
    )
}

fn setup_repair(ctx: &Ctx, graph: &Graph) -> RepairSystem {
    let mut clock = Stopwatch::default();
    let store = clock.time(|| ArchivalStore::new(graph.clone()));
    let mut buf = vec![0u8; REPAIR_SIZE];
    let mut objects = Vec::with_capacity(REPAIR_OBJECTS);
    for i in 0..REPAIR_OBJECTS {
        ctx.rng(1, i as u64).fill_bytes(&mut buf);
        let id = clock
            .time(|| store.put(&format!("obj-{i}"), &buf))
            .expect("prefill PUT");
        objects.push((id, checksum(&buf), buf.len()));
    }
    let block_len = store.meta(objects[0].0).expect("stored object").block_len;
    let scrubber = clock.time(|| Scrubber::new(2));
    RepairSystem {
        store,
        objects,
        scrubber,
        block_len,
        setup_s: clock.seconds(),
    }
}

pub fn run_repair(ctx: &Ctx) -> Output {
    let graph = tornado_graph_1();
    let mut out = Output::new();
    let sys = setup_repair(ctx, &graph);
    let (_, _, warm_up) = repair_cycle(&sys, &mut ctx.rng(2, 0));
    out.check(
        warm_up.objects_incomplete.is_empty(),
        "warm-up cycle repairs everything",
    );
    out.notes.push(format!(
        "{REPAIR_OBJECTS} objects x {REPAIR_SIZE} B, memory store, Scrubber::new(2); \
         one cycle = fail 4 + replace 4 + verify-mode scrub with repair"
    ));

    let (mut rebuilt_blocks, mut scrub_s, mut decoded) = (0u64, 0.0, 0u64);
    let before = Counters::read(None, &sys.store);
    let mut rng = ctx.rng(16, 0);
    let mut run_cycle = |out: &mut Output| {
        let (cycle_s, in_scrub_s, outcome) = repair_cycle(&sys, &mut rng);
        // Four devices x every object, unless a stripe could not be repaired.
        let expected = 4 * sys.objects.len();
        out.attempted += expected as u64;
        out.failed += (expected - outcome.blocks_repaired.min(expected)) as u64
            + outcome.objects_incomplete.len() as u64;
        rebuilt_blocks += outcome.blocks_repaired as u64;
        scrub_s += in_scrub_s;
        decoded += outcome.decoded_count() as u64;
        Window::of_one_call(outcome.blocks_repaired as u64, cycle_s)
    };
    let cpu_before = cpu_seconds();
    let (measured, setups) = if ctx.traced {
        let cycles = (0..ctx.scaled(REPAIR_CYCLES)).map(|_| run_cycle(&mut out));
        (cycles.collect(), vec![])
    } else {
        measure(
            ctx,
            sys.setup_s,
            || cold_setup(ctx),
            |_| vec![run_cycle(&mut out)],
        )
    };
    let cpu_s = cpu_seconds() - cpu_before;
    let after = Counters::read(None, &sys.store);

    // Every object still reads back, and a final scrub finds nothing degraded.
    for &(id, sum, len) in &sys.objects {
        out.attempted += 1;
        out.failed += u64::from(
            !sys.store
                .get(id)
                .is_ok_and(|p| p.len() == len && checksum(&p) == sum),
        );
    }
    let clean_started = Instant::now();
    let clean = sys.scrubber.run(&sys.store, 5, false, ScrubMode::Verify);
    let clean_s = clean_started.elapsed().as_secs_f64();
    out.check(
        clean.degraded_count() == 0,
        "final scrub reports 0 degraded stripes",
    );

    let rebuilt_bytes = rebuilt_blocks * sys.block_len as u64;
    let rebuilt_mb_per_s = rebuilt_bytes as f64 / 1e6 / scrub_s;
    out.notes.push(format!(
        "rebuilt {rebuilt_blocks} blocks of {} B: {rebuilt_mb_per_s:.1} MB/s inside Scrubber::run",
        sys.block_len
    ));
    if ctx.traced {
        let total_cycles = measured.len() as f64;
        let stored_bytes = (sys.objects.len() * graph.num_nodes() * sys.block_len) as f64;
        out.layers
            .push(("scrub.rebuilt_mb_per_s", rebuilt_mb_per_s));
        out.layers
            .push(("scrub.verify_clean_mb_per_s", stored_bytes / 1e6 / clean_s));
        out.layers
            .push(("scrub.decoded_per_cycle", decoded as f64 / total_cycles));
        out.layers.push((
            "store.device_bytes_per_user_byte",
            (after.device_bytes_read - before.device_bytes_read) as f64
                / rebuilt_bytes.max(1) as f64,
        ));
        out.layers.push((
            "process.cpu_us_per_op",
            cpu_s * 1e6 / rebuilt_blocks.max(1) as f64,
        ));
        out.layers
            .extend(before.data_plane(&after, rebuilt_bytes, 0));
        out.layers.extend(probes::plan_repair_probe(&graph));
    } else {
        summarise(
            &mut out,
            "one block rebuilt onto a replaced device",
            "one fail-replace-scrub cycle",
            &setups,
            peak_rss_mb(),
            &measured,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// certify, profile

/// How many of a simulation pass's `ops` count as failed: all of them when
/// its counts disagree with the expected ones.
fn disagreeing(ops: u64, got: &[u64], expected: &[u64]) -> u64 {
    if got == expected {
        0
    } else {
        ops
    }
}

/// Patterns of `k` or fewer of 96 nodes, k = 1..=max_k.
fn patterns_up_to(max_k: usize) -> u64 {
    (1..=max_k as u64)
        .map(|k| tornado_bitset::combinations::binomial(96, k) as u64)
        .sum()
}

/// One timed call of a simulation workload doing `ops` units of work, as
/// a window, with the process CPU seconds it took.
fn timed_call<T>(ops: u64, call: impl FnOnce() -> T) -> (Window, f64, T) {
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let value = call();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        Window::of_one_call(ops, wall_s),
        cpu_seconds() - cpu0,
        value,
    )
}

/// Set-up of a simulation workload: load the certified graph and make the
/// first call on it. Loading alone takes 0.3 ms, too little to time steadily
/// (its median moved by half between two sets of runs while CPU-bound work
/// moved by a fifth), so the first call — cold caches, the thread pool's
/// start — is on the set-up clock.
fn setup_sim<T>(first_call: impl Fn(&Graph) -> T) -> (Graph, T, f64) {
    let t0 = Instant::now();
    let graph = tornado_graph_1();
    let value = first_call(&graph);
    let setup_s = t0.elapsed().as_secs_f64();
    (graph, value, setup_s)
}

/// The level a measured window of `certify` searches to: 3,469,496
/// patterns, a third of a second on one core — short enough that many
/// windows of a run fall between the host's busy spells. The certificate
/// itself (k = 5, 6.5 s on one core) runs once per run and is checked, not
/// gated.
const CERTIFY_WINDOW_K: usize = 4;

pub fn run_certify(ctx: &Ctx) -> Output {
    let mut out = Output::new();
    let search = |g: &Graph, max_k| {
        worst_case_search(
            g,
            &WorstCaseConfig {
                max_k,
                ..Default::default()
            },
        )
    };
    // Searches to `max_k`, checks the failure counts per level and that
    // every pattern was examined.
    let checked_search = |g: &Graph, max_k: usize, expected: &[u64], out: &mut Output| {
        let patterns = patterns_up_to(max_k);
        let (window, cpu_s, report) = timed_call(patterns, || search(g, max_k));
        let failures: Vec<u64> = report.levels.iter().map(|l| l.failures).collect();
        let cases: u64 = report.levels.iter().map(|l| l.cases as u64).sum();
        out.attempted += patterns;
        out.failed += disagreeing(patterns, &failures, expected);
        out.check(cases == patterns, "the search examined every pattern");
        (window, cpu_s, failures)
    };
    let first_call = |g: &Graph| search(g, CERTIFY_WINDOW_K);
    let (graph, first, setup_s) = setup_sim(first_call);
    out.check(
        first.levels.iter().all(|l| l.failures == 0),
        "the first search finds no failure up to k = 4",
    );

    // The paper's §3 certificate of graph 1 (crates/core/assets/PROVENANCE.txt).
    if !ctx.quick {
        let expected = [0, 0, 0, 0, 13];
        let (window, cpu_s, failures) = checked_search(&graph, 5, &expected, &mut out);
        out.notes.push(format!(
            "certificate: worst_case_search to k = 5 found {failures:?} failures per k over {} \
             patterns (expected {expected:?}) in {:.3} s",
            window.ops, window.wall_s
        ));
        out.layers
            .push(("process.cpu_us_per_op", cpu_s * 1e6 / window.ops as f64));
    }
    out.notes.push(format!(
        "a window: worst_case_search on catalog graph 1 to k = {CERTIFY_WINDOW_K}, {} patterns",
        patterns_up_to(CERTIFY_WINDOW_K)
    ));
    if ctx.traced {
        out.layers.extend(probes::erasure_sweep(&graph));
    } else {
        let (measured, setups) = measure(
            ctx,
            setup_s,
            || setup_sim(first_call).2,
            |_| vec![checked_search(&graph, CERTIFY_WINDOW_K, &[0; CERTIFY_WINDOW_K], &mut out).0],
        );
        summarise(
            &mut out,
            "one erasure pattern decided",
            "one worst_case_search call",
            &setups,
            peak_rss_mb(),
            &measured,
        );
    }
    out
}

/// Trials per k of a measured window of `profile` (110,000 trials over
/// k = 5..=48, a third of a second on one core) and of the full-size profile a traced
/// run takes its CPU share from.
const PROFILE_WINDOW_TRIALS: usize = 2_500;
const PROFILE_FULL_TRIALS: usize = 50_000;

pub fn run_profile(ctx: &Ctx) -> Output {
    let mut out = Output::new();
    let ks: Vec<usize> = (5..=48).collect();
    let trials_per_k = if ctx.traced {
        ctx.scaled(PROFILE_FULL_TRIALS)
    } else {
        ctx.scaled(PROFILE_WINDOW_TRIALS)
    } as u64;
    let profile = |g: &Graph| {
        monte_carlo_profile(
            g,
            &MonteCarloConfig {
                trials_per_k,
                seed: ctx.seed,
                ks: Some(ks.clone()),
            },
        )
    };
    let (graph, first, setup_s) = setup_sim(profile);
    let expected: Vec<u64> = ks.iter().map(|&k| first.entry(k).failures).collect();
    let trials = trials_per_k * ks.len() as u64;
    out.notes.push(format!(
        "a window: monte_carlo_profile on catalog graph 1, k = 5..=48, {trials_per_k} trials per k, \
         {trials} trials; failure counts must repeat exactly"
    ));
    let one_call = |out: &mut Output| {
        let (window, cpu_s, profile) = timed_call(trials, || profile(&graph));
        let counts: Vec<u64> = ks.iter().map(|&k| profile.entry(k).failures).collect();
        out.attempted += trials;
        out.failed += disagreeing(trials, &counts, &expected);
        (window, cpu_s)
    };
    if ctx.traced {
        let (_, cpu_s) = one_call(&mut out);
        let random_ns = probes::erasure_random(&graph, ctx.seed);
        out.layers
            .push(("process.cpu_us_per_op", cpu_s * 1e6 / trials as f64));
        out.layers.push(("erasure.random_ns_per_trial", random_ns));
        out.layers.push((
            "sim.sample_overhead_share",
            1.0 - random_ns * 1e-9 * trials as f64 / cpu_s,
        ));
    } else {
        let (measured, setups) = measure(
            ctx,
            setup_s,
            || setup_sim(profile).2,
            |_| vec![one_call(&mut out).0],
        );
        summarise(
            &mut out,
            "one Monte-Carlo trial",
            "one monte_carlo_profile call",
            &setups,
            peak_rss_mb(),
            &measured,
        );
    }
    // One level recomputed on its own must agree with the profile's row.
    let k24 = ks.iter().position(|&k| k == 24).expect("24 is profiled");
    out.check(
        sample_level(&graph, 24, trials_per_k, ctx.seed) == expected[k24],
        "sample_level(k = 24) reproduces the profile's count",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx {
            workload: GET_SMALL,
            seed: 7,
            seconds: 1.0,
            traced: false,
            quick: true,
            trace_out: None,
        }
    }

    /// A served memory store holding `objects` 4 KiB objects.
    fn small_system(objects: usize) -> GetSystem {
        let spec = GetSpec {
            objects,
            size: 4 << 10,
            counter_ops: 0,
            per_window: 1,
            degraded: false,
        };
        setup_get(&ctx(), &spec, &tornado_graph_1())
    }

    #[test]
    fn a_corrupted_block_still_verifies_through_decode() {
        let sys = small_system(4);
        let store = &sys.served.store;
        for &(id, _, _) in &sys.objects {
            let meta = store.meta(id).unwrap();
            let device = store.device_of_block(&meta, 0);
            assert!(
                store.device(device).unwrap().corrupt_block(&(id, 0), 0xFF),
                "data block 0 exists"
            );
        }
        let pass = get_pass(&ctx(), &sys, Limit::Ops(40), 1, None);
        assert_eq!(pass.attempted(), 40);
        assert_eq!(
            pass.failed, 0,
            "a checksum mismatch degrades into an erasure and the payload decodes"
        );
        assert!(
            sys.served.obs.degraded_reads.get() > 0,
            "those reads took the degraded path"
        );
    }

    #[test]
    fn a_fifth_failed_device_on_a_known_bad_set_counts_as_failed() {
        let sys = small_system(1);
        let store = &sys.served.store;
        assert_eq!(
            store.meta(sys.objects[0].0).unwrap().rotation,
            0,
            "node i of the first object is on device i"
        );
        // One of the 13 five-node sets graph 1 does not survive (PROVENANCE.txt).
        for device in [0, 14, 20, 39, 45] {
            store.fail_device(device).unwrap();
        }
        let pass = get_pass(&ctx(), &sys, Limit::Ops(10), 1, None);
        assert_eq!(pass.attempted(), 10);
        assert_eq!(
            pass.failed,
            pass.attempted(),
            "UNRECOVERABLE is a failed op, not a panic"
        );
    }

    #[test]
    fn a_simulation_count_that_disagrees_fails_the_whole_pass() {
        assert_eq!(
            disagreeing(64_593_560, &[0, 0, 0, 0, 13], &[0, 0, 0, 0, 13]),
            0
        );
        assert_eq!(
            disagreeing(64_593_560, &[0, 0, 0, 0, 12], &[0, 0, 0, 0, 13]),
            64_593_560
        );
        assert_eq!(
            disagreeing(9, &[0, 0, 0, 0], &[0, 0, 0, 0, 13]),
            9,
            "a missing level disagrees too"
        );
    }

    #[test]
    fn quick_runs_scale_every_op_count_by_twenty() {
        let quick = ctx();
        assert_eq!(
            (quick.scaled(20_000), quick.scaled(40), quick.scaled(7)),
            (1_000, 2, 1)
        );
        let full = Ctx {
            quick: false,
            ..ctx()
        };
        assert_eq!(full.scaled(600), 600);
    }
}
