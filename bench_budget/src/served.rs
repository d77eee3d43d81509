//! The in-process server and the client connection that loads it.
//!
//! The server is started exactly as `tornado serve` with no flags starts it
//! (default `ServerConfig`, a disabled observer) and is driven by one
//! blocking `Client` in a closed loop. One, because the whole process runs
//! on one CPU at a time (`env::confine_to_one_cpu`): with a single request
//! in flight exactly one thread is runnable at any moment — client, shard,
//! worker, shard, client — so the kernel has no scheduling choice to make
//! and every run takes the same path. A second connection on the same CPU
//! adds no work the first does not do, only orders in which it can be done:
//! with two, whole one-second passes settled at anything between 12,000 and
//! 24,000 GETs per second.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tornado_obs::{Json, Tracer};
use tornado_server::{serve, Client, ServerConfig, ServerHandle, ServerObserver};
use tornado_store::ArchivalStore;

/// A running server over `store`.
pub struct Served {
    pub store: Arc<ArchivalStore>,
    pub obs: Arc<ServerObserver>,
    handle: ServerHandle,
}

impl Served {
    /// Starts the default server; with `traced`, the same server with a
    /// tracer that samples every request.
    pub fn start(store: Arc<ArchivalStore>, traced: bool) -> Self {
        let (obs, trace_sample) = if traced {
            (
                ServerObserver::disabled().with_tracer(Tracer::new(1, 1 << 17, 0)),
                1,
            )
        } else {
            (ServerObserver::disabled(), 0)
        };
        let obs = Arc::new(obs);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            trace_sample,
            ..Default::default()
        };
        let handle =
            serve(config, Arc::clone(&store), Arc::clone(&obs)).expect("bind a loopback port");
        Self { store, obs, handle }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.handle.local_addr()).expect("connect to the in-process server")
    }

    /// The server's METRICS snapshot, parsed.
    pub fn metrics(&self) -> Json {
        let text = self.connect().metrics().expect("METRICS op");
        tornado_obs::json::parse(&text).expect("METRICS answers valid JSON")
    }

    /// Drains the server and waits for every one of its threads.
    pub fn stop(self) -> Arc<ArchivalStore> {
        self.handle.shutdown();
        self.handle.join();
        self.store
    }
}

/// A counter of a METRICS snapshot (0 when absent).
pub fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A gauge of a METRICS snapshot (0 when absent).
pub fn gauge(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("gauges")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// `(count, sum)` of a histogram of a METRICS snapshot.
pub fn histogram_count_sum(snapshot: &Json, name: &str) -> (u64, u64) {
    let h = snapshot.get("histograms").and_then(|h| h.get(name));
    let part = |key: &str| {
        h.and_then(|h| h.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (part("count"), part("sum"))
}

/// When a connection sends its next request.
#[derive(Clone, Copy)]
pub enum Pacing {
    /// As soon as the previous reply arrived.
    Closed,
    /// On a fixed schedule of `rate` requests per second, whatever the
    /// server does; latency is clocked from the scheduled send time.
    Open { rate: u32 },
}

/// The benchmark's own span around one client call, on the server tracer's
/// clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientSpan {
    pub trace_id: u64,
    pub start_us: u64,
    pub end_us: u64,
}

/// How long a pass lasts.
#[derive(Clone, Copy)]
pub enum Limit {
    /// This many ops on each connection.
    Ops(usize),
    /// Each connection starts no further op once this much time has passed.
    For(Duration),
}

/// What one pass on one connection saw.
pub struct Pass {
    /// Client-observed latency of every attempted op, ascending.
    pub samples_ns: Vec<u64>,
    /// `(end, latency)` of every attempted op in completion order,
    /// nanoseconds; `end` counts from when the first op was issued.
    pub completions: Vec<(u64, u64)>,
    /// Ops that errored, were refused or failed verification.
    pub failed: u64,
    /// Open loop only: sends that started more than one period late.
    pub late: u64,
    pub wall: Duration,
    pub cpu_s: f64,
    pub spans: Vec<ClientSpan>,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.samples_ns.len() as u64
    }
}

/// Runs `op` on a fresh connection until `limit`. `op` is given the client
/// and the op's index and performs one call through [`timed`], which stamps
/// the end of the call before verifying its result.
///
/// With `tracer`, every op is stamped with a trace id (`trace_base` plus its
/// index) and its client span recorded.
///
/// The client gets a thread of its own. On the main thread glibc serves the
/// 1 MiB reply buffers from the brk heap, which it trims and regrows: half a
/// millisecond of page faults per GET that a client on any other thread
/// does not pay (1,555 against 1,034 us on `get_large_degraded`).
pub fn drive(
    served: &Served,
    limit: Limit,
    pacing: Pacing,
    tracer: Option<(&Tracer, u64)>,
    op: impl FnMut(&mut Client, usize) -> OpResult + Send,
) -> Pass {
    std::thread::scope(|scope| {
        scope
            .spawn(|| drive_here(served, limit, pacing, tracer, op))
            .join()
            .expect("client thread")
    })
}

fn drive_here(
    served: &Served,
    limit: Limit,
    pacing: Pacing,
    tracer: Option<(&Tracer, u64)>,
    mut op: impl FnMut(&mut Client, usize) -> OpResult,
) -> Pass {
    let (max_ops, run_for) = match limit {
        Limit::Ops(n) => (n, None),
        Limit::For(d) => (usize::MAX, Some(d)),
    };
    // Room for the samples of a timed pass at 40,000 ops/s.
    let expected_ops = match limit {
        Limit::Ops(n) => n,
        Limit::For(d) => (d.as_secs_f64() * 40_000.0) as usize,
    };
    let period = match pacing {
        Pacing::Closed => Duration::ZERO,
        Pacing::Open { rate } => Duration::from_secs_f64(1.0 / rate as f64),
    };
    let mut client = served.connect();
    // The acceptor polls for new connections every `poll_interval_ms`
    // (50 ms), so the first reply on a fresh connection waits up to that
    // long. One untimed PING keeps connection establishment out of the pass.
    client.ping().expect("PING on a fresh connection");
    let mut completions = Vec::with_capacity(expected_ops);
    let mut spans = Vec::with_capacity(if tracer.is_some() { expected_ops } else { 0 });
    let (mut failed, mut late) = (0, 0);
    let cpu_before = crate::env::cpu_seconds();
    let started = Instant::now();
    for i in 0..max_ops {
        let mut clock_from = Instant::now();
        if run_for.is_some_and(|d| clock_from.duration_since(started) >= d) {
            break;
        }
        if let Pacing::Open { .. } = pacing {
            let due = started + period * i as u32;
            if let Some(wait) = due.checked_duration_since(clock_from) {
                std::thread::sleep(wait);
            } else if clock_from.duration_since(due) > period {
                late += 1;
            }
            clock_from = due;
        }
        let span_start = tracer.map(|(t, base)| {
            let id = base + i as u64;
            client.set_trace_id(Some(id));
            (id, t.now_us(), Instant::now())
        });
        let result = op(&mut client, i);
        let done = result.call_ended;
        // The client span ends where the latency sample does: when the
        // call returned, before verification.
        if let Some((trace_id, start_us, span_started)) = span_start {
            spans.push(ClientSpan {
                trace_id,
                start_us,
                end_us: start_us + done.duration_since(span_started).as_micros() as u64,
            });
        }
        completions.push((
            done.duration_since(started).as_nanos() as u64,
            done.duration_since(clock_from).as_nanos() as u64,
        ));
        failed += u64::from(!result.ok);
    }
    let wall = started.elapsed();
    let cpu_s = crate::env::cpu_seconds() - cpu_before;
    let mut samples_ns: Vec<u64> = completions.iter().map(|c| c.1).collect();
    samples_ns.sort_unstable();
    Pass {
        samples_ns,
        completions,
        failed,
        late,
        wall,
        cpu_s,
        spans,
    }
}

/// Outcome of one op: when the call returned (verification comes after and
/// is not part of the latency) and whether it succeeded and verified.
pub struct OpResult {
    pub call_ended: Instant,
    pub ok: bool,
}

/// Performs `call`, stamps its end, then runs `verify` on its value outside
/// the timed span. An `Err` — BUSY included — is a failed op.
pub fn timed<T, E>(
    call: impl FnOnce() -> Result<T, E>,
    verify: impl FnOnce(T) -> bool,
) -> OpResult {
    let result = call();
    let call_ended = Instant::now();
    OpResult {
        call_ended,
        ok: result.is_ok_and(verify),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_a_refusal_and_a_failed_check_are_all_failed_ops() {
        use tornado_server::ClientError;
        assert!(timed(|| Ok::<_, ClientError>(3), |v| v == 3).ok);
        assert!(
            !timed(|| Ok::<_, ClientError>(3), |v| v == 4).ok,
            "a reply that fails verification"
        );
        assert!(
            !timed(|| Err::<u32, _>(ClientError::Busy), |_| true).ok,
            "BUSY counts as failed"
        );
        assert!(!timed(|| Err::<u32, _>(ClientError::NotFound(9)), |_| true).ok);
    }

    #[test]
    fn a_pass_counts_every_attempt_and_keeps_samples_sorted() {
        let store = Arc::new(ArchivalStore::new(tornado_core::tornado_graph_1()));
        let id = store.put("x", &[7u8; 512]).unwrap();
        let served = Served::start(store, false);
        // Every second op asks for an object that does not exist.
        let pass = drive(
            &served,
            Limit::Ops(30),
            Pacing::Closed,
            None,
            |client, i| {
                timed(
                    || client.get(id + 1_000 * (i as u64 % 2)),
                    |p| p.len() == 512,
                )
            },
        );
        assert_eq!((pass.attempted(), pass.failed), (30, 15));
        assert!(pass.samples_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(pass.completions.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(pass.completions[0].0 >= pass.completions[0].1);
        assert!(pass.spans.is_empty() && pass.late == 0);
        let timed_pass = drive(
            &served,
            Limit::For(Duration::from_millis(20)),
            Pacing::Closed,
            None,
            |client, _i| timed(|| client.get(id), |p| p.len() == 512),
        );
        assert!(timed_pass.attempted() > 0 && timed_pass.failed == 0);
        assert!(
            timed_pass.wall >= Duration::from_millis(20)
                && timed_pass.wall < Duration::from_millis(200),
            "a timed pass lasts its limit and one op more"
        );
        let metrics = served.metrics();
        assert_eq!(counter(&metrics, "server.get"), 30 + timed_pass.attempted());
        assert_eq!(counter(&metrics, "server.not_found"), 15);
        served.stop();
    }
}
