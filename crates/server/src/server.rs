//! The TCP archival block service.
//!
//! [`serve`] binds a listener and returns a [`ServerHandle`]; the
//! acceptor, the connection shards and the engine's worker pool all run in
//! the background. One acceptor thread waits on the listener and hands
//! each new connection, round-robin, to a [`crate::shard`] event loop —
//! nonblocking readiness polling, incremental frame reassembly, pipelined
//! dispatch, batched writes.
//!
//! Every stage polls a shared shutdown flag at its natural boundary — the
//! acceptor between accepts, shards between wakeups, workers between jobs
//! — so a SHUTDOWN op (or [`ServerHandle::shutdown`]) drains cleanly:
//! in-flight requests finish, new frames are answered SHUTTING_DOWN,
//! queued jobs execute, and [`ServerHandle::join`] returns only after
//! every thread has exited.

use crate::config::ServerConfig;
use crate::engine::Engine;
use crate::obs::{LoopStats, ServerObserver};
use crate::reactor::{Interest, Poller};
use crate::shard::{run_shard, ShardContext, ShardMailbox};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tornado_obs::Json;
use tornado_store::ArchivalStore;

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Shard mailboxes, kicked on shutdown so event loops react
    /// immediately instead of waiting out their poll timeout.
    mailboxes: Vec<Arc<ShardMailbox>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.kick();
        }
    }

    /// True once a shutdown has been requested (SHUTDOWN op, SIGTERM
    /// watcher, or [`ServerHandle::shutdown`]); drain may still be in
    /// progress. Lets a supervising loop poll for exit without consuming
    /// the handle.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server has fully drained and every thread exited.
    /// Call [`ServerHandle::shutdown`] first (or send the SHUTDOWN op).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `config.addr` and serves `store` until shut down: spawns
/// `config.shards` shard threads, the worker pool, and one acceptor that
/// distributes connections round-robin by mailbox.
pub fn serve(
    config: ServerConfig,
    store: Arc<ArchivalStore>,
    obs: Arc<ServerObserver>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // The acceptor waits for the listener to become readable instead of
    // sleeping between polls, so a new connection is adopted at once; the
    // wait's timeout only bounds how stale its view of the shutdown flag
    // can get.
    let accept_poller = Poller::new()?;
    accept_poller.register(&listener, 0, Interest::READ)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    // A scrubber run over the served store records into the server's
    // scrub.* / repair.* cells, which the observatory's corruption SLO reads.
    store.set_observer(Arc::clone(&obs.store_obs));
    if config.health.enabled {
        // First server wins the slot if one observer is shared (unusual);
        // the model itself is per-config.
        let _ = obs
            .health
            .set(Arc::new(crate::health::HealthModel::new(config.health.clone())));
    }
    let engine = Arc::new(Engine::start(
        Arc::clone(&store),
        Arc::clone(&obs),
        started,
        config.workers,
        config.queue_depth,
    ));
    let nshards = config.shards.max(1);
    obs.events.emit(
        "server.start",
        &[
            ("addr", Json::Str(addr.to_string())),
            ("workers", Json::U64(config.workers as u64)),
            ("queue_depth", Json::U64(config.queue_depth as u64)),
            ("shards", Json::U64(nshards as u64)),
        ],
    );

    let mut mailboxes = Vec::with_capacity(nshards);
    let mut all_stats = Vec::with_capacity(nshards);
    let mut shard_threads = Vec::with_capacity(nshards);
    for i in 0..nshards {
        let mailbox = ShardMailbox::new();
        let stats = Arc::new(LoopStats::new());
        let ctx = ShardContext {
            dispatcher: Arc::clone(&engine),
            obs: Arc::clone(&obs),
            stats: Arc::clone(&stats),
            mailbox: Arc::clone(&mailbox),
            shutdown: Arc::clone(&shutdown),
            default_deadline_ms: config.default_deadline_ms,
            slow_request_us: config.slow_request_us,
            poll_interval_ms: config.poll_interval_ms,
            max_inflight_per_conn: config.max_inflight_per_conn.max(1),
        };
        shard_threads.push(
            thread::Builder::new()
                .name(format!("tornado-shard-{i}"))
                .spawn(move || run_shard(ctx))?,
        );
        mailboxes.push(mailbox);
        all_stats.push(stats);
    }
    let _ = obs.loop_shards.set(all_stats);

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let obs = Arc::clone(&obs);
        let mailboxes = mailboxes.clone();
        thread::Builder::new().name("tornado-accept".into()).spawn(move || {
            let sampler = spawn_sampler(&config, &shutdown, &obs, &store, started);
            let poll = Duration::from_millis(config.poll_interval_ms.max(1));
            let mut events = Vec::new();
            let mut next = 0usize;
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        obs.connections_opened.inc();
                        mailboxes[next].adopt(stream);
                        next = (next + 1) % mailboxes.len();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        let _ = accept_poller.wait(&mut events, Some(poll));
                        events.clear();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // e.g. out of descriptors: the listener stays readable,
                    // so back off rather than spin on the poller.
                    Err(_) => thread::sleep(poll),
                }
            }
            // Drain: wake every shard so it starts answering buffered
            // frames SHUTTING_DOWN and finishing in-flight work, then join
            // them, the sampler, and finally the worker pool.
            for mb in &mailboxes {
                mb.kick();
            }
            for t in shard_threads {
                let _ = t.join();
            }
            if let Some(s) = sampler {
                let _ = s.join();
            }
            Arc::try_unwrap(engine)
                .unwrap_or_else(|_| unreachable!("all shard dispatchers joined"))
                .shutdown();
            obs.events.emit("server.stop", &[]);
            // Shutdown is the one moment buffered file events must hit disk.
            obs.events.flush();
        })?
    };

    Ok(ServerHandle { addr, shutdown, accept_thread: Some(accept_thread), mailboxes })
}

/// Spawns the periodic time-series sampler: cumulative counters every
/// interval, so METRICS consumers can compute windowed rates. Doubles as
/// the durability observatory's clock.
fn spawn_sampler(
    config: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
    obs: &Arc<ServerObserver>,
    store: &Arc<ArchivalStore>,
    started: Instant,
) -> Option<JoinHandle<()>> {
    (config.timeseries_interval_ms > 0).then(|| {
        let shutdown = Arc::clone(shutdown);
        let obs = Arc::clone(obs);
        let store = Arc::clone(store);
        let interval = Duration::from_millis(config.timeseries_interval_ms);
        thread::Builder::new()
            .name("tornado-timeseries".into())
            .spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    let now_ms = started.elapsed().as_millis() as u64;
                    obs.sample_timeseries(&store, now_ms);
                    // The sampler doubles as the observatory's clock: the
                    // same cadence feeds SLO burn windows and triggers
                    // (rate-limited) model recomputes on fleet changes.
                    if let Some(model) = obs.health.get() {
                        model.tick(&store, &obs, now_ms);
                    }
                    // Sleep in short slices so shutdown is prompt even at
                    // long sampling intervals.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !shutdown.load(Ordering::SeqCst) {
                        let slice = (interval - slept).min(Duration::from_millis(50));
                        thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("spawn timeseries sampler")
    })
}
