//! The TCP archival block service.
//!
//! [`serve`] binds a listener and returns a [`ServerHandle`]; the
//! acceptor, the connection shards and the engine's worker pool all run in
//! the background. One acceptor thread waits on the listener and hands
//! each new connection, round-robin, to a [`crate::shard`] event loop —
//! nonblocking readiness polling, incremental frame reassembly, pipelined
//! dispatch, batched writes.
//!
//! No thread polls. A SHUTDOWN op and [`ServerHandle::shutdown`] both
//! raise one signal that wakes every thread at once, and the server drains:
//! in-flight requests finish, new frames are answered SHUTTING_DOWN, queued
//! jobs execute, and [`ServerHandle::join`] returns only after every thread
//! has exited.

use crate::config::ServerConfig;
use crate::engine::Engine;
use crate::obs::{LoopStats, ServerObserver};
use crate::reactor::{Interest, Poller, Waker};
use crate::shard::{run_shard, ShardContext, ShardMailbox};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tornado_obs::Json;
use tornado_store::ArchivalStore;

/// The acceptor's wait after a failed accept (EMFILE and the like): the
/// listener stays readable, and nothing announces a descriptor freed.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The server's one shutdown event. Raising it sets the flag every thread
/// checks and wakes every thread that sleeps: each shard through its
/// mailbox, the acceptor through a [`Waker`] on its poller, the sampler
/// through a condvar.
pub(crate) struct Shutdown {
    raised: AtomicBool,
    shards: Vec<Arc<ShardMailbox>>,
    acceptor: Waker,
    /// `raise` notifies under the lock, so it cannot fall between the
    /// sampler's check of the flag and its wait.
    sampler: (Mutex<()>, Condvar),
}

impl Shutdown {
    pub(crate) fn new(shards: Vec<Arc<ShardMailbox>>, acceptor: Waker) -> Arc<Self> {
        Arc::new(Self {
            raised: AtomicBool::new(false),
            shards,
            acceptor,
            sampler: Default::default(),
        })
    }

    /// Whether shutdown has been raised.
    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the signal and wakes every thread that sleeps.
    pub(crate) fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        for mailbox in &self.shards {
            mailbox.kick();
        }
        self.acceptor.wake();
        let _held = self.sampler.0.lock();
        self.sampler.1.notify_all();
    }

    /// Sleeps for `timeout` or until the signal is raised.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let (lock, woken) = &self.sampler;
        let held = lock.lock().expect("shutdown lock");
        let _ = woken.wait_timeout_while(held, timeout, |_| !self.is_raised());
    }
}

/// Hands each connection `listener` accepts to `adopt` until shutdown,
/// asleep on `poller` (the listener and the acceptor [`Waker`]) meanwhile.
pub(crate) fn accept_until_shutdown(
    listener: &TcpListener,
    poller: &Poller,
    shutdown: &Shutdown,
    mut adopt: impl FnMut(TcpStream),
) {
    let mut events = Vec::new();
    while !shutdown.is_raised() {
        match listener.accept() {
            Ok((stream, _peer)) => adopt(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let _ = poller.wait(&mut events, None);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.shutdown.raise();
    }

    /// True once a shutdown has been requested (SHUTDOWN op, SIGTERM
    /// watcher, or [`ServerHandle::shutdown`]); drain may still be in
    /// progress. Lets a supervising loop poll for exit without consuming
    /// the handle.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.is_raised()
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
///
/// Refuses ([`io::ErrorKind::InvalidInput`]) `config.health.enabled` with
/// `config.timeseries_interval_ms` 0: the model's clock would never run.
pub fn serve(
    config: ServerConfig,
    store: Arc<ArchivalStore>,
    obs: Arc<ServerObserver>,
) -> io::Result<ServerHandle> {
    if config.health.enabled && config.timeseries_interval_ms == 0 {
        let clockless = "health.enabled needs the sampler, its clock: timeseries_interval_ms is 0";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, clockless));
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let accept_poller = Poller::new()?;
    accept_poller.register(&listener, 0, Interest::READ)?;
    let nshards = config.shards.max(1);
    let (pollers, mailboxes): (Vec<_>, Vec<_>) = (0..nshards)
        .map(|_| ShardMailbox::new())
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    let shutdown = Shutdown::new(mailboxes.clone(), Waker::new(&accept_poller, 1)?);
    let started = Instant::now();
    // A scrubber run over the served store records into the server's
    // scrub.* / repair.* cells, which the observatory's corruption SLO reads.
    store.set_observer(Arc::clone(&obs.store_obs));
    if config.health.enabled {
        // First server wins the slot if one observer is shared (unusual);
        // the model itself is per-config.
        let _ = obs.health.set(Arc::new(crate::health::HealthModel::new(
            config.health.clone(),
        )));
    }
    let engine = Arc::new(Engine::start(
        Arc::clone(&store),
        Arc::clone(&obs),
        started,
        config.workers,
        config.queue_depth,
    ));
    obs.events.emit(
        "server.start",
        &[
            ("addr", Json::Str(addr.to_string())),
            ("workers", Json::U64(config.workers as u64)),
            ("queue_depth", Json::U64(config.queue_depth as u64)),
            ("shards", Json::U64(nshards as u64)),
        ],
    );

    let mut all_stats = Vec::with_capacity(nshards);
    let mut shard_threads = Vec::with_capacity(nshards);
    for (i, (poller, mailbox)) in pollers.into_iter().zip(&mailboxes).enumerate() {
        let stats = Arc::new(LoopStats::new());
        let ctx = ShardContext {
            dispatcher: Arc::clone(&engine),
            obs: Arc::clone(&obs),
            stats: Arc::clone(&stats),
            mailbox: Arc::clone(mailbox),
            shutdown: Arc::clone(&shutdown),
            slow_request_us: config.slow_request_us,
            max_inflight_per_conn: config.max_inflight_per_conn.max(1),
        };
        shard_threads.push(
            thread::Builder::new()
                .name(format!("tornado-shard-{i}"))
                .spawn(move || run_shard(poller, ctx))?,
        );
        all_stats.push(stats);
    }
    let _ = obs.loop_shards.set(all_stats);

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let obs = Arc::clone(&obs);
        thread::Builder::new()
            .name("tornado-accept".into())
            .spawn(move || {
                let sampler = spawn_sampler(&config, &shutdown, &obs, &store, started);
                let mut next = 0usize;
                accept_until_shutdown(&listener, &accept_poller, &shutdown, |stream| {
                    obs.connections_opened.inc();
                    mailboxes[next].adopt(stream);
                    next = (next + 1) % mailboxes.len();
                });
                // Drain: the raise woke every shard, which answers buffered
                // frames SHUTTING_DOWN and finishes in-flight work; join
                // them, the sampler, and finally the worker pool.
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
            })?
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Spawns the periodic time-series sampler: cumulative counters every
/// interval, so METRICS consumers can compute windowed rates. Doubles as
/// the durability observatory's clock.
fn spawn_sampler(
    config: &ServerConfig,
    shutdown: &Arc<Shutdown>,
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
                while !shutdown.is_raised() {
                    let now_ms = started.elapsed().as_millis() as u64;
                    obs.sample_timeseries(&store, now_ms);
                    // The sampler doubles as the observatory's clock: the
                    // same cadence feeds SLO burn windows and renders the
                    // document METRICS embeds.
                    if let Some(model) = obs.health.get() {
                        model.tick(&store, &obs, now_ms);
                    }
                    shutdown.wait_timeout(interval);
                }
            })
            .expect("spawn timeseries sampler")
    })
}
