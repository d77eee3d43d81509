//! Server configuration.

use tornado_obs::slo::{standard_windows, BurnWindow};

/// The durability observatory's deployment assumptions and policy
/// ([`crate::health::HealthModel`]). How the model samples and how deep
/// it searches are constants: [`crate::health::CONDITIONAL`] and
/// `crate::health::MARGIN_CAP`.
#[derive(Clone, Debug)]
pub struct HealthConfig {
    /// Master switch; off skips model construction entirely.
    pub enabled: bool,
    /// Annualized per-device failure rate fed into Eq. 2–3.
    pub afr: f64,
    /// Horizon the published P(loss) covers, in hours.
    pub horizon_hours: f64,
    /// Error budget for degraded reads: allowed fraction of GETs served
    /// through the decoder.
    pub degraded_read_objective: f64,
    /// Error budget for scrub corruption: allowed fraction of scrubbed
    /// stripes found damaged.
    pub corruption_objective: f64,
    /// Burn-rate window pairs shared by both SLOs (CI shrinks these to
    /// seconds so an alert can fire inside a smoke test).
    pub slo_windows: Vec<BurnWindow>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            afr: 0.029, // the paper's Table 5 disk AFR
            horizon_hours: 24.0 * 365.0,
            degraded_read_objective: 0.05,
            corruption_objective: 0.01,
            slo_windows: standard_windows(),
        }
    }
}

/// Tunables for one [`crate::server::serve`] instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7401`; port 0 picks an ephemeral
    /// port (read it back from [`crate::server::ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue depth: requests beyond this are rejected with BUSY
    /// (explicit backpressure, never unbounded buffering).
    pub queue_depth: usize,
    /// Unread: the observer's tracer decides what is sampled
    /// ([`crate::ServerObserver::with_tracer`]). Kept only because the
    /// benchmark harness sets it; it goes in the next benchmark revision.
    pub trace_sample: u64,
    /// Emit a `server.slow_request` event (with the full span tree when
    /// the request was sampled) for any request slower than this many
    /// microseconds; 0 disables.
    pub slow_request_us: u64,
    /// Interval between time-series counter samples in milliseconds;
    /// 0 disables the sampler thread, the health model's clock, which
    /// [`crate::server::serve`] refuses while `health.enabled`.
    pub timeseries_interval_ms: u64,
    /// Event-loop shards (each one thread owning a slab of connections).
    pub shards: usize,
    /// Per-connection cap on requests in flight; past it the shard stops
    /// extracting frames until completions free capacity.
    pub max_inflight_per_conn: usize,
    /// Durability-observatory settings (live P(loss), margins, SLOs).
    pub health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            trace_sample: 0,
            slow_request_us: 0,
            timeseries_interval_ms: 500,
            shards: 2,
            max_inflight_per_conn: 64,
            health: HealthConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= 1);
        assert_eq!(c.trace_sample, 0, "tracing is opt-in");
        assert!(c.timeseries_interval_ms >= 1);
        assert!(c.shards >= 1);
        assert!(c.max_inflight_per_conn >= 1);
        let h = &c.health;
        assert!(h.enabled, "the observatory is on by default");
        assert!(h.afr > 0.0 && h.afr < 1.0);
        assert!(h.horizon_hours > 0.0);
        assert!(h.degraded_read_objective > 0.0 && h.corruption_objective > 0.0);
        assert_eq!(h.slo_windows.len(), 2, "fast + slow pairs");
    }
}
