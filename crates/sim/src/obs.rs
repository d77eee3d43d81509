//! Observability hooks for the fault-tolerance simulator.
//!
//! A [`SimObserver`] bundles everything a long sweep can report through:
//! a progress-reporter factory (progress with rate and ETA per search
//! level or per sampling pass), a structured event sink (one event per
//! completed level) and a shared [`DecodeMetrics`] aggregate that turns
//! kernel recording on in every worker decoder. The default observer is
//! fully disabled and the observed entry points with a disabled observer
//! behave exactly like the plain ones — same counts, same collected sets,
//! same determinism across thread counts — because workers drain their
//! recorder cells at range or lane-group boundaries and summation
//! commutes.

use std::sync::Arc;
use tornado_codec::DecodeMetrics;
use tornado_obs::{EventSink, ProgressConfig};

/// Observability bundle threaded through the simulator's observed entry
/// points ([`crate::worst_case::search_level_observed`],
/// [`crate::monte_carlo::sample_levels_observed`]).
pub struct SimObserver {
    /// Factory for progress reporters, one per search level or sampling
    /// pass (silent by default).
    pub progress: ProgressConfig,
    /// Structured event sink (disabled by default).
    pub events: EventSink,
    /// Decode-kernel counter aggregate. `Some` switches kernel recording on
    /// in every worker decoder; cells are drained into it at range or
    /// lane-group boundaries.
    pub metrics: Option<Arc<DecodeMetrics>>,
}

impl SimObserver {
    /// An observer that reports nothing and records nothing.
    pub fn disabled() -> Self {
        Self {
            progress: ProgressConfig::silent(),
            events: EventSink::disabled(),
            metrics: None,
        }
    }

    /// Replaces the progress factory.
    pub fn with_progress(mut self, progress: ProgressConfig) -> Self {
        self.progress = progress;
        self
    }

    /// Replaces the event sink.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Attaches a decode-kernel metrics aggregate (turns recording on).
    pub fn with_metrics(mut self, metrics: Arc<DecodeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}
