//! Shared CLI observability wiring.
//!
//! Every long-running command accepts the same four flags and routes them
//! through a `CliObs`:
//!
//! * `--progress` — throttled progress lines (rate + ETA) on stderr;
//! * `--metrics PATH` — write a point-in-time metrics snapshot (JSON) on
//!   completion, and turn decode-kernel recording on;
//! * `--log-json` — structured JSON-lines events on stderr instead of the
//!   default human-readable status lines;
//! * `--quiet` — suppress status and progress entirely (data output on
//!   stdout is unaffected).
//!
//! Status lines and events share one sink, so `--quiet` and `--log-json`
//! behave identically across commands instead of each command hand-rolling
//! `eprintln!`.

use crate::args::ParsedArgs;
use std::sync::Arc;
use std::time::Instant;
use tornado_codec::DecodeMetrics;
use tornado_obs::{EventFormat, EventSink, Json, ProgressConfig, Snapshot};
use tornado_sim::SimObserver;

/// The flags [`CliObs::from_args`] reads.
pub(crate) const OBS_FLAGS: &[&str] = &["progress", "metrics", "log-json", "quiet"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventMode {
    Disabled,
    Human,
    Json,
}

/// Per-invocation observability context, parsed from the common flags.
pub(crate) struct CliObs {
    progress_on: bool,
    event_mode: EventMode,
    metrics_path: Option<String>,
    started: Instant,
    /// Decode-kernel counter aggregate, filled when `--metrics` is given.
    pub(crate) decode_metrics: Arc<DecodeMetrics>,
}

impl CliObs {
    /// Reads `--progress`, `--metrics`, `--log-json`, `--quiet`.
    pub(crate) fn from_args(args: &ParsedArgs) -> Self {
        let quiet = args.flag("quiet");
        let event_mode = if quiet {
            EventMode::Disabled
        } else if args.flag("log-json") {
            EventMode::Json
        } else {
            EventMode::Human
        };
        Self {
            progress_on: args.flag("progress") && !quiet,
            event_mode,
            metrics_path: args.get("metrics").map(str::to_string),
            started: Instant::now(),
            decode_metrics: Arc::new(DecodeMetrics::new()),
        }
    }

    /// Progress factory honouring `--progress`/`--quiet`.
    pub(crate) fn progress(&self) -> ProgressConfig {
        if self.progress_on {
            ProgressConfig::stderr()
        } else {
            ProgressConfig::silent()
        }
    }

    /// A fresh event sink honouring `--log-json`/`--quiet`. Sinks write to
    /// stderr and hold no state, so each consumer gets its own.
    pub(crate) fn events(&self) -> EventSink {
        match self.event_mode {
            EventMode::Disabled => EventSink::disabled(),
            EventMode::Human => EventSink::stderr(EventFormat::Human),
            EventMode::Json => EventSink::stderr(EventFormat::Json),
        }
    }

    /// Emits one status event (the structured replacement for ad-hoc
    /// `eprintln!` status lines).
    pub(crate) fn status(&self, event: &str, fields: &[(&str, Json)]) {
        self.events().emit(event, fields);
    }

    /// Builds a simulator observer: progress + events always, decode-kernel
    /// metrics when `--metrics` was given.
    pub(crate) fn sim_observer(&self) -> SimObserver {
        let mut obs = SimObserver::disabled()
            .with_progress(self.progress())
            .with_events(self.events());
        if self.metrics_path.is_some() {
            obs = obs.with_metrics(self.decode_metrics.clone());
        }
        obs
    }

    /// Writes the metrics snapshot if `--metrics` was given. `extra` adds
    /// command-specific context (graph identity, per-level rows, store
    /// gauges) on top of the decode-kernel counters.
    pub(crate) fn write_metrics(
        &self,
        command: &str,
        extra: impl FnOnce(&mut Snapshot),
    ) -> Result<(), String> {
        let Some(path) = &self.metrics_path else {
            return Ok(());
        };
        let mut snap = Snapshot::new(command, self.started.elapsed().as_millis() as u64);
        snap.record(&*self.decode_metrics);
        extra(&mut snap);
        snap.write(path).map_err(|e| format!("{path}: {e}"))?;
        self.status("metrics_written", &[("path", Json::Str(path.clone()))]);
        Ok(())
    }
}
