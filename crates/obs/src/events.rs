//! Structured event stream: JSON-lines, human-readable, or off.
//!
//! One sink serves every command verbosity mode consistently:
//! `--log-json` → one JSON object per line (machine-tailable),
//! default → `event key=value …` lines for humans,
//! `--quiet` → nothing. Events go to stderr by default so stdout stays a
//! clean data channel (reports, GraphML, CSV), matching the existing CLI
//! convention.

use crate::clock::{Clock, MonotonicClock};
use crate::json::Json;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Rendering style for emitted events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventFormat {
    /// One compact JSON object per line: `{"ts_ms": 12, "event": "…", …}`.
    Json,
    /// `event key=value key=value` lines.
    Human,
}

enum Target {
    Stderr,
    Memory(Arc<Mutex<Vec<String>>>),
}

/// A structured event sink. Cheap to share by reference; disabled sinks
/// cost one branch per emit.
pub struct EventSink {
    target: Option<Target>,
    format: EventFormat,
    clock: Arc<dyn Clock>,
}

impl EventSink {
    /// A sink that drops everything.
    pub fn disabled() -> Self {
        Self {
            target: None,
            format: EventFormat::Human,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Events to stderr in the given format.
    pub fn stderr(format: EventFormat) -> Self {
        Self {
            target: Some(Target::Stderr),
            format,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Collects rendered lines in memory (tests).
    pub fn memory(format: EventFormat) -> (Self, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                target: Some(Target::Memory(buf.clone())),
                format,
                clock: Arc::new(MonotonicClock::new()),
            },
            buf,
        )
    }

    /// Replaces the timestamp source (tests).
    #[cfg(test)]
    pub(crate) fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Whether emits go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.target.is_some()
    }

    /// Emits one event with ordered fields.
    pub fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        let Some(target) = &self.target else {
            return;
        };
        let line = match self.format {
            EventFormat::Json => {
                let mut obj: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 2);
                obj.push((
                    "ts_ms".into(),
                    Json::U64(self.clock.now_nanos() / 1_000_000),
                ));
                obj.push(("event".into(), Json::Str(event.into())));
                obj.extend(fields.iter().map(|(k, v)| ((*k).into(), v.clone())));
                Json::Obj(obj).to_line()
            }
            EventFormat::Human => {
                let mut line = String::from(event);
                for (k, v) in fields {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    match v {
                        Json::Str(s) => line.push_str(s),
                        other => line.push_str(&other.to_line()),
                    }
                }
                line
            }
        };
        match target {
            Target::Stderr => {
                let _ = writeln!(std::io::stderr().lock(), "{line}");
            }
            Target::Memory(buf) => buf.lock().unwrap().push(line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::json::parse;

    #[test]
    fn json_lines_parse_and_carry_fields() {
        let clock = Arc::new(ManualClock::new());
        clock.advance_millis(1234);
        let (sink, buf) = EventSink::memory(EventFormat::Json);
        let sink = sink.with_clock(clock);
        sink.emit(
            "worst_case_level",
            &[("k", Json::U64(4)), ("failures", Json::U64(0))],
        );
        let lines = buf.lock().unwrap();
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("ts_ms").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("event").unwrap().as_str(), Some("worst_case_level"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn human_format_is_key_value_text() {
        let (sink, buf) = EventSink::memory(EventFormat::Human);
        sink.emit(
            "graph_generated",
            &[
                ("family", Json::Str("tornado".into())),
                ("nodes", Json::U64(96)),
            ],
        );
        assert_eq!(
            buf.lock().unwrap()[0],
            "graph_generated family=tornado nodes=96"
        );
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit("anything", &[("k", Json::U64(1))]); // must not panic
    }
}
