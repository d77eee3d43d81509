//! Archival workload generation and replay.
//!
//! The paper's motivating deployment is MAID (§2.2): most disks are spun
//! down, and the dominant operating cost of a read is how many devices it
//! powers on. This module generates archival-shaped workloads (bulk
//! ingest, Zipf-ish retrievals, occasional device failures) and replays
//! them against an [`ArchivalStore`], accounting for device activations —
//! the metric the guided retrieval planner is designed to minimise.

use crate::device::DeviceStats;
use crate::error::StoreError;
use crate::store::{ArchivalStore, ObjectId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One workload event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Ingest an object of the given size (bytes).
    Put {
        /// Payload size.
        size: usize,
    },
    /// Retrieve the `i`-th previously ingested object (by ingest order).
    Get {
        /// Index into the ingest history.
        object: usize,
    },
    /// Fail a device.
    FailDevice {
        /// Device index.
        device: usize,
    },
    /// Replace a failed device (empty) and run a repair scrub.
    ReplaceAndScrub {
        /// Device index.
        device: usize,
    },
}

/// Smallest and largest object size, bytes.
const SIZE_RANGE: (usize, usize) = (1_000, 50_000);

/// Probability that a read re-reads the popular head (the first three
/// objects) instead of a uniformly chosen one.
const SKEW: f64 = 0.5;

/// Device failures injected across the run; each failed device is replaced
/// (and its stripes scrubbed) soon after.
const FAILURES: usize = 3;

/// Parameters of the synthetic archival workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of ingest events.
    pub objects: usize,
    /// Number of retrieval events.
    pub reads: usize,
    /// Seed.
    pub seed: u64,
}

/// Generates a deterministic event sequence from the configuration: the
/// ingests (1–50 kB each), then the reads (half of them skewed to the
/// first three objects), with three device failures interleaved, each
/// followed by its replacement and a repair scrub.
pub fn generate_events(cfg: &WorkloadConfig, devices: usize) -> Vec<Event> {
    assert!(cfg.objects > 0, "need at least one object");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    // Bulk ingest first (archives are written once).
    for _ in 0..cfg.objects {
        events.push(Event::Put {
            size: rng.gen_range(SIZE_RANGE.0..=SIZE_RANGE.1),
        });
    }
    // Retrievals with popularity skew.
    for _ in 0..cfg.reads {
        let object = if rng.gen_bool(SKEW) {
            // Popular head: the first few objects.
            rng.gen_range(0..cfg.objects.min(3))
        } else {
            rng.gen_range(0..cfg.objects)
        };
        events.push(Event::Get { object });
    }
    // Interleave failures and repairs at deterministic offsets.
    for f in 0..FAILURES {
        let device = rng.gen_range(0..devices);
        let at = cfg.objects + (f + 1) * cfg.reads / (FAILURES + 1);
        events.insert(at.min(events.len()), Event::FailDevice { device });
        let repair_at = (at + cfg.reads / (FAILURES + 1) / 2).min(events.len());
        events.insert(repair_at, Event::ReplaceAndScrub { device });
    }
    events
}

/// How one replayed event went (index-aligned with the event list).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventOutcome {
    /// The event completed normally.
    Ok,
    /// A retrieval found its object unrecoverable (a *degraded* outcome,
    /// expected under heavy failure injection, not a replay defect).
    Unrecoverable,
    /// The store rejected the event (error text preserved); the replay
    /// carried on with the next event.
    Failed(String),
}

/// Outcome of replaying a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayReport {
    /// Successful retrievals.
    pub reads_ok: u64,
    /// Retrievals that failed (object unrecoverable at that moment).
    pub reads_failed: u64,
    /// Non-read events (puts, admin) the store rejected mid-replay.
    pub events_failed: u64,
    /// Total blocks fetched across successful reads.
    pub blocks_fetched: u64,
    /// Blocks fetched by a naive reader (whole healthy stripe) for the
    /// same reads — the savings baseline.
    pub blocks_naive: u64,
    /// Blocks re-encoded by scrubs.
    pub blocks_repaired: u64,
    /// Bytes ingested.
    pub bytes_ingested: u64,
    /// Bytes served.
    pub bytes_served: u64,
    /// Per-event outcomes, index-aligned with the replayed event list —
    /// a mid-replay failure shows up here as a degraded entry instead of
    /// aborting the run.
    pub outcomes: Vec<EventOutcome>,
}

impl ReplayReport {
    /// Fraction of device activations saved versus the naive reader.
    pub fn activation_savings(&self) -> f64 {
        if self.blocks_naive == 0 {
            0.0
        } else {
            1.0 - self.blocks_fetched as f64 / self.blocks_naive as f64
        }
    }
}

/// Replays events against the store, never aborting mid-run: each event's
/// result lands in [`ReplayReport::outcomes`], so a failure-heavy workload
/// produces a degraded report instead of an early return.
pub fn replay(store: &ArchivalStore, events: &[Event]) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut ingested: Vec<ObjectId> = Vec::new();
    let mut fill = 0u8;
    for event in events {
        let outcome = match *event {
            Event::Put { size } => {
                fill = fill.wrapping_add(37);
                let payload = vec![fill; size];
                match store.put(&format!("obj-{}", ingested.len()), &payload) {
                    Ok(id) => {
                        ingested.push(id);
                        report.bytes_ingested += size as u64;
                        EventOutcome::Ok
                    }
                    Err(e) => EventOutcome::Failed(e.to_string()),
                }
            }
            Event::Get { object } if ingested.is_empty() => {
                EventOutcome::Failed(format!("get {object} before any successful put"))
            }
            Event::Get { object } => {
                let id = ingested[object % ingested.len()];
                match store.get_detailed(id) {
                    Ok((payload, stats)) => {
                        report.reads_ok += 1;
                        report.blocks_fetched += stats.blocks_fetched as u64;
                        // Naive reader: every currently healthy block.
                        let meta = store.meta(id).expect("just read it");
                        let healthy = (0..store.graph().num_nodes() as u32)
                            .filter(|&n| {
                                let dev = store.device_of_block(&meta, n);
                                store.device(dev).map(|d| d.is_online()).unwrap_or(false)
                            })
                            .count();
                        report.blocks_naive += healthy as u64;
                        report.bytes_served += payload.len() as u64;
                        EventOutcome::Ok
                    }
                    Err(StoreError::Unrecoverable { .. }) => {
                        report.reads_failed += 1;
                        EventOutcome::Unrecoverable
                    }
                    Err(e) => {
                        report.reads_failed += 1;
                        EventOutcome::Failed(e.to_string())
                    }
                }
            }
            Event::FailDevice { device } => match store.fail_device(device) {
                Ok(()) => EventOutcome::Ok,
                Err(e) => EventOutcome::Failed(e.to_string()),
            },
            Event::ReplaceAndScrub { device } => match store.replace_device(device) {
                Ok(()) => {
                    let outcome = crate::scrubber::scrub(store, 5, true);
                    report.blocks_repaired += outcome.blocks_repaired as u64;
                    EventOutcome::Ok
                }
                Err(e) => EventOutcome::Failed(e.to_string()),
            },
        };
        if matches!(outcome, EventOutcome::Failed(_)) && !matches!(*event, Event::Get { .. }) {
            report.events_failed += 1;
        }
        report.outcomes.push(outcome);
    }
    report
}

/// Per-device activity histogram after a replay (balance check: rotation
/// should spread load).
pub fn device_load(store: &ArchivalStore) -> Vec<DeviceStats> {
    (0..store.num_devices())
        .map(|d| store.device(d).expect("in range").stats())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::TornadoGenerator;

    fn small_store() -> ArchivalStore {
        let gen = TornadoGenerator::new(16);
        let g = tornado_gen::screened(3, 2, |s| gen.generate(s)).unwrap().0;
        ArchivalStore::new(g)
    }

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let cfg = WorkloadConfig {
            objects: 20,
            reads: 100,
            seed: 0xAC1D,
        };
        let a = generate_events(&cfg, 32);
        let b = generate_events(&cfg, 32);
        assert_eq!(a, b);
        // Ingests all precede the first read.
        let first_get = a
            .iter()
            .position(|e| matches!(e, Event::Get { .. }))
            .unwrap();
        let puts_before: usize = a[..first_get]
            .iter()
            .filter(|e| matches!(e, Event::Put { .. }))
            .count();
        assert_eq!(puts_before, cfg.objects);
    }

    #[test]
    fn replay_serves_all_reads_with_repair() {
        let store = small_store();
        let cfg = WorkloadConfig {
            objects: 6,
            reads: 40,
            seed: 11,
        };
        let events = generate_events(&cfg, store.num_devices());
        let report = replay(&store, &events);
        assert_eq!(report.reads_ok, 40);
        assert_eq!(report.reads_failed, 0);
        assert_eq!(report.events_failed, 0);
        assert_eq!(report.outcomes.len(), events.len());
        assert!(report.outcomes.iter().all(|o| *o == EventOutcome::Ok));
        assert!(report.bytes_served > 0);
        assert!(
            report.activation_savings() > 0.3,
            "savings {}",
            report.activation_savings()
        );
    }

    #[test]
    fn load_spreads_across_devices() {
        let store = small_store();
        let cfg = WorkloadConfig {
            objects: 8,
            reads: 60,
            seed: 13,
        };
        // Only the ingests and the healthy reads: a repair scrub or a
        // degraded read also reads blocks, and could lift the count even
        // with every stripe at one rotation.
        let events: Vec<Event> = generate_events(&cfg, store.num_devices())
            .into_iter()
            .filter(|e| matches!(e, Event::Put { .. } | Event::Get { .. }))
            .collect();
        assert_eq!(events.len(), cfg.objects + cfg.reads);
        replay(&store, &events);
        let loads = device_load(&store);
        let active = loads.iter().filter(|s| s.reads > 0).count();
        assert!(
            active > store.num_devices() / 2,
            "rotation should activate most devices: {active}"
        );
    }

    #[test]
    fn unrepaired_failures_can_fail_reads_only_when_exceeding_tolerance() {
        let store = small_store();
        // Fail ten devices without repair, between the reads; some reads
        // may fail but replay must not error out.
        let mut events: Vec<Event> = (0..4).map(|i| Event::Put { size: 700 * i + 1 }).collect();
        for i in 0..20 {
            if i % 2 == 0 {
                events.push(Event::FailDevice {
                    device: 7 * i % store.num_devices(),
                });
            }
            events.push(Event::Get { object: i % 4 });
        }
        let report = replay(&store, &events);
        assert_eq!(report.reads_ok + report.reads_failed, 20);
        assert_eq!(report.events_failed, 0);
    }

    #[test]
    fn replay_continues_past_store_errors() {
        let store = small_store();
        let devices = store.num_devices();
        // A hand-built stream with events the store must reject: an
        // out-of-range device failure and an out-of-range replacement.
        let events = vec![
            Event::Put { size: 512 },
            Event::FailDevice {
                device: devices + 7,
            },
            Event::Get { object: 0 },
            Event::ReplaceAndScrub {
                device: devices + 7,
            },
            Event::Get { object: 0 },
        ];
        let report = replay(&store, &events);
        assert_eq!(report.outcomes.len(), events.len());
        assert_eq!(report.reads_ok, 2, "reads after a failed event still run");
        assert_eq!(report.events_failed, 2);
        assert!(matches!(report.outcomes[1], EventOutcome::Failed(_)));
        assert!(matches!(report.outcomes[3], EventOutcome::Failed(_)));
        assert_eq!(report.outcomes[4], EventOutcome::Ok);
    }

    #[test]
    fn replay_records_unrecoverable_reads_as_degraded_outcomes() {
        let store = small_store();
        // Fail every device: reads become unrecoverable, replay completes.
        let mut events = vec![Event::Put { size: 256 }];
        for device in 0..store.num_devices() {
            events.push(Event::FailDevice { device });
        }
        events.push(Event::Get { object: 0 });
        let report = replay(&store, &events);
        assert_eq!(report.reads_failed, 1);
        assert_eq!(report.events_failed, 0);
        assert_eq!(
            *report.outcomes.last().unwrap(),
            EventOutcome::Unrecoverable
        );
    }
}
