//! Cold-start recovery benchmark for the durable backends (ISSUE 8).
//!
//! Recovery-on-open is the price a durable archival store pays at every
//! restart: scan the intent journal, load the metadata sidecars, roll
//! back torn puts, rebuild the stripe map. This experiment measures that
//! wall time as a function of store size for both on-disk backends
//! (file-per-block directories and append-only segment stores) so the
//! scaling behaviour — it should be linear in object count — is a
//! committed number, not folklore.
//!
//! Every point populates a fresh store at the paper's 96-device
//! configuration, drops it (a clean shutdown leaves the journal intact;
//! only recovery truncates it), reopens it cold, and records both the
//! store's own [`RecoveryReport::duration_us`] and the end-to-end wall
//! time of `ArchivalStore::open`.
//!
//! [`RecoveryReport::duration_us`]: tornado_store::RecoveryReport

use crate::effort::Effort;
use crate::harness::{csv, num, obj, Report};
use std::sync::atomic::{AtomicUsize, Ordering};
use tornado_obs::Json;
use tornado_store::{ArchivalStore, BackendKind, DurableConfig};

/// Payload size per object; recovery cost is dominated by per-object
/// bookkeeping, not payload bytes, which this keeps small enough to show.
pub const PAYLOAD_BYTES: usize = 4096;

/// One (backend, store-size) measurement.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPoint {
    /// Objects in the store at reopen.
    pub objects: usize,
    /// Recovery time reported by the store (scan + replay + rebuild), µs.
    pub recovery_us: u64,
    /// End-to-end `ArchivalStore::open` wall time, µs.
    pub open_wall_us: u64,
    /// Journal records scanned (2 per clean put: intent + commit).
    pub journal_records: usize,
    /// Objects the recovery rebuilt into the stripe map.
    pub objects_recovered: usize,
}

/// One backend's sweep over store sizes.
#[derive(Clone, Debug)]
pub struct BackendSweep {
    /// Backend label (`"file"` or `"segment"`).
    pub backend: &'static str,
    /// Points in ascending object count.
    pub sweep: Vec<RecoveryPoint>,
}

fn payload_for(i: usize) -> Vec<u8> {
    (0..PAYLOAD_BYTES)
        .map(|b| {
            (b as u64)
                .wrapping_mul(131)
                .wrapping_add((i as u64).wrapping_mul(0x9e3779b97f4a7c15)) as u8
        })
        .collect()
}

/// Measures cold-start recovery for both durable backends at each store
/// size. Stores are built and torn down under the system temp dir.
pub fn measure(object_counts: &[usize]) -> Vec<BackendSweep> {
    let mut backends = Vec::new();
    for kind in [BackendKind::File, BackendKind::Segment] {
        let mut sweep = Vec::with_capacity(object_counts.len());
        for &objects in object_counts {
            // Unique per call, not just per process: two tests of one test
            // binary measure the same sizes at once.
            static CALLS: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tornado-bench-recovery-{}-{objects}-{}-{}",
                kind.as_str(),
                std::process::id(),
                CALLS.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (store, _) = ArchivalStore::open(
                tornado_core::tornado_graph_1(),
                DurableConfig::new_nosync(dir.clone(), kind),
            )
            .expect("open fresh bench store");
            for i in 0..objects {
                store
                    .put(&format!("bench-{i}"), &payload_for(i))
                    .expect("put");
            }
            drop(store);

            let t = std::time::Instant::now();
            let (store, report) = ArchivalStore::open(
                tornado_core::tornado_graph_1(),
                DurableConfig::new_nosync(dir.clone(), kind),
            )
            .expect("cold reopen");
            let open_wall_us = t.elapsed().as_micros() as u64;
            assert_eq!(report.objects, objects, "recovery found every object");
            assert_eq!(report.rolled_back, 0, "clean shutdown: nothing torn");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);

            sweep.push(RecoveryPoint {
                objects,
                recovery_us: report.duration_us,
                open_wall_us,
                journal_records: report.journal_records,
                objects_recovered: report.objects,
            });
        }
        backends.push(BackendSweep {
            backend: kind.as_str(),
            sweep,
        });
    }
    backends
}

/// Runs the benchmark, formats the EXPERIMENTS.md table and asserts the
/// floors. They are exact recovery invariants, not timings, so they hold
/// in every build: both durable backends, at least three store sizes (so
/// the scaling trend is visible), every object recovered, and exactly two
/// journal records — intent + commit — per clean put.
pub fn run(effort: &Effort) -> Report {
    let counts: &[usize] = if effort.quick {
        &[2, 4, 8]
    } else {
        &[16, 64, 256]
    };
    let backends = measure(counts);

    assert!(
        counts.len() >= 3,
        "need >= 3 store sizes, got {}",
        counts.len()
    );
    assert_eq!(backends.len(), 2, "file + segment");
    let mut rows = Vec::new();
    for b in &backends {
        assert_eq!(
            b.sweep.len(),
            counts.len(),
            "{}: one sweep point per store size",
            b.backend
        );
        for p in &b.sweep {
            assert_eq!(
                p.objects_recovered, p.objects,
                "{}: lost objects",
                b.backend
            );
            assert_eq!(
                p.journal_records,
                p.objects * 2,
                "{}: intent + commit per clean put",
                b.backend
            );
            rows.push(obj([
                ("backend", Json::Str(b.backend.into())),
                ("objects", Json::U64(p.objects as u64)),
                ("journal_records", Json::U64(p.journal_records as u64)),
                ("recovery_us", Json::U64(p.recovery_us)),
                ("open_wall_us", Json::U64(p.open_wall_us)),
                (
                    "us_per_object",
                    num(p.recovery_us as f64 / p.objects.max(1) as f64, 1),
                ),
            ]));
        }
    }

    let text = format!(
        "# Cold-start recovery: 96-device store, {PAYLOAD_BYTES} B objects, clean-shutdown journals\n\
         {}\
         recovery replays the journal and sidecars, never payload blocks — cost scales with \
         the catalog, not the archive\n\
         floors: file + segment backends, >= 3 store sizes, every object recovered, \
         2 journal records per put\n",
        csv(&rows)
    );
    let data = obj([
        ("payload_bytes", Json::U64(PAYLOAD_BYTES as u64)),
        ("points", Json::Arr(rows)),
    ]);
    Report {
        text,
        data: Some(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_backends_at_every_size() {
        let backends = measure(&[2, 4]);
        assert_eq!(backends.len(), 2);
        for b in &backends {
            assert_eq!(b.sweep.len(), 2, "{}", b.backend);
            for p in &b.sweep {
                assert_eq!(p.objects_recovered, p.objects);
                assert_eq!(p.journal_records, p.objects * 2, "intent + commit per put");
            }
        }
    }
}
