//! The memory store against a model: seeded random sequences of put,
//! get, delete, device failure, replacement and scrub, checked against a
//! `HashMap` of what was acknowledged.
//!
//! A device counts as *lost* from its failure until a repair scrub runs
//! with every device online; the generator never lets more than four be
//! lost at once, and graph 1 survives any four losses. So:
//!
//! * every GET returns the model's bytes exactly — whatever a replaced
//!   device's recycled buffers held before, it never surfaces;
//! * a repair scrub with every device online leaves no object incomplete,
//!   and the scrub after it finds no stripe degraded;
//! * after such a scrub every device holds one block per live object.
//!
//! A failing sequence prints its seed and the operations it ran.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tornado_store::{ArchivalStore, ScrubMode, Scrubber};

/// Most devices lost at once: graph 1 decodes any four erasures.
const MAX_LOST: usize = 4;
/// The graph's first failure level, handed to the scrubber.
const LEVEL: usize = 5;
const SEEDS: std::ops::Range<u64> = 0..8;
const OPS: usize = 160;

/// One sequence's store, model and device bookkeeping.
struct Run {
    store: ArchivalStore,
    scrubber: Scrubber,
    model: HashMap<u64, Vec<u8>>,
    /// Failed since the last repair scrub with every device online.
    lost: BTreeSet<usize>,
    offline: BTreeSet<usize>,
    rng: SmallRng,
    log: Vec<String>,
}

impl Run {
    fn new(seed: u64) -> Self {
        Self {
            store: ArchivalStore::new(tornado_core::tornado_graph_1()),
            scrubber: Scrubber::new(2),
            model: HashMap::new(),
            lost: BTreeSet::new(),
            offline: BTreeSet::new(),
            rng: SmallRng::seed_from_u64(seed),
            log: Vec::new(),
        }
    }

    /// A live object's id, if there is one.
    fn pick_object(&mut self) -> Option<u64> {
        let mut ids: Vec<u64> = self.model.keys().copied().collect();
        ids.sort_unstable();
        (!ids.is_empty()).then(|| ids[self.rng.gen_range(0..ids.len())])
    }

    fn pick(&mut self, set: &BTreeSet<usize>) -> usize {
        *set.iter().nth(self.rng.gen_range(0..set.len())).unwrap()
    }

    fn put(&mut self) {
        // Mostly small objects, some up to 64 KiB: many block lengths.
        let len = match self.rng.gen_range(0..4) {
            0 => self.rng.gen_range(0..=64usize),
            1 | 2 => self.rng.gen_range(0..=8 << 10),
            _ => self.rng.gen_range(0..=64 << 10),
        };
        let mut payload = vec![0u8; len];
        self.rng.fill_bytes(&mut payload);
        let id = self
            .store
            .put(&format!("o{}", self.log.len()), &payload)
            .unwrap();
        self.log.push(format!("put {len} B -> {id}"));
        self.model.insert(id, payload);
    }

    fn get(&mut self) {
        let Some(id) = self.pick_object() else { return };
        self.log.push(format!("get {id}"));
        let got = self.store.get(id).unwrap();
        assert!(got == self.model[&id], "object {id}: wrong bytes");
    }

    fn delete(&mut self) {
        let Some(id) = self.pick_object() else { return };
        self.log.push(format!("delete {id}"));
        self.store.delete(id).unwrap();
        self.model.remove(&id);
        assert!(self.store.get(id).is_err(), "object {id} still reads");
    }

    fn fail(&mut self) {
        let n = self.store.num_devices();
        let again = !self.lost.is_empty() && self.rng.gen_bool(0.3);
        let d = if self.lost.len() >= MAX_LOST || again {
            self.pick(&self.lost.clone())
        } else {
            self.rng.gen_range(0..n)
        };
        self.log.push(format!("fail {d}"));
        self.store.fail_device(d).unwrap();
        self.lost.insert(d);
        self.offline.insert(d);
    }

    fn replace(&mut self, d: usize) {
        self.log.push(format!("replace {d}"));
        self.store.replace_device(d).unwrap();
        self.offline.remove(&d);
    }

    fn scrub(&mut self, mode: ScrubMode, repair: bool) {
        self.log.push(format!("scrub {mode:?} repair {repair}"));
        let outcome = self.scrubber.run(&self.store, LEVEL, repair, mode);
        if !(repair && self.offline.is_empty()) {
            return;
        }
        assert!(
            outcome.objects_incomplete.is_empty(),
            "incomplete after repair: {:?}",
            outcome.objects_incomplete
        );
        self.lost.clear();
        let next = self
            .scrubber
            .run(&self.store, LEVEL, false, ScrubMode::Verify);
        assert_eq!(next.degraded_count(), 0, "degraded after repair");
        for d in 0..self.store.num_devices() {
            let held = self.store.device(d).unwrap().block_count();
            assert_eq!(held, self.model.len(), "device {d}'s blocks");
        }
    }

    fn step(&mut self) {
        let modes = [ScrubMode::Verify, ScrubMode::Full, ScrubMode::Incremental];
        match self.rng.gen_range(0..100) {
            0..=29 => self.put(),
            30..=54 => self.get(),
            55..=64 => self.delete(),
            65..=74 => self.fail(),
            75..=84 if !self.offline.is_empty() => {
                let d = self.pick(&self.offline.clone());
                self.replace(d);
            }
            75..=84 => self.get(),
            _ => {
                let mode = modes[self.rng.gen_range(0..modes.len())];
                let repair = self.rng.gen_bool(0.7);
                // Half the repair scrubs find every device back online.
                if repair && self.rng.gen_bool(0.5) {
                    for d in self.offline.clone() {
                        self.replace(d);
                    }
                }
                self.scrub(mode, repair);
            }
        }
    }

    /// Every device back, one repair scrub, and every object read back.
    fn heal(&mut self) {
        for d in self.offline.clone() {
            self.replace(d);
        }
        self.scrub(ScrubMode::Verify, true);
        let mut ids: Vec<u64> = self.model.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.log.push(format!("get {id}"));
            assert!(
                self.store.get(id).unwrap() == self.model[&id],
                "object {id}"
            );
        }
    }
}

#[test]
fn the_memory_store_agrees_with_its_model() {
    for seed in SEEDS {
        let mut run = Run::new(seed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..OPS {
                run.step();
                assert!(run.lost.len() <= MAX_LOST, "the generator lost too many");
            }
            run.heal();
        }));
        if let Err(cause) = result {
            let what = cause
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("seed {seed}: {what}\nops:\n  {}", run.log.join("\n  "));
        }
    }
}
