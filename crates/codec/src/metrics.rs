//! Decode-kernel instrumentation: recorder cell layout and the shared
//! merge target.
//!
//! The kernel counts into plain-u64 [`tornado_obs::Recorder`] cells (no
//! atomics in the hot loop; recording off by default costs one predicted
//! branch per site). The [`cells`] module fixes the cell indices; a
//! [`DecodeMetrics`] is the sharded cross-thread aggregate those cells are
//! drained into at batch boundaries — rayon workers each own a decoder,
//! and because summation commutes the merged totals are identical no
//! matter which worker processed which rank range.

use tornado_obs::set::Cell;
use tornado_obs::MetricSet;

/// Recorder cell indices for [`crate::ErasureDecoder`]: the position of
/// each [`DecodeMetrics`] field.
pub mod cells {
    /// [`DecodeMetrics::trials`](super::DecodeMetrics).
    pub const TRIALS: usize = 0;
    /// [`DecodeMetrics::failures`](super::DecodeMetrics).
    pub const FAILURES: usize = 1;
    /// [`DecodeMetrics::prefix_begins`](super::DecodeMetrics).
    pub(crate) const PREFIX_BEGINS: usize = 2;
    /// [`DecodeMetrics::prefix_reuse_hits`](super::DecodeMetrics).
    pub const PREFIX_REUSE_HITS: usize = 3;
    /// [`DecodeMetrics::prefix_collisions`](super::DecodeMetrics).
    pub const PREFIX_COLLISIONS: usize = 4;
    /// [`DecodeMetrics::monotone_shortcuts`](super::DecodeMetrics).
    pub const MONOTONE_SHORTCUTS: usize = 5;
    /// [`DecodeMetrics::recoveries`](super::DecodeMetrics).
    pub const RECOVERIES: usize = 6;
    /// Number of cells.
    pub(crate) const COUNT: usize = 7;
}

/// The decoder's recorder type.
pub(crate) type DecodeRecorder = tornado_obs::Recorder<{ cells::COUNT }>;

tornado_obs::metric_set! {
    /// Cross-thread aggregate of decode-kernel counters, one sharded
    /// counter per recorder cell, in [`cells`] order.
    #[derive(Debug)]
    pub struct DecodeMetrics {
        /// Decode verdicts: `decode`, `decode_detailed`, `decode_tail` (prefix
        /// fixpoints are counted separately); in a Monte-Carlo profile, one
        /// per (trial, level).
        trials: Counter = "decode.trials", "patterns";
        /// Trials whose reconstruction failed.
        failures: Counter = "decode.failures", "patterns";
        /// Prefixes peeled to a full fixpoint: a node fell inside both
        /// certificates of the shorter prefix.
        prefix_begins: Counter = "decode.prefix_begins", "prefixes";
        /// Patterns decided unpeeled: the tail missed the prefix's certificate.
        prefix_reuse_hits: Counter = "decode.prefix_reuse_hits", "patterns";
        /// Patterns that hit their prefix's certificates and were peeled
        /// whole: on lanes in the worst-case search.
        prefix_collisions: Counter = "decode.prefix_collisions", "patterns";
        /// Patterns under a failed prefix, answered by failure monotonicity.
        monotone_shortcuts: Counter = "decode.monotone_shortcuts", "patterns";
        /// Nodes recovered (peeled or re-encoded). In the worst-case search
        /// it depends on how collisions group into lanes, so on the thread
        /// count; a Monte-Carlo profile counts those of the peels its
        /// bisection ran.
        recoveries: Counter = "decode.recoveries", "nodes";
    }
}

const _: () = assert!(DecodeMetrics::DESCS.len() == cells::COUNT);

impl DecodeMetrics {
    /// Adds one drained recorder cell array into the aggregate.
    pub fn absorb(&self, drained: &[u64; cells::COUNT]) {
        let mut drained = drained.iter();
        self.visit(|_, cell| {
            if let (Cell::Counter(c), Some(&v)) = (cell, drained.next()) {
                c.add(v);
            }
        });
    }

    /// Current value of one cell's aggregate.
    pub fn get(&self, cell: usize) -> u64 {
        self.items()[cell].1
    }

    /// `(snapshot name, current value)` for every cell.
    pub fn items(&self) -> [(&'static str, u64); cells::COUNT] {
        let mut items = [("", 0); cells::COUNT];
        let mut slots = items.iter_mut();
        self.visit(|desc, cell| {
            if let (Cell::Counter(c), Some(slot)) = (cell, slots.next()) {
                *slot = (desc.name, c.get());
            }
        });
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_per_cell() {
        let m = DecodeMetrics::new();
        let mut cells_a = [0u64; cells::COUNT];
        cells_a[cells::TRIALS] = 10;
        cells_a[cells::FAILURES] = 2;
        let mut cells_b = [0u64; cells::COUNT];
        cells_b[cells::TRIALS] = 5;
        m.absorb(&cells_a);
        m.absorb(&cells_b);
        assert_eq!(m.get(cells::TRIALS), 15);
        assert_eq!(m.get(cells::FAILURES), 2);
        assert_eq!(m.get(cells::RECOVERIES), 0);
    }

    #[test]
    fn items_are_name_aligned() {
        // Each recorder index lands in the field it is documented as.
        let m = DecodeMetrics::new();
        m.absorb(&std::array::from_fn(|i| 10 + i as u64));
        let expected = [
            (cells::TRIALS, "decode.trials", &m.trials),
            (cells::FAILURES, "decode.failures", &m.failures),
            (
                cells::PREFIX_BEGINS,
                "decode.prefix_begins",
                &m.prefix_begins,
            ),
            (
                cells::PREFIX_REUSE_HITS,
                "decode.prefix_reuse_hits",
                &m.prefix_reuse_hits,
            ),
            (
                cells::PREFIX_COLLISIONS,
                "decode.prefix_collisions",
                &m.prefix_collisions,
            ),
            (
                cells::MONOTONE_SHORTCUTS,
                "decode.monotone_shortcuts",
                &m.monotone_shortcuts,
            ),
            (cells::RECOVERIES, "decode.recoveries", &m.recoveries),
        ];
        assert_eq!(expected.len(), cells::COUNT);
        for (index, name, field) in expected {
            assert_eq!(m.items()[index], (name, 10 + index as u64));
            assert_eq!(field.get(), 10 + index as u64, "{name}");
        }
    }
}
