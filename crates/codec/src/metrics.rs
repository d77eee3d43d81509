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

use tornado_obs::Counter;

/// Recorder cell indices for [`crate::ErasureDecoder`].
pub mod cells {
    /// Decode trials: every `decode`, `decode_detailed`, or `decode_tail`
    /// verdict (prefix fixpoints are counted separately).
    pub const TRIALS: usize = 0;
    /// Trials whose reconstruction failed.
    pub const FAILURES: usize = 1;
    /// Full-fixpoint prefix decodes: the prefixes `begin_pattern` had to
    /// peel because a node fell inside both certificates of the shorter one.
    pub const PREFIX_BEGINS: usize = 2;
    /// Patterns decided without peeling their prefix: the tail missed the
    /// prefix's certificate.
    pub const PREFIX_REUSE_HITS: usize = 3;
    /// Patterns that collided with their prefix's certificate and were
    /// peeled whole.
    pub const PREFIX_COLLISIONS: usize = 4;
    /// Patterns under a failed prefix, answered by failure monotonicity.
    pub const MONOTONE_SHORTCUTS: usize = 5;
    /// Nodes recovered (peeled or re-encoded).
    pub const RECOVERIES: usize = 6;
    /// Number of cells.
    pub const COUNT: usize = 7;
}

/// Snapshot names for each cell, index-aligned with [`cells`].
pub const CELL_NAMES: [&str; cells::COUNT] = [
    "decode.trials",
    "decode.failures",
    "decode.prefix_begins",
    "decode.prefix_reuse_hits",
    "decode.prefix_collisions",
    "decode.monotone_shortcuts",
    "decode.recoveries",
];

/// The decoder's recorder type.
pub type DecodeRecorder = tornado_obs::Recorder<{ cells::COUNT }>;

/// Cross-thread aggregate of decode-kernel counters, one sharded
/// [`Counter`] per recorder cell. Usable in `static`s.
pub struct DecodeMetrics {
    counters: [Counter; cells::COUNT],
}

impl DecodeMetrics {
    /// A zeroed metrics block.
    pub const fn new() -> Self {
        // `Counter::new` is const but `Counter` is not `Copy`; a const
        // item makes the array-repeat legal, and each repeat instantiates
        // a fresh counter (never shared state).
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Counter = Counter::new();
        Self {
            counters: [ZERO; cells::COUNT],
        }
    }

    /// Adds one drained recorder cell array into the aggregate.
    pub fn absorb(&self, drained: &[u64; cells::COUNT]) {
        for (counter, &v) in self.counters.iter().zip(drained.iter()) {
            counter.add(v);
        }
    }

    /// Current value of one cell's aggregate.
    pub fn get(&self, cell: usize) -> u64 {
        self.counters[cell].get()
    }

    /// `(snapshot name, current value)` for every cell.
    pub fn items(&self) -> [(&'static str, u64); cells::COUNT] {
        std::array::from_fn(|i| (CELL_NAMES[i], self.counters[i].get()))
    }

    /// Writes every cell into a snapshot's counter section.
    pub fn fill_snapshot(&self, snap: &mut tornado_obs::Snapshot) {
        for (name, value) in self.items() {
            snap.counter_value(name, value);
        }
    }
}

impl Default for DecodeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DecodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("DecodeMetrics");
        for (name, value) in self.items() {
            d.field(name, &value);
        }
        d.finish()
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
        let m = DecodeMetrics::new();
        let mut drained = [0u64; cells::COUNT];
        drained[cells::PREFIX_REUSE_HITS] = 7;
        m.absorb(&drained);
        let items = m.items();
        assert_eq!(items[cells::PREFIX_REUSE_HITS], ("decode.prefix_reuse_hits", 7));
        assert_eq!(items[cells::TRIALS], ("decode.trials", 0));
    }
}
