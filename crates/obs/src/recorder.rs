//! Plain-u64 counter cells for hot loops.
//!
//! The decode kernel runs in tens of nanoseconds; even a relaxed atomic
//! add per trial would be measurable, and a sharded counter lookup far
//! worse. A [`Recorder`] therefore holds `N` plain (non-atomic) `u64`
//! cells behind one `on` flag: each `inc` is a predictable branch plus an
//! ordinary add when recording, and nothing at all when disabled. The
//! owner periodically drains the cells with [`Recorder::take`] — at batch
//! or rank-range boundaries, outside the hot loop — and merges them into
//! shared sharded [`crate::Counter`]s. Summation commutes, so the merged
//! totals are deterministic no matter which rayon worker processed which
//! batch.

/// Fixed-size set of counter cells behind an on/off switch. Cell indices
/// are assigned by the client (see `tornado_codec::cells`).
#[derive(Clone, Debug)]
pub struct Recorder<const N: usize> {
    on: bool,
    cells: [u64; N],
}

impl<const N: usize> Recorder<N> {
    /// A recorder that ignores every increment.
    pub const fn disabled() -> Self {
        Self {
            on: false,
            cells: [0; N],
        }
    }

    /// A recorder that counts.
    pub const fn enabled() -> Self {
        Self {
            on: true,
            cells: [0; N],
        }
    }

    /// Whether increments are being counted.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (cells are kept either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Adds one to `cell` when enabled.
    #[inline(always)]
    pub fn inc(&mut self, cell: usize) {
        if self.on {
            self.cells[cell] += 1;
        }
    }

    /// Adds `n` to `cell` when enabled.
    #[inline(always)]
    pub fn add(&mut self, cell: usize, n: u64) {
        if self.on {
            self.cells[cell] += n;
        }
    }

    /// All cells.
    pub fn cells(&self) -> &[u64; N] {
        &self.cells
    }

    /// Returns the cells and zeroes them (the merge-out step).
    pub fn take(&mut self) -> [u64; N] {
        std::mem::replace(&mut self.cells, [0; N])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_counts_nothing() {
        let mut r: Recorder<3> = Recorder::disabled();
        r.inc(0);
        r.add(2, 100);
        assert_eq!(r.cells(), &[0, 0, 0]);
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_counts_and_drains() {
        let mut r: Recorder<3> = Recorder::enabled();
        r.inc(0);
        r.inc(0);
        r.add(1, 5);
        assert_eq!(r.cells()[0], 2);
        assert_eq!(r.take(), [2, 5, 0]);
        assert_eq!(r.cells(), &[0, 0, 0], "take drains");
        r.inc(2);
        assert_eq!(r.cells()[2], 1, "still enabled after take");
    }

    #[test]
    fn toggling_preserves_cells() {
        let mut r: Recorder<1> = Recorder::enabled();
        r.inc(0);
        r.set_enabled(false);
        r.inc(0);
        assert_eq!(r.cells()[0], 1);
        r.set_enabled(true);
        r.inc(0);
        assert_eq!(r.cells()[0], 2);
    }
}
