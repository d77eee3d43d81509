//! Compensated floating-point summation.

/// Neumaier's improved Kahan–Babuška summation.
///
/// The reliability composition (paper Eq. 3) adds 97 products that span more
/// than thirty orders of magnitude — the `k = 5` term dominates by design
/// while the tail terms are around 10⁻⁴⁰. Compensated summation keeps the
/// result accurate to the last ulp regardless of ordering.
///
/// ```
/// use tornado_analysis::NeumaierSum;
/// let mut s = NeumaierSum::new();
/// s.add(1.0);
/// s.add(1e100);
/// s.add(1.0);
/// s.add(-1e100);
/// assert_eq!(s.value(), 2.0); // naive summation yields 0.0
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// A sum starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for NeumaierSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(NeumaierSum::new().value(), 0.0);
    }

    #[test]
    fn plain_sums_match_naive_for_benign_input() {
        let s: NeumaierSum = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.value(), 5050.0);
    }

    #[test]
    fn survives_catastrophic_cancellation() {
        let s: NeumaierSum = [1.0, 1e100, 1.0, -1e100].into_iter().collect();
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn accumulates_tiny_terms_against_a_dominant_one() {
        // 1 + 2^-53 added 2^12 times: naive summation drops every tiny term.
        let mut s = NeumaierSum::new();
        s.add(1.0);
        let tiny = (2.0f64).powi(-53);
        for _ in 0..4096 {
            s.add(tiny);
        }
        let expected = 1.0 + 4096.0 * tiny;
        assert_eq!(s.value(), expected);
    }

    #[test]
    fn from_iterator_collects() {
        let s: NeumaierSum = [0.1, 0.2, 0.3].into_iter().collect();
        assert!((s.value() - 0.6).abs() < 1e-15);
    }
}
