//! Property-based tests for the §3.1 solver.

use proptest::prelude::*;
use tornado_gen::solve::{bisect, Bracket};

proptest! {
    #[test]
    fn bisect_finds_roots_of_shifted_cubics(shift in -8.0f64..8.0) {
        // f(x) = x³ − shift has the unique real root cbrt(shift).
        let root = bisect(|x| x * x * x - shift, Bracket::new(-3.0, 3.0), 1e-12, 300).unwrap();
        prop_assert!((root - shift.cbrt()).abs() < 1e-9);
    }
}
