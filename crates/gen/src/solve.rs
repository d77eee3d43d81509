//! Root finding for the edge-distribution rescaler.
//!
//! §3.1 of the paper: when a Luby edge-degree distribution is applied to a
//! small level (tens of nodes), naive rounding produces the wrong number of
//! nodes — "5 edges of degree 6" is meaningless. The paper's fix is "a
//! numeric solver to find a constant multiplier for the edge distribution
//! that produced the correct number of nodes". The node count as a function
//! of that multiplier is a monotone step function of a real parameter, so we
//! provide (a) classic bisection on continuous functions and (b) an integer
//! -target search over monotone step functions that returns *some* parameter
//! hitting the target exactly, or the nearest achievable value.

/// Error from a solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The supplied bracket does not enclose a sign change.
    NoSignChange {
        /// f(lo)
        f_lo: f64,
        /// f(hi)
        f_hi: f64,
    },
    /// The iteration limit was reached before the tolerance was met.
    IterationLimit,
    /// No parameter in the bracket achieves the requested integer target;
    /// carries the closest achieved value and the parameter that achieved it.
    TargetUnreachable {
        /// Closest integer value achieved within the bracket.
        closest: i64,
        /// Parameter at which `closest` was achieved.
        at: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoSignChange { f_lo, f_hi } => {
                write!(
                    f,
                    "bracket does not enclose a root: f(lo) = {f_lo}, f(hi) = {f_hi}"
                )
            }
            SolveError::IterationLimit => write!(f, "iteration limit reached"),
            SolveError::TargetUnreachable { closest, at } => {
                write!(f, "integer target unreachable; closest {closest} at {at}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// A bracketing interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bracket {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Bracket {
    /// Creates a bracket; endpoints are reordered if needed.
    pub fn new(a: f64, b: f64) -> Self {
        if a <= b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }
}

/// Bisection on a continuous function with a sign change over `bracket`.
///
/// Returns an `x` with `|f(x)| ≤` machine-level interval width or after the
/// interval shrinks below `xtol`.
///
/// ```
/// use tornado_gen::solve::{bisect, Bracket};
/// let root = bisect(|x| x * x - 2.0, Bracket::new(0.0, 2.0), 1e-12, 200).unwrap();
/// assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
/// ```
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    bracket: Bracket,
    xtol: f64,
    max_iter: usize,
) -> Result<f64, SolveError> {
    let (mut lo, mut hi) = (bracket.lo, bracket.hi);
    let (f_lo, f_hi) = (f(lo), f(hi));
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(SolveError::NoSignChange { f_lo, f_hi });
    }
    let lo_sign = f_lo.signum();
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        if hi - lo < xtol {
            return Ok(mid);
        }
        let f_mid = f(mid);
        if f_mid == 0.0 {
            return Ok(mid);
        }
        if f_mid.signum() == lo_sign {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Err(SolveError::IterationLimit)
}

/// Finds a parameter `x ∈ [bracket.lo, bracket.hi]` at which the monotone
/// non-decreasing step function `g` equals `target`.
///
/// This is the §3.1 solver: `g(multiplier)` is "number of nodes produced by
/// the rescaled edge distribution", a step function that only jumps at
/// finitely many points. Binary search homes in on the step containing the
/// target; if the function jumps over `target` (no multiplier yields it
/// exactly), the closest achievable value is reported via
/// [`SolveError::TargetUnreachable`].
pub(crate) fn solve_integer_target<G: FnMut(f64) -> i64>(
    mut g: G,
    bracket: Bracket,
    target: i64,
    max_iter: usize,
) -> Result<f64, SolveError> {
    let (mut lo, mut hi) = (bracket.lo, bracket.hi);
    let g_lo = g(lo);
    let g_hi = g(hi);
    if g_lo == target {
        return Ok(lo);
    }
    if g_hi == target {
        return Ok(hi);
    }
    if target < g_lo {
        return Err(SolveError::TargetUnreachable {
            closest: g_lo,
            at: lo,
        });
    }
    if target > g_hi {
        return Err(SolveError::TargetUnreachable {
            closest: g_hi,
            at: hi,
        });
    }
    // Invariant: g(lo) < target < g(hi).
    let mut best = (g_lo, lo);
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            // Interval exhausted at f64 resolution: the step jumps over the
            // target.
            let (g_best, at) = best;
            let g_hi_now = g(hi);
            let closest = if (g_best - target).abs() <= (g_hi_now - target).abs() {
                g_best
            } else {
                return Err(SolveError::TargetUnreachable {
                    closest: g_hi_now,
                    at: hi,
                });
            };
            return Err(SolveError::TargetUnreachable { closest, at });
        }
        let v = g(mid);
        match v.cmp(&target) {
            std::cmp::Ordering::Equal => return Ok(mid),
            std::cmp::Ordering::Less => {
                best = (v, mid);
                lo = mid;
            }
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    Err(SolveError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, Bracket::new(0.0, 2.0), 1e-13, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_accepts_reversed_bracket() {
        let r = bisect(|x| x - 1.0, Bracket::new(5.0, -5.0), 1e-12, 200).unwrap();
        assert!((r - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_root() {
        assert_eq!(
            bisect(|x| x, Bracket::new(0.0, 1.0), 1e-12, 10).unwrap(),
            0.0
        );
    }

    #[test]
    fn bisect_rejects_no_sign_change() {
        let err = bisect(|x| x * x + 1.0, Bracket::new(-1.0, 1.0), 1e-12, 50).unwrap_err();
        assert!(matches!(err, SolveError::NoSignChange { .. }));
    }

    #[test]
    fn integer_target_on_floor_function() {
        // g(x) = floor(3x): hit target 7 somewhere in [0, 10].
        let x = solve_integer_target(
            |x| (3.0 * x).floor() as i64,
            Bracket::new(0.0, 10.0),
            7,
            200,
        )
        .unwrap();
        assert_eq!((3.0 * x).floor() as i64, 7);
    }

    #[test]
    fn integer_target_at_endpoints() {
        let g = |x: f64| x.floor() as i64;
        assert_eq!(
            solve_integer_target(g, Bracket::new(2.0, 9.0), 2, 100).unwrap(),
            2.0
        );
        assert_eq!(
            solve_integer_target(g, Bracket::new(2.0, 9.0), 9, 100).unwrap(),
            9.0
        );
    }

    #[test]
    fn integer_target_unreachable_below_and_above() {
        let g = |x: f64| x.floor() as i64;
        let e = solve_integer_target(g, Bracket::new(5.0, 9.0), 1, 100).unwrap_err();
        assert!(matches!(
            e,
            SolveError::TargetUnreachable { closest: 5, .. }
        ));
        let e = solve_integer_target(g, Bracket::new(5.0, 9.0), 42, 100).unwrap_err();
        assert!(matches!(
            e,
            SolveError::TargetUnreachable { closest: 9, .. }
        ));
    }

    #[test]
    fn integer_target_jumped_over() {
        // g jumps from 0 straight to 10 at x = 1: target 5 is unreachable.
        let g = |x: f64| if x < 1.0 { 0 } else { 10 };
        let e = solve_integer_target(g, Bracket::new(0.0, 2.0), 5, 500).unwrap_err();
        match e {
            SolveError::TargetUnreachable { closest, .. } => assert!(closest == 0 || closest == 10),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = SolveError::TargetUnreachable {
            closest: 3,
            at: 0.5,
        };
        assert!(e.to_string().contains("closest 3"));
    }

    proptest::proptest! {
        #[test]
        fn integer_target_hit_on_every_reachable_step(slope in 0.25f64..8.0, target in 1i64..200) {
            // floor(slope · x) steps by one, so every target in range is hit.
            let g = |x: f64| (slope * x).floor() as i64;
            let x = solve_integer_target(g, Bracket::new(0.0, 1000.0), target, 256).unwrap();
            proptest::prop_assert_eq!(g(x), target);
        }
    }
}
