//! Experiment fidelity configuration.

/// Fidelity knobs for the experiment suite.
///
/// The paper's full suite is 962 million Monte-Carlo cases plus exhaustive
/// search to `C(96, 6)` — about 34 CPU-days per graph. The estimators here
/// are identical; only the trial counts differ, so scaling up is purely a
/// matter of these knobs (see DESIGN.md's substitution table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Effort {
    /// Monte-Carlo trials per offline-count data point.
    pub mc_trials: u64,
    /// Exhaustive worst-case search depth (`k_max`).
    pub exhaustive_max_k: usize,
    /// Master seed for all randomised steps.
    pub seed: u64,
    /// CI smoke: the measurements that return data run their small shape.
    /// Set by `run_all --quick` and `Effort::smoke`.
    pub quick: bool,
}

impl Default for Effort {
    fn default() -> Self {
        Self {
            mc_trials: 20_000,
            exhaustive_max_k: 4,
            seed: 0x70_52_4E,
            quick: false,
        }
    }
}

impl Effort {
    /// Reads `TORNADO_TRIALS`, `TORNADO_MAX_K`, and `TORNADO_SEED` from the
    /// environment, falling back to the defaults for the unset ones. A
    /// value that does not parse is an error naming the variable — a
    /// mistyped `TORNADO_MAX_K=6x` must not silently certify depth 4.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let read = |name: &str, default: u64| match var(name) {
            None => Ok(default),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("{name}={v}: not a non-negative integer ({e})")),
        };
        let d = Self::default();
        Ok(Self {
            mc_trials: read("TORNADO_TRIALS", d.mc_trials)?,
            exhaustive_max_k: read("TORNADO_MAX_K", d.exhaustive_max_k as u64)? as usize,
            seed: read("TORNADO_SEED", d.seed)?,
            quick: false,
        })
    }

    /// A tiny-effort configuration for unit tests of the harness itself.
    #[cfg(test)]
    pub(crate) fn smoke() -> Self {
        Self {
            mc_trials: 200,
            exhaustive_max_k: 2,
            seed: 7,
            quick: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_laptop_scale() {
        let e = Effort::default();
        assert_eq!(e.mc_trials, 20_000);
        assert_eq!(e.exhaustive_max_k, 4);
        assert!(!e.quick);
    }

    #[test]
    fn smoke_is_smaller() {
        assert!(Effort::smoke().mc_trials < Effort::default().mc_trials);
        assert!(Effort::smoke().quick);
    }

    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn variables_override_defaults_and_a_mistyped_one_is_an_error() {
        assert_eq!(Effort::from_vars(vars(&[])), Ok(Effort::default()));
        let e =
            Effort::from_vars(vars(&[("TORNADO_MAX_K", " 6 "), ("TORNADO_SEED", "9")])).unwrap();
        assert_eq!((e.exhaustive_max_k, e.seed, e.mc_trials), (6, 9, 20_000));
        for bad in [
            ("TORNADO_MAX_K", "6x"),
            ("TORNADO_TRIALS", "-1"),
            ("TORNADO_SEED", ""),
        ] {
            let err = Effort::from_vars(vars(&[bad])).unwrap_err();
            assert!(err.contains(bad.0) && err.contains(bad.1), "{err}");
        }
    }
}
