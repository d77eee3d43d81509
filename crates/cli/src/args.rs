//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` pairs (values may repeat for list-style flags).
#[derive(Debug, Default)]
pub struct ParsedArgs {
    values: BTreeMap<String, Vec<String>>,
}

impl ParsedArgs {
    /// Parses `--key value` pairs; bare `--key` at end-of-args or before
    /// another flag is treated as boolean `true`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{arg}'"))?;
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let next_is_value = argv
                .get(i + 1)
                .map(|n| !n.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                values
                    .entry(key.to_string())
                    .or_default()
                    .push(argv[i + 1].clone());
                i += 2;
            } else {
                values
                    .entry(key.to_string())
                    .or_default()
                    .push("true".into());
                i += 1;
            }
        }
        Ok(Self { values })
    }

    /// The flags that were passed, each once.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Last value of a flag, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.values
            .get(key)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// All values of a repeatable flag.
    pub(crate) fn get_all(&self, key: &str) -> Vec<&str> {
        self.values
            .get(key)
            .map(|v| v.iter().map(|s| s.as_str()).collect())
            .unwrap_or_default()
    }

    /// Parses a flag as `T`, with a default.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|e| format!("--{key} {s}: {e}")),
        }
    }

    /// A required flag.
    pub(crate) fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Whether a boolean flag was passed.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn key_value_pairs() {
        let a = parse(&["--seed", "7", "--out", "x.graphml"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("out"), Some("x.graphml"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn boolean_flags() {
        let a = parse(&["--screened", "--seed", "3"]);
        assert!(a.flag("screened"));
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 3);
    }

    #[test]
    fn repeated_flags_collect() {
        let a = parse(&["--graph", "a", "--graph", "b"]);
        assert_eq!(a.get_all("graph"), vec!["a", "b"]);
        assert_eq!(a.get("graph"), Some("b"), "last wins for scalar reads");
    }

    #[test]
    fn parse_errors() {
        assert!(ParsedArgs::parse(&["seed".into()]).is_err());
        let a = parse(&["--seed", "x"]);
        assert!(a.get_parsed("seed", 0u64).is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_parsed("trials", 500u64).unwrap(), 500);
        assert!(a.require("graph").is_err());
    }
}
