//! Property-based round-trip tests for the hand-rolled `obs::json`
//! writer ↔ parser — it now carries trace payloads, so losing a byte in
//! an escape or misparsing a u64 edge value would corrupt exported
//! traces silently.
//!
//! Trees are generated from a seed with a splitmix-style mixer (the
//! vendored proptest has no recursive-strategy combinator), constrained
//! to the representable round-trip domain: finite floats that are either
//! non-integral or below 1e15 (larger integral floats print as digit
//! strings and legitimately reparse as integers), and `I64` only for
//! negative values (non-negative integers canonically parse as `U64`).

use proptest::prelude::*;
use tornado_obs::json::{parse, Json};

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Strings mixing plain text, every escaped control, quotes, backslashes,
/// and multi-byte unicode.
fn gen_string(state: &mut u64) -> String {
    const POOL: &[&str] = &[
        "a", "key", "…", "λ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "/", "snow☃", " ",
        "0", "{", "[", "\u{7f}", "é", "🦀", "𝄞", "\u{0}", "\u{8}", "\u{c}", "ü\\n", "a\"b", "日本",
        "\\u0041", "€\t€",
    ];
    let len = (mix(state) % 12) as usize;
    (0..len)
        .map(|_| POOL[(mix(state) as usize) % POOL.len()])
        .collect()
}

fn gen_number(state: &mut u64) -> Json {
    match mix(state) % 8 {
        0 => Json::U64(mix(state)), // full u64 range incl. > i64::MAX
        1 => Json::U64(u64::MAX),
        2 => Json::U64(0),
        3 => Json::I64(-((mix(state) % (1 << 62)) as i64) - 1),
        4 => Json::I64(i64::MIN),
        // Non-integral float with an exactly-representable fraction.
        5 => Json::F64((mix(state) % (1 << 50)) as f64 / 256.0 + 0.5),
        // Integral float below the 1e15 digit-string threshold.
        6 => Json::F64((mix(state) % 1_000_000) as f64),
        _ => Json::F64(-((mix(state) % 1_000) as f64) / 8.0),
    }
}

fn gen_json(state: &mut u64, depth: usize) -> Json {
    let scalar_only = depth == 0;
    match mix(state) % if scalar_only { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(mix(state).is_multiple_of(2)),
        2 | 3 => gen_number(state),
        4 | 5 => Json::Str(gen_string(state)),
        6 => {
            let n = (mix(state) % 4) as usize;
            Json::Arr((0..n).map(|_| gen_json(state, depth - 1)).collect())
        }
        _ => {
            let n = (mix(state) % 4) as usize;
            Json::Obj(
                (0..n)
                    .map(|_| (gen_string(state), gen_json(state, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Deeply nested single-spine tree (arrays of objects of arrays …).
fn gen_spine(state: &mut u64, depth: usize) -> Json {
    let mut v = gen_number(state);
    for level in 0..depth {
        v = if level % 2 == 0 {
            Json::Arr(vec![v])
        } else {
            Json::Obj(vec![(gen_string(state), v)])
        };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Writer → parser is the identity on generated trees, in both the
    /// pretty and the compact (JSON-lines) renderings.
    #[test]
    fn arbitrary_trees_round_trip(seed in any::<u64>(), depth in 0usize..5) {
        let mut state = seed;
        let v = gen_json(&mut state, depth);
        let pretty = parse(&v.to_pretty()).expect("pretty reparse");
        prop_assert_eq!(&pretty, &v, "pretty form");
        let line = parse(&v.to_line()).expect("compact reparse");
        prop_assert_eq!(&line, &v, "compact form");
    }

    /// Deep nesting (well past any realistic trace payload) survives the
    /// recursive-descent parser.
    #[test]
    fn deep_nesting_round_trips(seed in any::<u64>(), depth in 1usize..60) {
        let mut state = seed;
        let v = gen_spine(&mut state, depth);
        prop_assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    /// Every u64 survives exactly — counters and trace ids depend on it.
    #[test]
    fn u64_values_are_exact(v in any::<u64>()) {
        prop_assert_eq!(parse(&Json::U64(v).to_line()).unwrap(), Json::U64(v));
    }

    /// Strings of arbitrary escape-heavy content survive both renderings.
    #[test]
    fn strings_round_trip(seed in any::<u64>()) {
        let mut state = seed;
        let s = gen_string(&mut state);
        let v = Json::Str(s);
        prop_assert_eq!(parse(&v.to_line()).unwrap(), v.clone());
        prop_assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }
}

#[test]
fn integer_edge_values_round_trip_exactly() {
    for v in [
        Json::U64(0),
        Json::U64(1),
        Json::U64(i64::MAX as u64),
        Json::U64(i64::MAX as u64 + 1),
        Json::U64(u64::MAX - 1),
        Json::U64(u64::MAX),
        Json::I64(-1),
        Json::I64(i64::MIN),
        Json::I64(i64::MIN + 1),
    ] {
        assert_eq!(parse(&v.to_line()).unwrap(), v, "{v:?}");
        assert_eq!(parse(&v.to_pretty()).unwrap(), v, "{v:?}");
    }
}

/// A string far longer than any name — a trace export's worth — of mixed
/// one- to four-byte characters and escapes parses back whole.
#[test]
fn a_mebibyte_string_of_mixed_characters_round_trips() {
    let mut state = 0x15_0B5;
    let mut s = String::new();
    while s.len() < 1 << 20 {
        s.push_str(&gen_string(&mut state));
    }
    let v = Json::Obj(vec![("args".into(), Json::Str(s))]);
    assert_eq!(parse(&v.to_line()).unwrap(), v);
    assert_eq!(parse(&v.to_pretty()).unwrap(), v);
}
