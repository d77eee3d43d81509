//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! bounds, per-layer metrics with the workloads whose traced run measures
//! them, and the checks that hold `BENCHMARK.json` and the emitted results
//! to that vocabulary.

use tornado_obs::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub const GET_SMALL: &str = "get_small";
pub const GET_LARGE: &str = "get_large";
pub const GET_LARGE_DEGRADED: &str = "get_large_degraded";
pub const PUT: &str = "put_64k";
pub const REPAIR: &str = "repair";
pub const CERTIFY: &str = "certify";
pub const PROFILE: &str = "profile";

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [&str; 7] = [
    GET_SMALL,
    GET_LARGE,
    GET_LARGE_DEGRADED,
    PUT,
    REPAIR,
    CERTIFY,
    PROFILE,
];

/// The workloads that go through the TCP serving layer.
pub const SERVED: [&str; 4] = [GET_SMALL, GET_LARGE, GET_LARGE_DEGRADED, PUT];
const GETS: [&str; 3] = [GET_SMALL, GET_LARGE, GET_LARGE_DEGRADED];
/// The workloads that read blocks off devices.
const READERS: [&str; 4] = [GET_SMALL, GET_LARGE, GET_LARGE_DEGRADED, REPAIR];
/// The workloads that move block bytes through the codec.
const DATA_PLANE: [&str; 5] = [GET_SMALL, GET_LARGE, GET_LARGE_DEGRADED, PUT, REPAIR];

use Better::{Higher, Lower};

/// One end-to-end metric: reported by every workload's untraced run, gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every time-based metric carries the largest bound the contract allows:
/// the host is shared, and the speed of its cores moves by tens of percent
/// over seconds and minutes (README, "How steady it is").
pub const END_TO_END: [EndToEnd; 4] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("p50_us", "us", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.20),
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric: reported by every workload's traced run, ungated;
/// measured only in the `homes` workloads and 0 elsewhere.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub homes: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    homes: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        homes,
    }
}

pub const PER_LAYER: [PerLayer; 77] = [
    // the whole process: server, workers and clients
    layer("process.cpu_us_per_op", "us", Lower, &WORKLOADS),
    // server: reactor, shard, queue, engine, client
    layer("server.ping_rtt_us", "us", Lower, &[GET_SMALL]),
    layer("server.stat_rtt_us", "us", Lower, &[GET_SMALL]),
    layer("server.wakeups_per_op", "count", Lower, &SERVED),
    layer("server.frames_per_wakeup", "count", Higher, &SERVED),
    layer("server.write_flushes_per_op", "count", Lower, &SERVED),
    layer("server.queue_wait_mean_us", "us", Lower, &SERVED),
    layer("server.queue_depth_peak", "count", Lower, &SERVED),
    layer("server.busy_share", "ratio", Lower, &SERVED),
    layer("server.get_degraded_share", "ratio", Lower, &GETS),
    layer("client.p95_us", "us", Lower, &SERVED),
    layer("client.p99_us", "us", Lower, &SERVED),
    // server::protocol
    layer("protocol.put_frame_64k_us", "us", Lower, &[PUT]),
    layer("protocol.get_reply_1m_us", "us", Lower, &[GET_LARGE]),
    // store
    layer("store.get_4k_us", "us", Lower, &[GET_SMALL]),
    layer("store.get_1m_us", "us", Lower, &[GET_LARGE]),
    layer(
        "store.get_1m_degraded_us",
        "us",
        Lower,
        &[GET_LARGE_DEGRADED],
    ),
    layer("store.put_64k_us", "us", Lower, &[PUT]),
    layer("store.durable_put_p50_us", "us", Lower, &[PUT]),
    layer("store.plan_share", "ratio", Lower, &[GET_LARGE_DEGRADED]),
    layer("store.fetch_share", "ratio", Lower, &[GET_LARGE_DEGRADED]),
    layer("store.decode_share", "ratio", Lower, &[GET_LARGE_DEGRADED]),
    layer("store.recovery_us_per_object", "us", Lower, &[PUT]),
    layer("store.device_bytes_per_user_byte", "ratio", Lower, &READERS),
    layer("store.stored_bytes_per_user_byte", "ratio", Lower, &[PUT]),
    // store::retrieval
    layer("retrieval.plan_healthy_us", "us", Lower, &[GET_SMALL]),
    layer(
        "retrieval.plan_degraded_us",
        "us",
        Lower,
        &[GET_LARGE_DEGRADED],
    ),
    layer("retrieval.plan_repair_us", "us", Lower, &[REPAIR]),
    layer(
        "retrieval.blocks_fetched_degraded",
        "count",
        Lower,
        &[GET_LARGE_DEGRADED],
    ),
    layer(
        "retrieval.devices_contacted_degraded",
        "count",
        Lower,
        &[GET_LARGE_DEGRADED],
    ),
    // store::backend, store::journal
    layer("backend.memory_put_us", "us", Lower, &[GET_LARGE]),
    layer("backend.memory_get_us", "us", Lower, &[GET_LARGE]),
    layer("backend.segment_put_us", "us", Lower, &[PUT]),
    layer("backend.segment_get_us", "us", Lower, &[PUT]),
    layer("backend.file_put_us", "us", Lower, &[PUT]),
    layer("backend.file_get_us", "us", Lower, &[PUT]),
    layer("journal.append_us", "us", Lower, &[PUT]),
    layer("store.journal_appends_per_put", "count", Lower, &[PUT]),
    layer("store.fsyncs_per_put", "count", Lower, &[PUT]),
    layer("store.fsync_put_p50_us", "us", Lower, &[PUT]),
    // store::scrubber
    layer("scrub.rebuilt_mb_per_s", "MB/s", Higher, &[REPAIR]),
    layer("scrub.verify_clean_mb_per_s", "MB/s", Higher, &[REPAIR]),
    layer("scrub.decoded_per_cycle", "count", Lower, &[REPAIR]),
    // codec: block, kernels, pool
    layer("codec.encode_64k_us", "us", Lower, &[PUT]),
    layer("codec.encode_1m_us", "us", Lower, &[PUT]),
    layer("codec.decode4_1m_us", "us", Lower, &[GET_LARGE_DEGRADED]),
    layer("codec.xor_gb_per_s", "GB/s", Higher, &[GET_LARGE]),
    layer("codec.checksum_gb_per_s", "GB/s", Higher, &[GET_LARGE]),
    layer("codec.xor_bytes_per_user_byte", "ratio", Lower, &DATA_PLANE),
    layer(
        "codec.hash_bytes_per_user_byte",
        "ratio",
        Lower,
        &DATA_PLANE,
    ),
    layer("codec.pool_hit_rate", "ratio", Higher, &DATA_PLANE),
    // codec::erasure, sim, bitset
    layer("erasure.sweep_ns_per_pattern", "ns", Lower, &[CERTIFY]),
    layer("erasure.random_ns_per_trial", "ns", Lower, &[PROFILE]),
    layer("sim.prefix_reuse_rate", "ratio", Higher, &[CERTIFY]),
    layer("sim.sample_overhead_share", "ratio", Lower, &[PROFILE]),
    // obs: what switching tracing on costs
    layer("obs.tracing_overhead_frac", "ratio", Lower, &SERVED),
    // traced run: mean self time per op along the program's own span tree
    layer("trace.frame_decode_self_us", "us", Lower, &SERVED),
    layer("trace.queue_wait_self_us", "us", Lower, &SERVED),
    layer("trace.execute_self_us", "us", Lower, &SERVED),
    layer("trace.store_put_self_us", "us", Lower, &[PUT]),
    layer("trace.store_get_self_us", "us", Lower, &GETS),
    layer("trace.retrieval_plan_self_us", "us", Lower, &GETS),
    layer("trace.store_fetch_self_us", "us", Lower, &GETS),
    layer(
        "trace.decode_recover_self_us",
        "us",
        Lower,
        &[GET_LARGE_DEGRADED],
    ),
    layer("trace.request_self_us", "us", Lower, &SERVED),
    layer("trace.client_unattributed_us", "us", Lower, &SERVED),
    layer("trace.coverage", "ratio", Higher, &SERVED),
    layer("trace.spans_dropped", "count", Lower, &SERVED),
    // open-loop saturation probe on the get_small store (ungated: sleep
    // wake-up jitter moves these tails more than any code change does)
    layer("server.open_p50_us.2000", "us", Lower, &[GET_SMALL]),
    layer("server.open_p99_us.2000", "us", Lower, &[GET_SMALL]),
    layer("server.open_late_share.2000", "ratio", Lower, &[GET_SMALL]),
    layer("server.open_p50_us.6000", "us", Lower, &[GET_SMALL]),
    layer("server.open_p99_us.6000", "us", Lower, &[GET_SMALL]),
    layer("server.open_late_share.6000", "ratio", Lower, &[GET_SMALL]),
    layer("server.open_p50_us.10000", "us", Lower, &[GET_SMALL]),
    layer("server.open_p99_us.10000", "us", Lower, &[GET_SMALL]),
    layer("server.open_late_share.10000", "ratio", Lower, &[GET_SMALL]),
];

/// Total open-loop rates of the saturation probe, ops/s.
pub const OPEN_LOOP_RATES: [u32; 3] = [2_000, 6_000, 10_000];

/// By how much `new` is worse than `old`, as a share of `old` (negative when
/// it is better). `old` is never 0: end-to-end metrics are chosen so.
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// One end-to-end metric of one workload that left its bound between two
/// sets of runs.
#[derive(Debug, PartialEq)]
pub struct Violation {
    pub workload: String,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    pub worse_by: f64,
    pub bound: f64,
}

/// Compares two sets of end-to-end values, `(workload, metric, value)`
/// each, and returns every pairing whose second value is worse than its
/// first by more than the metric's bound. A pairing present in only one set
/// is a violation too (reported with NaN for the missing side).
pub fn compare_sets(
    first: &[(String, String, f64)],
    second: &[(String, String, f64)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for m in &END_TO_END {
            let find = |set: &[(String, String, f64)]| {
                set.iter()
                    .find(|(sw, sm, _)| sw == w && sm == m.name)
                    .map(|t| t.2)
            };
            let (a, b) = (find(first), find(second));
            let worse_by = match (a, b) {
                (Some(a), Some(b)) => worsening(m.better, a, b),
                (None, None) => continue,
                _ => f64::NAN,
            };
            if worse_by.is_nan() || worse_by > m.bound {
                out.push(Violation {
                    workload: w.to_string(),
                    metric: m.name,
                    first: a.unwrap_or(f64::NAN),
                    second: b.unwrap_or(f64::NAN),
                    worse_by,
                    bound: m.bound,
                });
            }
        }
    }
    out
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn text<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' is not a string"))
}

/// Checks that `BENCHMARK.json` names exactly this catalogue: the same
/// workloads, the same end-to-end metrics with unit, direction and bound,
/// and the same per-layer metrics with unit and direction.
pub fn check_benchmark_json(doc: &Json) -> Result<(), String> {
    let entries = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(field(doc, key)?
            .as_arr()
            .ok_or_else(|| format!("'{key}' is not an array"))?
            .iter()
            .collect())
    };
    let workloads = entries("workloads")?;
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    if listed != WORKLOADS {
        return Err(format!(
            "workloads {listed:?} differ from the catalogue's {WORKLOADS:?}"
        ));
    }
    let e2e = entries("end_to_end")?;
    if e2e.len() != END_TO_END.len() {
        return Err(format!(
            "{} end_to_end metrics, catalogue has {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    for (got, want) in e2e.iter().zip(&END_TO_END) {
        let bound = field(got, "bound")?
            .as_f64()
            .ok_or("'bound' is not a number")?;
        if text(got, "name")? != want.name
            || text(got, "unit")? != want.unit
            || text(got, "better")? != want.better.as_str()
            || bound != want.bound
        {
            return Err(format!(
                "end_to_end entry {} differs from the catalogue",
                want.name
            ));
        }
    }
    let layers = entries("per_layer")?;
    if layers.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per_layer metrics, catalogue has {}",
            layers.len(),
            PER_LAYER.len()
        ));
    }
    for (got, want) in layers.iter().zip(&PER_LAYER) {
        if text(got, "name")? != want.name
            || text(got, "unit")? != want.unit
            || text(got, "better")? != want.better.as_str()
        {
            return Err(format!(
                "per_layer entry {} differs from the catalogue",
                want.name
            ));
        }
    }
    Ok(())
}

/// Checks one run's result object against the catalogue: the four result
/// keys, and under `metrics` exactly the end-to-end names (`traced` false)
/// or the per-layer names (`traced` true), each with its unit and a finite
/// value.
pub fn check_result(result: &Json, traced: bool) -> Result<(), String> {
    for key in ["correct", "attempted", "failed"] {
        field(result, key)?;
    }
    let Json::Obj(metrics) = field(result, "metrics")? else {
        return Err("'metrics' is not an object".into());
    };
    let expected: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if got != want {
        return Err(format!(
            "metric names {got:?} differ from the catalogue's {want:?}"
        ));
    }
    for ((name, unit), (_, entry)) in expected.iter().zip(metrics) {
        if text(entry, "unit")? != *unit {
            return Err(format!(
                "{name}: unit differs from the catalogue's '{unit}'"
            ));
        }
        let value = field(entry, "value")?
            .as_f64()
            .ok_or_else(|| format!("{name}: value is not a number"))?;
        if !value.is_finite() {
            return Err(format!("{name}: value is not finite"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[(&str, &str, f64)]) -> Vec<(String, String, f64)> {
        values
            .iter()
            .map(|(w, m, v)| (w.to_string(), m.to_string(), *v))
            .collect()
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 1_000.0, 880.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 1_000.0, 1_200.0) + 0.20).abs() < 1e-12);
    }

    #[test]
    fn compare_sets_flags_only_what_left_its_bound() {
        let first = set(&[
            (GET_SMALL, "p50_us", 100.0),
            (GET_SMALL, "ops_per_s", 15_000.0),
            (GET_SMALL, "setup_s", 0.030),
            (GET_SMALL, "peak_rss_mb", 100.0),
            (CERTIFY, "setup_s", 0.20),
            (CERTIFY, "peak_rss_mb", 100.0),
        ]);
        // p50 20 % worse (inside 25 %), throughput 27 % worse (outside),
        // set-up 24 % worse (inside), memory 19 % worse (inside 20 %);
        // set-up 30 % worse (outside 25 %), memory 22 % worse (outside).
        let second = set(&[
            (GET_SMALL, "p50_us", 120.0),
            (GET_SMALL, "ops_per_s", 11_000.0),
            (GET_SMALL, "setup_s", 0.0372),
            (GET_SMALL, "peak_rss_mb", 119.0),
            (CERTIFY, "setup_s", 0.26),
            (CERTIFY, "peak_rss_mb", 122.0),
        ]);
        let v = compare_sets(&first, &second);
        let flagged: Vec<(&str, &str)> =
            v.iter().map(|x| (x.workload.as_str(), x.metric)).collect();
        assert_eq!(
            flagged,
            [
                (GET_SMALL, "ops_per_s"),
                (CERTIFY, "setup_s"),
                (CERTIFY, "peak_rss_mb")
            ]
        );
        assert!(compare_sets(&first, &first).is_empty());
        // An improvement of any size is never a violation.
        let faster = set(&[
            (GET_SMALL, "p50_us", 10.0),
            (GET_SMALL, "ops_per_s", 90_000.0),
        ]);
        assert!(compare_sets(&first[..2], &faster).is_empty());
    }

    #[test]
    fn compare_sets_flags_a_metric_missing_from_one_set() {
        let first = set(&[(PROFILE, "ops_per_s", 600_000.0)]);
        let v = compare_sets(&first, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].second.is_nan());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in WORKLOADS
            .iter()
            .map(|w| (*w, "s"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER
            .iter()
            .all(|m| m.homes.iter().all(|h| WORKLOADS.contains(h))));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = tornado_obs::json::parse(&text).expect("BENCHMARK.json parses");
        check_benchmark_json(&doc).unwrap();
    }

    #[test]
    fn check_result_rejects_a_renamed_metric() {
        let entry = |unit: &str| {
            Json::Obj(vec![
                ("value".into(), Json::F64(1.5)),
                ("unit".into(), Json::Str(unit.into())),
            ])
        };
        let metrics = |rename: bool| {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let name = if rename && m.name == "p50_us" {
                            "p50"
                        } else {
                            m.name
                        };
                        (name.to_string(), entry(m.unit))
                    })
                    .collect(),
            )
        };
        let result = |rename| {
            Json::Obj(vec![
                ("correct".into(), Json::Bool(true)),
                ("attempted".into(), Json::U64(10)),
                ("failed".into(), Json::U64(0)),
                ("metrics".into(), metrics(rename)),
            ])
        };
        check_result(&result(false), false).unwrap();
        assert!(check_result(&result(true), false).is_err());
        assert!(
            check_result(&result(false), true).is_err(),
            "end-to-end names are not the per-layer set"
        );
    }
}
