//! The durability observatory: live §5.1 reliability for a running store.
//!
//! A [`HealthModel`] folds the serving layer's telemetry — which devices
//! are actually offline, scrub outcomes, degraded-read counts — into the
//! same Eq. 2–3 machinery the offline `analysis` crate uses, and
//! publishes the result as a validated `tornado-health-v1` document:
//!
//! * **conditional P(loss)** over a configurable horizon, with the
//!   failure profile seeded by the actually-missing nodes (an empty
//!   fleet-state reproduces the offline `system_failure_probability`
//!   bit for bit, same seed and trial count);
//! * **risk margins** per stripe rotation class — the minimum number of
//!   *additional* device losses until some stripe becomes unrecoverable,
//!   exact up to `margin_cap` for every class, lowest first — with a
//!   "stripes at margin ≤ 1" gauge for dashboards;
//! * an **MTTDL-style** restatement of the composed loss probability and
//!   an effective AFR from observed failure/replacement transitions;
//! * **SLO burn rates** for degraded reads and scrub corruption over
//!   multi-window pairs, with edge-triggered alert events through the
//!   server's [`EventSink`](tornado_obs::EventSink).
//!
//! A document describes the fleet as it is when it is asked for: the model
//! renders one from live state on every HEALTH request and every sampler
//! tick. What costs milliseconds — P(loss) given a set of missing nodes,
//! and that set's risk margin — depends on nothing but the graph, the set
//! and this module's constants, so the model memoizes these *graph facts*
//! by set, and no fleet change, scrub find or PUT can make one stale. A
//! rendering costs one `store.list()` plus memo lookups; only a fleet state
//! the previous rendering had not seen computes a fact. The unit test
//! `recompute_is_event_driven_not_per_request` holds that count exactly:
//! fifty renderings and ticks of an unchanged fleet and a scrub that
//! decodes rot compute nothing, and one new offline set computes once.

use crate::config::HealthConfig;
use crate::obs::ServerObserver;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;
use tornado_analysis::health::{
    conditional_failure_probability, horizon_failure_probability, mttdl_hours, risk_margin,
    ConditionalConfig, HOURS_PER_YEAR,
};
use tornado_graph::Graph;
use tornado_obs::{Json, SloTracker};
use tornado_store::ArchivalStore;

/// Schema tag of the health document.
pub const HEALTH_SCHEMA: &str = "tornado-health-v1";

/// How the conditional P(loss) is measured: Monte-Carlo trials per
/// additional-loss count, the sampling seed, and the deepest count
/// measured (further rows saturate through the profile's monotone
/// completion). The document publishes all three, so an offline
/// recomputation with them matches the live number bit for bit.
pub const CONDITIONAL: ConditionalConfig = ConditionalConfig {
    trials_per_k: 2_000,
    seed: 0x7042_6F72_6E61_646F,
    max_k: 6,
};

/// Risk margins are searched exhaustively up to this many further losses:
/// up to it a margin is exact, past it a class reads `MARGIN_CAP + 1`.
pub const MARGIN_CAP: usize = 2;

struct State {
    /// Graph facts by missing-node set: the entries the latest rendering
    /// used, the healthy baseline (`[]`) among them — at most `n + 1`.
    facts: HashMap<Vec<usize>, Facts>,
    slo_degraded: SloTracker,
    slo_corruption: SloTracker,
    /// The latest tick's rendering, which METRICS embeds.
    latest: Option<Json>,
}

/// What the graph says about one set of missing nodes; each fact is
/// computed the first time a rendering needs it.
#[derive(Default)]
struct Facts {
    /// P(loss) over the horizon with these nodes already lost.
    p_loss: Option<f64>,
    /// `risk_margin` of these nodes at [`MARGIN_CAP`].
    margin: Option<usize>,
}

/// One rendering's pass over the memo: every set it looks up moves from
/// `kept` to `used` (its facts computed on a miss), and `used` becomes the
/// memo afterwards, so what the rendering did not need is dropped.
struct Lookup<'g> {
    graph: &'g Graph,
    p_device: f64,
    kept: HashMap<Vec<usize>, Facts>,
    used: HashMap<Vec<usize>, Facts>,
    computed: bool,
}

impl Lookup<'_> {
    fn facts(&mut self, nodes: &[usize]) -> &mut Facts {
        let kept = &mut self.kept;
        self.used
            .entry(nodes.to_vec())
            .or_insert_with(|| kept.remove(nodes).unwrap_or_default())
    }

    fn p_loss(&mut self, nodes: &[usize]) -> f64 {
        if let Some(p) = self.facts(nodes).p_loss {
            return p;
        }
        let p = conditional_failure_probability(self.graph, nodes, self.p_device, &CONDITIONAL);
        self.facts(nodes).p_loss = Some(p);
        self.computed = true;
        p
    }

    fn margin(&mut self, nodes: &[usize]) -> usize {
        if let Some(m) = self.facts(nodes).margin {
            return m;
        }
        let m = risk_margin(self.graph, nodes, MARGIN_CAP);
        self.facts(nodes).margin = Some(m);
        self.computed = true;
        m
    }
}

tornado_obs::metric_set! {
    /// What the observatory counts about itself. Present only on a server
    /// started with [`HealthConfig::enabled`].
    pub struct HealthMetrics {
        /// Renderings that computed a graph fact: a fleet state the previous rendering had not seen.
        recomputes: Counter = "health.recomputes", "recomputes", sampled;
        /// Burn-rate alert firings, both SLOs, fire edges only.
        alerts: Counter = "health.alerts", "alerts", sampled;
        /// Wall time of each rendering that computed a graph fact.
        recompute_us: Histogram = "health.recompute_us", "us";
    }
}

/// The live durability model. One per server; shared via
/// [`ServerObserver::health`](crate::obs::ServerObserver).
pub struct HealthModel {
    config: HealthConfig,
    /// The observatory's own cells.
    pub metrics: HealthMetrics,
    state: Mutex<State>,
}

impl HealthModel {
    /// Builds an idle model; nothing is computed until the first tick or
    /// HEALTH request.
    pub fn new(config: HealthConfig) -> Self {
        let state = State {
            facts: HashMap::new(),
            latest: None,
            slo_degraded: SloTracker::new(
                "degraded_reads",
                config.degraded_read_objective,
                config.slo_windows.clone(),
            ),
            slo_corruption: SloTracker::new(
                "scrub_corruption",
                config.corruption_objective,
                config.slo_windows.clone(),
            ),
        };
        Self {
            config,
            metrics: HealthMetrics::new(),
            state: Mutex::new(state),
        }
    }

    /// Periodic drive, called from the server's sampler thread: renders
    /// the document and keeps it for [`HealthModel::latest`].
    pub fn tick(&self, store: &ArchivalStore, obs: &ServerObserver, now_ms: u64) {
        let mut st = self.state();
        let doc = self.render(&mut st, store, obs, now_ms);
        st.latest = Some(doc);
    }

    /// The document for the fleet as it is now (a HEALTH request).
    pub fn document(&self, store: &ArchivalStore, obs: &ServerObserver, now_ms: u64) -> Json {
        self.render(&mut self.state(), store, obs, now_ms)
    }

    /// The latest tick's document, if the sampler has ticked (no store
    /// access — the METRICS snapshot embeds this).
    pub fn latest(&self) -> Option<Json> {
        self.state().latest.clone()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("health state: a rendering panicked holding it")
    }

    /// Feeds the SLO trackers and emits their alert transitions, then
    /// builds the document from live state and memoized graph facts.
    fn render(
        &self,
        st: &mut State,
        store: &ArchivalStore,
        obs: &ServerObserver,
        now_ms: u64,
    ) -> Json {
        let t0 = Instant::now();
        let (bad_reads, reads) = (obs.degraded_reads.get(), obs.gets.get());
        let decoded = obs.store_obs.stripes_decoded.get();
        let checked = obs.store_obs.stripes_verified.get() + decoded;
        st.slo_degraded.record(now_ms, bad_reads, reads);
        st.slo_corruption.record(now_ms, decoded, checked);
        let mut transitions = st.slo_degraded.evaluate(now_ms);
        transitions.extend(st.slo_corruption.evaluate(now_ms));
        for a in &transitions {
            if a.firing {
                self.metrics.alerts.inc();
            }
            obs.events.emit(
                "slo.burn_rate",
                &[
                    ("slo", Json::Str(a.slo.clone())),
                    ("window", Json::Str(a.window.clone())),
                    ("firing", Json::Bool(a.firing)),
                    ("burn_short", Json::F64(a.burn_short)),
                    ("burn_long", Json::F64(a.burn_long)),
                    ("threshold", Json::F64(a.threshold)),
                ],
            );
        }

        let n = store.num_devices();
        let offline = store.offline_devices();
        let mut memo = Lookup {
            graph: store.graph(),
            p_device: horizon_failure_probability(self.config.afr, self.config.horizon_hours),
            kept: std::mem::take(&mut st.facts),
            used: HashMap::new(),
            computed: false,
        };
        let healthy = memo.p_loss(&[]);
        // Fleet-level estimate: the identity rotation class (node index ==
        // device index). The full per-class picture is in `margins`.
        let p_loss = memo.p_loss(&offline);

        // Rotation classes: stripes whose offline *nodes* coincide share
        // one margin computation. Healthy fleets collapse to one class.
        let metas = store.list();
        let mut classes: BTreeMap<Vec<usize>, u64> = BTreeMap::new();
        for meta in &metas {
            let rot = meta.rotation % n;
            let mut nodes: Vec<usize> = offline.iter().map(|&d| (d + n - rot) % n).collect();
            nodes.sort_unstable();
            *classes.entry(nodes).or_insert(0) += 1;
        }
        if classes.is_empty() {
            classes.insert(offline.clone(), 0);
        }
        // Every class's margin, exact up to the cap; lowest margin first
        // (the order repair should take them in), then the most stripes.
        let cap = MARGIN_CAP;
        let mut ranked: Vec<(usize, Vec<usize>, u64)> = classes
            .into_iter()
            .map(|(missing, stripes)| (memo.margin(&missing), missing, stripes))
            .collect();
        let (p_device, computed) = (memo.p_device, memo.computed);
        st.facts = memo.used;
        ranked.sort_by_key(|&(margin, _, stripes)| (margin, std::cmp::Reverse(stripes)));
        let min_margin = ranked[0].0;
        let stripes_total: u64 = ranked.iter().map(|&(_, _, stripes)| stripes).sum();
        let stripes_at_risk: u64 = ranked
            .iter()
            .filter(|c| c.0 <= 1)
            .map(|&(_, _, stripes)| stripes)
            .sum();
        let rows = ranked
            .iter()
            .take(8)
            .map(|(margin, missing, stripes)| {
                Json::Obj(vec![
                    (
                        "missing_nodes".into(),
                        Json::Arr(missing.iter().map(|&d| Json::U64(d as u64)).collect()),
                    ),
                    ("stripes".into(), Json::U64(*stripes)),
                    ("margin".into(), Json::U64(*margin as u64)),
                    ("exact".into(), Json::Bool(*margin <= cap)),
                ])
            })
            .collect();

        let failures = device_stat(store, |s| s.failures);
        let elapsed_hours = now_ms as f64 / 3_600_000.0;
        let device_hours = n as f64 * elapsed_hours;
        let effective_afr = if failures == 0 || device_hours <= 0.0 {
            0.0
        } else {
            1.0 - (-(failures as f64 / device_hours) * HOURS_PER_YEAR).exp()
        };

        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(HEALTH_SCHEMA.into())),
            ("generated_ms".into(), Json::U64(now_ms)),
            (
                "fleet".into(),
                Json::Obj(vec![
                    ("devices".into(), Json::U64(n as u64)),
                    ("offline".into(), Json::U64(offline.len() as u64)),
                    (
                        "offline_devices".into(),
                        Json::Arr(offline.iter().map(|&d| Json::U64(d as u64)).collect()),
                    ),
                    (
                        "io_errors".into(),
                        Json::U64(device_stat(store, |s| s.io_errors)),
                    ),
                    (
                        "failed_writes".into(),
                        Json::U64(device_stat(store, |s| s.failed_writes)),
                    ),
                    ("pool_epoch".into(), Json::U64(store.pool_epoch())),
                ]),
            ),
            (
                "reliability".into(),
                Json::Obj(vec![
                    ("afr".into(), Json::F64(self.config.afr)),
                    ("horizon_hours".into(), Json::F64(self.config.horizon_hours)),
                    ("p_device_horizon".into(), Json::F64(p_device)),
                    ("p_loss".into(), Json::F64(p_loss)),
                    ("p_loss_healthy".into(), Json::F64(healthy)),
                    (
                        "mttdl_hours".into(),
                        finite_or_null(mttdl_hours(p_loss, self.config.horizon_hours)),
                    ),
                    (
                        "missing_nodes".into(),
                        Json::Arr(offline.iter().map(|&d| Json::U64(d as u64)).collect()),
                    ),
                    ("trials_per_k".into(), Json::U64(CONDITIONAL.trials_per_k)),
                    ("seed".into(), Json::U64(CONDITIONAL.seed)),
                    ("max_k".into(), Json::U64(CONDITIONAL.max_k as u64)),
                ]),
            ),
            (
                "margins".into(),
                Json::Obj(vec![
                    ("min_margin".into(), Json::U64(min_margin as u64)),
                    ("min_margin_exact".into(), Json::Bool(min_margin <= cap)),
                    ("margin_cap".into(), Json::U64(cap as u64)),
                    ("classes".into(), Json::U64(ranked.len() as u64)),
                    ("stripes_total".into(), Json::U64(stripes_total)),
                    ("stripes_at_margin_le_1".into(), Json::U64(stripes_at_risk)),
                    ("per_class".into(), Json::Arr(rows)),
                ]),
            ),
            (
                "bitrot".into(),
                Json::Obj(vec![
                    ("stripes_checked".into(), Json::U64(checked)),
                    ("corrupt_stripes".into(), Json::U64(decoded)),
                    (
                        "corruption_rate".into(),
                        Json::F64(if checked == 0 {
                            0.0
                        } else {
                            decoded as f64 / checked as f64
                        }),
                    ),
                    (
                        "blocks_repaired".into(),
                        Json::U64(obs.store_obs.blocks_repaired.get()),
                    ),
                ]),
            ),
            (
                "slo".into(),
                Json::Obj(vec![
                    (
                        "degraded_reads".into(),
                        slo_json(&st.slo_degraded, bad_reads, reads, now_ms),
                    ),
                    (
                        "scrub_corruption".into(),
                        slo_json(&st.slo_corruption, decoded, checked, now_ms),
                    ),
                ]),
            ),
            (
                "observed".into(),
                Json::Obj(vec![
                    ("failures".into(), Json::U64(failures)),
                    (
                        "replacements".into(),
                        Json::U64(device_stat(store, |s| s.replacements)),
                    ),
                    ("elapsed_hours".into(), Json::F64(elapsed_hours)),
                    ("effective_afr".into(), Json::F64(effective_afr)),
                ]),
            ),
            (
                "recompute".into(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(self.metrics.recomputes.get())),
                    (
                        "total_us".into(),
                        Json::U64(self.metrics.recompute_us.sum()),
                    ),
                ]),
            ),
        ]);

        if computed {
            let us = t0.elapsed().as_micros() as u64;
            self.metrics.recomputes.inc();
            self.metrics.recompute_us.record(us);
            obs.events.emit(
                "health.recompute",
                &[
                    ("us", Json::U64(us)),
                    ("offline", Json::U64(offline.len() as u64)),
                    ("p_loss", Json::F64(p_loss)),
                    ("min_margin", Json::U64(min_margin as u64)),
                ],
            );
        }
        doc
    }
}

fn device_stat(store: &ArchivalStore, f: impl Fn(&tornado_store::DeviceStats) -> u64) -> u64 {
    (0..store.num_devices())
        .filter_map(|d| store.device(d).ok())
        .map(|d| f(&d.stats()))
        .sum()
}

fn finite_or_null(v: f64) -> Json {
    if v.is_finite() {
        Json::F64(v)
    } else {
        Json::Null
    }
}

fn slo_json(t: &SloTracker, bad: u64, total: u64, now_ms: u64) -> Json {
    let windows = t
        .readings(now_ms)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("label".into(), Json::Str(r.label)),
                ("burn_short".into(), Json::F64(r.short)),
                ("burn_long".into(), Json::F64(r.long)),
                ("threshold".into(), Json::F64(r.threshold)),
                ("firing".into(), Json::Bool(r.firing)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("objective".into(), Json::F64(t.objective())),
        ("bad".into(), Json::U64(bad)),
        ("total".into(), Json::U64(total)),
        ("alerts_total".into(), Json::U64(t.alerts_total())),
        ("windows".into(), Json::Arr(windows)),
    ])
}

/// Validates a `tornado-health-v1` document: schema tag, the required
/// sections, and basic invariants (probabilities in range, offline list
/// consistent with its count, margins a cap can produce). Unknown keys are ignored everywhere, so
/// the schema can grow without breaking old validators.
pub fn validate_health(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(HEALTH_SCHEMA) => {}
        Some(other) => return Err(format!("schema {other:?}, expected {HEALTH_SCHEMA:?}")),
        None => return Err("missing schema".into()),
    }
    let fleet = doc.get("fleet").ok_or("missing fleet section")?;
    let devices = fleet
        .get("devices")
        .and_then(Json::as_u64)
        .ok_or("fleet.devices must be a u64")?;
    let offline = fleet
        .get("offline")
        .and_then(Json::as_u64)
        .ok_or("fleet.offline must be a u64")?;
    if offline > devices {
        return Err(format!("{offline} offline devices out of {devices}"));
    }
    let listed = fleet
        .get("offline_devices")
        .and_then(Json::as_arr)
        .ok_or("fleet.offline_devices must be an array")?;
    if listed.len() as u64 != offline {
        return Err(format!(
            "offline_devices lists {} devices, fleet.offline says {offline}",
            listed.len()
        ));
    }
    let rel = doc
        .get("reliability")
        .ok_or("missing reliability section")?;
    for key in ["p_loss", "p_loss_healthy"] {
        let p = rel
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("reliability.{key} must be a number"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("reliability.{key} = {p} is not a probability"));
        }
    }
    match rel.get("mttdl_hours") {
        Some(Json::Null) | None => {}
        Some(v) => {
            let m = v
                .as_f64()
                .ok_or("reliability.mttdl_hours must be a number or null")?;
            if m < 0.0 {
                return Err(format!("reliability.mttdl_hours = {m} is negative"));
            }
        }
    }
    let margins = doc.get("margins").ok_or("missing margins section")?;
    let margin_u64 = |key: &str| {
        margins
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("margins.{key} must be a u64"))
    };
    let min_margin = margin_u64("min_margin")?;
    let cap = margin_u64("margin_cap")?;
    let stripes_total = margin_u64("stripes_total")?;
    let at_risk = margin_u64("stripes_at_margin_le_1")?;
    // A margin is exact up to the cap and reads `cap + 1` ("> cap") past it.
    if min_margin > cap.saturating_add(1) {
        return Err(format!(
            "margins.min_margin {min_margin} exceeds margin_cap + 1 ({cap} + 1)"
        ));
    }
    if at_risk > stripes_total {
        return Err(format!(
            "{at_risk} stripes at margin <= 1 out of {stripes_total}"
        ));
    }
    let Some(&Json::Bool(exact)) = margins.get("min_margin_exact") else {
        return Err("margins.min_margin_exact must be a bool".into());
    };
    if exact != (min_margin <= cap) {
        return Err(format!(
            "margins.min_margin_exact is {exact} for min_margin {min_margin} at margin_cap {cap}"
        ));
    }
    let rows = margins
        .get("per_class")
        .and_then(Json::as_arr)
        .ok_or("margins.per_class must be an array")?;
    for row in rows {
        let margin = row
            .get("margin")
            .and_then(Json::as_u64)
            .ok_or("margins.per_class margin must be a u64")?;
        if margin < min_margin {
            return Err(format!(
                "a per_class margin of {margin} is below min_margin {min_margin}"
            ));
        }
    }
    let slo = doc.get("slo").ok_or("missing slo section")?;
    let Json::Obj(entries) = slo else {
        return Err("slo must be an object".into());
    };
    if entries.is_empty() {
        return Err("slo section is empty".into());
    }
    for (name, entry) in entries {
        entry
            .get("objective")
            .and_then(Json::as_f64)
            .filter(|o| *o > 0.0)
            .ok_or_else(|| format!("slo.{name}.objective must be positive"))?;
        let windows = entry
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("slo.{name}.windows must be an array"))?;
        for w in windows {
            for key in ["burn_short", "burn_long", "threshold"] {
                w.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("slo.{name} window missing {key}"))?;
            }
            if !matches!(w.get("firing"), Some(Json::Bool(_))) {
                return Err(format!("slo.{name} window missing firing flag"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HealthConfig;
    use tornado_obs::slo::BurnWindow;

    fn test_config() -> HealthConfig {
        HealthConfig {
            slo_windows: vec![BurnWindow {
                label: "fast".into(),
                short_ms: 500,
                long_ms: 2_000,
                threshold: 2.0,
            }],
            ..HealthConfig::default()
        }
    }

    fn store_with_objects(n_objects: usize) -> ArchivalStore {
        let graph = tornado_gen::mirror::generate_mirror(8).unwrap();
        let store = ArchivalStore::new(graph);
        for i in 0..n_objects {
            store.put(&format!("obj-{i}"), &vec![i as u8; 600]).unwrap();
        }
        store
    }

    #[test]
    fn healthy_document_validates_and_matches_offline_baseline() {
        let store = store_with_objects(3);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        let doc = model.document(&store, &obs, 1_000);
        validate_health(&doc).unwrap();
        let rel = doc.get("reliability").unwrap();
        assert_eq!(
            rel.get("p_loss").unwrap().as_f64(),
            rel.get("p_loss_healthy").unwrap().as_f64(),
            "healthy fleet: live == offline baseline"
        );
        assert_eq!(
            doc.get("fleet").unwrap().get("offline").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn failing_devices_raises_p_loss_and_drops_margins() {
        let store = store_with_objects(4);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        let healthy_doc = model.document(&store, &obs, 1_000);
        let healthy_margin = healthy_doc
            .get("margins")
            .unwrap()
            .get("min_margin")
            .unwrap()
            .as_u64()
            .unwrap();
        store.fail_device(0).unwrap();
        let doc = model.document(&store, &obs, 2_000);
        validate_health(&doc).unwrap();
        let rel = doc.get("reliability").unwrap();
        let p_loss = rel.get("p_loss").unwrap().as_f64().unwrap();
        let healthy = rel.get("p_loss_healthy").unwrap().as_f64().unwrap();
        assert!(
            p_loss > healthy,
            "conditional {p_loss} must exceed healthy {healthy}"
        );
        let margins = doc.get("margins").unwrap();
        let min_margin = margins.get("min_margin").unwrap().as_u64().unwrap();
        assert!(
            min_margin < healthy_margin,
            "margin must drop after a failure"
        );
        // On a mirror, one lost node leaves its partner as the single
        // point of failure: margin 1, and every stripe is at risk.
        assert_eq!(min_margin, 1);
        assert_eq!(
            margins.get("stripes_at_margin_le_1").unwrap().as_u64(),
            margins.get("stripes_total").unwrap().as_u64(),
        );
    }

    #[test]
    fn conditional_p_loss_matches_offline_recomputation() {
        // The acceptance bar: an offline analysis run with the same
        // erasure pattern and parameters reproduces the live number.
        let store = store_with_objects(2);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        store.fail_device(2).unwrap();
        let doc = model.document(&store, &obs, 500);
        let rel = doc.get("reliability").unwrap();
        let live = rel.get("p_loss").unwrap().as_f64().unwrap();
        let missing: Vec<usize> = rel
            .get("missing_nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap() as usize)
            .collect();
        let cfg = test_config();
        let offline = conditional_failure_probability(
            store.graph(),
            &missing,
            horizon_failure_probability(cfg.afr, cfg.horizon_hours),
            &CONDITIONAL,
        );
        assert!(
            (live - offline).abs() <= 1e-12,
            "live {live} vs offline {offline}"
        );
        // The document carries the recipe it was computed with.
        let recipe = ["trials_per_k", "seed", "max_k"].map(|k| rel.get(k).unwrap().as_u64());
        let (t, s, k) = (
            CONDITIONAL.trials_per_k,
            CONDITIONAL.seed,
            CONDITIONAL.max_k,
        );
        assert_eq!(recipe, [Some(t), Some(s), Some(k as u64)]);
    }

    /// A store's first object with its node-0 block flipped on disk.
    fn rot_one_block(store: &ArchivalStore) {
        let meta = &store.list()[0].clone();
        let device = store.device(store.device_of_block(meta, 0)).unwrap();
        assert!(device.corrupt_block(&(meta.id, 0), 0x5A));
    }

    #[test]
    fn recompute_is_event_driven_not_per_request() {
        let store = store_with_objects(2);
        let obs = ServerObserver::disabled();
        store.set_observer(std::sync::Arc::clone(&obs.store_obs));
        let model = HealthModel::new(test_config());
        let _ = model.document(&store, &obs, 100);
        assert_eq!(model.metrics.recomputes.get(), 1);
        for t in 0..50 {
            let _ = model.document(&store, &obs, 200 + t);
            model.tick(&store, &obs, 200 + t);
        }
        assert_eq!(
            model.metrics.recomputes.get(),
            1,
            "an unchanged fleet renders from the memo"
        );
        // A scrub that finds rot and decodes changes no graph fact.
        rot_one_block(&store);
        let scrub = tornado_store::Scrubber::new(1);
        let outcome = scrub.run(&store, 2, false, tornado_store::ScrubMode::Verify);
        assert_eq!(outcome.decoded_count(), 1);
        let doc = model.document(&store, &obs, 300);
        let bitrot = doc.get("bitrot").unwrap();
        assert_eq!(bitrot.get("corrupt_stripes").unwrap().as_u64(), Some(1));
        assert_eq!(model.metrics.recomputes.get(), 1, "a scrub find is no fact");
        store.fail_device(1).unwrap();
        let _ = model.document(&store, &obs, 400);
        assert_eq!(
            model.metrics.recomputes.get(),
            2,
            "a new offline set computes once"
        );
        let _ = model.document(&store, &obs, 401);
        assert_eq!(model.metrics.recomputes.get(), 2);
    }

    #[test]
    fn an_alert_is_firing_in_the_next_document_without_a_tick() {
        let store = store_with_objects(1);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        let firing = |doc: &Json| {
            let slo = doc.get("slo").unwrap().get("degraded_reads").unwrap();
            slo.get("windows").unwrap().as_arr().unwrap()[0].get("firing")
                == Some(&Json::Bool(true))
        };
        assert!(!firing(&model.document(&store, &obs, 0)));
        // Half the GETs since degraded against a 5% objective: burn 10 > 2
        // over both windows.
        obs.gets.add(100);
        obs.degraded_reads.add(50);
        let doc = model.document(&store, &obs, 600);
        assert!(firing(&doc), "{}", doc.to_pretty());
        assert_eq!(model.metrics.alerts.get(), 1);
        assert!(model.latest().is_none(), "no tick ran");
    }

    #[test]
    fn stripe_counts_follow_puts_immediately() {
        let store = store_with_objects(3);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        let total = |doc: Json| doc.get("margins")?.get("stripes_total")?.as_u64();
        assert_eq!(total(model.document(&store, &obs, 10)), Some(3));
        store.put("one-more", b"payload").unwrap();
        assert_eq!(total(model.document(&store, &obs, 11)), Some(4));
    }

    #[test]
    fn a_fail_and_a_replace_between_two_ticks_are_both_observed() {
        let store = store_with_objects(2);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        model.tick(&store, &obs, 0);
        store.fail_device(3).unwrap();
        store.replace_device(3).unwrap();
        model.tick(&store, &obs, 500);
        let doc = model.latest().unwrap();
        let observed = doc.get("observed").unwrap();
        assert_eq!(observed.get("failures").unwrap().as_u64(), Some(1));
        assert_eq!(observed.get("replacements").unwrap().as_u64(), Some(1));
        assert!(observed.get("effective_afr").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn burn_rate_alert_fires_through_tick() {
        let store = store_with_objects(1);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        // 50% of GETs degraded against a 5% objective: burn 10 > 2.
        for s in 0..10u64 {
            obs.gets.add(100);
            obs.degraded_reads.add(50);
            model.tick(&store, &obs, s * 250);
        }
        assert!(model.metrics.alerts.get() >= 1, "sustained burn must fire");
        let doc = model.document(&store, &obs, 3_000);
        let slo = doc.get("slo").unwrap().get("degraded_reads").unwrap();
        assert!(slo.get("alerts_total").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_health(&Json::Obj(vec![])).is_err());
        let store = store_with_objects(1);
        let obs = ServerObserver::disabled();
        let model = HealthModel::new(test_config());
        let doc = model.document(&store, &obs, 100);
        validate_health(&doc).unwrap();
        // Corrupt one invariant: offline count vs list length.
        let Json::Obj(mut fields) = doc else { panic!() };
        for (k, v) in &mut fields {
            if k == "fleet" {
                if let Json::Obj(f) = v {
                    for (fk, fv) in f.iter_mut() {
                        if fk == "offline" {
                            *fv = Json::U64(3);
                        }
                    }
                }
            }
        }
        assert!(validate_health(&Json::Obj(fields)).is_err());
    }

    /// `doc` with `margins.<key>` replaced by `value`.
    fn with_margin(doc: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(mut fields) = doc.clone() else {
            panic!("document is an object")
        };
        for (k, v) in &mut fields {
            if let (true, Json::Obj(margins)) = (k == "margins", v) {
                margins
                    .iter_mut()
                    .filter(|(mk, _)| mk == key)
                    .for_each(|(_, mv)| *mv = value.clone());
            }
        }
        Json::Obj(fields)
    }

    #[test]
    fn validator_rejects_impossible_margins() {
        // A healthy mirror of 8 pairs: min_margin 2 at cap 2, one stripe.
        let store = store_with_objects(1);
        let doc =
            HealthModel::new(test_config()).document(&store, &ServerObserver::disabled(), 100);
        validate_health(&doc).unwrap();
        let margin_row = Json::Arr(vec![Json::Obj(vec![("margin".into(), Json::U64(1))])]);
        let corruptions = [
            ("min_margin", Json::U64(4), "exceeds margin_cap + 1"),
            (
                "stripes_at_margin_le_1",
                Json::U64(2),
                "stripes at margin <= 1 out of 1",
            ),
            (
                "min_margin_exact",
                Json::Bool(false),
                "min_margin_exact is false",
            ),
            ("per_class", margin_row, "below min_margin 2"),
        ];
        for (key, value, want) in corruptions {
            let err = validate_health(&with_margin(&doc, key, value)).unwrap_err();
            assert!(err.contains(want), "{key}: {err}");
        }
    }

    /// Graph 1 holding `objects` small stripes (rotations `0..objects`
    /// mod 96) with `devices` offline.
    fn graph_1_store(objects: usize, devices: &[usize]) -> ArchivalStore {
        let store = ArchivalStore::new(tornado_core::tornado_graph_1());
        for i in 0..objects {
            store.put(&format!("obj-{i}"), &[i as u8; 64]).unwrap();
        }
        for &d in devices {
            store.fail_device(d).unwrap();
        }
        store
    }

    fn margin_rows(doc: &Json) -> Vec<(u64, u64)> {
        let margins = doc.get("margins").unwrap();
        margins
            .get("per_class")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.get("margin").unwrap().as_u64().unwrap(),
                    r.get("stripes").unwrap().as_u64().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn every_class_margin_is_exact_and_the_lowest_come_first() {
        let obs = ServerObserver::disabled();
        // Four devices down: every one of the 96 classes survives any two
        // more losses, so each reads "> 2".
        let store = graph_1_store(128, &[7, 29, 55, 88]);
        let model = HealthModel::new(test_config());
        let doc = model.document(&store, &obs, 100);
        validate_health(&doc).unwrap();
        let margins = doc.get("margins").unwrap();
        assert_eq!(margins.get("classes").unwrap().as_u64(), Some(96));
        assert_eq!(margins.get("min_margin").unwrap().as_u64(), Some(3));
        assert_eq!(margins.get("min_margin_exact"), Some(&Json::Bool(false)));
        assert!(
            margin_rows(&doc).iter().all(|&(m, _)| m == 3),
            "{:?}",
            margin_rows(&doc)
        );
        // The memo holds what that rendering used: 96 classes, the offline
        // set among them, and the healthy baseline — n + 1 entries.
        let memo_len = || model.state.lock().unwrap().facts.len();
        assert_eq!(memo_len(), 97);
        for d in [7, 29, 55, 88] {
            store.replace_device(d).unwrap();
        }
        let _ = model.document(&store, &obs, 200);
        assert_eq!(memo_len(), 1, "a healthy fleet uses the baseline alone");

        // Devices 3, 17 and 84: rotation 82 puts them on nodes [2, 17, 31],
        // three of the certified failing 5-set [2, 5, 10, 17, 31] — a class
        // at exact margin 2 holding only the one stripe it listed first.
        let store = graph_1_store(128, &[3, 17, 84]);
        let doc = HealthModel::new(test_config()).document(&store, &obs, 100);
        validate_health(&doc).unwrap();
        let margins = doc.get("margins").unwrap();
        assert_eq!(margins.get("min_margin").unwrap().as_u64(), Some(2));
        assert_eq!(margins.get("min_margin_exact"), Some(&Json::Bool(true)));
        let rows = margin_rows(&doc);
        assert_eq!(rows[0], (2, 1), "{rows:?}");
        let first = &margins.get("per_class").unwrap().as_arr().unwrap()[0];
        let nodes: Vec<u64> = first
            .get("missing_nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(nodes, [2, 17, 31]);
        assert!(rows[1..].iter().all(|&(m, _)| m == 3), "{rows:?}");
        assert!(
            rows[1..].windows(2).all(|w| w[0].1 >= w[1].1),
            "then by stripe count: {rows:?}"
        );
    }

    #[test]
    fn exact_margins_bound_the_scrubbers_from_above() {
        // The scrubber's margin is `first_failure_level − missing`, §6's
        // distance to the initial failure point; graph 1 survives any four
        // losses, so it is a lower bound on the exact margin HEALTH reports.
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use tornado_store::{ScrubMode, Scrubber};
        const FIRST_FAILURE: usize = 5;
        let cap = MARGIN_CAP;
        let mut rng = SmallRng::seed_from_u64(25);
        for failed in [2, 4, 6] {
            let mut devices: Vec<usize> = (0..96).collect();
            devices.shuffle(&mut rng);
            devices.truncate(failed);
            let store = graph_1_store(40, &devices);
            let outcome = Scrubber::new(1).run(&store, FIRST_FAILURE, false, ScrubMode::Verify);
            let mut min_exact = usize::MAX;
            for stripe in &outcome.stripes {
                let mut missing: Vec<usize> =
                    stripe.missing_blocks.iter().map(|&v| v as usize).collect();
                missing.sort_unstable();
                let exact = risk_margin(store.graph(), &missing, cap);
                min_exact = min_exact.min(exact);
                let bound = stripe.margin.clamp(0, cap as i64 + 1) as usize;
                assert!(
                    exact.min(cap + 1) >= bound,
                    "devices {devices:?}, stripe {stripe:?}: exact {exact}"
                );
            }
            let doc =
                HealthModel::new(test_config()).document(&store, &ServerObserver::disabled(), 100);
            let published = doc
                .get("margins")
                .unwrap()
                .get("min_margin")
                .unwrap()
                .as_u64();
            assert_eq!(
                published,
                Some(min_exact as u64),
                "HEALTH's min_margin is the stripes' least"
            );
        }
    }
}
