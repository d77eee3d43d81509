//! One declaration per metric.
//!
//! [`metric_set!`](crate::metric_set) is the only place a metric is
//! written down: struct field, cell kind, exported name, unit, `sampled`
//! when the server's time series carries it, and — as the field's doc
//! comment, which is mandatory — its meaning. The macro generates the
//! struct (plain [`Counter`] / [`Gauge`] / [`Histogram`] fields, reached by
//! field offset as a hand-written struct's are), a `const fn new()` so a
//! set can sit in a `static`, and a [`MetricSet`] impl: the [`Desc`] rows
//! the metrics catalogue is assembled from, and the visitor
//! [`Snapshot::record`](crate::Snapshot::record) walks. Nothing else lists
//! metric names, so a cell cannot exist without a METRICS line, a zero, a
//! catalogue row and a meaning. A value computed at snapshot time is
//! declared the same way: build the set, add to its cell, record it.

use crate::counter::{Counter, Gauge};
use crate::histogram::Histogram;

/// One catalogue row: everything a declaration says about a metric.
#[derive(Debug)]
pub struct Desc {
    /// Exported name; its first dot-separated segment is the layer.
    pub name: &'static str,
    /// `counter` / `gauge` / `histogram`; the snapshot section is the plural.
    pub kind: &'static str,
    /// Unit of the value (`requests`, `bytes`, `us`, …).
    pub unit: &'static str,
    /// The field's doc comment: what the metric means.
    pub help: &'static str,
    /// Whether the server's periodic time series samples it.
    pub sampled: bool,
}

impl Desc {
    /// The layer a metric belongs to: the name's first segment.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A borrowed cell, handed to a [`MetricSet::visit`] callback.
pub enum Cell<'a> {
    /// A counter cell.
    Counter(&'a Counter),
    /// A gauge cell.
    Gauge(&'a Gauge),
    /// A histogram cell.
    Histogram(&'a Histogram),
}

/// A struct of metric cells declared with [`metric_set!`](crate::metric_set).
pub trait MetricSet {
    /// One row per field, in field order.
    const DESCS: &'static [Desc];

    /// Calls `f` with each field's row and cell, in field order.
    fn visit<'a>(&'a self, f: impl FnMut(&'static Desc, Cell<'a>));
}

/// Declares a struct of metric cells; see the [module docs](crate::set).
///
/// ```
/// use tornado_obs::{metric_set, MetricSet};
/// metric_set! {
///     /// What a cache counts.
///     pub struct CacheMetrics {
///         /// Lookups answered from the cache.
///         hits: Counter = "cache.hit", "lookups", sampled;
///         /// Entries resident now.
///         entries: Gauge = "cache.entries", "entries";
///     }
/// }
/// static CACHE: CacheMetrics = CacheMetrics::new();
/// CACHE.hits.inc();
/// assert_eq!(CacheMetrics::DESCS[0].help, "Lookups answered from the cache.");
/// assert_eq!(CacheMetrics::hits, "cache.hit");
/// ```
///
/// `Set::field`, an associated constant beside the field of that name, is
/// its exported name: for reading a metric back out of a document.
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Set:ident {
            $(
                $(#[doc = $help:expr])+
                $field:ident: $Kind:ident = $name:literal, $unit:literal $(, $sampled:ident)?;
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $Set {
            $( $(#[doc = $help])+ pub $field: $crate::$Kind, )*
        }

        impl $Set {
            /// A zeroed set (usable in `static`s).
            $vis const fn new() -> Self {
                Self { $( $field: $crate::$Kind::new(), )* }
            }

            $(
                #[doc(hidden)]
                #[allow(non_upper_case_globals, dead_code)]
                $vis const $field: &'static str = $name;
            )*
        }

        impl $crate::MetricSet for $Set {
            const DESCS: &'static [$crate::set::Desc] = &[ $(
                $crate::set::Desc {
                    name: $name,
                    kind: $crate::metric_set!(@kind $Kind),
                    unit: $unit,
                    help: concat!($($help),+).trim_ascii(),
                    sampled: $crate::metric_set!(@sampled $($sampled)?),
                },
            )* ];

            fn visit<'a>(
                &'a self,
                mut f: impl FnMut(&'static $crate::set::Desc, $crate::set::Cell<'a>),
            ) {
                let mut descs = Self::DESCS.iter();
                $(
                    f(
                        descs.next().expect("one row per field"),
                        $crate::set::Cell::$Kind(&self.$field),
                    );
                )*
            }
        }
    };
    (@kind Counter) => { "counter" };
    (@kind Gauge) => { "gauge" };
    (@kind Histogram) => { "histogram" };
    (@sampled) => { false };
    (@sampled sampled) => { true };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Snapshot;

    metric_set! {
        /// One cell of each kind (the snapshot tests record it too).
        pub(crate) struct Cells {
            /// Patterns searched,
            /// every level.
            trials: Counter = "search.trials", "patterns", sampled;
            /// Worst stripe margin.
            margin: Gauge = "scrub.margin", "devices";
            /// Time per cycle.
            cycle_us: Histogram = "scrub.cycle_us", "us";
            /// Never recorded into: exported empty.
            idle_us: Histogram = "scrub.idle_us", "us";
        }
    }

    static IN_A_STATIC: Cells = Cells::new();

    #[test]
    fn rows_and_visits_follow_the_declaration() {
        let d = &Cells::DESCS[0];
        assert_eq!(
            d.help, "Patterns searched, every level.",
            "help is the doc comment"
        );
        assert_eq!((d.unit, d.sampled, d.layer()), ("patterns", true, "search"));
        assert!(!Cells::DESCS[1].sampled);
        assert_eq!(Cells::cycle_us, "scrub.cycle_us");
        IN_A_STATIC.trials.add(3);
        let mut seen = Vec::new();
        IN_A_STATIC.visit(|desc, cell| {
            seen.push((
                desc.name,
                desc.kind,
                matches!(cell, Cell::Counter(c) if c.get() == 3),
            ));
        });
        let declared = [
            ("search.trials", "counter", true),
            ("scrub.margin", "gauge", false),
            ("scrub.cycle_us", "histogram", false),
            ("scrub.idle_us", "histogram", false),
        ];
        assert_eq!(seen, declared, "field order, from a static");
    }

    #[test]
    fn recording_two_sets_that_share_a_name_adds() {
        let (a, b) = (Cells::new(), Cells::new());
        a.trials.add(2);
        a.margin.set(5);
        a.cycle_us.record(9);
        b.trials.add(40);
        b.margin.set(-1);
        b.cycle_us.record(9);
        let mut snap = Snapshot::new("test", 0);
        snap.record(&a).record(&b);
        let doc = snap.to_json();
        let one_line = crate::Json::Obj(vec![("search.trials".into(), crate::Json::U64(42))]);
        assert_eq!(doc.get("counters"), Some(&one_line));
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("scrub.margin")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        let merged = doc
            .get("histograms")
            .unwrap()
            .get("scrub.cycle_us")
            .unwrap();
        assert_eq!(merged.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(
            snap.sampled(),
            [("search.trials".to_string(), 42)],
            "only what is declared sampled"
        );
    }
}
