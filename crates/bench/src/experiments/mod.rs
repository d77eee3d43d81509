//! One module per experiment, and the registry [`ALL`] that `run_all`
//! runs. Every `run` takes an [`Effort`] and returns the finished report
//! (text suitable for EXPERIMENTS.md; the last three, the engineering
//! measurements, add it as data) after asserting its own floors.

use crate::harness::Report;
use crate::Effort;

pub(crate) mod degree_sweep;
pub mod eq1;
pub(crate) mod fed_profile;
pub(crate) mod fig3_table1;
pub(crate) mod fig4_table2;
pub(crate) mod fig5_table3;
pub(crate) mod fig6_table4;
pub(crate) mod plank_overhead;
pub(crate) mod repair_bandwidth;
pub mod retrieval;
pub(crate) mod rs_comparison;
pub(crate) mod scrub_sweep;
pub(crate) mod server_scale;
pub(crate) mod size_sweep;
pub mod table5;
pub mod table6;
pub(crate) mod table7;

/// One experiment: the name `run_all` selects it by (and, when it returns
/// data, the `BENCH_<name>.json` it owns), a display title, and its entry
/// point.
pub struct Experiment {
    /// The word on the `run_all` command line.
    pub name: &'static str,
    /// What the timing table calls it.
    pub title: &'static str,
    /// Runs it, asserting its floors.
    pub run: fn(&Effort) -> Report,
}

impl Experiment {
    /// Its line of `run_all --list`, which EXPERIMENTS.md quotes verbatim.
    pub fn list_line(&self) -> String {
        format!("{:<18} {}", self.name, self.title)
    }
}

/// Every experiment, in paper order: §3–§5 artefacts, the ablations, then
/// the engineering measurements.
#[rustfmt::skip]
pub const ALL: &[Experiment] = &[
    Experiment { name: "eq1", title: "Eq. 1 validation", run: |e| eq1::run(e).into() },
    Experiment { name: "fig3_table1", title: "Figure 3 + Table 1", run: |e| fig3_table1::run(e).into() },
    Experiment { name: "fig4_table2", title: "Figure 4 + Table 2", run: |e| fig4_table2::run(e).into() },
    Experiment { name: "fig5_table3", title: "Figure 5 + Table 3", run: |e| fig5_table3::run(e).into() },
    Experiment { name: "fig6_table4", title: "Figure 6 + Table 4", run: |e| fig6_table4::run(e).into() },
    Experiment { name: "table5", title: "Table 5", run: |e| table5::run(e).into() },
    Experiment { name: "table6", title: "Table 6", run: |e| table6::run(e).into() },
    Experiment { name: "table7", title: "Table 7", run: |e| table7::run(e).into() },
    Experiment { name: "retrieval", title: "Guided retrieval ablation", run: |e| retrieval::run(e).into() },
    Experiment { name: "degree_sweep", title: "Degree sweep ablation", run: |e| degree_sweep::run(e).into() },
    Experiment { name: "plank_overhead", title: "Incremental overhead (Plank metric)", run: |e| plank_overhead::run(e).into() },
    Experiment { name: "scrub_sweep", title: "Scrub-interval sweep", run: |e| scrub_sweep::run(e).into() },
    Experiment { name: "size_sweep", title: "Size sweep (Plank regime)", run: |e| size_sweep::run(e).into() },
    Experiment { name: "fed_profile", title: "Federated failure profiles", run: |e| fed_profile::run(e).into() },
    Experiment { name: "rs_comparison", title: "Tornado vs Reed-Solomon time (§2.1)", run: rs_comparison::run },
    Experiment { name: "repair_bandwidth", title: "Repair-bandwidth bake-off", run: repair_bandwidth::run },
    Experiment { name: "server_scale", title: "Event-loop connection scaling", run: server_scale::run },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{bench_file, envelope, SCHEMA};
    use tornado_obs::json;

    /// The experiment that boots servers and drives them for seconds;
    /// CI's `run_all --quick` covers it. It returns data.
    const BOOTS_SERVERS: [&str; 1] = ["server_scale"];

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
        assert!(BOOTS_SERVERS.iter().all(|n| names.contains(n)));
    }

    /// Every experiment runs at smoke effort and says something; one that
    /// returns data has it survive the envelope and the parser, and owns a
    /// committed `BENCH_<name>.json`; one that returns none owns no file.
    #[test]
    fn every_experiment_runs_and_its_data_envelopes() {
        let check = |e: &Experiment| {
            let effort = Effort::smoke();
            let report = (e.run)(&effort);
            assert!(!report.text.trim().is_empty(), "{}: empty report", e.name);
            let has_file = std::path::Path::new(&bench_file(e.name)).exists();
            assert_eq!(
                report.data.is_some(),
                has_file,
                "{}: data vs committed file",
                e.name
            );
            if let Some(data) = report.data {
                let text = envelope(e.name, &effort, data.clone()).to_pretty();
                let doc = json::parse(&text).unwrap_or_else(|err| panic!("{}: {err}", e.name));
                assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
                assert_eq!(doc.get("bench").and_then(|s| s.as_str()), Some(e.name));
                assert_eq!(doc.get("data"), Some(&data), "{}: data round-trips", e.name);
            }
        };
        // Two at a time: nothing timed is asserted in a debug build.
        std::thread::scope(|s| {
            for lane in 0..2 {
                let smoke = ALL.iter().filter(|e| !BOOTS_SERVERS.contains(&e.name));
                s.spawn(move || smoke.skip(lane).step_by(2).for_each(check));
            }
        });
    }

    /// EXPERIMENTS.md's *Experiment index* quotes `run_all --list`: the
    /// fenced block between its markers is the registry's listing.
    #[test]
    fn the_index_in_experiments_md_is_the_registrys_listing() {
        const BEGIN: &str = "<!-- run-all-list:begin -->\n";
        const END: &str = "<!-- run-all-list:end -->";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md at the repository root");
        let start = doc.find(BEGIN).expect("begin marker") + BEGIN.len();
        let end = doc.find(END).expect("end marker");
        let lines: String = ALL.iter().map(|e| e.list_line() + "\n").collect();
        let rendered = format!("```\n{lines}```\n");
        assert!(
            doc[start..end] == rendered,
            "EXPERIMENTS.md's experiment index is stale; paste this between the markers:\n{rendered}"
        );
    }

    /// Every `BENCH_*.json` in the repository root is an enveloped release
    /// measurement named after the experiment that owns it.
    #[test]
    fn committed_bench_files_are_enveloped_and_owned() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut committed = Vec::new();
        for entry in std::fs::read_dir(root).expect("repository root") {
            let file = entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            else {
                continue;
            };
            assert!(
                ALL.iter().any(|e| e.name == name),
                "{file}: no experiment owns it"
            );
            let text = std::fs::read_to_string(bench_file(name)).expect("read bench file");
            let doc = json::parse(&text).unwrap_or_else(|err| panic!("{file}: {err}"));
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some(SCHEMA),
                "{file}"
            );
            assert_eq!(
                doc.get("bench").and_then(|s| s.as_str()),
                Some(name),
                "{file}"
            );
            assert_eq!(
                doc.get("mode").and_then(|s| s.as_str()),
                Some("release"),
                "{file}"
            );
            assert!(doc.get("data").is_some(), "{file}: no data");
            committed.push(name.to_string());
        }
        for name in BOOTS_SERVERS {
            assert!(
                committed.iter().any(|c| c == name),
                "BENCH_{name}.json is missing"
            );
        }
    }
}
