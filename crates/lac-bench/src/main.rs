//! `lac-bench`: every reproduced table and figure of the dissertation, the
//! perf benches and their baseline gate, from one binary.
//!
//! ```text
//! lac-bench paper                                   every paper entry, in name order
//! lac-bench fig4_2 table3_1                         the named entries
//! lac-bench <bench> --json-out <path>               one bench, its points archived
//! lac-bench run_all                                 every entry, one process each
//! lac-bench perf_compare <baseline-dir> <fresh-dir> the perf gate
//! ```
//!
//! Each [`REGISTRY`] entry is a paper table/figure or a perf bench. An
//! unknown name exits non-zero and lists the valid ones. `--json-out` is
//! the only flag.

mod compare;
mod perf;

/// The paper's tables and figures, one module per chapter or appendix.
mod paper {
    pub mod app_a;
    pub mod app_b;
    pub mod ch3;
    pub mod ch4;
    pub mod ch5;
    pub mod ch6;
    pub mod workloads;
}

use lac_bench::json::Json;
use paper::{app_a, app_b, ch3, ch4, ch5, ch6, workloads};
use std::path::Path;
use std::process::{Command, ExitCode};

/// One printed table: the title, headers and rows `lac_bench::table`
/// renders, a line printed right under it, and a closing note — the
/// paper's published value or shape, printed after a blank line.
struct Table {
    title: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    footer: Option<String>,
    note: Option<&'static str>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &[&'static str], rows: Vec<Vec<String>>) -> Self {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            rows,
            footer: None,
            note: None,
        }
    }

    fn footer(self, line: String) -> Self {
        Table {
            footer: Some(line),
            ..self
        }
    }

    fn note(self, note: &'static str) -> Self {
        Table {
            note: Some(note),
            ..self
        }
    }

    fn print(&self) {
        lac_bench::table(&self.title, &self.headers, &self.rows);
        if let Some(line) = &self.footer {
            println!("{line}");
        }
        if let Some(note) = self.note {
            println!("\n{note}");
        }
    }
}

/// What a registry entry runs.
#[derive(Clone, Copy)]
enum Entry {
    /// A paper table or figure: the tables it prints.
    Paper(fn() -> Vec<Table>),
    /// A perf bench, gated by `bench/baselines/BENCH_<name>.json`: it
    /// prints its table and returns its points.
    Bench(fn() -> Json),
}
use Entry::{Bench, Paper};

/// Every entry, sorted by name. A paper entry's function is its name
/// lowercased; a bench's is `perf::<name>::run`.
const REGISTRY: &[(&str, Entry)] = &[
    ("chip_scaling", Bench(perf::chip_scaling::run)),
    ("cluster_scaling", Bench(perf::cluster_scaling::run)),
    ("coordinator_scale", Bench(perf::coordinator_scale::run)),
    ("dynamic_solver", Bench(perf::dynamic_solver::run)),
    ("failure_drill", Bench(perf::failure_drill::run)),
    ("fig3_4", Paper(ch3::fig3_4)),
    ("fig3_5", Paper(ch3::fig3_5)),
    ("fig3_6", Paper(ch3::fig3_6)),
    ("fig3_7", Paper(ch3::fig3_7)),
    ("fig4_11_12", Paper(ch4::fig4_11_12)),
    ("fig4_13", Paper(ch4::fig4_13)),
    ("fig4_14", Paper(ch4::fig4_14)),
    ("fig4_15", Paper(ch4::fig4_15)),
    ("fig4_16", Paper(ch4::fig4_16)),
    ("fig4_2", Paper(ch4::fig4_2)),
    ("fig4_3", Paper(ch4::fig4_3)),
    ("fig4_5", Paper(ch4::fig4_5)),
    ("fig4_6", Paper(ch4::fig4_6)),
    ("fig4_7", Paper(ch4::fig4_7)),
    ("fig4_8", Paper(ch4::fig4_8)),
    ("fig4_9_10", Paper(ch4::fig4_9_10)),
    ("fig5_10", Paper(ch5::fig5_10)),
    ("fig5_8", Paper(ch5::fig5_8)),
    ("fig5_9", Paper(ch5::fig5_9)),
    ("fig6_5", Paper(ch6::fig6_5)),
    ("fig6_6", Paper(ch6::fig6_6)),
    ("fig6_7", Paper(ch6::fig6_7)),
    ("fig6_9", Paper(ch6::fig6_9)),
    ("figB_11_12_13", Paper(app_b::figb_11_12_13)),
    ("figB_5", Paper(app_b::figb_5)),
    ("figB_6", Paper(app_b::figb_6)),
    ("figB_7", Paper(app_b::figb_7)),
    ("sec4_3_validation", Paper(ch4::sec4_3_validation)),
    ("service_latency", Bench(perf::service_latency::run)),
    ("service_throughput", Bench(perf::service_throughput::run)),
    ("sim_speed", Bench(perf::sim_speed::run)),
    ("solver_loop", Bench(perf::solver_loop::run)),
    ("table3_1", Paper(ch3::table3_1)),
    ("table3_2", Paper(ch3::table3_2)),
    ("table4_1", Paper(ch4::table4_1)),
    ("table4_2", Paper(ch4::table4_2)),
    ("table4_3", Paper(ch4::table4_3)),
    ("table5_1", Paper(ch5::table5_1)),
    ("table6_1", Paper(ch6::table6_1)),
    ("table6_2", Paper(ch6::table6_2)),
    ("tableA_2", Paper(app_a::tablea_2)),
    ("tableB_1", Paper(app_b::tableb_1)),
    ("tableB_2", Paper(app_b::tableb_2)),
    ("workloads", Paper(workloads::workloads)),
];

type Picked = Vec<&'static (&'static str, Entry)>;

fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: lac-bench paper | <entry>... | <bench> --json-out <path> | run_all \
         | perf_compare <baseline-dir> <fresh-dir>\nvalid names:\n  {}",
        names.join("\n  ")
    )
}

/// The entries a command line names, in order, and the `--json-out`
/// path that may follow a single bench.
fn entries<'a>(words: &[&'a str]) -> Result<(Picked, Option<&'a str>), String> {
    let (names, json_out) = match words {
        [names @ .., "--json-out", path] => (names, Some(*path)),
        names => (names, None),
    };
    let picked: Picked = match names {
        ["paper"] => REGISTRY
            .iter()
            .filter(|(_, e)| matches!(e, Paper(_)))
            .collect(),
        _ => names
            .iter()
            .map(|w| {
                let entry = REGISTRY.iter().find(|(n, _)| n == w);
                entry.ok_or_else(|| format!("unknown entry {w:?}; {}", usage()))
            })
            .collect::<Result<_, _>>()?,
    };
    let one_bench = matches!(picked[..], [(_, Bench(_))]);
    if picked.is_empty() || (json_out.is_some() && !one_bench) {
        return Err(usage());
    }
    Ok((picked, json_out))
}

/// Run every entry, each in its own process: this binary re-executes
/// itself, so the code that runs is the code that compares. One process
/// per entry, so that a panicking entry cannot stop the rest: its exit
/// status is recorded and the walk goes on. Each bench's points go to
/// `perf/<bench>.json` next to the binary, where `perf_compare` reads
/// them.
fn run_all() -> ExitCode {
    let me = std::env::current_exe().expect("own path");
    let perf_dir = me.parent().expect("binary dir").join("perf");
    let mut failures = Vec::new();
    for &(name, entry) in REGISTRY {
        println!("\n######## {name} ########");
        let mut cmd = Command::new(&me);
        cmd.arg(name);
        if let Bench(_) = entry {
            cmd.arg("--json-out")
                .arg(perf_dir.join(format!("{name}.json")));
        }
        if !cmd.status().is_ok_and(|s| s.success()) {
            failures.push(name);
        }
    }
    if !failures.is_empty() {
        eprintln!("\nFAILED: {failures:?}");
        return ExitCode::FAILURE;
    }
    let archive = perf_dir.display();
    println!(
        "\nall {} entries regenerated, bench points in {archive}",
        REGISTRY.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let (picked, json_out) = match words[..] {
        ["run_all"] => return run_all(),
        ["perf_compare", base, fresh] => return compare::run(Path::new(base), Path::new(fresh)),
        _ => match entries(&words) {
            Ok(picked) => picked,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        },
    };
    for (_, entry) in picked {
        match entry {
            Paper(generator) => generator().iter().for_each(Table::print),
            Bench(bench) => {
                let points = bench().render_pretty();
                if let Some(path) = json_out.map(Path::new) {
                    // An archive silently missing is worse than a panic.
                    if let Some(dir) = path.parent() {
                        std::fs::create_dir_all(dir)
                            .unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
                    }
                    std::fs::write(path, points).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(line: &str) -> Result<(Vec<&'static str>, Option<&str>), String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        entries(&words).map(|(picked, json_out)| (picked.iter().map(|e| e.0).collect(), json_out))
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        assert!(REGISTRY.windows(2).all(|w| w[0].0 < w[1].0));
        for name in ["paper", "perf_compare", "run_all", "--json-out"] {
            assert!(REGISTRY.iter().all(|(n, _)| *n != name), "{name} shadowed");
        }
    }

    #[test]
    fn every_entry_renders_finite_nonempty_tables() {
        for &(name, entry) in REGISTRY {
            let Paper(generator) = entry else { continue };
            let tables = generator();
            assert!(!tables.is_empty(), "{name}: no table");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name}: {:?} has no rows", t.title);
                for cell in t.rows.iter().flatten() {
                    let non_finite = cell
                        .split(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                        .any(|word| word.parse::<f64>().is_ok_and(|x| !x.is_finite()));
                    assert!(!non_finite, "{name}: {:?} has cell {cell:?}", t.title);
                }
                t.print();
            }
        }
    }

    /// The bench entries are exactly the committed baselines, and the
    /// refresh command the gate prints runs the bench it names.
    #[test]
    fn bench_entries_are_the_baselines() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines");
        let mut baselines: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .filter_map(|e| {
                let file = e.ok()?.file_name().into_string().ok()?;
                Some(
                    file.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect();
        baselines.sort();
        let benches: Vec<&str> = REGISTRY
            .iter()
            .filter(|(_, e)| matches!(e, Bench(_)))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(benches, baselines);
        for bench in benches {
            let command = compare::refresh_command(bench);
            let tail = command
                .strip_prefix("cargo run --release -p lac-bench -- ")
                .unwrap_or_else(|| panic!("{command:?} does not run this binary"));
            let archive = format!("bench/baselines/BENCH_{bench}.json");
            assert_eq!(names(tail), Ok((vec![bench], Some(archive.as_str()))));
        }
    }

    #[test]
    fn command_lines_name_entries() {
        let (papers, json_out) = names("paper").unwrap();
        assert_eq!((papers.len(), json_out), (40, None));
        assert!(papers
            .iter()
            .all(|n| matches!(REGISTRY.iter().find(|e| e.0 == *n), Some((_, Paper(_))))));
        assert_eq!(
            names("fig4_2 table3_1"),
            Ok((vec!["fig4_2", "table3_1"], None))
        );
        let unknown = names("fig4_2 nosuch").unwrap_err();
        assert!(unknown.contains("\"nosuch\"") && unknown.contains("\n  table3_1"));
        for bad in [
            "",
            "paper fig4_2",
            "run_all x",
            "perf_compare a",
            "fig4_2 --json-out p",
            "sim_speed solver_loop --json-out p",
            "sim_speed --json-out",
            "--json-out p sim_speed",
        ] {
            assert!(names(bad).is_err(), "{bad:?} parsed");
        }
    }
}
