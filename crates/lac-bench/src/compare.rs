//! The CI perf gate: compare freshly generated bench JSON against the
//! committed baselines and fail on regressions.
//!
//! ```text
//! lac-bench perf_compare <baseline-dir> <fresh-dir>
//! ```
//!
//! For every `BENCH_<name>.json` in the baseline dir the matching
//! `<name>.json` must exist in the fresh dir (the layout `run_all`
//! archives to `target/release/perf/`). Points are matched by their
//! identity fields (`bench`, `mode`, `tenants`, `cores`, `jobs`, `rounds`,
//! `policy` — whichever are present), then the gated metrics are compared:
//!
//! * `makespan_cycles`, `*_clock_cycles` and lower-is-better latency
//!   tails (`*sojourn*` — e.g. `p99_sojourn_cycles`,
//!   `p999_sojourn_cycles` from `service_latency`) regress when they
//!   **grow** by more than 15%;
//! * metrics containing `throughput` or `speedup` regress when they
//!   **shrink** by more than 15%;
//! * `*_heap_bytes` footprints (from `sim_speed`: the kernel program
//!   store's `memo_heap_bytes`, the timed graph's `report_heap_bytes` and
//!   its own buffers' `graph_heap_bytes`) regress when they **grow** by
//!   more than 15%.
//!
//! Everything here is simulated cycles, program content or output layout,
//! so baselines are exact across machines; the 15% tolerance only
//! absorbs intentional remodeling, not noise.
//!
//! On failure, the exact refresh command for each offending benchmark is
//! printed, of the form
//!
//! ```text
//! cargo run --release -p lac-bench -- <bench> \
//!     --json-out bench/baselines/BENCH_<bench>.json
//! ```
//!
//! Run it from the repo root after an *intentional* perf trade-off and
//! commit the regenerated `bench/baselines/BENCH_<bench>.json`; never
//! refresh to paper over an unexplained regression.

use lac_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The largest change in the worse direction a gated metric may make.
const TOLERANCE: f64 = 0.15;

/// Fields that identify a point within its benchmark file.
const IDENTITY_FIELDS: [&str; 11] = [
    "bench", "backend", "mode", "chips", "tenants", "cores", "jobs", "rounds", "policy", "load",
    "slo",
];

fn identity(point: &Json) -> String {
    let mut key = String::new();
    for field in IDENTITY_FIELDS {
        if let Some(v) = point.get(field) {
            key.push_str(&format!("{field}={} ", v.render()));
        }
    }
    key.trim_end().to_string()
}

/// Whether a rise (`true`) or a fall (`false`) of a metric is a
/// regression, by its name; `None` for an ungated field.
fn rise_is_worse(field: &str) -> Option<bool> {
    if field == "makespan_cycles"
        || field == "clock_cycles"
        || field.ends_with("_clock_cycles")
        || field.contains("sojourn")
        || field.ends_with("_makespan_ratio")
        || field.ends_with("_heap_bytes")
    {
        Some(true)
    } else if field.contains("throughput") || field.contains("speedup") {
        Some(false)
    } else {
        None
    }
}

fn points(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    match Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{}: expected a top-level array", path.display())),
    }
}

/// The command that regenerates `bench`'s baseline, run from the repo root.
pub fn refresh_command(bench: &str) -> String {
    format!(
        "cargo run --release -p lac-bench -- {bench} --json-out bench/baselines/BENCH_{bench}.json"
    )
}

/// Gate every baseline in `baseline_dir` against its fresh points in
/// `fresh_dir`. Returns the number of gated metrics compared and of
/// baselines they came from, or one failure line per problem. Prints an
/// `ok` line per held baseline and a `^^` line per improvement.
pub fn compare(baseline_dir: &Path, fresh_dir: &Path) -> Result<(usize, usize), Vec<String>> {
    let entries = std::fs::read_dir(baseline_dir)
        .map_err(|e| vec![format!("!! read {}: {e}", baseline_dir.display())])?;
    let mut baselines: Vec<(String, PathBuf)> = entries
        .filter_map(|e| {
            let (name, path) = e.ok().map(|e| (e.file_name(), e.path()))?;
            let bench = name
                .to_str()?
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?;
            Some((bench.to_string(), path))
        })
        .collect();
    baselines.sort();
    if baselines.is_empty() {
        return Err(vec![format!(
            "!! no BENCH_*.json baselines in {} — nothing to gate",
            baseline_dir.display()
        )]);
    }

    let mut failures = Vec::new();
    let mut compared = 0usize;
    for (bench, base_path) in &baselines {
        let failures_before = failures.len();
        let hint = format!("   refresh: {}", refresh_command(bench));
        let fresh_path = fresh_dir.join(format!("{bench}.json"));
        if !fresh_path.is_file() {
            failures.push(format!(
                "!! {bench}: fresh results missing at {} (did the bench run with --json-out?)",
                fresh_path.display()
            ));
            continue;
        }
        let (base, fresh) = match (points(base_path), points(&fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for err in [b.err(), f.err()].into_iter().flatten() {
                    failures.push(format!("!! {bench}: {err}\n{}", hint));
                }
                continue;
            }
        };
        for base_point in &base {
            let key = identity(base_point);
            let Some(fresh_point) = fresh.iter().find(|p| identity(p) == key) else {
                failures.push(format!(
                    "!! {bench}: point [{key}] vanished from the fresh run — the sweep \
                     changed shape, refresh the baseline\n{}",
                    hint
                ));
                continue;
            };
            let Json::Obj(fields) = base_point else {
                continue;
            };
            for (field, base_value) in fields {
                let Some(rise_is_worse) = rise_is_worse(field) else {
                    continue;
                };
                let Some(b) = base_value.as_f64() else {
                    continue;
                };
                // A gated metric present in the baseline must stay
                // present — a renamed or dropped field would otherwise
                // disarm the gate silently.
                let Some(f) = fresh_point.get(field).and_then(Json::as_f64) else {
                    failures.push(format!(
                        "!! {bench} [{key}]: gated metric {field} vanished from the fresh \
                         point — the bench's JSON shape changed, refresh the baseline\n{}",
                        hint
                    ));
                    continue;
                };
                compared += 1;
                if b <= 0.0 {
                    continue;
                }
                let (high, low) = (b * (1.0 + TOLERANCE), b / (1.0 + TOLERANCE));
                let (worse, improved, direction) = if rise_is_worse {
                    (f > high, f < low, "rose")
                } else {
                    (f < low, f > high, "fell")
                };
                if worse {
                    failures.push(format!(
                        "!! {bench} [{key}]: {field} {direction} {b} -> {f} \
                         (>{:.0}% regression)\n{}",
                        TOLERANCE * 100.0,
                        hint
                    ));
                } else if improved {
                    println!(
                        "^^ {bench} [{key}]: {field} improved {b} -> {f}; consider \
                         refreshing the baseline to lock it in"
                    );
                }
            }
        }
        if failures.len() == failures_before {
            println!(
                "ok {bench}: {} baseline points held within {:.0}%",
                base.len(),
                TOLERANCE * 100.0
            );
        }
    }

    if failures.is_empty() {
        Ok((compared, baselines.len()))
    } else {
        Err(failures)
    }
}

/// `lac-bench perf_compare`: run [`compare`] and report its verdict.
pub fn run(baseline_dir: &Path, fresh_dir: &Path) -> ExitCode {
    match compare(baseline_dir, fresh_dir) {
        Ok((metrics, benches)) => {
            println!(
                "perf gate passed: {metrics} gated metrics compared across {benches} benchmarks"
            );
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!(
                "\nperf gate FAILED ({} problem(s)). If the change is an intentional perf \
                 trade-off, refresh the affected baselines with the commands above and commit \
                 the new bench/baselines/BENCH_*.json.",
                failures.len()
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gate one fresh point set against one baseline, in a scratch dir.
    fn gate(tag: &str, base: &str, fresh: &str) -> Result<(usize, usize), Vec<String>> {
        let dir = std::env::temp_dir().join(format!("lac-bench-gate-{}-{tag}", std::process::id()));
        let (base_dir, fresh_dir) = (dir.join("base"), dir.join("fresh"));
        for d in [&base_dir, &fresh_dir] {
            std::fs::create_dir_all(d).unwrap();
        }
        std::fs::write(base_dir.join("BENCH_x.json"), base).unwrap();
        std::fs::write(fresh_dir.join("x.json"), fresh).unwrap();
        let verdict = compare(&base_dir, &fresh_dir);
        std::fs::remove_dir_all(&dir).unwrap();
        verdict
    }

    fn fails(verdict: Result<(usize, usize), Vec<String>>, expect: &str) {
        let lines = verdict.expect_err("the gate passed");
        assert!(lines.len() == 1 && lines[0].contains(expect), "{lines:?}");
        assert!(lines[0].contains(&refresh_command("x")), "{lines:?}");
    }

    const BASE: &str = r#"[{"bench": "x", "cores": 1, "makespan_cycles": 100,
        "memo_heap_bytes": 1000, "throughput": 50.0, "host_s": 1.0}]"#;

    fn fresh(makespan: u64, heap: u64, throughput: f64) -> String {
        format!(
            r#"[{{"bench": "x", "cores": 1, "makespan_cycles": {makespan},
               "memo_heap_bytes": {heap}, "throughput": {throughput}, "host_s": 9.0}}]"#
        )
    }

    #[test]
    fn a_point_within_tolerance_passes_and_is_counted() {
        assert_eq!(gate("within", BASE, &fresh(114, 1140, 43.5)), Ok((3, 1)));
    }

    #[test]
    fn an_improvement_passes() {
        assert_eq!(gate("better", BASE, &fresh(50, 500, 100.0)), Ok((3, 1)));
    }

    #[test]
    fn a_makespan_rise_fails() {
        fails(
            gate("makespan", BASE, &fresh(116, 1000, 50.0)),
            "makespan_cycles rose",
        );
    }

    #[test]
    fn a_heap_bytes_rise_fails() {
        fails(
            gate("heap", BASE, &fresh(100, 1200, 50.0)),
            "memo_heap_bytes rose",
        );
    }

    #[test]
    fn a_throughput_drop_fails() {
        fails(
            gate("throughput", BASE, &fresh(100, 1000, 43.0)),
            "throughput fell",
        );
    }

    #[test]
    fn a_vanished_point_fails() {
        let moved = fresh(100, 1000, 50.0).replace(r#""cores": 1"#, r#""cores": 2"#);
        fails(
            gate("point", BASE, &moved),
            "point [bench=\"x\" cores=1] vanished",
        );
    }

    #[test]
    fn a_vanished_gated_field_fails() {
        let renamed = fresh(100, 1000, 50.0).replace("makespan_cycles", "span_cycles");
        fails(
            gate("field", BASE, &renamed),
            "gated metric makespan_cycles vanished",
        );
    }
}
