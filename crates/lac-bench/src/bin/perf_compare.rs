//! The CI perf gate: compare freshly generated bench JSON against the
//! committed baselines and fail on regressions.
//!
//! ```text
//! perf_compare <baseline-dir> <fresh-dir> [--tolerance 0.15]
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
//!   **grow** beyond tolerance;
//! * metrics containing `throughput` or `speedup` regress when they
//!   **shrink** beyond tolerance;
//! * `memo_heap_bytes` (the kernel program store's footprint, from
//!   `sim_speed`) regresses when it **grows** beyond tolerance.
//!
//! Everything here is simulated cycles or program content, so baselines
//! are exact across machines; the 15% default tolerance only absorbs
//! intentional remodeling, not noise.
//!
//! On failure, the exact refresh command for each offending benchmark is
//! printed, of the form
//!
//! ```text
//! cargo run --release -p lac-bench --bin <bench> -- \
//!     --json-out bench/baselines/BENCH_<bench>.json
//! ```
//!
//! Run it from the repo root after an *intentional* perf trade-off and
//! commit the regenerated `bench/baselines/BENCH_<bench>.json`; never
//! refresh to paper over an unexplained regression.

use lac_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_TOLERANCE: f64 = 0.15;

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

/// How a metric field is gated, by name.
enum Gate {
    WorseIfHigher,
    WorseIfLower,
}

fn gate_for(field: &str) -> Option<Gate> {
    if field == "makespan_cycles"
        || field == "clock_cycles"
        || field.ends_with("_clock_cycles")
        || field.contains("sojourn")
        || field.ends_with("_makespan_ratio")
        || field == "memo_heap_bytes"
    {
        Some(Gate::WorseIfHigher)
    } else if field.contains("throughput") || field.contains("speedup") {
        Some(Gate::WorseIfLower)
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

fn refresh_hint(bench: &str) -> String {
    format!(
        "   refresh: cargo run --release -p lac-bench --bin {bench} -- \
         --json-out bench/baselines/BENCH_{bench}.json"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            tolerance = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--tolerance takes a ratio, e.g. 0.15");
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [baseline_dir, fresh_dir] = dirs.as_slice() else {
        eprintln!("usage: perf_compare <baseline-dir> <fresh-dir> [--tolerance 0.15]");
        return ExitCode::FAILURE;
    };

    let mut baselines: Vec<(String, PathBuf)> = std::fs::read_dir(baseline_dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_dir.display()))
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let bench = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .to_string();
            Some((bench, e.path()))
        })
        .collect();
    baselines.sort();
    if baselines.is_empty() {
        eprintln!(
            "no BENCH_*.json baselines in {} — nothing to gate",
            baseline_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failures = Vec::new();
    let mut compared = 0usize;
    for (bench, base_path) in &baselines {
        let failures_before = failures.len();
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
                    failures.push(format!("!! {bench}: {err}\n{}", refresh_hint(bench)));
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
                    refresh_hint(bench)
                ));
                continue;
            };
            let Json::Obj(fields) = base_point else {
                continue;
            };
            for (field, base_value) in fields {
                let Some(gate) = gate_for(field) else {
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
                        refresh_hint(bench)
                    ));
                    continue;
                };
                compared += 1;
                if b <= 0.0 {
                    continue;
                }
                let (worse, direction) = match gate {
                    Gate::WorseIfHigher => (f > b * (1.0 + tolerance), "rose"),
                    Gate::WorseIfLower => (f < b / (1.0 + tolerance), "fell"),
                };
                if worse {
                    failures.push(format!(
                        "!! {bench} [{key}]: {field} {direction} {b} -> {f} \
                         (>{:.0}% regression)\n{}",
                        tolerance * 100.0,
                        refresh_hint(bench)
                    ));
                } else {
                    let improved = match gate {
                        Gate::WorseIfHigher => f < b / (1.0 + tolerance),
                        Gate::WorseIfLower => f > b * (1.0 + tolerance),
                    };
                    if improved {
                        println!(
                            "^^ {bench} [{key}]: {field} improved {b} -> {f}; consider \
                             refreshing the baseline to lock it in"
                        );
                    }
                }
            }
        }
        if failures.len() == failures_before {
            println!(
                "ok {bench}: {} baseline points held within {:.0}%",
                base.len(),
                tolerance * 100.0
            );
        }
    }

    if failures.is_empty() {
        println!(
            "perf gate passed: {compared} gated metrics compared across {} benchmarks",
            baselines.len()
        );
        ExitCode::SUCCESS
    } else {
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
