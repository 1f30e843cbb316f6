//! Regenerate every result in one run (what EXPERIMENTS.md records).
//!
//! Two data-driven phases, neither hard-coding a kernel or a figure:
//!
//! 1. **Workload sweep** — iterate `lac_kernels::registry()`, run every
//!    workload through a `LacEngine` session on the default core, verify
//!    it against `linalg-ref`, and print the uniform cycles/utilization/
//!    energy table.
//! 2. **Figure/table generators** — discover the sibling generator
//!    binaries (`fig*`, `table*`, `sec*`) built alongside this one and
//!    invoke each.

use lac_bench::{f, pct, table};
use lac_kernels::registry;
use lac_power::{EnergyModel, SessionEnergy};
use lac_sim::{LacConfig, LacEngine};
use std::path::PathBuf;
use std::process::Command;

fn workload_sweep() -> Result<(), String> {
    let mut rows = Vec::new();
    let energy = EnergyModel::lac_default();
    for w in registry() {
        let mut eng = LacEngine::builder()
            .config(w.config(LacConfig::default()))
            .build();
        let report = w
            .run(&mut eng)
            .map_err(|e| format!("{}: {e:?}", w.name()))?;
        w.check(&report)?;
        let e = eng.energy_summary(&energy);
        rows.push(vec![
            report.kernel.clone(),
            format!("{}", report.stats.cycles),
            format!("{}", report.useful_flops),
            pct(report.utilization),
            f(e.energy_nj / 1000.0),
            f(e.gflops_per_w),
            "ok".into(),
        ]);
    }
    table(
        "Workload sweep — every registry workload on the default 4x4 core",
        &[
            "workload",
            "cycles",
            "useful flops",
            "util",
            "energy [uJ]",
            "GFLOPS/W",
            "vs ref",
        ],
        &rows,
    );
    Ok(())
}

fn is_generator_name(n: &str) -> bool {
    n.starts_with("fig")
        || n.starts_with("table")
        || n.starts_with("sec")
        || n.starts_with("chip")
        || n.starts_with("cluster")
        || n.starts_with("coord")
        || n.starts_with("solver")
        || n.starts_with("service")
        || n.starts_with("dynamic")
        || n.starts_with("sim_")
}

/// Generators that support `--json-out <path>`: they print their table
/// and write machine-readable perf points in one run, which this driver
/// archives next to the binaries (`target/release/perf/`). An explicit
/// list (unlike bin discovery) because probing would mean extra runs;
/// extend it when a bin gains the flag.
fn emits_json(n: &str) -> bool {
    n == "chip_scaling"
        || n == "cluster_scaling"
        || n == "solver_loop"
        || n == "service_throughput"
        || n == "service_latency"
        || n == "failure_drill"
        || n == "dynamic_solver"
        || n == "sim_speed"
        || n == "coordinator_scale"
}

/// Generator binaries built next to this one (no hard-coded list).
fn discover_generators(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.path().extension().is_none()
                        || e.path().extension().is_some_and(|x| x == "exe")
                })
                .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                .filter_map(|e| {
                    e.path()
                        .file_stem()
                        .and_then(|s| s.to_str().map(String::from))
                })
                .filter(|n| is_generator_name(n))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// The full generator set, from this crate's `src/bin/` sources (path baked
/// in at compile time). Guards against a stale or partial target directory
/// silently shrinking the sweep; empty when the source tree is not present
/// at run time (e.g. an installed binary), in which case discovery alone
/// decides.
fn expected_generators() -> Vec<String> {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut names: Vec<String> = std::fs::read_dir(src)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
                .filter_map(|e| {
                    e.path()
                        .file_stem()
                        .and_then(|s| s.to_str().map(String::from))
                })
                .filter(|n| is_generator_name(n))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

fn main() {
    println!("######## workload sweep (LacEngine + registry) ########");
    if let Err(e) = workload_sweep() {
        eprintln!("!! workload sweep failed: {e}");
        std::process::exit(1);
    }

    let me = std::env::current_exe().expect("own path");
    let dir: PathBuf = me.parent().expect("bin dir").to_path_buf();
    let bins = discover_generators(&dir);
    if bins.is_empty() {
        eprintln!("!! no generator binaries found next to run_all — build the full crate first");
        std::process::exit(1);
    }
    let mut failures = Vec::new();
    for missing in expected_generators().iter().filter(|n| !bins.contains(n)) {
        eprintln!("!! {missing} exists in src/bin but its binary was not built");
        failures.push(missing.clone());
    }
    for name in &bins {
        let exe = dir.join(name);
        println!("\n######## {name} ########");
        let mut cmd = Command::new(&exe);
        let archive = emits_json(name).then(|| dir.join("perf").join(format!("{name}.json")));
        if let Some(path) = &archive {
            cmd.arg("--json-out").arg(path);
        }
        match cmd.status() {
            Ok(s) if s.success() => {
                if let Some(path) = &archive {
                    if path.is_file() {
                        println!("-> perf points archived to {}", path.display());
                    } else {
                        eprintln!("!! {name} exited 0 but wrote no {}", path.display());
                        failures.push(format!("{name} --json-out"));
                    }
                }
            }
            other => {
                eprintln!("!! {name} failed: {other:?}");
                failures.push(name.clone());
            }
        }
    }
    if failures.is_empty() {
        println!(
            "\nall {} experiments regenerated (+ workload sweep)",
            bins.len()
        );
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
