//! Regenerate every result in one run.
//!
//! Runs the `paper` binary (every reproduced table and figure plus the
//! workload sweep), then each perf bench with its points archived to
//! `perf/<bench>.json` next to the binaries — the layout `perf_compare`
//! reads. All of them must sit in this binary's own directory, as
//! `cargo build --release -p lac-bench --bins` leaves them.

use std::process::Command;

/// The perf benches, each gated by a `bench/baselines/BENCH_<name>.json`.
const BENCHES: [&str; 9] = [
    "chip_scaling",
    "cluster_scaling",
    "coordinator_scale",
    "dynamic_solver",
    "failure_drill",
    "service_latency",
    "service_throughput",
    "sim_speed",
    "solver_loop",
];

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in std::iter::once("paper").chain(BENCHES) {
        println!("\n######## {name} ########");
        let mut cmd = Command::new(dir.join(name));
        let archive = (name != "paper").then(|| dir.join("perf").join(format!("{name}.json")));
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
                        failures.push(name);
                    }
                }
            }
            other => {
                eprintln!("!! {name} failed: {other:?}");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        println!("\npaper and all {} perf benches regenerated", BENCHES.len());
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
