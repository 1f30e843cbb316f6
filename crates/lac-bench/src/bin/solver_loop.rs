//! The dependency-graph service headline: an IPM-style solver loop
//! (CHOL → stacked TRSM fan-out → SYRK updates, round k feeding round
//! k+1) submitted as a `JobGraph` to a long-lived `LacService`, swept
//! over iterations × cores × scheduler policies.
//!
//! For every point the run is verified three ways before a row prints:
//!
//! 1. **Correctness** — every per-round factor, solve and update is
//!    checked against an independent `linalg-ref` chain
//!    (`SolverLoopWorkload::check_graph`).
//! 2. **Determinism** — the submission is rerun on the same warm service
//!    and must be bit-identical; across the three policies the outputs
//!    must also be bit-identical (placement can never change results).
//! 3. **Scaling** — at the deepest sweep point the 4-core service must
//!    beat the 1-core service by ≥ 1.5x despite the serial CHOL spine
//!    (the paper's fan-out argument, executed).
//!
//! `--json` emits the perf points machine-readably (archived by
//! `run_all`).

use lac_bench::json::Json;
use lac_bench::{emit_json, f, json_mode, pct, table};
use lac_kernels::{SolverLoopParams, SolverLoopWorkload};
use lac_power::ChipEnergyModel;
use lac_sim::{ChipConfig, LacConfig, LacService, Scheduler};

const ROUNDS_SWEEP: [usize; 3] = [2, 4, 8];
const CORES_SWEEP: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [(Scheduler, &str); 3] = [
    (Scheduler::Fifo, "fifo"),
    (Scheduler::LeastLoaded, "least-loaded"),
    (Scheduler::CriticalPath, "critical-path"),
];

fn workload(rounds: usize) -> SolverLoopWorkload {
    SolverLoopWorkload::new(SolverLoopParams {
        n: 16,
        rounds,
        panels: 4,
        width: 8,
        salt: 4242,
    })
}

fn main() {
    let nr = LacConfig::default().nr;
    let energy_model = ChipEnergyModel::lap_default();
    let mut rows = Vec::new();
    let mut points = Vec::new();

    // (rounds, cores, policy) → makespan, for the speedup gate below.
    let mut makespans = std::collections::HashMap::new();
    for rounds in ROUNDS_SWEEP {
        let w = workload(rounds);
        // One reference output vector per rounds value: every (policy,
        // cores) combination must reproduce it bit for bit.
        let mut reference_outputs = None;
        for (sched, sched_name) in POLICIES {
            for cores in CORES_SWEEP {
                let mut svc = LacService::new(ChipConfig::new(cores, LacConfig::default()));
                let run = svc
                    .submit(&w.graph().graph, sched)
                    .expect("hazard-free schedule");
                w.check_graph(&run.outputs)
                    .expect("per-round outputs match linalg-ref");

                // Warm rerun on the same service: bit-identical.
                let rerun = svc.submit(&w.graph().graph, sched).expect("rerun");
                assert_eq!(run.outputs, rerun.outputs, "warm rerun diverged");
                assert_eq!(run.stats, rerun.stats, "warm rerun stats diverged");

                // Across cores AND policies the outputs are the same bits.
                match &reference_outputs {
                    None => reference_outputs = Some(run.outputs.clone()),
                    Some(base) => assert_eq!(
                        base, &run.outputs,
                        "{sched_name}@{cores} cores changed results"
                    ),
                }
                makespans.insert((rounds, cores, sched_name), run.stats.makespan_cycles);

                let e = energy_model.summarize(&run.stats);
                let util = run.stats.utilization(nr);
                // Aggregate busy cycles / makespan — parallel efficiency
                // of this run, not a 1-core-baseline ratio (the gate below
                // computes that one from the recorded makespans).
                let speedup = run.stats.speedup();
                rows.push(vec![
                    format!("{rounds}"),
                    format!("{cores}"),
                    sched_name.into(),
                    format!("{}", run.stats.makespan_cycles),
                    format!("{}", run.waves),
                    pct(util),
                    f(speedup),
                    f(e.total_nj / 1000.0 / rounds as f64),
                    f(e.gflops_per_w),
                ]);
                points.push(Json::obj([
                    ("bench", Json::from("solver_loop")),
                    ("rounds", Json::from(rounds)),
                    ("cores", Json::from(cores)),
                    ("policy", Json::from(sched_name)),
                    ("jobs", Json::from(run.stats.jobs())),
                    ("waves", Json::from(run.waves)),
                    ("makespan_cycles", Json::from(run.stats.makespan_cycles)),
                    (
                        "aggregate_busy_cycles",
                        Json::from(run.stats.aggregate.cycles),
                    ),
                    ("utilization", Json::from(util)),
                    ("speedup_vs_serial", Json::from(speedup)),
                    (
                        "energy_uj_per_round",
                        Json::from(e.total_nj / 1000.0 / rounds as f64),
                    ),
                    ("gflops_per_w", Json::from(e.gflops_per_w)),
                ]));
            }
        }
    }

    // The acceptance gate: ≥ 8 dependent rounds, 4 cores vs 1 core, every
    // policy — the intra-round TRSM/SYRK fan-out must buy ≥ 1.5x even
    // though every round's CHOL serializes. The sweep above already
    // measured both makespans.
    let deepest = *ROUNDS_SWEEP.last().unwrap();
    for (_, sched_name) in POLICIES {
        let makespan_at = |cores: usize| makespans[&(deepest, cores, sched_name)];
        let speedup = makespan_at(1) as f64 / makespan_at(4) as f64;
        assert!(
            speedup >= 1.5,
            "{sched_name}: {deepest}-round loop gained only {speedup:.2}x on 4 cores"
        );
        points.push(Json::obj([
            ("bench", Json::from("solver_loop_speedup_gate")),
            ("rounds", Json::from(deepest)),
            ("policy", Json::from(sched_name)),
            ("speedup_4_vs_1", Json::from(speedup)),
            ("threshold", Json::from(1.5)),
        ]));
    }

    emit_json(Json::arr(points));
    if !json_mode() {
        table(
            "Solver loop — IPM-style CHOL→TRSM→SYRK rounds (n=16, 4 panels × 8 cols) \
             as a JobGraph on a long-lived LacService; outputs verified vs linalg-ref, \
             bit-identical across policies/reruns; ≥1.5x @ 4 cores asserted",
            &[
                "rounds", "cores", "policy", "makespan", "waves", "util", "speedup", "uJ/round",
                "GFLOPS/W",
            ],
            &rows,
        );
    }
}
