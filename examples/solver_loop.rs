//! A 3-round IPM-style solver loop on a 4-core chip through the
//! submission service — the production shape the dependency-graph API
//! exists for.
//!
//! Each round factors the current system matrix (CHOL), fans four
//! right-hand-side panels out across the cores (blocked TRSM), squares
//! the solutions (SYRK), and folds the updates into the next round's
//! matrix: a diamond-per-round DAG whose serial spine is the factorization
//! and whose width is the panel fan-out. The `LacService` keeps each of
//! its cores warm across submissions; every output is verified
//! against an independent `linalg-ref` chain.
//!
//! ```sh
//! cargo run --release --example solver_loop
//! ```

use lap::lac_kernels::{Details, SolverLoopParams, SolverLoopWorkload};
use lap::lac_power::ChipEnergyModel;
use lap::lac_sim::{ChipConfig, LacConfig, LacService, Scheduler, TraceEvent};

fn main() {
    let workload = SolverLoopWorkload::new(SolverLoopParams {
        n: 16,
        rounds: 3,
        panels: 4,
        width: 8,
        salt: 7,
    });

    // A long-lived 4-core service: its cores stay warm across
    // submissions.
    let mut service = LacService::new(ChipConfig::new(4, LacConfig::default()));

    let solver_graph = workload.graph();
    let run = service
        .submit(&solver_graph.graph, Scheduler::CriticalPath)
        .expect("hazard-free schedule");
    workload
        .check_graph(&run.outputs)
        .expect("every round matches linalg-ref");

    println!(
        "{} jobs over {} waves on {} cores: makespan {} cycles ({:.2}x vs 1 core)",
        run.stats.jobs(),
        run.waves,
        service.num_cores(),
        run.stats.makespan_cycles,
        run.stats.speedup(),
    );
    for (k, &chol) in solver_graph.chol.iter().enumerate() {
        let report = &run.outputs[chol.index()];
        let Details::Cholesky { l } = &report.details else {
            unreachable!("CHOL jobs report their factor")
        };
        // The job's cycles are its span in the run's event log.
        let cycles = run
            .events
            .events()
            .iter()
            .find_map(|e| match *e {
                TraceEvent::Job {
                    job,
                    start,
                    end,
                    discarded: false,
                    ..
                } if job == chol.index() => Some(end - start),
                _ => None,
            })
            .expect("every job retires once");
        println!(
            "  round {k}: factor on core {}, {cycles} cycles, ‖L‖F = {:.3}",
            run.assignment[chol.index()],
            l.fro_norm()
        );
    }

    // The service session prices the whole lifetime — add an idle gap
    // between batches and the static uncore keeps burning.
    service.advance_idle(10_000);
    let energy = ChipEnergyModel::lap_default().summarize(&service.session().chip_stats());
    println!(
        "service lifetime: {} cycles ({} busy), {:.1} uJ, {:.1} GFLOPS/W",
        service.session().clock_cycles,
        service.session().chip_stats().aggregate.cycles,
        energy.total_nj / 1000.0,
        energy.gflops_per_w
    );
}
