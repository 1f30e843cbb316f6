//! A fleet of interior-point DDP trajectory optimizations converging
//! through the continuation subsystem.
//!
//! Eight small optimal-control problems (4 states, 4 controls, horizon
//! 12, log-barrier box constraints on the controls) run *to convergence*
//! on one `LacService`: every backward Riccati sweep is a chain of tiny
//! per-timestep device factorizations (4×4 Cholesky + TRSM), and after
//! each sweep the fleet's continuation reads the closing reports and
//! re-appends chains **only for the members that have not converged**.
//! The scheduler never knows the iteration counts in advance — the graph
//! grows until the residuals say stop, which is exactly the workload
//! shape `lac_sim::dynamic` exists for.
//!
//! Watch the segment sizes: members stop at different sweep counts
//! (their box constraints differ), so the appended segments shrink as
//! the fleet drains.
//!
//! ```sh
//! cargo run --release --example ipddp_fleet
//! ```

use lap::lac_kernels::{Details, IpddpFleet};
use lap::lac_sim::{ChipConfig, LacConfig, LacService, Scheduler, TenantConfig};
use lap::lac_traffic::{run_open_loop_dynamic, ArrivalTrace, OpenLoopConfig};

fn main() {
    let fleet = IpddpFleet::demo();
    let members = fleet.params.members;
    let horizon = fleet.params.horizon;
    println!(
        "IPDDP fleet: {members} members, horizon {horizon}, tol {:.0e}\n",
        fleet.params.tol
    );

    let mut svc = LacService::new(ChipConfig::new(4, LacConfig::default()));
    let tenant = svc.add_tenant(TenantConfig::new("fleet"));
    // The fleet is one request in a closed batch: due at tick 0, served
    // round after round until its continuation says every member is done.
    let report = run_open_loop_dynamic(
        &mut svc,
        &ArrivalTrace::batch(&[1]),
        &[tenant],
        |_| fleet.dynamic(),
        OpenLoopConfig {
            sched: Scheduler::FairShare,
            ..OpenLoopConfig::default()
        },
    )
    .expect("hazard-free dynamic run");
    let outcome = &report.completed[0].outcome;
    fleet
        .check(outcome)
        .expect("every trajectory matches linalg-ref");

    // The draining fleet, sweep by sweep: each segment is one backward+
    // forward sweep for every still-active member (horizon jobs each).
    println!("sweep  active  jobs   closing grads (per member)");
    for (sweep, seg) in outcome.segments.iter().enumerate() {
        let mut grads = Vec::new();
        for r in seg {
            if let Details::Ddp(ddp) = &r.details {
                grads.push(format!("{:.1e}", ddp.grad));
            }
        }
        println!(
            "{sweep:>5}  {:>6}  {:>5}  {}",
            seg.len() / horizon,
            seg.len(),
            grads.join("  ")
        );
    }

    // Per-member convergence: the last sweep that closed for each member.
    let mut last_sweep = vec![0usize; members];
    for (sweep, seg) in outcome.segments.iter().enumerate() {
        for r in seg {
            if let Details::Ddp(ddp) = &r.details {
                last_sweep[ddp.member] = sweep;
            }
        }
    }
    println!("\nmember  sweeps to converge");
    for (m, last) in last_sweep.iter().enumerate() {
        println!("{m:>6}  {}", last + 1);
    }

    println!(
        "\ntotal: {} jobs across {} segments, {} serving rounds, \
         {} cost appended after submission, clock {} cycles",
        outcome.jobs,
        outcome.segments.len(),
        report.rounds,
        outcome.appended_cost,
        svc.session().clock_cycles
    );
    println!("non-uniform convergence is the point: the graph shape was discovered, not submitted");
}
