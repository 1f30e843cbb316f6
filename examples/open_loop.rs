//! Open-loop serving, end to end: two latency classes sharing one
//! service under real arrival pressure — including a burst.
//!
//! An *interactive* tenant (tight deadline SLO, gentle Poisson arrivals)
//! shares a 2-core `LacService` with a *batch* tenant that fires bursty
//! on-off trains of solver requests. The `lac_traffic` driver replays a
//! seeded arrival trace on its own clock: it fast-forwards the simulated
//! time between arrivals, admits each request through the tenant's
//! admission door, and charges every completion's sojourn time (arrival →
//! done) to its tenant's log-bucketed histogram.
//!
//! The same trace is replayed twice — plain fair share vs deadline-slack
//! boosted fair share — to show the SLO layer doing its job: the
//! interactive tail (p99) tightens while every output bit stays
//! identical, because the boost only reorders *when* requests run.
//!
//! ```sh
//! cargo run --release --example open_loop
//! ```

use lap::lac_kernels::KernelReport;
use lap::lac_kernels::{SolverJob, SolverLoopParams, SolverStream};
use lap::lac_sim::{ChipConfig, DynamicGraph, LacConfig, LacService, Scheduler, TenantConfig};
use lap::lac_traffic::{
    run_open_loop_dynamic, ArrivalProcess, ArrivalTrace, DynamicOpenLoopReport, OpenLoopConfig,
};

fn main() {
    // Every arrival becomes one small interior-point chain (CHOL → TRSM
    // fan-out → SYRK), operands salted by (tenant, request index).
    let stream = SolverStream::new(SolverLoopParams {
        n: 8,
        rounds: 1,
        panels: 2,
        width: 4,
        salt: 7,
    });

    // One request's standalone service time anchors the rates below.
    let unit = {
        let mut chip = lap::lac_sim::LacChip::new(ChipConfig::new(2, LacConfig::default()));
        chip.run_graph(&stream.request(0, 0).graph().graph, Scheduler::CriticalPath)
            .expect("hazard-free schedule")
            .stats
            .makespan_cycles
    };

    // The traffic: interactive requests trickle in (Poisson, one per
    // ~4 service times); batch work arrives in bursts of ~8 back-to-back
    // requests — the classic tail-latency stress.
    let trace = ArrivalTrace::generate(
        42,
        unit * 150,
        &[
            ArrivalProcess::Poisson {
                mean_gap: 4.0 * unit as f64,
            },
            ArrivalProcess::OnOff {
                mean_gap_on: unit as f64 / 4.0,
                mean_burst: 8.0,
                mean_gap_off: 6.0 * unit as f64,
            },
        ],
    );
    println!(
        "trace: {} interactive + {} batch arrivals over {} cycles (unit service {} cycles)\n",
        trace.count_for(0),
        trace.count_for(1),
        trace.horizon(),
        unit
    );

    let deadline = 6 * unit;
    let replay = |slo_boost: bool| {
        let mut svc: LacService<SolverJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        // Batch pays for 4x the share, so plain fair share serves its
        // backlog first — exactly the regime where the interactive
        // tenant needs its deadline boost.
        let ids = vec![
            svc.add_tenant(TenantConfig::new("interactive").with_deadline(deadline)),
            svc.add_tenant(TenantConfig::new("batch").with_weight(4)),
        ];
        run_open_loop_dynamic(
            &mut svc,
            &trace,
            &ids,
            |a| DynamicGraph::fixed(stream.request(a.tenant, a.index).graph().graph),
            OpenLoopConfig {
                sched: Scheduler::FairShare,
                slo_boost,
                ..OpenLoopConfig::default()
            },
        )
        .expect("hazard-free open-loop replay")
    };

    let plain = replay(false);
    let boosted = replay(true);

    for (name, report) in [("plain fair share", &plain), ("SLO-boosted", &boosted)] {
        println!("{name} ({} rounds):", report.rounds);
        for (t, label) in [(0, "interactive"), (1, "batch")] {
            let m = &report.per_tenant[t];
            println!(
                "  {label:11}  n={:3}  mean={:7.0}  p50={:6}  p99={:6}  p999={:6}  misses={}",
                m.hist.count(),
                m.hist.mean(),
                m.hist.p50(),
                m.hist.p99(),
                m.hist.p999(),
                m.deadline_misses,
            );
        }
    }

    // The boost trades batch tail for interactive tail — verify the
    // deal, and verify it never touched a single output bit.
    let p99 = |r: &DynamicOpenLoopReport<_>, t: usize| r.per_tenant[t].hist.p99();
    assert!(
        p99(&boosted, 0) <= p99(&plain, 0),
        "SLO boost must not worsen the interactive tail"
    );
    let bits = |r: &DynamicOpenLoopReport<KernelReport>| {
        let mut v: Vec<_> = r
            .completed
            .iter()
            .map(|c| (c.arrival, c.outcome.segments.clone()))
            .collect();
        v.sort_by_key(|(a, _)| (a.tenant, a.index));
        v
    };
    assert_eq!(
        bits(&plain),
        bits(&boosted),
        "outputs must be bit-identical"
    );

    // And the results are real: every request checks against the
    // independent linalg-ref chain.
    for c in &boosted.completed {
        stream
            .request(c.arrival.tenant, c.arrival.index)
            .check_graph(&c.outcome.segments[0])
            .expect("streamed outputs match linalg-ref");
    }
    println!(
        "\ninteractive p99: {} -> {} cycles under the boost; outputs bit-identical, \
         all {} requests verified vs linalg-ref",
        p99(&plain, 0),
        p99(&boosted, 0),
        boosted.completed.len()
    );
}
