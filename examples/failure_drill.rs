//! Failure drill, end to end: kill a chip in the middle of a fleet
//! round and watch the cluster survive it — bit for bit.
//!
//! A 3-chip `LacCluster` serves a round of streamed solver requests.
//! The same round is replayed with a `FaultPlan` that kills chip 1
//! mid-run: the dying chip's in-flight wave is revoked (the work ran —
//! it stays on the meters), its jobs are requeued onto the survivors,
//! and the round completes with outputs **bit-identical** to the
//! fault-free run — chip loss changes the makespan, never the answer.
//!
//! The run's event log — job spans, revoked executions, the fault, every
//! requeue — is exported in Chrome trace format to
//! `failure_drill_trace.json` in the system temp dir (the run prints the
//! path); open it at `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the drill on a timeline.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! ```

use lap::lac_kernels::{SolverJob, SolverLoopParams, SolverStream};
use lap::lac_sim::{
    ChipConfig, ClusterConfig, FaultPlan, LacCluster, LacConfig, Scheduler, TenantConfig,
    TraceEvent,
};

fn main() {
    let stream = SolverStream::new(SolverLoopParams {
        n: 8,
        rounds: 1,
        panels: 2,
        width: 4,
        salt: 77,
    });

    // One round of 8 requests on a fresh 3-chip fleet, optionally with a
    // deterministic kill scheduled on the session clock.
    let run_round = |fault: Option<FaultPlan>| {
        let mut cluster: LacCluster<SolverJob> = LacCluster::new(ClusterConfig::homogeneous(
            3,
            ChipConfig::new(2, LacConfig::default()),
        ));
        if let Some(plan) = fault {
            cluster.inject_faults(plan);
        }
        let tenant = cluster.add_tenant(TenantConfig::new("fleet"));
        for i in 0..8 {
            cluster
                .enqueue(tenant, stream.request(0, i).graph().graph)
                .expect("admission is unbounded here");
        }
        let round = cluster
            .run_admitted(Scheduler::CriticalPath)
            .expect("hazard-free round");
        (round, cluster)
    };

    let (healthy, _) = run_round(None);
    println!(
        "fault-free round: 8 requests, {} waves, makespan {} cycles on 3 chips",
        healthy.waves, healthy.stats.makespan_cycles
    );

    // The drill: chip 1 dies halfway through the fault-free makespan.
    let kill_tick = healthy.stats.makespan_cycles / 2;
    let (drilled, cluster) = run_round(Some(FaultPlan::new().kill(1, kill_tick)));
    assert!(cluster.dead_chips()[1], "the kill landed");

    let count = |pred: fn(&TraceEvent) -> bool| drilled.events.count(pred);
    let discarded = count(|e| {
        matches!(
            e,
            TraceEvent::Job {
                discarded: true,
                ..
            }
        )
    });
    let requeues = count(|e| matches!(e, TraceEvent::Requeue { .. }));
    println!(
        "drill: chip 1 killed at tick {kill_tick} -> {} executions revoked, \
         {} jobs requeued onto chips 0/2, makespan {} cycles ({:.2}x recovery overhead), \
         {} survivors carry the next round",
        discarded,
        requeues,
        drilled.stats.makespan_cycles,
        drilled.stats.makespan_cycles as f64 / healthy.stats.makespan_cycles as f64,
        cluster.alive_chips(),
    );

    // The headline: the kill moved work, never bits.
    for (h, d) in healthy.graphs.iter().zip(&drilled.graphs) {
        assert_eq!(h.outputs, d.outputs, "chip loss must never change outputs");
    }
    // And the outputs are *right*, not merely stable: every request
    // checks against the independent linalg-ref chain.
    for (i, g) in drilled.graphs.iter().enumerate() {
        stream
            .request(0, i as u64)
            .check_graph(&g.outputs)
            .expect("drilled outputs match linalg-ref");
    }
    println!("outputs: bit-identical to the fault-free round, verified vs linalg-ref");

    // The observability door: the whole drill as a Chrome trace.
    let trace = drilled.events.to_chrome_trace();
    let path = std::env::temp_dir().join("failure_drill_trace.json");
    std::fs::write(&path, &trace).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "trace: {} events ({} bytes) -> {} (load in chrome://tracing or ui.perfetto.dev)",
        drilled.events.len(),
        trace.len(),
        path.display()
    );
}
