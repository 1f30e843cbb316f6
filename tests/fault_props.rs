//! Property tests (vendored proptest) for deterministic fault injection
//! and the trace door — the failure-drill invariants:
//!
//! * **bits never change**: whatever the DAG, cluster shape and single
//!   `(chip, tick)` kill, outputs are bit-identical to the fault-free
//!   run (and reruns of the faulted cluster are bit-identical too);
//! * **exactly once**: every job retires exactly one non-discarded
//!   execution in the event log — revoked executions are marked
//!   discarded, requeued jobs re-run on a survivor;
//! * **work stays metered**: per-core busy + idle reconstructs the
//!   makespan on every core, dead or alive, and the cluster energy
//!   model's totals still decompose into chips + link exactly;
//! * **tenant accounting survives**: after a faulted multi-tenant round,
//!   every tenant's inflight cost has drained to zero and the round's
//!   completions cover every admitted graph;
//! * **the trace door is honest JSON**: the exported Chrome trace parses
//!   with `lac_bench`'s own parser and carries the fault and requeue
//!   instants, and an open-loop replay over a dying cluster merges round
//!   logs onto one absolute timeline.

mod common;

use common::{check_exactly_once, policy, random_sized_dag, SizedJob};
use lac_bench::json::Json;
use lap::lac_power::ClusterEnergyModel;
use lap::lac_sim::{
    ChipConfig, ClusterConfig, DynamicGraph, ExecStats, FaultPlan, JobGraph, LacCluster, LacConfig,
    Scheduler, TenantConfig, TraceEvent,
};
use lap::lac_traffic::{
    run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, DynamicOpenLoopReport,
    OpenLoopConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_chip_loss_never_changes_output_bits(
        extras in prop::collection::vec(0usize..10, 2..20),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 2usize..=4,
        cores in 1usize..=3,
        kill_chip_seed in any::<usize>(),
        kill_tick_seed in any::<u64>(),
        which in any::<u8>(),
    ) {
        let sched = policy(which);
        let cfg = ClusterConfig::homogeneous(chips, ChipConfig::new(cores, LacConfig::default()));
        let graph = random_sized_dag(&extras, &seeds);

        let mut healthy: LacCluster<SizedJob> = LacCluster::new(cfg.clone());
        let baseline = healthy.run_graph(&graph, sched).unwrap();

        // Any single (chip, tick) kill with the tick anywhere inside the
        // fault-free run: faults fire at wave boundaries, so every tick
        // in `0..=makespan` is guaranteed to land before the run retires.
        let kill_chip = kill_chip_seed % chips;
        let kill_tick = kill_tick_seed % (baseline.stats.makespan_cycles + 1);
        let plan = FaultPlan::new().kill(kill_chip, kill_tick);
        let mut faulty: LacCluster<SizedJob> =
            LacCluster::new(cfg.clone()).with_fault_plan(plan.clone());
        let run = faulty.run_graph(&graph, sched).unwrap();

        prop_assert_eq!(&run.outputs, &baseline.outputs,
            "kill(chip {}, tick {}) changed output bits", kill_chip, kill_tick);
        prop_assert!(faulty.dead_chips()[kill_chip], "the kill must land");
        prop_assert_eq!(faulty.alive_chips(), chips - 1);
        prop_assert_eq!(
            run.events.count(|e| matches!(e, TraceEvent::Fault { .. })), 1);

        // Exactly once, with any revoked executions marked discarded.
        if let Err(msg) = check_exactly_once(&run.events, extras.len()) {
            prop_assert!(false, "{}", msg);
        }

        // Work stays metered: busy + idle is the makespan on every core,
        // including the dead chip's.
        for chip in 0..chips {
            for core in 0..run.idle_per_core[chip].len() {
                prop_assert_eq!(
                    run.stats.per_chip[chip].per_core[core].cycles
                        + run.idle_per_core[chip][core],
                    run.stats.makespan_cycles,
                    "chip {} core {}", chip, core
                );
            }
        }
        // No non-discarded execution lands on the dead chip after the
        // fault's applied tick.
        let fault_tick = run.events.events().iter().find_map(|e| match *e {
            TraceEvent::Fault { tick, .. } => Some(tick),
            _ => None,
        }).unwrap();
        for e in run.events.events() {
            if let TraceEvent::Job { chip, start, discarded, .. } = *e {
                if chip == kill_chip && !discarded {
                    prop_assert!(start < fault_tick,
                        "dead chip retired work after dying");
                }
            }
        }

        // Faulted reruns are themselves bit-identical, end to end.
        let mut again: LacCluster<SizedJob> = LacCluster::new(cfg).with_fault_plan(plan);
        let rerun = again.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&rerun.outputs, &run.outputs);
        prop_assert_eq!(&rerun.stats, &run.stats);
        prop_assert_eq!(rerun.events, run.events);

        // Energy accounting still decomposes exactly on the faulted run.
        let m = ClusterEnergyModel::lap_default();
        let e = m.summarize(&run.stats);
        prop_assert!((e.total_nj - e.chips_nj - e.link_nj).abs() < 1e-9);
        let direct: f64 = e.per_chip.iter().map(|c| c.total_nj).sum();
        prop_assert!((e.chips_nj - direct).abs() < 1e-9);
    }

    #[test]
    fn tenant_budgets_drain_and_rounds_complete_under_chip_loss(
        extras in prop::collection::vec(0usize..8, 2..12),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 2usize..=3,
        kill_tick in 0u64..200,
        which in any::<u8>(),
    ) {
        let sched = policy(which);
        let cfg = ClusterConfig::homogeneous(chips, ChipConfig::new(2, LacConfig::default()));
        let build = |fault: Option<FaultPlan>| {
            let mut c: LacCluster<SizedJob> = LacCluster::new(cfg.clone());
            if let Some(p) = fault {
                c.inject_faults(p);
            }
            let a = c.add_tenant(TenantConfig::new("a"));
            let b = c.add_tenant(TenantConfig::new("b").with_weight(2));
            for (i, t) in [a, b, a].into_iter().enumerate() {
                let g = random_sized_dag(&extras, &seeds[i % seeds.len()..]
                    .iter().copied().chain(seeds.iter().copied()).take(seeds.len())
                    .collect::<Vec<_>>());
                c.enqueue(t, g).unwrap();
            }
            (c, [a, b])
        };
        let (mut healthy, _) = build(None);
        let base = healthy.run_admitted(sched).unwrap();

        let (mut faulty, ids) = build(Some(FaultPlan::new().kill(chips - 1, kill_tick)));
        let round = faulty.run_admitted(sched).unwrap();

        prop_assert_eq!(round.graphs.len(), base.graphs.len(), "every graph completes");
        for (b, f) in base.graphs.iter().zip(&round.graphs) {
            prop_assert_eq!(&b.outputs, &f.outputs, "chip loss changed a tenant's bits");
            prop_assert_eq!(b.ticket, f.ticket);
        }
        for t in ids {
            prop_assert_eq!(faulty.tenant_session(t).inflight_cost, 0,
                "tenant budget must drain after a faulted round");
        }
        // Revoked executions stay metered to the tenant that ran them:
        // job counts cover every job once plus one per discarded
        // execution, and tenant-metered busy cycles reconstruct the
        // cluster aggregate exactly.
        let discarded = round.events.count(|e| matches!(
            e, TraceEvent::Job { discarded: true, .. }));
        let total_jobs = 3 * extras.len() as u64;
        prop_assert_eq!(
            ids.iter().map(|&t| faulty.tenant_session(t).jobs_run).sum::<u64>(),
            total_jobs + discarded as u64
        );
        let tenant_busy: u64 = ids.iter()
            .map(|&t| faulty.tenant_session(t).busy.cycles)
            .sum();
        prop_assert_eq!(tenant_busy, round.stats.aggregate.cycles);
    }
}

/// The Chrome-trace export is real JSON (parsed by `lac-bench`'s own
/// parser, no serde in the build) and carries the drill's fault and
/// requeue instants.
#[test]
fn chrome_trace_parses_and_records_the_drill() {
    let cfg = ClusterConfig::homogeneous(3, ChipConfig::new(2, LacConfig::default()));
    // Wide diamonds: every chip owns work in every wave, so the tick-1
    // kill is guaranteed to catch chip 1 with jobs to revoke and requeue.
    let graph = {
        let mut g = JobGraph::new();
        for k in 0..8usize {
            let job = |c: u64| SizedJob {
                extra: k % 5,
                cost: c,
                words: 2 + k as u64 % 5,
            };
            let a = g.add(job(4));
            let b = g.add_after(job(2), &[a]);
            let c = g.add_after(job(3), &[a]);
            g.add_after(job(1), &[b, c]);
        }
        g
    };
    let mut cluster: LacCluster<SizedJob> =
        LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(1, 1));
    let run = cluster.run_graph(&graph, Scheduler::CriticalPath).unwrap();
    assert!(
        run.events
            .count(|e| matches!(e, TraceEvent::Requeue { .. }))
            > 0,
        "the tick-1 kill must catch in-flight work"
    );

    let json = run.events.to_chrome_trace();
    let doc = Json::parse(&json).expect("chrome trace is well-formed JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(
        events.len(),
        run.events.len(),
        "one JSON event per log event"
    );
    let cat_count = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some(cat))
            .count()
    };
    assert_eq!(
        cat_count("fault"),
        run.events.count(|e| matches!(e, TraceEvent::Fault { .. }))
    );
    assert!(cat_count("fault") > 0, "fault instant exported");
    assert!(cat_count("requeue") > 0, "requeue instants exported");
    assert_eq!(
        cat_count("job"),
        run.events.count(|e| matches!(e, TraceEvent::Job { .. }))
    );
    // Every event has the trace-viewer essentials.
    for e in events {
        assert!(e.get("ph").is_some() && e.get("ts").is_some() && e.get("pid").is_some());
    }
}

/// An open-loop replay over a cluster that loses a chip mid-trace: every
/// arrival is still served with bit-identical outputs, and the merged
/// event log carries the fault on the absolute session clock.
#[test]
fn open_loop_replay_survives_chip_loss_with_identical_bits() {
    let request = |a: &Arrival| -> DynamicGraph<SizedJob> {
        let mut g = JobGraph::new();
        let salt = (a.index as usize + a.tenant) % 4;
        let first = g.add(SizedJob {
            extra: salt,
            cost: 40,
            words: 3,
        });
        g.add_after(
            SizedJob {
                extra: salt + 1,
                cost: 30,
                words: 2,
            },
            &[first],
        );
        DynamicGraph::fixed(g)
    };
    let trace = ArrivalTrace::generate(11, 30_000, &[ArrivalProcess::Poisson { mean_gap: 400.0 }]);
    let replay = |fault: Option<FaultPlan>| {
        let mut cluster: LacCluster<SizedJob> = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(1, LacConfig::default()),
        ));
        if let Some(p) = fault {
            cluster.inject_faults(p);
        }
        let ids = vec![cluster.add_tenant(TenantConfig::new("t"))];
        let report = run_open_loop_dynamic(
            &mut cluster,
            &trace,
            &ids,
            request,
            OpenLoopConfig::default(),
        )
        .expect("replay survives the kill");
        (report, cluster)
    };
    let (healthy, _) = replay(None);
    // Kill chip 1 roughly mid-trace on the session clock.
    let (faulted, cluster) = replay(Some(FaultPlan::new().kill(1, 15_000)));

    assert!(cluster.dead_chips()[1]);
    assert_eq!(faulted.completed.len(), trace.len(), "every arrival served");
    let outs = |r: &DynamicOpenLoopReport<ExecStats>| {
        let mut v: Vec<_> = r
            .completed
            .iter()
            .map(|c| (c.arrival, c.outcome.segments.clone()))
            .collect();
        v.sort_by_key(|(a, _)| (a.tenant, a.index));
        v
    };
    assert_eq!(
        outs(&healthy),
        outs(&faulted),
        "chip loss changed replay bits"
    );

    // The merged log records the fault once, at or after the scheduled
    // session tick (the next wave boundary), and parses as Chrome trace.
    let fault_ticks: Vec<u64> = faulted
        .events
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Fault { chip, tick } => {
                assert_eq!(chip, 1);
                Some(tick)
            }
            _ => None,
        })
        .collect();
    assert_eq!(fault_ticks.len(), 1, "one kill, one fault event");
    assert!(
        fault_ticks[0] >= 15_000,
        "fault applies at a wave boundary >= its tick"
    );
    Json::parse(&faulted.events.to_chrome_trace()).expect("merged trace is well-formed JSON");
}
