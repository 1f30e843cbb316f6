//! Differential property tests for the discrete-event simulation core
//! (`SimMode::Event`) against the wave coordinator (`SimMode::Wave`):
//!
//! * **bits never change across modes**: whatever the DAG, policy,
//!   backend (chip, service, cluster, multi-tenant round), fault kill
//!   or warm rerun, outputs are bit-identical between modes — the event
//!   core moves *when* jobs run, never what they compute;
//! * **overlap only helps**: on layered cut-edge graphs, where the
//!   per-hop link latency dominates compute, the event core's makespan
//!   never exceeds the wave coordinator's;
//! * **`SimMode::Wave` is the compatibility mode**: a default-config
//!   run is bit-identical — outputs, stats, clocks and event log — to
//!   an explicit `with_sim_mode(SimMode::Wave)` run;
//! * **accounting still closes under overlap**: `busy + idle + stall =
//!   makespan` on every core of every chip in event mode, every job
//!   retires exactly one non-discarded execution under a kill, and
//!   `to_chrome_trace()` still parses via `lac_bench`'s own JSON parser
//!   even though event-mode spans interleave on the timeline.

// NB: the vendored proptest! shim's matcher does not accept `///` doc
// comments on the test fns — use `//` comments inside the block.

mod common;

use common::{any_policy, check_exactly_once, random_sized_dag, SizedJob, ALL_POLICIES};
use lac_bench::json::Json;
use lap::lac_sim::{
    ChipConfig, ClusterConfig, FaultPlan, JobGraph, LacCluster, LacConfig, LacService, Partitioner,
    Scheduler, SimMode, TenantConfig, TraceEvent,
};
use proptest::prelude::*;

fn cluster_cfg(chips: usize, cores: usize, mode: SimMode) -> ClusterConfig {
    ClusterConfig::homogeneous(chips, ChipConfig::new(cores, LacConfig::default()))
        .with_sim_mode(mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The cluster door: fault-free, under a single (chip, tick) kill,
    // and on a warm rerun, event mode reproduces wave mode's bits.
    #[test]
    fn cluster_outputs_are_bit_identical_across_sim_modes(
        extras in prop::collection::vec(0usize..10, 2..16),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 2usize..=3,
        cores in 1usize..=2,
        kill_chip_seed in any::<usize>(),
        kill_tick_seed in any::<u64>(),
        which in any::<u8>(),
    ) {
        let sched = any_policy(which);
        let graph = random_sized_dag(&extras, &seeds);

        let mut wave: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, cores, SimMode::Wave));
        let wave_run = wave.run_graph(&graph, sched).unwrap();
        let mut event: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, cores, SimMode::Event));
        let event_run = event.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&event_run.outputs, &wave_run.outputs, "modes diverged fault-free");

        // Event-mode accounting closes on every component: busy + idle
        // + stall reconstructs the makespan per core (stall is the
        // all-cores-idle share, identical on every core).
        for chip in 0..chips {
            for core in 0..cores {
                prop_assert_eq!(
                    event_run.stats.per_chip[chip].per_core[core].cycles
                        + event_run.idle_per_core[chip][core]
                        + event_run.stats.transfer_stall_cycles,
                    event_run.stats.makespan_cycles,
                    "chip {} core {}", chip, core
                );
            }
        }

        // A single kill anywhere inside the run changes no bits in
        // either mode.
        let kill_chip = kill_chip_seed % chips;
        let kill_tick = kill_tick_seed % (wave_run.stats.makespan_cycles + 1);
        let plan = FaultPlan::new().kill(kill_chip, kill_tick);
        let mut wave_faulty: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, cores, SimMode::Wave))
                .with_fault_plan(plan.clone());
        let wave_killed = wave_faulty.run_graph(&graph, sched).unwrap();
        let mut event_faulty: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, cores, SimMode::Event))
                .with_fault_plan(plan.clone());
        let event_killed = event_faulty.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&wave_killed.outputs, &wave_run.outputs);
        prop_assert_eq!(&event_killed.outputs, &wave_run.outputs,
            "kill(chip {}, tick {}) split the modes", kill_chip, kill_tick);
        if let Err(msg) = check_exactly_once(&event_killed.events, extras.len()) {
            prop_assert!(false, "{}", msg);
        }

        // Warm rerun of the faulted event cluster: bit-identical end to
        // end, clocks and event log included.
        let mut again: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, cores, SimMode::Event)).with_fault_plan(plan);
        let rerun = again.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&rerun.outputs, &event_killed.outputs);
        prop_assert_eq!(&rerun.stats, &event_killed.stats);
        prop_assert_eq!(rerun.events, event_killed.events);
    }

    // The one-chip door (the service) agrees with the one-chip cluster it
    // fronts and across modes, warm reruns included.
    #[test]
    fn service_and_chip_outputs_are_bit_identical_across_sim_modes(
        extras in prop::collection::vec(0usize..10, 1..12),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        cores in 1usize..=3,
        which in any::<u8>(),
    ) {
        let sched = any_policy(which);
        let mut wave_svc: LacService<SizedJob> =
            LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let base = wave_svc.submit(&random_sized_dag(&extras, &seeds), sched).unwrap();

        let event_cfg = ChipConfig::new(cores, LacConfig::default())
            .with_sim_mode(SimMode::Event);
        let mut event_svc: LacService<SizedJob> = LacService::new(event_cfg);
        let ev = event_svc.submit(&random_sized_dag(&extras, &seeds), sched).unwrap();
        prop_assert_eq!(&ev.outputs, &base.outputs, "service modes diverged");

        // No links on a single chip: busy + idle alone closes to the
        // makespan in event mode too.
        for core in 0..cores {
            prop_assert_eq!(
                ev.stats.per_core[core].cycles + ev.idle_per_core[core],
                ev.stats.makespan_cycles
            );
        }

        // Warm rerun on the long-lived event-mode service.
        let again = event_svc.submit(&random_sized_dag(&extras, &seeds), sched).unwrap();
        prop_assert_eq!(&again.outputs, &ev.outputs, "warm rerun diverged");
        prop_assert_eq!(&again.stats, &ev.stats);

        // A fresh event-mode one-chip cluster agrees bit for bit.
        let graph = random_sized_dag(&extras, &seeds);
        let mut chip: LacCluster<SizedJob> =
            LacCluster::new(ClusterConfig::homogeneous(1, event_cfg));
        let chip_run = chip.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&chip_run.outputs, &ev.outputs);
        prop_assert_eq!(&chip_run.stats.per_chip[0], &ev.stats);
    }

    // Multi-tenant rounds: both modes complete every admitted graph with
    // the same bits and drain every tenant's in-flight budget.
    #[test]
    fn tenant_rounds_are_bit_identical_across_sim_modes(
        extras in prop::collection::vec(0usize..8, 2..10),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        which in any::<u8>(),
    ) {
        let sched = any_policy(which);
        let round = |mode: SimMode| {
            let mut svc: LacService<SizedJob> =
                LacService::new(ChipConfig::new(2, LacConfig::default()).with_sim_mode(mode));
            let a = svc.add_tenant(TenantConfig::new("a"));
            let b = svc.add_tenant(TenantConfig::new("b").with_weight(2));
            for t in [a, b, a] {
                svc.enqueue(t, random_sized_dag(&extras, &seeds)).unwrap();
            }
            let round = svc.run_admitted(sched).unwrap();
            let inflight =
                svc.tenant_session(a).inflight_cost + svc.tenant_session(b).inflight_cost;
            (round, inflight)
        };
        let (wave, wave_inflight) = round(SimMode::Wave);
        let (event, event_inflight) = round(SimMode::Event);
        prop_assert_eq!(wave.graphs.len(), event.graphs.len(), "every graph completes");
        for (w, e) in wave.graphs.iter().zip(&event.graphs) {
            prop_assert_eq!(&w.outputs, &e.outputs, "a tenant's bits changed across modes");
            prop_assert_eq!(w.ticket, e.ticket);
        }
        prop_assert_eq!((wave_inflight, event_inflight), (0, 0), "budgets must drain");
    }

    // Layered fan-out/fan-in stages striped over chips: every
    // consecutive-stage edge is a candidate cut edge, and the 200-cycle
    // hop latency dominates the 1..14-cycle compute — the regime the
    // event core exists for. Overlapping those transfers with compute
    // must never lose to the wave barrier.
    #[test]
    fn event_mode_never_loses_to_waves_on_cut_edge_graphs(
        widths in prop::collection::vec(1usize..4, 2..6),
        salt in any::<u64>(),
        which in any::<u8>(),
    ) {
        let sched = any_policy(which);
        let mut g = JobGraph::new();
        let mut prev = Vec::new();
        let mut k = 0u64;
        for &w in &widths {
            let stage: Vec<_> = (0..w)
                .map(|_| {
                    k += 1;
                    let cost = 1 + salt.wrapping_mul(k) % 13;
                    let words = 1 + salt.wrapping_add(k) % 8;
                    g.add_after(
                        SizedJob { extra: (cost % 5) as usize, cost, words },
                        &prev,
                    )
                })
                .collect();
            prev = stage;
        }
        let mut wave: LacCluster<SizedJob> = LacCluster::new(cluster_cfg(2, 2, SimMode::Wave));
        let wave_run = wave.run_graph(&g, sched).unwrap();
        let mut event: LacCluster<SizedJob> = LacCluster::new(cluster_cfg(2, 2, SimMode::Event));
        let event_run = event.run_graph(&g, sched).unwrap();
        prop_assert_eq!(&event_run.outputs, &wave_run.outputs);
        prop_assert!(
            event_run.stats.makespan_cycles <= wave_run.stats.makespan_cycles,
            "event mode lost: {} > {} cycles",
            event_run.stats.makespan_cycles, wave_run.stats.makespan_cycles
        );
    }

    // SimMode::Wave is the compatibility mode: a default-config cluster
    // and an explicit Wave-mode cluster are bit-identical end to end —
    // outputs, stats (clocks included) and the event log.
    #[test]
    fn wave_mode_is_bit_identical_to_the_default_coordinator(
        extras in prop::collection::vec(0usize..10, 2..12),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 2usize..=3,
        which in any::<u8>(),
    ) {
        let sched = any_policy(which);
        let graph = random_sized_dag(&extras, &seeds);
        let default_cfg =
            ClusterConfig::homogeneous(chips, ChipConfig::new(2, LacConfig::default()));
        let mut default_cluster: LacCluster<SizedJob> = LacCluster::new(default_cfg);
        let default_run = default_cluster.run_graph(&graph, sched).unwrap();
        let mut explicit: LacCluster<SizedJob> =
            LacCluster::new(cluster_cfg(chips, 2, SimMode::Wave));
        let wave_run = explicit.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&default_run.outputs, &wave_run.outputs);
        prop_assert_eq!(&default_run.stats, &wave_run.stats);
        prop_assert_eq!(&default_run.idle_per_core, &wave_run.idle_per_core);
        prop_assert_eq!(default_run.events, wave_run.events);
    }

    // Both modes pick from the one loop's indexed ready queue. Debug
    // builds check every wave's buckets against the wave planners, and
    // every event-mode pick against the first job of a one-core wave,
    // inside the coordinator, so this
    // property drives picks through every shape: random DAGs on 1-3
    // chips, 1-4 tenants with random weights, boosts and starting usage
    // (an uneven warm-up round banks it), every policy in turn (so each
    // case reaches FairShare's usage order), and an optional
    // kill inside the measured round — revoking in-flight (event) or
    // barrier-held (wave) jobs and requeueing jobs still waiting on a
    // transfer. Outputs must match across modes, every job must retire
    // exactly once in each mode, and a rerun must be bit-identical.
    #[test]
    fn picks_match_their_oracles_in_both_modes(
        extras in prop::collection::vec(0usize..10, 2..20),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 1usize..=3,
        cores in 1usize..=2,
        tenants in 1usize..=4,
        weights in prop::collection::vec(1u64..6, 4..5),
        boosts in prop::collection::vec(any::<u64>(), 4..5),
        warmups in prop::collection::vec(0usize..4, 4..5),
        kill_seed in any::<u64>(),
    ) {
        // A third of the tenants run unboosted; the rest carry a slack.
        let boost: Vec<u64> = boosts[..tenants]
            .iter()
            .map(|&b| if b % 3 == 0 { u64::MAX } else { b % 500 })
            .collect();
        // Kill a chip (never the last) somewhere inside the measured round.
        let kill = (chips > 1 && kill_seed % 3 != 0)
            .then(|| ((kill_seed / 3) as usize % chips, kill_seed / 3));
        for sched in ALL_POLICIES {
            let round = |mode: SimMode| {
                let mut cluster: LacCluster<SizedJob> =
                    LacCluster::new(cluster_cfg(chips, cores, mode));
                let ids: Vec<_> = (0..tenants)
                    .map(|t| {
                        let cfg = TenantConfig::new(format!("t{t}")).with_weight(weights[t]);
                        cluster.add_tenant(cfg)
                    })
                    .collect();
                for (t, &id) in ids.iter().enumerate() {
                    for _ in 0..warmups[t] {
                        cluster.enqueue(id, random_sized_dag(&extras[..2], &seeds)).unwrap();
                    }
                }
                cluster.run_admitted(sched).unwrap();
                if let Some((chip, tick)) = kill {
                    let start = cluster.session().clock_cycles;
                    // Jobs here take tens of cycles; land within the round.
                    cluster.inject_faults(FaultPlan::new().kill(chip, start + tick % 400));
                }
                for (t, &id) in ids.iter().enumerate() {
                    let graph = random_sized_dag(&extras[t % extras.len()..], &seeds);
                    cluster.enqueue(id, graph).unwrap();
                }
                cluster.run_admitted_boosted(sched, &boost).unwrap()
            };
            let wave = round(SimMode::Wave);
            let event = round(SimMode::Event);
            prop_assert_eq!(wave.graphs.len(), event.graphs.len());
            for (w, e) in wave.graphs.iter().zip(&event.graphs) {
                prop_assert_eq!(&w.outputs, &e.outputs, "a tenant's bits changed across modes");
            }
            let jobs: usize = event.graphs.iter().map(|g| g.outputs.len()).sum();
            for (mode, run) in [(SimMode::Wave, &wave), (SimMode::Event, &event)] {
                if let Err(msg) = check_exactly_once(&run.events, jobs) {
                    prop_assert!(false, "{:?}: {}", mode, msg);
                }
                let again = round(mode);
                for (a, e) in again.graphs.iter().zip(&run.graphs) {
                    prop_assert_eq!(&a.outputs, &e.outputs);
                    prop_assert_eq!(&a.assignment, &e.assignment);
                }
                prop_assert_eq!(&again.stats, &run.stats);
                prop_assert_eq!(&again.events, &run.events);
            }
        }
    }
}

/// Event-mode spans genuinely overlap on the timeline — a transfer is in
/// flight while endpoint chips compute, which the wave coordinator could
/// never produce — and the Chrome-trace export still parses with
/// `lac-bench`'s own JSON parser, one JSON event per log event.
#[test]
fn event_trace_overlaps_and_still_exports_valid_chrome_json() {
    // Two 1-core chips under the striped partitioner (the stress
    // placement that guarantees cut edges): chip 0 owns a long job,
    // chip 1 finishes a small root early and ships its payload to a
    // chip-0 child. The 200-cycle hop flies *while* chip 0 is still
    // busy — in wave mode the same transfer can only start at the wave
    // barrier, after the long job retires.
    let mut g = JobGraph::new();
    let _heavy = g.add(SizedJob {
        extra: 150,
        cost: 160,
        words: 1,
    });
    let root = g.add(SizedJob {
        extra: 0,
        cost: 8,
        words: 8,
    });
    g.add_after(
        SizedJob {
            extra: 0,
            cost: 8,
            words: 2,
        },
        &[root],
    );
    let mut wave: LacCluster<SizedJob> =
        LacCluster::new(cluster_cfg(2, 1, SimMode::Wave)).with_partitioner(Partitioner::Striped);
    let wave_run = wave.run_graph(&g, Scheduler::CriticalPath).unwrap();
    let mut event: LacCluster<SizedJob> =
        LacCluster::new(cluster_cfg(2, 1, SimMode::Event)).with_partitioner(Partitioner::Striped);
    let run = event.run_graph(&g, Scheduler::CriticalPath).unwrap();
    assert_eq!(run.outputs, wave_run.outputs);
    assert!(
        run.stats.makespan_cycles < wave_run.stats.makespan_cycles,
        "overlap must beat the barrier here: event {} vs wave {}",
        run.stats.makespan_cycles,
        wave_run.stats.makespan_cycles
    );

    // At least one transfer span overlaps a job span.
    let jobs: Vec<(u64, u64)> = run
        .events
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Job {
                start,
                end,
                discarded: false,
                ..
            } => Some((start, end)),
            _ => None,
        })
        .collect();
    let overlapped = run.events.events().iter().any(|e| match *e {
        TraceEvent::Transfer { start, end, .. } => {
            jobs.iter().any(|&(js, je)| js < end && start < je)
        }
        _ => false,
    });
    assert!(overlapped, "no transfer span overlapped a job span");

    // The export is still honest JSON with the trace-viewer essentials.
    let json = run.events.to_chrome_trace();
    let doc = Json::parse(&json).expect("chrome trace with overlapping spans is well-formed");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(
        events.len(),
        run.events.len(),
        "one JSON event per log event"
    );
    for e in events {
        assert!(e.get("ph").is_some() && e.get("ts").is_some() && e.get("pid").is_some());
    }

    // Accounting closes per core even with overlapping spans.
    for chip in 0..2 {
        assert_eq!(
            run.stats.per_chip[chip].per_core[0].cycles
                + run.idle_per_core[chip][0]
                + run.stats.transfer_stall_cycles,
            run.stats.makespan_cycles,
            "chip {chip}"
        );
    }
}
