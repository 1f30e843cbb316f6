//! Property tests (vendored proptest) for the flat-queue scheduler
//! invariants: whatever the queue, core count, costs, and policy —
//!
//! * every job of a flat graph is assigned, and runs, exactly once, on a
//!   core in range, under every policy;
//! * `ChipStats` aggregate counters equal the sum of the per-core stats;
//! * a flat graph's makespan equals the busiest core's cycles and bounds
//!   every core;
//! * the load-aware policies' imbalance is bounded by the largest job.
//!
//! Graph-shaped invariants (dependency ordering, wave structure, the
//! critical-path policy) live in `tests/graph_props.rs`.

use lap::lac_sim::{
    ChipConfig, ChipStats, ClusterConfig, ExecStats, GraphRun, JobGraph, LacCluster, LacConfig,
    LacService, ProgramJob, Scheduler,
};
use lap::lac_sim::{ExtOp, ProgramBuilder, Source};
use proptest::prelude::*;

fn policy(which: u8) -> Scheduler {
    match which % 3 {
        0 => Scheduler::Fifo,
        1 => Scheduler::LeastLoaded,
        _ => Scheduler::CriticalPath,
    }
}

/// A tiny program: one external load + one MAC + `extra` idle cycles, so
/// per-job cycles and event counts are known in closed form.
fn mac_job(extra: usize) -> ProgramJob {
    let cfg = LacConfig::default();
    let mut b = ProgramBuilder::new(cfg.nr);
    let t = b.push_step();
    b.ext(t, ExtOp::Load { col: 0, addr: 0 });
    b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
    let t = b.push_step();
    b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
    b.idle(cfg.fpu.pipeline_depth + extra);
    ProgramJob::new(b.build())
}

/// Run a flat graph of one-MAC jobs hinted `costs` on a fresh `cores`-core
/// service under `sched`.
fn flat_run(costs: &[u64], cores: usize, sched: Scheduler) -> GraphRun<ExecStats> {
    let graph: JobGraph<ProgramJob> = costs
        .iter()
        .map(|&cost| ProgramJob { cost, ..mac_job(0) })
        .collect();
    let mut chip = LacService::new(ChipConfig::new(cores, LacConfig::default()));
    chip.submit(&graph, sched).unwrap()
}

fn sum_per_core(stats: &ChipStats) -> ExecStats {
    let mut sum = ExecStats::default();
    for s in &stats.per_core {
        sum.merge(s);
    }
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn assignment_is_total_and_in_range(
        costs in prop::collection::vec(0u64..1000, 0..64),
        cores in 1usize..=12,
        which in any::<u8>(),
    ) {
        // All four policies, including the quantum-capped FairShare that
        // deals a flat graph over several waves.
        let sched = match which % 4 {
            0 => Scheduler::Fifo,
            1 => Scheduler::LeastLoaded,
            2 => Scheduler::CriticalPath,
            _ => Scheduler::FairShare,
        };
        let run = flat_run(&costs, cores, sched);
        prop_assert_eq!(run.assignment.len(), costs.len(), "every job placed exactly once");
        prop_assert_eq!(run.stats.jobs(), costs.len() as u64, "every job ran exactly once");
        prop_assert!(run.assignment.iter().all(|&c| c < cores), "cores in range");
    }

    #[test]
    fn fifo_is_round_robin(costs in prop::collection::vec(0u64..1000, 0..64),
                           cores in 1usize..=12) {
        let run = flat_run(&costs, cores, Scheduler::Fifo);
        for (j, &c) in run.assignment.iter().enumerate() {
            prop_assert_eq!(c, j % cores);
        }
    }

    #[test]
    fn load_aware_imbalance_bounded_by_largest_job(
        costs in prop::collection::vec(1u64..1000, 1..64),
        cores in 1usize..=12,
        critical_path in any::<bool>(),
    ) {
        let sched = if critical_path { Scheduler::CriticalPath } else { Scheduler::LeastLoaded };
        let run = flat_run(&costs, cores, sched);
        let mut load = vec![0u64; cores];
        for (j, &c) in run.assignment.iter().enumerate() {
            load[c] += costs[j];
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        let biggest = *costs.iter().max().unwrap();
        // Greedy list scheduling: a core only receives a job while it is a
        // minimum, so no core ends more than one job above another unless
        // the queue ran out (min may stay 0 with fewer jobs than cores).
        prop_assert!(
            max - min <= biggest,
            "{sched:?}: imbalance {} exceeds largest job {biggest}",
            max - min
        );
    }

    #[test]
    fn chip_totals_equal_sum_of_cores(
        extras in prop::collection::vec(0usize..24, 1..24),
        cores in 1usize..=6,
        which in any::<u8>(),
    ) {
        let graph: JobGraph<ProgramJob> = extras.iter().map(|&e| mac_job(e)).collect();
        let mut chip = LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let run = chip.submit(&graph, policy(which)).unwrap();

        // Every job ran exactly once…
        prop_assert_eq!(run.outputs.len(), extras.len());
        prop_assert_eq!(run.stats.jobs(), extras.len() as u64);
        prop_assert_eq!(
            run.stats.jobs_per_core.iter().sum::<u64>(),
            extras.len() as u64
        );
        // …and each issued exactly one MAC.
        prop_assert_eq!(run.stats.aggregate.mac_ops, extras.len() as u64);

        // Aggregate equals the per-core sum, counter for counter.
        prop_assert_eq!(sum_per_core(&run.stats), run.stats.aggregate);

        // A flat graph is one wave: makespan is the busiest core, bounds
        // every core, and busy + idle reconstructs it per core.
        prop_assert_eq!(run.waves, 1);
        let busiest = run.stats.per_core.iter().map(|s| s.cycles).max().unwrap();
        prop_assert_eq!(run.stats.makespan_cycles, busiest);
        for (core, s) in run.stats.per_core.iter().enumerate() {
            prop_assert!(s.cycles <= run.stats.makespan_cycles);
            prop_assert_eq!(
                s.cycles + run.idle_per_core[core],
                run.stats.makespan_cycles
            );
        }

        // Per-job outputs carry the exact per-job cycle counts: job j runs
        // 2 + pipeline + extra cycles regardless of placement.
        let p = LacConfig::default().fpu.pipeline_depth as u64;
        for (out, &extra) in run.outputs.iter().zip(&extras) {
            prop_assert_eq!(out.cycles, 2 + p + extra as u64);
        }
    }

    #[test]
    fn shard_sessions_accumulate_across_graph_runs(
        extras in prop::collection::vec(0usize..8, 1..12),
        cores in 1usize..=4,
    ) {
        let graph: JobGraph<ProgramJob> = extras.iter().map(|&e| mac_job(e)).collect();
        // A one-chip cluster, whose chip shows its shards.
        let chip_cfg = ChipConfig::new(cores, LacConfig::default());
        let mut cluster = LacCluster::new(ClusterConfig::homogeneous(1, chip_cfg));
        let first = cluster.run_graph(&graph, Scheduler::Fifo).unwrap();
        let second = cluster.run_graph(&graph, Scheduler::Fifo).unwrap();
        // Same graph, same placement, same per-run stats…
        prop_assert_eq!(&first.stats, &second.stats);
        // …while the shard sessions keep the running total of both runs.
        let chip = cluster.chip(0);
        let session_total: u64 = (0..chip.num_cores())
            .map(|i| chip.shard(i).session_stats().cycles)
            .sum();
        prop_assert_eq!(session_total, 2 * first.stats.aggregate.cycles);
    }
}
