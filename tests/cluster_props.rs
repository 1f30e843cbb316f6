//! Property tests (vendored proptest) for the multi-chip cluster layer:
//! whatever the DAG shape, chip/core counts, costs, link model and
//! partitioner —
//!
//! * the partitioner places every job on exactly one chip and its
//!   per-chip loads account for every cost hint;
//! * `CostBins` never splits a weakly-connected component (no cut edges
//!   within a component), and the union of chips' jobs is the graph;
//! * every cross-chip edge is charged exactly one transfer, with the
//!   configured `hop + ⌈words/bandwidth⌉` cycle cost, and same-chip edges
//!   are never charged;
//! * an N=1 cluster is bit-identical to the one-chip door,
//!   `LacService::submit` — outputs, per-core stats, makespan, waves;
//! * reruns are bit-identical, and outputs are partition-independent;
//! * a one-graph round through one fresh weight-1 tenant equals
//!   `run_graph` on the same graph in every output, clock and meter.

use lap::lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, ExecStats, JobGraph, LacCluster, LacConfig, LacEngine,
    LacService, Partitioner, Scheduler, SimError, SimMode, TenantConfig, TraceEvent,
};
use lap::lac_sim::{ExtOp, ProgramBuilder, Source};
use proptest::prelude::*;

const POLICIES: [Scheduler; 3] = [
    Scheduler::Fifo,
    Scheduler::LeastLoaded,
    Scheduler::CriticalPath,
];

fn policy(which: u8) -> Scheduler {
    POLICIES[which as usize % 3]
}

/// A MAC-and-idle program job with an explicit cost hint and transfer
/// size.
#[derive(Clone)]
struct SizedJob {
    extra: usize,
    cost: u64,
    words: u64,
}

impl ChipJob for SizedJob {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        self.cost
    }

    fn transfer_words(&self) -> u64 {
        self.words
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<ExecStats, SimError> {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + self.extra);
        eng.run_program(&b.build())
    }
}

/// Build a pseudo-random DAG of [`SizedJob`]s: job `j > 0` gets up to two
/// parents drawn from `seeds` (a sentinel leaves some jobs as roots).
fn random_dag(extras: &[usize], seeds: &[u64]) -> (JobGraph<SizedJob>, Vec<(usize, usize)>) {
    let mut graph = JobGraph::new();
    let mut edges = Vec::new();
    let mut ids = Vec::new();
    for (j, &extra) in extras.iter().enumerate() {
        let mut parents = Vec::new();
        if j > 0 {
            for take in 0..2usize {
                let seed = seeds[(2 * j + take) % seeds.len()];
                if !seed.is_multiple_of(3) {
                    let p = (seed as usize) % j;
                    parents.push(ids[p]);
                    edges.push((p, j));
                }
            }
        }
        let id = graph.add_after(
            SizedJob {
                extra,
                cost: 1 + (extra as u64) * 7 % 13,
                words: 1 + (extra as u64) * 11 % 29,
            },
            &parents,
        );
        ids.push(id);
    }
    edges.sort_unstable();
    edges.dedup();
    (graph, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_job_lands_on_exactly_one_chip(
        extras in prop::collection::vec(0usize..12, 1..24),
        seeds in prop::collection::vec(any::<u64>(), 8..9),
        chips in 1usize..=5,
        striped in any::<bool>(),
    ) {
        let (graph, edges) = random_dag(&extras, &seeds);
        let partitioner = if striped { Partitioner::Striped } else { Partitioner::CostBins };
        let part = partitioner.partition(&graph, chips);

        // chip_of is total: one chip per job, all in range.
        prop_assert_eq!(part.chip_of.len(), extras.len());
        prop_assert!(part.chip_of.iter().all(|&c| c < chips));
        // Per-chip loads account for every cost hint exactly once.
        let total: u64 = graph.total_cost();
        prop_assert_eq!(part.chip_cost.iter().sum::<u64>(), total);
        // Recompute each job's cost hint the way random_dag assigns it.
        let costs: Vec<u64> = extras.iter().map(|&e| 1 + (e as u64) * 7 % 13).collect();
        for chip in 0..chips {
            let direct: u64 = (0..costs.len())
                .filter(|&j| part.chip_of[j] == chip)
                .map(|j| costs[j])
                .sum();
            prop_assert_eq!(direct, part.chip_cost[chip], "chip {} load", chip);
        }
        // cut_edges is exactly the set of chip-crossing edges.
        let expect: Vec<(usize, usize)> = edges
            .iter()
            .copied()
            .filter(|&(p, c)| part.chip_of[p] != part.chip_of[c])
            .collect();
        let got: Vec<(usize, usize)> = part
            .cut_edges
            .iter()
            .map(|&(p, c)| (p.index(), c.index()))
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        prop_assert_eq!(got_sorted, expect);
        // CostBins never cuts an edge (components stay whole).
        if !striped {
            prop_assert!(part.cut_edges.is_empty(),
                "CostBins split a component: {:?}", part.cut_edges);
        }
        // Determinism: partitioning twice gives the same answer.
        prop_assert_eq!(part, partitioner.partition(&graph, chips));
    }

    #[test]
    fn cross_chip_edges_are_charged_exactly_once(
        extras in prop::collection::vec(0usize..10, 1..20),
        seeds in prop::collection::vec(any::<u64>(), 8..9),
        chips in 2usize..=4,
        cores in 1usize..=3,
        link_bw in 1u64..=8,
        hop in 0u64..=300,
        which in any::<u8>(),
    ) {
        let (graph, _) = random_dag(&extras, &seeds);
        let cfg = ClusterConfig::homogeneous(chips, ChipConfig::new(cores, LacConfig::default()))
            .with_link(link_bw, hop);
        // Striped partitioning maximizes cut edges — the interesting case.
        let mut cluster: LacCluster<SizedJob> =
            LacCluster::new(cfg).with_partitioner(Partitioner::Striped);
        let run = cluster.run_graph(&graph, policy(which)).unwrap();

        // One transfer per cut edge: same multiset, no duplicates, no
        // same-chip charges.
        let mut charged: Vec<(usize, usize)> = Vec::new();
        let (mut words_sum, mut cycles_sum) = (0u64, 0u64);
        for t in run.events.transfer_events() {
            let TraceEvent::Transfer { parent, child, from_chip, to_chip, words, start, end } = *t
            else {
                unreachable!("the log's transfers are transfer events");
            };
            prop_assert!(from_chip != to_chip, "same-chip edge charged");
            prop_assert_eq!(from_chip, run.partition.chip_of[parent]);
            prop_assert_eq!(to_chip, run.partition.chip_of[child]);
            // The configured price, exactly.
            prop_assert_eq!(end - start, hop + words.div_ceil(link_bw));
            charged.push((parent, child));
            words_sum += words;
            cycles_sum += end - start;
        }
        charged.sort_unstable();
        let mut dedup = charged.clone();
        dedup.dedup();
        prop_assert_eq!(&charged, &dedup, "an edge was charged twice");
        let mut cut: Vec<(usize, usize)> = run
            .partition
            .cut_edges
            .iter()
            .map(|&(p, c)| (p.index(), c.index()))
            .collect();
        cut.sort_unstable();
        prop_assert_eq!(charged, cut, "charges != cut edges");
        // Totals are the sums of the log.
        prop_assert_eq!(run.stats.transferred_words, words_sum);
        prop_assert_eq!(run.stats.transfer_cycles, cycles_sum);
    }

    #[test]
    fn single_chip_cluster_matches_the_chip_door_bitwise(
        extras in prop::collection::vec(0usize..12, 1..20),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        cores in 1usize..=4,
        which in any::<u8>(),
    ) {
        let sched = policy(which);
        let chip_cfg = ChipConfig::new(cores, LacConfig::default());
        let (graph, _) = random_dag(&extras, &seeds);
        let mut cluster: LacCluster<SizedJob> =
            LacCluster::new(ClusterConfig::homogeneous(1, chip_cfg));
        let via_cluster = cluster.run_graph(&graph, sched).unwrap();
        let (graph, _) = random_dag(&extras, &seeds);
        let mut chip = LacService::new(chip_cfg);
        let via_chip = chip.submit(&graph, sched).unwrap();

        prop_assert_eq!(&via_cluster.outputs, &via_chip.outputs);
        prop_assert_eq!(&via_cluster.stats.per_chip[0].per_core, &via_chip.stats.per_core);
        prop_assert_eq!(
            via_cluster.stats.per_chip[0].jobs_per_core.clone(),
            via_chip.stats.jobs_per_core
        );
        prop_assert_eq!(via_cluster.stats.makespan_cycles, via_chip.stats.makespan_cycles);
        prop_assert_eq!(via_cluster.stats.aggregate, via_chip.stats.aggregate);
        prop_assert_eq!(via_cluster.waves, via_chip.waves);
        prop_assert_eq!(via_cluster.wave_of, via_chip.wave_of);
        prop_assert_eq!(via_cluster.stats.transferred_words, 0);
        prop_assert_eq!(via_cluster.stats.transfer_stall_cycles, 0);
        let cores_only: Vec<usize> =
            via_cluster.assignment.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(cores_only, via_chip.assignment);
    }

    #[test]
    fn cluster_runs_are_deterministic_and_partition_independent(
        extras in prop::collection::vec(0usize..10, 1..16),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        chips in 1usize..=4,
        cores in 1usize..=3,
        which in any::<u8>(),
    ) {
        let sched = policy(which);
        let cfg = ClusterConfig::homogeneous(chips, ChipConfig::new(cores, LacConfig::default()));
        // Warm rerun on the same cluster: bit-identical everything.
        let mut cluster: LacCluster<SizedJob> = LacCluster::new(cfg.clone());
        let (graph, _) = random_dag(&extras, &seeds);
        let first = cluster.run_graph(&graph, sched).unwrap();
        let second = cluster.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&first.outputs, &second.outputs);
        prop_assert_eq!(&first.stats, &second.stats);
        prop_assert_eq!(&first.events, &second.events);
        prop_assert_eq!(&first.partition, &second.partition);
        prop_assert_eq!(first.wave_of, second.wave_of);

        // A different partitioner changes the schedule, never the bits of
        // the outputs.
        let mut striped: LacCluster<SizedJob> =
            LacCluster::new(cfg).with_partitioner(Partitioner::Striped);
        let stripe_run = striped.run_graph(&graph, sched).unwrap();
        prop_assert_eq!(&first.outputs, &stripe_run.outputs,
            "partitioning changed functional results");
    }

    // `run_graph` and a tenant round share one path. With one graph
    // admitted through one fresh weight-1 tenant the round plans exactly
    // what `run_graph` plans, so on the same graph and fresh clusters the
    // two doors agree on everything they report.
    #[test]
    fn a_one_graph_round_equals_run_graph(
        extras in prop::collection::vec(0usize..10, 1..20),
        seeds in prop::collection::vec(any::<u64>(), 8..9),
        chips in 1usize..=3,
        cores in 1usize..=3,
        which in any::<u8>(),
        event in any::<bool>(),
        striped in any::<bool>(),
    ) {
        let sched = [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
            Scheduler::FairShare,
        ][which as usize % 4];
        let mode = if event { SimMode::Event } else { SimMode::Wave };
        let partitioner = if striped { Partitioner::Striped } else { Partitioner::CostBins };
        let fresh = || -> LacCluster<SizedJob> {
            let chip = ChipConfig::new(cores, LacConfig::default()).with_sim_mode(mode);
            LacCluster::new(ClusterConfig::homogeneous(chips, chip)).with_partitioner(partitioner)
        };
        let (graph, _) = random_dag(&extras, &seeds);
        let mut door = fresh();
        let run = door.run_graph(&graph, sched).unwrap();
        let mut rounds = fresh();
        let t = rounds.add_tenant(TenantConfig::new("only"));
        rounds.enqueue(t, graph).unwrap();
        let round = rounds.run_admitted(sched).unwrap();

        prop_assert_eq!(round.graphs.len(), 1);
        let done = &round.graphs[0];
        prop_assert_eq!(&done.outputs, &run.outputs);
        let global: Vec<usize> =
            run.assignment.iter().map(|&(chip, core)| chip * cores + core).collect();
        prop_assert_eq!(&done.assignment, &global);
        prop_assert_eq!(&done.wave_of, &run.wave_of);
        prop_assert_eq!(round.waves, run.waves);
        prop_assert_eq!(&round.wave_end_cycles, &run.wave_end_cycles);
        prop_assert_eq!(&round.idle_per_core, &run.idle_per_core);
        prop_assert_eq!(&round.partition, &run.partition);
        prop_assert_eq!(&round.stats, &run.stats);
        prop_assert_eq!(&round.events, &run.events);
        prop_assert_eq!(rounds.session(), door.session());
    }
}
