//! Property tests (vendored proptest) for the dependency-graph scheduler:
//! whatever the DAG shape, core count, costs, and policy —
//!
//! * every job runs exactly once, and never before all its parents
//!   finished (observed through a shared execution log);
//! * per-core busy + idle cycles reconstruct the makespan exactly;
//! * wave planning is work-conserving: no core idles while a ready job
//!   exists, and no core hoards when jobs are scarcer than cores;
//! * named shapes (chain, diamond, fan-out) produce the wave structure
//!   they must;
//! * the graph stores only parents: the children a run derives are
//!   exactly their inverse, and the parents-only critical path equals
//!   the classic recursion over children.

mod common;

use common::{any_policy, mac_job, policy, random_log_dag, ALL_POLICIES, POLICIES};
use lap::lac_sim::{
    plan_wave, ChipConfig, ClusterConfig, ExecStats, JobGraph, LacCluster, LacConfig, LacService,
    Scheduler,
};
use proptest::prelude::*;

/// Longest cost path from `j` to a sink (zero costs count as 1), by
/// recursion over explicit child lists — the textbook definition.
fn longest_path(j: usize, costs: &[u64], children: &[Vec<usize>], memo: &mut [Option<u64>]) -> u64 {
    if let Some(v) = memo[j] {
        return v;
    }
    let tail = children[j]
        .iter()
        .map(|&c| longest_path(c, costs, children, memo))
        .max()
        .unwrap_or(0);
    let v = costs[j].max(1) + tail;
    memo[j] = Some(v);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dag_runs_every_job_once_and_parents_first(
        extras in prop::collection::vec(0usize..16, 1..32),
        seeds in prop::collection::vec(any::<u64>(), 8..9),
        cores in 1usize..=5,
        which in any::<u8>(),
    ) {
        let (graph, edges, log) = random_log_dag(&extras, &seeds);
        let mut chip = LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let run = chip.submit(&graph, any_policy(which)).unwrap();

        // Exactly once.
        prop_assert_eq!(run.outputs.len(), extras.len());
        let order = log.lock().unwrap().clone();
        prop_assert_eq!(order.len(), extras.len(), "log: every job exactly once");
        let mut position = vec![usize::MAX; extras.len()];
        for (pos, &id) in order.iter().enumerate() {
            prop_assert_eq!(position[id], usize::MAX, "job {} logged twice", id);
            position[id] = pos;
        }
        // No job before its parents.
        for &(p, c) in &edges {
            prop_assert!(
                position[p] < position[c],
                "child {} ran before parent {}", c, p
            );
        }

        // Accounting: aggregate = Σ per-core; busy + idle = makespan.
        let mut sum = ExecStats::default();
        for s in &run.stats.per_core {
            sum.merge(s);
        }
        prop_assert_eq!(sum, run.stats.aggregate);
        for core in 0..cores {
            prop_assert_eq!(
                run.stats.per_core[core].cycles + run.idle_per_core[core],
                run.stats.makespan_cycles
            );
        }
        // The makespan sits between the critical chain bound and fully
        // serial execution.
        prop_assert!(run.stats.makespan_cycles <= run.stats.aggregate.cycles);
        prop_assert!(run.waves >= 1 && run.waves <= extras.len());
    }

    #[test]
    fn dag_results_are_policy_and_backend_independent(
        extras in prop::collection::vec(0usize..12, 1..16),
        seeds in prop::collection::vec(any::<u64>(), 6..7),
        cores in 1usize..=4,
    ) {
        let mut baseline: Option<Vec<ExecStats>> = None;
        for sched in ALL_POLICIES {
            // The one-chip door…
            let (graph, _, _) = random_log_dag(&extras, &seeds);
            let mut svc = LacService::new(ChipConfig::new(cores, LacConfig::default()));
            let svc_run = svc.submit(&graph, sched).unwrap();
            // …and the one-chip cluster it fronts must agree bit for bit.
            let (graph, _, _) = random_log_dag(&extras, &seeds);
            let chip_cfg = ChipConfig::new(cores, LacConfig::default());
            let mut cluster = LacCluster::new(ClusterConfig::homogeneous(1, chip_cfg));
            let cluster_run = cluster.run_graph(&graph, sched).unwrap();
            prop_assert_eq!(&svc_run.outputs, &cluster_run.outputs);
            prop_assert_eq!(&svc_run.stats, &cluster_run.stats.per_chip[0]);
            match &baseline {
                None => baseline = Some(svc_run.outputs),
                Some(b) => prop_assert_eq!(b, &svc_run.outputs, "{:?} changed results", sched),
            }
        }
    }

    #[test]
    fn derived_children_invert_parents_and_critical_paths_agree(
        extras in prop::collection::vec(0usize..16, 1..48),
        seeds in prop::collection::vec(any::<u64>(), 8..9),
        costs in prop::collection::vec(0u64..100, 48..49),
    ) {
        // `random_log_dag` may name one parent twice; `edges` is the
        // sorted, deduplicated edge set.
        let (graph, edges, _) = random_log_dag(&extras, &seeds);
        let n = extras.len();
        prop_assert_eq!(graph.edges().count(), edges.len(), "each edge stored once");
        let mut children = vec![Vec::new(); n];
        for &(p, c) in &edges {
            children[p].push(c);
        }
        let derived = graph.children();
        prop_assert_eq!(derived.len(), n);
        prop_assert_eq!(derived.edge_count(), edges.len());
        for (p, want) in children.iter().enumerate() {
            // Each child once, in ascending id order.
            prop_assert_eq!(derived.row(p), &want[..], "children of {}", p);
        }
        let costs = &costs[..n];
        let mut memo = vec![None; n];
        let want: Vec<u64> = (0..n)
            .map(|j| longest_path(j, costs, &children, &mut memo))
            .collect();
        prop_assert_eq!(graph.critical_paths(costs), want);
    }

    #[test]
    fn wave_planning_is_work_conserving(
        costs in prop::collection::vec(1u64..1000, 1..48),
        cores in 1usize..=8,
        which in any::<u8>(),
    ) {
        let ready: Vec<usize> = (0..costs.len()).collect();
        let buckets = plan_wave(policy(which), &ready, &costs, &costs, cores);
        // Every ready job lands in exactly one bucket.
        let mut seen: Vec<usize> = buckets.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, ready.clone());
        if ready.len() >= cores {
            // No core idles while a ready job exists…
            prop_assert!(
                buckets.iter().all(|b| !b.is_empty()),
                "{:?} idled a core with {} ready jobs", policy(which), ready.len()
            );
        } else {
            // …and no core hoards while another sits empty.
            prop_assert!(buckets.iter().all(|b| b.len() <= 1));
        }
    }
}

#[test]
fn chain_diamond_fanout_produce_their_wave_structure() {
    for sched in POLICIES {
        // Chain: n sequential jobs → n waves, zero overlap.
        let mut chain = JobGraph::new();
        let mut prev = chain.add(mac_job(0));
        for i in 1..6 {
            prev = chain.add_after(mac_job(i), &[prev]);
        }
        let mut chip = LacService::new(ChipConfig::new(4, LacConfig::default()));
        let run = chip.submit(&chain, sched).unwrap();
        assert_eq!(run.waves, 6, "{sched:?}: chain depth");
        assert_eq!(
            run.stats.makespan_cycles, run.stats.aggregate.cycles,
            "{sched:?}: a chain cannot overlap"
        );

        // Diamond: 1 → {2..5} → 1 on 4 cores → 3 waves, middle overlaps.
        let mut diamond = JobGraph::new();
        let top = diamond.add(mac_job(0));
        let mids: Vec<_> = (0..4)
            .map(|i| diamond.add_after(mac_job(4 * i), &[top]))
            .collect();
        diamond.add_after(mac_job(0), &mids);
        let mut chip = LacService::new(ChipConfig::new(4, LacConfig::default()));
        let run = chip.submit(&diamond, sched).unwrap();
        assert_eq!(run.waves, 3, "{sched:?}: diamond depth");
        let mid_cycles: Vec<u64> = mids.iter().map(|m| run.outputs[m.index()].cycles).collect();
        assert_eq!(
            run.stats.makespan_cycles,
            run.outputs[0].cycles
                + mid_cycles.iter().copied().max().unwrap()
                + run.outputs[5].cycles,
            "{sched:?}: middle wave runs at the slowest middle job"
        );

        // Fan-out: 1 root, 8 leaves on 4 cores → 2 waves, leaves spread
        // across all cores.
        let mut fan = JobGraph::new();
        let root = fan.add(mac_job(0));
        for i in 0..8 {
            fan.add_after(mac_job(i), &[root]);
        }
        let mut chip = LacService::new(ChipConfig::new(4, LacConfig::default()));
        let run = chip.submit(&fan, sched).unwrap();
        assert_eq!(run.waves, 2, "{sched:?}: fan-out depth");
        let leaf_cores: std::collections::HashSet<usize> =
            run.assignment[1..].iter().copied().collect();
        assert_eq!(leaf_cores.len(), 4, "{sched:?}: leaves use every core");
    }
}

#[test]
fn critical_path_prioritizes_long_chains_over_heavy_singletons() {
    // Wave 1's ready set holds a cost-20 job heading a 5-deep chain
    // (remaining path 100) and a lone cost-50 job. On two cores the
    // critical-path policy must serve the chain head first (it lands on
    // core 0, the first greedy pick); the lone job fills core 1 in the
    // same wave and the chain keeps the run at 5 waves.
    let mut chain_job = mac_job(8);
    chain_job.cost = 20;
    let mut lone = chain_job.clone();
    lone.cost = 50;
    let mut g = JobGraph::new();
    let head = g.add(chain_job.clone());
    let mut prev = head;
    for _ in 0..4 {
        prev = g.add_after(chain_job.clone(), &[prev]);
    }
    let lone_id = g.add(lone);
    let mut chip = LacService::new(ChipConfig::new(2, LacConfig::default()));
    let run = chip.submit(&g, Scheduler::CriticalPath).unwrap();
    assert_eq!(run.waves, 5, "the chain sets the depth");
    assert_eq!(
        run.assignment[head.index()],
        0,
        "highest critical path gets the first slot"
    );
    assert_eq!(
        run.assignment[lone_id.index()],
        1,
        "the singleton overlaps the chain head, not the whole chain"
    );
    // LeastLoaded ignores the chain structure: it sees cost 20 vs 50 in
    // submission order and still must produce identical outputs.
    let mut chip_ll = LacService::new(ChipConfig::new(2, LacConfig::default()));
    let run_ll = chip_ll.submit(&g, Scheduler::LeastLoaded).unwrap();
    assert_eq!(run.outputs, run_ll.outputs);
}
