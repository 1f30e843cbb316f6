//! Determinism guarantees: the simulator is a pure function of
//! (configuration, program, operands). Running the same workload twice on
//! fresh cores — or through a multi-core chip's `LacService` graph
//! under any scheduler policy — must reproduce bit-identical functional
//! outputs and identical cycle counts. Placement and host-thread
//! interleaving must never leak into results.

use lap::lac_kernels::{
    registry, registry_chip_config, registry_sized, KernelReport, ProblemSize, SolverLoopWorkload,
    Workload,
};
use lap::lac_sim::{ChipConfig, ExecStats, JobGraph, Lac, LacConfig, LacService, Scheduler};

const POLICIES: [Scheduler; 3] = [
    Scheduler::Fifo,
    Scheduler::LeastLoaded,
    Scheduler::CriticalPath,
];

/// Run `w` on a fresh core: its report and the session it metered.
fn run_fresh(w: &dyn Workload) -> (KernelReport, ExecStats) {
    let mut lac = Lac::new(w.config(LacConfig::default()));
    let report = w
        .run(&mut lac)
        .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
    (report, *lac.session_stats())
}

fn registry_graph(size: ProblemSize) -> JobGraph<Box<dyn Workload>> {
    registry_sized(size).into_iter().collect()
}

#[test]
fn every_workload_is_bit_deterministic_on_fresh_cores() {
    for w in registry() {
        let first = run_fresh(w.as_ref());
        let second = run_fresh(w.as_ref());
        // KernelReport's PartialEq covers the Details payload (f64 compare
        // is bitwise-exact here: equal bit patterns compare equal); the
        // sessions cover the full ExecStats counter set.
        assert_eq!(first, second, "{}: reruns diverged", w.name());
        assert!(first.1.cycles > 0);
    }
}

#[test]
fn chip_graph_runs_are_deterministic_under_every_policy() {
    let cfg = ChipConfig::new(3, registry_chip_config(LacConfig::default()));
    for sched in POLICIES {
        let mut chip_a = LacService::new(cfg);
        let mut chip_b = LacService::new(cfg);
        let run_a = chip_a
            .submit(&registry_graph(ProblemSize::Medium), sched)
            .unwrap();
        let run_b = chip_b
            .submit(&registry_graph(ProblemSize::Medium), sched)
            .unwrap();
        assert_eq!(run_a.assignment, run_b.assignment, "{sched:?}: placement");
        assert_eq!(run_a.outputs, run_b.outputs, "{sched:?}: outputs");
        assert_eq!(run_a.stats, run_b.stats, "{sched:?}: chip stats");
        assert_eq!(run_a.waves, run_b.waves, "{sched:?}: waves");
        assert_eq!(run_a.idle_per_core, run_b.idle_per_core, "{sched:?}: idle");
    }
}

#[test]
fn scheduler_policy_changes_placement_but_not_results() {
    // The registry's cost hints differ wildly across kernels, so the
    // policies place jobs differently — yet every per-job report,
    // including cycle counts, must be identical (cores are identical and
    // job state never leaks across a graph run's jobs on fresh shards).
    let cfg = ChipConfig::new(4, registry_chip_config(LacConfig::default()));
    let runs: Vec<_> = POLICIES
        .iter()
        .map(|&sched| {
            LacService::new(cfg)
                .submit(&registry_graph(ProblemSize::Medium), sched)
                .unwrap()
        })
        .collect();
    assert_ne!(
        runs[0].assignment, runs[1].assignment,
        "policies should disagree on this queue (costs are uneven)"
    );
    for run in &runs[1..] {
        assert_eq!(runs[0].outputs, run.outputs, "results depend on placement");
        // Chip-level aggregates are placement-independent too (sums
        // commute), as is the wave structure (readiness is policy-free).
        assert_eq!(runs[0].stats.aggregate, run.stats.aggregate);
        assert_eq!(runs[0].waves, run.waves);
    }
}

#[test]
fn core_and_chip_shard_agree_per_workload() {
    // A 1-core chip is just a core with a graph in front: identical
    // reports for the whole registry run back-to-back.
    let shared = registry_chip_config(LacConfig::default());
    let jobs = registry();
    let mut lac = Lac::new(shared);
    let direct: Vec<KernelReport> = jobs
        .iter()
        .map(|w| {
            w.run(&mut lac)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()))
        })
        .collect();
    let graph: JobGraph<Box<dyn Workload>> = registry().into_iter().collect();
    let chip_run = LacService::new(ChipConfig::new(1, shared))
        .submit(&graph, Scheduler::Fifo)
        .unwrap();
    assert_eq!(direct, chip_run.outputs);
    assert_eq!(
        chip_run.stats.makespan_cycles,
        lac.session_stats().cycles,
        "1-core chip session equals the plain core session"
    );
}

#[test]
fn solver_graph_is_bit_identical_across_services_and_policies() {
    // The dependency-graph door with *stateful* jobs (rounds feed each
    // other through shared state): still bit-deterministic, because the
    // graph orders every access and reductions run in fixed panel order.
    let w = SolverLoopWorkload::demo();
    let mut baseline: Option<Vec<KernelReport>> = None;
    for sched in POLICIES {
        let mut svc = LacService::new(ChipConfig::new(4, LacConfig::default()));
        let first = svc.submit(&w.graph().graph, sched).unwrap();
        let second = svc.submit(&w.graph().graph, sched).unwrap();
        assert_eq!(first.outputs, second.outputs, "{sched:?}: warm rerun");
        assert_eq!(first.stats, second.stats, "{sched:?}: warm rerun stats");
        w.check_graph(&first.outputs).unwrap();
        match &baseline {
            None => baseline = Some(first.outputs),
            Some(b) => assert_eq!(b, &first.outputs, "{sched:?} changed solver results"),
        }
    }
}
