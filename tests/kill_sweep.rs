//! Chip loss, graph reuse and job purity for the real interior-point
//! clients: `SolverFleet` (1–3 rounds), `IppmmWorkload` and `IpddpFleet`.
//!
//! * **Kill sweep** — on 2 chips × 2 cores, in both time models, each
//!   chip is killed at every distinct wave-end tick (wave mode) or
//!   completion tick (event mode) of the fault-free run. Every faulted
//!   run must return the fault-free outputs bit for bit, and a dynamic
//!   request the same segments (so the same iteration or sweep count) —
//!   not merely outputs that pass the workload's own `check`.
//! * **Reuse** — a used solver graph, or a second `dynamic()` of the
//!   same request, reruns to the same bits.
//! * **Purity** — run serially in id order, every job of every segment
//!   gives the same output and the same `ExecStats` on a fresh core
//!   and on a warm one, run back to back (so each job also reruns).

mod common;

use common::qp;
use lap::lac_kernels::{IpddpFleet, IpddpParams, KernelReport, SolverFleet, SolverLoopParams};
use lap::lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, Continue, DynamicGraph, DynamicOutcome, EventLog,
    ExecStats, FaultPlan, JobGraph, Lac, LacCluster, LacConfig, Scheduler, SimMode, TenantConfig,
    TraceEvent,
};
use lap::lac_traffic::{run_open_loop_dynamic, ArrivalTrace, OpenLoopConfig};

const CHIPS: usize = 2;
const CORES: usize = 2;
const SCHED: Scheduler = Scheduler::CriticalPath;
const MODES: [SimMode; 2] = [SimMode::Wave, SimMode::Event];

fn cluster_config(mode: SimMode) -> ClusterConfig {
    ClusterConfig::homogeneous(CHIPS, ChipConfig::new(CORES, LacConfig::default()))
        .with_sim_mode(mode)
}

/// A fresh cluster, with chip `kill.0` killed at session tick `kill.1`.
fn cluster<J: ChipJob>(mode: SimMode, kill: Option<(usize, u64)>) -> LacCluster<J> {
    let mut cl = LacCluster::new(cluster_config(mode));
    if let Some((chip, tick)) = kill {
        cl.inject_faults(FaultPlan::new().kill(chip, tick));
    }
    cl
}

fn fleet(rounds: usize) -> SolverFleet {
    let base = SolverLoopParams {
        n: 8,
        rounds,
        panels: 2,
        width: 4,
        salt: 300,
    };
    SolverFleet::new(base, 3)
}

fn ddp_fleet() -> IpddpFleet {
    IpddpFleet::new(IpddpParams {
        members: 2,
        horizon: 2,
        salt: 23,
        ..IpddpParams::default()
    })
}

/// The distinct completion ticks of a log's surviving executions.
fn completion_ticks(log: &EventLog) -> Vec<u64> {
    let mut ticks: Vec<u64> = log
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Job {
                end,
                discarded: false,
                ..
            } => Some(end),
            _ => None,
        })
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Serve one dynamic request to completion as a closed batch on a fresh
/// cluster; returns its outcome and the merged session-clock log.
fn serve<J: ChipJob<Output = KernelReport>>(
    mode: SimMode,
    kill: Option<(usize, u64)>,
    request: DynamicGraph<J>,
) -> (DynamicOutcome<KernelReport>, EventLog) {
    let mut cl = cluster::<J>(mode, kill);
    let t = cl.add_tenant(TenantConfig::new("sweep"));
    let mut request = Some(request);
    let cfg = OpenLoopConfig {
        sched: SCHED,
        ..OpenLoopConfig::default()
    };
    let mut report = run_open_loop_dynamic(
        &mut cl,
        &ArrivalTrace::batch(&[1]),
        &[t],
        |_| request.take().expect("one arrival"),
        cfg,
    )
    .unwrap_or_else(|e| panic!("{mode:?} kill {kill:?}: {e:?}"));
    assert_eq!(cl.tenant_session(t).inflight_cost, 0);
    (report.completed.remove(0).outcome, report.events)
}

/// Kill each chip at every completion tick of the fault-free dynamic run
/// of `make()`; every faulted run must match it segment for segment.
fn sweep_dynamic<J: ChipJob<Output = KernelReport>>(
    name: &str,
    make: impl Fn() -> DynamicGraph<J>,
    check: impl Fn(&DynamicOutcome<KernelReport>) -> Result<(), String>,
) {
    for mode in MODES {
        let (clean, log) = serve(mode, None, make());
        check(&clean).unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
        let ticks = completion_ticks(&log);
        assert!(ticks.len() > 4, "{name}: a real sweep");
        for chip in 0..CHIPS {
            for &tick in &ticks {
                let (killed, _) = serve(mode, Some((chip, tick)), make());
                assert_eq!(
                    killed.segments.len(),
                    clean.segments.len(),
                    "{name} {mode:?}: killing chip {chip} at {tick} changed the segment count"
                );
                assert!(
                    killed == clean,
                    "{name} {mode:?}: killing chip {chip} at {tick} changed the output bits"
                );
            }
        }
    }
}

#[test]
fn solver_fleets_survive_a_kill_at_every_tick() {
    for rounds in 1..=3 {
        for mode in MODES {
            let f = fleet(rounds);
            let clean = cluster(mode, None).run_graph(&f.graph, SCHED).unwrap();
            f.check(&clean.outputs).unwrap();
            // Wave mode's barriers; event mode's distinct completion ticks.
            let ticks = clean.wave_end_cycles.clone();
            for chip in 0..CHIPS {
                for &tick in &ticks {
                    let f = fleet(rounds);
                    let run = cluster(mode, Some((chip, tick)))
                        .run_graph(&f.graph, SCHED)
                        .unwrap_or_else(|e| panic!("{rounds} rounds {mode:?}: {e:?}"));
                    assert!(
                        run.outputs == clean.outputs,
                        "{rounds} rounds {mode:?}: killing chip {chip} at {tick} changed the bits"
                    );
                }
            }
        }
    }
}

#[test]
fn ippmm_survives_a_kill_at_every_tick() {
    let w = qp(4242);
    sweep_dynamic("ippmm", || w.dynamic(), |out| w.check(out));
}

#[test]
fn ipddp_survives_a_kill_at_every_tick() {
    let f = ddp_fleet();
    sweep_dynamic("ipddp", || f.dynamic(), |out| f.check(out));
}

#[test]
fn used_graphs_and_second_requests_rerun_to_the_same_bits() {
    for mode in MODES {
        // A used 1–3 round solver graph, rerun warm and on a fresh cluster.
        for rounds in 1..=3 {
            let f = fleet(rounds);
            let mut cl = cluster(mode, None);
            let first = cl.run_graph(&f.graph, SCHED).unwrap();
            let warm = cl.run_graph(&f.graph, SCHED).unwrap();
            let cold = cluster(mode, None).run_graph(&f.graph, SCHED).unwrap();
            assert!(first.outputs == warm.outputs, "{rounds} rounds: warm rerun");
            assert!(
                first.outputs == cold.outputs,
                "{rounds} rounds: fresh rerun"
            );
            f.check(&warm.outputs).unwrap();
        }
        // A second `dynamic()` of the same request.
        let w = qp(4242);
        assert!(serve(mode, None, w.dynamic()) == serve(mode, None, w.dynamic()));
        let f = ddp_fleet();
        assert!(serve(mode, None, f.dynamic()) == serve(mode, None, f.dynamic()));
    }
}

fn fresh_core() -> Lac {
    Lac::new(LacConfig::default())
}

/// Run `job` on `lac`; its output and the core's metered delta.
fn metered<J: ChipJob>(job: &J, lac: &mut Lac) -> (J::Output, ExecStats) {
    let before = *lac.session_stats();
    let out = job.run_on(lac).expect("hazard-free job");
    (out, lac.session_stats().since(&before))
}

/// Walk a dynamic request serially, segment by segment, running every job
/// in id order once on a fresh core and once on `warm`; returns the
/// segment count.
fn assert_pure<J: ChipJob<Output = KernelReport>>(name: &str, request: DynamicGraph<J>) -> usize {
    let mut warm = fresh_core();
    let (mut segment, mut cont) = request.into_parts();
    for seg in 0.. {
        let mut graph = JobGraph::new();
        let ids = graph.append(segment);
        let mut outputs = Vec::with_capacity(ids.len());
        for id in ids {
            let job = graph.job(id);
            let fresh = metered(job, &mut fresh_core());
            let again = metered(job, &mut warm);
            assert!(
                fresh == again,
                "{name}: segment {seg} job {} is not pure",
                id.index()
            );
            outputs.push(fresh.0);
        }
        match cont.next(seg, &outputs) {
            Continue::Append(next) => segment = next,
            Continue::Done => return seg + 1,
        }
    }
    unreachable!()
}

#[test]
fn every_job_is_pure_on_fresh_and_warm_engines() {
    for rounds in 1..=3 {
        let f = fleet(rounds);
        let segments = assert_pure("solver", DynamicGraph::fixed(f.graph));
        assert_eq!(segments, 1);
    }
    let w = qp(4242);
    let iterations = assert_pure("ippmm", w.dynamic());
    assert_eq!(iterations, w.reference().unwrap().iterations);
    let f = ddp_fleet();
    let sweeps = assert_pure("ipddp", f.dynamic());
    let most = f.reference().unwrap().iter().map(|r| r.sweeps).max();
    assert_eq!(Some(sweeps), most);
}
