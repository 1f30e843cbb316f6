//! The failure drill: kill a chip mid-fleet and measure what recovery
//! costs — while proving it never costs correctness.
//!
//! A 3-chip `LacCluster` serves a round of streamed solver requests
//! (`lac_kernels::SolverStream`: CHOL → TRSM fan-out → SYRK chains,
//! operands salted per request). The same round is then re-run under a
//! sweep of deterministic `FaultPlan`s — chip 1 killed at tick 1, chip 1
//! and chip 2 killed mid-makespan — and for every drill the harness
//! asserts the headline resilience property before printing a row:
//!
//! * every request's outputs are **bit-identical** to the fault-free
//!   round (and still verify against the independent `linalg-ref` chain);
//! * the kill landed (the chip is dead, exactly one fault event) and the
//!   event log shows the revoked executions and requeues;
//! * the run's Chrome-trace export parses with `lac_bench`'s own JSON
//!   parser and carries the fault/requeue instants.
//!
//! A second sweep serves 3-round requests, whose rounds chain through
//! the solver's single-assignment slots, and kills chip 1 at every wave
//! barrier of the fault-free round, one drill per barrier, under the same
//! assertions.
//!
//! What the tables report is the *price* of survival: the faulted
//! makespan vs the fault-free one (recovery overhead), how many
//! executions the dying chip took down with it (discarded), and how many
//! jobs were requeued onto survivors.
//!
//! `--json-out <path>` writes the perf points (archived by `run_all`,
//! gated by `perf_compare` — a kill spec's `makespan_cycles` regresses
//! when recovery gets slower).

use lac_bench::json::Json;
use lac_bench::{emit_json, f, table};
use lac_kernels::{KernelReport, SolverJob, SolverLoopParams, SolverStream};
use lac_sim::{
    ChipConfig, ClusterConfig, ClusterRound, FaultPlan, LacCluster, LacConfig, Scheduler,
    TenantConfig, TraceEvent,
};

const CHIPS: usize = 3;
const CORES_PER_CHIP: usize = 2;
const REQUESTS: u64 = 8;
const SEED_SALT: u64 = 1913;
/// Solver rounds per request of the multi-round sweep.
const MULTI_ROUNDS: usize = 3;

fn stream(rounds: usize) -> SolverStream {
    SolverStream::new(SolverLoopParams {
        n: 8,
        rounds,
        panels: 2,
        width: 4,
        salt: SEED_SALT,
    })
}

/// One drill: a fresh cluster, the same admitted round of `rounds`-round
/// requests, an optional kill.
fn run_round(
    rounds: usize,
    fault: Option<FaultPlan>,
) -> (ClusterRound<KernelReport>, LacCluster<SolverJob>) {
    let mut cluster: LacCluster<SolverJob> = LacCluster::new(ClusterConfig::homogeneous(
        CHIPS,
        ChipConfig::new(CORES_PER_CHIP, LacConfig::default()),
    ));
    if let Some(plan) = fault {
        cluster.inject_faults(plan);
    }
    let tenant = cluster.add_tenant(TenantConfig::new("drill"));
    let s = stream(rounds);
    for i in 0..REQUESTS {
        cluster
            .enqueue(tenant, s.request(0, i).graph().graph)
            .expect("admission is unbounded here");
    }
    let round = cluster
        .run_admitted(Scheduler::CriticalPath)
        .expect("hazard-free drill round");
    assert_eq!(
        round.graphs.len(),
        REQUESTS as usize,
        "every request served"
    );
    (round, cluster)
}

fn count(round: &ClusterRound<KernelReport>, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    round.events.count(pred)
}

/// The fault-free round of `rounds`-round requests, verified against the
/// independent linalg-ref chain.
fn baseline(rounds: usize) -> ClusterRound<KernelReport> {
    let (baseline, _) = run_round(rounds, None);
    let s = stream(rounds);
    for (i, g) in baseline.graphs.iter().enumerate() {
        s.request(0, i as u64)
            .check_graph(&g.outputs)
            .expect("drill outputs match linalg-ref");
    }
    baseline
}

/// Run one drill of `rounds`-round requests against its fault-free
/// `baseline`, assert the headline properties, and return its table row
/// and perf point.
fn drill(
    rounds: usize,
    baseline: &ClusterRound<KernelReport>,
    name: &str,
    plan: Option<FaultPlan>,
) -> (Vec<String>, Json) {
    let (round, cluster) = run_round(rounds, plan.clone());

    // The headline: chip loss changes the makespan, never the bits.
    for (b, r) in baseline.graphs.iter().zip(&round.graphs) {
        assert_eq!(b.ticket, r.ticket, "completion order is admission order");
        assert_eq!(
            b.outputs, r.outputs,
            "drill '{name}' changed a request's output bits"
        );
    }

    let requeues = count(&round, |e| matches!(e, TraceEvent::Requeue { .. }));
    let discarded = count(&round, |e| {
        matches!(
            e,
            TraceEvent::Job {
                discarded: true,
                ..
            }
        )
    });
    if let Some(plan) = &plan {
        let killed = plan.kills()[0].chip;
        assert!(cluster.dead_chips()[killed], "the kill must land");
        assert_eq!(
            count(&round, |e| matches!(e, TraceEvent::Fault { .. })),
            1,
            "one kill, one fault event"
        );
        assert!(requeues > 0, "drill '{name}' requeued nothing");
    } else {
        assert_eq!(requeues + discarded, 0, "fault-free rounds never requeue");
    }

    // The trace door stays honest under fire: the export is real
    // JSON and the drill's instants are in it.
    let doc = Json::parse(&round.events.to_chrome_trace())
        .unwrap_or_else(|e| panic!("drill '{name}': chrome trace failed to parse: {e}"));
    let trace_events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items.len(),
        _ => panic!("drill '{name}': traceEvents must be an array"),
    };
    assert_eq!(trace_events, round.events.len());

    let base_makespan = baseline.stats.makespan_cycles;
    let makespan = round.stats.makespan_cycles;
    let overhead = makespan as f64 / base_makespan as f64;
    let row = vec![
        name.into(),
        format!("{makespan}"),
        f(overhead),
        format!("{requeues}"),
        format!("{discarded}"),
        format!("{trace_events}"),
    ];
    let mut fields = vec![
        ("bench", Json::from("failure_drill")),
        ("chips", Json::from(CHIPS)),
        ("tenants", Json::from(1u64)),
        ("policy", Json::from(name)),
        ("requests", Json::from(REQUESTS)),
    ];
    if rounds > 1 {
        fields.push(("rounds", Json::from(rounds)));
    }
    fields.extend([
        ("makespan_cycles", Json::from(makespan)),
        ("recovery_overhead", Json::from(overhead)),
        ("requeued_jobs", Json::from(requeues)),
        ("discarded_executions", Json::from(discarded)),
    ]);
    (row, Json::obj(fields))
}

const COLUMNS: [&str; 6] = [
    "kill",
    "makespan",
    "overhead",
    "requeues",
    "discarded",
    "events",
];

fn main() {
    // The fault-free reference round anchors the overhead column and the
    // mid-run kill ticks below.
    let single = baseline(1);
    let base_makespan = single.stats.makespan_cycles;
    let mid = base_makespan / 2;

    let drills: [(&str, Option<FaultPlan>); 4] = [
        ("none", None),
        ("kill-chip1@1", Some(FaultPlan::new().kill(1, 1))),
        ("kill-chip1@mid", Some(FaultPlan::new().kill(1, mid))),
        ("kill-chip2@mid", Some(FaultPlan::new().kill(2, mid))),
    ];
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (name, plan) in drills {
        let (row, point) = drill(1, &single, name, plan);
        rows.push(row);
        points.push(point);
    }

    // Multi-round requests: chip 1 dies at each wave barrier in turn.
    let multi = baseline(MULTI_ROUNDS);
    let mut multi_rows = Vec::new();
    for (wave, &tick) in multi.wave_end_cycles.iter().enumerate() {
        let name = format!("kill-chip1@wave{wave}");
        let (row, point) = drill(
            MULTI_ROUNDS,
            &multi,
            &name,
            Some(FaultPlan::new().kill(1, tick)),
        );
        multi_rows.push(row);
        points.push(point);
    }

    emit_json(Json::arr(points));
    table(
        &format!(
            "Failure drill — {REQUESTS} streamed solver requests (n=8, 1 round, 2 panels) \
             on a {CHIPS}-chip LacCluster ({CORES_PER_CHIP} cores/chip), critical-path \
             scheduling; each kill spec re-runs the identical round with a deterministic \
             FaultPlan. Asserted per drill: outputs bit-identical to fault-free (verified \
             vs linalg-ref), kill lands exactly once, Chrome trace parses \
             (fault-free makespan {base_makespan} cycles)"
        ),
        &COLUMNS,
        &rows,
    );
    table(
        &format!(
            "Failure drill, {MULTI_ROUNDS}-round requests — the same round shape with \
             {MULTI_ROUNDS} chained solver rounds per request; chip 1 is killed at each \
             wave barrier of the fault-free round in turn, under the same assertions \
             (fault-free makespan {} cycles)",
            multi.stats.makespan_cycles
        ),
        &COLUMNS,
        &multi_rows,
    );
}
