//! The multi-tenant service headline: many interior-point clients, each
//! streaming its own solver-loop `JobGraph`s at one shared `LacService`,
//! swept over tenants × cores × scheduler policies.
//!
//! For every sweep point three doors are measured:
//!
//! 1. **Serialized per-tenant submission** (the PR-3 baseline): each
//!    tenant's graph is submitted alone, one after another — every
//!    tenant's serial CHOL spine leaves the other cores idle.
//! 2. **Multiplexed round** under `CriticalPath` and `FairShare`: every
//!    tenant's graph is admitted up front and the round interleaves them
//!    wave-by-wave, so one tenant's fan-out fills another's dependency
//!    stalls.
//! 3. **Streaming admission**: tenants get an in-flight budget of exactly
//!    one graph, enqueue two each, and the second wave of submissions
//!    bounces deterministically (backpressure), retrying after the first
//!    round drains — the admission-control contract, executed.
//!
//! Verified before any row prints: per-tenant outputs match the
//! independent `linalg-ref` chain (`check_graph`), reruns on a fresh
//! service are bit-identical, and at 8 tenants × 4 cores the multiplexed
//! FairShare round beats serialized submission by ≥ 1.3x aggregate
//! throughput (the acceptance gate).

use lac_bench::json::Json;
use lac_bench::{f, pct, table};
use lac_kernels::{SolverJob, SolverLoopParams, SolverLoopWorkload};
use lac_power::ChipEnergyModel;
use lac_sim::{ChipConfig, LacConfig, LacService, Scheduler, TenantConfig, TenantId};

const TENANTS_SWEEP: [usize; 4] = [1, 2, 4, 8];
const CORES_SWEEP: [usize; 3] = [1, 2, 4];
const POLICIES: [(Scheduler, &str); 2] = [
    (Scheduler::CriticalPath, "critical-path"),
    (Scheduler::FairShare, "fair-share"),
];
/// The acceptance gate: tenants × cores point and threshold.
const GATE_TENANTS: usize = 8;
const GATE_CORES: usize = 4;
const GATE_SPEEDUP: f64 = 1.3;

/// Tenant `t`'s solver stream element: same shape for everyone, private
/// operands (the salt) per tenant so the per-tenant `linalg-ref` checks
/// are independent.
fn workload(t: usize) -> SolverLoopWorkload {
    SolverLoopWorkload::new(SolverLoopParams {
        n: 16,
        rounds: 2,
        panels: 4,
        width: 4,
        salt: 9000 + 17 * t as u64,
    })
}

/// A fresh service with `tenants` registered tenants, each configured by
/// `config` from its index and default config.
fn service(
    cores: usize,
    tenants: usize,
    config: impl Fn(usize, TenantConfig) -> TenantConfig,
) -> (LacService<SolverJob>, Vec<TenantId>) {
    let mut svc = LacService::new(ChipConfig::new(cores, LacConfig::default()));
    let ids = (0..tenants)
        .map(|t| svc.add_tenant(config(t, TenantConfig::new(format!("tenant-{t}")))))
        .collect();
    (svc, ids)
}

/// One multiplexed round over every tenant's graph.
struct Multiplexed {
    makespan: u64,
    waves: usize,
    outputs: Vec<Vec<lac_kernels::KernelReport>>,
    svc: LacService<SolverJob>,
    ids: Vec<TenantId>,
}

fn multiplexed(tenants: usize, cores: usize, sched: Scheduler) -> Multiplexed {
    let (mut svc, ids) = service(cores, tenants, |_, c| c);
    for (t, &id) in ids.iter().enumerate() {
        svc.enqueue(id, workload(t).graph().graph)
            .expect("unbounded tenants admit everything");
    }
    let round = svc.run_admitted(sched).expect("hazard-free schedule");
    Multiplexed {
        makespan: round.stats.makespan_cycles,
        waves: round.waves,
        outputs: round.graphs.into_iter().map(|g| g.outputs).collect(),
        svc,
        ids,
    }
}

pub fn run() -> Json {
    let nr = LacConfig::default().nr;
    let energy_model = ChipEnergyModel::lap_default();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut gate_speedup = None;

    for cores in CORES_SWEEP {
        for tenants in TENANTS_SWEEP {
            // Door 1 — serialized per-tenant submission: one graph at a
            // time against the same warm service; the clock sums the
            // stand-alone makespans.
            let (mut serial_svc, _) = service(cores, tenants, |_, c| c);
            for t in 0..tenants {
                let run = serial_svc
                    .submit(&workload(t).graph().graph, Scheduler::CriticalPath)
                    .expect("hazard-free schedule");
                workload(t)
                    .check_graph(&run.outputs)
                    .expect("serialized outputs match linalg-ref");
            }
            let serial_clock = serial_svc.session().clock_cycles;

            for (sched, sched_name) in POLICIES {
                // Door 2 — every tenant admitted, one interleaved round.
                let run = multiplexed(tenants, cores, sched);
                for (t, outs) in run.outputs.iter().enumerate() {
                    workload(t)
                        .check_graph(outs)
                        .expect("multiplexed outputs match linalg-ref");
                }
                // Bit-determinism: a fresh service must reproduce the
                // round exactly — schedule and all.
                let rerun = multiplexed(tenants, cores, sched);
                assert_eq!(
                    run.makespan, rerun.makespan,
                    "{sched_name}: rerun makespan diverged"
                );
                assert_eq!(run.waves, rerun.waves, "{sched_name}: rerun waves diverged");
                assert_eq!(
                    run.outputs, rerun.outputs,
                    "{sched_name}: rerun outputs diverged"
                );

                let (makespan, waves, svc) = (run.makespan, run.waves, &run.svc);
                let stats = svc.session().chip_stats();
                let util = stats.utilization(nr);
                let speedup = serial_clock as f64 / makespan as f64;
                let wait: u64 = run
                    .ids
                    .iter()
                    .map(|&id| svc.tenant_session(id).wait_cycles)
                    .sum();
                let e = energy_model.summarize(&stats);
                if (tenants, cores, sched) == (GATE_TENANTS, GATE_CORES, Scheduler::FairShare) {
                    gate_speedup = Some(speedup);
                }
                rows.push(vec![
                    format!("{tenants}"),
                    format!("{cores}"),
                    sched_name.into(),
                    format!("{makespan}"),
                    format!("{waves}"),
                    format!("{serial_clock}"),
                    f(speedup),
                    pct(util),
                    format!("{wait}"),
                    f(e.total_nj / 1000.0),
                ]);
                points.push(Json::obj([
                    ("bench", Json::from("service_throughput")),
                    ("tenants", Json::from(tenants)),
                    ("cores", Json::from(cores)),
                    ("policy", Json::from(sched_name)),
                    ("jobs", Json::from(stats.jobs())),
                    ("waves", Json::from(waves)),
                    ("makespan_cycles", Json::from(makespan)),
                    ("serialized_clock_cycles", Json::from(serial_clock)),
                    ("throughput_speedup_vs_serialized", Json::from(speedup)),
                    ("utilization", Json::from(util)),
                    ("total_wait_cycles", Json::from(wait)),
                    ("energy_uj", Json::from(e.total_nj / 1000.0)),
                ]));
            }
        }
    }

    // Door 3 — streaming admission: budget of exactly one graph in
    // flight, two graphs per tenant. The second enqueue bounces
    // deterministically and retries after the first round drains.
    let tenants = GATE_TENANTS;
    let (mut svc, ids) = service(GATE_CORES, tenants, |t, c| {
        c.with_admission_budget(workload(t).graph_cost())
    });
    let mut bounced = Vec::new();
    for (t, &id) in ids.iter().enumerate() {
        svc.enqueue(id, workload(t).graph().graph)
            .expect("first fits");
        let rejected = svc
            .enqueue(id, workload(t).graph().graph)
            .expect_err("second graph must bounce off the in-flight budget");
        assert_eq!(rejected.graph_cost, workload(t).graph_cost());
        bounced.push((id, rejected.graph));
    }
    svc.run_admitted(Scheduler::FairShare).expect("round 1");
    for (id, graph) in bounced {
        svc.enqueue(id, graph)
            .expect("budget drained, retry admits");
    }
    svc.run_admitted(Scheduler::FairShare).expect("round 2");
    let admitted: u64 = ids
        .iter()
        .map(|&id| svc.tenant_session(id).graphs_admitted)
        .sum();
    let rejected: u64 = ids
        .iter()
        .map(|&id| svc.tenant_session(id).graphs_rejected)
        .sum();
    assert_eq!(admitted, 2 * tenants as u64);
    assert_eq!(rejected, tenants as u64);
    // Per-tenant energy attribution over the streamed lifetime adds up.
    let shares = energy_model.attribute(
        &svc.tenant_busy_stats(),
        GATE_CORES,
        svc.session().clock_cycles,
    );
    let whole =
        energy_model.summarize_over(&svc.session().chip_stats(), svc.session().clock_cycles);
    let attributed: f64 = shares.iter().map(|s| s.total_nj).sum();
    assert!(
        (attributed - whole.total_nj).abs() < 1e-6 * whole.total_nj,
        "attribution must conserve the service total"
    );
    points.push(Json::obj([
        ("bench", Json::from("service_throughput_admission")),
        ("tenants", Json::from(tenants)),
        ("cores", Json::from(GATE_CORES)),
        ("policy", Json::from("fair-share")),
        ("graphs_admitted", Json::from(admitted)),
        ("graphs_rejected", Json::from(rejected)),
        ("clock_cycles", Json::from(svc.session().clock_cycles)),
        ("energy_uj", Json::from(whole.total_nj / 1000.0)),
    ]));

    // The acceptance gate: multiplexed FairShare at 8 tenants × 4 cores
    // must beat serialized per-tenant submission by ≥ 1.3x.
    let speedup = gate_speedup.expect("gate point swept");
    assert!(
        speedup >= GATE_SPEEDUP,
        "{GATE_TENANTS} tenants × {GATE_CORES} cores: FairShare multiplexing gained only \
         {speedup:.2}x over serialized submission (need ≥ {GATE_SPEEDUP}x)"
    );
    points.push(Json::obj([
        ("bench", Json::from("service_throughput_gate")),
        ("tenants", Json::from(GATE_TENANTS)),
        ("cores", Json::from(GATE_CORES)),
        ("policy", Json::from("fair-share")),
        ("throughput_speedup_vs_serialized", Json::from(speedup)),
        ("threshold", Json::from(GATE_SPEEDUP)),
    ]));

    table(
        &format!(
            "Service throughput — per-tenant solver loops (n=16, 2 rounds, 4 panels × 4 \
             cols) multiplexed on one LacService; outputs verified vs linalg-ref, \
             bit-identical reruns; FairShare ≥ {GATE_SPEEDUP}x over serialized @ \
             {GATE_TENANTS} tenants × {GATE_CORES} cores asserted (got {speedup:.2}x)"
        ),
        &[
            "tenants",
            "cores",
            "policy",
            "makespan",
            "waves",
            "serialized",
            "speedup",
            "util",
            "wait cyc",
            "energy [uJ]",
        ],
        &rows,
    );
    Json::arr(points)
}
