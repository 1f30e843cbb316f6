//! The continuation-subsystem headline: convergence-driven dynamic job
//! graphs served end to end.
//!
//! Three scenes, every number in simulated cycles (machine-exact):
//!
//! 1. **IP-PMM convex QP** (`lac_kernels::IppmmWorkload`) — one
//!    interior-point solve whose graph grows one four-job segment per
//!    iteration until the KKT residuals converge, swept over cores ×
//!    scheduler policies on a `LacService`.
//! 2. **Batched IPDDP fleet** (`lac_kernels::IpddpFleet`) — eight
//!    trajectory optimizations converging after *different* sweep
//!    counts, so appended segments shrink as the fleet drains; plus a
//!    `LacCluster` parity run.
//! 3. **Open-loop dynamic serving** — a two-tenant arrival trace of QP
//!    solves and mini IPDDP fleets replayed through
//!    `lac_traffic::run_open_loop_dynamic`, with whole-solve sojourn
//!    tails under tenant admission budgets tight enough to bounce.
//!
//! Before a row prints, every run is verified: outputs against the
//! `linalg-ref` reference twin (`check`), bit-identical across policies,
//! cores, backends and warm reruns, and iteration counts independent of
//! scheduling.

use lac_bench::json::Json;
use lac_bench::{f, table};
use lac_kernels::{
    DdpJob, IpddpFleet, IpddpParams, IpmJob, IppmmParams, IppmmWorkload, KernelReport,
};
use lac_sim::{
    ChipConfig, ChipJob, DynamicGraph, DynamicOutcome, Lac, LacCluster, LacConfig, LacService,
    Scheduler, SimError, TenantConfig, TenantId,
};
use lac_traffic::{
    run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, OpenLoopBackend, OpenLoopConfig,
};

const POLICIES: [(Scheduler, &str); 3] = [
    (Scheduler::Fifo, "fifo"),
    (Scheduler::CriticalPath, "critical-path"),
    (Scheduler::FairShare, "fair-share"),
];

/// The open-loop QP request for one arrival (salted per arrival).
fn qp_request(a: &Arrival) -> IppmmWorkload {
    IppmmWorkload::new(IppmmParams {
        n: 8,
        m: 4,
        salt: 70 + a.index,
        ..IppmmParams::default()
    })
}

/// The open-loop mini-fleet request for one arrival.
fn fleet_request(a: &Arrival) -> IpddpFleet {
    IpddpFleet::new(IpddpParams {
        members: 2,
        horizon: 8,
        salt: 80 + a.index,
        ..IpddpParams::default()
    })
}

/// The one job type the open-loop scene serves. A backend runs exactly
/// one job type, so both clients map into this enum through
/// `DynamicGraph::map_job` — the graph shapes and outputs are untouched,
/// only the dispatch is wrapped.
enum KernelJob {
    /// One IP-PMM interior-point job (factor/solve/schur/step).
    Qp(IpmJob),
    /// One IPDDP backward-sweep timestep job.
    Ddp(DdpJob),
}

impl ChipJob for KernelJob {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        match self {
            KernelJob::Qp(j) => j.cost_hint(),
            KernelJob::Ddp(j) => j.cost_hint(),
        }
    }

    fn transfer_words(&self) -> u64 {
        match self {
            KernelJob::Qp(j) => j.transfer_words(),
            KernelJob::Ddp(j) => j.transfer_words(),
        }
    }

    fn run_on(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        match self {
            KernelJob::Qp(j) => j.run_on(lac),
            KernelJob::Ddp(j) => j.run_on(lac),
        }
    }
}

/// Serve one request to convergence as a closed batch (one arrival due at
/// tick 0); returns its outcome and the rounds it took.
fn solve<J: ChipJob>(
    backend: &mut impl OpenLoopBackend<J>,
    tenant: TenantId,
    request: DynamicGraph<J>,
    sched: Scheduler,
) -> (DynamicOutcome<J::Output>, u64) {
    let mut request = Some(request);
    let cfg = OpenLoopConfig {
        sched,
        ..OpenLoopConfig::default()
    };
    let batch = ArrivalTrace::batch(&[1]);
    let report = run_open_loop_dynamic(
        backend,
        &batch,
        &[tenant],
        |_| request.take().expect("one arrival"),
        cfg,
    )
    .expect("dynamic run");
    let rounds = report.rounds;
    let done = report
        .completed
        .into_iter()
        .next()
        .expect("the request converged");
    (done.outcome, rounds)
}

pub fn run() -> Json {
    let mut rows = Vec::new();
    let mut points = Vec::new();

    // ---- Scene 1: IP-PMM convex QP, cores × policies. --------------------
    let qp = IppmmWorkload::demo();
    let qp_ref = qp.reference().expect("reference IPM converges");
    let mut qp_base: Option<Vec<Vec<KernelReport>>> = None;
    for cores in [2usize, 4] {
        for (sched, sched_name) in POLICIES {
            let mut svc: LacService<IpmJob> =
                LacService::new(ChipConfig::new(cores, LacConfig::default()));
            let t = svc.add_tenant(TenantConfig::new("qp"));
            let out = &solve(&mut svc, t, qp.dynamic(), sched).0;
            qp.check(out).expect("device QP matches linalg-ref");
            assert_eq!(
                out.iterations(),
                qp_ref.iterations,
                "device and reference iteration counts must agree"
            );
            match &qp_base {
                None => qp_base = Some(out.segments.clone()),
                Some(base) => assert_eq!(
                    base, &out.segments,
                    "{sched_name}@{cores}: outputs changed with scheduling"
                ),
            }
            let clock = svc.session().clock_cycles;
            rows.push(vec![
                "ippmm".into(),
                format!("{cores}"),
                sched_name.into(),
                format!("{}", out.iterations()),
                format!("{}", out.jobs),
                format!("{}", out.appended_cost),
                format!("{clock}"),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("dynamic_ippmm")),
                ("cores", Json::from(cores)),
                ("policy", Json::from(sched_name)),
                ("iterations", Json::from(out.iterations())),
                ("jobs", Json::from(out.jobs)),
                ("appended_cost", Json::from(out.appended_cost)),
                ("clock_cycles", Json::from(clock)),
            ]));
        }
    }

    // ---- Scene 2: IPDDP fleet, policies + cluster parity. ----------------
    let fleet = IpddpFleet::demo();
    let mut fleet_base: Option<Vec<Vec<KernelReport>>> = None;
    let mut fleet_rounds = 0u64;
    for (sched, sched_name) in POLICIES {
        let mut svc: LacService<DdpJob> = LacService::new(ChipConfig::new(4, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("ddp"));
        let (ref out, rounds) = solve(&mut svc, t, fleet.dynamic(), sched);
        fleet.check(out).expect("device fleet matches linalg-ref");
        match &fleet_base {
            None => fleet_base = Some(out.segments.clone()),
            Some(base) => assert_eq!(
                base, &out.segments,
                "{sched_name}: fleet outputs changed with scheduling"
            ),
        }
        fleet_rounds = rounds;
        // The fleet drains: the last sweep's segment is smaller than the
        // first (members converge non-uniformly).
        let first = out.segments.first().map(Vec::len).unwrap_or(0);
        let last = out.segments.last().map(Vec::len).unwrap_or(0);
        assert!(last < first, "fleet should drain ({first} -> {last} jobs)");
        let clock = svc.session().clock_cycles;
        rows.push(vec![
            "ipddp".into(),
            "4".into(),
            sched_name.into(),
            format!("{}", out.iterations()),
            format!("{}", out.jobs),
            format!("{}", out.appended_cost),
            format!("{clock}"),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("dynamic_ipddp")),
            ("cores", Json::from(4usize)),
            ("policy", Json::from(sched_name)),
            ("sweeps", Json::from(out.iterations())),
            ("jobs", Json::from(out.jobs)),
            ("first_sweep_jobs", Json::from(first)),
            ("last_sweep_jobs", Json::from(last)),
            ("appended_cost", Json::from(out.appended_cost)),
            ("clock_cycles", Json::from(clock)),
        ]));
    }

    // Cluster parity: two 2-core chips must reproduce the service's
    // segments bit for bit.
    {
        let mut cluster: LacCluster<DdpJob> = super::cluster(2, 2);
        let t = cluster.add_tenant(TenantConfig::new("ddp"));
        let (out, rounds) = solve(&mut cluster, t, fleet.dynamic(), Scheduler::FairShare);
        assert_eq!(
            Some(&out.segments),
            fleet_base.as_ref(),
            "cluster and service dynamic runs must agree bitwise"
        );
        assert_eq!(rounds, fleet_rounds, "same segment count, same rounds");
        let clock = cluster.session().clock_cycles;
        rows.push(vec![
            "ipddp-cluster".into(),
            "2x2".into(),
            "fair-share".into(),
            format!("{}", out.iterations()),
            format!("{}", out.jobs),
            format!("{}", out.appended_cost),
            format!("{clock}"),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("dynamic_ipddp_cluster")),
            ("chips", Json::from(2usize)),
            ("cores", Json::from(2usize)),
            ("policy", Json::from("fair-share")),
            ("sweeps", Json::from(out.iterations())),
            ("clock_cycles", Json::from(clock)),
        ]));
    }

    // ---- Scene 3: open-loop dynamic serving. -----------------------------
    let trace = ArrivalTrace::generate(
        17,
        60_000,
        &[
            ArrivalProcess::Poisson { mean_gap: 9_000.0 },
            ArrivalProcess::Poisson { mean_gap: 18_000.0 },
        ],
    );
    assert!(!trace.is_empty());
    let serve = |sched: Scheduler| {
        let mut svc: LacService<KernelJob> =
            LacService::new(ChipConfig::new(4, LacConfig::default()));
        let ids = vec![
            svc.add_tenant(
                TenantConfig::new("qp")
                    .with_admission_budget(2_000)
                    .with_deadline(120_000),
            ),
            svc.add_tenant(TenantConfig::new("ddp").with_admission_budget(3_000)),
        ];
        let report = run_open_loop_dynamic(
            &mut svc,
            &trace,
            &ids,
            |a| match a.tenant {
                0 => qp_request(a).dynamic().map_job(KernelJob::Qp),
                _ => fleet_request(a).dynamic().map_job(KernelJob::Ddp),
            },
            OpenLoopConfig {
                sched,
                ..OpenLoopConfig::default()
            },
        )
        .expect("open-loop dynamic replay");
        for id in &ids {
            assert_eq!(
                svc.tenant_session(*id).inflight_cost,
                0,
                "every admitted cost drained"
            );
        }
        report
    };
    let report = serve(Scheduler::FairShare);
    assert_eq!(
        report.completed.len(),
        trace.len(),
        "every request converged"
    );
    for c in &report.completed {
        match c.arrival.tenant {
            0 => qp_request(&c.arrival)
                .check(&c.outcome)
                .expect("open-loop QP matches linalg-ref"),
            _ => fleet_request(&c.arrival)
                .check(&c.outcome)
                .expect("open-loop fleet matches linalg-ref"),
        }
    }
    // Outputs — including segment counts — are policy-independent even
    // under open-loop admission; latencies are not.
    let fifo = serve(Scheduler::Fifo);
    let shape = |r: &lac_traffic::DynamicOpenLoopReport<KernelReport>| {
        let mut v: Vec<_> = r
            .completed
            .iter()
            .map(|c| (c.arrival, c.outcome.segments.clone()))
            .collect();
        v.sort_by_key(|(a, _)| (a.tenant, a.index));
        v
    };
    assert_eq!(
        shape(&report),
        shape(&fifo),
        "open-loop outputs moved with policy"
    );

    let appended: u64 = report
        .completed
        .iter()
        .map(|c| c.outcome.appended_cost)
        .sum();
    for (tenant, name) in [(0usize, "qp"), (1usize, "ddp")] {
        let lat = &report.per_tenant[tenant];
        rows.push(vec![
            format!("open-loop/{name}"),
            "4".into(),
            "fair-share".into(),
            format!("{}", lat.hist.count()),
            format!("{}", report.rounds),
            format!("{appended}"),
            format!("{}", lat.hist.p99()),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("dynamic_open_loop")),
            ("tenants", Json::from(2usize)),
            ("cores", Json::from(4usize)),
            ("policy", Json::from("fair-share")),
            ("load", Json::from(name)),
            ("requests", Json::from(lat.hist.count())),
            ("p50_sojourn_cycles", Json::from(lat.hist.p50())),
            ("p99_sojourn_cycles", Json::from(lat.hist.p99())),
            ("deadline_misses", Json::from(lat.deadline_misses)),
            ("rounds", Json::from(report.rounds)),
            ("final_clock_cycles", Json::from(report.final_clock)),
        ]));
    }

    table(
        "Dynamic solver — convergence-driven graphs through the continuation \
         subsystem; outputs verified vs linalg-ref, bit-identical across \
         policies/cores/backends; appended work charged to tenant budgets",
        &[
            "scene",
            "cores",
            "policy",
            "iters/reqs",
            "jobs/rounds",
            "appended",
            "clock/p99",
        ],
        &rows,
    );
    println!(
        "\nopen-loop: {} requests, {} rounds, {} appended cost, final clock {}",
        report.completed.len(),
        report.rounds,
        f(appended as f64),
        report.final_clock
    );
    Json::arr(points)
}
