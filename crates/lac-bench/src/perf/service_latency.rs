//! The open-loop serving headline: tail latency (p50/p99/p999 sojourn)
//! of streamed solver requests, swept over offered load × cluster size,
//! plus an SLO-boost A/B at a contended point.
//!
//! Requests are minted by `lac_kernels::SolverStream` — every arrival is
//! one small interior-point factorization chain (CHOL → TRSM fan-out →
//! SYRK) with operands salted by `(tenant, index)` — and replayed by
//! `lac_traffic::run_open_loop_dynamic` against a `LacCluster` from a seeded
//! Poisson `ArrivalTrace`. Load is expressed relative to one chip's
//! capacity: `2.0x` offers twice what a single chip can serve, so its
//! queue (and tail) grows with the trace while four chips stay ahead.
//!
//! Verified before any row prints:
//!
//! * every completed request's outputs match the independent
//!   `linalg-ref` chain (`check_graph`);
//! * reruns of a sweep point are bit-identical, report and all;
//! * at the fixed `2.0x` offered load, 4 chips hold p99 sojourn to
//!   ≤ 0.5x of 1 chip (the acceptance gate, also archived for
//!   `perf_compare`);
//! * with a deadline SLO on the interactive tenant, the slack-boosted
//!   fair share strictly improves its p99 vs plain fair share while
//!   leaving every output bit unchanged.

use lac_bench::json::Json;
use lac_bench::{f, table};
use lac_kernels::{KernelReport, SolverJob, SolverLoopParams, SolverStream};
use lac_sim::{
    ChipConfig, DynamicGraph, LacCluster, LacConfig, LacService, Scheduler, TenantConfig, TenantId,
};
use lac_traffic::{
    run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, DynamicOpenLoopReport,
    OpenLoopConfig,
};

type Report = DynamicOpenLoopReport<KernelReport>;

const CORES_PER_CHIP: usize = 2;
const CHIPS_SWEEP: [usize; 3] = [1, 2, 4];
/// Offered load relative to one chip's service rate.
const LOADS: [(f64, &str); 2] = [(0.5, "0.5x"), (2.0, "2.0x")];
/// Arrivals in the trace (per tenant stream).
const HORIZON_GAPS: f64 = 120.0;
/// The acceptance gate: at 2.0x load, 4 chips vs 1 chip p99.
const GATE_LOAD: &str = "2.0x";
const GATE_RATIO: f64 = 0.5;
const SEED: u64 = 2013;

fn stream() -> SolverStream {
    SolverStream::new(SolverLoopParams {
        n: 8,
        rounds: 1,
        panels: 2,
        width: 4,
        salt: 400,
    })
}

/// One chip's standalone makespan for a single request — the unit the
/// load factors are expressed against.
fn service_time() -> u64 {
    let mut chip = LacService::new(ChipConfig::new(CORES_PER_CHIP, LacConfig::default()));
    let w = stream().request(0, 0);
    let run = chip
        .submit(&w.graph().graph, Scheduler::CriticalPath)
        .expect("hazard-free schedule");
    run.stats.makespan_cycles
}

fn cluster(chips: usize, configs: &[TenantConfig]) -> (LacCluster<SolverJob>, Vec<TenantId>) {
    let mut c = super::cluster(chips, CORES_PER_CHIP);
    let ids = configs.iter().map(|t| c.add_tenant(t.clone())).collect();
    (c, ids)
}

fn replay(
    chips: usize,
    configs: &[TenantConfig],
    trace: &ArrivalTrace,
    slo_boost: bool,
    max_round_cost: Option<u64>,
) -> Report {
    let (mut c, ids) = cluster(chips, configs);
    let s = stream();
    let cfg = OpenLoopConfig {
        sched: Scheduler::FairShare,
        slo_boost,
        max_round_cost,
    };
    let report = run_open_loop_dynamic(
        &mut c,
        trace,
        &ids,
        |a: &Arrival| DynamicGraph::fixed(s.request(a.tenant, a.index).graph().graph),
        cfg,
    )
    .expect("hazard-free open-loop replay");
    assert_eq!(report.completed.len(), trace.len(), "every arrival served");
    report
}

/// Every request's outputs against its own independent reference chain.
fn check_outputs(report: &Report) {
    let s = stream();
    for c in &report.completed {
        s.request(c.arrival.tenant, c.arrival.index)
            .check_graph(&c.outcome.segments[0])
            .expect("streamed outputs match linalg-ref");
    }
}

/// Outputs keyed by request identity — the bit-equality projection
/// (latencies legitimately differ across policies; outputs never do).
fn output_bits(report: &Report) -> Vec<(Arrival, Vec<Vec<KernelReport>>)> {
    let mut v: Vec<_> = report
        .completed
        .iter()
        .map(|c| (c.arrival, c.outcome.segments.clone()))
        .collect();
    v.sort_by_key(|(a, _)| (a.tenant, a.index));
    v
}

pub fn run() -> Json {
    let unit = service_time();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut gate_p99 = [0u64; 2]; // [1 chip, 4 chips] at GATE_LOAD

    // Part 1 — one Poisson tenant, offered load × chips.
    for (factor, load_name) in LOADS {
        let mean_gap = (unit as f64 / factor).max(1.0);
        let horizon = (mean_gap * HORIZON_GAPS) as u64;
        let trace = ArrivalTrace::generate(SEED, horizon, &[ArrivalProcess::Poisson { mean_gap }]);
        for chips in CHIPS_SWEEP {
            let tenants = [TenantConfig::new("poisson")];
            let report = replay(chips, &tenants, &trace, false, None);
            check_outputs(&report);
            // Bit-determinism: a fresh cluster reproduces the replay
            // exactly — sojourns, rounds, outputs and all.
            assert_eq!(
                report,
                replay(chips, &tenants, &trace, false, None),
                "open-loop rerun diverged at {load_name} × {chips} chips"
            );
            let h = &report.per_tenant[0].hist;
            if load_name == GATE_LOAD && chips == 1 {
                gate_p99[0] = h.p99();
            }
            if load_name == GATE_LOAD && chips == 4 {
                gate_p99[1] = h.p99();
            }
            rows.push(vec![
                load_name.into(),
                format!("{chips}"),
                format!("{}", h.count()),
                format!("{}", report.rounds),
                f(h.mean()),
                format!("{}", h.p50()),
                format!("{}", h.p99()),
                format!("{}", h.p999()),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("service_latency")),
                ("load", Json::from(load_name)),
                ("chips", Json::from(chips)),
                ("tenants", Json::from(1u64)),
                ("policy", Json::from("fair-share")),
                ("requests", Json::from(h.count())),
                ("rounds", Json::from(report.rounds)),
                ("mean_sojourn_cycles", Json::from(h.mean())),
                ("p50_sojourn_cycles", Json::from(h.p50())),
                ("p99_sojourn_cycles", Json::from(h.p99())),
                ("p999_sojourn_cycles", Json::from(h.p999())),
            ]));
        }
    }

    // The acceptance gate: at the fixed 2.0x offered load, four chips
    // must hold p99 sojourn to ≤ 0.5x of one chip.
    let [p99_1chip, p99_4chip] = gate_p99;
    let ratio = p99_4chip as f64 / p99_1chip as f64;
    assert!(
        ratio <= GATE_RATIO,
        "at {GATE_LOAD} load, 4 chips held p99 to only {ratio:.2}x of 1 chip \
         (need ≤ {GATE_RATIO}x): {p99_1chip} -> {p99_4chip} cycles"
    );
    points.push(Json::obj([
        ("bench", Json::from("service_latency_gate")),
        ("load", Json::from(GATE_LOAD)),
        ("policy", Json::from("fair-share")),
        ("p99_sojourn_1chip_cycles", Json::from(p99_1chip)),
        ("p99_sojourn_4chip_cycles", Json::from(p99_4chip)),
        ("p99_sojourn_ratio_4chip_vs_1chip", Json::from(ratio)),
        ("threshold", Json::from(GATE_RATIO)),
    ]));

    // Part 2 — SLO A/B: an interactive tenant with a deadline sharing
    // two chips with a bursty batch tenant, plain vs slack-boosted fair
    // share over the identical trace.
    let deadline = 6 * unit;
    // Batch pays for 4x the share: plain fair share then serves its
    // backlog ahead of the interactive trickle, which is the regime the
    // deadline boost exists for.
    let slo_tenants = [
        TenantConfig::new("interactive").with_deadline(deadline),
        TenantConfig::new("batch").with_weight(4),
    ];
    let slo_trace = ArrivalTrace::generate(
        SEED,
        (unit as f64 * HORIZON_GAPS) as u64,
        &[
            ArrivalProcess::Poisson {
                mean_gap: 3.0 * unit as f64,
            },
            ArrivalProcess::OnOff {
                mean_gap_on: unit as f64 / 4.0,
                mean_burst: 6.0,
                mean_gap_off: 4.0 * unit as f64,
            },
        ],
    );
    let plain = replay(2, &slo_tenants, &slo_trace, false, None);
    let boosted = replay(2, &slo_tenants, &slo_trace, true, None);
    check_outputs(&boosted);
    // The boost reorders *when* requests run, never *what* they compute.
    assert_eq!(
        output_bits(&plain),
        output_bits(&boosted),
        "SLO boost changed output bits"
    );
    let (pi, bi) = (&plain.per_tenant[0], &boosted.per_tenant[0]);
    assert!(
        bi.hist.p99() < pi.hist.p99(),
        "SLO boost did not improve the interactive tenant's p99: \
         {} -> {} cycles",
        pi.hist.p99(),
        bi.hist.p99()
    );
    assert!(
        bi.deadline_misses <= pi.deadline_misses,
        "SLO boost increased deadline misses"
    );
    for (policy, rep) in [("fair-share", &plain), ("fair-share+slo", &boosted)] {
        let (int_t, bat_t) = (&rep.per_tenant[0], &rep.per_tenant[1]);
        rows.push(vec![
            "slo-a/b".into(),
            "2".into(),
            format!("{}", int_t.hist.count() + bat_t.hist.count()),
            format!("{}", rep.rounds),
            policy.into(),
            format!("{}", int_t.hist.p50()),
            format!("{}", int_t.hist.p99()),
            format!("{}", int_t.hist.p999()),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("service_latency_slo")),
            ("load", Json::from("slo-a/b")),
            ("chips", Json::from(2u64)),
            ("tenants", Json::from(2u64)),
            ("policy", Json::from(policy)),
            ("deadline_cycles", Json::from(deadline)),
            (
                "interactive_p99_sojourn_cycles",
                Json::from(int_t.hist.p99()),
            ),
            (
                "interactive_deadline_misses",
                Json::from(int_t.deadline_misses),
            ),
            ("batch_p99_sojourn_cycles", Json::from(bat_t.hist.p99())),
        ]));
    }

    // Part 3 — round-quantum A/B: the overloaded 1-chip point again,
    // with `max_round_cost` bounding how much backlog one round may
    // admit. Unbounded rounds serve the whole queue at once, so every
    // rider's sojourn includes the slowest graph's wave; the quantum
    // splits the backlog into shorter rounds and flattens the tail —
    // without touching a single output bit.
    let q_factor = 2.0f64;
    let q_gap = (unit as f64 / q_factor).max(1.0);
    let q_trace = ArrivalTrace::generate(
        SEED,
        (q_gap * HORIZON_GAPS) as u64,
        &[ArrivalProcess::Poisson { mean_gap: q_gap }],
    );
    let request_cost = stream().request(0, 0).graph().graph.total_cost();
    let quantum = 2 * request_cost;
    let tenants = [TenantConfig::new("poisson")];
    let unbounded = replay(1, &tenants, &q_trace, false, None);
    let quantized = replay(1, &tenants, &q_trace, false, Some(quantum));
    check_outputs(&quantized);
    assert_eq!(
        output_bits(&unbounded),
        output_bits(&quantized),
        "round quantum changed output bits"
    );
    let (uh, qh) = (&unbounded.per_tenant[0].hist, &quantized.per_tenant[0].hist);
    assert!(
        qh.p99() < uh.p99(),
        "round quantum did not improve p99 at {q_factor}x load on 1 chip: \
         {} -> {} cycles",
        uh.p99(),
        qh.p99()
    );
    for (policy, rep) in [
        ("fair-share-unbounded", &unbounded),
        ("fair-share+quantum", &quantized),
    ] {
        let h = &rep.per_tenant[0].hist;
        rows.push(vec![
            "2.0x-q".into(),
            "1".into(),
            format!("{}", h.count()),
            format!("{}", rep.rounds),
            policy.into(),
            format!("{}", h.p50()),
            format!("{}", h.p99()),
            format!("{}", h.p999()),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("service_latency_quantum")),
            ("load", Json::from("2.0x")),
            ("chips", Json::from(1u64)),
            ("tenants", Json::from(1u64)),
            ("policy", Json::from(policy)),
            ("rounds", Json::from(rep.rounds)),
            ("p50_sojourn_cycles", Json::from(h.p50())),
            ("p99_sojourn_cycles", Json::from(h.p99())),
            ("p999_sojourn_cycles", Json::from(h.p999())),
        ]));
    }

    table(
        &format!(
            "Open-loop tail latency — streamed solver requests (n=8, 1 round, 2 panels) \
             on a LacCluster ({CORES_PER_CHIP} cores/chip), seeded Poisson arrivals; \
             outputs verified vs linalg-ref, bit-identical reruns; 4-chip p99 ≤ \
             {GATE_RATIO}x of 1-chip @ {GATE_LOAD} asserted (got {ratio:.2}x); \
             SLO boost improves interactive p99 with identical output bits \
             (unit service time {unit} cycles)"
        ),
        &[
            "load",
            "chips",
            "reqs",
            "rounds",
            "mean/policy",
            "p50",
            "p99",
            "p999",
        ],
        &rows,
    );
    Json::arr(points)
}
