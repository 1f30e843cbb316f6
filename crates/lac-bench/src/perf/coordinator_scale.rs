//! Coordinator scaling bench: host cost per job as one round grows from
//! 10³ to 10⁵ jobs.
//!
//! Each point is one `run_admitted` round on a 2-core `LacService`: four
//! weighted tenants (weights 1–4) each enqueue a flat graph of 4-cycle
//! jobs, so the round's whole pool is ready at once and the coordinator's
//! own planning, not job replay, sets the host time. The cases are event
//! mode under all four policies plus wave `CriticalPath` and wave
//! `FairShare`; each runs 10³, 10⁴ and 10⁵ jobs, three repetitions each,
//! and reports the median host µs per job.
//!
//! Every case is gated: host µs/job at 10⁴ over 10³ must stay at or under
//! 1.5, which an O(n)-per-dispatch pick (O(n²) per round) cannot meet. A
//! case over the ceiling is measured once more before it fails, so one
//! slow host phase cannot fail the bench alone.
//!
//! Host µs/job is machine-dependent and archived **ungated**;
//! `makespan_cycles` is simulated, exact on every host, and gated by
//! `perf_compare` to pin the workload. `coord_heap_bytes` — the bytes the
//! coordinator's per-job table, ready index and event log reserved for
//! the round — is exact on every host too, and gated worse-if-higher.
//! Repetitions must agree on both.

use lac_bench::json::Json;
use lac_bench::table;
use lac_sim::{
    ChipConfig, JobGraph, LacConfig, LacService, ProgramBuilder, ProgramJob, Scheduler, SimMode,
    TenantConfig,
};
use std::time::Instant;

const CORES: usize = 2;
const TENANTS: usize = 4;
const REPS: usize = 3;
/// Round sizes, jobs.
const SIZES: &[usize] = &[1_000, 10_000, 100_000];
/// Ceiling on host µs/job at 10⁴ jobs over 10³ jobs.
const EXPONENT_CEILING: f64 = 1.5;

/// One measured configuration.
struct Case {
    mode: SimMode,
    /// `mode`'s name in the table and the JSON points.
    mode_name: &'static str,
    sched: Scheduler,
}

/// A flat graph of `n` identical 4-cycle jobs.
fn flat(n: usize) -> JobGraph<ProgramJob> {
    let mut b = ProgramBuilder::new(LacConfig::default().nr);
    b.idle(4);
    let prog = b.build();
    (0..n).map(|_| ProgramJob::new(prog.clone())).collect()
}

/// What one round measured.
struct Point {
    makespan: u64,
    coord_heap_bytes: usize,
    host_s: f64,
}

/// One round of `jobs` jobs. Only `run_admitted` is timed; building and
/// enqueueing the graphs is not.
fn round(mode: SimMode, sched: Scheduler, jobs: usize) -> Point {
    let cfg = ChipConfig::new(CORES, LacConfig::default()).with_sim_mode(mode);
    let mut svc: LacService<ProgramJob> = LacService::new(cfg);
    for t in 0..TENANTS {
        let id = svc.add_tenant(TenantConfig::new(format!("t{t}")).with_weight(t as u64 + 1));
        if svc.enqueue(id, flat(jobs / TENANTS)).is_err() {
            panic!("tenant {t}: an unbounded budget admits every graph");
        }
    }
    let start = Instant::now();
    let run = svc.run_admitted(sched).expect("round runs");
    let host = start.elapsed().as_secs_f64();
    assert_eq!(run.stats.jobs(), jobs as u64, "every job ran once");
    Point {
        makespan: run.stats.makespan_cycles,
        coord_heap_bytes: run.coord_heap_bytes,
        host_s: host,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One size of one case: the repetitions' exact fields and median host
/// µs/job.
struct Measured {
    jobs: usize,
    makespan: u64,
    coord_heap_bytes: usize,
    us_per_job: f64,
}

/// Measure every size of `case`. Host speed drifts in phases tens of
/// seconds long, so every repetition visits every size back to back and
/// the sizes are compared within one phase. An untimed round first takes
/// the process's one-time costs (page faults, compiles).
fn measure(case: &Case) -> Vec<Measured> {
    round(case.mode, case.sched, SIZES[0]);
    let mut samples: Vec<Vec<Point>> = SIZES.iter().map(|_| Vec::new()).collect();
    for _ in 0..REPS {
        for (&jobs, points) in SIZES.iter().zip(&mut samples) {
            points.push(round(case.mode, case.sched, jobs));
        }
    }
    SIZES
        .iter()
        .zip(samples)
        .map(|(&jobs, points)| {
            let first = &points[0];
            assert!(
                points.iter().all(|p| (p.makespan, p.coord_heap_bytes)
                    == (first.makespan, first.coord_heap_bytes)),
                "{jobs} jobs: repetitions disagree on makespan or coordinator bytes"
            );
            Measured {
                jobs,
                makespan: first.makespan,
                coord_heap_bytes: first.coord_heap_bytes,
                us_per_job: median(points.iter().map(|p| p.host_s).collect()) * 1e6 / jobs as f64,
            }
        })
        .collect()
}

/// Host µs/job at 10⁴ jobs over 10³ jobs.
fn exponent(points: &[Measured]) -> f64 {
    points[1].us_per_job / points[0].us_per_job
}

pub fn run() -> Json {
    let mut cases: Vec<Case> = [
        Scheduler::Fifo,
        Scheduler::LeastLoaded,
        Scheduler::CriticalPath,
        Scheduler::FairShare,
    ]
    .into_iter()
    .map(|sched| Case {
        mode: SimMode::Event,
        mode_name: "event",
        sched,
    })
    .collect();
    cases.extend(
        [Scheduler::CriticalPath, Scheduler::FairShare].map(|sched| Case {
            mode: SimMode::Wave,
            mode_name: "wave",
            sched,
        }),
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut violations = Vec::new();
    for case in &cases {
        let (mode, policy) = (case.mode_name, format!("{:?}", case.sched));
        let mut measured = measure(case);
        // A slow host phase can still cover one whole measurement; an
        // O(n)-per-dispatch pick fails every one, so a case gets one
        // fresh measurement before it fails.
        if exponent(&measured) > EXPONENT_CEILING {
            eprintln!(
                "{mode} {policy}: {:.2}x from 10^3 to 10^4 jobs, measuring again",
                exponent(&measured)
            );
            measured = measure(case);
        }
        for m in &measured {
            let (jobs, us_per_job) = (m.jobs, m.us_per_job);
            rows.push(vec![
                mode.to_string(),
                policy.clone(),
                format!("{jobs}"),
                format!("{}", m.makespan),
                format!("{}", m.coord_heap_bytes),
                format!("{us_per_job:.2}"),
                format!("{:.2}x", us_per_job / measured[0].us_per_job),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("coordinator_scale")),
                ("mode", Json::from(mode)),
                ("policy", Json::from(policy.as_str())),
                ("tenants", Json::from(TENANTS)),
                ("cores", Json::from(CORES)),
                ("jobs", Json::from(jobs)),
                ("makespan_cycles", Json::from(m.makespan)),
                ("coord_heap_bytes", Json::from(m.coord_heap_bytes)),
                ("host_us_per_job", Json::from(us_per_job)),
            ]));
        }
        if exponent(&measured) > EXPONENT_CEILING {
            violations.push(format!(
                "{mode} {policy}: host us/job grew {:.2}x from 10^3 to 10^4 jobs \
                 (ceiling {EXPONENT_CEILING}x)",
                exponent(&measured)
            ));
        }
    }

    table(
        "Coordinator scaling — one round of flat 4-cycle jobs, 4 weighted tenants, \
         2 cores (host us/job: median of 3, ungated; makespan gated to pin the \
         workload; coordinator bytes gated worse-if-higher; every case gated: \
         10^4 over 10^3 <= 1.5x)",
        &[
            "mode",
            "policy",
            "jobs",
            "makespan_cycles",
            "coord_heap_bytes",
            "host_us/job",
            "vs 10^3",
        ],
        &rows,
    );
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    Json::arr(points)
}
