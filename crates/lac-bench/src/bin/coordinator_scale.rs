//! Coordinator scaling bench: host cost per job as one round grows from
//! 10³ to 10⁵ jobs.
//!
//! Each point is one `run_admitted` round on a 2-core `LacService`: four
//! weighted tenants (weights 1–4) each enqueue a flat graph of 4-cycle
//! jobs, so the round's whole pool is ready at once and the coordinator's
//! own planning, not job replay, sets the host time. Every case runs 10³,
//! 10⁴ and 10⁵ jobs, three repetitions each, and reports the median host
//! µs per job:
//!
//! * event mode under all four policies, plus wave `CriticalPath` — the
//!   gated cases: host µs/job at 10⁴ over 10³ must stay at or under 1.5,
//!   which an O(n)-per-dispatch pick (O(n²) per round) cannot meet. A
//!   case over the ceiling is measured once more before it fails, so
//!   one slow host phase cannot fail the bench alone;
//! * wave `FairShare` at 10³ and 10⁴ only, ungated: its wave planner is
//!   still O(ready) per wave.
//!
//! Host µs/job is machine-dependent and archived **ungated**;
//! `makespan_cycles` is simulated, exact on every host, and gated by
//! `perf_compare` to pin the workload. Repetitions must agree on it.

use lac_bench::json::Json;
use lac_bench::{emit_json, json_mode, table};
use lac_sim::{
    ChipConfig, JobGraph, LacConfig, LacService, ProgramBuilder, ProgramJob, Scheduler, SimMode,
    TenantConfig,
};
use std::time::Instant;

const CORES: usize = 2;
const TENANTS: usize = 4;
const REPS: usize = 3;
/// Ceiling on host µs/job at 10⁴ jobs over 10³ jobs for the gated cases.
const EXPONENT_CEILING: f64 = 1.5;

/// One measured configuration.
struct Case {
    mode: SimMode,
    /// `mode`'s name in the table and the JSON points.
    mode_name: &'static str,
    sched: Scheduler,
    sizes: &'static [usize],
    gated: bool,
}

/// A flat graph of `n` identical 4-cycle jobs.
fn flat(n: usize) -> JobGraph<ProgramJob> {
    let mut b = ProgramBuilder::new(LacConfig::default().nr);
    b.idle(4);
    let prog = b.build();
    (0..n).map(|_| ProgramJob::new(prog.clone())).collect()
}

/// One round of `jobs` jobs: `(makespan cycles, host seconds)`. Only
/// `run_admitted` is timed; building and enqueueing the graphs is not.
fn round(mode: SimMode, sched: Scheduler, jobs: usize) -> (u64, f64) {
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
    (run.stats.makespan_cycles, host)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measure every size of `case`: `(jobs, makespan cycles, median host
/// µs/job)` per size. Host speed drifts in phases tens of seconds long,
/// so every repetition visits every size back to back and the sizes are
/// compared within one phase. An untimed round first takes the process's
/// one-time costs (page faults, compiles).
fn measure(case: &Case) -> Vec<(usize, u64, f64)> {
    round(case.mode, case.sched, case.sizes[0]);
    let mut samples = vec![(Vec::new(), Vec::new()); case.sizes.len()];
    for _ in 0..REPS {
        for (&jobs, (makespans, hosts)) in case.sizes.iter().zip(&mut samples) {
            let (makespan, host) = round(case.mode, case.sched, jobs);
            makespans.push(makespan);
            hosts.push(host);
        }
    }
    case.sizes
        .iter()
        .zip(samples)
        .map(|(&jobs, (makespans, hosts))| {
            assert!(
                makespans.iter().all(|&m| m == makespans[0]),
                "{jobs} jobs: repetitions disagree on makespan: {makespans:?}"
            );
            (jobs, makespans[0], median(hosts) * 1e6 / jobs as f64)
        })
        .collect()
}

/// Host µs/job at 10⁴ jobs over 10³ jobs.
fn exponent(points: &[(usize, u64, f64)]) -> f64 {
    points[1].2 / points[0].2
}

fn main() {
    const FULL: &[usize] = &[1_000, 10_000, 100_000];
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
        sizes: FULL,
        gated: true,
    })
    .collect();
    cases.push(Case {
        mode: SimMode::Wave,
        mode_name: "wave",
        sched: Scheduler::CriticalPath,
        sizes: FULL,
        gated: true,
    });
    cases.push(Case {
        mode: SimMode::Wave,
        mode_name: "wave",
        sched: Scheduler::FairShare,
        sizes: &[1_000, 10_000],
        gated: false,
    });

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut violations = Vec::new();
    for case in &cases {
        let (mode, policy) = (case.mode_name, format!("{:?}", case.sched));
        let mut measured = measure(case);
        // A slow host phase can still cover one whole measurement; an
        // O(n)-per-dispatch pick fails every one, so a gated case gets
        // one fresh measurement before it fails.
        if case.gated && exponent(&measured) > EXPONENT_CEILING {
            eprintln!(
                "{mode} {policy}: {:.2}x from 10^3 to 10^4 jobs, measuring again",
                exponent(&measured)
            );
            measured = measure(case);
        }
        for &(jobs, makespan, us_per_job) in &measured {
            rows.push(vec![
                mode.to_string(),
                policy.clone(),
                format!("{jobs}"),
                format!("{makespan}"),
                format!("{us_per_job:.2}"),
                format!("{:.2}x", us_per_job / measured[0].2),
                if case.gated { "gated" } else { "-" }.to_string(),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("coordinator_scale")),
                ("mode", Json::from(mode)),
                ("policy", Json::from(policy.as_str())),
                ("tenants", Json::from(TENANTS)),
                ("cores", Json::from(CORES)),
                ("jobs", Json::from(jobs)),
                ("makespan_cycles", Json::from(makespan)),
                ("host_us_per_job", Json::from(us_per_job)),
            ]));
        }
        if case.gated && exponent(&measured) > EXPONENT_CEILING {
            violations.push(format!(
                "{mode} {policy}: host us/job grew {:.2}x from 10^3 to 10^4 jobs \
                 (ceiling {EXPONENT_CEILING}x)",
                exponent(&measured)
            ));
        }
    }

    emit_json(Json::arr(points));
    if !json_mode() {
        table(
            "Coordinator scaling — one round of flat 4-cycle jobs, 4 weighted tenants, \
             2 cores (host us/job: median of 3, ungated; makespan gated to pin the \
             workload; gated rows: 10^4 over 10^3 <= 1.5x)",
            &[
                "mode",
                "policy",
                "jobs",
                "makespan_cycles",
                "host_us/job",
                "vs 10^3",
                "exponent",
            ],
            &rows,
        );
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
