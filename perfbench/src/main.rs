//! One measurement process of the benchmark: one workload, one seed.
//!
//! ```text
//! perfbench --workload <fleet_batch|tenant_burst|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--setup-only] [--spans <path>]
//! ```
//!
//! Set-up (backend, workers, seeded inputs and one warm-up operation on a
//! small input that fills the compile cache and the kernel shape memo) is
//! timed from process start. The loop then runs operations for
//! `--seconds` seconds, and at least once over the workload's input pool,
//! verifying each one outside the timed region. The last stdout line is
//! one JSON object; `perfbench/run.py` merges several processes into the
//! benchmark's result.
//!
//! With `--trace 1` the first third of the loop (at least one pass) runs
//! untraced and gives the host-speed metrics; the rest records spans,
//! which give the per-layer metrics and, against the untraced part, the
//! tracing overhead.

mod stats;
mod trace;
mod workloads;

use lac_bench::json::Json;
use stats::{median, ratio, tail, Failure, Tally};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Checked, FleetBatch, ServeMixed, Sim, TenantBurst, Workload, CORES, WARM_UP};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--spans" => args.spans = Some(value()?.into()),
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed operation.
struct OpTime {
    /// Which pool input it ran.
    item: usize,
    secs: f64,
    traced: bool,
}

/// Everything the loop measured.
struct Run {
    setup_s: f64,
    /// The warm-up's time minus an immediate warm rerun of it.
    cold_extra_s: f64,
    /// Simulated record of the warm-up plus the compile cache right after
    /// it: equal seeds must give equal digests in every process.
    digest: String,
    ops: Vec<OpTime>,
    tally: Tally,
    /// The first pass over the pool, in pool order.
    pass: Vec<Sim>,
    spans: Vec<trace::Span>,
    compile_end: lac_sim::CacheStats,
}

impl Run {
    /// Host seconds of one pass over the pool: per input, the median of
    /// its untraced operations (robust to a noisy neighbour stalling one).
    fn pass_host_s(&self) -> f64 {
        (0..self.pass.len())
            .map(|item| {
                let secs: Vec<f64> = self
                    .ops
                    .iter()
                    .filter(|o| o.item == item && !o.traced)
                    .map(|o| o.secs)
                    .collect();
                median(&secs)
            })
            .sum()
    }

    /// Host seconds per job over the given operations.
    fn secs_per_job(&self, traced: bool) -> f64 {
        let ops = self.ops.iter().filter(|o| o.traced == traced);
        let jobs: u64 = ops.clone().map(|o| self.pass[o.item].jobs).sum();
        ratio(ops.map(|o| o.secs).sum(), jobs as f64, 0.0)
    }
}

fn digest(sim: &Sim, cache: &lac_sim::CacheStats) -> String {
    use std::hash::{Hash, Hasher};
    // `DefaultHasher::new` is keyless, so the hash is stable across runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sim.sojourns.hash(&mut h);
    format!(
        "makespan={} busy={} idle={} waves={} macs={} jobs={} sojourns={:016x} compiled={}",
        sim.makespan,
        sim.busy,
        sim.idle,
        sim.waves,
        sim.macs,
        sim.jobs,
        h.finish(),
        cache.entries
    )
}

/// Run one operation (timed) and verify it (untimed).
fn step<W: Workload>(w: &mut W, rec: &Arc<Recorder>, k: usize, seq: u64) -> (f64, Checked) {
    let start = Instant::now();
    let out = {
        let _op = rec.enter(trace::OP, seq);
        w.run(k)
    };
    let secs = start.elapsed().as_secs_f64();
    let checked = match out {
        Ok(o) => w.check(k, o),
        Err(e) => Checked::failed(w.ops(k), Failure::Sim(e)),
    };
    (secs, checked)
}

fn measure<W: Workload>(mut w: W, args: &Args, rec: &Arc<Recorder>, t0: Instant) -> Run {
    let (warm_up_s, warm) = step(&mut w, rec, WARM_UP, 0);
    let mut run = Run {
        setup_s: t0.elapsed().as_secs_f64(),
        cold_extra_s: warm_up_s,
        digest: digest(&warm.sim, &w.compile()),
        ops: Vec::new(),
        tally: Tally::default(),
        pass: Vec::new(),
        spans: Vec::new(),
        compile_end: w.compile(),
    };
    if args.setup_only {
        return run;
    }
    run.cold_extra_s -= step(&mut w, rec, WARM_UP, 0).0;
    let pool = w.pool();
    let start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let untraced = if args.trace { window / 3 } else { window };
    let mut k = 0usize;
    // At least one pass over the pool, and in a traced run at least one
    // traced operation.
    while k < pool || start.elapsed() < window || (args.trace && !rec.is_on()) {
        if args.trace && !rec.is_on() && k >= pool && start.elapsed() >= untraced {
            rec.set_on(true);
        }
        let item = k % pool;
        let (secs, checked) = step(&mut w, rec, 1 + item, k as u64 + 1);
        run.tally.record(checked.ok, Ok(()));
        for f in checked.failures {
            run.tally.record(1, Err(f));
        }
        if k < pool {
            run.pass.push(checked.sim);
        }
        run.ops.push(OpTime {
            item,
            secs,
            traced: rec.is_on(),
        });
        k += 1;
    }
    rec.set_on(false);
    run.spans = rec.take();
    run.compile_end = w.compile();
    run
}

fn num(v: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))])
}

/// The simulated metrics of one pass over the pool.
struct SimSummary {
    makespan: f64,
    utilization: f64,
    gflops_per_w: f64,
    p50: f64,
    p99: f64,
    sojourn_samples: u64,
    busy: u64,
    idle: u64,
    stall: u64,
    waves: u64,
    jobs: u64,
    requests: u64,
    deadline_miss_frac: f64,
}

fn summarize(pass: &[Sim]) -> SimSummary {
    let nr2 = (lac_sim::LacConfig::default().nr.pow(2)) as f64;
    let sum = |f: fn(&Sim) -> u64| pass.iter().map(f).sum::<u64>();
    let mut sojourns: Vec<f64> = pass
        .iter()
        .flat_map(|s| &s.sojourns)
        .map(|&c| c as f64)
        .collect();
    sojourns.sort_by(f64::total_cmp);
    let pct = |q| {
        if sojourns.is_empty() {
            0.0
        } else {
            stats::percentile(&sojourns, q)
        }
    };
    let makespan = sum(|s| s.makespan);
    let energy: f64 = pass.iter().map(|s| s.energy_nj).sum();
    SimSummary {
        makespan: ratio(makespan as f64, pass.len() as f64, 0.0),
        utilization: ratio(
            sum(|s| s.macs) as f64,
            makespan as f64 * CORES as f64 * nr2,
            0.0,
        ),
        gflops_per_w: ratio(sum(|s| s.flops) as f64, energy, 0.0),
        p50: pct(0.5),
        p99: pct(0.99),
        sojourn_samples: sojourns.len() as u64,
        busy: sum(|s| s.busy),
        idle: sum(|s| s.idle),
        stall: sum(|s| s.stall),
        waves: sum(|s| s.waves),
        jobs: sum(|s| s.jobs),
        requests: sum(|s| s.requests),
        deadline_miss_frac: ratio(
            sum(|s| s.deadline_misses) as f64,
            sum(|s| s.deadline_reqs) as f64,
            0.0,
        ),
    }
}

fn end_to_end(run: &Run, sim: &SimSummary) -> Json {
    Json::obj([
        ("setup_s", num(run.setup_s, "s")),
        ("peak_rss_mb", num(peak_rss_mb(), "MB")),
        ("makespan_cycles", num(sim.makespan, "cycles")),
        ("utilization", num(sim.utilization, "ratio")),
        ("gflops_per_w", num(sim.gflops_per_w, "GFLOPS/W")),
        ("p50_sojourn_cycles", num(sim.p50, "cycles")),
        ("p99_sojourn_cycles", num(sim.p99, "cycles")),
    ])
}

fn per_layer(run: &Run, sim: &SimSummary) -> Json {
    use trace::{ADMIT, BUILD, CONT, DRIVER, IDLE, JOB, ROUND};
    let spans = &run.spans;
    let attr = trace::attribute(spans);
    let of = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let secs = |name: &'static str| of(name).map(|s| s.dur()).sum::<u64>() as f64 * 1e-9;
    let count = |name: &'static str| of(name).count() as f64;
    let vals = |name: &'static str| of(name).map(|s| s.val).sum::<u64>() as f64;
    let us = |name: &'static str| {
        of(name)
            .map(|s| s.dur() as f64 * 1e-3)
            .collect::<Vec<f64>>()
    };

    let jobs = count(JOB);
    let job_s = secs(JOB);
    let job_us = us(JOB);
    let (job_tail_pct, job_tail) = tail(&job_us);
    let rounds = count(ROUND);
    let round_s = secs(ROUND);
    let round_us = us(ROUND);
    let (round_tail_pct, round_tail) = tail(&round_us);
    let coord_self = attr.share_s(ROUND) + attr.share_s(IDLE);
    let busy = vals(JOB);
    let calls = count(ADMIT);
    let rejects = vals(ADMIT);
    let host_s = attr.host_ns as f64 * 1e-9;

    let op_ms: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.secs * 1e3)
        .collect();
    let (op_tail_pct, op_tail) = tail(&op_ms);
    let pass_s = run.pass_host_s();
    let cache = &run.compile_end;
    let lookups = (cache.hits + cache.misses) as f64;

    Json::obj([
        ("kernels.jobs", num(jobs, "count")),
        ("kernels.job_s", num(job_s, "s")),
        ("kernels.job_us_p50", num(median(&job_us), "us")),
        ("kernels.job_us_tail", num(job_tail, "us")),
        ("kernels.job_tail_pct", num(job_tail_pct, "pct")),
        ("kernels.build_s", num(attr.share_s(BUILD), "s")),
        (
            "kernels.share_s",
            num(attr.share_s(BUILD) + attr.share_s(JOB), "s"),
        ),
        ("sim.engine.busy_cycles", num(busy, "cycles")),
        (
            "sim.engine.mcycles_per_job_s",
            num(ratio(busy / 1e6, job_s, 0.0), "Mcycles/s"),
        ),
        ("sim.compile.entries", num(cache.entries as f64, "count")),
        ("sim.compile.hits", num(cache.hits as f64, "count")),
        ("sim.compile.misses", num(cache.misses as f64, "count")),
        (
            "sim.compile.hit_ratio",
            num(ratio(cache.hits as f64, lookups, 1.0), "ratio"),
        ),
        ("sim.compile.cold_extra_s", num(run.cold_extra_s, "s")),
        ("sim.coord.rounds", num(rounds, "count")),
        ("sim.coord.round_s", num(round_s, "s")),
        ("sim.coord.self_s", num(coord_self, "s")),
        (
            "sim.coord.self_us_per_job",
            num(ratio(coord_self * 1e6, jobs, 0.0), "us"),
        ),
        (
            "sim.coord.worker_util",
            num(ratio(job_s, round_s * CORES as f64, 0.0), "ratio"),
        ),
        ("sim.coord.round_us_p50", num(median(&round_us), "us")),
        ("sim.coord.round_us_tail", num(round_tail, "us")),
        ("sim.coord.round_tail_pct", num(round_tail_pct, "pct")),
        ("sim.admission.calls", num(calls, "count")),
        ("sim.admission.rejects", num(rejects, "count")),
        (
            "sim.admission.accept_ratio",
            num(ratio(calls - rejects, calls, 1.0), "ratio"),
        ),
        ("sim.admission.s", num(attr.share_s(ADMIT), "s")),
        ("sim.dynamic.continuations", num(count(CONT), "count")),
        ("sim.dynamic.segments", num(vals(CONT), "count")),
        ("sim.dynamic.continuation_s", num(attr.share_s(CONT), "s")),
        ("traffic.driver.s", num(secs(DRIVER), "s")),
        ("traffic.driver.self_s", num(attr.share_s(DRIVER), "s")),
        ("sim.time.busy_cycles", num(sim.busy as f64, "cycles")),
        ("sim.time.idle_cycles", num(sim.idle as f64, "cycles")),
        ("sim.time.stall_cycles", num(sim.stall as f64, "cycles")),
        ("sim.time.waves", num(sim.waves as f64, "count")),
        (
            "sim.time.sojourn_samples",
            num(sim.sojourn_samples as f64, "count"),
        ),
        (
            "sim.time.deadline_miss_frac",
            num(sim.deadline_miss_frac, "ratio"),
        ),
        (
            "host.jobs_per_s",
            num(ratio(sim.jobs as f64, pass_s, 0.0), "jobs/s"),
        ),
        (
            "host.sim_mcycles_per_s",
            num(ratio(sim.busy as f64 / 1e6, pass_s, 0.0), "Mcycles/s"),
        ),
        (
            "host.requests_per_s",
            num(ratio(sim.requests as f64, pass_s, 0.0), "req/s"),
        ),
        ("host.op_ms_p50", num(median(&op_ms), "ms")),
        ("host.ops", num(op_ms.len() as f64, "count")),
        ("host.op_ms_tail", num(op_tail, "ms")),
        ("host.op_tail_pct", num(op_tail_pct, "pct")),
        ("trace.host_s", num(host_s, "s")),
        (
            "trace.layer_sum_frac",
            num(
                ratio(host_s - attr.root_self_ns as f64 * 1e-9, host_s, 0.0),
                "ratio",
            ),
        ),
        (
            "trace.overhead_ratio",
            num(
                ratio(run.secs_per_job(true), run.secs_per_job(false), 0.0),
                "ratio",
            ),
        ),
        ("trace.spans", num(spans.len() as f64, "count")),
        ("failed_frac", num(run.tally.failed_frac(), "ratio")),
    ])
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rec = Recorder::new();
    let run = match args.workload.as_str() {
        "fleet_batch" => measure(FleetBatch::new(args.seed, &rec), &args, &rec, t0),
        "tenant_burst" => measure(TenantBurst::new(args.seed, &rec), &args, &rec, t0),
        "serve_mixed" => measure(ServeMixed::new(args.seed, &rec), &args, &rec, t0),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Some(f) = &run.tally.first {
        eprintln!("perfbench: first failure: {f:?}");
    }
    let mut fields = vec![
        ("setup_s", Json::from(run.setup_s)),
        ("digest", Json::from(run.digest.as_str())),
    ];
    if !args.setup_only {
        let sim = summarize(&run.pass);
        let metrics = if args.trace {
            per_layer(&run, &sim)
        } else {
            end_to_end(&run, &sim)
        };
        fields.extend([
            ("attempted", Json::from(run.tally.attempted)),
            ("failed", Json::from(run.tally.failed())),
            ("metrics", metrics),
        ]);
        if let Some(path) = &args.spans {
            if let Err(e) = Recorder::write_tsv(&run.spans, path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!("{}", Json::obj(fields).render());
}
