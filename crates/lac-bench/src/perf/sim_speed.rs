//! Simulator-throughput micro-bench: host seconds per simulated
//! megacycle, interpreter vs compiled backend.
//!
//! Everything else in `lac-bench` reports *simulated* cycles — machine
//! numbers that never move between hosts. This bench measures the one thing
//! those reports hide: how fast the simulator itself chews through them.
//! A fixed solver-loop graph (`SolverLoopWorkload`) is served repeatedly
//! on a `LacService` at 1 and 4 cores, once per [`ExecBackend`],
//! wall-clock timed, and reported as `host_seconds_per_megacycle` /
//! `megacycles_per_host_second`.
//!
//! The host-time fields are machine-dependent by design and therefore
//! **ungated** — they are archived for trend-watching, not regression
//! gating. Three things *are* pinned:
//!
//! * `makespan_cycles` of the timed graph, so two archives' host numbers
//!   time the same workload;
//! * cross-backend makespan equality, asserted here — the backends are
//!   bit-identical by contract (see `docs/PERFORMANCE.md`);
//! * `compiled_speedup` at 1 core: the measured compiled/interpreter
//!   throughput ratio, clamped to the contractual floor of 3× so the
//!   archived value is host-independent. `perf_compare` gates it as a
//!   worse-if-lower metric; the raw ratio is archived alongside as
//!   `compiled_over_interpreter_measured`;
//! * `memo_heap_bytes`: one cold fleet shaped like perfbench's
//!   `fleet_batch` (loops of n = 44, 48 and 52, 4 rounds, 4 panels of
//!   width 8, on 2 chips × 1 core) fills its cluster's program store,
//!   whose kernel-program totals ([`lac_sim::CacheStats::programs`] and
//!   [`lac_sim::CacheStats::program_heap_bytes`]) are archived as
//!   `memo_shapes` and `memo_heap_bytes`. Program content is a pure
//!   function of the shapes, so the bytes are exact across hosts, and
//!   `perf_compare` gates them as worse-if-higher. The fleet's cold run
//!   minus an immediate warm rerun is archived, ungated, as
//!   `cold_extra_ms`: the host cost of building and compiling its
//!   programs.
//! * `report_heap_bytes`: the bytes the timed graph's outputs hold — each
//!   report's `size_of` plus its payload matrix's `rows × cols × 8`. Both
//!   are exact across hosts, so `perf_compare` gates the sum as
//!   worse-if-higher, like every `*_heap_bytes` field.

use lac_bench::json::Json;
use lac_bench::{f, table};
use lac_kernels::{Details, KernelReport, SolverLoopParams, SolverLoopWorkload};
use lac_sim::{ChipConfig, ExecBackend, JobGraph, LacCluster, LacConfig, LacService, Scheduler};
use std::time::Instant;

/// Timed submissions per row (after one untimed warmup).
const RUNS: u32 = 4;

/// Contractual compiled-over-interpreter throughput floor at 1 core.
const SPEEDUP_FLOOR: f64 = 3.0;

fn backend_name(b: ExecBackend) -> &'static str {
    match b {
        ExecBackend::Interpreter => "interpreter",
        ExecBackend::Compiled => "compiled",
    }
}

/// Bytes a solver-loop graph's outputs hold: each report inline plus the
/// one payload matrix every step emits.
fn report_heap_bytes(outputs: &[KernelReport]) -> usize {
    outputs
        .iter()
        .map(|r| {
            let payload = match &r.details {
                Details::Cholesky { l: m } | Details::Trsm { x: m } | Details::Syrk { c: m } => m,
                other => panic!("{}: unexpected solver-loop output {other:?}", r.kernel),
            };
            std::mem::size_of::<KernelReport>() + payload.rows() * payload.cols() * 8
        })
        .sum()
}

/// Build and run the `fleet_batch`-shaped fleet on `cluster`, check every
/// loop, and return the host seconds it took.
fn run_fleet(cluster: &mut LacCluster<lac_kernels::SolverJob>) -> f64 {
    let start = Instant::now();
    let loops: Vec<SolverLoopWorkload> = [44, 48, 52]
        .into_iter()
        .map(|n| {
            SolverLoopWorkload::new(SolverLoopParams {
                n,
                rounds: 4,
                panels: 4,
                width: 8,
                salt: n as u64,
            })
        })
        .collect();
    let mut graph = JobGraph::new();
    let ids: Vec<_> = loops
        .iter()
        .map(|w| graph.append(w.graph().graph))
        .collect();
    let run = cluster
        .run_graph(&graph, Scheduler::CriticalPath)
        .expect("fleet run");
    let secs = start.elapsed().as_secs_f64();
    for (w, ids) in loops.iter().zip(&ids) {
        let first = ids[0].index();
        w.check_graph(&run.outputs[first..first + ids.len()])
            .expect("fleet outputs match linalg-ref");
    }
    secs
}

pub fn run() -> Json {
    let w = SolverLoopWorkload::new(SolverLoopParams {
        n: 16,
        rounds: 6,
        panels: 4,
        width: 8,
        salt: 4242,
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut report_bytes = 0;

    for cores in [1usize, 4] {
        let mut makespans = Vec::new();
        let mut rates = Vec::new();
        for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
            let cfg = LacConfig {
                backend,
                ..LacConfig::default()
            };
            let mut svc = LacService::new(ChipConfig::new(cores, cfg));
            // Warmup: fault in the code paths and (for the compiled
            // backend) populate the service-wide compile cache outside
            // the timed region.
            let warm = svc
                .submit(&w.graph().graph, Scheduler::CriticalPath)
                .expect("warmup run");
            w.check_graph(&warm.outputs)
                .expect("outputs match linalg-ref");
            report_bytes = report_heap_bytes(&warm.outputs);

            let start = Instant::now();
            let mut simulated_cycles = 0u64;
            for _ in 0..RUNS {
                let run = svc
                    .submit(&w.graph().graph, Scheduler::CriticalPath)
                    .expect("timed run");
                simulated_cycles += run.stats.makespan_cycles;
            }
            let host_seconds = start.elapsed().as_secs_f64();

            // The simulated side is exact and repeatable; only host time
            // varies.
            assert_eq!(
                simulated_cycles,
                RUNS as u64 * warm.stats.makespan_cycles,
                "timed runs must replay the warmup bit for bit"
            );
            let megacycles = simulated_cycles as f64 / 1e6;
            let sec_per_mc = host_seconds / megacycles;
            makespans.push(warm.stats.makespan_cycles);
            rates.push(megacycles / host_seconds);
            rows.push(vec![
                format!("{cores}"),
                backend_name(backend).to_string(),
                format!("{}", w.graph().graph.len()),
                format!("{}", warm.stats.makespan_cycles),
                format!("{RUNS}"),
                format!("{:.3}", sec_per_mc),
                f(megacycles / host_seconds),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("sim_speed")),
                ("backend", Json::from(backend_name(backend))),
                ("cores", Json::from(cores)),
                ("jobs", Json::from(w.graph().graph.len())),
                ("runs", Json::from(RUNS as u64)),
                ("makespan_cycles", Json::from(warm.stats.makespan_cycles)),
                ("host_seconds_per_megacycle", Json::from(sec_per_mc)),
                (
                    "megacycles_per_host_second",
                    Json::from(megacycles / host_seconds),
                ),
            ]));
        }

        // Bit-identical backends must simulate the same machine.
        assert_eq!(
            makespans[0], makespans[1],
            "interpreter and compiled backends disagree on makespan at {cores} cores"
        );

        // Gate the speedup contract where the measurement is cleanest: a
        // single worker core, no thread-scheduling noise.
        if cores == 1 {
            let measured = rates[1] / rates[0];
            assert!(
                measured >= SPEEDUP_FLOOR,
                "compiled backend is only {measured:.2}x the interpreter at 1 core \
                 (contract: >= {SPEEDUP_FLOOR}x)"
            );
            points.push(Json::obj([
                ("bench", Json::from("sim_speed")),
                ("backend", Json::from("ratio")),
                ("cores", Json::from(cores)),
                ("compiled_speedup", Json::from(measured.min(SPEEDUP_FLOOR))),
                ("compiled_over_interpreter_measured", Json::from(measured)),
            ]));
            rows.push(vec![
                format!("{cores}"),
                "ratio".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{measured:.2}x"),
            ]);
        }
    }

    // The timed graph's outputs (identical on every row above).
    let jobs = w.graph().graph.len();
    points.push(Json::obj([
        ("bench", Json::from("sim_speed")),
        ("backend", Json::from("reports")),
        ("jobs", Json::from(jobs)),
        ("report_heap_bytes", Json::from(report_bytes)),
    ]));
    rows.push(vec![
        "-".to_string(),
        "reports".to_string(),
        format!("{jobs}"),
        format!("{report_bytes} B"),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);

    // The kernel programs one cold fleet leaves in its cluster's store.
    let mut cluster = super::cluster(2, 1);
    let cold_s = run_fleet(&mut cluster);
    let memo = cluster.program_cache().stats();
    let cold_extra_ms = (cold_s - run_fleet(&mut cluster)) * 1e3;
    points.push(Json::obj([
        ("bench", Json::from("sim_speed")),
        ("backend", Json::from("memo")),
        ("memo_shapes", Json::from(memo.programs)),
        ("memo_heap_bytes", Json::from(memo.program_heap_bytes)),
        ("cold_extra_ms", Json::from(cold_extra_ms)),
    ]));
    rows.push(vec![
        "2x1".to_string(),
        "memo".to_string(),
        format!("{} shapes", memo.programs),
        format!("{} B", memo.program_heap_bytes),
        "-".to_string(),
        "-".to_string(),
        format!("cold +{cold_extra_ms:.1} ms"),
    ]);

    table(
        "Simulator throughput — host seconds per simulated megacycle \
         (host fields machine-dependent, ungated; makespan gated to pin \
         the timed workload; compiled_speedup gated at its 3x floor; \
         memo_heap_bytes and report_heap_bytes gated)",
        &[
            "cores",
            "backend",
            "jobs",
            "makespan_cycles",
            "runs",
            "host_s/Mcycle",
            "Mcycle/host_s",
        ],
        &rows,
    );
    Json::arr(points)
}
