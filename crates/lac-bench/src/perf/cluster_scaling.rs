//! Multi-chip cluster scaling: the sharded-deployment story, executed.
//!
//! A fleet of independent IPM-style solver loops (`SolverFleet` — each
//! loop is CHOL → blocked-TRSM fan-out → SYRK rounds feeding the next) is
//! fused into one `JobGraph` and submitted to a `LacCluster` swept over
//! 1–4 chips × 2–4 cores per chip. The `CostBins` partitioner keeps each
//! loop (one weakly-connected component) whole on a chip, so the fleet
//! shards with zero inter-chip transfers; a `Striped` stress point at the
//! deepest sweep configuration shows what scattering the same jobs across
//! the link would cost instead.
//!
//! For every point the run is verified before a row prints:
//!
//! 1. **Correctness** — every member loop's per-round factors, solves and
//!    updates are checked against an independent `linalg-ref` chain
//!    (`SolverFleet::check`).
//! 2. **Determinism** — the submission is rerun on the same warm cluster
//!    and must be bit-identical (outputs, stats and transfer log).
//! 3. **Scaling** — at each core count, 4 chips must beat 1 chip by
//!    ≥ 1.5x makespan (the acceptance gate; components shard freely, so
//!    the expected gain is ~4x minus bin-packing imbalance).

use lac_bench::json::Json;
use lac_bench::{f, pct, table};
use lac_kernels::{SolverFleet, SolverJob, SolverLoopParams};
use lac_power::ClusterEnergyModel;
use lac_sim::{ChipConfig, ClusterConfig, LacCluster, LacConfig, Partitioner, Scheduler, SimMode};

const CHIPS_SWEEP: [usize; 3] = [1, 2, 4];
const CORES_SWEEP: [usize; 2] = [2, 4];
/// Fleet size: twice the deepest chip count, so every chip carries at
/// least two loops and bin-packing imbalance stays visible but small.
const FLEET: usize = 8;

fn base_params() -> SolverLoopParams {
    SolverLoopParams {
        n: 16,
        rounds: 4,
        panels: 4,
        width: 8,
        salt: 7100,
    }
}

pub fn run() -> Json {
    let nr = LacConfig::default().nr;
    let energy_model = ClusterEnergyModel::lap_default();
    let mut rows = Vec::new();
    let mut points = Vec::new();

    // (chips, cores) → makespan, for the speedup gate below.
    let mut makespans = std::collections::HashMap::new();
    for cores in CORES_SWEEP {
        for chips in CHIPS_SWEEP {
            let mut cluster = super::cluster(chips, cores);
            let fleet = SolverFleet::new(base_params(), FLEET);
            let run = cluster
                .run_graph(&fleet.graph, Scheduler::CriticalPath)
                .expect("hazard-free schedule");
            fleet
                .check(&run.outputs)
                .expect("per-member outputs match linalg-ref");
            assert_eq!(
                run.events.transfer_events().count(),
                0,
                "components must shard without cutting edges"
            );

            // Warm rerun of the used graph on the same cluster:
            // bit-identical.
            let rerun = cluster
                .run_graph(&fleet.graph, Scheduler::CriticalPath)
                .expect("rerun");
            assert_eq!(run.outputs, rerun.outputs, "warm rerun diverged");
            assert_eq!(run.stats, rerun.stats, "warm rerun stats diverged");

            makespans.insert((chips, cores), run.stats.makespan_cycles);
            let e = energy_model.summarize(&run.stats);
            let util = run.stats.utilization(nr);
            let speedup = run.stats.speedup();
            rows.push(vec![
                format!("{chips}"),
                format!("{cores}"),
                "cost-bins".into(),
                format!("{}", run.stats.makespan_cycles),
                format!("{}", run.waves),
                format!("{}", run.stats.transferred_words),
                pct(util),
                f(speedup),
                f(e.total_nj / 1000.0),
                f(e.gflops_per_w),
            ]);
            points.push(Json::obj([
                ("bench", Json::from("cluster_scaling")),
                ("chips", Json::from(chips)),
                ("cores", Json::from(cores)),
                ("policy", Json::from("cost-bins")),
                ("jobs", Json::from(run.stats.jobs())),
                ("waves", Json::from(run.waves)),
                ("makespan_cycles", Json::from(run.stats.makespan_cycles)),
                (
                    "aggregate_busy_cycles",
                    Json::from(run.stats.aggregate.cycles),
                ),
                ("transferred_words", Json::from(run.stats.transferred_words)),
                ("utilization", Json::from(util)),
                ("speedup_vs_serial", Json::from(speedup)),
                ("energy_uj", Json::from(e.total_nj / 1000.0)),
                ("gflops_per_w", Json::from(e.gflops_per_w)),
            ]));
        }
    }

    // The acceptance gate: at every core count, 4 chips ≥ 1.5x over 1.
    for cores in CORES_SWEEP {
        let speedup = makespans[&(1, cores)] as f64 / makespans[&(4, cores)] as f64;
        assert!(
            speedup >= 1.5,
            "{cores} cores/chip: 4 chips gained only {speedup:.2}x over 1"
        );
        points.push(Json::obj([
            ("bench", Json::from("cluster_scaling_speedup_gate")),
            ("cores", Json::from(cores)),
            ("speedup_4_vs_1_chips", Json::from(speedup)),
            ("threshold", Json::from(1.5)),
        ]));
    }

    // Stress point: the same fleet striped job-by-job across 4 chips —
    // every round edge crosses the link, and the modeled transfers show
    // up as makespan. Deterministic like everything else (rerun must
    // match), and strictly worse than component sharding.
    {
        let (chips, cores) = (4, *CORES_SWEEP.last().unwrap());
        let mut cluster = super::cluster(chips, cores).with_partitioner(Partitioner::Striped);
        let fleet = SolverFleet::new(base_params(), FLEET);
        let run = cluster
            .run_graph(&fleet.graph, Scheduler::CriticalPath)
            .expect("striping changes cost, not correctness");
        fleet
            .check(&run.outputs)
            .expect("outputs are placement-free");
        assert!(run.stats.transferred_words > 0);
        let binned = makespans[&(chips, cores)];
        assert!(
            run.stats.makespan_cycles > binned,
            "cutting every edge must cost makespan ({} vs {binned})",
            run.stats.makespan_cycles
        );
        let e = energy_model.summarize(&run.stats);
        rows.push(vec![
            format!("{chips}"),
            format!("{cores}"),
            "striped".into(),
            format!("{}", run.stats.makespan_cycles),
            format!("{}", run.waves),
            format!("{}", run.stats.transferred_words),
            pct(run.stats.utilization(nr)),
            f(run.stats.speedup()),
            f(e.total_nj / 1000.0),
            f(e.gflops_per_w),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("cluster_scaling_striped")),
            ("chips", Json::from(chips)),
            ("cores", Json::from(cores)),
            ("policy", Json::from("striped")),
            ("makespan_cycles", Json::from(run.stats.makespan_cycles)),
            ("transferred_words", Json::from(run.stats.transferred_words)),
            (
                "transfer_stall_cycles",
                Json::from(run.stats.transfer_stall_cycles),
            ),
            (
                "striping_slowdown",
                Json::from(run.stats.makespan_cycles as f64 / binned as f64),
            ),
        ]));

        // Event-core overlap point: the same striped stress fleet under
        // `SimMode::Event` — cut-edge transfers fly while both endpoint
        // chips compute instead of stalling the wave barrier. The event
        // core's acceptance gate: bit-identical outputs, deterministic
        // rerun, and a makespan strictly below the wave coordinator's.
        let chip = ChipConfig::new(cores, LacConfig::default());
        let mut event_cluster: LacCluster<SolverJob> =
            LacCluster::new(ClusterConfig::homogeneous(chips, chip).with_sim_mode(SimMode::Event))
                .with_partitioner(Partitioner::Striped);
        let efleet = SolverFleet::new(base_params(), FLEET);
        let erun = event_cluster
            .run_graph(&efleet.graph, Scheduler::CriticalPath)
            .expect("event mode changes clocks, not correctness");
        assert_eq!(erun.outputs, run.outputs, "event mode changed output bits");
        assert!(
            erun.stats.makespan_cycles < run.stats.makespan_cycles,
            "overlap must beat the barrier: event {} vs wave {}",
            erun.stats.makespan_cycles,
            run.stats.makespan_cycles
        );
        let refleet = SolverFleet::new(base_params(), FLEET);
        let ererun = event_cluster
            .run_graph(&refleet.graph, Scheduler::CriticalPath)
            .expect("event rerun");
        assert_eq!(erun.outputs, ererun.outputs, "event rerun diverged");
        assert_eq!(erun.stats, ererun.stats, "event rerun stats diverged");
        let ee = energy_model.summarize(&erun.stats);
        rows.push(vec![
            format!("{chips}"),
            format!("{cores}"),
            "striped-event".into(),
            format!("{}", erun.stats.makespan_cycles),
            format!("{}", erun.waves),
            format!("{}", erun.stats.transferred_words),
            pct(erun.stats.utilization(nr)),
            f(erun.stats.speedup()),
            f(ee.total_nj / 1000.0),
            f(ee.gflops_per_w),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("cluster_scaling_event_overlap")),
            ("chips", Json::from(chips)),
            ("cores", Json::from(cores)),
            ("policy", Json::from("striped-event")),
            ("makespan_cycles", Json::from(erun.stats.makespan_cycles)),
            (
                "transferred_words",
                Json::from(erun.stats.transferred_words),
            ),
            (
                "transfer_stall_cycles",
                Json::from(erun.stats.transfer_stall_cycles),
            ),
            (
                "event_wave_makespan_ratio",
                Json::from(erun.stats.makespan_cycles as f64 / run.stats.makespan_cycles as f64),
            ),
        ]));
    }

    table(
        &format!(
            "Cluster scaling — {FLEET} independent solver loops (n=16, 4 rounds, \
             4 panels × 8 cols) fused and sharded across 1..4 chips × 2..4 \
             cores/chip; outputs verified vs linalg-ref, bit-identical reruns, \
             ≥1.5x @ 4 chips asserted"
        ),
        &[
            "chips",
            "cores/chip",
            "partition",
            "makespan",
            "waves",
            "xfer words",
            "util",
            "speedup",
            "energy [uJ]",
            "GFLOPS/W",
        ],
        &rows,
    );
    Json::arr(points)
}
