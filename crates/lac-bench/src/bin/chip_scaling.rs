//! Multi-core chip scaling: the Chapter 4 story, executed.
//!
//! A fixed queue of blocked-GEMM jobs (the row-panel decomposition of one
//! big `C += A·B`) is dispatched onto one chip with 1 → 16 cores, the
//! aggregate external bandwidth growing with the core count (the paper's
//! per-core `x = 4` words/cycle share). For every core count the simulated
//! chip utilization is compared against the `ChipGemmModel` prediction at
//! the same design point, and the chip energy model prices the run.
//!
//! The microprogram is a pure function of the job *shape*, so it is built
//! once and shared by every job on every core — only the operand images
//! differ per panel.

use lac_bench::json::Json;
use lac_bench::{emit_json, f, json_mode, pct, table};
use lac_kernels::{gemm_program, GemmDataLayout, GemmParams};
use lac_model::ChipGemmModel;
use lac_power::ChipEnergyModel;
use lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, ExecStats, JobGraph, LacCluster, LacConfig, LacEngine,
    Program, Scheduler, SimError,
};
use linalg_ref::{gemm, max_abs_diff, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Panel depth `kc`: big enough that per-tile pipeline drains cost < 4% of
/// the schedule, so the simulated cores run near the model's compute-bound
/// regime.
const KC: usize = 128;
/// Row-panel height `mc` per job.
const MC: usize = 16;
/// Chip problem dimension: C is N×N, decomposed into N/MC = 16 row-panel
/// jobs — every sweep point up to 16 cores stays fully loaded.
const N: usize = 256;
/// Per-core external bandwidth share, words/cycle (§3.4's `x`).
const X_PER_CORE: usize = 4;

/// One row panel of the chip problem: shared program, private operands.
struct PanelJob<'a> {
    prog: &'a Program,
    image: Vec<f64>,
}

impl ChipJob for PanelJob<'_> {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        (2 * MC * KC * N) as u64
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<ExecStats, SimError> {
        eng.load_image(self.image.clone());
        eng.run_program(self.prog)
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let a = Matrix::random(N, KC, &mut rng);
    let b = Matrix::random(KC, N, &mut rng);
    let c = Matrix::random(N, N, &mut rng);

    let lay = GemmDataLayout::new(MC, KC, N);
    let params = GemmParams::new(MC, KC, N);
    let base_cfg = LacConfig::default();
    let prog = gemm_program(base_cfg.nr, base_cfg.fpu.pipeline_depth, &lay, &params);
    let queue: Vec<PanelJob> = (0..N / MC)
        .map(|p| PanelJob {
            prog: &prog,
            image: lay.pack(&a.block(p * MC, 0, MC, KC), &b, &c.block(p * MC, 0, MC, N)),
        })
        .collect();

    let energy_model = ChipEnergyModel::lap_default();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut baseline_makespan = None;
    for cores in [1usize, 2, 4, 8, 16] {
        let cfg = ChipConfig::new(cores, base_cfg).with_bandwidth_budget(X_PER_CORE * cores);
        // A one-chip cluster, so the spot check below can read its shards.
        let mut cluster = LacCluster::new(ClusterConfig::homogeneous(1, cfg));
        let graph: JobGraph<&PanelJob> = queue.iter().collect();
        let run = cluster
            .run_graph(&graph, Scheduler::LeastLoaded)
            .expect("hazard-free schedule");
        let stats = &run.stats.per_chip[0];
        let sim_util = stats.utilization(base_cfg.nr);

        // Functional spot check: each shard's bank still holds the image of
        // the last panel it ran — unpack and compare against linalg-ref.
        for core in 0..cores {
            let Some(last_job) = run.assignment.iter().rposition(|&(_, owner)| owner == core)
            else {
                continue;
            };
            let got = lay.unpack_c(cluster.chip(0).shard(core).mem().as_slice());
            let mut expect = c.block(last_job * MC, 0, MC, N);
            gemm(&a.block(last_job * MC, 0, MC, KC), &b, &mut expect);
            assert!(
                max_abs_diff(&got, &expect) < 1e-10,
                "core {core} panel {last_job} diverges from linalg-ref"
            );
        }

        // The model's intra-chip bandwidth y is the whole chip's budget.
        let model = ChipGemmModel {
            nr: base_cfg.nr,
            s: cores,
            n: N,
            mc: MC,
            kc: KC,
        };
        let model_util = model.utilization((X_PER_CORE * cores) as f64);
        // Cores beyond the queue length can never be busy; the model
        // assumes work for everyone, so scale its prediction down.
        let loaded = (queue.len() as f64 / cores as f64).min(1.0);
        let predicted = model_util * loaded;

        // The documented invariant, enforced rather than just printed:
        // simulation and closed-form model agree within 5% at every point.
        let rel_err = (sim_util - predicted).abs() / predicted;
        assert!(
            rel_err < 0.05,
            "{cores} cores: sim utilization {sim_util:.4} vs model {predicted:.4} \
             ({:.1}% off)",
            rel_err * 100.0
        );

        let base = *baseline_makespan.get_or_insert(stats.makespan_cycles);
        let speedup = base as f64 / stats.makespan_cycles as f64;
        let e = energy_model.summarize(stats);
        rows.push(vec![
            format!("{cores}"),
            format!("{}", stats.makespan_cycles),
            f(speedup),
            pct(sim_util),
            pct(predicted),
            pct((sim_util - predicted).abs() / predicted),
            f(stats.ext_words_per_cycle()),
            f(e.total_nj / 1000.0),
            f(e.gflops_per_w),
        ]);
        points.push(Json::obj([
            ("bench", Json::from("chip_scaling")),
            ("cores", Json::from(cores)),
            ("jobs", Json::from(stats.jobs())),
            ("makespan_cycles", Json::from(stats.makespan_cycles)),
            ("speedup_vs_1core", Json::from(speedup)),
            ("sim_utilization", Json::from(sim_util)),
            ("model_utilization", Json::from(predicted)),
            (
                "ext_words_per_cycle",
                Json::from(stats.ext_words_per_cycle()),
            ),
            ("energy_uj", Json::from(e.total_nj / 1000.0)),
            ("gflops_per_w", Json::from(e.gflops_per_w)),
        ]));
    }
    emit_json(Json::arr(points));
    if json_mode() {
        return;
    }
    table(
        &format!(
            "Chip scaling — {} GEMM row-panel jobs (mc={MC}, kc={KC}, n={N}) across 1..16 \
             cores, {X_PER_CORE} words/cycle/core, shared microprogram",
            N / MC
        ),
        &[
            "cores",
            "makespan",
            "speedup",
            "sim util",
            "model util",
            "|err|",
            "ext w/cyc",
            "energy [uJ]",
            "GFLOPS/W",
        ],
        &rows,
    );
}
