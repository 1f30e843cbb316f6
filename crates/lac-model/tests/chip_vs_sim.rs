//! Chip-level cross-validation: the multi-core chip simulation (through
//! the one-chip `LacService` door) against the Chapter 4 analytical
//! `ChipGemmModel` — the same methodology the single-core `model_vs_sim`
//! suite applies to `CoreGemmModel`.
//!
//! Design point: one `C += A·B` with C `n × n`, decomposed into `n/mc`
//! row-panel jobs of depth `kc`, dispatched over `S` cores that each get
//! the paper's `x = 4` words/cycle share of the chip's intra-chip
//! bandwidth `y = 4S`.

use lac_kernels::{GemmWorkload, Workload};
use lac_model::ChipGemmModel;
use lac_sim::{ChipConfig, JobGraph, LacConfig, LacService, Scheduler};
use linalg_ref::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MC: usize = 16;
const KC: usize = 128;
const X_PER_CORE: usize = 4;

/// The row-panel job queue for an `n × n` chip problem, `n/MC` GEMM
/// workloads of one panel each. `n = max(S·MC, 128)`: the model's panel
/// loop needs `n ≥ S·mc`, and padding `n` up for small `S` keeps the
/// per-job shape in the compute-bound regime the model assumes — so for
/// the small `S` tested here each core drains *several* jobs, not one.
fn queue(s: usize) -> (usize, Vec<Box<dyn Workload>>) {
    let n = (s * MC).max(128);
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random(n, KC, &mut rng);
    let b = Matrix::random(KC, n, &mut rng);
    let c = Matrix::random(n, n, &mut rng);
    let jobs = (0..n / MC)
        .map(|p| {
            Box::new(GemmWorkload::new(
                a.block(p * MC, 0, MC, KC),
                b.clone(),
                c.block(p * MC, 0, MC, n),
            )) as Box<dyn Workload>
        })
        .collect();
    (n, jobs)
}

#[test]
fn chip_gemm_utilization_within_5pct_of_model() {
    for s in [2usize, 4] {
        let (n, jobs) = queue(s);
        let cfg = ChipConfig::new(s, LacConfig::default()).with_bandwidth_budget(X_PER_CORE * s);
        let graph: JobGraph<&Box<dyn Workload>> = jobs.iter().collect();
        let run = LacService::new(cfg)
            .submit(&graph, Scheduler::LeastLoaded)
            .unwrap();

        // Functional truth first: every panel verifies against linalg-ref.
        for (w, report) in jobs.iter().zip(&run.outputs) {
            w.check(report).unwrap_or_else(|e| panic!("S={s}: {e}"));
        }

        let sim_util = run.stats.utilization(LacConfig::default().nr);
        let model = ChipGemmModel {
            nr: LacConfig::default().nr,
            s,
            n,
            mc: MC,
            kc: KC,
        };
        let model_util = model.utilization((X_PER_CORE * s) as f64);
        let rel_err = (sim_util - model_util).abs() / model_util;
        assert!(
            rel_err < 0.05,
            "S={s}: sim utilization {sim_util:.4} vs model {model_util:.4} \
             ({:.1}% off)",
            rel_err * 100.0
        );
        // The closed form ignores pipeline drains, so it must sit above the
        // measurement, never below.
        assert!(model_util >= sim_util, "model cannot be beaten by the sim");
    }
}

#[test]
fn chip_makespan_tracks_model_panel_cycles() {
    let s = 4;
    let (n, jobs) = queue(s);
    let cfg = ChipConfig::new(s, LacConfig::default()).with_bandwidth_budget(X_PER_CORE * s);
    let graph: JobGraph<&Box<dyn Workload>> = jobs.iter().collect();
    let run = LacService::new(cfg)
        .submit(&graph, Scheduler::LeastLoaded)
        .unwrap();

    // cycles_panel(y) is one rank-kc update of the whole C across all S
    // cores — exactly one queue drain at n = S·mc per-core panels.
    let model = ChipGemmModel {
        nr: LacConfig::default().nr,
        s,
        n,
        mc: MC,
        kc: KC,
    };
    let predicted = model.cycles_panel((X_PER_CORE * s) as f64);
    let rel_err = (run.stats.makespan_cycles as f64 - predicted).abs() / predicted;
    assert!(
        rel_err < 0.06,
        "makespan {} vs model {predicted:.0} ({:.1}% off)",
        run.stats.makespan_cycles,
        rel_err * 100.0
    );
}

#[test]
fn doubling_cores_halves_makespan_at_fixed_problem() {
    // §4.1's scaling claim, executed: same 8-panel problem, 2 vs 4 cores.
    let (_, jobs) = queue(8);
    let mut makespans = Vec::new();
    for s in [2usize, 4] {
        let cfg = ChipConfig::new(s, LacConfig::default()).with_bandwidth_budget(X_PER_CORE * s);
        let graph: JobGraph<&Box<dyn Workload>> = jobs.iter().collect();
        let run = LacService::new(cfg)
            .submit(&graph, Scheduler::LeastLoaded)
            .unwrap();
        makespans.push(run.stats.makespan_cycles as f64);
    }
    let ratio = makespans[0] / makespans[1];
    assert!(
        (ratio - 2.0).abs() < 0.02,
        "2→4 cores speedup {ratio:.3}, expected ~2"
    );
}
