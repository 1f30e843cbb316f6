//! Cross-validation of the analytical models against the cycle-accurate
//! simulator — the paper's own methodology (§1.3.1: "We have verified our
//! analytical formulae against our in-house cycle-accurate simulator").

use lac_kernels::{BlockedTrsmWorkload, GemmWorkload, Workload};
use lac_model::CoreGemmModel;
use lac_sim::{Lac, LacConfig};
use linalg_ref::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sim_gemm_cycles(mc: usize, kc: usize, n: usize) -> (u64, f64) {
    let mut rng = StdRng::seed_from_u64(99);
    let a = Matrix::random(mc, kc, &mut rng);
    let b = Matrix::random(kc, n, &mut rng);
    let c = Matrix::random(mc, n, &mut rng);
    let mut lac = Lac::new(LacConfig::default());
    let rep = GemmWorkload::new(a, b, c).run(&mut lac).unwrap();
    (lac.session_stats().cycles, rep.utilization)
}

#[test]
fn scheduled_model_tracks_simulator_within_5pct() {
    for &(mc, kc, n) in &[(16usize, 32usize, 32usize), (32, 64, 32), (16, 128, 64)] {
        let (sim_cycles, _) = sim_gemm_cycles(mc, kc, n);
        let mut model = CoreGemmModel::new(4, 4.0, n);
        model.pipeline = 5;
        let predicted = model.cycles_scheduled(mc, kc);
        let err = (predicted - sim_cycles as f64).abs() / sim_cycles as f64;
        assert!(
            err < 0.05,
            "({mc},{kc},{n}): sim {sim_cycles} vs model {predicted:.0} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn analytic_utilization_brackets_simulator() {
    // The §3.4 closed form ignores pipeline drains, so it should sit at or
    // slightly above the measured utilization, never far below.
    for &(mc, kc, n) in &[(32usize, 64usize, 64usize), (16, 128, 64)] {
        let (_, sim_util) = sim_gemm_cycles(mc, kc, n);
        let model = CoreGemmModel::new(4, 4.0, n);
        let model_util = model.utilization(mc, kc);
        assert!(
            model_util + 0.02 >= sim_util,
            "model {model_util:.3} vs sim {sim_util:.3}"
        );
        assert!(
            model_util - sim_util < 0.25,
            "model too optimistic: {model_util} vs {sim_util}"
        );
    }
}

#[test]
fn trsm_blocked_utilization_model_tracks_sim() {
    let mut rng = StdRng::seed_from_u64(5);
    let kk = 32;
    let w = 32;
    let l = Matrix::random_lower_triangular(kk, &mut rng);
    let b0 = Matrix::random(kk, w, &mut rng);
    let mut lac = Lac::new(LacConfig::default());
    BlockedTrsmWorkload::new(l, b0).run(&mut lac).unwrap();
    let stats = lac.session_stats();
    let useful: u64 = stats.mac_ops + stats.fma_ops;
    let sim_util = useful as f64 / (stats.cycles as f64 * 16.0);
    let model_util = lac_model::trsm_utilization_bw(4, kk / 4, w, 4.0, 5);
    // Same ballpark: the model idealizes staging, the sim pays it all.
    assert!(
        (model_util - sim_util).abs() < 0.35,
        "model {model_util:.2} vs sim {sim_util:.2}"
    );
    assert!(sim_util > 0.1);
}
