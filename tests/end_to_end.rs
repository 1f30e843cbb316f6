//! End-to-end integration tests spanning the whole stack: reference
//! substrate → workload generators → `Lac` sessions on the
//! cycle-accurate simulator → energy model.

use lap::lac_kernels::{
    BlockedCholWorkload, BlockedTrsmWorkload, Details, Fft64Workload, GemmWorkload, LuOptions,
    LuPanelWorkload, Workload,
};
use lap::lac_power::{ChipEnergyModel, EnergyModel, SessionEnergy};
use lap::lac_sim::{ChipConfig, Lac, LacConfig, LacService, Scheduler};
use lap::linalg_ref::{
    cholesky, fft_radix4, gemm, lu_partial_pivot, max_abs_diff, trsm, Complex, Matrix, Side,
    Triangle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fresh_core() -> Lac {
    Lac::new(LacConfig::default())
}

#[test]
fn linear_system_via_lu_on_the_accelerator() {
    // Factor a 32×4 panel on the LAC and check it against the reference
    // factorization bit-for-bit in pivots and to 1e-9 in values.
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::random(32, 4, &mut rng);
    let mut lac = fresh_core();
    let w = LuPanelWorkload::new(a.clone(), LuOptions::default());
    let report = w.run(&mut lac).unwrap();
    let Details::Lu(lu) = &report.details else {
        panic!("lu reports factors")
    };
    let (factors, pivots) = (&lu.factors, &lu.pivots);
    let reference = lu_partial_pivot(&a).unwrap();
    assert_eq!(*pivots, reference.pivots);
    assert!(max_abs_diff(factors, &reference.factors) < 1e-9);
    assert!(report.stats.cycles > 0 && report.stats.sfu_ops == 4);
}

#[test]
fn gemm_chain_matches_reference_composition() {
    // (A·B)·C on the accelerator equals the reference composition — run
    // back-to-back on ONE core, whose session meters both.
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::random(16, 16, &mut rng);
    let b = Matrix::random(16, 16, &mut rng);
    let c = Matrix::random(16, 16, &mut rng);

    let mut lac = fresh_core();
    let mut run = |x: &Matrix, y: &Matrix| {
        let w = GemmWorkload::new(x.clone(), y.clone(), Matrix::zeros(16, 16));
        let report = w.run(&mut lac).unwrap();
        let Details::Gemm { c } = report.details else {
            panic!("gemm reports C")
        };
        (c, report.stats)
    };
    let (ab, first) = run(&a, &b);
    let (abc, second) = run(&ab, &c);
    let mut both = first;
    both.merge(&second);
    assert_eq!(
        *lac.session_stats(),
        both,
        "one session metered both chained GEMMs"
    );
    // Session accumulation across back-to-back workloads: both runs were
    // identical in shape, so every session counter is exactly double one
    // run's (cycles, MACs, and external traffic alike).
    let s = lac.session_stats();
    assert_eq!(s.cycles % 2, 0);
    assert_eq!(s.mac_ops, 2 * (16 * 16 * 16));
    assert_eq!(s.ext_reads % 2, 0);
    assert_eq!(lac.session_stats().flops(), 2 * s.mac_ops + s.sfu_ops);

    let mut expect_ab = Matrix::zeros(16, 16);
    gemm(&a, &b, &mut expect_ab);
    let mut expect = Matrix::zeros(16, 16);
    gemm(&expect_ab, &c, &mut expect);
    assert!(max_abs_diff(&abc, &expect) < 1e-10);
}

#[test]
fn cholesky_then_trsm_solves_spd_system() {
    // A = L·Lᵀ on the LAC, then L X = B on the LAC — the same session
    // serves both workloads with state reuse.
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::random_spd(16, &mut rng);
    let b = Matrix::random(16, 8, &mut rng);

    let mut lac = fresh_core();
    let chol_w = BlockedCholWorkload::new(a.clone());
    let chol_rep = chol_w.run(&mut lac).unwrap();
    let Details::Cholesky { l } = &chol_rep.details else {
        panic!("chol reports L")
    };
    assert!(max_abs_diff(l, &cholesky(&a).unwrap()) < 1e-8);

    let trsm_w = BlockedTrsmWorkload::new(l.clone(), b.clone());
    let trsm_rep = trsm_w.run(&mut lac).unwrap();
    let Details::Trsm { x } = &trsm_rep.details else {
        panic!("trsm reports X")
    };
    let mut expect = b.clone();
    trsm(Side::Left, Triangle::Lower, l, &mut expect);
    assert!(max_abs_diff(x, &expect) < 1e-8);

    // Session accounting covers both factor and solve, counter for counter.
    assert_eq!(
        lac.session_stats().cycles,
        chol_rep.stats.cycles + trsm_rep.stats.cycles
    );
    let mut expect_session = chol_rep.stats;
    expect_session.merge(&trsm_rep.stats);
    assert_eq!(
        *lac.session_stats(),
        expect_session,
        "session is exactly the sum of its workloads"
    );
}

#[test]
fn fft_parseval_on_the_core() {
    // Energy conservation: ‖X‖² = n·‖x‖² for the simulated transform.
    let x: Vec<Complex> = (0..64)
        .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
        .collect();
    let w = Fft64Workload::new(x.clone());
    let mut lac = Lac::new(w.config(LacConfig {
        sram_a_words: 64,
        sram_b_words: 64,
        ..Default::default()
    }));
    let report = w.run(&mut lac).unwrap();
    let Details::Fft { spectrum } = &report.details else {
        panic!("fft reports spectrum")
    };
    let time_energy: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
    let freq_energy: f64 = spectrum.iter().map(|v| v.abs() * v.abs()).sum();
    assert!((freq_energy / (64.0 * time_energy) - 1.0).abs() < 1e-12);

    // And it agrees with the reference transform.
    let mut reference = x;
    fft_radix4(&mut reference);
    for (got, want) in spectrum.iter().zip(&reference) {
        assert!((*got - *want).abs() < 1e-10);
    }
}

#[test]
fn energy_model_scales_with_work() {
    // Twice the GEMM work costs roughly twice the energy — read through
    // the session energy summary.
    let energy_of = |n: usize| {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, n, &mut rng);
        let mut lac = fresh_core();
        GemmWorkload::new(a, b, Matrix::zeros(16, n))
            .run(&mut lac)
            .unwrap();
        lac.energy_summary(&EnergyModel::lac_default()).energy_nj
    };
    let e1 = energy_of(32);
    let e2 = energy_of(64);
    let ratio = e2 / e1;
    assert!((1.7..2.3).contains(&ratio), "energy ratio {ratio}");
}

#[test]
fn multi_core_chip_splits_gemm_by_row_panels() {
    // Chapter 4's work distribution, through the chip layer: each core owns
    // a row panel of C with its own bank of on-chip memory; the scheduler
    // dispatches the panel queue and the makespan is the slowest shard.
    let s = 4;
    let (mc, kc, n) = (16, 16, 16); // per-core panel: C is (s·mc) × n
    let mut rng = StdRng::seed_from_u64(9);
    let a = Matrix::random(s * mc, kc, &mut rng);
    let b = Matrix::random(kc, n, &mut rng);
    let c0 = Matrix::random(s * mc, n, &mut rng);

    let jobs: Vec<Box<dyn Workload>> = (0..s)
        .map(|core| {
            Box::new(GemmWorkload::new(
                a.block(core * mc, 0, mc, kc),
                b.clone(),
                c0.block(core * mc, 0, mc, n),
            )) as Box<dyn Workload>
        })
        .collect();

    let mut chip = LacService::new(ChipConfig::new(s, LacConfig::default()));
    let graph: lap::lac_sim::JobGraph<Box<dyn Workload>> = jobs.into_iter().collect();
    let run = chip.submit(&graph, Scheduler::LeastLoaded).unwrap();
    assert_eq!(run.stats.jobs(), s as u64);
    assert_eq!(
        run.stats.jobs_per_core,
        vec![1; s],
        "equal jobs, equal cores"
    );
    assert!(run.stats.makespan_cycles > 0);
    assert!(
        (run.stats.speedup() - s as f64).abs() < 1e-9,
        "panels are independent"
    );
    assert!(run.stats.utilization(LacConfig::default().nr) > 0.4);

    // Reassemble C from the per-job reports (submission order) and verify
    // against the reference full-size GEMM.
    let mut got = Matrix::zeros(s * mc, n);
    for (core, report) in run.outputs.iter().enumerate() {
        assert!(report.utilization > 0.4);
        let Details::Gemm { c } = &report.details else {
            panic!("gemm reports C")
        };
        got.set_block(core * mc, 0, c);
    }
    let mut expect = c0;
    gemm(&a, &b, &mut expect);
    assert!(max_abs_diff(&got, &expect) < 1e-10);

    // The chip energy summary prices the run and decomposes exactly.
    let e = ChipEnergyModel::lap_default().summarize(&run.stats);
    assert_eq!(e.per_core.len(), s);
    assert!(e.total_nj > 0.0);
    assert!((e.total_nj - e.cores_nj - e.uncore_nj).abs() < 1e-9);
}

#[test]
fn bandwidth_cap_respected_by_all_kernels() {
    // The natural cap of nr words/cycle (one per column bus) must never be
    // exceeded — run a GEMM session with the cap enforced.
    let cfg = LacConfig {
        ext_words_per_cycle: Some(4),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::random(16, 32, &mut rng);
    let b = Matrix::random(32, 16, &mut rng);
    let mut lac = Lac::new(cfg);
    GemmWorkload::new(a, b, Matrix::zeros(16, 16))
        .run(&mut lac)
        .unwrap();
    assert!(lac.session_stats().ext_words_per_cycle() <= 4.0);
}
