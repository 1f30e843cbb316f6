//! Registry-wide oracle harness: every workload in the registry runs at
//! three problem scales and its functional outputs are checked against
//! `linalg-ref`, both through each workload's own `check` (which encodes
//! the per-kernel tolerance) and through independent residual assertions
//! here — so a tolerance bug in `check` itself cannot hide a wrong result.

use lap::lac_kernels::{registry, registry_sized, Details, ProblemSize, Workload};
use lap::lac_sim::{Lac, LacConfig};
use lap::linalg_ref::{gemm, max_abs_diff, trmm, Matrix, Side, Triangle};

/// Per-kernel residual tolerances for the independent checks below. The
/// factorizations accumulate more rounding than the multiply kernels, and
/// tolerance grows with scale.
fn residual_tol(kernel: &str, size: ProblemSize) -> f64 {
    let base = match kernel {
        "gemm" | "syrk" | "trmm" | "symm" => 1e-11,
        "trsm" | "trsm-stacked" | "qr-panel" | "vecnorm" | "fft64" => 1e-9,
        "chol" | "chol-kernel" | "lu" | "lu-panel" => 1e-8,
        // The chained rounds compound factorization error (and the matrix
        // grows every round), so the composite gets the loosest budget.
        "solver-loop" => 1e-7,
        other => panic!("no tolerance registered for kernel {other}"),
    };
    match size {
        ProblemSize::Small => base,
        ProblemSize::Medium => 4.0 * base,
        ProblemSize::Large => 16.0 * base,
    }
}

fn run_one(w: &dyn Workload) -> lap::lac_kernels::KernelReport {
    let mut lac = Lac::new(w.config(LacConfig::default()));
    let report = w
        .run(&mut lac)
        .unwrap_or_else(|e| panic!("{}: simulation error {e:?}", w.name()));
    w.check(&report)
        .unwrap_or_else(|e| panic!("oracle mismatch: {e}"));
    report
}

#[test]
fn every_workload_matches_linalg_ref_at_all_scales() {
    for size in ProblemSize::ALL {
        let workloads = registry_sized(size);
        assert!(
            workloads.len() >= 13,
            "{size:?}: registry shrank to {}",
            workloads.len()
        );
        for w in &workloads {
            let report = run_one(w.as_ref());
            assert_eq!(report.kernel, w.name());
            assert!(
                report.stats.cycles > 0 && report.useful_flops > 0,
                "{}@{size:?}: empty run",
                w.name()
            );
            // Tolerance sanity: the registered residual budget exists for
            // every kernel name (panics inside otherwise).
            let _ = residual_tol(w.name(), size);
        }
    }
}

#[test]
fn demo_registry_agrees_with_its_sized_counterparts() {
    // The canonical demo registry covers the same 13 kernels as every
    // sized suite, under the same names.
    let mut demo_names: Vec<String> = registry().iter().map(|w| w.name().into()).collect();
    demo_names.sort();
    for size in ProblemSize::ALL {
        let mut sized: Vec<String> = registry_sized(size)
            .iter()
            .map(|w| w.name().into())
            .collect();
        sized.sort();
        assert_eq!(demo_names, sized, "{size:?} kernel set diverged");
    }
}

/// Independent residual check for the factorization kernels: rebuild the
/// input from the simulated factors with reference arithmetic and compare
/// against the operand we constructed — `Workload::check` (and its
/// tolerances) are never consulted, so a bug there cannot hide a wrong
/// result here. The workloads are built directly so the operands stay in
/// hand.
#[test]
fn factorizations_reconstruct_their_inputs() {
    use lap::lac_kernels::{
        BlockedCholWorkload, BlockedLuWorkload, BlockedTrsmWorkload, LuOptions, LuPanelWorkload,
    };
    use lap::linalg_ref::{lu::LuFactors, trmm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    for (size, n, w_cols, seed) in [
        (ProblemSize::Small, 8usize, 4usize, 51u64),
        (ProblemSize::Medium, 16, 8, 52),
        (ProblemSize::Large, 32, 12, 53),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);

        // Cholesky: ‖L·Lᵀ − A‖ against the SPD input we built.
        let a = Matrix::random_spd(n, &mut rng);
        let report = run_one(&BlockedCholWorkload::new(a.clone()));
        let Details::Cholesky { l } = &report.details else {
            panic!("chol reports L")
        };
        let mut llt = Matrix::zeros(n, n);
        gemm(l, &l.transpose(), &mut llt);
        let err = max_abs_diff(&llt, &a);
        let tol = residual_tol("chol", size);
        assert!(
            err < tol,
            "chol@{size:?}: ‖L·Lᵀ − A‖ = {err:.3e} ≥ {tol:.0e}"
        );

        // LU (blocked square + tall panel): ‖L·U − P·A‖ via the reference
        // crate's unpack/pivot helpers applied to the *simulated* factors.
        let lu_inputs = [
            ("lu", Matrix::random(n, n, &mut rng)),
            ("lu-panel", Matrix::random(2 * n, 4, &mut rng)),
        ];
        for (kernel, a) in lu_inputs {
            let report = if kernel == "lu" {
                run_one(&BlockedLuWorkload::new(a.clone(), LuOptions::default()))
            } else {
                run_one(&LuPanelWorkload::new(a.clone(), LuOptions::default()))
            };
            let Details::Lu(lu) = &report.details else {
                panic!("{kernel} reports factors")
            };
            let (factors, pivots) = (&lu.factors, &lu.pivots);
            assert_eq!(
                pivots.len(),
                factors.rows().min(factors.cols()),
                "{kernel}@{size:?}: one pivot per elimination step"
            );
            for (i, &p) in pivots.iter().enumerate() {
                assert!(
                    (i..factors.rows()).contains(&p),
                    "{kernel}@{size:?}: pivot {p} at step {i} out of range"
                );
            }
            let sim = LuFactors {
                factors: factors.clone(),
                pivots: pivots.clone(),
            };
            let (l, u) = sim.unpack();
            let mut lu = Matrix::zeros(a.rows(), a.cols());
            gemm(&l, &u, &mut lu);
            let err = max_abs_diff(&lu, &sim.apply_pivots(&a));
            let tol = residual_tol(kernel, size);
            assert!(
                err < tol,
                "{kernel}@{size:?}: ‖L·U − P·A‖ = {err:.3e} ≥ {tol:.0e}"
            );
        }

        // TRSM: multiply the solution back, ‖L·X − B‖ against the input B.
        let l = Matrix::random_lower_triangular(n, &mut rng);
        let b = Matrix::random(n, w_cols, &mut rng);
        let report = run_one(&BlockedTrsmWorkload::new(l.clone(), b.clone()));
        let Details::Trsm { x } = &report.details else {
            panic!("trsm reports X")
        };
        let mut lx = x.clone();
        trmm(Side::Left, Triangle::Lower, &l, &mut lx);
        let err = max_abs_diff(&lx, &b);
        let tol = residual_tol("trsm", size);
        assert!(
            err < tol,
            "trsm@{size:?}: ‖L·X − B‖ = {err:.3e} ≥ {tol:.0e}"
        );
    }
}

/// Independent residual check for the solver loop: reconstruct the round
/// matrices from the *simulated* factors with reference arithmetic only —
/// `Aₖ₊₁ = Aₖ + Σₚ Xₖ,ₚ·Xₖ,ₚᵀ` with `Xₖ,ₚ` solved by reference TRSM
/// against the simulated `Lₖ` — and require `‖Lₖ·Lₖᵀ − Aₖ‖` small every
/// round. `SolverLoopWorkload::check` is never consulted.
#[test]
fn solver_loop_factors_reconstruct_every_round() {
    use lap::lac_kernels::{SolverLoopParams, SolverLoopWorkload};
    use lap::linalg_ref::trsm;

    let wl = SolverLoopWorkload::new(SolverLoopParams {
        n: 16,
        rounds: 4,
        panels: 2,
        width: 8,
        salt: 77,
    });
    let report = run_one(&wl);
    let Details::Solver(solved) = &report.details else {
        panic!("solver reports factors")
    };
    let (factors, final_a) = (&solved.factors, &solved.final_a);
    assert_eq!(factors.len(), 4);
    let mut a = wl.a0.clone();
    for (k, l) in factors.iter().enumerate() {
        let mut llt = Matrix::zeros(a.rows(), a.cols());
        gemm(l, &l.transpose(), &mut llt);
        let scale = 1.0 + a.fro_norm();
        let err = max_abs_diff(&llt, &a) / scale;
        assert!(err < 1e-7, "round {k}: ‖L·Lᵀ − A‖/‖A‖ = {err:.3e}");
        for p in 0..wl.params.panels {
            let mut x = wl.b_panel(p);
            trsm(Side::Left, Triangle::Lower, l, &mut x);
            let mut s = Matrix::zeros(a.rows(), a.cols());
            gemm(&x, &x.transpose(), &mut s);
            for j in 0..a.cols() {
                for i in 0..a.rows() {
                    a[(i, j)] += s[(i, j)];
                }
            }
        }
    }
    let scale = 1.0 + a.fro_norm();
    assert!(
        max_abs_diff(final_a, &a) / scale < 1e-7,
        "final A diverges from the reference-rebuilt chain"
    );
}

/// TRMM cross-oracle: the simulated L·B equals reference `trmm` *and* the
/// reference full GEMM with L densified — two independent references.
#[test]
fn trmm_agrees_with_two_references() {
    use lap::lac_kernels::TrmmWorkload;
    for (n, w_cols, salt) in [(8usize, 4usize, 41u64), (16, 8, 42), (24, 8, 43)] {
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                ((i * 31 + j * 17 + salt as usize) % 19) as f64 / 19.0 - 0.5
            } else if i == j {
                1.25
            } else {
                0.0
            }
        });
        let b = Matrix::from_fn(n, w_cols, |i, j| {
            ((i * 13 + j * 7 + salt as usize) % 23) as f64 / 23.0 - 0.5
        });
        let wl = TrmmWorkload::new(l.clone(), b.clone());
        let report = run_one(&wl);
        let Details::Gemm { c } = &report.details else {
            panic!("trmm reports a product")
        };
        let mut ref1 = b.clone();
        trmm(Side::Left, Triangle::Lower, &l, &mut ref1);
        let mut ref2 = Matrix::zeros(n, w_cols);
        gemm(&l, &b, &mut ref2);
        assert!(max_abs_diff(c, &ref1) < 1e-10);
        assert!(max_abs_diff(c, &ref2) < 1e-10);
        assert!(max_abs_diff(&ref1, &ref2) < 1e-12, "references disagree");
    }
}
