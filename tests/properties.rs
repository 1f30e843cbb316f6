//! Property-based tests (proptest) on the core invariants: the reference
//! substrate's algebraic identities, the simulator's agreement with it, and
//! the FPU models' numeric contracts.

use lap::lac_fpu::{magnitude_max_index, recip_newton_raphson, ExtendedAccumulator};
use lap::lac_kernels::{Details, GemmWorkload, Workload};
use lap::lac_sim::{Lac, LacConfig};
use lap::linalg_ref::{
    blas1, gemm, gemm_blocked, gemm_naive, max_abs_diff, trmm, trsm, BlockSizes, Matrix, Side,
    Transpose, Triangle,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = (usize, usize, u64)> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_equals_naive((m, k, seed) in matrix_strategy(24), n in 1usize..=24,
                                 mc in 1usize..=16, kc in 1usize..=16, nr in 1usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let mut c1 = Matrix::random(m, n, &mut rng);
        let mut c2 = c1.clone();
        gemm(&a, &b, &mut c1);
        gemm_blocked(&a, &b, &mut c2, BlockSizes { mc, kc, nr });
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-10);
    }

    #[test]
    fn gemm_transpose_identity((m, k, seed) in matrix_strategy(12), n in 1usize..=12) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let mut ab = Matrix::zeros(m, n);
        gemm(&a, &b, &mut ab);
        let mut btat = Matrix::zeros(n, m);
        gemm_naive(1.0, &b, Transpose::Yes, &a, Transpose::Yes, 0.0, &mut btat);
        prop_assert!(max_abs_diff(&ab.transpose(), &btat) < 1e-10);
    }

    #[test]
    fn trsm_inverts_trmm(n in 1usize..=12, w in 1usize..=12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = Matrix::random_lower_triangular(n, &mut rng);
        let x0 = Matrix::random(n, w, &mut rng);
        let mut b = x0.clone();
        trmm(Side::Left, Triangle::Lower, &l, &mut b);
        trsm(Side::Left, Triangle::Lower, &l, &mut b);
        prop_assert!(max_abs_diff(&b, &x0) < 1e-8);
    }

    #[test]
    fn nrm2_scale_invariance(seed in any::<u64>(), len in 1usize..=64, scale in -20i32..=20) {
        // ‖αx‖ = |α|·‖x‖ for power-of-two α (exact in binary FP).
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..len).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
        let alpha = 2f64.powi(scale);
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        let n1 = blas1::nrm2(&scaled);
        let n2 = alpha.abs() * blas1::nrm2(&x);
        if n2 != 0.0 {
            prop_assert!((n1 / n2 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn comparator_matches_iamax(xs in prop::collection::vec(-1e10f64..1e10, 1..50)) {
        prop_assert_eq!(magnitude_max_index(&xs), blas1::iamax(&xs));
    }

    #[test]
    fn recip_accuracy_everywhere(mant in 1.0f64..2.0, exp in -300i32..300) {
        let x = mant * 2f64.powi(exp);
        let y = recip_newton_raphson(x, 3);
        let ulps = (y.to_bits() as i64 - (1.0 / x).to_bits() as i64).abs();
        prop_assert!(ulps <= 8, "x={x}, ulps={ulps}");
    }

    #[test]
    fn extended_accumulator_matches_f64_in_range(
        vals in prop::collection::vec((-1e10f64..1e10, -1e10f64..1e10), 1..40)
    ) {
        let mut acc = ExtendedAccumulator::new();
        let mut reference = 0.0f64;
        for (a, b) in &vals {
            acc.mac(*a, *b);
            reference += a * b;
        }
        let got = acc.normalize();
        // The wide accumulator is *more* accurate; compare loosely.
        let tol = 1e-6 * vals.iter().map(|(a, b)| (a * b).abs()).sum::<f64>().max(1.0);
        prop_assert!((got - reference).abs() <= tol, "{got} vs {reference}");
    }

    #[test]
    fn simulated_gemm_matches_reference(seed in any::<u64>(), bm in 1usize..=4,
                                        bk in 1usize..=4, bn in 1usize..=4) {
        // Random multiples of nr=4 in every dimension.
        let (m, k, n) = (4 * bm, 4 * bk.max(2), 4 * bn);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let c0 = Matrix::random(m, n, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let report = GemmWorkload::new(a.clone(), b.clone(), c0.clone()).run(&mut lac).unwrap();
        let Details::Gemm { c } = report.details else { panic!("gemm reports C") };
        let mut expect = c0;
        gemm(&a, &b, &mut expect);
        prop_assert!(max_abs_diff(&c, &expect) < 1e-10);
    }
}
