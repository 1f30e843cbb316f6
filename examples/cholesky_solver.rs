//! Solve a symmetric positive-definite system on the accelerator — the
//! workload Chapter 6 motivates (the compute core of Kalman filters,
//! least-squares and finite-element solvers).
//!
//! The blocked Cholesky workload runs the full Chol→TRSM→SYRK decomposition
//! of Figure 6.1's algorithm-by-blocks on one `Lac` core; the
//! triangular solves then reuse the reference substrate (they are
//! memory-bound level-2 work the host keeps, per the §1.2.2 programming
//! model).
//!
//! ```sh
//! cargo run --release --example cholesky_solver
//! ```

use lap::lac_kernels::{BlockedCholWorkload, Details, Workload};
use lap::lac_power::{EnergyModel, SessionEnergy};
use lap::lac_sim::{Lac, LacConfig};
use lap::linalg_ref::{blas2, Matrix};

fn main() {
    // A discrete 1D Laplacian plus mass term: the SPD stiffness system of a
    // 24-node elastic chain.
    let n = 24;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 2.5;
        if i > 0 {
            a[(i, i - 1)] = -1.0;
            a[(i - 1, i)] = -1.0;
        }
    }
    // Right-hand side: a point load in the middle.
    let mut f = vec![0.0; n];
    f[n / 2] = 1.0;

    // Factor on the LAC; the core meters the session.
    let mut lac = Lac::new(LacConfig::default());
    let workload = BlockedCholWorkload::new(a.clone());
    let report = workload.run(&mut lac).expect("SPD factorization");
    workload
        .check(&report)
        .expect("factor agrees with linalg-ref");
    let Details::Cholesky { l } = &report.details else {
        unreachable!("chol reports L")
    };

    // Forward/backward substitution on the host (level-2, memory-bound).
    let mut y = f.clone();
    blas2::trsv(l, &mut y);
    // Lᵀ x = y
    let lt = l.transpose();
    let mut x = y.clone();
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= lt[(i, j)] * x[j];
        }
        x[i] = s / lt[(i, i)];
    }

    // Residual check: ‖A x − f‖∞.
    let mut resid = vec![0.0; n];
    blas2::gemv(1.0, &a, false, &x, 0.0, &mut resid);
    let err = resid
        .iter()
        .zip(&f)
        .map(|(r, b)| (r - b).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-10, "residual {err}");

    let stats = lac.session_stats();
    let energy = lac.energy_summary(&EnergyModel::lac_default());
    println!("Cholesky solve of a {n}-node stiffness system on the LAC");
    println!("  factorization cycles : {}", stats.cycles);
    println!(
        "  MACs / rsqrt ops     : {} / {}",
        stats.mac_ops + stats.fma_ops,
        stats.sfu_ops
    );
    println!(
        "  factorization energy : {:.2} uJ",
        energy.energy_nj / 1000.0
    );
    println!("  displacement at load : {:.6}", x[n / 2]);
    println!("  residual ‖Ax−f‖∞     : {err:.2e}");

    // Sanity of physics: displacement is maximal at the load point.
    let max_idx = x
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(max_idx, n / 2, "peak displacement under the load");
    println!("  peak displacement under the load: OK");
}
