//! Householder QR panel factorization driven by the LAC's vector-norm
//! kernel (§6.1.3).
//!
//! "The overall mapping of QR factorization to the LAC is similar to that of
//! LU" — the distinguishing inner kernel is the **Householder vector**
//! computation: a vector norm (whose safe evaluation is what the §A.2
//! exponent extension buys), a reciprocal scale, and a `τ` update
//! (Table 6.1's efficient form). This driver computes every reflector's
//! norm on the simulated core with the selected extension options and
//! assembles the factorization, so the per-column cycle/energy cost of each
//! architecture option is measured end-to-end.

use crate::vecnorm::{vecnorm, VnormOptions};
use crate::workload::QrDetails;
use lac_sim::{ExecStats, Lac, SimError};
use linalg_ref::householder::HouseholderReflector;
use linalg_ref::Matrix;

/// Factor an `m × n` panel (`m` a multiple of `4·2` so the norm kernel's
/// column split works; `m ≥ n`). Vector norms run on the simulated LAC;
/// reflector application is the GEMM-class update the other kernels cover.
/// Returns `R`, the reflectors and the summed counters of the norm runs.
pub(crate) fn qr_panel_run(
    lac: &mut Lac,
    a: &Matrix,
    opts: &VnormOptions,
) -> Result<(QrDetails, ExecStats), SimError> {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n);
    let mut work = a.clone();
    let mut reflectors = Vec::with_capacity(n);
    let mut total = ExecStats::default();

    for kcol in 0..n {
        let alpha1 = work[(kcol, kcol)];
        let tail: Vec<f64> = (kcol + 1..m).map(|i| work[(i, kcol)]).collect();

        // ‖a21‖ on the LAC (padded to the kernel's K = k·nr, k even shape).
        let chi2 = if tail.iter().all(|v| *v == 0.0) {
            0.0
        } else {
            let k = (tail.len().div_ceil(8)).max(1) * 2; // k even
            let mut padded = tail.clone();
            padded.resize(k * 4, 0.0);
            let (norm, stats) = vecnorm(lac, &padded, opts)?;
            total.merge(&stats);
            norm
        };

        // Table 6.1 (right column): the efficient computation.
        let h = if chi2 == 0.0 {
            HouseholderReflector {
                u2: vec![0.0; tail.len()],
                tau: f64::INFINITY,
                rho: alpha1,
            }
        } else {
            let alpha = (alpha1 * alpha1 + chi2 * chi2).sqrt();
            let rho = -alpha1.signum() * alpha;
            let nu1 = alpha1 - rho;
            let u2: Vec<f64> = tail.iter().map(|v| v / nu1).collect();
            let chi2s = chi2 / nu1.abs();
            HouseholderReflector {
                u2,
                tau: (1.0 + chi2s * chi2s) / 2.0,
                rho,
            }
        };

        // Apply to the panel (the rank-1 update the LAC runs as in LU S4).
        work[(kcol, kcol)] = h.rho;
        for i in kcol + 1..m {
            work[(i, kcol)] = 0.0;
        }
        for j in kcol + 1..n {
            let mut head = work[(kcol, j)];
            let mut tail_j: Vec<f64> = (kcol + 1..m).map(|i| work[(i, j)]).collect();
            h.apply(&mut head, &mut tail_j);
            work[(kcol, j)] = head;
            for (off, v) in tail_j.iter().enumerate() {
                work[(kcol + 1 + off, j)] = *v;
            }
        }
        reflectors.push(h);
    }
    let r = work.block(0, 0, n, n).triu();
    Ok((QrDetails { r, reflectors }, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_fpu::FpuConfig;
    use lac_sim::LacConfig;
    use linalg_ref::{max_abs_diff, qr_householder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(exp_ext: bool) -> LacConfig {
        LacConfig {
            fpu: FpuConfig {
                exponent_extension: exp_ext,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn r_matches_reference_qr() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, n) in &[(16usize, 4usize), (24, 6)] {
            let a = Matrix::random(m, n, &mut rng);
            let mut lac = Lac::new(cfg(true));
            let opts = VnormOptions {
                exponent_extension: true,
                comparator: false,
            };
            let (qr, stats) = qr_panel_run(&mut lac, &a, &opts).unwrap();
            let reference = qr_householder(&a);
            assert!(max_abs_diff(&qr.r, &reference.r) < 1e-8, "({m},{n})");
            assert!(stats.sfu_ops >= n as u64, "one sqrt per column at least");
        }
    }

    #[test]
    fn extension_options_same_result_different_cycles() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random(16, 4, &mut rng);
        let run = |exp_ext: bool, comparator: bool| {
            let mut lac = Lac::new(cfg(exp_ext));
            let opts = VnormOptions {
                exponent_extension: exp_ext,
                comparator,
            };
            qr_panel_run(&mut lac, &a, &opts).unwrap()
        };
        let (fast, fast_stats) = run(true, false);
        let (mid, mid_stats) = run(false, true);
        let (slow, slow_stats) = run(false, false);
        assert!(max_abs_diff(&fast.r, &mid.r) < 1e-9);
        assert!(max_abs_diff(&fast.r, &slow.r) < 1e-9);
        assert!(fast_stats.cycles < mid_stats.cycles);
        assert!(mid_stats.cycles < slow_stats.cycles);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // column assembly by index
    fn orthogonality_of_assembled_q() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(16, 4, &mut rng);
        let mut lac = Lac::new(cfg(true));
        let opts = VnormOptions {
            exponent_extension: true,
            comparator: false,
        };
        let (rep, _) = qr_panel_run(&mut lac, &a, &opts).unwrap();
        // Verify A ≈ Q·R by applying the reflectors to R-extended columns.
        let m = 16;
        let mut qr_prod = Matrix::zeros(m, 4);
        for j in 0..4 {
            let mut v = vec![0.0; m];
            for i in 0..=j {
                v[i] = rep.r[(i, j)];
            }
            for (kcol, h) in rep.reflectors.iter().enumerate().rev() {
                let (head, tail) = v[kcol..].split_at_mut(1);
                h.apply(&mut head[0], tail);
            }
            for i in 0..m {
                qr_prod[(i, j)] = v[i];
            }
        }
        assert!(max_abs_diff(&qr_prod, &a) < 1e-9);
    }
}
