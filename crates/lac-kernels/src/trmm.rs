//! TRMM on the LAC (§5.1): `B := L·B` with lower-triangular `L`.
//!
//! "This operation uses the same block panel multiplication as in GEMM.
//! However, the length of the panels increases in each iteration" — each
//! result row panel `i` is the product of `L`'s row panel (length
//! `(i+1)·nr`) with the original leading rows of `B`. Processing bottom-up
//! keeps every input row panel unmodified until it is consumed, so the whole
//! operation is a sequence of GEMM kernels of growing `kc`.

use crate::gemm::{gemm_update, GemmParams};
use lac_sim::{ExecStats, Lac, SimError};
use linalg_ref::Matrix;

/// `B := L·B` for lower-triangular `L (K×K)` and `B (K×W)`, `K = k·nr`.
/// Returns the product and the summed stats of the GEMM phases.
pub(crate) fn blocked_trmm_run(
    lac: &mut Lac,
    l: &Matrix,
    b0: &Matrix,
) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let kk = l.rows();
    assert_eq!(l.cols(), kk);
    assert!(kk.is_multiple_of(nr));
    let k = kk / nr;
    let w = b0.cols();
    assert!(w.is_multiple_of(nr));
    let mut out = b0.clone();
    let mut total = ExecStats::default();

    // Bottom-up: row panel i reads only original rows 0..=(i+1)·nr of B.
    for i in (0..k).rev() {
        let r0 = i * nr;
        let klen = r0 + nr; // panel length grows with i (the §5.1 point)
        let params = GemmParams {
            mc: nr,
            kc: klen,
            n: w,
            overlap: klen >= 2 * nr,
            negate: false,
        };
        let (panel, stats) = gemm_update(
            lac,
            &l.block(r0, 0, nr, klen),
            &b0.block(0, 0, klen, w),
            &Matrix::zeros(nr, w),
            &params,
        )?;
        total.merge(&stats);
        out.set_block(r0, 0, &panel);
    }
    Ok((out, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{max_abs_diff, trmm, Side, Triangle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blocked_trmm_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(kk, w) in &[(8usize, 8usize), (16, 12), (24, 8)] {
            let l = Matrix::random_lower_triangular(kk, &mut rng);
            let b0 = Matrix::random(kk, w, &mut rng);
            let mut lac = Lac::new(LacConfig::default());
            let (got, stats) = blocked_trmm_run(&mut lac, &l, &b0).unwrap();
            let mut expect = b0;
            trmm(Side::Left, Triangle::Lower, &l, &mut expect);
            assert!(max_abs_diff(&got, &expect) < 1e-10, "kk={kk} w={w}");
            assert!(stats.mac_ops > 0);
        }
    }

    #[test]
    fn panel_length_grows_with_iteration() {
        // Useful MACs should be ~half of a square GEMM of the same size
        // (the triangular profile).
        let mut rng = StdRng::seed_from_u64(2);
        let kk = 16;
        let l = Matrix::random_lower_triangular(kk, &mut rng);
        let b0 = Matrix::random(kk, 8, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let (_, stats) = blocked_trmm_run(&mut lac, &l, &b0).unwrap();
        let full = (kk * kk * 8) as u64;
        assert!(stats.mac_ops < full, "triangular profile saves MACs");
        assert!(stats.mac_ops > full / 2, "but more than half remain");
    }
}
