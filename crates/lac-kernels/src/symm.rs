//! SYMM on the LAC (§5.1): `C := C + A·B` with symmetric `A` stored in its
//! lower triangle.
//!
//! "This operation is like GEMM with the difference that only the lower
//! triangular part of matrix A is stored. Hence, to perform this operation,
//! some blocks of A need to be transposed to recover the upper triangular
//! part." On the LAC the transposition is the same diagonal-bus trick as
//! SYRK (§5.2); in this driver the recovered block `A(i,j) = A(j,i)ᵀ` is
//! produced by the staging address generators when packing the operand for
//! each GEMM panel, and the arithmetic runs on the simulated core.

use crate::gemm::{gemm_update, GemmParams};
use lac_sim::{ExecStats, Lac, SimError};
use linalg_ref::Matrix;

/// `C := C + A·B` with `A (K×K)` symmetric (lower stored), `B (K×W)`.
pub(crate) fn blocked_symm_run(
    lac: &mut Lac,
    a_lower: &Matrix,
    b: &Matrix,
    c0: &Matrix,
) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let kk = a_lower.rows();
    assert_eq!(a_lower.cols(), kk);
    assert!(kk.is_multiple_of(nr));
    let w = b.cols();
    assert!(w.is_multiple_of(nr));
    assert_eq!(b.rows(), kk);
    assert_eq!((c0.rows(), c0.cols()), (kk, w));
    let mut out = c0.clone();
    let mut total = ExecStats::default();
    let k = kk / nr;

    // Recover each full row panel of A from the stored lower triangle:
    // A(i, j) for j ≤ i comes straight from storage; for j > i it is the
    // transpose of the stored block A(j, i).
    for i in 0..k {
        let r0 = i * nr;
        let a_row = Matrix::from_fn(nr, kk, |r, cidx| {
            let (gi, gj) = (r0 + r, cidx);
            if gi >= gj {
                a_lower[(gi, gj)]
            } else {
                a_lower[(gj, gi)] // transposed block (diagonal-bus trick)
            }
        });
        let params = GemmParams {
            mc: nr,
            kc: kk,
            n: w,
            overlap: kk >= 2 * nr,
            negate: false,
        };
        let (panel, stats) = gemm_update(lac, &a_row, b, &out.block(r0, 0, nr, w), &params)?;
        total.merge(&stats);
        out.set_block(r0, 0, &panel);
    }
    Ok((out, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{max_abs_diff, symm, Side, Triangle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blocked_symm_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(kk, w) in &[(8usize, 8usize), (16, 12)] {
            let a = Matrix::random(kk, kk, &mut rng).tril();
            let b = Matrix::random(kk, w, &mut rng);
            let c0 = Matrix::random(kk, w, &mut rng);
            let mut lac = Lac::new(LacConfig::default());
            let (got, _) = blocked_symm_run(&mut lac, &a, &b, &c0).unwrap();
            let mut expect = c0;
            symm(Side::Left, Triangle::Lower, &a, &b, &mut expect);
            assert!(max_abs_diff(&got, &expect) < 1e-10, "kk={kk} w={w}");
        }
    }

    #[test]
    fn symmetric_input_gives_symmetric_quadratic_form() {
        // xᵀ(A·x) must equal (A·x)ᵀx — trivially true, but also A·B with
        // B = I returns the symmetrized A.
        let mut rng = StdRng::seed_from_u64(2);
        let kk = 8;
        let a = Matrix::random(kk, kk, &mut rng).tril();
        let id = Matrix::identity(kk);
        let zero = Matrix::zeros(kk, kk);
        let mut lac = Lac::new(LacConfig::default());
        let (got, _) = blocked_symm_run(&mut lac, &a, &id, &zero).unwrap();
        let expect = a.symmetrize_from_lower();
        assert!(max_abs_diff(&got, &expect) < 1e-12);
    }
}
