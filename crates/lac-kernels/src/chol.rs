//! Cholesky factorization on the LAC (§6.1.1, Figure 6.1).
//!
//! The `nr × nr` kernel holds the (symmetrized) tile in the PE registers.
//! Each iteration: the diagonal PE computes `1/√λ` on the special-function
//! unit, the result is broadcast along its row *and* column to scale them,
//! and a rank-1 downdate of the trailing tile follows — `2p` FPU passes plus
//! one SFU pass per iteration, exactly the dependency chain the paper counts
//! as `2p(nr−1) + q·nr` cycles.
//!
//! `blocked_cholesky_run` composes it with the stacked TRSM and negated
//! SYRK kernels into the right-looking blocked algorithm (Chol → TRSM →
//! SYRK) the dissertation maps across the memory hierarchy.

use crate::syrk::{syrk_update, SyrkParams};
use crate::trsm::trsm_stacked;
use lac_fpu::DivSqrtOp;
use lac_sim::{ExecStats, ExtOp, ExternalMem, Lac, ProgramBuilder, SimError, Source};
use linalg_ref::Matrix;

const REG_A: usize = 3;

/// Factor an `nr × nr` SPD tile on `lac`. The image holds the full tile
/// column-major at offset 0 (only the lower triangle is significant),
/// where the kernel leaves `L`; returns `L` (zeros above the diagonal),
/// with `A = L·Lᵀ`, and the run's counters.
pub(crate) fn cholesky_tile(lac: &mut Lac, a: &Matrix) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    let q = lac.config().divsqrt.latency(DivSqrtOp::InvSqrt);
    let mut mem = ExternalMem::from_vec(a.as_slice().to_vec());
    let stats = lac.run_kernel(
        "chol",
        &[nr as u64, p as u64, q as u64],
        || cholesky_kernel_program(nr, p, q),
        &mut mem,
    )?;
    let n = a.rows();
    let l = Matrix::from_fn(n, n, |i, j| if i >= j { mem.read(j * n + i) } else { 0.0 });
    Ok((l, stats))
}

/// The `nr × nr` Cholesky microprogram — a pure function of the shape
/// (mesh size, FPU depth `p`, inverse-square-root latency `q`).
pub(crate) fn cholesky_kernel_program(nr: usize, p: usize, q: usize) -> lac_sim::Program {
    let addr = |i: usize, j: usize| if i >= j { j * nr + i } else { i * nr + j };

    let mut b = ProgramBuilder::new(nr);

    // Stage the tile (symmetrized) into register REG_A of every PE.
    for i in 0..nr {
        let step = b.push_step();
        for c in 0..nr {
            b.ext(
                step,
                ExtOp::Load {
                    col: c,
                    addr: addr(i, c),
                },
            );
            b.pe_mut(step, i, c).reg_write = Some((REG_A, Source::ColBus));
        }
    }

    for i in 0..nr {
        // S1: inverse square root of the pivot.
        let step = b.push_step();
        b.pe_mut(step, i, i).sfu =
            Some((DivSqrtOp::InvSqrt, Source::Reg(REG_A), Source::Const(0.0)));
        b.idle(q);

        // S2: broadcast 1/√λ along row i and column i; scale both (and the
        // pivot itself becomes √λ = λ·(1/√λ)).
        let step = b.push_step();
        b.pe_mut(step, i, i).row_write = Some(Source::SfuResult);
        b.pe_mut(step, i, i).col_write = Some(Source::SfuResult);
        for j in 0..nr {
            if j >= i {
                b.pe_mut(step, i, j).fma =
                    Some((Source::RowBus, Source::Reg(REG_A), Source::Const(0.0)));
            }
            if j > i {
                b.pe_mut(step, j, i).fma =
                    Some((Source::ColBus, Source::Reg(REG_A), Source::Const(0.0)));
            }
        }
        b.idle(p - 1);
        let step = b.push_step();
        for j in 0..nr {
            if j >= i {
                b.pe_mut(step, i, j).reg_write = Some((REG_A, Source::MacResult));
            }
            if j > i {
                b.pe_mut(step, j, i).reg_write = Some((REG_A, Source::MacResult));
            }
        }

        // S3: rank-1 downdate of the trailing tile.
        if i + 1 < nr {
            let step = b.push_step();
            for r in i + 1..nr {
                b.pe_mut(step, r, i).row_write = Some(Source::Reg(REG_A));
                b.pe_mut(step, i, r).col_write = Some(Source::Reg(REG_A));
            }
            for r in i + 1..nr {
                for c in i + 1..nr {
                    let mut pe = b.pe_mut(step, r, c);
                    pe.fma = Some((Source::RowBus, Source::ColBus, Source::Reg(REG_A)));
                    pe.negate_product = true;
                }
            }
            b.idle(p - 1);
            let step = b.push_step();
            for r in i + 1..nr {
                for c in i + 1..nr {
                    b.pe_mut(step, r, c).reg_write = Some((REG_A, Source::MacResult));
                }
            }
        }
    }

    // Stream out the lower triangle.
    for s in 0..nr {
        let step = b.push_step();
        for c in 0..=s {
            b.pe_mut(step, s, c).col_write = Some(Source::Reg(REG_A));
            b.ext(
                step,
                ExtOp::Store {
                    col: c,
                    addr: c * nr + s,
                },
            );
        }
    }

    b.build()
}

/// Blocked right-looking Cholesky of a `K × K` SPD matrix (`K = k·nr`):
/// per iteration, factor the diagonal tile on the LAC, solve the
/// sub-diagonal panel with the stacked TRSM kernel, and downdate the
/// trailing matrix with the negated SYRK kernel. Returns `L` (lower) and the
/// summed stats.
pub(crate) fn blocked_cholesky_run(
    lac: &mut Lac,
    a: &Matrix,
) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let kk = a.rows();
    assert_eq!(a.cols(), kk);
    assert!(kk.is_multiple_of(nr));
    let k = kk / nr;
    let mut work = a.clone();
    let mut total = ExecStats::default();

    for it in 0..k {
        let r0 = it * nr;
        // 1. Diagonal tile.
        let (l11, stats) = cholesky_tile(lac, &work.block(r0, r0, nr, nr))?;
        total.merge(&stats);
        work.set_block(r0, r0, &l11);

        let rest = kk - r0 - nr;
        if rest == 0 {
            break;
        }
        // 2. Panel solve: A21 := A21·L11⁻ᵀ  ⇔  L11·X = A21ᵀ.
        let a21t = work.block(r0 + nr, r0, rest, nr).transpose();
        let (x, stats) = trsm_stacked(lac, &l11, &a21t)?;
        total.merge(&stats);
        let l21 = x.transpose();
        work.set_block(r0 + nr, r0, &l21);

        // 3. Trailing downdate: A22 -= L21·L21ᵀ (negated SYRK).
        let params = SyrkParams {
            mc: rest,
            kc: nr,
            negate: true,
        };
        let a22 = work.block(r0 + nr, r0 + nr, rest, rest);
        let (updated, stats) = syrk_update(lac, &l21, &a22, &params)?;
        total.merge(&stats);
        work.set_block(r0 + nr, r0 + nr, &updated.symmetrize_from_lower());
    }
    Ok((work.tril(), total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{cholesky, max_abs_diff};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_factors_4x4() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_spd(4, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let (got, _) = cholesky_tile(&mut lac, &a).unwrap();
        let expect = cholesky(&a).unwrap();
        assert!(max_abs_diff(&got, &expect) < 1e-9, "{got:?} vs {expect:?}");
    }

    #[test]
    fn kernel_cycle_count_matches_dependency_model() {
        // nr iterations of (SFU + 2 FPU passes) plus staging — the §6.1.1
        // estimate 2p(nr−1) + q·nr within a small constant factor.
        let cfg = LacConfig::default();
        let p = cfg.fpu.pipeline_depth;
        let q = cfg.divsqrt.latency(DivSqrtOp::InvSqrt);
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random_spd(4, &mut rng);
        let mut lac = Lac::new(cfg);
        let (_, stats) = cholesky_tile(&mut lac, &a).unwrap();
        let model = (2 * p * 4 + q * 4 + 2 * 4 + 8) as u64; // + staging & handshakes
        assert!(
            stats.cycles <= model + 20,
            "cycles {} vs model {model}",
            stats.cycles
        );
    }

    #[test]
    fn blocked_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for &kk in &[4usize, 8, 16] {
            let a = Matrix::random_spd(kk, &mut rng);
            let mut lac = Lac::new(LacConfig::default());
            let (l, stats) = blocked_cholesky_run(&mut lac, &a).unwrap();
            let expect = cholesky(&a).unwrap();
            assert!(max_abs_diff(&l, &expect) < 1e-7, "kk={kk}");
            assert!(stats.sfu_ops >= (kk as u64), "one rsqrt per column");
        }
    }
}
