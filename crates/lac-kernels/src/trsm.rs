//! TRSM on the LAC (§5.3): solve `L X = B` with `L` lower-triangular.
//!
//! The `nr × nr` diagonal solve is the latency-bound part: every iteration
//! needs a reciprocal, a scaled row, and a rank-1 update, each dependent on
//! the last. `trsm_stacked_run` implements the *stacked* schedule of
//! Figure 5.5 — `m = W/nr` independent right-hand-side tiles are pushed
//! through the MAC pipelines back to back, so the scale of tile `s+p` issues
//! while tile `s` retires and the FPU stages stay full.
//!
//! `blocked_trsm_run` is the Figure 5.7 driver: each row panel is first
//! updated with a (negated) GEMM against the already-solved panels, then
//! solved with the stacked kernel.

use crate::gemm::{gemm_run, GemmParams};
use crate::layout::GemmDataLayout;
use lac_fpu::DivSqrtOp;
use lac_sim::{ExecStats, ExtOp, ExternalMem, Lac, ProgramBuilder, SimError, Source};
use linalg_ref::Matrix;

/// Report of a TRSM run.
#[derive(Clone, Debug)]
pub struct TrsmReport {
    /// Event counters of the run.
    pub stats: ExecStats,
    /// Useful MACs: `W · nr(nr+1)/2` plus the scale multiplies.
    pub useful_macs: u64,
    /// Utilization against peak over the run.
    pub utilization: f64,
}

const REG_L: usize = 2;

/// Solve `L X = B` for an `nr × nr` lower-triangular `L` and an `nr × W`
/// panel `B` (W a multiple of nr), overwriting `B` in external memory.
///
/// Memory layout: `L` column-major at offset 0 (`nr × nr`), `B` column-major
/// at offset `nr²`.
pub(crate) fn trsm_stacked_run(
    lac: &mut Lac,
    mem: &mut ExternalMem,
    w: usize,
) -> Result<TrsmReport, SimError> {
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    let q = lac.config().divsqrt.latency(DivSqrtOp::Reciprocal);
    assert!(w.is_multiple_of(nr) && w > 0);
    let m = w / nr; // stacked tiles
    assert!(
        m <= lac.config().sram_b_words,
        "B panel too large for B memory"
    );
    let prog = crate::memo::program(
        "trsm-stacked",
        &[nr as u64, p as u64, q as u64, m as u64],
        || trsm_stacked_program(nr, p, q, m),
    );
    let stats = lac.run(&prog, mem)?;
    // scale multiplies (nr·W) + rank-1 update MACs (W·nr(nr-1)/2)
    let useful = (nr * w + w * nr * (nr - 1) / 2) as u64;
    Ok(TrsmReport {
        stats,
        useful_macs: useful,
        utilization: useful as f64 / (stats.cycles as f64 * (nr * nr) as f64),
    })
}

/// The stacked-TRSM microprogram — a pure function of the shape (mesh
/// size, FPU depth `p`, reciprocal latency `q`, stacked tile count `m`).
pub(crate) fn trsm_stacked_program(nr: usize, p: usize, q: usize, m: usize) -> lac_sim::Program {
    let l_addr = |i: usize, j: usize| j * nr + i;
    let b_addr = |i: usize, j: usize| nr * nr + j * nr + i;

    let mut b = ProgramBuilder::new(nr);

    // ---- stage L into registers and B into the B memories -----------------
    for i in 0..nr {
        let step = b.push_step();
        for c in 0..nr {
            b.ext(
                step,
                ExtOp::Load {
                    col: c,
                    addr: l_addr(i, c),
                },
            );
            b.pe_mut(step, i, c).reg_write = Some((REG_L, Source::ColBus));
        }
    }
    for t in 0..m * nr {
        let step = b.push_step();
        let s = t / nr;
        let i = t % nr;
        for c in 0..nr {
            b.ext(
                step,
                ExtOp::Load {
                    col: c,
                    addr: b_addr(i, s * nr + c),
                },
            );
            b.pe_mut(step, i, c).sram_b_write = Some((s, Source::ColBus));
        }
    }

    // ---- iterations --------------------------------------------------------
    for i in 0..nr {
        // S1: reciprocal of the diagonal element.
        let step = b.push_step();
        b.pe_mut(step, i, i).sfu = Some((
            DivSqrtOp::Reciprocal,
            Source::Reg(REG_L),
            Source::Const(0.0),
        ));
        b.idle(q);

        // S2 + S3 fused window: scale issues at w0+s, retires (and feeds the
        // rank-1 update) at w0+s+p; the update retires at w0+s+2p.
        let w0 = b.len();
        for _ in 0..m + 2 * p {
            b.push_step();
        }
        for s in 0..m {
            // scale issue
            {
                let step = w0 + s;
                b.pe_mut(step, i, i).row_write = Some(Source::SfuResult);
                for j in 0..nr {
                    let pe = b.pe_mut(step, i, j);
                    pe.fma = Some((Source::RowBus, Source::SramB(s), Source::Const(0.0)));
                }
            }
            // scale retire → write back + column broadcast; update issue
            {
                let step = w0 + s + p;
                for j in 0..nr {
                    let pe = b.pe_mut(step, i, j);
                    pe.sram_b_write = Some((s, Source::MacResult));
                    pe.col_write = Some(Source::MacResult);
                }
                for r in i + 1..nr {
                    b.pe_mut(step, r, i).row_write = Some(Source::Reg(REG_L));
                    for j in 0..nr {
                        let pe = b.pe_mut(step, r, j);
                        pe.fma = Some((Source::RowBus, Source::ColBus, Source::SramB(s)));
                        pe.negate_product = true;
                    }
                }
            }
            // update retire
            if i + 1 < nr {
                let step = w0 + s + 2 * p;
                for r in i + 1..nr {
                    for j in 0..nr {
                        b.pe_mut(step, r, j).sram_b_write = Some((s, Source::MacResult));
                    }
                }
            }
        }
    }

    // ---- stream the solved panel back --------------------------------------
    for t in 0..m * nr {
        let step = b.push_step();
        let s = t / nr;
        let i = t % nr;
        for c in 0..nr {
            b.pe_mut(step, i, c).col_write = Some(Source::SramB(s));
            b.ext(
                step,
                ExtOp::Store {
                    col: c,
                    addr: b_addr(i, s * nr + c),
                },
            );
        }
    }

    b.build()
}

/// Blocked TRSM (Figure 5.7): solve `L X = B` for `L` lower-triangular
/// `K × K` (`K = k·nr`) and `B` of size `K × W`, as alternating GEMM updates
/// and stacked diagonal solves. Returns the solution and the summed stats of
/// all phases.
///
/// The driver stages each phase's operands into the kernel layouts
/// (modelling the flexible address generators of the PE controllers) and
/// accounts every staged cycle.
pub(crate) fn blocked_trsm_run(
    lac: &mut Lac,
    l: &Matrix,
    b0: &Matrix,
) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let kk = l.rows();
    assert_eq!(l.cols(), kk);
    assert!(
        kk.is_multiple_of(nr),
        "L dimension must be a multiple of nr"
    );
    let k = kk / nr;
    let w = b0.cols();
    assert!(w.is_multiple_of(nr));
    let mut x = b0.clone();
    let mut total = ExecStats::default();

    for it in 0..k {
        let r0 = it * nr;
        // GEMM update: B_it -= L(it, 0..it) · X(0..it, :)
        if it > 0 {
            let a_blk = l.block(r0, 0, nr, r0); // nr × (it·nr)
            let bsrc = x.block(0, 0, r0, w); // (it·nr) × W
            let cdst = x.block(r0, 0, nr, w); // nr × W
            let lay = GemmDataLayout::new(nr, r0, w);
            let mut mem = ExternalMem::from_vec(lay.pack(&a_blk, &bsrc, &cdst));
            let params = GemmParams {
                mc: nr,
                kc: r0,
                n: w,
                overlap: r0 >= 2 * nr,
                negate: true,
            };
            let rep = gemm_run(lac, &mut mem, &lay, &params)?;
            total.merge(&rep.stats);
            x.set_block(r0, 0, &lay.unpack_c(mem.as_slice()));
        }
        // Diagonal solve on the updated row panel.
        let l11 = l.block(r0, r0, nr, nr);
        let panel = x.block(r0, 0, nr, w);
        let mut mem = vec![0.0; nr * nr + nr * w];
        for j in 0..nr {
            for i in 0..nr {
                mem[j * nr + i] = l11[(i, j)];
            }
        }
        for j in 0..w {
            for i in 0..nr {
                mem[nr * nr + j * nr + i] = panel[(i, j)];
            }
        }
        let mut emem = ExternalMem::from_vec(mem);
        let rep = trsm_stacked_run(lac, &mut emem, w)?;
        total.merge(&rep.stats);
        let solved = Matrix::from_fn(nr, w, |i, j| emem.read(nr * nr + j * nr + i));
        x.set_block(r0, 0, &solved);
    }
    Ok((x, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{max_abs_diff, trsm, Side, Triangle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stacked_case(w: usize, seed: u64) -> (Matrix, Matrix, TrsmReport) {
        let nr = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let l = Matrix::random_lower_triangular(nr, &mut rng);
        let b0 = Matrix::random(nr, w, &mut rng);
        let mut mem = vec![0.0; nr * nr + nr * w];
        for j in 0..nr {
            for i in 0..nr {
                mem[j * nr + i] = l[(i, j)];
            }
        }
        for j in 0..w {
            for i in 0..nr {
                mem[nr * nr + j * nr + i] = b0[(i, j)];
            }
        }
        let mut emem = ExternalMem::from_vec(mem);
        let mut lac = Lac::new(LacConfig::default());
        let rep = trsm_stacked_run(&mut lac, &mut emem, w).unwrap();
        let got = Matrix::from_fn(nr, w, |i, j| emem.read(nr * nr + j * nr + i));
        let mut expect = b0;
        trsm(Side::Left, Triangle::Lower, &l, &mut expect);
        (got, expect, rep)
    }

    #[test]
    fn single_tile_solve() {
        let (got, expect, _) = stacked_case(4, 1);
        assert!(max_abs_diff(&got, &expect) < 1e-9, "{got:?} vs {expect:?}");
    }

    #[test]
    fn stacked_many_tiles() {
        let (got, expect, rep) = stacked_case(32, 2);
        assert!(max_abs_diff(&got, &expect) < 1e-9);
        assert!(rep.stats.sfu_ops == 4, "one reciprocal per iteration");
    }

    #[test]
    fn stacking_amortizes_latency() {
        // Cycles grow far slower than W: the pipeline absorbs the extra
        // tiles (Figure 5.5's point).
        let (_, _, r1) = stacked_case(4, 3);
        let (_, _, r8) = stacked_case(32, 3);
        let per_tile_1 = r1.stats.cycles as f64 / 1.0;
        let per_tile_8 = r8.stats.cycles as f64 / 8.0;
        assert!(
            per_tile_8 < per_tile_1 / 2.0,
            "stacked: {per_tile_8:.1} cyc/tile vs single {per_tile_1:.1}"
        );
    }

    #[test]
    fn blocked_trsm_matches_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        for &(kk, w) in &[(8usize, 8usize), (16, 16), (12, 24)] {
            let l = Matrix::random_lower_triangular(kk, &mut rng);
            let b0 = Matrix::random(kk, w, &mut rng);
            let mut lac = Lac::new(LacConfig::default());
            let (x, stats) = blocked_trsm_run(&mut lac, &l, &b0).unwrap();
            let mut expect = b0;
            trsm(Side::Left, Triangle::Lower, &l, &mut expect);
            assert!(max_abs_diff(&x, &expect) < 1e-8, "kk={kk} w={w}");
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn utilization_reported() {
        let (_, _, rep) = stacked_case(64, 5);
        assert!(rep.utilization > 0.05 && rep.utilization < 1.0);
    }
}
