//! LU factorization with partial pivoting on the LAC (§6.1.2, Figure 6.2).
//!
//! Factors a `K × nr` panel (`K = k·nr`) held in the dual-ported B memories
//! (read-modify-write every cycle — the reason the paper makes that memory
//! dual-ported). Each iteration runs the four steps of Figure 6.2:
//!
//! * **S1** pivot search — local comparator scans in each column-PE, then a
//!   cross-PE reduction over the column bus. With the §A.2 comparator
//!   extension a compare retires every cycle; without it each compare is a
//!   full FPU pass (`p` cycles), which is exactly the efficiency gap
//!   Figure 6.7 plots.
//! * **S2** row interchange over the column buses, with the pivot value
//!   concurrently routed to the reciprocal unit.
//! * **S3** scale the pivot column by `1/pivot`.
//! * **S4** rank-1 downdate of the trailing columns.
//!
//! The pivot *index* is data-dependent, so this kernel is a co-simulation
//! driver: it runs the search phase, reads the comparator registers (as the
//! hardware sequencer would), and emits the next phase — every cycle and bus
//! transfer is still paid through the simulator.

use crate::gemm::{gemm_update, GemmParams};
use crate::trsm::trsm_stacked;
use lac_fpu::DivSqrtOp;
use lac_sim::{CmpUpdate, ExecStats, ExtOp, ExternalMem, Lac, ProgramBuilder, SimError, Source};
use linalg_ref::Matrix;

/// Architecture options for the LU kernel (the Table A.2 axes).
#[derive(Clone, Copy, Debug)]
pub struct LuOptions {
    /// §A.2 comparator extension present (1 compare/cycle vs 1 per `p`).
    pub comparator: bool,
}

impl Default for LuOptions {
    fn default() -> Self {
        Self { comparator: true }
    }
}

const REG_SWAP: usize = 0;
const REG_U: usize = 1;
const REG_PIV_VAL: usize = 2;
const REG_PIV_TAG: usize = 3;

/// Factor a `K × nr` panel (`K = k·nr`) on `lac`, returning the packed
/// `L\U` factors (LAPACK-style), the pivot row of each iteration, and the
/// summed counters of every phase. The image holds the panel column-major
/// at offset 0 (`addr = j·K + i`), where the last phase streams `L\U` back.
pub(crate) fn lu_panel_matrix_run(
    lac: &mut Lac,
    a: &Matrix,
    opts: &LuOptions,
) -> Result<(Matrix, Vec<usize>, ExecStats), SimError> {
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    let q = lac.config().divsqrt.latency(DivSqrtOp::Reciprocal);
    assert_eq!(a.cols(), nr);
    assert!(a.rows().is_multiple_of(nr));
    let k = a.rows() / nr;
    let kk = a.rows();
    assert!(
        k <= lac.config().sram_b_words,
        "panel too tall for B memory"
    );
    let mem = &mut ExternalMem::from_vec(a.as_slice().to_vec());
    let ext_addr = |i: usize, j: usize| j * kk + i;
    let mut total = ExecStats::default();
    let mut pivots = Vec::with_capacity(nr);

    // ---- stage the panel into the B memories ------------------------------
    {
        let mut b = ProgramBuilder::new(nr);
        for i in 0..kk {
            let step = b.push_step();
            for c in 0..nr {
                b.ext(
                    step,
                    ExtOp::Load {
                        col: c,
                        addr: ext_addr(i, c),
                    },
                );
                b.pe_mut(step, i % nr, c).sram_b_write = Some((i / nr, Source::ColBus));
            }
        }
        total.merge(&lac.run(&b.build(), mem)?);
    }

    for jj in 0..nr {
        // ---- S1: local pivot scan in column jj ----------------------------
        {
            let mut b = ProgramBuilder::new(nr);
            let t0 = b.push_step();
            for r in 0..nr {
                b.pe_mut(t0, r, jj).reg_write = Some((REG_PIV_VAL, Source::Const(0.0)));
            }
            let t1 = b.push_step();
            for r in 0..nr {
                b.pe_mut(t1, r, jj).reg_write = Some((REG_PIV_TAG, Source::Const(-1.0)));
            }
            for s in 0..k {
                let step = b.push_step();
                for r in 0..nr {
                    if s * nr + r >= jj {
                        b.pe_mut(step, r, jj).cmp_update = Some(CmpUpdate {
                            value: Source::SramB(s),
                            tag: s as f64,
                            val_reg: REG_PIV_VAL,
                            tag_reg: REG_PIV_TAG,
                        });
                    }
                }
                if !opts.comparator {
                    // Software compare: one FPU pass per element.
                    b.idle(p - 1);
                }
            }
            // Cross-PE reduction: each candidate crosses the column bus once
            // (the sequencer observes the comparator output).
            for r in 0..nr {
                let step = b.push_step();
                b.pe_mut(step, r, jj).col_write = Some(Source::Reg(REG_PIV_VAL));
                if !opts.comparator && r + 1 < nr {
                    b.idle(p - 1);
                }
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }

        // The sequencer reads the comparator registers to pick the winner.
        let mut piv_row = usize::MAX;
        let mut piv_val = 0.0f64;
        for r in 0..nr {
            let v = lac.reg(r, jj, REG_PIV_VAL);
            let tag = lac.reg(r, jj, REG_PIV_TAG);
            if tag >= 0.0 && !lac_fpu::magnitude_ge(piv_val, v) {
                piv_val = v;
                piv_row = tag as usize * nr + r;
            }
        }
        if piv_row == usize::MAX || piv_val == 0.0 {
            // Singular column: mirror the reference's error path by
            // reporting a pivot of the current row and continuing is not
            // meaningful — surface as a simulator-level panic-free error.
            return Err(SimError {
                cycle: total.cycles as usize,
                pe: Some((jj % nr, jj)),
                kind: lac_sim::error::HazardKind::SfuResultEmpty,
            });
        }
        pivots.push(piv_row);

        // ---- S2: row interchange + reciprocal ------------------------------
        {
            let mut b = ProgramBuilder::new(nr);
            let (ri, si) = (jj % nr, jj / nr);
            let (rp, sp) = (piv_row % nr, piv_row / nr);
            if piv_row != jj {
                if ri == rp {
                    // Same PE row: exchange through the register file.
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, ri, j).reg_write = Some((REG_SWAP, Source::SramB(si)));
                    }
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, ri, j).reg_write = Some((REG_U, Source::SramB(sp)));
                    }
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, ri, j).sram_b_write = Some((si, Source::Reg(REG_U)));
                    }
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, ri, j).sram_b_write = Some((sp, Source::Reg(REG_SWAP)));
                    }
                } else {
                    // Different PE rows: exchange over the column buses.
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, ri, j).col_write = Some(Source::SramB(si));
                        b.pe_mut(t, rp, j).reg_write = Some((REG_SWAP, Source::ColBus));
                    }
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, rp, j).col_write = Some(Source::SramB(sp));
                        b.pe_mut(t, ri, j).sram_b_write = Some((si, Source::ColBus));
                    }
                    let t = b.push_step();
                    for j in 0..nr {
                        b.pe_mut(t, rp, j).sram_b_write = Some((sp, Source::Reg(REG_SWAP)));
                    }
                }
            }
            // Reciprocal: pivot (now at row jj) broadcast along its PE row to
            // the diagonal PE (ri, ri), which feeds its SFU.
            let t = b.push_step();
            b.pe_mut(t, ri, jj).row_write = Some(Source::SramB(si));
            b.pe_mut(t, ri, ri).sfu =
                Some((DivSqrtOp::Reciprocal, Source::RowBus, Source::Const(0.0)));
            b.idle(q);
            // Route 1/pivot to the column-jj PEs: row bus to (ri, jj), then
            // down column bus jj.
            let t = b.push_step();
            b.pe_mut(t, ri, ri).row_write = Some(Source::SfuResult);
            b.pe_mut(t, ri, jj).reg_write = Some((REG_U, Source::RowBus));
            let t = b.push_step();
            b.pe_mut(t, ri, jj).col_write = Some(Source::Reg(REG_U));
            for r in 0..nr {
                b.pe_mut(t, r, jj).reg_write = Some((REG_U, Source::ColBus));
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }

        // ---- S3: scale the pivot column below row jj -----------------------
        {
            let mut b = ProgramBuilder::new(nr);
            // Eligible slots per PE row r: global i = s·nr + r > jj.
            let eligible = |r: usize| (0..k).filter(move |s| s * nr + r > jj).collect::<Vec<_>>();
            let maxlen = (0..nr).map(|r| eligible(r).len()).max().unwrap_or(0);
            let w0 = b.len();
            for _ in 0..maxlen + p {
                b.push_step();
            }
            for r in 0..nr {
                for (t, s) in eligible(r).into_iter().enumerate() {
                    b.pe_mut(w0 + t, r, jj).fma =
                        Some((Source::SramB(s), Source::Reg(REG_U), Source::Const(0.0)));
                    b.pe_mut(w0 + t + p, r, jj).sram_b_write = Some((s, Source::MacResult));
                }
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }

        // ---- S4: rank-1 downdate of the trailing columns -------------------
        if jj + 1 < nr {
            let mut b = ProgramBuilder::new(nr);
            let (ri, si) = (jj % nr, jj / nr);
            // Broadcast the pivot row u(jj, c) down each trailing column.
            let t = b.push_step();
            for c in jj + 1..nr {
                b.pe_mut(t, ri, c).col_write = Some(Source::SramB(si));
                for r in 0..nr {
                    b.pe_mut(t, r, c).reg_write = Some((REG_U, Source::ColBus));
                }
            }
            // Stream the multipliers along the row buses; fused downdates.
            let w0 = b.len();
            for _ in 0..k + p {
                b.push_step();
            }
            for s in 0..k {
                for r in 0..nr {
                    if s * nr + r > jj {
                        b.pe_mut(w0 + s, r, jj).row_write = Some(Source::SramB(s));
                        for c in jj + 1..nr {
                            let mut pe = b.pe_mut(w0 + s, r, c);
                            pe.fma = Some((Source::RowBus, Source::Reg(REG_U), Source::SramB(s)));
                            pe.negate_product = true;
                            drop(pe);
                            b.pe_mut(w0 + s + p, r, c).sram_b_write = Some((s, Source::MacResult));
                        }
                    }
                }
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }
    }

    // ---- stream the factored panel back ------------------------------------
    {
        let mut b = ProgramBuilder::new(nr);
        for i in 0..kk {
            let step = b.push_step();
            for c in 0..nr {
                b.pe_mut(step, i % nr, c).col_write = Some(Source::SramB(i / nr));
                b.ext(
                    step,
                    ExtOp::Store {
                        col: c,
                        addr: ext_addr(i, c),
                    },
                );
            }
        }
        total.merge(&lac.run(&b.build(), mem)?);
    }

    let out = Matrix::from_fn(kk, nr, |i, j| mem.read(ext_addr(i, j)));
    Ok((out, pivots, total))
}

/// Assemble simulator output into the reference crate's [`linalg_ref::LuFactors`]
/// (for solves and residual checks).
pub fn pack_to_factors(packed: Matrix, pivots: Vec<usize>) -> linalg_ref::LuFactors {
    linalg_ref::LuFactors {
        factors: packed,
        pivots,
    }
}

/// Blocked right-looking LU with partial pivoting of a square `K × K`
/// matrix (`K = k·nr`), composing the panel kernel with stacked TRSM row
/// updates and negated GEMM trailing updates (the standard LAPACK `getrf`
/// structure mapped onto the LAC kernels).
///
/// Returns `(packed factors, pivots, stats)` matching
/// [`linalg_ref::lu_partial_pivot`].
pub(crate) fn blocked_lu_run(
    lac: &mut Lac,
    a: &Matrix,
    opts: &LuOptions,
) -> Result<(Matrix, Vec<usize>, ExecStats), SimError> {
    let nr = lac.config().nr;
    let kk = a.rows();
    assert_eq!(a.cols(), kk);
    assert!(kk.is_multiple_of(nr));
    let kblocks = kk / nr;
    let mut work = a.clone();
    let mut pivots = Vec::with_capacity(kk);
    let mut total = ExecStats::default();

    for jb in 0..kblocks {
        let c0 = jb * nr;
        let rows = kk - c0;
        // 1. Panel factorization on the LAC.
        let panel = work.block(c0, c0, rows, nr);
        let (factored, ppiv, stats) = lu_panel_matrix_run(lac, &panel, opts)?;
        total.merge(&stats);
        work.set_block(c0, c0, &factored);
        // 2. Apply the panel's row interchanges to the rest of the matrix
        // (left of and right of the panel), and record global pivots.
        for (local, &p) in ppiv.iter().enumerate() {
            let (gi, gp) = (c0 + local, c0 + p);
            pivots.push(gp);
            if gi != gp {
                for j in 0..kk {
                    if j >= c0 && j < c0 + nr {
                        continue; // panel columns already swapped in-kernel
                    }
                    let t = work[(gi, j)];
                    work[(gi, j)] = work[(gp, j)];
                    work[(gp, j)] = t;
                }
            }
        }
        let right = kk - c0 - nr;
        if right == 0 {
            continue;
        }
        // 3. Row update: U12 := L11⁻¹ A12 (unit-lower stacked TRSM).
        let mut l11 = Matrix::identity(nr);
        for j in 0..nr {
            for i in j + 1..nr {
                l11[(i, j)] = work[(c0 + i, c0 + j)];
            }
        }
        let (u12, stats) = trsm_stacked(lac, &l11, &work.block(c0, c0 + nr, nr, right))?;
        total.merge(&stats);
        work.set_block(c0, c0 + nr, &u12);
        // 4. Trailing update: A22 -= L21 · U12 (negated GEMM).
        let below = kk - c0 - nr;
        let params = GemmParams {
            mc: below,
            kc: nr,
            n: right,
            overlap: false,
            negate: true,
        };
        let (a22, stats) = gemm_update(
            lac,
            &work.block(c0 + nr, c0, below, nr),
            &u12,
            &work.block(c0 + nr, c0 + nr, below, right),
            &params,
        )?;
        total.merge(&stats);
        work.set_block(c0 + nr, c0 + nr, &a22);
    }
    Ok((work, pivots, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{lu_partial_pivot, max_abs_diff};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_panel(k: usize, seed: u64, opts: LuOptions) -> ExecStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(k * 4, 4, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let (got, pivots, stats) = lu_panel_matrix_run(&mut lac, &a, &opts).unwrap();
        let expect = lu_partial_pivot(&a).unwrap();
        assert_eq!(pivots, expect.pivots, "pivot sequence");
        assert!(
            max_abs_diff(&got, &expect.factors) < 1e-9,
            "k={k}: {got:?} vs {:?}",
            expect.factors
        );
        stats
    }

    #[test]
    fn single_block_panel() {
        check_panel(1, 1, LuOptions::default());
    }

    #[test]
    fn tall_panels() {
        for k in [2usize, 4, 8] {
            check_panel(k, 10 + k as u64, LuOptions::default());
        }
    }

    #[test]
    fn without_comparator_same_result_more_cycles() {
        let fast = check_panel(4, 3, LuOptions { comparator: true });
        let slow = check_panel(4, 3, LuOptions { comparator: false });
        assert!(
            slow.cycles > fast.cycles + 3 * 16,
            "{} vs {}",
            slow.cycles,
            fast.cycles
        );
        assert_eq!(slow.cmp_ops, fast.cmp_ops, "same compares, different speed");
    }

    #[test]
    fn blocked_lu_matches_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        for kk in [4usize, 8, 16] {
            let a = Matrix::random(kk, kk, &mut rng);
            let mut lac = Lac::new(LacConfig::default());
            let (packed, pivots, _) = blocked_lu_run(&mut lac, &a, &LuOptions::default()).unwrap();
            let reference = lu_partial_pivot(&a).unwrap();
            assert_eq!(pivots, reference.pivots, "kk={kk}");
            assert!(
                max_abs_diff(&packed, &reference.factors) < 1e-8,
                "kk={kk}: {packed:?} vs {:?}",
                reference.factors
            );
        }
    }

    #[test]
    fn blocked_lu_solves_systems() {
        let mut rng = StdRng::seed_from_u64(32);
        let kk = 12;
        let a = Matrix::random(kk, kk, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let (packed, pivots, _) = blocked_lu_run(&mut lac, &a, &LuOptions::default()).unwrap();
        let lu = crate::lu::pack_to_factors(packed, pivots);
        let x_true: Vec<f64> = (0..kk).map(|i| (i as f64).cos()).collect();
        let mut b = vec![0.0; kk];
        linalg_ref::blas2::gemv(1.0, &a, false, &x_true, 0.0, &mut b);
        let x = lu.solve(&b);
        for (xa, xe) in x.iter().zip(&x_true) {
            assert!((xa - xe).abs() < 1e-8);
        }
    }

    #[test]
    fn pivot_rows_bounded_multipliers() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random(16, 4, &mut rng);
        let mut lac = Lac::new(LacConfig::default());
        let (got, _, _) = lu_panel_matrix_run(&mut lac, &a, &LuOptions::default()).unwrap();
        for j in 0..4 {
            for i in j + 1..16 {
                assert!(got[(i, j)].abs() <= 1.0 + 1e-12, "multiplier ({i},{j})");
            }
        }
    }
}
