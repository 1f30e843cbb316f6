//! SYRK on the LAC (§5.2): `C := C + A·Aᵀ` (lower triangle), with the
//! transpose formed *in flight* on the broadcast buses.
//!
//! The diagonal `nr×nr` tiles run the unblocked kernel of Figure 5.2: while
//! column `p` of `A` is broadcast along the **row** buses, the *previous*
//! column rebounds off the diagonal PEs onto the **column** buses — producing
//! `aᵀ` one cycle behind `a` at zero extra cost. Every PE simultaneously
//! latches the transposed element into its B memory, so the subsequent
//! off-diagonal tiles (`C_bd += A_b·A_dᵀ`) are ordinary GEMM updates against
//! the locally stored `A_dᵀ` panel (Figure 5.3).

use crate::layout::ALayout;
use lac_sim::{ExecStats, ExtOp, Lac, ProgramBuilder, SimError, Source};

/// Parameters for a SYRK run: `C (mc×mc, lower) += A (mc×kc) · Aᵀ`.
#[derive(Clone, Copy, Debug)]
pub struct SyrkParams {
    /// Output dimension (`C` is `mc × mc`).
    pub mc: usize,
    /// Inner (rank) dimension.
    pub kc: usize,
    /// Compute `C -= A·Aᵀ` instead (the trailing downdate of blocked
    /// Cholesky).
    pub negate: bool,
}

impl Default for SyrkParams {
    /// Canonical small problem — a base for struct-update syntax:
    /// `SyrkParams { negate: true, ..Default::default() }`.
    fn default() -> Self {
        Self::new(16, 16)
    }
}

impl SyrkParams {
    /// An accumulating (`C += A·Aᵀ`) run.
    pub fn new(mc: usize, kc: usize) -> Self {
        Self {
            mc,
            kc,
            negate: false,
        }
    }
}

/// External-memory layout for SYRK: `A` then full `C` (lower significant).
#[derive(Clone, Copy, Debug)]
pub struct SyrkDataLayout {
    /// Output dimension.
    pub mc: usize,
    /// Inner dimension.
    pub kc: usize,
    /// Word offset of `C` in the image.
    pub c_off: usize,
}

impl SyrkDataLayout {
    /// Pack `A` from offset 0 with `C` right behind it.
    pub fn new(mc: usize, kc: usize) -> Self {
        Self {
            mc,
            kc,
            c_off: mc * kc,
        }
    }

    /// Size of the whole working-set image, words.
    pub fn total_words(&self) -> usize {
        self.c_off + self.mc * self.mc
    }

    /// Image address of `A(i, p)`.
    pub fn a_addr(&self, i: usize, p: usize) -> usize {
        p * self.mc + i
    }

    /// Image address of `C(i, j)` (stored full, lower significant).
    pub fn c_addr(&self, i: usize, j: usize) -> usize {
        self.c_off + j * self.mc + i
    }

    /// Symmetrized C read address: `(i,j)` maps to the stored lower triangle.
    pub fn c_addr_sym(&self, i: usize, j: usize) -> usize {
        if i >= j {
            self.c_addr(i, j)
        } else {
            self.c_addr(j, i)
        }
    }
}

/// Report of a SYRK run.
#[derive(Clone, Debug)]
pub struct SyrkReport {
    /// Event counters of the run.
    pub stats: ExecStats,
    /// Useful MACs: tiles on/below the diagonal (what contributes to the
    /// stored lower triangle).
    pub useful_macs: u64,
    /// Utilization against peak over the run.
    pub utilization: f64,
}

const REG_A_CUR: usize = 2;

/// Run blocked SYRK. `mem` must hold `A` and `C` per `lay`; on return the
/// lower triangle of `C` has been updated.
pub(crate) fn syrk_run(
    lac: &mut Lac,
    mem: &mut lac_sim::ExternalMem,
    lay: &SyrkDataLayout,
    params: &SyrkParams,
) -> Result<SyrkReport, SimError> {
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    let SyrkParams { mc, kc, negate } = *params;
    assert!(mc % nr == 0 && kc % nr == 0);
    assert!(
        ALayout::new(mc, kc, nr).words_per_pe() <= lac.config().sram_a_words,
        "A block too large"
    );
    assert!(
        kc <= lac.config().sram_b_words,
        "Aᵀ panel too large for B memory"
    );
    let prog = crate::memo::program(
        "syrk",
        &[
            nr as u64,
            p as u64,
            lay.mc as u64,
            lay.kc as u64,
            lay.c_off as u64,
            mc as u64,
            kc as u64,
            negate as u64,
        ],
        || syrk_program(nr, p, lay, params),
    );
    let stats = lac.run(&prog, mem)?;
    let nblocks = mc / nr;
    let tiles = (nblocks * (nblocks + 1) / 2) as u64;
    let useful = tiles * (nr * nr * kc) as u64;
    Ok(SyrkReport {
        stats,
        useful_macs: useful,
        utilization: useful as f64 / (stats.cycles as f64 * (nr * nr) as f64),
    })
}

/// The blocked-SYRK microprogram — a pure function of the shape (mesh
/// size, FPU depth, operand layout and block parameters).
pub(crate) fn syrk_program(
    nr: usize,
    p: usize,
    lay: &SyrkDataLayout,
    params: &SyrkParams,
) -> lac_sim::Program {
    let SyrkParams { mc, kc, negate } = *params;
    let alay = ALayout::new(mc, kc, nr);

    let nblocks = mc / nr;
    let mut b = ProgramBuilder::new(nr);

    // ---- load A ----------------------------------------------------------
    {
        let cols_per_bus = kc / nr;
        for t in 0..mc * cols_per_bus {
            let step = b.push_step();
            for c in 0..nr {
                let lc = t / mc;
                let i = t % mc;
                let pcol = lc * nr + c;
                b.ext(
                    step,
                    ExtOp::Load {
                        col: c,
                        addr: lay.a_addr(i, pcol),
                    },
                );
                b.pe_mut(step, i % nr, c).sram_a_write = Some((alay.addr(i, pcol), Source::ColBus));
            }
        }
    }

    for d in 0..nblocks {
        // ---- preload C_dd (symmetrized) into the accumulators ------------
        for s in 0..nr {
            let step = b.push_step();
            for c in 0..nr {
                b.ext(
                    step,
                    ExtOp::Load {
                        col: c,
                        addr: lay.c_addr_sym(d * nr + s, d * nr + c),
                    },
                );
                b.pe_mut(step, s, c).acc_load = Some(Source::ColBus);
            }
        }

        // ---- unblocked SYRK on the diagonal tile (Figure 5.2) -------------
        // Cycle q broadcasts a_q on the row buses while a_{q-1} rebounds off
        // the diagonal onto the column buses for the rank-1 update; the
        // transposed element is captured into B memory as it passes.
        for q in 0..=kc {
            let step = b.push_step();
            if q < kc {
                for r in 0..nr {
                    let owner_c = q % nr;
                    b.pe_mut(step, r, owner_c).row_write =
                        Some(Source::SramA(alay.addr(d * nr + r, q)));
                }
                for r in 0..nr {
                    for c in 0..nr {
                        b.pe_mut(step, r, c).reg_write = Some((REG_A_CUR, Source::RowBus));
                    }
                }
            }
            if q >= 1 {
                let pp = q - 1;
                for c in 0..nr {
                    b.pe_mut(step, c, c).col_write = Some(Source::Reg(REG_A_CUR));
                }
                for r in 0..nr {
                    for c in 0..nr {
                        let pe = b.pe_mut(step, r, c);
                        pe.mac = Some((Source::Reg(REG_A_CUR), Source::ColBus));
                        pe.negate_product = negate;
                        pe.sram_b_write = Some((pp, Source::ColBus));
                    }
                }
            }
        }
        b.idle(p - 1);

        // ---- stream out the lower part of C_dd ---------------------------
        for s in 0..nr {
            let step = b.push_step();
            for c in 0..nr {
                b.pe_mut(step, s, c).col_write = Some(Source::Acc);
                if c <= s {
                    b.ext(
                        step,
                        ExtOp::Store {
                            col: c,
                            addr: lay.c_addr(d * nr + s, d * nr + c),
                        },
                    );
                }
            }
        }

        // ---- off-diagonal tiles: C_bd += A_b · A_dᵀ (GEMM updates) --------
        for blk in d + 1..nblocks {
            for s in 0..nr {
                let step = b.push_step();
                for c in 0..nr {
                    b.ext(
                        step,
                        ExtOp::Load {
                            col: c,
                            addr: lay.c_addr(blk * nr + s, d * nr + c),
                        },
                    );
                    b.pe_mut(step, s, c).acc_load = Some(Source::ColBus);
                }
            }
            for pp in 0..kc {
                let step = b.push_step();
                for r in 0..nr {
                    let owner_c = pp % nr;
                    b.pe_mut(step, r, owner_c).row_write =
                        Some(Source::SramA(alay.addr(blk * nr + r, pp)));
                }
                for r in 0..nr {
                    for c in 0..nr {
                        let pe = b.pe_mut(step, r, c);
                        pe.mac = Some((Source::RowBus, Source::SramB(pp)));
                        pe.negate_product = negate;
                    }
                }
            }
            b.idle(p - 1);
            for s in 0..nr {
                let step = b.push_step();
                for c in 0..nr {
                    b.pe_mut(step, s, c).col_write = Some(Source::Acc);
                    b.ext(
                        step,
                        ExtOp::Store {
                            col: c,
                            addr: lay.c_addr(blk * nr + s, d * nr + c),
                        },
                    );
                }
            }
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::{ExternalMem, LacConfig};
    use linalg_ref::{max_abs_diff, syrk, Matrix, Triangle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_case(mc: usize, kc: usize, seed: u64) -> (Matrix, Matrix, SyrkReport) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(mc, kc, &mut rng);
        let c0 = Matrix::random(mc, mc, &mut rng).tril();
        let lay = SyrkDataLayout::new(mc, kc);
        let mut mem = vec![0.0; lay.total_words()];
        for pcol in 0..kc {
            for i in 0..mc {
                mem[lay.a_addr(i, pcol)] = a[(i, pcol)];
            }
        }
        for j in 0..mc {
            for i in j..mc {
                mem[lay.c_addr(i, j)] = c0[(i, j)];
            }
        }
        let mut emem = ExternalMem::from_vec(mem);
        let mut lac = Lac::new(LacConfig::default());
        let rep = syrk_run(&mut lac, &mut emem, &lay, &SyrkParams::new(mc, kc)).unwrap();
        let mut expect = c0;
        syrk(Triangle::Lower, &a, &mut expect);
        let got = Matrix::from_fn(mc, mc, |i, j| {
            if i >= j {
                emem.read(lay.c_addr(i, j))
            } else {
                0.0
            }
        });
        (got, expect, rep)
    }

    #[test]
    fn single_diagonal_tile() {
        let (got, expect, _) = run_case(4, 8, 1);
        assert!(max_abs_diff(&got, &expect.tril()) < 1e-12);
    }

    #[test]
    fn blocked_multiple_tiles() {
        let (got, expect, rep) = run_case(16, 16, 2);
        assert!(max_abs_diff(&got, &expect.tril()) < 1e-12);
        assert!(rep.utilization > 0.3);
    }

    #[test]
    fn wide_k_panel() {
        let (got, expect, _) = run_case(8, 32, 3);
        assert!(max_abs_diff(&got, &expect.tril()) < 1e-12);
    }

    #[test]
    fn utilization_approaches_triangle_fraction() {
        // As mc grows the off-diagonal GEMM tiles dominate and utilization
        // climbs toward the GEMM level (§5.4: "overall performance
        // approaches the peak as the size of problem grows").
        let (_, _, small) = run_case(8, 16, 4);
        let (_, _, big) = run_case(32, 16, 5);
        assert!(big.utilization > small.utilization);
    }

    #[test]
    fn transpose_panel_lands_in_b_memory() {
        // After the run, PE(r,c) must hold A(d·nr + c, p) in sram_b[p] for
        // the last diagonal block d — the in-flight transpose.
        let mc = 8;
        let kc = 8;
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::random(mc, kc, &mut rng);
        let lay = SyrkDataLayout::new(mc, kc);
        let mut mem = vec![0.0; lay.total_words()];
        for pcol in 0..kc {
            for i in 0..mc {
                mem[lay.a_addr(i, pcol)] = a[(i, pcol)];
            }
        }
        let mut emem = ExternalMem::from_vec(mem);
        let mut lac = Lac::new(LacConfig::default());
        syrk_run(&mut lac, &mut emem, &lay, &SyrkParams::new(mc, kc)).unwrap();
        let d = mc / 4 - 1; // last diagonal block for nr = 4
        for r in 0..4 {
            for c in 0..4 {
                for pp in 0..kc {
                    let got = lac.sram_b_mut(r, c)[pp];
                    assert_eq!(got, a[(d * 4 + c, pp)], "PE({r},{c}) slot {pp}");
                }
            }
        }
    }
}
