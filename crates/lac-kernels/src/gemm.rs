//! GEMM on the LAC (§3.1–§3.4): `C(mc×n) += A(mc×kc) · B(kc×n)` as a
//! sequence of rank-1 updates over the broadcast buses.
//!
//! Two schedules are provided:
//!
//! * **simple** — load/compute/store phases strictly sequenced (the paper's
//!   un-overlapped baseline);
//! * **overlap** — the §3.4 schedule: the `nr×nr` C tile stays in the
//!   accumulators; the *previous* tile streams out of register 0 and the
//!   *next* tile prefetches into register 1 over the otherwise-idle column
//!   buses during the `kc` MAC cycles, and the next B panel is double
//!   buffered into the dual-ported B memory the same way. Per-tile overhead
//!   drops from `2nr + p` to `p` cycles.

use crate::layout::{ALayout, GemmDataLayout};
use lac_sim::{ExecStats, ExtOp, ExternalMem, Lac, Program, ProgramBuilder, SimError, Source};
use linalg_ref::Matrix;

/// Parameters for a GEMM inner-kernel run.
#[derive(Clone, Copy, Debug)]
pub struct GemmParams {
    /// Row-panel height (rows of `A` and `C`).
    pub mc: usize,
    /// Panel depth (columns of `A`, rows of `B`).
    pub kc: usize,
    /// Output width (columns of `B` and `C`).
    pub n: usize,
    /// Use the overlapped (register-double-buffered) schedule.
    pub overlap: bool,
    /// Compute `C -= A·B` instead (used by blocked TRSM / Cholesky).
    pub negate: bool,
}

impl Default for GemmParams {
    /// Canonical small problem (16³, overlapped) — a base for
    /// struct-update syntax: `GemmParams { negate: true, ..Default::default() }`.
    fn default() -> Self {
        Self::new(16, 16, 16)
    }
}

impl GemmParams {
    /// The overlapped (register-double-buffered) schedule.
    pub fn new(mc: usize, kc: usize, n: usize) -> Self {
        Self {
            mc,
            kc,
            n,
            overlap: true,
            negate: false,
        }
    }

    /// The naive (non-overlapped) schedule — the §3.3 baseline.
    pub fn simple(mc: usize, kc: usize, n: usize) -> Self {
        Self {
            mc,
            kc,
            n,
            overlap: false,
            negate: false,
        }
    }
}

/// Registers used by the overlapped schedule.
const REG_STREAM_OUT: usize = 0;
const REG_PREFETCH: usize = 1;

/// Build the GEMM microprogram for `lay`/`params` on an `nr × nr` mesh with
/// MAC pipeline depth `p`.
///
/// The program is a pure function of the *shapes* — operand values live in
/// the memory image — so one program can be built once and reused across
/// any number of same-shape jobs (e.g. the row-panel queue a multi-core
/// chip drains). Reuse matters: a production-sized program is hundreds of
/// megabytes of micro-instructions, and rebuilding it per job costs more
/// than simulating it.
pub fn gemm_program(nr: usize, p: usize, lay: &GemmDataLayout, params: &GemmParams) -> Program {
    let GemmParams {
        mc,
        kc,
        n,
        overlap,
        negate,
    } = *params;
    assert!(
        mc % nr == 0 && kc % nr == 0 && n % nr == 0,
        "dimensions must be multiples of nr"
    );
    assert_eq!(
        (lay.mc, lay.kc, lay.n),
        (mc, kc, n),
        "layout/params mismatch"
    );
    let alay = ALayout::new(mc, kc, nr);
    assert!(
        !overlap || kc >= 2 * nr,
        "overlap schedule needs kc >= 2·nr for the C traffic"
    );
    let nblocks = mc / nr;
    let npanels = n / nr;
    // Overlapped B prefetch only fits if the per-block chunk leaves room
    // after the 2·nr cycles of C traffic.
    let b_chunk = kc.div_ceil(nblocks);
    let overlap_b = overlap && kc >= 2 * nr + b_chunk;

    let mut b = ProgramBuilder::new(nr);

    // ---- phase 1: stream the A block into the local stores --------------
    // Bus c carries the A columns congruent to c (mod nr), element by element.
    {
        let cols_per_bus = kc / nr; // A-columns streamed by each bus
        for t in 0..mc * cols_per_bus {
            let step = b.push_step();
            for c in 0..nr {
                // t enumerates (local column index, row) pairs for bus c.
                let lc = t / mc; // which of this bus's A-columns
                let i = t % mc;
                let pcol = lc * nr + c;
                b.ext(
                    step,
                    ExtOp::Load {
                        col: c,
                        addr: lay.a_addr(i, pcol),
                    },
                );
                let r = i % nr;
                b.pe_mut(step, r, c).sram_a_write = Some((alay.addr(i, pcol), Source::ColBus));
            }
        }
    }

    // ---- phase 2: panels --------------------------------------------------
    // Tracks the (block, panel) whose C currently sits in REG_STREAM_OUT.
    let mut pending_store: Option<(usize, usize)> = None;

    for jp in 0..npanels {
        let buf = if overlap_b { (jp % 2) * kc } else { 0 };

        // B panel load (first panel always; later panels only when not
        // prefetched during the previous panel's MAC cycles).
        if jp == 0 || !overlap_b {
            for pp in 0..kc {
                let step = b.push_step();
                for c in 0..nr {
                    b.ext(
                        step,
                        ExtOp::Load {
                            col: c,
                            addr: lay.b_addr(pp, jp * nr + c),
                        },
                    );
                    for r in 0..nr {
                        b.pe_mut(step, r, c).sram_b_write = Some((buf + pp, Source::ColBus));
                    }
                }
            }
        }

        // C prologue: only the very first panel needs an explicit prefetch
        // of its first tile (later ones were prefetched during the previous
        // panel). The simple schedule preloads accumulators directly.
        if jp == 0 {
            for s in 0..nr {
                let step = b.push_step();
                for c in 0..nr {
                    b.ext(
                        step,
                        ExtOp::Load {
                            col: c,
                            addr: lay.c_addr(s, jp * nr + c),
                        },
                    );
                    if overlap {
                        b.pe_mut(step, s, c).reg_write = Some((REG_PREFETCH, Source::ColBus));
                    } else {
                        b.pe_mut(step, s, c).acc_load = Some(Source::ColBus);
                    }
                }
            }
            if overlap {
                let step = b.push_step();
                for r in 0..nr {
                    for c in 0..nr {
                        b.pe_mut(step, r, c).acc_load = Some(Source::Reg(REG_PREFETCH));
                    }
                }
            }
        }

        let mut b_prefetched = 0usize; // words of next panel's B loaded so far

        for blk in 0..nblocks {
            // ---- kc MAC cycles ------------------------------------------
            let mac_start = b.len();
            for pp in 0..kc {
                let step = b.push_step();
                for r in 0..nr {
                    let owner_c = pp % nr;
                    let i = blk * nr + r;
                    b.pe_mut(step, r, owner_c).row_write = Some(Source::SramA(alay.addr(i, pp)));
                }
                for r in 0..nr {
                    for c in 0..nr {
                        let mut pe = b.pe_mut(step, r, c);
                        pe.mac = Some((Source::RowBus, Source::SramB(buf + pp)));
                        pe.negate_product = negate;
                    }
                }
            }

            if overlap {
                // Stream out the previously finished tile (cycles 0..nr).
                if let Some((pb, pj)) = pending_store.take() {
                    for s in 0..nr {
                        let step = mac_start + s;
                        for c in 0..nr {
                            b.pe_mut(step, s, c).col_write = Some(Source::Reg(REG_STREAM_OUT));
                            b.ext(
                                step,
                                ExtOp::Store {
                                    col: c,
                                    addr: lay.c_addr(pb * nr + s, pj * nr + c),
                                },
                            );
                        }
                    }
                }
                // Prefetch the next tile's C (cycles nr..2nr).
                let next = if blk + 1 < nblocks {
                    Some((blk + 1, jp))
                } else if jp + 1 < npanels {
                    Some((0, jp + 1))
                } else {
                    None
                };
                if let Some((nb, nj)) = next {
                    for s in 0..nr {
                        let step = mac_start + nr + s;
                        for c in 0..nr {
                            b.ext(
                                step,
                                ExtOp::Load {
                                    col: c,
                                    addr: lay.c_addr(nb * nr + s, nj * nr + c),
                                },
                            );
                            b.pe_mut(step, s, c).reg_write = Some((REG_PREFETCH, Source::ColBus));
                        }
                    }
                }
                // Spread the next B panel's load over the remaining cycles.
                if overlap_b && jp + 1 < npanels {
                    let next_buf = ((jp + 1) % 2) * kc;
                    let mut t = 2 * nr;
                    while b_prefetched < kc && t < kc {
                        let pp = b_prefetched;
                        let step = mac_start + t;
                        for c in 0..nr {
                            b.ext(
                                step,
                                ExtOp::Load {
                                    col: c,
                                    addr: lay.b_addr(pp, (jp + 1) * nr + c),
                                },
                            );
                            for r in 0..nr {
                                b.pe_mut(step, r, c).sram_b_write =
                                    Some((next_buf + pp, Source::ColBus));
                            }
                        }
                        b_prefetched += 1;
                        t += 1;
                    }
                }
            }

            // ---- drain + tile turnover ----------------------------------
            b.idle(p - 1);
            if overlap {
                // One cycle: acc → reg0, reg1 → acc, for all PEs at once.
                let step = b.push_step();
                let more = blk + 1 < nblocks || jp + 1 < npanels;
                for r in 0..nr {
                    for c in 0..nr {
                        let mut pe = b.pe_mut(step, r, c);
                        pe.reg_write = Some((REG_STREAM_OUT, Source::Acc));
                        if more {
                            pe.acc_load = Some(Source::Reg(REG_PREFETCH));
                        }
                    }
                }
                pending_store = Some((blk, jp));
            } else {
                // Simple schedule: one idle to finish the drain, then store
                // the tile and preload the next directly into the
                // accumulators.
                b.idle(1);
                for s in 0..nr {
                    let step = b.push_step();
                    for c in 0..nr {
                        b.pe_mut(step, s, c).col_write = Some(Source::Acc);
                        b.ext(
                            step,
                            ExtOp::Store {
                                col: c,
                                addr: lay.c_addr(blk * nr + s, jp * nr + c),
                            },
                        );
                    }
                }
                let next = if blk + 1 < nblocks {
                    Some((blk + 1, jp))
                } else if jp + 1 < npanels {
                    Some((0, jp + 1))
                } else {
                    None
                };
                if let Some((nb, nj)) = next {
                    for s in 0..nr {
                        let step = b.push_step();
                        for c in 0..nr {
                            b.ext(
                                step,
                                ExtOp::Load {
                                    col: c,
                                    addr: lay.c_addr(nb * nr + s, nj * nr + c),
                                },
                            );
                            b.pe_mut(step, s, c).acc_load = Some(Source::ColBus);
                        }
                    }
                }
            }
        }
    }

    // ---- epilogue: flush the last tile -----------------------------------
    if let Some((pb, pj)) = pending_store.take() {
        for s in 0..nr {
            let step = b.push_step();
            for c in 0..nr {
                b.pe_mut(step, s, c).col_write = Some(Source::Reg(REG_STREAM_OUT));
                b.ext(
                    step,
                    ExtOp::Store {
                        col: c,
                        addr: lay.c_addr(pb * nr + s, pj * nr + c),
                    },
                );
            }
        }
    }

    b.build()
}

/// Useful MACs of a GEMM update: `mc · kc · n`.
pub(crate) fn gemm_useful_macs(params: &GemmParams) -> u64 {
    (params.mc * params.kc * params.n) as u64
}

/// `C ± A·B` on `lac`: packs `A`, `B` and `C` into the §3.4 image
/// ([`GemmDataLayout`] over `params`' shape), runs the inner kernel, and
/// returns the updated `C` with the run's counters.
pub(crate) fn gemm_update(
    lac: &mut Lac,
    a: &Matrix,
    bm: &Matrix,
    c: &Matrix,
    params: &GemmParams,
) -> Result<(Matrix, ExecStats), SimError> {
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    let alay = ALayout::new(params.mc, params.kc, nr);
    assert!(
        alay.words_per_pe() <= lac.config().sram_a_words,
        "A block does not fit the local store"
    );
    let b_words_needed = if params.overlap {
        2 * params.kc
    } else {
        params.kc
    };
    assert!(
        b_words_needed <= lac.config().sram_b_words,
        "B panel does not fit the local store"
    );
    let lay = GemmDataLayout::new(params.mc, params.kc, params.n);
    let mut mem = ExternalMem::from_vec(lay.pack(a, bm, c));
    let stats = lac.run_kernel(
        "gemm",
        &[
            nr as u64,
            p as u64,
            lay.mc as u64,
            lay.kc as u64,
            lay.n as u64,
            lay.a_off as u64,
            lay.b_off as u64,
            lay.c_off as u64,
            params.mc as u64,
            params.kc as u64,
            params.n as u64,
            params.overlap as u64,
            params.negate as u64,
        ],
        || gemm_program(nr, p, &lay, params),
        &mut mem,
    )?;
    Ok((lay.unpack_c(mem.as_slice()), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::{gemm, max_abs_diff};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(mc: usize, kc: usize, n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(mc, kc, &mut rng);
        let bm = Matrix::random(kc, n, &mut rng);
        let c = Matrix::random(mc, n, &mut rng);
        (a, bm, c)
    }

    fn reference(a: &Matrix, b: &Matrix, c: &Matrix, negate: bool) -> Matrix {
        let mut expect = c.clone();
        if negate {
            let neg = Matrix::from_fn(a.rows(), a.cols(), |i, j| -a[(i, j)]);
            gemm(&neg, b, &mut expect);
        } else {
            gemm(a, b, &mut expect);
        }
        expect
    }

    /// Useful-MAC utilization of one run on the default 4×4 core.
    fn utilization(params: &GemmParams, stats: &ExecStats) -> f64 {
        gemm_useful_macs(params) as f64 / (stats.cycles as f64 * 16.0)
    }

    #[test]
    fn simple_schedule_matches_reference() {
        let (a, bm, c) = setup(8, 8, 8, 1);
        let mut lac = Lac::new(LacConfig::default());
        let params = GemmParams::simple(8, 8, 8);
        let (got, stats) = gemm_update(&mut lac, &a, &bm, &c, &params).unwrap();
        let expect = reference(&a, &bm, &c, false);
        assert!(max_abs_diff(&got, &expect) < 1e-12);
        assert_eq!(stats.mac_ops, 8 * 8 * 8);
    }

    #[test]
    fn overlap_schedule_matches_reference() {
        let (a, bm, c) = setup(16, 16, 16, 2);
        let mut lac = Lac::new(LacConfig::default());
        let params = GemmParams::new(16, 16, 16);
        let (got, stats) = gemm_update(&mut lac, &a, &bm, &c, &params).unwrap();
        let expect = reference(&a, &bm, &c, false);
        assert!(max_abs_diff(&got, &expect) < 1e-12);
        let util = utilization(&params, &stats);
        assert!(util > 0.5, "util {util}");
    }

    #[test]
    fn overlap_beats_simple_utilization() {
        for &(mc, kc, n) in &[(16, 32, 16), (32, 32, 32)] {
            let (a, bm, c) = setup(mc, kc, n, 3);
            let mut lac1 = Lac::new(LacConfig::default());
            let mut lac2 = Lac::new(LacConfig::default());
            let (simple, overlap) = (GemmParams::simple(mc, kc, n), GemmParams::new(mc, kc, n));
            let (_, s1) = gemm_update(&mut lac1, &a, &bm, &c, &simple).unwrap();
            let (_, s2) = gemm_update(&mut lac2, &a, &bm, &c, &overlap).unwrap();
            let (u1, u2) = (utilization(&simple, &s1), utilization(&overlap, &s2));
            assert!(u2 > u1, "overlap {u2} vs simple {u1}");
        }
    }

    #[test]
    fn negate_computes_c_minus_ab() {
        let (a, bm, c) = setup(8, 8, 8, 4);
        let mut lac = Lac::new(LacConfig::default());
        let params = GemmParams {
            negate: true,
            ..GemmParams::new(8, 8, 8)
        };
        let (got, _) = gemm_update(&mut lac, &a, &bm, &c, &params).unwrap();
        let expect = reference(&a, &bm, &c, true);
        assert!(max_abs_diff(&got, &expect) < 1e-12);
    }

    #[test]
    fn utilization_grows_with_kc() {
        // The §3.4 analysis: overhead per tile is ~p cycles, so utilization
        // approaches 1 as kc grows.
        let mut last = 0.0;
        for &kc in &[16usize, 64, 128] {
            let (a, bm, c) = setup(16, kc, 64, 5);
            let mut lac = Lac::new(LacConfig::default());
            let params = GemmParams::new(16, kc, 64);
            let (_, stats) = gemm_update(&mut lac, &a, &bm, &c, &params).unwrap();
            let util = utilization(&params, &stats);
            assert!(util > last, "kc={kc}");
            last = util;
        }
        assert!(
            last > 0.85,
            "large-kc utilization should approach peak, got {last}"
        );
    }

    #[test]
    fn tall_block_and_wide_panel() {
        let (a, bm, c) = setup(24, 8, 32, 6);
        let mut lac = Lac::new(LacConfig::default());
        let (got, _) = gemm_update(&mut lac, &a, &bm, &c, &GemmParams::new(24, 8, 32)).unwrap();
        assert!(max_abs_diff(&got, &reference(&a, &bm, &c, false)) < 1e-12);
    }

    #[test]
    fn respects_bandwidth_cap_when_not_exceeded() {
        // nr words/cycle is the natural cap (one per column bus).
        let cfg = LacConfig {
            ext_words_per_cycle: Some(4),
            ..Default::default()
        };
        let (a, bm, c) = setup(8, 8, 8, 7);
        let mut lac = Lac::new(cfg);
        gemm_update(&mut lac, &a, &bm, &c, &GemmParams::new(8, 8, 8)).unwrap();
    }

    #[test]
    fn stats_account_external_traffic() {
        let (a, bm, c) = setup(8, 8, 8, 8);
        let mut lac = Lac::new(LacConfig::default());
        let (_, stats) = gemm_update(&mut lac, &a, &bm, &c, &GemmParams::simple(8, 8, 8)).unwrap();
        // A once (mc·kc), B once (kc·n), C in once (mc·n).
        let expected_reads = 8 * 8 + 8 * 8 + 8 * 8;
        assert_eq!(stats.ext_reads, expected_reads as u64);
        assert_eq!(stats.ext_writes, 8 * 8);
    }
}
