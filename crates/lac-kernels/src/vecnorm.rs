//! Vector 2-norm on the LAC (§6.1.3, Figure 6.4) — the inner kernel of
//! Householder QR.
//!
//! A `K = k·nr` vector owned by one PE column is normed in three steps:
//! **S1** share half the elements with the adjacent column and accumulate
//! partial sums of squares in both; **S2** reduce the neighbour column back;
//! **S3** reduce within the owner column, take the square root, and
//! broadcast the result.
//!
//! The §A.2 extension story is the whole point:
//!
//! * [`VnormOptions::exponent_extension`] — the wide accumulator makes
//!   overflow impossible, so the kernel is a straight sum of squares.
//! * [`VnormOptions::comparator`] (without the exponent extension) — a
//!   hardware max-scan finds the scaling factor in one pass at one element
//!   per cycle, then the scaled two-pass algorithm runs.
//! * neither — the max-scan runs through the FPU at one compare per `p`
//!   cycles: the software baseline of Figure 6.6.

use lac_fpu::DivSqrtOp;
use lac_sim::{CmpUpdate, ExecStats, ExtOp, ExternalMem, Lac, ProgramBuilder, SimError, Source};

/// Extension options for the vector-norm kernel (Figure 6.6's bars).
#[derive(Clone, Copy, Debug, Default)]
pub struct VnormOptions {
    /// Wide-exponent accumulator present (implies no scaling pass needed).
    pub exponent_extension: bool,
    /// Comparator extension present (fast max-scan when scaling is needed).
    pub comparator: bool,
}

const OWNER_COL: usize = 2; // the paper's example: vector in the third column
const REG_MAX: usize = 2;
const REG_TAG: usize = 3;
const REG_SCALE: usize = 1;
const REG_RESULT: usize = 0;

/// Compute `‖x‖₂` on `lac` for a `K = k·nr` vector (`K = x.len()`, the
/// image, from offset 0), returning the norm and the summed counters of
/// every phase.
///
/// Requires `nr ≥ 2` (owner column plus helper), `k` even, and — for
/// `exponent_extension` — a core configured with the wide accumulator.
pub(crate) fn vecnorm(
    lac: &mut Lac,
    x: &[f64],
    opts: &VnormOptions,
) -> Result<(f64, ExecStats), SimError> {
    let k = x.len() / 4;
    let mem = &mut ExternalMem::from_vec(x.to_vec());
    let nr = lac.config().nr;
    let p = lac.config().fpu.pipeline_depth;
    assert!(nr >= 4, "kernel written for the canonical 4×4 core");
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even");
    if opts.exponent_extension {
        assert!(
            lac.config().fpu.exponent_extension,
            "exponent_extension option requires a wide-accumulator core"
        );
    }
    let cc = OWNER_COL;
    let helper = cc + 1;
    let half = k / 2;
    let mut total = ExecStats::default();

    // ---- stage x into the owner column's B memories ------------------------
    {
        let mut b = ProgramBuilder::new(nr);
        for i in 0..k * nr {
            let step = b.push_step();
            b.ext(step, ExtOp::Load { col: cc, addr: i });
            b.pe_mut(step, i % nr, cc).sram_b_write = Some((i / nr, Source::ColBus));
        }
        total.merge(&lac.run(&b.build(), mem)?);
    }

    // ---- optional scaling pre-pass (no wide accumulator) --------------------
    // Find t = max|xᵢ|, compute 1/t, and scale the vector in place.
    let mut scale_t = 1.0f64;
    if !opts.exponent_extension {
        // Max-scan, owner column only (scan precedes the share step so the
        // helper column receives already-scaled values).
        {
            let mut b = ProgramBuilder::new(nr);
            let t0 = b.push_step();
            for r in 0..nr {
                b.pe_mut(t0, r, cc).reg_write = Some((REG_MAX, Source::Const(0.0)));
            }
            for s in 0..k {
                let step = b.push_step();
                for r in 0..nr {
                    b.pe_mut(step, r, cc).cmp_update = Some(CmpUpdate {
                        value: Source::SramB(s),
                        tag: s as f64,
                        val_reg: REG_MAX,
                        tag_reg: REG_TAG,
                    });
                }
                if !opts.comparator {
                    b.idle(p - 1); // software compare through the FPU
                }
            }
            // Cross-PE reduction of the four local maxima over the column bus.
            for r in 0..nr {
                let step = b.push_step();
                b.pe_mut(step, r, cc).col_write = Some(Source::Reg(REG_MAX));
                if !opts.comparator && r + 1 < nr {
                    b.idle(p - 1);
                }
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }
        // Sequencer reads the maxima (hardware reduction result).
        let mut t = 0.0f64;
        for r in 0..nr {
            let v = lac.reg(r, cc, REG_MAX);
            if !lac_fpu::magnitude_ge(t, v) {
                t = v;
            }
        }
        let t = t.abs();
        assert!(t > 0.0, "zero vector norm handled by caller");
        scale_t = t;
        // 1/t on the diagonal SFU of the owner column's row, then broadcast
        // and scale in place.
        {
            let mut b = ProgramBuilder::new(nr);
            let step = b.push_step();
            b.pe_mut(step, cc, cc).sfu =
                Some((DivSqrtOp::Reciprocal, Source::Const(t), Source::Const(0.0)));
            b.idle(lac.config().divsqrt.latency(DivSqrtOp::Reciprocal));
            let step = b.push_step();
            b.pe_mut(step, cc, cc).col_write = Some(Source::SfuResult);
            for r in 0..nr {
                b.pe_mut(step, r, cc).reg_write = Some((REG_SCALE, Source::ColBus));
            }
            // Scale pass: one fused multiply per element, pipelined.
            let w0 = b.len();
            for _ in 0..k + p {
                b.push_step();
            }
            for s in 0..k {
                for r in 0..nr {
                    b.pe_mut(w0 + s, r, cc).fma =
                        Some((Source::SramB(s), Source::Reg(REG_SCALE), Source::Const(0.0)));
                    b.pe_mut(w0 + s + p, r, cc).sram_b_write = Some((s, Source::MacResult));
                }
            }
            total.merge(&lac.run(&b.build(), mem)?);
        }
    }

    // ---- S1: share the upper half with the helper column, then accumulate --
    {
        let mut b = ProgramBuilder::new(nr);
        for s in half..k {
            let step = b.push_step();
            for r in 0..nr {
                b.pe_mut(step, r, cc).row_write = Some(Source::SramB(s));
                b.pe_mut(step, r, helper).sram_b_write = Some((s, Source::RowBus));
            }
        }
        // Zero both columns' accumulators, then sum squares.
        let step = b.push_step();
        for r in 0..nr {
            b.pe_mut(step, r, cc).acc_load = Some(Source::Const(0.0));
            b.pe_mut(step, r, helper).acc_load = Some(Source::Const(0.0));
        }
        for t in 0..half {
            let step = b.push_step();
            for r in 0..nr {
                b.pe_mut(step, r, cc).mac = Some((Source::SramB(t), Source::SramB(t)));
                b.pe_mut(step, r, helper).mac =
                    Some((Source::SramB(half + t), Source::SramB(half + t)));
            }
        }
        b.idle(p);
        total.merge(&lac.run(&b.build(), mem)?);
    }

    // Decide whether the partial sums fit ordinary doubles. In range the
    // reduction runs entirely in-simulator; out of range (only reachable
    // with the exponent extension) the partials cross the buses in the wide
    // format, which the driver stands in for — same cycles, same transfers,
    // exact wide arithmetic (see module docs).
    let wide_needed = opts.exponent_extension
        && (0..nr).any(|r| {
            lac.acc_wide(r, cc).exponent() > 1020 || lac.acc_wide(r, helper).exponent() > 1020
        });

    {
        let mut b = ProgramBuilder::new(nr);
        // ---- S2: reduce the helper column back into the owner column -------
        let step = b.push_step();
        for r in 0..nr {
            b.pe_mut(step, r, helper).row_write = Some(Source::Acc);
            if wide_needed {
                b.pe_mut(step, r, cc).reg_write = Some((REG_TAG, Source::RowBus));
            } else {
                b.pe_mut(step, r, cc).mac = Some((Source::RowBus, Source::Const(1.0)));
            }
        }
        b.idle(p);
        // ---- S3: reduce within the owner column into the diagonal PE -------
        // PE(cc, cc) sits in the owner column *and* on the mesh diagonal, so
        // the square root is issuable under every divide/sqrt option.
        for r in 0..nr {
            if r == cc {
                continue;
            }
            let step = b.push_step();
            b.pe_mut(step, r, cc).col_write = Some(Source::Acc);
            if wide_needed {
                b.pe_mut(step, cc, cc).reg_write = Some((REG_TAG, Source::ColBus));
            } else {
                b.pe_mut(step, cc, cc).mac = Some((Source::ColBus, Source::Const(1.0)));
            }
        }
        b.idle(p);
        // Square root on the diagonal PE; the wide-accumulator path (§A.2)
        // handles the out-of-range case when the exponent extension is on.
        let step = b.push_step();
        b.pe_mut(step, cc, cc).sfu = Some((DivSqrtOp::Sqrt, Source::Acc, Source::Const(0.0)));
        b.idle(lac.config().divsqrt.latency(DivSqrtOp::Sqrt));
        // Broadcast the result to the whole owner column (Figure 6.4 S3).
        let step = b.push_step();
        b.pe_mut(step, cc, cc).col_write = Some(Source::SfuResult);
        for r in 0..nr {
            b.pe_mut(step, r, cc).reg_write = Some((REG_RESULT, Source::ColBus));
        }
        total.merge(&lac.run(&b.build(), mem)?);
    }

    // Undo the scaling: ‖x‖ = t · ‖x/t‖ (one more multiply through the FPU).
    let mut result = if wide_needed {
        // Wide-datapath reduction (driver stands in for the extended-format
        // bus transfers already accounted above).
        let mut acc = lac_fpu::ExtendedAccumulator::new();
        for r in 0..nr {
            acc.add_wide(&lac.acc_wide(r, cc));
            acc.add_wide(&lac.acc_wide(r, helper));
        }
        acc.sqrt_wide()
    } else {
        lac.reg(0, cc, REG_RESULT)
    };
    if !opts.exponent_extension {
        let mut b = ProgramBuilder::new(nr);
        let w0 = b.push_step();
        b.pe_mut(w0, 0, cc).fma = Some((
            Source::Reg(REG_RESULT),
            Source::Const(scale_t),
            Source::Const(0.0),
        ));
        b.idle(p - 1);
        let step = b.push_step();
        b.pe_mut(step, 0, cc).reg_write = Some((REG_RESULT, Source::MacResult));
        total.merge(&lac.run(&b.build(), mem)?);
        result = lac.reg(0, cc, REG_RESULT);
    }

    Ok((result, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_fpu::FpuConfig;
    use lac_sim::LacConfig;
    use linalg_ref::nrm2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg(exp_ext: bool) -> LacConfig {
        LacConfig {
            fpu: FpuConfig {
                exponent_extension: exp_ext,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn run_case(x: &[f64], opts: VnormOptions) -> (f64, ExecStats) {
        let mut lac = Lac::new(cfg(opts.exponent_extension));
        vecnorm(&mut lac, x, &opts).unwrap()
    }

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn all_variants_match_reference() {
        let x = random_x(32, 1);
        let expect = nrm2(&x);
        for opts in [
            VnormOptions {
                exponent_extension: true,
                comparator: false,
            },
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
            VnormOptions {
                exponent_extension: false,
                comparator: false,
            },
        ] {
            let (got, _) = run_case(&x, opts);
            assert!(
                (got / expect - 1.0).abs() < 1e-9,
                "{opts:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn exponent_extension_survives_huge_values() {
        // Squares overflow f64; only the wide accumulator (or scaling)
        // survives. This is the §A.2 claim.
        let mut x = vec![0.0; 16];
        x[3] = 1e200;
        x[7] = 1e200;
        let expect = 1e200 * 2.0f64.sqrt();
        let (got, _) = run_case(
            &x,
            VnormOptions {
                exponent_extension: true,
                comparator: false,
            },
        );
        assert!((got / expect - 1.0).abs() < 1e-9, "wide-acc path: {got}");
        let (got2, _) = run_case(
            &x,
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
        );
        assert!((got2 / expect - 1.0).abs() < 1e-9, "scaled path: {got2}");
    }

    #[test]
    fn extension_cycle_ordering() {
        // exp-ext < comparator < software — Figure 6.6's efficiency order
        // comes straight from these cycle counts.
        let x = random_x(64, 2);
        let (_, ext) = run_case(
            &x,
            VnormOptions {
                exponent_extension: true,
                comparator: false,
            },
        );
        let (_, cmp) = run_case(
            &x,
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
        );
        let (_, sw) = run_case(
            &x,
            VnormOptions {
                exponent_extension: false,
                comparator: false,
            },
        );
        assert!(ext.cycles < cmp.cycles, "{} !< {}", ext.cycles, cmp.cycles);
        assert!(cmp.cycles < sw.cycles, "{} !< {}", cmp.cycles, sw.cycles);
    }

    #[test]
    fn underflow_handled_by_scaling() {
        let mut x = vec![0.0; 16];
        x[0] = 1e-200;
        x[5] = 1e-200;
        let expect = 1e-200 * 2.0f64.sqrt();
        let (got, _) = run_case(
            &x,
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
        );
        assert!((got / expect - 1.0).abs() < 1e-9);
    }
}
