//! 64-point radix-4 FFT on the LAC (§6.2, Appendix B, Figures B.1–B.3).
//!
//! The 64-point transform is three radix-4 stages on the 4×4 core, one
//! butterfly per PE per stage:
//!
//! * **stage 1** — all four inputs local to each PE (no communication, no
//!   twiddles);
//! * **stage 2** — operands exchanged along the **row** buses;
//! * **stage 3** — operands exchanged along the **column** buses —
//!
//! exactly the Figure B.2 access pattern. Each butterfly is decomposed into
//! FMA layers scheduled per Figure B.1: twiddle products, the `t`-layer
//! (including the free multiply-by-`−i`), and the output layer, with
//! intermediate values ping-ponged between the single-ported A memory, the
//! dual-ported B memory, and the register file so no port is ever
//! oversubscribed. The dissertation's hybrid PE (Figure 6.8) exists
//! precisely to provide this second memory port for FFT.

use lac_sim::{ExecStats, ExtOp, ExternalMem, Lac, ProgramBuilder, SimError, Source};
use linalg_ref::Complex;
use std::f64::consts::PI;

// --- PE-local memory map ---------------------------------------------------
// A memory: butterfly inputs (a,b for stage 1; a,b,c,d for stages 2–3).
// B memory regions:
const HOME: usize = 0; // persistent 4 complex points between stages
const CD: usize = 8; // stage-1 c,d inputs
const T1: usize = 12; // twiddle partial products
const T2: usize = 18; // twiddled operands b', c', d'
const TT: usize = 24; // t-layer results
const Y: usize = 32; // butterfly outputs
pub(crate) const B_WORDS_NEEDED: usize = 40;

/// One scalar FMA in a butterfly layer: `dest ← c ± a·b`, optionally also
/// captured into a register at retire (the bypass network of Figure B.1).
#[derive(Clone, Copy, Debug)]
struct FftOp {
    a: Source,
    b: Source,
    c: Source,
    neg: bool,
    dest: usize,
    cap: Option<usize>,
}

fn op(a: Source, b: Source, c: Source, neg: bool, dest: usize) -> FftOp {
    FftOp {
        a,
        b,
        c,
        neg,
        dest,
        cap: None,
    }
}

fn opc(a: Source, b: Source, c: Source, neg: bool, dest: usize, cap: usize) -> FftOp {
    FftOp {
        a,
        b,
        c,
        neg,
        dest,
        cap: Some(cap),
    }
}

const ONE: Source = Source::Const(1.0);
const ZERO: Source = Source::Const(0.0);

/// The no-twiddle butterfly (stage 1): inputs a,b in A\[0..4\], c,d in
/// B\[CD..CD+4\]; outputs to B\[Y..Y+8\].
fn stage1_layers() -> Vec<Vec<FftOp>> {
    use Source::{Reg, SramA as A, SramB as B};
    let l3 = vec![
        op(ONE, B(CD), A(0), false, TT),             // t0re = a_re + c_re
        op(ONE, B(CD + 1), A(1), false, TT + 1),     // t0im
        op(ONE, B(CD), A(0), true, TT + 2),          // t1re = a_re - c_re
        op(ONE, B(CD + 1), A(1), true, TT + 3),      // t1im
        opc(ONE, B(CD + 2), A(2), false, TT + 4, 0), // t2re = b_re + d_re
        opc(ONE, B(CD + 3), A(3), false, TT + 5, 1), // t2im
        opc(ONE, B(CD + 3), A(3), true, TT + 6, 2),  // t3re = b_im - d_im
        opc(ONE, A(2), B(CD + 2), true, TT + 7, 3),  // t3im = d_re - b_re
    ];
    let l4 = output_layer();
    // keep Reg import used when layers are composed
    let _ = Reg(0);
    vec![l3, l4]
}

/// The shared output layer: `y0 = t0+t2, y1 = t1+t3, y2 = t0−t2, y3 = t1−t3`
/// with t2/t3 arriving through registers 0..3.
fn output_layer() -> Vec<FftOp> {
    use Source::{Reg, SramB as B};
    vec![
        op(ONE, Reg(0), B(TT), false, Y),         // y0re
        op(ONE, Reg(1), B(TT + 1), false, Y + 1), // y0im
        op(ONE, Reg(2), B(TT + 2), false, Y + 2), // y1re
        op(ONE, Reg(3), B(TT + 3), false, Y + 3), // y1im
        op(ONE, Reg(0), B(TT), true, Y + 4),      // y2re
        op(ONE, Reg(1), B(TT + 1), true, Y + 5),  // y2im
        op(ONE, Reg(2), B(TT + 2), true, Y + 6),  // y3re
        op(ONE, Reg(3), B(TT + 3), true, Y + 7),  // y3im
    ]
}

/// Twiddled butterfly (stages 2–3): inputs a,b,c,d in A\[0..8\], twiddles as
/// microcode constants, outputs to B\[Y..Y+8\].
fn twiddle_layers(w1: Complex, w2: Complex, w3: Complex) -> Vec<Vec<FftOp>> {
    use Source::{Const, Reg, SramA as A, SramB as B};
    let l1 = vec![
        op(Const(w1.re), A(2), ZERO, false, T1), // b1re = w1r·b_re
        op(Const(w1.im), A(2), ZERO, false, T1 + 1), // b1im = w1i·b_re
        op(Const(w2.re), A(4), ZERO, false, T1 + 2),
        op(Const(w2.im), A(4), ZERO, false, T1 + 3),
        op(Const(w3.re), A(6), ZERO, false, T1 + 4),
        op(Const(w3.im), A(6), ZERO, false, T1 + 5),
    ];
    let l2 = vec![
        opc(Const(w1.im), A(3), B(T1), true, T2, 0), // b're = b1re − w1i·b_im
        opc(Const(w1.re), A(3), B(T1 + 1), false, T2 + 1, 1), // b'im = b1im + w1r·b_im
        op(Const(w2.im), A(5), B(T1 + 2), true, T2 + 2),
        op(Const(w2.re), A(5), B(T1 + 3), false, T2 + 3),
        op(Const(w3.im), A(7), B(T1 + 4), true, T2 + 4),
        op(Const(w3.re), A(7), B(T1 + 5), false, T2 + 5),
    ];
    let l3 = vec![
        op(ONE, B(T2 + 2), A(0), false, TT),     // t0re = a_re + c're
        op(ONE, B(T2 + 3), A(1), false, TT + 1), // t0im
        op(ONE, B(T2 + 2), A(0), true, TT + 2),  // t1re = a_re − c're
        op(ONE, B(T2 + 3), A(1), true, TT + 3),  // t1im
        opc(ONE, Reg(0), B(T2 + 4), false, TT + 4, 0), // t2re = b're + d're
        opc(ONE, Reg(1), B(T2 + 5), false, TT + 5, 1), // t2im = b'im + d'im
        opc(ONE, B(T2 + 5), Reg(1), true, TT + 6, 2), // t3re = b'im − d'im
        opc(ONE, Reg(0), B(T2 + 4), true, TT + 7, 3), // t3im = d're − b're
    ];
    vec![l1, l2, l3, output_layer()]
}

/// Emit a set of per-PE butterfly layers synchronously: every PE issues one
/// FMA per cycle within a layer, results retire `p` cycles later into
/// B memory (and optionally the register file); the next layer starts after
/// the previous one has fully retired.
#[allow(clippy::needless_range_loop)] // layer indexes parallel per-PE op lists
fn emit_layers(b: &mut ProgramBuilder, p: usize, per_pe: &[Vec<Vec<FftOp>>]) {
    let nr = b.nr();
    let nlayers = per_pe[0].len();
    assert!(per_pe.iter().all(|l| l.len() == nlayers));
    for layer in 0..nlayers {
        let len = per_pe[0][layer].len();
        let w0 = b.len();
        for _ in 0..len + p {
            b.push_step();
        }
        for r in 0..nr {
            for c in 0..nr {
                let ops = &per_pe[r * nr + c][layer];
                assert_eq!(ops.len(), len, "ragged layer");
                for (i, o) in ops.iter().enumerate() {
                    let mut pe = b.pe_mut(w0 + i, r, c);
                    pe.fma = Some((o.a, o.b, o.c));
                    pe.negate_product = o.neg;
                    drop(pe);
                    let mut pe = b.pe_mut(w0 + i + p, r, c);
                    pe.sram_b_write = Some((o.dest, Source::MacResult));
                    if let Some(reg) = o.cap {
                        pe.reg_write = Some((reg, Source::MacResult));
                    }
                }
            }
        }
    }
}

fn digit_reverse_64(q: usize) -> usize {
    ((q & 3) << 4) | (q & 0xc) | (q >> 4)
}

/// Run a 64-point complex FFT on `lac`, returning the spectrum (natural
/// order) and the run's counters. The image holds the signal interleaved
/// (`re` at `2q`, `im` at `2q+1`, natural order) and receives the
/// transform in the same format.
pub(crate) fn fft64(
    lac: &mut Lac,
    signal: &[Complex],
) -> Result<(Vec<Complex>, ExecStats), SimError> {
    let nr = lac.config().nr;
    assert_eq!(nr, 4, "the 64-point kernel is written for the 4×4 core");
    let p = lac.config().fpu.pipeline_depth;
    assert!(
        lac.config().sram_b_words >= B_WORDS_NEEDED,
        "B memory too small for FFT scratch"
    );
    assert!(lac.config().sram_a_words >= 8);
    assert!(lac.config().rf_entries >= 4);

    let mut b = ProgramBuilder::new(nr);

    // ---- load with digit reversal (Figure B.2's input staging) -----------
    // PE(r,c) slot s holds x_dr[4g + s], g = 4r + c; slots 0,1 → A, 2,3 → B.
    for t in 0..32 {
        let step = b.push_step();
        for c in 0..nr {
            let r = t / 8;
            let word = t % 8; // slot s = word/2, re/im = word%2
            let s = word / 2;
            let reim = word % 2;
            let g = 4 * r + c;
            let src = 2 * digit_reverse_64(4 * g + s) + reim;
            b.ext(step, ExtOp::Load { col: c, addr: src });
            let mut pe = b.pe_mut(step, r, c);
            if s < 2 {
                pe.sram_a_write = Some((2 * s + reim, Source::ColBus));
            } else {
                pe.sram_b_write = Some((CD + 2 * (s - 2) + reim, Source::ColBus));
            }
        }
    }

    // ---- stage 1: local butterflies, no twiddles --------------------------
    let s1: Vec<Vec<Vec<FftOp>>> = (0..16).map(|_| stage1_layers()).collect();
    emit_layers(&mut b, p, &s1);

    // ---- row exchange into stage-2 inputs ---------------------------------
    // Receiver PE(h,k) input slot c ← PE(h,c)'s Y slot k.
    {
        let mut cycle_ops: Vec<(usize, usize, usize)> = Vec::new(); // (k, c, reim)
        for k in 0..4 {
            for c in 0..4 {
                if c != k {
                    cycle_ops.push((k, c, 0));
                    cycle_ops.push((k, c, 1));
                }
            }
        }
        for (k, c, reim) in cycle_ops {
            let step = b.push_step();
            for h in 0..4 {
                b.pe_mut(step, h, c).row_write = Some(Source::SramB(Y + 2 * k + reim));
                b.pe_mut(step, h, k).sram_a_write = Some((2 * c + reim, Source::RowBus));
            }
        }
        for reim in 0..2 {
            let step = b.push_step();
            for h in 0..4 {
                for k in 0..4 {
                    b.pe_mut(step, h, k).sram_a_write =
                        Some((2 * k + reim, Source::SramB(Y + 2 * k + reim)));
                }
            }
        }
    }

    // ---- stage 2: twiddled butterflies (w = e^{-2πik/16}) -----------------
    let s2: Vec<Vec<Vec<FftOp>>> = (0..16)
        .map(|idx| {
            let k = idx % 4; // mesh column = butterfly index
            let ang = -2.0 * PI * k as f64 / 16.0;
            twiddle_layers(
                Complex::cis(ang),
                Complex::cis(2.0 * ang),
                Complex::cis(3.0 * ang),
            )
        })
        .collect();
    emit_layers(&mut b, p, &s2);

    // ---- row scatter: y_m of PE(h,k) → HOME slot k of PE(h,m) --------------
    {
        for k in 0..4 {
            for m in 0..4 {
                if m != k {
                    for reim in 0..2 {
                        let step = b.push_step();
                        for h in 0..4 {
                            b.pe_mut(step, h, k).row_write = Some(Source::SramB(Y + 2 * m + reim));
                            b.pe_mut(step, h, m).sram_b_write =
                                Some((HOME + 2 * k + reim, Source::RowBus));
                        }
                    }
                }
            }
        }
        for reim in 0..2 {
            let step = b.push_step();
            for h in 0..4 {
                for k in 0..4 {
                    b.pe_mut(step, h, k).sram_b_write =
                        Some((HOME + 2 * k + reim, Source::SramB(Y + 2 * k + reim)));
                }
            }
        }
    }

    // ---- column exchange into stage-3 inputs -------------------------------
    // Receiver PE(bb,a) input slot m ← PE(m,a)'s HOME slot bb.
    {
        for bb in 0..4 {
            for m in 0..4 {
                if m != bb {
                    for reim in 0..2 {
                        let step = b.push_step();
                        for a in 0..4 {
                            b.pe_mut(step, m, a).col_write =
                                Some(Source::SramB(HOME + 2 * bb + reim));
                            b.pe_mut(step, bb, a).sram_a_write =
                                Some((2 * m + reim, Source::ColBus));
                        }
                    }
                }
            }
        }
        for reim in 0..2 {
            let step = b.push_step();
            for a in 0..4 {
                for bb in 0..4 {
                    b.pe_mut(step, bb, a).sram_a_write =
                        Some((2 * bb + reim, Source::SramB(HOME + 2 * bb + reim)));
                }
            }
        }
    }

    // ---- stage 3: twiddled butterflies (w = e^{-2πik3/64}, k3 = 4a + b) ----
    let s3: Vec<Vec<Vec<FftOp>>> = (0..16)
        .map(|idx| {
            let (bb, a) = (idx / 4, idx % 4);
            let k3 = (4 * a + bb) as f64;
            let ang = -2.0 * PI * k3 / 64.0;
            twiddle_layers(
                Complex::cis(ang),
                Complex::cis(2.0 * ang),
                Complex::cis(3.0 * ang),
            )
        })
        .collect();
    emit_layers(&mut b, p, &s3);

    // ---- column scatter: y_m of PE(bb,a) → HOME slot bb of PE(m,a) ---------
    {
        for bb in 0..4 {
            for m in 0..4 {
                if m != bb {
                    for reim in 0..2 {
                        let step = b.push_step();
                        for a in 0..4 {
                            b.pe_mut(step, bb, a).col_write = Some(Source::SramB(Y + 2 * m + reim));
                            b.pe_mut(step, m, a).sram_b_write =
                                Some((HOME + 2 * bb + reim, Source::ColBus));
                        }
                    }
                }
            }
        }
        for reim in 0..2 {
            let step = b.push_step();
            for a in 0..4 {
                for bb in 0..4 {
                    b.pe_mut(step, bb, a).sram_b_write =
                        Some((HOME + 2 * bb + reim, Source::SramB(Y + 2 * bb + reim)));
                }
            }
        }
    }

    // ---- store: natural order ----------------------------------------------
    for t in 0..32 {
        let step = b.push_step();
        for c in 0..nr {
            let r = t / 8;
            let word = t % 8;
            let s = word / 2;
            let reim = word % 2;
            let g = 4 * r + c;
            let dst = 2 * (4 * g + s) + reim;
            b.pe_mut(step, r, c).col_write = Some(Source::SramB(HOME + 2 * s + reim));
            b.ext(step, ExtOp::Store { col: c, addr: dst });
        }
    }

    let image = signal.iter().flat_map(|v| [v.re, v.im]).collect();
    let mut mem = ExternalMem::from_vec(image);
    let stats = lac.run(&b.build(), &mut mem)?;
    let spectrum = (0..64)
        .map(|q| Complex::new(mem.read(2 * q), mem.read(2 * q + 1)))
        .collect();
    Ok((spectrum, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::LacConfig;
    use linalg_ref::complex::max_cdiff;
    use linalg_ref::fft_radix4;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fft_cfg() -> LacConfig {
        LacConfig {
            sram_b_words: 64,
            sram_a_words: 64,
            ..Default::default()
        }
    }

    fn run_case(x: &[Complex]) -> (Vec<Complex>, ExecStats) {
        let mut lac = Lac::new(fft_cfg());
        fft64(&mut lac, x).unwrap()
    }

    #[test]
    fn impulse() {
        let mut x = vec![Complex::ZERO; 64];
        x[0] = Complex::ONE;
        let (out, _) = run_case(&x);
        for v in &out {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_reference_fft() {
        let mut rng = StdRng::seed_from_u64(7);
        let x: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let (out, stats) = run_case(&x);
        let mut expect = x;
        fft_radix4(&mut expect);
        assert!(max_cdiff(&out, &expect) < 1e-10);
        // 3 stages/PE: 16 + 28 + 28 FMAs.
        assert_eq!(stats.fma_ops / 16, 72);
    }

    #[test]
    fn pure_tone_picks_single_bin() {
        let f = 5usize;
        let x: Vec<Complex> = (0..64)
            .map(|q| Complex::cis(2.0 * PI * (f * q) as f64 / 64.0))
            .collect();
        let (out, _) = run_case(&x);
        for (k, v) in out.iter().enumerate() {
            if k == f {
                assert!((v.re - 64.0).abs() < 1e-9, "bin {k}: {v:?}");
            } else {
                assert!(v.abs() < 1e-9, "bin {k} leak: {v:?}");
            }
        }
    }

    #[test]
    fn cycle_budget_reasonable() {
        // Load(32) + 3 compute stages + 4 exchanges + store(32): the whole
        // transform should land in a few hundred cycles (Appendix B's
        // cache-contained regime).
        let x = vec![Complex::ONE; 64];
        let (_, stats) = run_case(&x);
        assert!(stats.cycles < 600, "cycles = {}", stats.cycles);
        assert!(stats.cycles > 150);
    }
}
