//! Differential property suite: the compiled backend is bit-identical to
//! the interpreter — same memory and accumulator bits, same [`ExecStats`],
//! same hazard errors — across randomly generated programs, configuration
//! variants, and cache-hit replays. This is the contract that makes
//! `ExecBackend::Compiled` a pure host-speed knob.

use lac_fpu::{DivSqrtImpl, DivSqrtOp, FpuConfig, Precision};
use lac_sim::{
    compile, CmpUpdate, ExecBackend, ExecStats, ExtOp, ExternalMem, Lac, LacConfig, MicroOp,
    PeInstr, Program, ProgramBuilder, ProgramCache, SimError, Source,
};
use proptest::prelude::*;

fn cfg(backend: ExecBackend) -> LacConfig {
    LacConfig {
        nr: 4,
        sram_a_words: 64,
        sram_b_words: 64,
        comparator_extension: true,
        backend,
        ..Default::default()
    }
}

/// Every architecturally visible bit of a core plus its memory bank:
/// accumulators (wide state via `acc`), registers, both SRAMs, external
/// memory — all as raw bit patterns so `-0.0 != 0.0` and NaN payloads
/// count.
fn snapshot(lac: &mut Lac, mem: &ExternalMem) -> Vec<u64> {
    let nr = lac.config().nr;
    let rf = lac.config().rf_entries;
    let mut bits = Vec::new();
    for r in 0..nr {
        for c in 0..nr {
            bits.push(lac.acc(r, c).to_bits());
            for i in 0..rf {
                bits.push(lac.reg(r, c, i).to_bits());
            }
        }
    }
    for r in 0..nr {
        for c in 0..nr {
            bits.extend(lac.sram_a_mut(r, c).iter().map(|v| v.to_bits()));
            bits.extend(lac.sram_b_mut(r, c).iter().map(|v| v.to_bits()));
        }
    }
    bits.extend(mem.as_slice().iter().map(|v| v.to_bits()));
    bits
}

/// Run `prog` on a fresh core per backend (same config apart from the
/// backend knob, same memory image) and demand identical results: the
/// run outcome (stats or error), the lifetime stats, and every
/// architectural bit.
fn assert_identical(base: LacConfig, prog: &Program, image: &[f64]) -> Result<ExecStats, SimError> {
    let mut outcomes = Vec::new();
    for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
        let mut lac = Lac::new(LacConfig { backend, ..base });
        let mut mem = ExternalMem::from_vec(image.to_vec());
        let res = lac.run(prog, &mut mem);
        let lifetime = *lac.session_stats();
        outcomes.push((res, lifetime, snapshot(&mut lac, &mem)));
    }
    let (compiled, interp) = (outcomes.pop().unwrap(), outcomes.pop().unwrap());
    assert_eq!(&interp.0, &compiled.0, "run outcome diverged");
    assert_eq!(&interp.1, &compiled.1, "lifetime stats diverged");
    assert_eq!(&interp.2, &compiled.2, "architectural bits diverged");
    interp.0
}

/// One random "round" of program material. Each variant exercises a
/// different op class of the tape: bus broadcasts + MACs, external
/// traffic, free-standing FMAs, SFU ops, comparator updates, accumulator
/// loads + stores, SRAM writes.
fn push_round(b: &mut ProgramBuilder, op_sel: u8, addr_sel: u8, flag: bool, base: &LacConfig) {
    let p = base.fpu.pipeline_depth;
    let q = base.divsqrt.latency(DivSqrtOp::InvSqrt);
    let a = (addr_sel % 32) as usize;
    match op_sel % 8 {
        0 => {
            // Row broadcasts feeding MACs everywhere (optionally negated).
            let t = b.push_step();
            let oc = (addr_sel % 4) as usize;
            for r in 0..4 {
                b.pe_mut(t, r, oc).row_write = Some(Source::SramA(a));
            }
            for r in 0..4 {
                for c in 0..4 {
                    let mut pe = b.pe_mut(t, r, c);
                    pe.mac = Some((Source::RowBus, Source::SramB(a % 8)));
                    pe.negate_product = flag;
                }
            }
            b.idle(p);
        }
        1 => {
            // External loads on every column bus into registers / B-SRAM.
            let t = b.push_step();
            for col in 0..4 {
                b.ext(
                    t,
                    ExtOp::Load {
                        col,
                        addr: col + a % 8,
                    },
                );
                if flag {
                    b.pe_mut(t, col, col).reg_write = Some((0, Source::ColBus));
                } else {
                    b.pe_mut(t, col, col).sram_b_write = Some((a % 16, Source::ColBus));
                }
            }
        }
        2 => {
            // Free-standing FMAs; latch the retired result into a register.
            let t = b.push_step();
            for r in 0..4 {
                for c in 0..4 {
                    let mut pe = b.pe_mut(t, r, c);
                    pe.fma = Some((
                        Source::Reg(0),
                        Source::SramB(a % 8),
                        Source::Const(0.25 * a as f64),
                    ));
                    pe.negate_product = flag;
                }
            }
            b.idle(p - 1);
            let t = b.push_step();
            for r in 0..4 {
                for c in 0..4 {
                    b.pe_mut(t, r, c).reg_write = Some((1, Source::MacResult));
                }
            }
        }
        3 => {
            // SFU op on the diagonal, result read back after its latency.
            let d = (addr_sel % 4) as usize;
            let t = b.push_step();
            b.pe_mut(t, d, d).sfu = Some((
                if flag {
                    DivSqrtOp::InvSqrt
                } else {
                    DivSqrtOp::Sqrt
                },
                Source::Const(2.0 + a as f64),
                Source::Const(0.0),
            ));
            b.idle(q + 3);
            let t = b.push_step();
            b.pe_mut(t, d, d).reg_write = Some((2, Source::SfuResult));
        }
        4 => {
            // Comparator micro-op (pivot search) on every PE.
            let t = b.push_step();
            for r in 0..4 {
                for c in 0..4 {
                    b.pe_mut(t, r, c).cmp_update = Some(CmpUpdate {
                        value: Source::SramB((a + r) % 16),
                        tag: a as f64,
                        val_reg: 0,
                        tag_reg: 3,
                    });
                }
            }
        }
        5 => {
            // Accumulator load (pipelines drained by the pads above),
            // then stream one row out over the column buses.
            let t = b.push_step();
            for r in 0..4 {
                for c in 0..4 {
                    b.pe_mut(t, r, c).acc_load = Some(Source::Const(a as f64 - 7.0));
                }
            }
            let t = b.push_step();
            let row = (addr_sel % 4) as usize;
            for c in 0..4 {
                b.pe_mut(t, row, c).col_write = Some(Source::Acc);
                b.ext(
                    t,
                    ExtOp::Store {
                        col: c,
                        addr: 8 + c,
                    },
                );
            }
        }
        6 => {
            // SRAM writes from constants.
            let t = b.push_step();
            for r in 0..4 {
                for c in 0..4 {
                    let mut pe = b.pe_mut(t, r, c);
                    if flag {
                        pe.sram_a_write = Some((a, Source::Const(a as f64 + 0.5)));
                    } else {
                        pe.sram_b_write = Some((a % 16, Source::Const(-(a as f64))));
                    }
                }
            }
        }
        _ => {
            // Idle padding (hashes by count, not content).
            b.idle(1 + (addr_sel % 3) as usize);
        }
    }
}

fn build_program(rounds: &[(u8, u8, bool)], base: &LacConfig) -> Program {
    let mut b = ProgramBuilder::new(4);
    for &(op_sel, addr_sel, flag) in rounds {
        push_round(&mut b, op_sel, addr_sel, flag, base);
    }
    // Drain so programs usually stay tape-eligible (no pipeline carry-out).
    b.idle(base.fpu.pipeline_depth);
    b.build()
}

/// A source chosen by `v` (every variant reachable).
fn source(v: u8) -> Source {
    match v % 9 {
        0 => Source::RowBus,
        1 => Source::ColBus,
        2 => Source::SramA(v as usize),
        3 => Source::SramB(v as usize),
        4 => Source::Reg(v as usize % 4),
        5 => Source::Acc,
        6 => Source::MacResult,
        7 => Source::SfuResult,
        _ => Source::Const(v as f64 - 100.0),
    }
}

/// An instruction with the fields `mask` selects set (bit `i` = the
/// `i`-th field in declaration order); `mask == 0` or only the negate
/// bit gives an idle PE.
fn masked_instr(mask: u16, v: u8) -> PeInstr {
    let s = |k: u8| source(v.wrapping_add(k.wrapping_mul(31)));
    let on = |bit: u16| mask & (1 << bit) != 0;
    PeInstr {
        row_write: on(0).then(|| s(0)),
        col_write: on(1).then(|| s(1)),
        mac: on(2).then(|| (s(2), s(3))),
        fma: on(3).then(|| (s(4), s(5), s(6))),
        negate_product: on(4),
        cmp_update: on(5).then(|| CmpUpdate {
            value: s(7),
            tag: v as f64,
            val_reg: 0,
            tag_reg: 1,
        }),
        acc_load: on(6).then(|| s(8)),
        sram_a_write: on(7).then(|| (v as usize, s(9))),
        sram_b_write: on(8).then(|| (v as usize / 2, s(10))),
        reg_write: on(9).then(|| (v as usize % 4, s(11))),
        sfu: on(10).then(|| (DivSqrtOp::Divide, s(12), s(13))),
    }
}

fn image() -> Vec<f64> {
    (0..64).map(|i| (i as f64) * 0.5 - 3.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random mixed programs: outputs, stats, and architectural bits are
    // identical across backends.
    #[test]
    fn backends_bit_identical(
        rounds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12)
    ) {
        let base = cfg(ExecBackend::Interpreter);
        let prog = build_program(&rounds, &base);
        let res = assert_identical(base, &prog, &image());
        prop_assert!(res.is_ok(), "generator emitted a hazard: {res:?}");
    }

    // Random programs with a hazard appended: both backends report the
    // *same* error (kind and cycle) — the compiled backend's fallback
    // reproduces interpreter diagnostics exactly.
    #[test]
    fn hazard_errors_identical(
        rounds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
        hazard in any::<u8>(),
    ) {
        let base = cfg(ExecBackend::Interpreter);
        let mut b = ProgramBuilder::new(4);
        for &(op_sel, addr_sel, flag) in &rounds {
            push_round(&mut b, op_sel, addr_sel, flag, &base);
        }
        match hazard % 5 {
            0 => {
                // Out-of-range A read.
                let t = b.push_step();
                b.pe_mut(t, 0, 0).mac = Some((Source::SramA(999), Source::Const(1.0)));
            }
            1 => {
                // Column-bus conflict: external load vs PE writer.
                let t = b.push_step();
                b.ext(t, ExtOp::Load { col: 1, addr: 0 });
                b.pe_mut(t, 2, 1).col_write = Some(Source::Const(1.0));
            }
            2 => {
                // Register file out of range.
                let t = b.push_step();
                b.pe_mut(t, 3, 3).reg_write = Some((99, Source::Const(1.0)));
            }
            3 => {
                // Three B-SRAM reads in one cycle (two ports).
                let t = b.push_step();
                let mut pe = b.pe_mut(t, 1, 1);
                pe.mac = Some((Source::SramB(0), Source::SramB(1)));
                pe.reg_write = Some((0, Source::SramB(2)));
            }
            _ => {
                // Accumulator read while the MAC pipeline is busy.
                let t = b.push_step();
                b.pe_mut(t, 2, 2).mac = Some((Source::Const(1.0), Source::Const(1.0)));
                let t = b.push_step();
                b.pe_mut(t, 2, 2).row_write = Some(Source::Acc);
            }
        }
        let prog = b.build();
        let res = assert_identical(base, &prog, &image());
        prop_assert!(res.is_err(), "hazard did not fire");
    }

    // The packed store gives back exactly what the builder was given:
    // per step, the non-idle instructions in ascending PE order, each as
    // micro-ops in field order, and the transfers in push order; `len()`
    // counts idle cycles too. A clone has the same content and hash.
    #[test]
    fn packed_steps_return_exactly_the_scheduled_instructions(
        n in 1usize..24,
        writes in prop::collection::vec(
            ((any::<u8>(), any::<u8>()), any::<u16>(), any::<u8>(), any::<bool>()),
            0..48,
        ),
        transfers in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            0..12,
        ),
    ) {
        let nr = 4;
        let mut b = ProgramBuilder::new(nr);
        for t in 0..n {
            if t % 2 == 0 {
                b.push_step();
            } else {
                b.idle(1);
            }
        }
        let mut dense = vec![vec![PeInstr::default(); nr * nr]; n];
        let mut ext = vec![Vec::new(); n];
        for &((t, pe), mask, v, via_set) in &writes {
            let (t, idx) = (t as usize % n, pe as usize % (nr * nr));
            let instr = masked_instr(mask, v);
            if via_set && dense[t][idx].is_nop() {
                b.set_pe(t, idx / nr, idx % nr, instr.clone());
            } else {
                *b.pe_mut(t, idx / nr, idx % nr) = instr.clone();
            }
            dense[t][idx] = instr;
        }
        for &(t, col, addr, load) in &transfers {
            let (col, addr) = (col as usize % nr, addr as usize);
            let op = if load { ExtOp::Load { col, addr } } else { ExtOp::Store { col, addr } };
            b.ext(t as usize % n, op);
            ext[t as usize % n].push(op);
        }
        let prog = b.build();
        prop_assert_eq!(prog.len(), n);
        for (prog, label) in [(&prog, "built"), (&prog.clone(), "clone")] {
            for (t, step) in prog.steps().enumerate() {
                let expect: Vec<(usize, PeInstr)> = dense[t]
                    .iter()
                    .cloned()
                    .enumerate()
                    .filter(|(_, pi)| !pi.is_nop())
                    .collect();
                let got: Vec<(usize, PeInstr)> =
                    step.pes().map(|(i, ops)| (i, ops.to_instr())).collect();
                prop_assert_eq!(&got, &expect, "{} step {}", label, t);
                for (i, ops) in step.pes() {
                    let ops: Vec<MicroOp> = ops.iter().collect();
                    let fields: Vec<MicroOp> = dense[t][i].micro_ops().collect();
                    prop_assert_eq!(ops, fields, "{} step {} PE {}", label, t, i);
                }
                prop_assert_eq!(step.ext(), &ext[t][..], "{} step {}", label, t);
            }
        }
        prop_assert_eq!(prog.clone().structural_hash(), prog.structural_hash());
    }

    // A program's external extent is stated once: every program that
    // compiles needs exactly the bank `Program::ext_words` sizes.
    #[test]
    fn min_mem_words_is_the_external_extent(
        rounds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12)
    ) {
        let base = cfg(ExecBackend::Compiled);
        let prog = build_program(&rounds, &base);
        if let Ok(cp) = compile(&base, &prog) {
            prop_assert_eq!(cp.min_mem_words(), prog.ext_words());
        }
    }

    // A cache hit replays bit-identically to the cold compile: the same
    // structural program run twice through one compiled-backend core
    // matches two independent interpreter runs, state for state.
    #[test]
    fn cache_hit_matches_cold_compile(
        rounds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..8)
    ) {
        let base = cfg(ExecBackend::Interpreter);
        let prog = build_program(&rounds, &base);

        let mut runs = Vec::new();
        for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
            let mut lac = Lac::new(LacConfig { backend, ..base });
            let mut mem = ExternalMem::from_vec(image());
            // Clone per run: each clone re-hashes, so the second compiled
            // run exercises the cache-hit path with a fresh Program value.
            let s1 = lac.run(&prog.clone(), &mut mem).unwrap();
            let s2 = lac.run(&prog.clone(), &mut mem).unwrap();
            runs.push((s1, s2, snapshot(&mut lac, &mem)));
        }
        let (interp, compiled) = (&runs[0], &runs[1]);
        prop_assert_eq!(&interp.0, &compiled.0);
        prop_assert_eq!(&interp.1, &compiled.1);
        prop_assert_eq!(&interp.2, &compiled.2);
    }
}

/// The backends agree under every architectural configuration variant:
/// single precision, the extended-exponent accumulator, each
/// divide/square-root implementation, comparator on/off.
#[test]
fn config_sweep_bit_identical() {
    let variants: Vec<LacConfig> = vec![
        cfg(ExecBackend::Interpreter),
        LacConfig {
            fpu: FpuConfig {
                precision: Precision::Single,
                ..FpuConfig::default()
            },
            ..cfg(ExecBackend::Interpreter)
        },
        LacConfig {
            fpu: FpuConfig {
                exponent_extension: true,
                ..FpuConfig::default()
            },
            ..cfg(ExecBackend::Interpreter)
        },
        LacConfig {
            fpu: FpuConfig {
                pipeline_depth: 8,
                ..FpuConfig::default()
            },
            ..cfg(ExecBackend::Interpreter)
        },
        LacConfig {
            divsqrt: DivSqrtImpl::Software,
            ..cfg(ExecBackend::Interpreter)
        },
        LacConfig {
            divsqrt: DivSqrtImpl::DiagonalPes,
            ..cfg(ExecBackend::Interpreter)
        },
        LacConfig {
            comparator_extension: false,
            ..cfg(ExecBackend::Interpreter)
        },
    ];
    // A fixed mixed program touching MACs, FMAs, SFU, comparator, ext
    // traffic, SRAM and accumulator paths.
    let rounds: Vec<(u8, u8, bool)> = (0..10u8)
        .map(|i| (i, i.wrapping_mul(37), i % 2 == 0))
        .collect();
    for base in variants {
        let rounds: Vec<_> = if base.comparator_extension {
            rounds.clone()
        } else {
            // Comparator rounds would hazard without the extension —
            // identically on both backends, but keep this variant green.
            rounds.iter().copied().filter(|r| r.0 % 8 != 4).collect()
        };
        let prog = build_program(&rounds, &base);
        let res = assert_identical(base, &prog, &image());
        assert!(
            res.is_ok(),
            "variant hazarded: {res:?} (divsqrt {:?})",
            base.divsqrt
        );
    }
}

/// Cores sharing a [`ProgramCache`] compile each distinct program once;
/// later cores get cache hits and still produce bit-identical state.
#[test]
fn shared_cache_compiles_once_across_cores() {
    let base = cfg(ExecBackend::Compiled);
    let rounds: Vec<(u8, u8, bool)> = (0..6u8).map(|i| (i, i * 11, false)).collect();
    let prog = build_program(&rounds, &base);

    let cache = ProgramCache::new();
    let mut snapshots = Vec::new();
    for _ in 0..3 {
        let mut lac = Lac::new(base);
        lac.set_program_cache(cache.clone());
        let mut mem = ExternalMem::from_vec(image());
        lac.run(&prog, &mut mem).unwrap();
        snapshots.push(snapshot(&mut lac, &mem));
    }
    assert_eq!(cache.stats().entries, 1, "one distinct program");
    assert_eq!(cache.stats().misses, 1, "compiled exactly once");
    assert_eq!(cache.stats().hits, 2, "two cores reused the tape");
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[1], snapshots[2]);
}
