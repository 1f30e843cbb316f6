//! Core-level integration test: every workload in the registry runs on
//! one `Lac` core in the default 4×4 configuration (its counters are the
//! session), and its
//! functional output is cross-checked against `linalg-ref` by the
//! workload's own `check`. No kernel is named — new registry entries are
//! covered automatically. The session is the core's counters: one meter,
//! whatever runs on the core and however it fails.

use lap::lac_kernels::{
    registry, registry_chip_config, registry_sized, Details, KernelReport, ProblemSize,
    SolverLoopWorkload,
};
use lap::lac_power::{EnergyModel, SessionEnergy};
use lap::lac_sim::error::HazardKind;
use lap::lac_sim::{
    ChipJob, ExecBackend, ExecStats, ExtOp, ExternalMem, JobGraph, Lac, LacConfig, Program,
    ProgramBuilder, Source,
};
use proptest::prelude::*;

#[test]
fn every_registry_workload_runs_and_verifies_on_default_config() {
    let workloads = registry();
    assert!(workloads.len() >= 12, "registry covers every kernel");
    for w in &workloads {
        let cfg = w.config(LacConfig::default());
        let mut lac = Lac::new(cfg);
        let report = w
            .run(&mut lac)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
        w.check(&report)
            .unwrap_or_else(|e| panic!("verification failed: {e}"));

        assert_eq!(report.kernel, w.name());
        assert!(report.stats.cycles > 0, "{}: no cycles simulated", w.name());
        assert!(report.useful_flops > 0, "{}: no useful work", w.name());
        assert!(
            (0.0..=1.0).contains(&report.utilization),
            "{}: utilization {} out of range",
            w.name(),
            report.utilization
        );
        // The session grew by exactly this run's stats.
        assert_eq!(
            *lac.session_stats(),
            report.stats,
            "{}: workload not metered",
            w.name()
        );
    }
}

#[test]
fn one_session_runs_the_whole_registry_back_to_back() {
    // The core survives arbitrary workload sequences with state reuse;
    // its session equals the sum of the per-run reports, and the
    // accumulated stats price out to a positive energy.
    let mut lac = Lac::new(shared_config());
    let mut total = ExecStats::default();
    for w in registry() {
        let report = w
            .run(&mut lac)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
        w.check(&report)
            .unwrap_or_else(|e| panic!("verification failed: {e}"));
        total.merge(&report.stats);
    }
    assert_eq!(*lac.session_stats(), total);
    let energy = lac.energy_summary(&EnergyModel::lac_default());
    assert!(energy.energy_nj > 0.0 && energy.avg_power_mw > 0.0);
}

/// A single configuration every registry workload can run on: the default
/// core plus the wide accumulator (harmless for kernels that ignore it).
fn shared_config() -> LacConfig {
    let mut cfg = LacConfig::default();
    for w in registry() {
        cfg = w.config(cfg);
    }
    cfg
}

/// One load and one MAC on PE (0,0), drained — plus, with `hazard`, a
/// final load past the end of an 8-word bank, which fails the run after
/// every earlier step has simulated.
fn mac_program(nr: usize, depth: usize, hazard: bool) -> Program {
    let mut b = ProgramBuilder::new(nr);
    let t = b.push_step();
    b.ext(t, ExtOp::Load { col: 0, addr: 0 });
    b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
    let t = b.push_step();
    b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
    b.idle(depth);
    if hazard {
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 8 });
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // After any sequence of registry workloads, solver-graph jobs,
    // hazarding programs and resets, the session (the core's counters)
    // equals the sum of what every run since the last reset reported
    // — a failed program's partial cycles included.
    #[test]
    fn the_session_is_the_cores_counters(
        ops in prop::collection::vec((0usize..4, any::<u8>()), 1..7),
        compiled in any::<bool>(),
    ) {
        let backend = if compiled { ExecBackend::Compiled } else { ExecBackend::Interpreter };
        let cfg = LacConfig { backend, ..shared_config() };
        let workloads = registry();
        let (nr, depth) = (cfg.nr, cfg.fpu.pipeline_depth);
        let partial = Lac::new(cfg)
            .run(&mac_program(nr, depth, false), &mut ExternalMem::new(8))
            .unwrap();
        let mut lac = Lac::new(cfg);
        let mut expected = ExecStats::default();
        for (op, pick) in ops {
            match op {
                0 => {
                    let w = &workloads[pick as usize % workloads.len()];
                    expected.merge(&w.run(&mut lac).unwrap().stats);
                }
                1 => {
                    // Submission order is a topological order.
                    let mut solver = JobGraph::new();
                    for id in solver.append(SolverLoopWorkload::demo().graph().graph) {
                        expected.merge(&solver.job(id).run_on(&mut lac).unwrap().stats);
                    }
                }
                2 => {
                    let err = lac
                        .run(&mac_program(nr, depth, true), &mut ExternalMem::new(8))
                        .unwrap_err();
                    prop_assert!(matches!(err.kind, HazardKind::ExtOutOfRange { .. }));
                    prop_assert_eq!(err.cycle as u64, partial.cycles);
                    expected.merge(&partial);
                }
                _ => {
                    lac.reset_session();
                    expected = ExecStats::default();
                }
            }
            prop_assert_eq!(lac.session_stats(), &expected);
        }
    }
}

/// FNV-1a over 64-bit words: a stable digest of report bits.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn stats(&mut self, s: &ExecStats) {
        for w in [
            s.cycles,
            s.mac_ops,
            s.fma_ops,
            s.sfu_ops,
            s.cmp_ops,
            s.sram_a_reads,
            s.sram_a_writes,
            s.sram_b_reads,
            s.sram_b_writes,
            s.rf_reads,
            s.rf_writes,
            s.row_bus_transfers,
            s.col_bus_transfers,
            s.ext_reads,
            s.ext_writes,
            s.acc_accesses,
            s.active_cycles,
        ] {
            self.word(w);
        }
    }

    fn report(&mut self, r: &KernelReport) {
        for byte in r.kernel.bytes() {
            self.word(u64::from(byte));
        }
        self.stats(&r.stats);
        self.word(r.useful_flops);
        self.word(r.utilization.to_bits());
        match &r.details {
            Details::Gemm { c } | Details::Syrk { c } => self.floats(c.as_slice()),
            Details::Trsm { x } => self.floats(x.as_slice()),
            Details::Cholesky { l } => self.floats(l.as_slice()),
            Details::Lu(lu) => {
                self.floats(lu.factors.as_slice());
                for &p in &lu.pivots {
                    self.word(p as u64);
                }
            }
            Details::Qr(qr) => {
                self.floats(qr.r.as_slice());
                for h in &qr.reflectors {
                    self.floats(&h.u2);
                    self.floats(&[h.tau, h.rho]);
                }
            }
            Details::Vecnorm { norm } => self.word(norm.to_bits()),
            Details::Fft { spectrum } => {
                for z in spectrum {
                    self.floats(&[z.re, z.im]);
                }
            }
            Details::Solver(s) => {
                for l in &s.factors {
                    self.floats(l.as_slice());
                }
                self.floats(s.final_a.as_slice());
            }
            other => panic!("no registry workload reports {other:?}"),
        }
    }
}

#[test]
fn registry_reports_are_pinned() {
    // Every output bit, counter and utilization of every registry
    // workload, run back to back on one engine per suite, plus the
    // session it leaves: a kernel refactor must keep all of them.
    let suites = [
        ("registry", registry()),
        ("small", registry_sized(ProblemSize::Small)),
        ("medium", registry_sized(ProblemSize::Medium)),
        ("large", registry_sized(ProblemSize::Large)),
    ];
    // Recorded before the kernels moved their operand images out of the
    // engine-owned bank.
    let pins: [u64; 4] = [
        0x260d_ada4_b85e_cdb3,
        0x9e2a_bdc3_c751_a778,
        0xba12_755c_10a1_efaf,
        0x31d8_ad91_e562_2218,
    ];
    let cfg = registry_chip_config(LacConfig::default());
    let digests: Vec<(&str, u64)> = suites
        .into_iter()
        .map(|(name, workloads)| {
            let mut lac = Lac::new(cfg);
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for w in &workloads {
                let report = w
                    .run(&mut lac)
                    .unwrap_or_else(|e| panic!("{name} {}: {e:?}", w.name()));
                h.report(&report);
            }
            h.stats(lac.session_stats());
            (name, h.0)
        })
        .collect();
    for ((name, got), pin) in digests.iter().zip(pins) {
        assert_eq!(*got, pin, "{name}: digest {got:#018x}; all: {digests:x?}");
    }
}
