//! Failure-injection suite: every structural hazard the simulator enforces
//! must actually fire — a mis-scheduled microprogram can never silently
//! produce a wrong cycle count (the guarantee the kernel generators build
//! on).

use lac_fpu::{DivSqrtImpl, DivSqrtOp};
use lac_sim::error::HazardKind;
use lac_sim::{
    ExecBackend, ExtOp, ExternalMem, Lac, LacConfig, PeInstr, ProgramBuilder, SimError, Source,
};

fn cfg() -> LacConfig {
    LacConfig {
        nr: 4,
        sram_a_words: 32,
        sram_b_words: 32,
        ..Default::default()
    }
}

fn run_one(builder: ProgramBuilder, config: LacConfig) -> Result<(), SimError> {
    let mut lac = Lac::new(config);
    let mut mem = ExternalMem::new(64);
    lac.run(&builder.build(), &mut mem).map(|_| ())
}

#[test]
fn col_bus_conflict_pe_vs_external() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.ext(t, ExtOp::Load { col: 1, addr: 0 });
    b.pe_mut(t, 2, 1).col_write = Some(Source::Const(1.0));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::ColBusConflict { col: 1 }));
}

#[test]
fn sram_out_of_range_read() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 0, 0).mac = Some((Source::SramA(999), Source::Const(1.0)));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(
        e.kind,
        HazardKind::SramOutOfRange {
            which: 'A',
            addr: 999,
            ..
        }
    ));
}

#[test]
fn sram_b_out_of_range_write() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 0, 0).sram_b_write = Some((999, Source::Const(1.0)));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(
        e.kind,
        HazardKind::SramOutOfRange { which: 'B', .. }
    ));
}

#[test]
fn register_out_of_range() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 1, 1).reg_write = Some((17, Source::Const(0.0)));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::RegOutOfRange { idx: 17, .. }));
}

#[test]
fn out_of_range_addresses_report_their_exact_value() {
    // Addresses past the 28-bit inline payload of a packed micro-op are
    // kept exactly, so the hazard names the scheduled address on either
    // backend.
    for addr in [(1 << 28) - 1, 1 << 28, usize::MAX] {
        for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
            let mut b = ProgramBuilder::new(4);
            let t = b.push_step();
            b.pe_mut(t, 1, 2).sram_a_write = Some((addr, Source::Const(1.0)));
            let e = run_one(b, LacConfig { backend, ..cfg() }).unwrap_err();
            assert_eq!(
                e.kind,
                HazardKind::SramOutOfRange {
                    which: 'A',
                    addr,
                    size: 32
                }
            );
            let mut b = ProgramBuilder::new(4);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).reg_write = Some((addr, Source::Const(1.0)));
            let e = run_one(b, LacConfig { backend, ..cfg() }).unwrap_err();
            assert!(matches!(e.kind, HazardKind::RegOutOfRange { idx, .. } if idx == addr));
        }
    }
}

#[test]
fn too_many_rf_read_ports() {
    // Three distinct register reads in one cycle exceed the 2 read ports.
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    let mut pe = b.pe_mut(t, 0, 0);
    pe.fma = Some((Source::Reg(0), Source::Reg(1), Source::Reg(2)));
    drop(pe);
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::RegOutOfRange { .. }));
}

#[test]
fn mac_and_fma_same_cycle_conflict() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    let mut pe = b.pe_mut(t, 0, 0);
    pe.mac = Some((Source::Const(1.0), Source::Const(1.0)));
    pe.fma = Some((Source::Const(1.0), Source::Const(1.0), Source::Const(0.0)));
    drop(pe);
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::MacIssueConflict));
}

#[test]
fn mac_result_read_before_any_retire() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 0, 0).reg_write = Some((0, Source::MacResult));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::MacResultEmpty));
}

#[test]
fn sfu_result_read_before_any_retire() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 0, 0).reg_write = Some((0, Source::SfuResult));
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::SfuResultEmpty));
}

#[test]
fn sfu_busy_rejects_second_issue() {
    let mut b = ProgramBuilder::new(4);
    let t0 = b.push_step();
    b.pe_mut(t0, 0, 0).sfu = Some((
        DivSqrtOp::Reciprocal,
        Source::Const(2.0),
        Source::Const(0.0),
    ));
    let t1 = b.push_step();
    b.pe_mut(t1, 1, 1).sfu = Some((DivSqrtOp::Sqrt, Source::Const(2.0), Source::Const(0.0)));
    // Isolated implementation: one shared unit per core.
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::SfuBusy));
}

#[test]
fn bus_to_bus_forwarding_rejected() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.pe_mut(t, 0, 0).row_write = Some(Source::ColBus);
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::BusToBusSameCycle));
}

#[test]
fn ext_store_from_undriven_bus() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.ext(t, ExtOp::Store { col: 2, addr: 0 });
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::ExtStoreUndriven { col: 2 }));
}

#[test]
fn ext_address_out_of_range() {
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.ext(
        t,
        ExtOp::Load {
            col: 0,
            addr: 1_000_000,
        },
    );
    let e = run_one(b, cfg()).unwrap_err();
    assert!(matches!(e.kind, HazardKind::ExtOutOfRange { .. }));
}

#[test]
fn error_reports_cycle_and_pe() {
    let mut b = ProgramBuilder::new(4);
    b.idle(7);
    let t = b.push_step();
    b.pe_mut(t, 3, 2).mac = Some((Source::RowBus, Source::Const(1.0)));
    let e = run_one(b, cfg()).unwrap_err();
    assert_eq!(e.cycle, 7);
    assert_eq!(e.pe, Some((3, 2)));
    let msg = format!("{e}");
    assert!(msg.contains("cycle 7") && msg.contains("(3,2)"), "{msg}");
}

#[test]
fn state_persists_across_runs() {
    // The co-simulation drivers depend on this: registers and SRAM survive
    // between program phases.
    let mut lac = Lac::new(cfg());
    let mut mem = ExternalMem::new(4);
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.set_pe(
        t,
        1,
        2,
        PeInstr::default().reg_write(3, Source::Const(42.0)),
    );
    lac.run(&b.build(), &mut mem).unwrap();
    assert_eq!(lac.reg(1, 2, 3), 42.0);
    let mut b = ProgramBuilder::new(4);
    let t = b.push_step();
    b.set_pe(t, 1, 2, PeInstr::default().col_write(Source::Reg(3)));
    b.ext(t, ExtOp::Store { col: 2, addr: 0 });
    lac.run(&b.build(), &mut mem).unwrap();
    assert_eq!(mem.read(0), 42.0);
}

#[test]
fn software_divsqrt_per_pe_units_are_independent() {
    // Unlike the Isolated option, Software gives every PE its own
    // (microcoded) unit — two PEs may divide concurrently.
    let config = LacConfig {
        divsqrt: DivSqrtImpl::Software,
        ..cfg()
    };
    let q = DivSqrtImpl::Software.latency(DivSqrtOp::Reciprocal);
    let mut b = ProgramBuilder::new(4);
    let t0 = b.push_step();
    b.pe_mut(t0, 0, 0).sfu = Some((
        DivSqrtOp::Reciprocal,
        Source::Const(2.0),
        Source::Const(0.0),
    ));
    b.pe_mut(t0, 1, 1).sfu = Some((
        DivSqrtOp::Reciprocal,
        Source::Const(4.0),
        Source::Const(0.0),
    ));
    b.idle(q);
    let t1 = b.push_step();
    b.pe_mut(t1, 0, 0).reg_write = Some((0, Source::SfuResult));
    b.pe_mut(t1, 1, 1).reg_write = Some((0, Source::SfuResult));
    let mut lac = Lac::new(config);
    let mut mem = ExternalMem::new(4);
    lac.run(&b.build(), &mut mem).unwrap();
    assert!((lac.reg(0, 0, 0) - 0.5).abs() < 1e-12);
    assert!((lac.reg(1, 1, 0) - 0.25).abs() < 1e-12);
}
