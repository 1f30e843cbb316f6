//! Engine-level integration test: every workload in the registry runs on
//! the default 4×4 configuration through a `LacEngine` session, and its
//! functional output is cross-checked against `linalg-ref` by the
//! workload's own `check`. No kernel is named — new registry entries are
//! covered automatically. The session is the core's counters: one meter,
//! whatever runs on the core and however it fails.

use lap::lac_kernels::{registry, SolverLoopWorkload};
use lap::lac_power::{EnergyModel, SessionEnergy};
use lap::lac_sim::error::HazardKind;
use lap::lac_sim::{
    ChipJob, ExecBackend, ExecStats, ExtOp, ExternalMem, JobGraph, LacConfig, LacEngine, Program,
    ProgramBuilder, Source,
};
use proptest::prelude::*;

#[test]
fn every_registry_workload_runs_and_verifies_on_default_config() {
    let workloads = registry();
    assert!(workloads.len() >= 12, "registry covers every kernel");
    for w in &workloads {
        let cfg = w.config(LacConfig::default());
        let mut eng = LacEngine::builder().config(cfg).build();
        let report = w
            .run(&mut eng)
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
        assert_eq!(eng.workloads_run(), 1, "{}: workload not metered", w.name());
        assert_eq!(
            eng.cycles(),
            report.stats.cycles,
            "{}: session stats disagree with report",
            w.name()
        );
    }
}

#[test]
fn one_session_runs_the_whole_registry_back_to_back() {
    // The engine survives arbitrary workload sequences with state reuse;
    // the session accumulator equals the sum of the per-run reports, and
    // the accumulated stats price out to a positive energy.
    let mut eng = LacEngine::builder().config(shared_config()).build();
    let mut total_cycles = 0u64;
    let mut ran = 0u64;
    for w in registry() {
        let report = w
            .run(&mut eng)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name()));
        w.check(&report)
            .unwrap_or_else(|e| panic!("verification failed: {e}"));
        total_cycles += report.stats.cycles;
        ran += 1;
    }
    assert_eq!(eng.workloads_run(), ran);
    assert_eq!(eng.cycles(), total_cycles);
    let energy = eng.energy_summary(&EnergyModel::lac_default());
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
    // hazarding programs and resets, the session is the core's counters
    // and equals the sum of what every run since the last reset reported
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
        let partial = LacEngine::new(cfg)
            .run_staged(&mac_program(nr, depth, false), &mut ExternalMem::new(8))
            .unwrap();
        let mut eng = LacEngine::new(cfg);
        let mut expected = ExecStats::default();
        for (op, pick) in ops {
            match op {
                0 => {
                    let w = &workloads[pick as usize % workloads.len()];
                    expected.merge(&w.run(&mut eng).unwrap().stats);
                }
                1 => {
                    // Submission order is a topological order.
                    let mut solver = JobGraph::new();
                    for id in solver.append(SolverLoopWorkload::demo().graph().graph) {
                        expected.merge(&solver.job(id).run_on(&mut eng).unwrap().stats);
                    }
                }
                2 => {
                    let err = eng
                        .run_staged(&mac_program(nr, depth, true), &mut ExternalMem::new(8))
                        .unwrap_err();
                    prop_assert!(matches!(err.kind, HazardKind::ExtOutOfRange { .. }));
                    prop_assert_eq!(err.cycle as u64, partial.cycles);
                    expected.merge(&partial);
                }
                _ => {
                    eng.reset_session();
                    expected = ExecStats::default();
                }
            }
            prop_assert_eq!(eng.session_stats(), eng.core().stats());
            prop_assert_eq!(eng.session_stats(), &expected);
        }
    }
}
