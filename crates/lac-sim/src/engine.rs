//! Session-style entry point: one [`LacEngine`] owns a core and runs
//! workloads back-to-back.
//!
//! The dissertation evaluates one Linear Algebra Core across a dozen
//! kernels and dozens of design points; production use (e.g. the repeated
//! Cholesky factorizations inside an interior-point solver) queues many
//! workloads against the *same* core. `LacEngine` models that session: it
//! is built once from a [`LacConfig`], keeps the architectural state of the
//! core alive between runs, and exposes the derived metrics (cycles,
//! flops, utilization, bandwidth) the paper reports. Energy comes from
//! feeding the session stats to `lac-power` (see that crate's
//! `SessionEnergy` extension trait).
//!
//! The engine owns no memory bank: every run stages its operands into a
//! bank of its own. [`LacEngine::run_staged`] runs a program against a
//! caller-staged bank, and a kernel runs its programs on the core
//! directly through [`LacEngine::core_mut`], as the `Workload`
//! implementations in `lac-kernels` do.
//!
//! The core's counters are the session. Every cycle the core simulates
//! lands in them, whichever door ran the program.
//! [`LacEngine::session_stats`] reads those counters and
//! [`LacEngine::reset_session`] zeroes them, so no second accumulator can
//! fall out of step with the machine.

use crate::config::LacConfig;
use crate::core::{ExternalMem, Lac};
use crate::error::SimError;
use crate::isa::Program;
use crate::stats::ExecStats;

/// Builder for [`LacEngine`] — `LacEngine::builder().config(cfg).build()`.
#[derive(Clone, Debug, Default)]
pub struct LacEngineBuilder {
    cfg: LacConfig,
}

impl LacEngineBuilder {
    /// Core configuration (mesh size, local stores, FPU, extensions).
    pub fn config(mut self, cfg: LacConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Construct the engine: a fresh core.
    pub fn build(self) -> LacEngine {
        LacEngine {
            lac: Lac::new(self.cfg),
            programs_run: 0,
            workloads_run: 0,
        }
    }
}

/// A simulation session: one core, metered by its own counters across
/// every program run on it.
///
/// ```
/// use lac_sim::{ExtOp, ExternalMem, LacConfig, LacEngine, ProgramBuilder, Source};
///
/// let cfg = LacConfig::default();
/// let mut eng = LacEngine::builder().config(cfg).build();
///
/// // A two-cycle microprogram: load a word onto PE (0,0)'s register,
/// // then square it into the accumulator; idle out the FMAC pipeline.
/// let mut b = ProgramBuilder::new(cfg.nr);
/// let t = b.push_step();
/// b.ext(t, ExtOp::Load { col: 0, addr: 0 });
/// b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
/// let t = b.push_step();
/// b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
/// b.idle(cfg.fpu.pipeline_depth);
/// let prog = b.build();
///
/// let mut mem = ExternalMem::from_vec(vec![3.0; prog.ext_words()]);
/// let stats = eng.run_staged(&prog, &mut mem).expect("hazard-free schedule");
/// assert_eq!(stats.mac_ops, 1);
///
/// // Sessions meter: a second run accumulates into the same counters.
/// eng.run_staged(&prog, &mut mem).unwrap();
/// assert_eq!(eng.session_stats().mac_ops, 2);
/// assert_eq!(eng.programs_run(), 2);
/// assert_eq!(eng.flops(), 4);
/// ```
pub struct LacEngine {
    lac: Lac,
    programs_run: u64,
    workloads_run: u64,
}

impl LacEngine {
    /// Start configuring an engine.
    pub fn builder() -> LacEngineBuilder {
        LacEngineBuilder::default()
    }

    /// Shorthand for `builder().config(cfg).build()`.
    pub fn new(cfg: LacConfig) -> Self {
        Self::builder().config(cfg).build()
    }

    /// The core configuration the engine was built with.
    pub fn config(&self) -> &LacConfig {
        self.lac.config()
    }

    /// The simulated core (architectural state persists across runs).
    pub fn core(&self) -> &Lac {
        &self.lac
    }

    /// Mutable core access (kernel drivers run programs directly).
    pub fn core_mut(&mut self) -> &mut Lac {
        &mut self.lac
    }

    /// Execute a program against a caller-staged memory bank. Returns the
    /// per-run stats delta (the session counters advance by it).
    pub fn run_staged(
        &mut self,
        prog: &Program,
        mem: &mut ExternalMem,
    ) -> Result<ExecStats, SimError> {
        let stats = self.lac.run(prog, mem)?;
        self.programs_run += 1;
        Ok(stats)
    }

    /// Called by `Workload::run` implementations when a workload completes.
    pub fn note_workload(&mut self) {
        self.workloads_run += 1;
    }

    /// The core's counters: every cycle simulated since construction (or
    /// the last [`LacEngine::reset_session`]), failed runs' partial cycles
    /// included — sessions meter, they do not roll back.
    pub fn session_stats(&self) -> &ExecStats {
        self.lac.stats()
    }

    /// Programs executed through the engine's own run door
    /// ([`LacEngine::run_staged`]) this session. Programs a kernel driver runs on the core directly are
    /// metered but not program-counted — use [`LacEngine::workloads_run`]
    /// for those.
    pub fn programs_run(&self) -> u64 {
        self.programs_run
    }

    /// Workloads completed this session.
    pub fn workloads_run(&self) -> u64 {
        self.workloads_run
    }

    /// Zero the core's counters and the run counts. Architectural state
    /// (stores, registers, accumulators) is kept: sessions meter, they do
    /// not reset the machine.
    pub fn reset_session(&mut self) {
        *self.lac.stats_mut() = ExecStats::default();
        self.programs_run = 0;
        self.workloads_run = 0;
    }

    // ---- derived session metrics (the paper's reporting axes) ----------

    /// Total simulated cycles this session.
    pub fn cycles(&self) -> u64 {
        self.session_stats().cycles
    }

    /// Total floating-point operations this session.
    pub fn flops(&self) -> u64 {
        self.session_stats().flops()
    }

    /// MAC-slot utilization against the core's peak over the session.
    pub fn utilization(&self) -> f64 {
        self.session_stats().utilization(self.lac.config().nr)
    }

    /// Average external words moved per cycle over the session.
    pub fn ext_words_per_cycle(&self) -> f64 {
        self.session_stats().ext_words_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ExtOp, ProgramBuilder, Source};

    fn tiny_program(nr: usize) -> Program {
        let mut b = ProgramBuilder::new(nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(LacConfig::default().fpu.pipeline_depth);
        b.build()
    }

    #[test]
    fn builder_roundtrip() {
        let cfg = LacConfig {
            nr: 4,
            ..Default::default()
        };
        let eng = LacEngine::builder().config(cfg).build();
        assert_eq!(eng.config().nr, 4);
        assert_eq!(eng.cycles(), 0);
    }

    #[test]
    fn session_accumulates_across_runs() {
        let mut eng = LacEngine::builder().build();
        let prog = tiny_program(4);
        let mut mem = ExternalMem::new(prog.ext_words());
        let first = eng.run_staged(&prog, &mut mem).unwrap();
        let second = eng.run_staged(&prog, &mut mem).unwrap();
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(eng.cycles(), first.cycles + second.cycles);
        assert_eq!(eng.session_stats().mac_ops, 2);
        assert_eq!(eng.programs_run(), 2);
        assert_eq!(eng.flops(), 4);
    }

    #[test]
    fn staged_runs_are_metered_too() {
        let mut eng = LacEngine::builder().build();
        let prog = tiny_program(4);
        let mut private = ExternalMem::new(8);
        eng.run_staged(&prog, &mut private).unwrap();
        assert_eq!(eng.programs_run(), 1);
        assert!(eng.cycles() > 0);
    }

    #[test]
    fn reset_session_zeroes_meters_only() {
        let mut eng = LacEngine::builder().build();
        let prog = tiny_program(4);
        eng.run_staged(&prog, &mut ExternalMem::new(prog.ext_words()))
            .unwrap();
        eng.note_workload();
        assert_eq!(eng.workloads_run(), 1);
        eng.reset_session();
        assert_eq!(eng.cycles(), 0);
        assert_eq!(eng.programs_run(), 0);
        assert_eq!(eng.workloads_run(), 0);
        // The core's counters are the session: the reset zeroed them.
        assert_eq!(*eng.core().stats(), ExecStats::default());
    }
}
