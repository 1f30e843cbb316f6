//! Session-style entry point: one [`LacEngine`] owns a core and its
//! external-memory bank and runs workloads back-to-back.
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
//! The core's counters are the session. Every cycle the core simulates
//! lands in them, whichever door ran the program:
//! [`LacEngine::run_program`] (the engine-owned bank, staged with
//! [`LacEngine::load_image`]), [`LacEngine::run_staged`] (a caller-staged
//! bank), or a kernel driver running programs on the core directly (via
//! [`LacEngine::parts`] / [`LacEngine::core_mut`]), as the `Workload`
//! implementations in `lac-kernels` do. [`LacEngine::session_stats`]
//! reads those counters and [`LacEngine::reset_session`] zeroes them, so
//! no second accumulator can fall out of step with the machine.

use crate::compile::ProgramCache;
use crate::config::LacConfig;
use crate::core::{ExternalMem, Lac};
use crate::error::SimError;
use crate::isa::Program;
use crate::stats::ExecStats;

/// Default engine-owned memory bank size in words (replaced wholesale by
/// [`LacEngine::load_image`], so this only bounds image-free programs).
const DEFAULT_MEM_WORDS: usize = 1 << 16;

/// Builder for [`LacEngine`] — `LacEngine::builder().config(cfg).build()`.
#[derive(Clone, Debug, Default)]
pub struct LacEngineBuilder {
    cfg: LacConfig,
    program_cache: Option<ProgramCache>,
}

impl LacEngineBuilder {
    /// Core configuration (mesh size, local stores, FPU, extensions).
    pub fn config(mut self, cfg: LacConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Share an external compile cache instead of a per-core one, so
    /// sibling cores (a chip's shards, a service's workers, a whole
    /// cluster) compile each distinct program once. Cache entries are
    /// keyed by configuration fingerprint as well, so sharing across
    /// heterogeneous cores is safe.
    pub fn program_cache(mut self, cache: ProgramCache) -> Self {
        self.program_cache = Some(cache);
        self
    }

    /// Construct the engine: a fresh core plus a zeroed memory bank.
    pub fn build(self) -> LacEngine {
        let mut lac = Lac::new(self.cfg);
        if let Some(cache) = self.program_cache {
            lac.set_program_cache(cache);
        }
        LacEngine {
            lac,
            mem: ExternalMem::new(DEFAULT_MEM_WORDS),
            programs_run: 0,
            workloads_run: 0,
        }
    }
}

/// A simulation session: one core plus its external-memory bank, metered
/// by the core's own counters across every program run on it.
///
/// ```
/// use lac_sim::{ExtOp, LacConfig, LacEngine, ProgramBuilder, Source};
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
/// eng.load_image(vec![3.0; 16]);
/// let stats = eng.run_program(&prog).expect("hazard-free schedule");
/// assert_eq!(stats.mac_ops, 1);
///
/// // Sessions meter: a second run accumulates into the same counters.
/// eng.run_program(&prog).unwrap();
/// assert_eq!(eng.session_stats().mac_ops, 2);
/// assert_eq!(eng.programs_run(), 2);
/// assert_eq!(eng.flops(), 4);
/// ```
pub struct LacEngine {
    lac: Lac,
    mem: ExternalMem,
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

    /// The engine-owned external memory bank.
    pub fn mem(&self) -> &ExternalMem {
        &self.mem
    }

    /// Mutable access to the engine-owned bank (operand staging).
    pub fn mem_mut(&mut self) -> &mut ExternalMem {
        &mut self.mem
    }

    /// Split borrow: core and memory bank at once (kernel drivers need
    /// both simultaneously).
    pub fn parts(&mut self) -> (&mut Lac, &mut ExternalMem) {
        (&mut self.lac, &mut self.mem)
    }

    /// Replace the engine-owned memory bank with a packed operand image.
    pub fn load_image(&mut self, image: Vec<f64>) {
        self.mem = ExternalMem::from_vec(image);
    }

    /// Execute a program against the engine-owned memory bank. Returns the
    /// per-run stats delta (the session counters advance by it).
    pub fn run_program(&mut self, prog: &Program) -> Result<ExecStats, SimError> {
        let stats = self.lac.run(prog, &mut self.mem)?;
        self.programs_run += 1;
        Ok(stats)
    }

    /// Execute a program against a caller-staged memory bank (blocked
    /// drivers re-pack operands between phases). Metered like
    /// [`LacEngine::run_program`].
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

    /// Programs executed through the engine's own run doors
    /// ([`LacEngine::run_program`] / [`LacEngine::run_staged`]) this
    /// session. Programs a kernel driver runs on the core directly are
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
        assert_eq!(eng.mem().len(), DEFAULT_MEM_WORDS);
        assert_eq!(eng.cycles(), 0);
    }

    #[test]
    fn session_accumulates_across_runs() {
        let mut eng = LacEngine::builder().build();
        let prog = tiny_program(4);
        let first = eng.run_program(&prog).unwrap();
        let second = eng.run_program(&prog).unwrap();
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
        eng.run_program(&prog).unwrap();
        eng.note_workload();
        assert_eq!(eng.workloads_run(), 1);
        eng.reset_session();
        assert_eq!(eng.cycles(), 0);
        assert_eq!(eng.programs_run(), 0);
        assert_eq!(eng.workloads_run(), 0);
        // The core's counters are the session: the reset zeroed them.
        assert_eq!(*eng.core().stats(), ExecStats::default());
    }

    #[test]
    fn load_image_replaces_bank() {
        let mut eng = LacEngine::builder().build();
        eng.load_image(vec![1.0, 2.0, 3.0]);
        assert_eq!(eng.mem().len(), 3);
        assert_eq!(eng.mem().read(1), 2.0);
    }
}
