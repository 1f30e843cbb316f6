//! The cycle-by-cycle execution engine for one LAC.
//!
//! Two backends share this module's architectural state (see
//! [`crate::config::ExecBackend`]): the reference **interpreter** below,
//! which decodes every [`Source`] of every PE on every cycle, and the
//! decode-once **compiled** backend in [`mod@crate::compile`], which lowers a
//! program to a flat op tape once and replays it. Both address the same
//! unified state arena (`Lac::state`, laid out by the compile module's
//! private `ArenaLayout`), so a
//! core can switch backends between programs with bit-identical results.

use crate::compile::ProgramCache;
use crate::config::{ExecBackend, LacConfig};
use crate::error::{HazardKind, SimError};
use crate::isa::{ExtOp, MicroOp, Program, Source, Step};
use crate::stats::ExecStats;
use lac_fpu::{DivSqrtImpl, MacUnit, SpecialFnUnit};

/// The memory the core talks to over its column buses — the paper's
/// per-core bank of on-chip memory (Figure 1.1).
#[derive(Clone, Debug)]
pub struct ExternalMem {
    data: Vec<f64>,
}

impl ExternalMem {
    /// A zeroed bank of `words` words.
    pub fn new(words: usize) -> Self {
        Self {
            data: vec![0.0; words],
        }
    }

    /// Wrap a packed operand image as the bank's contents.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Bank size, words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-word bank.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read word `addr` (host-side staging access, not metered).
    pub fn read(&self, addr: usize) -> f64 {
        self.data[addr]
    }

    /// Write word `addr` (host-side staging access, not metered).
    pub fn write(&mut self, addr: usize, v: f64) {
        self.data[addr] = v;
    }

    /// The whole bank as a slice (result unpacking).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Architectural state of one PE that is *not* plain words (the word
/// state — SRAMs and the register file — lives in the core's unified
/// arena, see [`ArenaLayout`]).
#[derive(Clone, Debug)]
pub(crate) struct PeState {
    pub(crate) mac: MacUnit,
    pub(crate) mac_result: Option<f64>,
    pub(crate) sfu: Option<SpecialFnUnit>,
    pub(crate) sfu_result: Option<f64>,
}

/// Offsets of each PE's word-state regions inside the core's flat arena:
/// `[ sram_a (all PEs) | sram_b (all PEs) | rf (all PEs) ]`. The compiled
/// backend appends its execution regions (buses, latches, pipeline slots,
/// constants, temps) after `words`; those bases are derived per config in
/// [`crate::compile`] so offsets stay valid across same-config shards.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArenaLayout {
    sram_a_words: usize,
    sram_b_words: usize,
    rf_entries: usize,
    sram_b_base: usize,
    rf_base: usize,
    /// Total architectural words (the compiled suffix starts here).
    pub(crate) words: usize,
}

impl ArenaLayout {
    pub(crate) fn new(cfg: &LacConfig) -> Self {
        let pes = cfg.nr * cfg.nr;
        let sram_b_base = pes * cfg.sram_a_words;
        let rf_base = sram_b_base + pes * cfg.sram_b_words;
        Self {
            sram_a_words: cfg.sram_a_words,
            sram_b_words: cfg.sram_b_words,
            rf_entries: cfg.rf_entries,
            sram_b_base,
            rf_base,
            words: rf_base + pes * cfg.rf_entries,
        }
    }

    #[inline]
    pub(crate) fn sram_a(&self, pe: usize, addr: usize) -> usize {
        pe * self.sram_a_words + addr
    }

    #[inline]
    pub(crate) fn sram_b(&self, pe: usize, addr: usize) -> usize {
        self.sram_b_base + pe * self.sram_b_words + addr
    }

    #[inline]
    pub(crate) fn rf(&self, pe: usize, idx: usize) -> usize {
        self.rf_base + pe * self.rf_entries + idx
    }
}

/// Per-cycle port-usage counters for one PE (reset each cycle).
#[derive(Clone, Copy, Default)]
struct PortUse {
    sram_a: usize,
    sram_b: usize,
    rf_reads: usize,
}

/// Per-cycle scratch buffers, owned by the core and reused across cycles so
/// the hot loop never allocates (a chip run simulates tens of millions of
/// cycles across many shard threads — per-cycle `Vec`s turn into allocator
/// contention, not just wasted time).
#[derive(Default)]
struct Scratch {
    port_use: Vec<PortUse>,
    row_bus: Vec<Option<f64>>,
    col_bus: Vec<Option<f64>>,
    commits: Vec<Commit>,
}

/// Deferred register/SRAM/accumulator writes (commit at end of cycle).
enum Commit {
    SramA(usize, usize, f64),
    SramB(usize, usize, f64),
    Reg(usize, usize, f64),
    AccLoad(usize, f64),
    Ext(usize, f64),
}

/// One simulated Linear Algebra Core.
pub struct Lac {
    pub(crate) cfg: LacConfig,
    pub(crate) pes: Vec<PeState>,
    /// Unified word-state arena (SRAMs + register files, then the compiled
    /// backend's execution regions — grown on demand, prefix preserved).
    pub(crate) state: Vec<f64>,
    pub(crate) layout: ArenaLayout,
    stats: ExecStats,
    scratch: Scratch,
    cache: ProgramCache,
}

impl Lac {
    /// A fresh core in the given configuration: zeroed memories and
    /// registers, drained pipelines, zero counters.
    pub fn new(cfg: LacConfig) -> Self {
        let per_pe_sfu = match cfg.divsqrt {
            DivSqrtImpl::Software => true,     // microcode runs on every PE
            DivSqrtImpl::Isolated => false,    // one shared unit (index 0 below)
            DivSqrtImpl::DiagonalPes => false, // diagonal PEs only
        };
        let nr = cfg.nr;
        let pes = (0..nr * nr)
            .map(|idx| {
                let (r, c) = (idx / nr, idx % nr);
                let has_sfu = per_pe_sfu
                    || (cfg.divsqrt == DivSqrtImpl::DiagonalPes && r == c)
                    || (cfg.divsqrt == DivSqrtImpl::Isolated && idx == 0);
                PeState {
                    mac: MacUnit::new(cfg.fpu),
                    mac_result: None,
                    sfu: has_sfu.then(|| SpecialFnUnit::new(cfg.divsqrt)),
                    sfu_result: None,
                }
            })
            .collect();
        let layout = ArenaLayout::new(&cfg);
        Self {
            cfg,
            pes,
            state: vec![0.0; layout.words],
            layout,
            stats: ExecStats::default(),
            scratch: Scratch::default(),
            cache: ProgramCache::new(),
        }
    }

    /// Replace the core's compile cache with a shared one (the door
    /// `LacService`/`LacCluster` use so every same-config shard
    /// compiles each distinct program shape once). Handles are cheap
    /// clones of one shared store.
    pub fn set_program_cache(&mut self, cache: ProgramCache) {
        self.cache = cache;
    }

    /// The compile cache this core resolves programs through.
    pub fn program_cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &LacConfig {
        &self.cfg
    }

    /// Stats accumulated so far (zeroed by
    /// [`crate::LacEngine::reset_session`]; an engine's session is these
    /// counters).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn pe_index(&self, r: usize, c: usize) -> usize {
        r * self.cfg.nr + c
    }

    /// Direct (test/preload) access to a PE's A memory.
    pub fn sram_a_mut(&mut self, r: usize, c: usize) -> &mut [f64] {
        let i = self.pe_index(r, c);
        let base = self.layout.sram_a(i, 0);
        &mut self.state[base..base + self.cfg.sram_a_words]
    }

    /// Direct (test/preload) access to a PE's B memory.
    pub fn sram_b_mut(&mut self, r: usize, c: usize) -> &mut [f64] {
        let i = self.pe_index(r, c);
        let base = self.layout.sram_b(i, 0);
        &mut self.state[base..base + self.cfg.sram_b_words]
    }

    /// Read a PE's accumulator (test/verification access; does not check the
    /// drain hazard — use only after a program completes).
    pub fn acc(&self, r: usize, c: usize) -> f64 {
        self.pes[self.pe_index(r, c)].mac.read_acc()
    }

    /// Read a PE's register (test/verification access).
    pub fn reg(&self, r: usize, c: usize, idx: usize) -> f64 {
        self.state[self.layout.rf(self.pe_index(r, c), idx)]
    }

    /// A PE's wide accumulator (the extended-format read port, §A.2).
    pub fn acc_wide(&self, r: usize, c: usize) -> lac_fpu::ExtendedAccumulator {
        self.pes[self.pe_index(r, c)].mac.acc_wide()
    }

    /// Execute a whole program against `mem`, returning the run's stats.
    ///
    /// Dispatches on [`LacConfig::backend`]: the interpreter walks the
    /// program cycle by cycle; the compiled backend replays a memoized
    /// decode-once lowering (falling back to the interpreter for programs
    /// the lowering does not cover). The two are bit-identical.
    pub fn run(&mut self, prog: &Program, mem: &mut ExternalMem) -> Result<ExecStats, SimError> {
        match self.cfg.backend {
            ExecBackend::Interpreter => self.run_interpreted(prog, mem),
            ExecBackend::Compiled => self.run_compiled(prog, mem),
        }
    }

    /// Execute a whole program on the reference interpreter, regardless of
    /// the configured backend (the semantics oracle and the fallback door
    /// of [`Lac::run_compiled`]).
    pub fn run_interpreted(
        &mut self,
        prog: &Program,
        mem: &mut ExternalMem,
    ) -> Result<ExecStats, SimError> {
        assert_eq!(prog.nr(), self.cfg.nr, "program/mesh dimension mismatch");
        let start = self.stats;
        for (t, step) in prog.steps().enumerate() {
            self.exec_step(t, step, mem)?;
        }
        Ok(self.stats.since(&start))
    }

    /// Crate-internal: the stats accumulator (the compiled backend merges
    /// a run's static counters in one shot; the engine zeroes it on a
    /// session reset).
    pub(crate) fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    fn exec_step(
        &mut self,
        t: usize,
        step: Step<'_>,
        mem: &mut ExternalMem,
    ) -> Result<(), SimError> {
        // The scratch buffers move out for the duration of the step so the
        // borrow checker lets `resolve` (&mut self) run while they are in
        // use; they move back afterwards, capacity intact.
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.exec_step_inner(t, step, mem, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn exec_step_inner(
        &mut self,
        t: usize,
        step: Step<'_>,
        mem: &mut ExternalMem,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let nr = self.cfg.nr;
        let err = |pe: Option<(usize, usize)>, kind: HazardKind| SimError { cycle: t, pe, kind };

        // --- external bandwidth check -----------------------------------
        if let Some(limit) = self.cfg.ext_words_per_cycle {
            if step.ext().len() > limit {
                return Err(err(
                    None,
                    HazardKind::ExtBandwidthExceeded {
                        used: step.ext().len(),
                        limit,
                    },
                ));
            }
        }

        let port_use = &mut scratch.port_use;
        port_use.clear();
        port_use.resize(nr * nr, PortUse::default());

        // --- phase 1: resolve bus writers --------------------------------
        let row_bus = &mut scratch.row_bus;
        let col_bus = &mut scratch.col_bus;
        row_bus.clear();
        row_bus.resize(nr, None);
        col_bus.clear();
        col_bus.resize(nr, None);

        // External loads drive column buses.
        for op in step.ext() {
            if let ExtOp::Load { col, addr } = *op {
                if addr >= mem.len() {
                    return Err(err(
                        None,
                        HazardKind::ExtOutOfRange {
                            addr,
                            size: mem.len(),
                        },
                    ));
                }
                if col >= nr || col_bus[col].is_some() {
                    return Err(err(None, HazardKind::ColBusConflict { col }));
                }
                col_bus[col] = Some(mem.read(addr));
                self.stats.ext_reads += 1;
                self.stats.col_bus_transfers += 1;
            }
        }

        // Bus writers, live PEs in ascending index order.
        for (idx, ops) in step.pes() {
            let (r, c) = (idx / nr, idx % nr);
            for op in ops.bus_writes() {
                match op {
                    MicroOp::RowWrite(src) => {
                        let v = self.resolve_nonbus(t, (r, c), src, &mut port_use[idx])?;
                        if row_bus[r].is_some() {
                            return Err(err(Some((r, c)), HazardKind::RowBusConflict { row: r }));
                        }
                        row_bus[r] = Some(v);
                        self.stats.row_bus_transfers += 1;
                    }
                    MicroOp::ColWrite(src) => {
                        let v = self.resolve_nonbus(t, (r, c), src, &mut port_use[idx])?;
                        if col_bus[c].is_some() {
                            return Err(err(Some((r, c)), HazardKind::ColBusConflict { col: c }));
                        }
                        col_bus[c] = Some(v);
                        self.stats.col_bus_transfers += 1;
                    }
                    _ => {}
                }
            }
        }

        // --- phase 2: resolve datapath inputs, issue MAC/FMA/SFU ---------
        let commits = &mut scratch.commits;
        commits.clear();
        let mut any_issue = false;

        for (idx, ops) in step.pes() {
            let (r, c) = (idx / nr, idx % nr);
            let here = Some((r, c));
            let (mac, fma, negate) = ops.product_flags();

            if mac && fma {
                return Err(err(here, HazardKind::MacIssueConflict));
            }

            // Software divide/sqrt monopolizes the MAC.
            let sfu_blocks = self.cfg.divsqrt.blocks_mac()
                && self.pes[idx].sfu.as_ref().is_some_and(|s| !s.idle());
            if sfu_blocks && (mac || fma) {
                return Err(err(here, HazardKind::MacBusyWithSfu));
            }

            // Micro-ops come in field order, so this visits the controls
            // in the fixed order that decides which hazard is reported.
            for op in ops.iter() {
                match op {
                    MicroOp::RowWrite(_) | MicroOp::ColWrite(_) | MicroOp::NegateProduct => {}
                    MicroOp::Mac(sa, sb) => {
                        let a =
                            self.resolve(t, (r, c), sa, row_bus, col_bus, &mut port_use[idx])?;
                        let b =
                            self.resolve(t, (r, c), sb, row_bus, col_bus, &mut port_use[idx])?;
                        self.pes[idx]
                            .mac
                            .issue_mac_signed(a, b, negate)
                            .map_err(|_| err(here, HazardKind::MacIssueConflict))?;
                        self.stats.mac_ops += 1;
                        any_issue = true;
                    }
                    MicroOp::Fma(sa, sb, sc) => {
                        let a =
                            self.resolve(t, (r, c), sa, row_bus, col_bus, &mut port_use[idx])?;
                        let b =
                            self.resolve(t, (r, c), sb, row_bus, col_bus, &mut port_use[idx])?;
                        let cv =
                            self.resolve(t, (r, c), sc, row_bus, col_bus, &mut port_use[idx])?;
                        self.pes[idx]
                            .mac
                            .issue_fma_signed(a, b, cv, negate)
                            .map_err(|_| err(here, HazardKind::MacIssueConflict))?;
                        self.stats.fma_ops += 1;
                        any_issue = true;
                    }
                    MicroOp::CmpUpdate(cmp) => {
                        if cmp.val_reg >= self.cfg.rf_entries || cmp.tag_reg >= self.cfg.rf_entries
                        {
                            return Err(err(
                                here,
                                HazardKind::RegOutOfRange {
                                    idx: cmp.val_reg.max(cmp.tag_reg),
                                    size: self.cfg.rf_entries,
                                },
                            ));
                        }
                        let v = self.resolve(
                            t,
                            (r, c),
                            cmp.value,
                            row_bus,
                            col_bus,
                            &mut port_use[idx],
                        )?;
                        let cur = self.state[self.layout.rf(idx, cmp.val_reg)];
                        self.stats.cmp_ops += 1;
                        if !lac_fpu::magnitude_ge(cur, v) {
                            commits.push(Commit::Reg(idx, cmp.val_reg, v));
                            commits.push(Commit::Reg(idx, cmp.tag_reg, cmp.tag));
                            self.stats.rf_writes += 2;
                        }
                    }
                    MicroOp::AccLoad(src) => {
                        if !self.pes[idx].mac.idle() {
                            return Err(err(here, HazardKind::AccHazard));
                        }
                        let v =
                            self.resolve(t, (r, c), src, row_bus, col_bus, &mut port_use[idx])?;
                        commits.push(Commit::AccLoad(idx, v));
                        self.stats.acc_accesses += 1;
                    }
                    MicroOp::SramAWrite(addr, src) => {
                        if addr >= self.cfg.sram_a_words {
                            return Err(err(
                                here,
                                HazardKind::SramOutOfRange {
                                    which: 'A',
                                    addr,
                                    size: self.cfg.sram_a_words,
                                },
                            ));
                        }
                        let v =
                            self.resolve(t, (r, c), src, row_bus, col_bus, &mut port_use[idx])?;
                        port_use[idx].sram_a += 1;
                        commits.push(Commit::SramA(idx, addr, v));
                        self.stats.sram_a_writes += 1;
                    }
                    MicroOp::SramBWrite(addr, src) => {
                        if addr >= self.cfg.sram_b_words {
                            return Err(err(
                                here,
                                HazardKind::SramOutOfRange {
                                    which: 'B',
                                    addr,
                                    size: self.cfg.sram_b_words,
                                },
                            ));
                        }
                        let v =
                            self.resolve(t, (r, c), src, row_bus, col_bus, &mut port_use[idx])?;
                        port_use[idx].sram_b += 1;
                        commits.push(Commit::SramB(idx, addr, v));
                        self.stats.sram_b_writes += 1;
                    }
                    MicroOp::RegWrite(ridx, src) => {
                        if ridx >= self.cfg.rf_entries {
                            return Err(err(
                                here,
                                HazardKind::RegOutOfRange {
                                    idx: ridx,
                                    size: self.cfg.rf_entries,
                                },
                            ));
                        }
                        let v =
                            self.resolve(t, (r, c), src, row_bus, col_bus, &mut port_use[idx])?;
                        commits.push(Commit::Reg(idx, ridx, v));
                        self.stats.rf_writes += 1;
                    }
                    MicroOp::Sfu(op, sa, sb) => {
                        let a =
                            self.resolve(t, (r, c), sa, row_bus, col_bus, &mut port_use[idx])?;
                        let b =
                            self.resolve(t, (r, c), sb, row_bus, col_bus, &mut port_use[idx])?;
                        let unit_idx = match self.cfg.divsqrt {
                            DivSqrtImpl::Software => idx,
                            DivSqrtImpl::DiagonalPes => {
                                if r != c {
                                    return Err(err(here, HazardKind::SfuNotPresent));
                                }
                                idx
                            }
                            // Isolated: the single shared unit lives at index 0;
                            // any PE may feed it (operand rides the buses).
                            DivSqrtImpl::Isolated => 0,
                        };
                        // Wide-accumulator square root (§A.2): with the exponent
                        // extension, √acc is formed from the wide mantissa and a
                        // halved exponent, so an out-of-range sum of squares
                        // still yields a finite norm.
                        let wide_sqrt = (op == lac_fpu::DivSqrtOp::Sqrt
                            && sa == Source::Acc
                            && self.cfg.fpu.exponent_extension)
                            .then(|| self.pes[idx].mac.read_acc_sqrt());
                        let unit = self.pes[unit_idx]
                            .sfu
                            .as_mut()
                            .ok_or_else(|| err(here, HazardKind::SfuNotPresent))?;
                        match wide_sqrt {
                            Some(r) => unit
                                .issue_precomputed(op, r)
                                .map_err(|_| err(here, HazardKind::SfuBusy))?,
                            None => unit
                                .issue(op, a, b)
                                .map_err(|_| err(here, HazardKind::SfuBusy))?,
                        }
                        self.stats.sfu_ops += 1;
                    }
                }
            }
        }

        // --- phase 3: port-count checks -----------------------------------
        // Only live PEs use ports.
        for (idx, _) in step.pes() {
            let here = Some((idx / nr, idx % nr));
            let u = &port_use[idx];
            if u.sram_a > 1 {
                return Err(err(here, HazardKind::SramAPortConflict));
            }
            if u.sram_b > 2 {
                return Err(err(here, HazardKind::SramBPortConflict));
            }
            if u.rf_reads > 2 {
                return Err(err(
                    here,
                    HazardKind::RegOutOfRange {
                        idx: usize::MAX, // sentinel: too many read ports
                        size: self.cfg.rf_entries,
                    },
                ));
            }
        }

        // --- phase 4: external stores capture column buses ----------------
        for op in step.ext() {
            if let ExtOp::Store { col, addr } = *op {
                if addr >= mem.len() {
                    return Err(err(
                        None,
                        HazardKind::ExtOutOfRange {
                            addr,
                            size: mem.len(),
                        },
                    ));
                }
                let v = col_bus
                    .get(col)
                    .copied()
                    .flatten()
                    .ok_or_else(|| err(None, HazardKind::ExtStoreUndriven { col }))?;
                commits.push(Commit::Ext(addr, v));
                self.stats.ext_writes += 1;
            }
        }

        // --- phase 5: commit writes ---------------------------------------
        for cmt in commits.drain(..) {
            match cmt {
                Commit::SramA(idx, addr, v) => self.state[self.layout.sram_a(idx, addr)] = v,
                Commit::SramB(idx, addr, v) => self.state[self.layout.sram_b(idx, addr)] = v,
                Commit::Reg(idx, ridx, v) => self.state[self.layout.rf(idx, ridx)] = v,
                Commit::AccLoad(idx, v) => self.pes[idx].mac.load_acc(v),
                Commit::Ext(addr, v) => mem.write(addr, v),
            }
        }

        // --- phase 6: advance pipelines -----------------------------------
        for pe in &mut self.pes {
            pe.mac.step();
            if let Some(v) = pe.mac.take_result() {
                pe.mac_result = Some(v);
            }
            if let Some(sfu) = &mut pe.sfu {
                if let Some(v) = sfu.step() {
                    pe.sfu_result = Some(v);
                }
            }
        }

        self.stats.cycles += 1;
        if any_issue {
            self.stats.active_cycles += 1;
        }
        Ok(())
    }

    /// Resolve a source that is *not* allowed to be a bus (bus writers).
    fn resolve_nonbus(
        &mut self,
        t: usize,
        pe: (usize, usize),
        src: Source,
        ports: &mut PortUse,
    ) -> Result<f64, SimError> {
        match src {
            Source::RowBus | Source::ColBus => Err(SimError {
                cycle: t,
                pe: Some(pe),
                kind: HazardKind::BusToBusSameCycle,
            }),
            other => self.resolve_inner(t, pe, other, None, None, ports),
        }
    }

    fn resolve(
        &mut self,
        t: usize,
        pe: (usize, usize),
        src: Source,
        row_bus: &[Option<f64>],
        col_bus: &[Option<f64>],
        ports: &mut PortUse,
    ) -> Result<f64, SimError> {
        self.resolve_inner(t, pe, src, Some(row_bus), Some(col_bus), ports)
    }

    fn resolve_inner(
        &mut self,
        t: usize,
        (r, c): (usize, usize),
        src: Source,
        row_bus: Option<&[Option<f64>]>,
        col_bus: Option<&[Option<f64>]>,
        ports: &mut PortUse,
    ) -> Result<f64, SimError> {
        let idx = r * self.cfg.nr + c;
        let err = |kind| SimError {
            cycle: t,
            pe: Some((r, c)),
            kind,
        };
        match src {
            Source::RowBus => row_bus.and_then(|b| b[r]).ok_or_else(|| {
                err(HazardKind::BusUndriven {
                    row_bus: true,
                    index: r,
                })
            }),
            Source::ColBus => col_bus.and_then(|b| b[c]).ok_or_else(|| {
                err(HazardKind::BusUndriven {
                    row_bus: false,
                    index: c,
                })
            }),
            Source::SramA(addr) => {
                if addr >= self.cfg.sram_a_words {
                    return Err(err(HazardKind::SramOutOfRange {
                        which: 'A',
                        addr,
                        size: self.cfg.sram_a_words,
                    }));
                }
                ports.sram_a += 1;
                self.stats.sram_a_reads += 1;
                Ok(self.state[self.layout.sram_a(idx, addr)])
            }
            Source::SramB(addr) => {
                if addr >= self.cfg.sram_b_words {
                    return Err(err(HazardKind::SramOutOfRange {
                        which: 'B',
                        addr,
                        size: self.cfg.sram_b_words,
                    }));
                }
                ports.sram_b += 1;
                self.stats.sram_b_reads += 1;
                Ok(self.state[self.layout.sram_b(idx, addr)])
            }
            Source::Reg(ridx) => {
                if ridx >= self.cfg.rf_entries {
                    return Err(err(HazardKind::RegOutOfRange {
                        idx: ridx,
                        size: self.cfg.rf_entries,
                    }));
                }
                ports.rf_reads += 1;
                self.stats.rf_reads += 1;
                Ok(self.state[self.layout.rf(idx, ridx)])
            }
            Source::Acc => {
                if !self.pes[idx].mac.idle() {
                    return Err(err(HazardKind::AccHazard));
                }
                self.stats.acc_accesses += 1;
                Ok(self.pes[idx].mac.read_acc())
            }
            Source::MacResult => self.pes[idx]
                .mac_result
                .ok_or_else(|| err(HazardKind::MacResultEmpty)),
            Source::SfuResult => {
                let unit_idx = match self.cfg.divsqrt {
                    DivSqrtImpl::Isolated => 0,
                    _ => idx,
                };
                self.pes[unit_idx]
                    .sfu_result
                    .ok_or_else(|| err(HazardKind::SfuResultEmpty))
            }
            Source::Const(v) => Ok(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{PeInstr, ProgramBuilder};
    use lac_fpu::DivSqrtOp;

    fn small_cfg() -> LacConfig {
        LacConfig {
            nr: 2,
            sram_a_words: 16,
            sram_b_words: 16,
            ..Default::default()
        }
    }

    #[test]
    fn broadcast_and_mac() {
        // PE(0,0) broadcasts 3.0 on row 0; both row-0 PEs MAC it with 2.0.
        let cfg = small_cfg();
        let p = cfg.fpu.pipeline_depth;
        let mut lac = Lac::new(cfg);
        lac.sram_a_mut(0, 0)[0] = 3.0;
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.set_pe(t, 0, 0, PeInstr::default().row_write(Source::SramA(0)));
        b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(2.0)));
        b.pe_mut(t, 0, 1).mac = Some((Source::RowBus, Source::Const(4.0)));
        b.idle(p);
        let prog = b.build();
        let mut mem = ExternalMem::new(4);
        let stats = lac.run(&prog, &mut mem).unwrap();
        assert_eq!(lac.acc(0, 0), 6.0);
        assert_eq!(lac.acc(0, 1), 12.0);
        assert_eq!(stats.mac_ops, 2);
        assert_eq!(stats.row_bus_transfers, 1);
    }

    #[test]
    fn row_bus_conflict_detected() {
        let mut lac = Lac::new(small_cfg());
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.set_pe(t, 0, 0, PeInstr::default().row_write(Source::Const(1.0)));
        b.set_pe(t, 0, 1, PeInstr::default().row_write(Source::Const(2.0)));
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::RowBusConflict { row: 0 }));
    }

    #[test]
    fn sram_a_single_port_enforced() {
        let mut lac = Lac::new(small_cfg());
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        // read SramA twice in one cycle on the same PE
        b.pe_mut(t, 0, 0).mac = Some((Source::SramA(0), Source::SramA(1)));
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::SramAPortConflict));
    }

    #[test]
    fn sram_b_dual_port_allows_two() {
        let mut lac = Lac::new(small_cfg());
        lac.sram_b_mut(0, 0)[0] = 5.0;
        lac.sram_b_mut(0, 0)[1] = 7.0;
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::SramB(0), Source::SramB(1)));
        b.idle(5);
        let mut mem = ExternalMem::new(1);
        lac.run(&b.build(), &mut mem).unwrap();
        assert_eq!(lac.acc(0, 0), 35.0);
    }

    #[test]
    fn acc_read_during_flight_is_hazard() {
        let mut lac = Lac::new(small_cfg());
        let mut b = ProgramBuilder::new(2);
        let t0 = b.push_step();
        b.pe_mut(t0, 0, 0).mac = Some((Source::Const(1.0), Source::Const(1.0)));
        let t1 = b.push_step();
        b.pe_mut(t1, 0, 0).row_write = Some(Source::Acc);
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::AccHazard));
    }

    #[test]
    fn external_roundtrip_through_column_bus() {
        let mut lac = Lac::new(small_cfg());
        let mut mem = ExternalMem::from_vec(vec![42.0, 0.0]);
        let mut b = ProgramBuilder::new(2);
        // cycle 0: mem[0] -> col bus 1 -> PE(0,1) reg 0
        let t0 = b.push_step();
        b.ext(t0, ExtOp::Load { col: 1, addr: 0 });
        b.pe_mut(t0, 0, 1).reg_write = Some((0, Source::ColBus));
        // cycle 1: PE(0,1) drives col bus 1 from reg; store to mem[1]
        let t1 = b.push_step();
        b.pe_mut(t1, 0, 1).col_write = Some(Source::Reg(0));
        b.ext(t1, ExtOp::Store { col: 1, addr: 1 });
        let stats = lac.run(&b.build(), &mut mem).unwrap();
        assert_eq!(mem.read(1), 42.0);
        assert_eq!(stats.ext_reads, 1);
        assert_eq!(stats.ext_writes, 1);
        assert_eq!(stats.col_bus_transfers, 2);
    }

    #[test]
    fn ext_bandwidth_limit_enforced() {
        let cfg = LacConfig {
            ext_words_per_cycle: Some(1),
            ..small_cfg()
        };
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.ext(t, ExtOp::Load { col: 1, addr: 1 });
        let mut mem = ExternalMem::new(4);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(
            e.kind,
            HazardKind::ExtBandwidthExceeded { used: 2, limit: 1 }
        ));
    }

    #[test]
    fn sfu_reciprocal_via_isolated_unit() {
        let cfg = small_cfg();
        let lat = cfg.divsqrt.latency(DivSqrtOp::Reciprocal);
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(2);
        let t0 = b.push_step();
        b.pe_mut(t0, 1, 1).sfu = Some((
            DivSqrtOp::Reciprocal,
            Source::Const(8.0),
            Source::Const(0.0),
        ));
        b.idle(lat);
        let t1 = b.push_step();
        b.pe_mut(t1, 1, 1).reg_write = Some((0, Source::SfuResult));
        let mut mem = ExternalMem::new(1);
        lac.run(&b.build(), &mut mem).unwrap();
        assert!((lac.reg(1, 1, 0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn diagonal_sfu_rejects_offdiagonal_use() {
        let cfg = LacConfig {
            divsqrt: DivSqrtImpl::DiagonalPes,
            ..small_cfg()
        };
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.pe_mut(t, 0, 1).sfu = Some((
            DivSqrtOp::Reciprocal,
            Source::Const(2.0),
            Source::Const(0.0),
        ));
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::SfuNotPresent));
    }

    #[test]
    fn software_divsqrt_blocks_mac() {
        let cfg = LacConfig {
            divsqrt: DivSqrtImpl::Software,
            ..small_cfg()
        };
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(2);
        let t0 = b.push_step();
        b.pe_mut(t0, 0, 0).sfu = Some((
            DivSqrtOp::Reciprocal,
            Source::Const(2.0),
            Source::Const(0.0),
        ));
        let t1 = b.push_step();
        b.pe_mut(t1, 0, 0).mac = Some((Source::Const(1.0), Source::Const(1.0)));
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::MacBusyWithSfu));
    }

    #[test]
    fn fma_result_latch_readable_after_p_cycles() {
        let cfg = small_cfg();
        let p = cfg.fpu.pipeline_depth;
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(2);
        let t0 = b.push_step();
        b.pe_mut(t0, 0, 0).fma = Some((Source::Const(2.0), Source::Const(3.0), Source::Const(1.0)));
        b.idle(p - 1);
        let t1 = b.push_step();
        b.pe_mut(t1, 0, 0).reg_write = Some((1, Source::MacResult));
        let mut mem = ExternalMem::new(1);
        lac.run(&b.build(), &mut mem).unwrap();
        assert_eq!(lac.reg(0, 0, 1), 7.0);
    }

    #[test]
    fn undriven_bus_read_is_error() {
        let mut lac = Lac::new(small_cfg());
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
        let mut mem = ExternalMem::new(1);
        let e = lac.run(&b.build(), &mut mem).unwrap_err();
        assert!(matches!(
            e.kind,
            HazardKind::BusUndriven { row_bus: true, .. }
        ));
    }
}
