//! Decode-once compiled backend: lower a [`Program`] to a flat op tape.
//!
//! The reference interpreter in [`crate::core`] re-decodes every
//! [`Source`] of every PE on every cycle. For the long, regular programs
//! the kernel generators emit (GEMM inner loops, panel factorizations)
//! that decode work dominates host time. This module removes it:
//!
//! ```text
//!   Lac::run_kernel ──(kernel, shape, fp)──┐
//!                                          ├─▶ ProgramCache ──compile──▶ CompiledProgram
//!   Lac::run ───(structural_hash, fp)──────┘        │                        │
//!                                              (memoized,               flat op tape,
//!                                           shared cluster-wide)     pre-resolved offsets
//!                                                                         │
//!                                                  replay on the unified state arena
//! ```
//!
//! [`compile`] walks the program once, performing every static check the
//! interpreter would (bus conflicts, SRAM ports, address ranges, pipeline
//! hazards) and resolving every operand to a flat offset into the core's
//! state arena. Execution then replays batched op records — contiguous
//! runs of moves, MAC issues, and retirements — with no per-cycle decode
//! and no per-cycle branching on `Source`.
//!
//! Programs the lowering does not cover return a [`FallbackReason`] and
//! run on the interpreter instead, so the compiled backend is always safe
//! to select: results, [`ExecStats`], and hazard errors are bit-identical
//! either way (property-tested in `tests/compiled_props.rs`).
//!
//! Compilation is memoized in a [`ProgramCache`] under one of two keys,
//! both ending in the config fingerprint (`fp` above): a kernel program
//! run through [`Lac::run_kernel`] is keyed by `(kernel, shape,
//! fingerprint)`, and the store builds it once, next to its lowering; a
//! free-standing program run through [`Lac::run`] is keyed by
//! ([`Program::structural_hash`], fingerprint). `LacCluster` (and so
//! `LacService`, its one-chip front) shares one cache across all its
//! chips' same-config shards, so each distinct kernel shape is built and
//! each distinct program shape compiled exactly once per cluster. See `docs/PERFORMANCE.md` for the
//! measured speedups and `docs/ARCHITECTURE.md` for the pipeline diagram.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::config::{ExecBackend, LacConfig};
use crate::core::{ArenaLayout, ExternalMem, Lac};
use crate::error::SimError;
use crate::isa::{ExtOp, MicroOp, PeInstr, Program, Source, Step};
use crate::stats::ExecStats;
use lac_fpu::{DivSqrtImpl, DivSqrtOp, Precision};

/// Why a program could not be lowered to a [`CompiledProgram`].
///
/// A fallback is not an error: on the compiled backend
/// ([`ExecBackend::Compiled`]), [`Lac::run`] and [`Lac::run_kernel`]
/// transparently run the program on the reference interpreter instead,
/// which reproduces the exact result — including the exact [`SimError`]
/// when the reason is [`FallbackReason::WouldHazard`].
///
/// ```
/// use lac_sim::{compile, FallbackReason, LacConfig, ProgramBuilder, Source};
///
/// // Reading an undriven row bus is a hazard the static walk catches.
/// let mut b = ProgramBuilder::new(4);
/// let t = b.push_step();
/// b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
/// let outcome = compile(&LacConfig::default(), &b.build());
/// assert!(matches!(outcome, Err(FallbackReason::WouldHazard)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The static walk found a cycle on which the interpreter would
    /// raise a [`SimError`] (bus conflict, port overuse, range violation,
    /// pipeline hazard, …). The interpreter runs the program to produce
    /// the identical error and identical partial state.
    WouldHazard,
    /// The program reads a `MacResult`/`SfuResult` latch before any
    /// in-program retirement. The read may still succeed at run time if a
    /// *previous* program left the latch set — a dynamic condition the
    /// static lowering cannot resolve.
    LatchCarryIn,
    /// The program ends with work still in flight (a MAC op or SFU op
    /// that retires after the last cycle), so pipeline state would have
    /// to carry out into the next program.
    PipelineCarryOut,
    /// The configuration is too large (or degenerate, e.g. a zero-depth
    /// pipeline) for the tape's 32-bit operand offsets.
    Oversized,
}

// ---------------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------------

/// Two independently-seeded 64-bit hashers written in lockstep, giving a
/// 128-bit key; collisions would need to defeat both streams at once.
struct WideHasher {
    lo: DefaultHasher,
    hi: DefaultHasher,
}

impl WideHasher {
    fn new() -> Self {
        let mut lo = DefaultHasher::new();
        let mut hi = DefaultHasher::new();
        0x9e37_79b9_7f4a_7c15u64.hash(&mut lo);
        0xc2b2_ae3d_27d4_eb4fu64.hash(&mut hi);
        Self { lo, hi }
    }

    fn write_u8(&mut self, v: u8) {
        v.hash(&mut self.lo);
        v.hash(&mut self.hi);
    }

    fn write_u64(&mut self, v: u64) {
        v.hash(&mut self.lo);
        v.hash(&mut self.hi);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish128(&self) -> u128 {
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

fn source_code(s: Source) -> u8 {
    match s {
        Source::RowBus => 0,
        Source::ColBus => 1,
        Source::SramA(_) => 2,
        Source::SramB(_) => 3,
        Source::Reg(_) => 4,
        Source::Acc => 5,
        Source::MacResult => 6,
        Source::SfuResult => 7,
        Source::Const(_) => 8,
    }
}

fn hash_source(h: &mut WideHasher, s: Source) {
    h.write_u8(source_code(s));
    match s {
        Source::SramA(a) | Source::SramB(a) | Source::Reg(a) => h.write_usize(a),
        Source::Const(v) => h.write_u64(v.to_bits()),
        _ => {}
    }
}

fn hash_opt_source(h: &mut WideHasher, s: Option<Source>) {
    match s {
        None => h.write_u8(0xff),
        Some(s) => hash_source(h, s),
    }
}

fn divsqrt_op_code(op: DivSqrtOp) -> u8 {
    match op {
        DivSqrtOp::Reciprocal => 0,
        DivSqrtOp::Divide => 1,
        DivSqrtOp::Sqrt => 2,
        DivSqrtOp::InvSqrt => 3,
    }
}

fn hash_instr(h: &mut WideHasher, pi: &PeInstr) {
    hash_opt_source(h, pi.row_write);
    hash_opt_source(h, pi.col_write);
    match pi.mac {
        None => h.write_u8(0xff),
        Some((a, b)) => {
            h.write_u8(1);
            hash_source(h, a);
            hash_source(h, b);
        }
    }
    match pi.fma {
        None => h.write_u8(0xff),
        Some((a, b, c)) => {
            h.write_u8(2);
            hash_source(h, a);
            hash_source(h, b);
            hash_source(h, c);
        }
    }
    h.write_u8(pi.negate_product as u8);
    match pi.cmp_update {
        None => h.write_u8(0xff),
        Some(c) => {
            h.write_u8(3);
            hash_source(h, c.value);
            h.write_u64(c.tag.to_bits());
            h.write_usize(c.val_reg);
            h.write_usize(c.tag_reg);
        }
    }
    hash_opt_source(h, pi.acc_load);
    match pi.sram_a_write {
        None => h.write_u8(0xff),
        Some((addr, s)) => {
            h.write_u8(4);
            h.write_usize(addr);
            hash_source(h, s);
        }
    }
    match pi.sram_b_write {
        None => h.write_u8(0xff),
        Some((addr, s)) => {
            h.write_u8(5);
            h.write_usize(addr);
            hash_source(h, s);
        }
    }
    match pi.reg_write {
        None => h.write_u8(0xff),
        Some((idx, s)) => {
            h.write_u8(6);
            h.write_usize(idx);
            hash_source(h, s);
        }
    }
    match pi.sfu {
        None => h.write_u8(0xff),
        Some((op, a, b)) => {
            h.write_u8(7);
            h.write_u8(divsqrt_op_code(op));
            hash_source(h, a);
            hash_source(h, b);
        }
    }
}

/// 128-bit structural hash of a program (see [`Program::structural_hash`],
/// which memoizes this): mesh size, step count, every external transfer,
/// and every non-idle `PeInstr` with its cycle and PE position. Idle PEs
/// and idle steps contribute only their position in the count.
pub(crate) fn hash_program(prog: &Program) -> u128 {
    let mut h = WideHasher::new();
    h.write_usize(prog.nr());
    h.write_usize(prog.len());
    for (t, step) in prog.steps().enumerate() {
        for op in step.ext() {
            match *op {
                ExtOp::Load { col, addr } => {
                    h.write_u8(0xe1);
                    h.write_usize(t);
                    h.write_usize(col);
                    h.write_usize(addr);
                }
                ExtOp::Store { col, addr } => {
                    h.write_u8(0xe2);
                    h.write_usize(t);
                    h.write_usize(col);
                    h.write_usize(addr);
                }
            }
        }
        for (i, ops) in step.pes() {
            h.write_u8(0xd0);
            h.write_usize(t);
            h.write_usize(i);
            hash_instr(&mut h, &ops.to_instr());
        }
    }
    h.finish128()
}

fn divsqrt_impl_code(imp: DivSqrtImpl) -> u8 {
    match imp {
        DivSqrtImpl::Software => 0,
        DivSqrtImpl::Isolated => 1,
        DivSqrtImpl::DiagonalPes => 2,
    }
}

/// Fingerprint of every configuration field the lowering depends on.
/// [`crate::config::ExecBackend`] is deliberately excluded: it selects
/// *whether* to use the tape, not what the tape contains.
pub(crate) fn config_fingerprint(cfg: &LacConfig) -> u64 {
    let mut h = DefaultHasher::new();
    cfg.nr.hash(&mut h);
    cfg.sram_a_words.hash(&mut h);
    cfg.sram_b_words.hash(&mut h);
    cfg.rf_entries.hash(&mut h);
    cfg.fpu.pipeline_depth.hash(&mut h);
    cfg.fpu.sfu_latency.hash(&mut h);
    (cfg.fpu.precision == Precision::Single).hash(&mut h);
    cfg.fpu.exponent_extension.hash(&mut h);
    divsqrt_impl_code(cfg.divsqrt).hash(&mut h);
    cfg.ext_words_per_cycle.hash(&mut h);
    cfg.comparator_extension.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// The program cache
// ---------------------------------------------------------------------------

/// Counters describing a [`ProgramCache`]'s effectiveness and footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct (program, config) pairs resolved to a compile outcome.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Kernel programs the store holds, one per `(kernel, shape, config)`
    /// (see [`Lac::run_kernel`]), whichever backend ran them.
    pub programs: usize,
    /// The sum of their [`Program::heap_bytes`].
    pub program_heap_bytes: usize,
}

/// Words of shape a kernel key holds (GEMM's shape is the longest).
const SHAPE_WORDS: usize = 13;

/// A store key; both kinds end in the config fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// A free-standing program, by [`Program::structural_hash`].
    Program(u128, u64),
    /// A kernel program, by name and shape (zero-padded into a fixed
    /// array, so a hit allocates nothing).
    Kernel(&'static str, [u64; SHAPE_WORDS], u64),
}

/// One entry. A kernel entry's program is built by its first caller (a
/// free-standing program stays with its caller); the compile outcome is
/// resolved by the first compiled-backend lookup, so interpreter runs
/// never compile. Both are filled outside the table lock, and racing
/// callers wait on them instead of building or compiling again.
#[derive(Debug, Default)]
struct Entry {
    program: OnceLock<Program>,
    outcome: OnceLock<Arc<CompileOutcome>>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: Mutex<HashMap<Key, Arc<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cluster's program store: kernel programs and every program's
/// compiled lowering.
///
/// Kernel programs are keyed by `(kernel, shape, config fingerprint)`:
/// a kernel generator is a pure function of its shape, so each shape is
/// built once per store, next to its compile outcome
/// ([`Lac::run_kernel`]). Free-standing programs ([`Lac::run`]) are keyed
/// by ([`Program::structural_hash`], configuration fingerprint). Either
/// way shards with the same configuration share every lowering — a
/// cluster compiles each distinct program shape once, no matter how many
/// cores replay it. Handles are cheap [`Arc`] clones of one shared store;
/// give every core the same handle via [`Lac::set_program_cache`] (the
/// `LacService` / `LacCluster` constructors do this for you).
///
/// ```
/// use lac_sim::{ExternalMem, Lac, LacConfig, ProgramBuilder, ProgramCache, Source};
///
/// let cfg = LacConfig::default();
/// let cache = ProgramCache::new();
/// let mut a = Lac::new(cfg);
/// let mut b = Lac::new(cfg);
/// a.set_program_cache(cache.clone());
/// b.set_program_cache(cache.clone());
///
/// let mut pb = ProgramBuilder::new(cfg.nr);
/// let t = pb.push_step();
/// pb.pe_mut(t, 0, 0).mac = Some((Source::Const(2.0), Source::Const(3.0)));
/// pb.idle(cfg.fpu.pipeline_depth);
/// let prog = pb.build();
///
/// let mut mem = ExternalMem::new(1);
/// a.run(&prog, &mut mem).unwrap();
/// b.run(&prog, &mut mem).unwrap(); // same shape: compiled once, replayed twice
/// assert_eq!(cache.stats().entries, 1);
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramCache {
    inner: Arc<CacheInner>,
}

impl ProgramCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current effectiveness counters and the kernel programs' footprint.
    pub fn stats(&self) -> CacheStats {
        let map = self.inner.map.lock().expect("program cache poisoned");
        let programs = map.values().filter_map(|e| e.program.get());
        CacheStats {
            entries: map.values().filter(|e| e.outcome.get().is_some()).count(),
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            programs: programs.clone().count(),
            program_heap_bytes: programs.map(Program::heap_bytes).sum(),
        }
    }

    /// `key`'s entry, inserted empty on first sight.
    fn entry(&self, key: Key) -> Arc<Entry> {
        let mut map = self.inner.map.lock().expect("program cache poisoned");
        Arc::clone(map.entry(key).or_default())
    }

    /// Compile `prog` into `entry` on first use, counting a miss for the
    /// lookup that compiles and a hit for every other.
    fn resolve(&self, entry: &Entry, cfg: &LacConfig, prog: &Program) -> Arc<CompileOutcome> {
        let mut compiled = false;
        let outcome = entry.outcome.get_or_init(|| {
            compiled = true;
            Arc::new(match compile(cfg, prog) {
                Ok(cp) => CompileOutcome::Compiled(Box::new(cp)),
                Err(reason) => CompileOutcome::Fallback(reason),
            })
        });
        let counter = if compiled {
            &self.inner.misses
        } else {
            &self.inner.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(outcome)
    }
}

/// What the cache stores per (program, config): a tape, or the reason
/// there is none (so ineligible programs are not re-analyzed either).
#[derive(Debug)]
pub(crate) enum CompileOutcome {
    Compiled(Box<CompiledProgram>),
    Fallback(FallbackReason),
}

impl CompileOutcome {
    /// `Some(reason)` when the outcome is a fallback (diagnostics/tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn fallback_reason(&self) -> Option<FallbackReason> {
        match self {
            CompileOutcome::Compiled(_) => None,
            CompileOutcome::Fallback(r) => Some(*r),
        }
    }
}

// ---------------------------------------------------------------------------
// The op tape
// ---------------------------------------------------------------------------

/// `state[dst] = state[src]`.
#[derive(Clone, Copy, Debug)]
struct MovePair {
    src: u32,
    dst: u32,
}

/// External transfer between `mem[addr]` and a column-bus arena slot.
#[derive(Clone, Copy, Debug)]
struct ExtRec {
    addr: u32,
    bus: u32,
}

/// A MAC issue: round + sign the operands into the pipeline slot.
#[derive(Clone, Copy, Debug)]
struct IssueRec {
    a: u32,
    b: u32,
    slot: u32,
    negate: bool,
}

/// A free-standing FMA issue (three operands).
#[derive(Clone, Copy, Debug)]
struct FmaRec {
    a: u32,
    b: u32,
    c: u32,
    slot: u32,
    negate: bool,
}

/// A retirement: apply pipeline slot `slot` to PE `pe`'s unit.
#[derive(Clone, Copy, Debug)]
struct RetireRec {
    pe: u32,
    slot: u32,
}

/// A comparator micro-op, split into its phase-2 compare (`Cmp`) and its
/// end-of-cycle conditional commit (`CmpCommit`).
#[derive(Clone, Copy, Debug)]
struct CmpRec {
    /// Arena offset of the pivot-magnitude register (read and maybe written).
    val: u32,
    /// Resolved offset of the candidate value.
    value: u32,
    /// Temp holding the compare outcome (1.0 = replace).
    flag: u32,
    /// Temp staging the candidate for the commit.
    staged: u32,
    /// Arena offset of the tag register.
    tag_dst: u32,
    /// Tag constant latched alongside a new maximum.
    tag: f64,
}

/// An SFU issue: compute the functional result at issue, park it in the
/// unit's pending slot until the retirement move publishes it.
#[derive(Clone, Copy, Debug)]
struct SfuRec {
    /// Wide-accumulator square root (§A.2): read the issuing PE's wide
    /// accumulator instead of an IEEE operand.
    wide: bool,
    op: DivSqrtOp,
    a: u32,
    b: u32,
    /// Pending-result slot of the executing unit.
    pending: u32,
    /// Issuing PE (whose accumulator the wide square root reads).
    pe: u32,
}

/// One tape record. Run variants (`start`, `len`) batch contiguous spans
/// of a side table so steady-state cycles replay as a handful of tight
/// slice loops.
#[derive(Clone, Copy, Debug)]
enum COp {
    Moves { start: u32, len: u32 },
    ExtLoads { start: u32, len: u32 },
    ExtStores { start: u32, len: u32 },
    MacIssues { start: u32, len: u32 },
    FmaIssues { start: u32, len: u32 },
    MacRetires { start: u32, len: u32 },
    FmaRetires { start: u32, len: u32 },
    ReadAcc { pe: u32, dst: u32 },
    AccLoad { pe: u32, src: u32 },
    Cmp { idx: u32 },
    CmpCommit { idx: u32 },
    SfuIssue { idx: u32 },
}

/// A program lowered to a flat, decode-free op tape.
///
/// Produced by [`compile`] (usually via a [`ProgramCache`]) and replayed
/// by [`Lac::run`] and [`Lac::run_kernel`] on the compiled backend
/// ([`ExecBackend::Compiled`]). Every operand is a precomputed offset into
/// the core's unified state arena; the tape carries the run's entire
/// static [`ExecStats`] so execution only counts the one data-dependent
/// event (comparator register updates).
///
/// ```
/// use lac_sim::{compile, LacConfig, ProgramBuilder, Source};
///
/// let cfg = LacConfig::default();
/// let mut b = ProgramBuilder::new(cfg.nr);
/// let t = b.push_step();
/// b.pe_mut(t, 0, 0).mac = Some((Source::Const(2.0), Source::Const(3.0)));
/// b.idle(cfg.fpu.pipeline_depth);
/// let cp = compile(&cfg, &b.build()).unwrap();
/// assert_eq!(cp.static_stats().mac_ops, 1);
/// assert_eq!(cp.static_stats().cycles, 1 + cfg.fpu.pipeline_depth as u64);
/// assert_eq!(cp.min_mem_words(), 0); // touches no external memory
/// ```
#[derive(Debug)]
pub struct CompiledProgram {
    ops: Vec<COp>,
    moves: Vec<MovePair>,
    ext_loads: Vec<ExtRec>,
    ext_stores: Vec<ExtRec>,
    mac_issues: Vec<IssueRec>,
    fma_issues: Vec<FmaRec>,
    mac_retires: Vec<RetireRec>,
    fma_retires: Vec<RetireRec>,
    cmps: Vec<CmpRec>,
    sfus: Vec<SfuRec>,
    /// Deduplicated `Source::Const` pool, copied into the arena per run.
    consts: Vec<f64>,
    /// Every counter of the run except data-dependent comparator writes.
    static_stats: ExecStats,
    /// Smallest external bank the program addresses without faulting.
    min_mem_words: usize,
    /// Arena size (architectural words + execution suffix) the tape needs.
    arena_words: usize,
    const_base: usize,
    mac_latch_base: usize,
    sfu_latch_base: usize,
    /// Round MAC/FMA operands through `f32` (single-precision datapath).
    round_single: bool,
    /// Per-PE MAC+FMA issue counts (energy model bookkeeping).
    mac_issue_counts: Vec<(u32, u64)>,
    /// Per-unit SFU issue counts.
    sfu_issue_counts: Vec<(u32, u64)>,
    /// PEs whose `MacResult` latch is defined when the program ends.
    mac_latched: Vec<u32>,
    /// Units whose `SfuResult` latch is defined when the program ends.
    sfu_latched: Vec<u32>,
}

impl CompiledProgram {
    /// Number of tape records (batched runs count as one).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The run's statically-known [`ExecStats`]. The only counter missing
    /// is the data-dependent part of `rf_writes` (comparator updates),
    /// which execution adds.
    pub fn static_stats(&self) -> &ExecStats {
        &self.static_stats
    }

    /// Smallest external bank (in words) the program can run against; on
    /// a smaller bank [`Lac::run`] and [`Lac::run_kernel`] fall back to
    /// the interpreter, which raises the out-of-range error.
    pub fn min_mem_words(&self) -> usize {
        self.min_mem_words
    }

    /// Words of arena state the tape addresses (architectural words plus
    /// the execution suffix: buses, latches, pipeline slots, constants,
    /// cycle-local temps).
    pub fn arena_words(&self) -> usize {
        self.arena_words
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Lower `prog` to a [`CompiledProgram`] under `cfg`, or report why it
/// must run on the interpreter instead.
///
/// The walk mirrors the interpreter's six phases cycle for cycle —
/// resolving operands with the same checks and counting the same stats —
/// so the tape is bit-identical to interpretation by construction.
/// Usually invoked through a [`ProgramCache`] rather than directly.
///
/// # Panics
///
/// Panics if `prog.nr != cfg.nr` (same contract as [`Lac::run`]).
///
/// ```
/// use lac_sim::{compile, LacConfig, ProgramBuilder, Source};
///
/// let cfg = LacConfig::default();
/// let mut b = ProgramBuilder::new(cfg.nr);
/// let t = b.push_step();
/// b.pe_mut(t, 1, 1).reg_write = Some((0, Source::Const(7.0)));
/// let cp = compile(&cfg, &b.build()).unwrap();
/// assert_eq!(cp.static_stats().rf_writes, 1);
/// ```
pub fn compile(cfg: &LacConfig, prog: &Program) -> Result<CompiledProgram, FallbackReason> {
    assert_eq!(prog.nr(), cfg.nr, "program/mesh dimension mismatch");
    Compiler::new(cfg, prog)?.run()
}

/// Per-PE, per-cycle port-usage counters (mirror of the interpreter's).
#[derive(Clone, Copy, Default)]
struct Ports {
    sram_a: usize,
    sram_b: usize,
    rf_reads: usize,
}

/// A deferred end-of-cycle write, kept in interpreter push order.
enum CommitRec {
    /// SRAM/RF word write (value already staged if clobberable).
    Word {
        src: u32,
        dst: u32,
    },
    AccLoad {
        pe: u32,
        src: u32,
    },
    Cmp(u32),
    Ext {
        bus: u32,
        addr: u32,
    },
}

/// An end-of-cycle retirement event.
#[derive(Clone, Copy)]
enum RetireEvt {
    Mac { pe: u32, slot: u32 },
    Fma { pe: u32, slot: u32 },
    Sfu { unit: u32 },
}

/// Pushes `$rec` onto the `$table` side table and extends the trailing
/// `COp::$variant` run if it is contiguous, else opens a new run.
macro_rules! push_run {
    ($self:ident, $table:ident, $variant:ident, $rec:expr) => {{
        $self.$table.push($rec);
        let end = $self.$table.len() - 1;
        if let Some(COp::$variant { start, len }) = $self.ops.last_mut() {
            if *start as usize + *len as usize == end {
                *len += 1;
                return;
            }
        }
        $self.ops.push(COp::$variant {
            start: end as u32,
            len: 1,
        });
    }};
}

struct Compiler<'a> {
    cfg: &'a LacConfig,
    prog: &'a Program,
    layout: ArenaLayout,
    nr: usize,
    npes: usize,
    p: usize,
    // Execution-suffix bases (absolute arena offsets).
    row_bus: usize,
    col_bus: usize,
    mac_latch: usize,
    sfu_latch: usize,
    sfu_pending: usize,
    mac_pending: usize,
    const_base: usize,
    temps_base: usize,
    consts: Vec<f64>,
    const_idx: HashMap<u64, u32>,
    has_sfu: Vec<bool>,
    // Tape under construction.
    ops: Vec<COp>,
    moves: Vec<MovePair>,
    ext_loads: Vec<ExtRec>,
    ext_stores: Vec<ExtRec>,
    mac_issues: Vec<IssueRec>,
    fma_issues: Vec<FmaRec>,
    mac_retires: Vec<RetireRec>,
    fma_retires: Vec<RetireRec>,
    cmps: Vec<CmpRec>,
    sfus: Vec<SfuRec>,
    stats: ExecStats,
    // Static pipeline/latch tracking (exact, given idle units at entry).
    mac_busy_through: Vec<Option<usize>>,
    mac_ready: Vec<usize>,
    sfu_busy_through: Vec<Option<usize>>,
    sfu_ready: Vec<usize>,
    mac_counts: Vec<u64>,
    sfu_counts: Vec<u64>,
    mac_latched: Vec<bool>,
    sfu_latched: Vec<bool>,
    retires: Vec<Vec<RetireEvt>>,
    // Per-cycle scratch.
    row_driven: Vec<bool>,
    col_driven: Vec<bool>,
    ports: Vec<Ports>,
    commits: Vec<CommitRec>,
    temp_count: usize,
    max_temps: usize,
}

impl<'a> Compiler<'a> {
    fn new(cfg: &'a LacConfig, prog: &'a Program) -> Result<Self, FallbackReason> {
        let nr = cfg.nr;
        let npes = nr * nr;
        let p = cfg.fpu.pipeline_depth;
        if p == 0 {
            return Err(FallbackReason::Oversized);
        }
        let layout = ArenaLayout::new(cfg);

        // Deduplicated constant pool (known before the walk so the temps
        // region can start right after it).
        let mut consts = Vec::new();
        let mut const_bits = HashMap::new();
        for v in prog.consts() {
            const_bits.entry(v.to_bits()).or_insert_with(|| {
                consts.push(v);
                consts.len() - 1
            });
        }

        let row_bus = layout.words;
        let col_bus = row_bus + nr;
        let mac_latch = col_bus + nr;
        let sfu_latch = mac_latch + npes;
        let sfu_pending = sfu_latch + npes;
        let mac_pending = sfu_pending + npes;
        let const_base = mac_pending
            .checked_add(
                npes.checked_mul(p)
                    .and_then(|x| x.checked_mul(3))
                    .ok_or(FallbackReason::Oversized)?,
            )
            .ok_or(FallbackReason::Oversized)?;
        let temps_base = const_base + consts.len();
        // Worst case ≤ 32 temps per PE per cycle (≤ 14 operand resolves,
        // 2 comparator temps, ≤ 4 commit stagings); guard the whole
        // suffix against the tape's 32-bit offsets up front so every
        // later `as u32` cast is infallible.
        match temps_base.checked_add(npes * 32) {
            Some(cap) if cap <= u32::MAX as usize => {}
            _ => return Err(FallbackReason::Oversized),
        }
        let const_idx = const_bits
            .into_iter()
            .map(|(bits, i)| (bits, (const_base + i) as u32))
            .collect();

        let has_sfu = (0..npes)
            .map(|idx| {
                let (r, c) = (idx / nr, idx % nr);
                match cfg.divsqrt {
                    DivSqrtImpl::Software => true,
                    DivSqrtImpl::Isolated => idx == 0,
                    DivSqrtImpl::DiagonalPes => r == c,
                }
            })
            .collect();

        Ok(Self {
            cfg,
            prog,
            layout,
            nr,
            npes,
            p,
            row_bus,
            col_bus,
            mac_latch,
            sfu_latch,
            sfu_pending,
            mac_pending,
            const_base,
            temps_base,
            consts,
            const_idx,
            has_sfu,
            ops: Vec::new(),
            moves: Vec::new(),
            ext_loads: Vec::new(),
            ext_stores: Vec::new(),
            mac_issues: Vec::new(),
            fma_issues: Vec::new(),
            mac_retires: Vec::new(),
            fma_retires: Vec::new(),
            cmps: Vec::new(),
            sfus: Vec::new(),
            stats: ExecStats::default(),
            mac_busy_through: vec![None; npes],
            mac_ready: vec![usize::MAX; npes],
            sfu_busy_through: vec![None; npes],
            sfu_ready: vec![usize::MAX; npes],
            mac_counts: vec![0; npes],
            sfu_counts: vec![0; npes],
            mac_latched: vec![false; npes],
            sfu_latched: vec![false; npes],
            retires: vec![Vec::new(); prog.len()],
            row_driven: vec![false; nr],
            col_driven: vec![false; nr],
            ports: vec![Ports::default(); npes],
            commits: Vec::new(),
            temp_count: 0,
            max_temps: 0,
        })
    }

    fn run(mut self) -> Result<CompiledProgram, FallbackReason> {
        let prog = self.prog;
        for (t, step) in prog.steps().enumerate() {
            self.compile_step(t, step)?;
        }
        let arena_words = self.temps_base + self.max_temps;
        debug_assert!(arena_words <= u32::MAX as usize);
        let pack = |counts: &[u64]| {
            counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect::<Vec<_>>()
        };
        let indices = |flags: &[bool]| {
            flags
                .iter()
                .enumerate()
                .filter(|(_, &f)| f)
                .map(|(i, _)| i as u32)
                .collect::<Vec<_>>()
        };
        Ok(CompiledProgram {
            ops: self.ops,
            moves: self.moves,
            ext_loads: self.ext_loads,
            ext_stores: self.ext_stores,
            mac_issues: self.mac_issues,
            fma_issues: self.fma_issues,
            mac_retires: self.mac_retires,
            fma_retires: self.fma_retires,
            cmps: self.cmps,
            sfus: self.sfus,
            consts: self.consts,
            static_stats: self.stats,
            min_mem_words: self.prog.ext_words(),
            arena_words,
            const_base: self.const_base,
            mac_latch_base: self.mac_latch,
            sfu_latch_base: self.sfu_latch,
            round_single: self.cfg.fpu.precision == Precision::Single,
            mac_issue_counts: pack(&self.mac_counts),
            sfu_issue_counts: pack(&self.sfu_counts),
            mac_latched: indices(&self.mac_latched),
            sfu_latched: indices(&self.sfu_latched),
        })
    }

    // -- emitters -----------------------------------------------------------

    fn push_move(&mut self, src: u32, dst: u32) {
        push_run!(self, moves, Moves, MovePair { src, dst })
    }

    fn push_ext_load(&mut self, rec: ExtRec) {
        push_run!(self, ext_loads, ExtLoads, rec)
    }

    fn push_ext_store(&mut self, rec: ExtRec) {
        push_run!(self, ext_stores, ExtStores, rec)
    }

    fn push_mac_issue(&mut self, rec: IssueRec) {
        push_run!(self, mac_issues, MacIssues, rec)
    }

    fn push_fma_issue(&mut self, rec: FmaRec) {
        push_run!(self, fma_issues, FmaIssues, rec)
    }

    fn push_mac_retire(&mut self, rec: RetireRec) {
        push_run!(self, mac_retires, MacRetires, rec)
    }

    fn push_fma_retire(&mut self, rec: RetireRec) {
        push_run!(self, fma_retires, FmaRetires, rec)
    }

    /// Allocate a cycle-local temp slot.
    fn temp(&mut self) -> u32 {
        let off = self.temps_base + self.temp_count;
        self.temp_count += 1;
        self.max_temps = self.max_temps.max(self.temp_count);
        off as u32
    }

    /// Stage a commit value: arena words below `layout.words` (SRAM/RF)
    /// can be clobbered by an earlier commit of the same cycle, so they
    /// are copied to a temp while the cycle's reads are still in flight.
    /// Everything else (buses, latches, pending slots, constants, temps)
    /// is stable until the cycle ends and is read directly at commit.
    fn staged(&mut self, off: u32) -> u32 {
        if (off as usize) < self.layout.words {
            let tmp = self.temp();
            self.push_move(off, tmp);
            tmp
        } else {
            off
        }
    }

    // -- static pipeline state ----------------------------------------------

    fn mac_busy(&self, pe: usize, t: usize) -> bool {
        self.mac_busy_through[pe].is_some_and(|b| b >= t)
    }

    fn sfu_busy(&self, unit: usize, t: usize) -> bool {
        self.sfu_busy_through[unit].is_some_and(|b| b >= t)
    }

    /// Pipeline-slot offset for an issue at cycle `t` on `pe`. The ring
    /// reuses a slot after `p` cycles, which is safe because the retire
    /// that reads it (end of cycle `t + p - 1`) is emitted before the
    /// next issue that writes it (phase 2 of cycle `t + p`).
    fn pending_slot(&self, t: usize, pe: usize) -> u32 {
        (self.mac_pending + ((t % self.p) * self.npes + pe) * 3) as u32
    }

    fn schedule_mac_retire(
        &mut self,
        t: usize,
        pe: usize,
        slot: u32,
        is_fma: bool,
    ) -> Result<(), FallbackReason> {
        let retire = t + self.p - 1;
        if retire >= self.prog.len() {
            return Err(FallbackReason::PipelineCarryOut);
        }
        self.retires[retire].push(if is_fma {
            RetireEvt::Fma {
                pe: pe as u32,
                slot,
            }
        } else {
            RetireEvt::Mac {
                pe: pe as u32,
                slot,
            }
        });
        self.mac_busy_through[pe] = Some(retire);
        self.mac_counts[pe] += 1;
        if is_fma {
            self.mac_ready[pe] = self.mac_ready[pe].min(t + self.p);
        }
        Ok(())
    }

    // -- operand resolution -------------------------------------------------

    /// Mirror of the interpreter's `resolve`/`resolve_nonbus`: performs
    /// the identical static checks and stats accounting, and returns the
    /// arena offset the value will live at when the op executes.
    fn resolve(
        &mut self,
        t: usize,
        r: usize,
        c: usize,
        src: Source,
        buses: bool,
    ) -> Result<u32, FallbackReason> {
        use FallbackReason::*;
        let idx = r * self.nr + c;
        match src {
            Source::RowBus => {
                if !buses || !self.row_driven[r] {
                    return Err(WouldHazard);
                }
                Ok((self.row_bus + r) as u32)
            }
            Source::ColBus => {
                if !buses || !self.col_driven[c] {
                    return Err(WouldHazard);
                }
                Ok((self.col_bus + c) as u32)
            }
            Source::SramA(addr) => {
                if addr >= self.cfg.sram_a_words {
                    return Err(WouldHazard);
                }
                self.ports[idx].sram_a += 1;
                self.stats.sram_a_reads += 1;
                Ok(self.layout.sram_a(idx, addr) as u32)
            }
            Source::SramB(addr) => {
                if addr >= self.cfg.sram_b_words {
                    return Err(WouldHazard);
                }
                self.ports[idx].sram_b += 1;
                self.stats.sram_b_reads += 1;
                Ok(self.layout.sram_b(idx, addr) as u32)
            }
            Source::Reg(ridx) => {
                if ridx >= self.cfg.rf_entries {
                    return Err(WouldHazard);
                }
                self.ports[idx].rf_reads += 1;
                self.stats.rf_reads += 1;
                Ok(self.layout.rf(idx, ridx) as u32)
            }
            Source::Acc => {
                if self.mac_busy(idx, t) {
                    return Err(WouldHazard);
                }
                self.stats.acc_accesses += 1;
                let dst = self.temp();
                self.ops.push(COp::ReadAcc {
                    pe: idx as u32,
                    dst,
                });
                Ok(dst)
            }
            Source::MacResult => {
                if self.mac_ready[idx] > t {
                    return Err(LatchCarryIn);
                }
                Ok((self.mac_latch + idx) as u32)
            }
            Source::SfuResult => {
                let unit = match self.cfg.divsqrt {
                    DivSqrtImpl::Isolated => 0,
                    _ => idx,
                };
                if self.sfu_ready[unit] > t {
                    return Err(LatchCarryIn);
                }
                Ok((self.sfu_latch + unit) as u32)
            }
            Source::Const(v) => Ok(self.const_idx[&v.to_bits()]),
        }
    }

    /// One cycle of the walk, phase for phase in interpreter order.
    fn compile_step(&mut self, t: usize, step: Step<'_>) -> Result<(), FallbackReason> {
        use FallbackReason::*;
        let nr = self.nr;
        self.temp_count = 0;
        self.row_driven.fill(false);
        self.col_driven.fill(false);
        self.ports.fill(Ports::default());
        self.commits.clear();
        let mut any_issue = false;

        // Phase 0: external bandwidth.
        if let Some(limit) = self.cfg.ext_words_per_cycle {
            if step.ext().len() > limit {
                return Err(WouldHazard);
            }
        }

        // Phase 1: external loads drive column buses…
        for op in step.ext() {
            if let ExtOp::Load { col, addr } = *op {
                let addr = u32::try_from(addr).map_err(|_| Oversized)?;
                if col >= nr || self.col_driven[col] {
                    return Err(WouldHazard);
                }
                self.col_driven[col] = true;
                self.stats.ext_reads += 1;
                self.stats.col_bus_transfers += 1;
                let bus = (self.col_bus + col) as u32;
                self.push_ext_load(ExtRec { addr, bus });
            }
        }

        // …then PE bus writers (non-bus sources only).
        for (idx, ops) in step.pes() {
            let (r, c) = (idx / nr, idx % nr);
            for op in ops.bus_writes() {
                match op {
                    MicroOp::RowWrite(src) => {
                        let off = self.resolve(t, r, c, src, false)?;
                        if self.row_driven[r] {
                            return Err(WouldHazard);
                        }
                        self.row_driven[r] = true;
                        self.stats.row_bus_transfers += 1;
                        self.push_move(off, (self.row_bus + r) as u32);
                    }
                    MicroOp::ColWrite(src) => {
                        let off = self.resolve(t, r, c, src, false)?;
                        if self.col_driven[c] {
                            return Err(WouldHazard);
                        }
                        self.col_driven[c] = true;
                        self.stats.col_bus_transfers += 1;
                        self.push_move(off, (self.col_bus + c) as u32);
                    }
                    _ => {}
                }
            }
        }

        // Phase 2: resolve datapath inputs, issue MAC/FMA/SFU, stage
        // commits — in the interpreter's exact (r, c) and field order.
        for (idx, ops) in step.pes() {
            let (r, c) = (idx / nr, idx % nr);
            let (mac, fma, negate) = ops.product_flags();
            if mac && fma {
                return Err(WouldHazard);
            }
            let sfu_blocks =
                self.cfg.divsqrt.blocks_mac() && self.has_sfu[idx] && self.sfu_busy(idx, t);
            if sfu_blocks && (mac || fma) {
                return Err(WouldHazard);
            }

            for op in ops.iter() {
                match op {
                    MicroOp::RowWrite(_) | MicroOp::ColWrite(_) | MicroOp::NegateProduct => {}
                    MicroOp::Mac(sa, sb) => {
                        let a = self.resolve(t, r, c, sa, true)?;
                        let b = self.resolve(t, r, c, sb, true)?;
                        let slot = self.pending_slot(t, idx);
                        self.push_mac_issue(IssueRec { a, b, slot, negate });
                        self.schedule_mac_retire(t, idx, slot, false)?;
                        self.stats.mac_ops += 1;
                        any_issue = true;
                    }
                    MicroOp::Fma(sa, sb, sc) => {
                        let a = self.resolve(t, r, c, sa, true)?;
                        let b = self.resolve(t, r, c, sb, true)?;
                        let cv = self.resolve(t, r, c, sc, true)?;
                        let slot = self.pending_slot(t, idx);
                        self.push_fma_issue(FmaRec {
                            a,
                            b,
                            c: cv,
                            slot,
                            negate,
                        });
                        self.schedule_mac_retire(t, idx, slot, true)?;
                        self.stats.fma_ops += 1;
                        any_issue = true;
                    }
                    MicroOp::CmpUpdate(cmp) => {
                        if cmp.val_reg >= self.cfg.rf_entries || cmp.tag_reg >= self.cfg.rf_entries
                        {
                            return Err(WouldHazard);
                        }
                        let value = self.resolve(t, r, c, cmp.value, true)?;
                        self.stats.cmp_ops += 1;
                        let flag = self.temp();
                        let staged = self.temp();
                        let ci = self.cmps.len() as u32;
                        self.cmps.push(CmpRec {
                            val: self.layout.rf(idx, cmp.val_reg) as u32,
                            value,
                            flag,
                            staged,
                            tag_dst: self.layout.rf(idx, cmp.tag_reg) as u32,
                            tag: cmp.tag,
                        });
                        self.ops.push(COp::Cmp { idx: ci });
                        self.commits.push(CommitRec::Cmp(ci));
                    }
                    MicroOp::AccLoad(src) => {
                        if self.mac_busy(idx, t) {
                            return Err(WouldHazard);
                        }
                        let off = self.resolve(t, r, c, src, true)?;
                        let off = self.staged(off);
                        self.commits.push(CommitRec::AccLoad {
                            pe: idx as u32,
                            src: off,
                        });
                        self.stats.acc_accesses += 1;
                    }
                    MicroOp::SramAWrite(addr, src) => {
                        if addr >= self.cfg.sram_a_words {
                            return Err(WouldHazard);
                        }
                        let off = self.resolve(t, r, c, src, true)?;
                        self.ports[idx].sram_a += 1;
                        let off = self.staged(off);
                        self.commits.push(CommitRec::Word {
                            src: off,
                            dst: self.layout.sram_a(idx, addr) as u32,
                        });
                        self.stats.sram_a_writes += 1;
                    }
                    MicroOp::SramBWrite(addr, src) => {
                        if addr >= self.cfg.sram_b_words {
                            return Err(WouldHazard);
                        }
                        let off = self.resolve(t, r, c, src, true)?;
                        self.ports[idx].sram_b += 1;
                        let off = self.staged(off);
                        self.commits.push(CommitRec::Word {
                            src: off,
                            dst: self.layout.sram_b(idx, addr) as u32,
                        });
                        self.stats.sram_b_writes += 1;
                    }
                    MicroOp::RegWrite(ridx, src) => {
                        if ridx >= self.cfg.rf_entries {
                            return Err(WouldHazard);
                        }
                        let off = self.resolve(t, r, c, src, true)?;
                        let off = self.staged(off);
                        self.commits.push(CommitRec::Word {
                            src: off,
                            dst: self.layout.rf(idx, ridx) as u32,
                        });
                        self.stats.rf_writes += 1;
                    }
                    MicroOp::Sfu(op, sa, sb) => {
                        let a = self.resolve(t, r, c, sa, true)?;
                        let b = self.resolve(t, r, c, sb, true)?;
                        let unit = match self.cfg.divsqrt {
                            DivSqrtImpl::Software => idx,
                            DivSqrtImpl::DiagonalPes => {
                                if r != c {
                                    return Err(WouldHazard);
                                }
                                idx
                            }
                            DivSqrtImpl::Isolated => 0,
                        };
                        if !self.has_sfu[unit] || self.sfu_busy(unit, t) {
                            return Err(WouldHazard);
                        }
                        let lat = self.cfg.divsqrt.latency(op);
                        let retire = t + lat - 1;
                        if retire >= self.prog.len() {
                            return Err(PipelineCarryOut);
                        }
                        let wide = op == DivSqrtOp::Sqrt
                            && sa == Source::Acc
                            && self.cfg.fpu.exponent_extension;
                        let si = self.sfus.len() as u32;
                        self.sfus.push(SfuRec {
                            wide,
                            op,
                            a,
                            b,
                            pending: (self.sfu_pending + unit) as u32,
                            pe: idx as u32,
                        });
                        self.ops.push(COp::SfuIssue { idx: si });
                        self.retires[retire].push(RetireEvt::Sfu { unit: unit as u32 });
                        self.sfu_busy_through[unit] = Some(retire);
                        self.sfu_ready[unit] = self.sfu_ready[unit].min(t + lat);
                        self.sfu_counts[unit] += 1;
                        self.stats.sfu_ops += 1;
                    }
                }
            }
        }

        // Phase 3: port-count checks.
        for u in &self.ports {
            if u.sram_a > 1 || u.sram_b > 2 || u.rf_reads > 2 {
                return Err(WouldHazard);
            }
        }

        // Phase 4: external stores capture column buses.
        for op in step.ext() {
            if let ExtOp::Store { col, addr } = *op {
                let addr = u32::try_from(addr).map_err(|_| Oversized)?;
                if col >= nr || !self.col_driven[col] {
                    return Err(WouldHazard);
                }
                self.commits.push(CommitRec::Ext {
                    bus: (self.col_bus + col) as u32,
                    addr,
                });
                self.stats.ext_writes += 1;
            }
        }

        // Phase 5: emit commits in push order.
        let commits = std::mem::take(&mut self.commits);
        for cmt in &commits {
            match *cmt {
                CommitRec::Word { src, dst } => self.push_move(src, dst),
                CommitRec::AccLoad { pe, src } => self.ops.push(COp::AccLoad { pe, src }),
                CommitRec::Cmp(idx) => self.ops.push(COp::CmpCommit { idx }),
                CommitRec::Ext { bus, addr } => self.push_ext_store(ExtRec { addr, bus }),
            }
        }
        self.commits = commits;

        // Phase 6: retirements scheduled for the end of this cycle. The
        // events touch disjoint state (each PE's own accumulator or latch
        // slot), so their relative order is free.
        let evts = std::mem::take(&mut self.retires[t]);
        for evt in &evts {
            match *evt {
                RetireEvt::Mac { pe, slot } => self.push_mac_retire(RetireRec { pe, slot }),
                RetireEvt::Fma { pe, slot } => {
                    self.push_fma_retire(RetireRec { pe, slot });
                    self.mac_latched[pe as usize] = true;
                }
                RetireEvt::Sfu { unit } => {
                    self.push_move(
                        (self.sfu_pending + unit as usize) as u32,
                        (self.sfu_latch + unit as usize) as u32,
                    );
                    self.sfu_latched[unit as usize] = true;
                }
            }
        }

        self.stats.cycles += 1;
        if any_issue {
            self.stats.active_cycles += 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl Lac {
    /// Execute a program on the compiled backend, regardless of the
    /// configured [`crate::config::ExecBackend`].
    ///
    /// The program is resolved through the core's [`ProgramCache`]
    /// (compiling on first sight of the shape) and replayed as a flat op
    /// tape. Programs the lowering does not cover — see
    /// [`FallbackReason`] — and runs whose entry state the lowering did
    /// not assume (in-flight pipelines, an external bank smaller than
    /// [`CompiledProgram::min_mem_words`]) transparently run on
    /// [`Lac::run_interpreted`] instead. Results, [`ExecStats`], and
    /// errors are bit-identical between the two paths. [`Lac::run`] is
    /// the public door; it picks this backend per [`LacConfig::backend`].
    pub(crate) fn run_compiled(
        &mut self,
        prog: &Program,
        mem: &mut ExternalMem,
    ) -> Result<ExecStats, SimError> {
        let key = Key::Program(prog.structural_hash(), self.fingerprint);
        let outcome = self.cache.resolve(&self.cache.entry(key), &self.cfg, prog);
        self.replay(&outcome, prog, mem)
    }

    /// Execute kernel `kernel`'s program for `shape` against `mem` on the
    /// configured backend, building it with `build` on the store's first
    /// sight of the shape.
    ///
    /// Kernel generators are pure functions of their shape, so the store
    /// ([`ProgramCache`]) keeps one program per `(kernel, shape, config)`:
    /// a repeated call takes one locked lookup and allocates nothing, and
    /// the program's compile outcome is resolved on its first
    /// compiled-backend run. `shape` must encode every input `build`
    /// reads, in at most 13 words (a longer shape panics). Results are
    /// those of [`Lac::run`] on the built program.
    ///
    /// ```
    /// use lac_sim::{ExternalMem, Lac, LacConfig, ProgramBuilder};
    ///
    /// let mut lac = Lac::new(LacConfig::default());
    /// let idle = || {
    ///     let mut b = ProgramBuilder::new(4);
    ///     b.idle(3);
    ///     b.build()
    /// };
    /// let mut mem = ExternalMem::new(0);
    /// lac.run_kernel("idle", &[3], idle, &mut mem).unwrap();
    /// lac.run_kernel("idle", &[3], || unreachable!("built once"), &mut mem).unwrap();
    /// assert_eq!(lac.program_cache().stats().programs, 1);
    /// ```
    pub fn run_kernel(
        &mut self,
        kernel: &'static str,
        shape: &[u64],
        build: impl FnOnce() -> Program,
        mem: &mut ExternalMem,
    ) -> Result<ExecStats, SimError> {
        let mut padded = [0; SHAPE_WORDS];
        padded[..shape.len()].copy_from_slice(shape);
        let entry = self
            .cache
            .entry(Key::Kernel(kernel, padded, self.fingerprint));
        let prog = entry.program.get_or_init(build);
        if self.cfg.backend == ExecBackend::Interpreter {
            return self.run_interpreted(prog, mem);
        }
        let outcome = self.cache.resolve(&entry, &self.cfg, prog);
        self.replay(&outcome, prog, mem)
    }

    /// Replay `outcome`'s tape, or interpret `prog` when there is none or
    /// the core's entry state does not fit it.
    fn replay(
        &mut self,
        outcome: &CompileOutcome,
        prog: &Program,
        mem: &mut ExternalMem,
    ) -> Result<ExecStats, SimError> {
        assert_eq!(prog.nr(), self.cfg.nr, "program/mesh dimension mismatch");
        match outcome {
            CompileOutcome::Compiled(cp) if self.compiled_eligible(cp, mem) => {
                Ok(self.exec_compiled(cp, mem))
            }
            _ => self.run_interpreted(prog, mem),
        }
    }

    /// The lowering assumes idle pipelines at entry (its hazard analysis
    /// is exact only then) and an external bank large enough for every
    /// address the program touches.
    fn compiled_eligible(&self, cp: &CompiledProgram, mem: &ExternalMem) -> bool {
        mem.len() >= cp.min_mem_words
            && self
                .pes
                .iter()
                .all(|pe| pe.mac.idle() && pe.sfu.as_ref().is_none_or(|s| s.idle()))
    }

    /// Replay a tape. Infallible: every check was done at compile time
    /// or by [`Lac::compiled_eligible`].
    fn exec_compiled(&mut self, cp: &CompiledProgram, mem: &mut ExternalMem) -> ExecStats {
        if self.state.len() < cp.arena_words {
            self.state.resize(cp.arena_words, 0.0);
        }
        self.state[cp.const_base..cp.const_base + cp.consts.len()].copy_from_slice(&cp.consts);

        let mut rf_dyn = 0u64;
        {
            let state = &mut self.state;
            let pes = &mut self.pes;
            let round_single = cp.round_single;
            for op in &cp.ops {
                match *op {
                    COp::Moves { start, len } => {
                        for m in &cp.moves[start as usize..(start + len) as usize] {
                            state[m.dst as usize] = state[m.src as usize];
                        }
                    }
                    COp::ExtLoads { start, len } => {
                        for e in &cp.ext_loads[start as usize..(start + len) as usize] {
                            state[e.bus as usize] = mem.read(e.addr as usize);
                        }
                    }
                    COp::ExtStores { start, len } => {
                        for e in &cp.ext_stores[start as usize..(start + len) as usize] {
                            mem.write(e.addr as usize, state[e.bus as usize]);
                        }
                    }
                    COp::MacIssues { start, len } => {
                        for i in &cp.mac_issues[start as usize..(start + len) as usize] {
                            let mut a = state[i.a as usize];
                            let mut b = state[i.b as usize];
                            if round_single {
                                a = a as f32 as f64;
                                b = b as f32 as f64;
                            }
                            state[i.slot as usize] = if i.negate { -a } else { a };
                            state[i.slot as usize + 1] = b;
                        }
                    }
                    COp::FmaIssues { start, len } => {
                        for i in &cp.fma_issues[start as usize..(start + len) as usize] {
                            let mut a = state[i.a as usize];
                            let mut b = state[i.b as usize];
                            let mut c = state[i.c as usize];
                            if round_single {
                                a = a as f32 as f64;
                                b = b as f32 as f64;
                                c = c as f32 as f64;
                            }
                            state[i.slot as usize] = if i.negate { -a } else { a };
                            state[i.slot as usize + 1] = b;
                            state[i.slot as usize + 2] = c;
                        }
                    }
                    COp::MacRetires { start, len } => {
                        for r in &cp.mac_retires[start as usize..(start + len) as usize] {
                            pes[r.pe as usize].mac.apply_retired_mac(
                                state[r.slot as usize],
                                state[r.slot as usize + 1],
                            );
                        }
                    }
                    COp::FmaRetires { start, len } => {
                        for r in &cp.fma_retires[start as usize..(start + len) as usize] {
                            let v = pes[r.pe as usize].mac.apply_retired_fma(
                                state[r.slot as usize],
                                state[r.slot as usize + 1],
                                state[r.slot as usize + 2],
                            );
                            state[cp.mac_latch_base + r.pe as usize] = v;
                        }
                    }
                    COp::ReadAcc { pe, dst } => {
                        state[dst as usize] = pes[pe as usize].mac.read_acc();
                    }
                    COp::AccLoad { pe, src } => {
                        pes[pe as usize].mac.load_acc(state[src as usize]);
                    }
                    COp::Cmp { idx } => {
                        let r = &cp.cmps[idx as usize];
                        let cur = state[r.val as usize];
                        let v = state[r.value as usize];
                        state[r.flag as usize] = if !lac_fpu::magnitude_ge(cur, v) {
                            1.0
                        } else {
                            0.0
                        };
                        state[r.staged as usize] = v;
                    }
                    COp::CmpCommit { idx } => {
                        let r = &cp.cmps[idx as usize];
                        if state[r.flag as usize] != 0.0 {
                            state[r.val as usize] = state[r.staged as usize];
                            state[r.tag_dst as usize] = r.tag;
                            rf_dyn += 2;
                        }
                    }
                    COp::SfuIssue { idx } => {
                        let r = &cp.sfus[idx as usize];
                        let v = if r.wide {
                            pes[r.pe as usize].mac.read_acc_sqrt()
                        } else {
                            lac_fpu::divsqrt_compute(r.op, state[r.a as usize], state[r.b as usize])
                        };
                        state[r.pending as usize] = v;
                    }
                }
            }
        }

        // Lifetime issue counters (energy model) and end-of-program latch
        // materialization, matching what the interpreter accumulates as
        // it goes.
        for &(pe, n) in &cp.mac_issue_counts {
            self.pes[pe as usize].mac.ops_issued += n;
        }
        for &(unit, n) in &cp.sfu_issue_counts {
            if let Some(sfu) = self.pes[unit as usize].sfu.as_mut() {
                sfu.ops_issued += n;
            }
        }
        for &pe in &cp.mac_latched {
            self.pes[pe as usize].mac_result = Some(self.state[cp.mac_latch_base + pe as usize]);
        }
        for &unit in &cp.sfu_latched {
            self.pes[unit as usize].sfu_result =
                Some(self.state[cp.sfu_latch_base + unit as usize]);
        }

        let mut run = cp.static_stats;
        run.rf_writes += rf_dyn;
        self.stats.merge(&run);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HazardKind;
    use crate::isa::{CmpUpdate, ProgramBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The structural hash recomputed from dense drafts: one [`PeInstr`]
    /// per PE per step, idle ones skipped. This is the hash's definition,
    /// which the walk over packed micro-ops must reproduce.
    fn dense_hash(nr: usize, dense: &[Vec<PeInstr>], ext: &[Vec<ExtOp>]) -> u128 {
        let mut h = WideHasher::new();
        h.write_usize(nr);
        h.write_usize(dense.len());
        for (t, (pes, ext)) in dense.iter().zip(ext).enumerate() {
            for op in ext {
                let (code, col, addr) = match *op {
                    ExtOp::Load { col, addr } => (0xe1, col, addr),
                    ExtOp::Store { col, addr } => (0xe2, col, addr),
                };
                h.write_u8(code);
                h.write_usize(t);
                h.write_usize(col);
                h.write_usize(addr);
            }
            for (i, pi) in pes.iter().enumerate().filter(|(_, pi)| !pi.is_nop()) {
                h.write_u8(0xd0);
                h.write_usize(t);
                h.write_usize(i);
                hash_instr(&mut h, pi);
            }
        }
        h.finish128()
    }

    #[test]
    fn structural_hash_equals_the_dense_draft_oracle() {
        let mut rng = StdRng::seed_from_u64(0x4a5);
        for _ in 0..100 {
            let nr = rng.gen_range(1..5usize);
            let steps = rng.gen_range(1..8usize);
            let (mut b, mut dense) = crate::isa::tests::random_drafts(&mut rng, nr, steps);
            let mut ext = vec![Vec::new(); steps];
            for _ in 0..rng.gen_range(0..4usize) {
                let (t, col, addr) = (
                    rng.gen_range(0..steps),
                    rng.gen_range(0..nr),
                    rng.gen_range(0..99usize),
                );
                let op = match rng.gen_range(0..2usize) {
                    0 => ExtOp::Load { col, addr },
                    _ => ExtOp::Store { col, addr },
                };
                b.ext(t, op);
                ext[t].push(op);
            }
            b.idle(2);
            dense.resize(steps + 2, vec![PeInstr::default(); nr * nr]);
            ext.resize(steps + 2, Vec::new());
            assert_eq!(b.build().structural_hash(), dense_hash(nr, &dense, &ext));
        }
    }

    fn small_cfg() -> LacConfig {
        LacConfig {
            nr: 2,
            sram_a_words: 16,
            sram_b_words: 16,
            ..Default::default()
        }
    }

    /// A little program exercising buses, MAC, FMA, SRAM, RF, ext memory.
    fn mixed_program(cfg: &LacConfig) -> Program {
        let p = cfg.fpu.pipeline_depth;
        let mut b = ProgramBuilder::new(cfg.nr);
        let t0 = b.push_step();
        b.ext(t0, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t0, 0, 0).reg_write = Some((0, Source::ColBus));
        b.pe_mut(t0, 0, 0).mac = Some((Source::ColBus, Source::Const(2.0)));
        b.pe_mut(t0, 1, 1).fma = Some((Source::Const(3.0), Source::Const(4.0), Source::Const(1.0)));
        let t1 = b.push_step();
        b.pe_mut(t1, 0, 0).sram_a_write = Some((3, Source::Reg(0)));
        b.idle(p);
        let t2 = b.push_step();
        b.pe_mut(t2, 1, 1).reg_write = Some((1, Source::MacResult));
        b.pe_mut(t2, 0, 0).col_write = Some(Source::Acc);
        b.ext(t2, ExtOp::Store { col: 0, addr: 1 });
        b.build()
    }

    fn run_both(cfg: LacConfig, prog: &Program, init: f64) -> (ExecStats, ExecStats) {
        let mut ilac = Lac::new(LacConfig {
            backend: ExecBackend::Interpreter,
            ..cfg
        });
        let mut clac = Lac::new(LacConfig {
            backend: ExecBackend::Compiled,
            ..cfg
        });
        let mut imem = ExternalMem::from_vec(vec![init, 0.0]);
        let mut cmem = ExternalMem::from_vec(vec![init, 0.0]);
        let is = ilac.run(prog, &mut imem).unwrap();
        let cs = clac.run(prog, &mut cmem).unwrap();
        assert_eq!(imem.as_slice(), cmem.as_slice(), "external memory differs");
        for r in 0..cfg.nr {
            for c in 0..cfg.nr {
                assert_eq!(
                    ilac.acc(r, c).to_bits(),
                    clac.acc(r, c).to_bits(),
                    "acc ({r},{c})"
                );
                for i in 0..cfg.rf_entries {
                    assert_eq!(
                        ilac.reg(r, c, i).to_bits(),
                        clac.reg(r, c, i).to_bits(),
                        "reg ({r},{c},{i})"
                    );
                }
            }
        }
        (is, cs)
    }

    #[test]
    fn mixed_program_bit_identical() {
        let cfg = small_cfg();
        let prog = mixed_program(&cfg);
        let (is, cs) = run_both(cfg, &prog, 2.5);
        assert_eq!(is, cs);
        assert!(cs.mac_ops == 1 && cs.fma_ops == 1 && cs.ext_writes == 1);
    }

    #[test]
    fn comparator_dynamic_rf_writes_match() {
        let cfg = LacConfig {
            comparator_extension: true,
            ..small_cfg()
        };
        let mut b = ProgramBuilder::new(cfg.nr);
        for (i, v) in [1.0, -3.0, 2.0].iter().enumerate() {
            let t = b.push_step();
            b.pe_mut(t, 0, 0).cmp_update = Some(CmpUpdate {
                value: Source::Const(*v),
                tag: i as f64,
                val_reg: 0,
                tag_reg: 1,
            });
        }
        let prog = b.build();
        let (is, cs) = run_both(cfg, &prog, 0.0);
        assert_eq!(is, cs);
        assert_eq!(cs.cmp_ops, 3);
        // 1.0 then -3.0 replace; 2.0 does not: 2 updates × 2 regs.
        assert_eq!(cs.rf_writes, 4);
    }

    #[test]
    fn sfu_program_bit_identical() {
        let cfg = small_cfg();
        let lat = cfg.divsqrt.latency(DivSqrtOp::Reciprocal);
        let mut b = ProgramBuilder::new(cfg.nr);
        let t0 = b.push_step();
        b.pe_mut(t0, 1, 0).sfu = Some((
            DivSqrtOp::Reciprocal,
            Source::Const(8.0),
            Source::Const(0.0),
        ));
        b.idle(lat);
        let t1 = b.push_step();
        b.pe_mut(t1, 1, 0).reg_write = Some((0, Source::SfuResult));
        let prog = b.build();
        let (is, cs) = run_both(cfg, &prog, 0.0);
        assert_eq!(is, cs);
        assert_eq!(cs.sfu_ops, 1);
    }

    #[test]
    fn compiled_run_replays_a_const_mac() {
        let cfg = LacConfig::default();
        let mut lac = Lac::new(cfg);
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Const(2.0), Source::Const(3.0)));
        b.idle(cfg.fpu.pipeline_depth);
        let mut mem = ExternalMem::new(1);
        let stats = lac.run_compiled(&b.build(), &mut mem).unwrap();
        assert_eq!(lac.acc(0, 0), 6.0);
        assert_eq!(stats.mac_ops, 1);
    }

    #[test]
    fn hazard_errors_identical_via_fallback() {
        let cfg = small_cfg();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::SramA(0), Source::SramA(1)));
        b.idle(cfg.fpu.pipeline_depth);
        let prog = b.build();
        assert_eq!(
            compile(&cfg, &prog).err(),
            Some(FallbackReason::WouldHazard)
        );
        let mut lac = Lac::new(cfg);
        let mut mem = ExternalMem::new(1);
        let e = lac.run_compiled(&prog, &mut mem).unwrap_err();
        assert!(matches!(e.kind, HazardKind::SramAPortConflict));
    }

    #[test]
    fn latch_carry_in_falls_back() {
        let cfg = small_cfg();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::MacResult));
        let prog = b.build();
        assert_eq!(
            compile(&cfg, &prog).err(),
            Some(FallbackReason::LatchCarryIn)
        );
    }

    #[test]
    fn pipeline_carry_out_falls_back() {
        let cfg = small_cfg();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Const(1.0), Source::Const(1.0)));
        // No drain padding: the op would still be in flight at the end.
        let prog = b.build();
        assert_eq!(
            compile(&cfg, &prog).err(),
            Some(FallbackReason::PipelineCarryOut)
        );
    }

    /// Resolve a free-standing program the way [`Lac::run_compiled`] does.
    fn lookup(cache: &ProgramCache, cfg: &LacConfig, prog: &Program) -> Arc<CompileOutcome> {
        let key = Key::Program(prog.structural_hash(), config_fingerprint(cfg));
        cache.resolve(&cache.entry(key), cfg, prog)
    }

    #[test]
    fn cache_shares_compiles_and_counts_hits() {
        let cfg = small_cfg();
        let cache = ProgramCache::new();
        let prog = mixed_program(&cfg);
        let mut a = Lac::new(cfg);
        let mut b = Lac::new(cfg);
        a.set_program_cache(cache.clone());
        b.set_program_cache(cache.clone());
        let mut m1 = ExternalMem::from_vec(vec![1.0, 0.0]);
        let mut m2 = ExternalMem::from_vec(vec![1.0, 0.0]);
        a.run(&prog, &mut m1).unwrap();
        b.run(&prog, &mut m2).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.misses, s.hits), (1, 1, 1));
        assert_eq!(lookup(&cache, &cfg, &prog).fallback_reason(), None);
        // A structurally identical rebuild hits the same entry.
        let rebuilt = mixed_program(&cfg);
        assert_eq!(prog.structural_hash(), rebuilt.structural_hash());
        a.run(&rebuilt, &mut m1).unwrap();
        assert_eq!(cache.stats().hits, 3); // +1 from the lookup above
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn racing_lookups_compile_once() {
        let cfg = small_cfg();
        let cache = ProgramCache::new();
        let prog = mixed_program(&cfg);
        let gate = std::sync::Barrier::new(4);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        lookup(&cache, &cfg, &prog)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|o| Arc::ptr_eq(o, &outcomes[0])));
        let s = cache.stats();
        assert_eq!((s.entries, s.misses, s.hits), (1, 1, 3));
    }

    fn idle_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new(small_cfg().nr);
        b.idle(n);
        b.build()
    }

    #[test]
    fn same_shape_shares_the_instance() {
        let cfg = small_cfg();
        let fp = config_fingerprint(&cfg);
        let cache = ProgramCache::new();
        let key = |kernel, n, fp| {
            let mut shape = [0; SHAPE_WORDS];
            shape[..2].copy_from_slice(&[2, n]);
            Key::Kernel(kernel, shape, fp)
        };
        let a = cache.entry(key("store-test", 3, fp));
        let b = cache.entry(key("store-test", 3, fp));
        assert!(Arc::ptr_eq(&a, &b));
        let built = a.program.get_or_init(|| idle_program(3));
        assert!(std::ptr::eq(built, b.program.get().unwrap()));
        // Another shape, kernel or config is another entry.
        for other in [
            key("store-test", 4, fp),
            key("store-other", 3, fp),
            key("store-test", 3, fp ^ 1),
        ] {
            assert!(!Arc::ptr_eq(&a, &cache.entry(other)));
        }
    }

    #[test]
    fn racing_callers_build_once() {
        let cfg = small_cfg();
        let cache = ProgramCache::new();
        let builds = AtomicU64::new(0);
        let key = Key::Kernel("store-race", [7; SHAPE_WORDS], config_fingerprint(&cfg));
        // Holders of the shape's entry: the table plus one per caller.
        let holders = || {
            let map = cache.inner.map.lock().unwrap();
            map.get(&key).map_or(0, Arc::strong_count)
        };
        let build = || {
            builds.fetch_add(1, Ordering::Relaxed);
            // Finish only once all four callers hold the entry, so the
            // other three must wait on it.
            while holders() < 5 {
                std::thread::yield_now();
            }
            idle_program(7)
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut lac = Lac::new(cfg);
                lac.set_program_cache(cache.clone());
                s.spawn(move || {
                    let mut mem = ExternalMem::new(0);
                    lac.run_kernel("store-race", &[7; SHAPE_WORDS], build, &mut mem)
                        .unwrap();
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.programs, s.entries, s.misses, s.hits), (1, 1, 1, 3));
    }

    #[test]
    fn totals_count_every_built_shape() {
        let interp = LacConfig {
            backend: ExecBackend::Interpreter,
            ..small_cfg()
        };
        let cache = ProgramCache::new();
        let mut lac = Lac::new(interp);
        lac.set_program_cache(cache.clone());
        let mut mem = ExternalMem::new(0);
        for n in [3, 5, 3] {
            lac.run_kernel("store-totals", &[n as u64], || idle_program(n), &mut mem)
                .unwrap();
        }
        let bytes = idle_program(3).heap_bytes() + idle_program(5).heap_bytes();
        let s = cache.stats();
        // Interpreter runs build programs but never compile them.
        assert_eq!((s.programs, s.program_heap_bytes), (2, bytes));
        assert_eq!((s.entries, s.misses, s.hits), (0, 0, 0));

        // A compiled run resolves the same entry's outcome lazily.
        let mut compiled = Lac::new(small_cfg());
        compiled.set_program_cache(cache.clone());
        compiled
            .run_kernel("store-totals", &[5], || unreachable!("built"), &mut mem)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.programs, s.program_heap_bytes), (2, bytes));
        assert_eq!((s.entries, s.misses, s.hits), (1, 1, 0));
    }

    #[test]
    fn dirty_entry_state_falls_back_to_interpreter() {
        // Leave an op in flight via an interpreted run, then ask for a
        // compiled run: eligibility must route it to the interpreter.
        let cfg = small_cfg();
        let p = cfg.fpu.pipeline_depth;
        let mut lac = Lac::new(cfg);
        let mut carry = ProgramBuilder::new(cfg.nr);
        let t = carry.push_step();
        carry.pe_mut(t, 0, 0).mac = Some((Source::Const(2.0), Source::Const(5.0)));
        let mut mem = ExternalMem::new(1);
        lac.run_interpreted(&carry.build(), &mut mem).unwrap();

        let mut rest = ProgramBuilder::new(cfg.nr);
        rest.idle(p);
        // The in-flight MAC retires during this (compiled-ineligible) run.
        lac.run_compiled(&rest.build(), &mut mem).unwrap();
        assert_eq!(lac.acc(0, 0), 10.0);
    }

    #[test]
    fn wide_hash_differs_on_small_edits() {
        let mk = |v: f64| {
            let mut b = ProgramBuilder::new(2);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).mac = Some((Source::Const(v), Source::Const(1.0)));
            b.idle(5);
            b.build()
        };
        assert_ne!(mk(1.0).structural_hash(), mk(2.0).structural_hash());
        assert_eq!(mk(1.0).structural_hash(), mk(1.0).structural_hash());
        // Clones re-derive the same hash.
        let p = mk(3.0);
        assert_eq!(p.clone().structural_hash(), p.structural_hash());
    }

    #[test]
    fn config_fingerprint_separates_shapes() {
        let a = small_cfg();
        let b = LacConfig {
            ext_words_per_cycle: Some(4),
            ..a
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        // Backend choice must NOT affect the key.
        let c = LacConfig {
            backend: ExecBackend::Interpreter,
            ..a
        };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&c));
    }
}
