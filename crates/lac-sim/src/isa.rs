//! The LAC's micro-operation "ISA" and program representation.
//!
//! A [`Program`] is the software image of the paper's microprogrammed state
//! machines: for every cycle (a [`Step`]) it lists, per PE, which datapath
//! actions fire. There is no dynamic control — exactly like the hardware,
//! where "inter- and intra-PE data movement is predetermined" (§3.2.3).
//!
//! Generators write dense [`PeInstr`]s through a [`ProgramBuilder`], but
//! nothing stores them densely. On most cycles most PEs idle, so a draft
//! step and a built program alike hold only the live PEs' set fields, one
//! 16-byte micro-op each; [`ProgramBuilder::build`] concatenates the
//! draft steps into one flat vector indexed by per-step offsets. An idle
//! PE or an idle cycle costs no micro-op storage. Readers decode each
//! micro-op back to the exact [`MicroOp`] it was given as.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut, Range};

use lac_fpu::DivSqrtOp;

/// Where a datapath input comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// The PE's row broadcast bus (value written this cycle).
    RowBus,
    /// The PE's column broadcast bus (value written this cycle).
    ColBus,
    /// Single-ported A memory at an address.
    SramA(usize),
    /// Dual-ported B memory at an address.
    SramB(usize),
    /// Register-file entry.
    Reg(usize),
    /// The MAC accumulator (requires the MAC pipeline to be drained).
    Acc,
    /// The latched result of the last retired free-standing FMA.
    MacResult,
    /// The latched result of the last retired SFU operation.
    SfuResult,
    /// An immediate constant (microcode constants such as 0 or 1).
    Const(f64),
}

/// One PE's actions for one cycle. All fields are independent datapath
/// controls; the simulator checks the structural constraints (port counts,
/// bus ownership, issue width).
///
/// This is the form generators write through [`ProgramBuilder`]; drafts
/// and built [`Program`]s store it as packed [`MicroOp`]s (see
/// [`PeOps::to_instr`] for the way back).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeInstr {
    /// Drive the PE's row bus with this value.
    pub row_write: Option<Source>,
    /// Drive the PE's column bus with this value.
    pub col_write: Option<Source>,
    /// Issue `acc += a * b`.
    pub mac: Option<(Source, Source)>,
    /// Issue a free-standing fused `c + a * b` (result → MacResult latch).
    pub fma: Option<(Source, Source, Source)>,
    /// Negate the product of this cycle's `mac`/`fma` (fused
    /// multiply-subtract — the rank-1 *downdate* used by TRSM, Cholesky, LU).
    pub negate_product: bool,
    /// Comparator micro-op (§A.2 extension): compare `|value|` against the
    /// pivot-magnitude register `Reg(cmp_regs.0)`; if strictly larger, latch
    /// the value there and its `tag` into `Reg(cmp_regs.1)`.
    pub cmp_update: Option<CmpUpdate>,
    /// Load the accumulator.
    pub acc_load: Option<Source>,
    /// Write A memory: `(addr, value)`.
    pub sram_a_write: Option<(usize, Source)>,
    /// Write B memory: `(addr, value)`.
    pub sram_b_write: Option<(usize, Source)>,
    /// Write the register file: `(index, value)`.
    pub reg_write: Option<(usize, Source)>,
    /// Issue a special-function op `(op, a, b)` (`b` used only by Divide).
    pub sfu: Option<(DivSqrtOp, Source, Source)>,
}

/// A comparator micro-op: the pivot-search primitive of LU factorization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CmpUpdate {
    /// Candidate value.
    pub value: Source,
    /// Identifying tag (e.g. the row index) latched alongside a new maximum.
    pub tag: f64,
    /// Register holding the current maximum-magnitude value.
    pub val_reg: usize,
    /// Register holding the current maximum's tag.
    pub tag_reg: usize,
}

/// One set field of a [`PeInstr`]: the unit a [`Program`] stores (packed
/// into 16 bytes) and its readers decode.
///
/// The variants are declared in [`PeInstr`] field order, and a program
/// lists each PE's micro-ops in that order, so walking them visits the
/// controls exactly as a field-by-field walk of the instruction would.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// [`PeInstr::row_write`].
    RowWrite(Source),
    /// [`PeInstr::col_write`].
    ColWrite(Source),
    /// [`PeInstr::mac`]: `acc += a * b`.
    Mac(Source, Source),
    /// [`PeInstr::fma`]: `c + a * b`.
    Fma(Source, Source, Source),
    /// [`PeInstr::negate_product`].
    NegateProduct,
    /// [`PeInstr::cmp_update`].
    CmpUpdate(CmpUpdate),
    /// [`PeInstr::acc_load`].
    AccLoad(Source),
    /// [`PeInstr::sram_a_write`]: `(addr, value)`.
    SramAWrite(usize, Source),
    /// [`PeInstr::sram_b_write`]: `(addr, value)`.
    SramBWrite(usize, Source),
    /// [`PeInstr::reg_write`]: `(index, value)`.
    RegWrite(usize, Source),
    /// [`PeInstr::sfu`]: `(op, a, b)`.
    Sfu(DivSqrtOp, Source, Source),
}

impl PeInstr {
    /// True when the instruction does nothing (idle PE).
    pub fn is_nop(&self) -> bool {
        self.row_write.is_none()
            && self.col_write.is_none()
            && self.mac.is_none()
            && self.fma.is_none()
            && self.acc_load.is_none()
            && self.sram_a_write.is_none()
            && self.sram_b_write.is_none()
            && self.reg_write.is_none()
            && self.sfu.is_none()
            && self.cmp_update.is_none()
    }

    /// The set fields as micro-ops, in field order.
    pub fn micro_ops(&self) -> impl Iterator<Item = MicroOp> {
        [
            self.row_write.map(MicroOp::RowWrite),
            self.col_write.map(MicroOp::ColWrite),
            self.mac.map(|(a, b)| MicroOp::Mac(a, b)),
            self.fma.map(|(a, b, c)| MicroOp::Fma(a, b, c)),
            self.negate_product.then_some(MicroOp::NegateProduct),
            self.cmp_update.map(MicroOp::CmpUpdate),
            self.acc_load.map(MicroOp::AccLoad),
            self.sram_a_write.map(|(i, s)| MicroOp::SramAWrite(i, s)),
            self.sram_b_write.map(|(i, s)| MicroOp::SramBWrite(i, s)),
            self.reg_write.map(|(i, s)| MicroOp::RegWrite(i, s)),
            self.sfu.map(|(op, a, b)| MicroOp::Sfu(op, a, b)),
        ]
        .into_iter()
        .flatten()
    }

    /// Set the field `op` stands for.
    fn set(&mut self, op: MicroOp) {
        match op {
            MicroOp::RowWrite(s) => self.row_write = Some(s),
            MicroOp::ColWrite(s) => self.col_write = Some(s),
            MicroOp::Mac(a, b) => self.mac = Some((a, b)),
            MicroOp::Fma(a, b, c) => self.fma = Some((a, b, c)),
            MicroOp::NegateProduct => self.negate_product = true,
            MicroOp::CmpUpdate(c) => self.cmp_update = Some(c),
            MicroOp::AccLoad(s) => self.acc_load = Some(s),
            MicroOp::SramAWrite(i, s) => self.sram_a_write = Some((i, s)),
            MicroOp::SramBWrite(i, s) => self.sram_b_write = Some((i, s)),
            MicroOp::RegWrite(i, s) => self.reg_write = Some((i, s)),
            MicroOp::Sfu(op, a, b) => self.sfu = Some((op, a, b)),
        }
    }

    // Builder-style helpers used by the kernel generators.

    /// Drive the PE's row bus with `s`.
    pub fn row_write(mut self, s: Source) -> Self {
        self.row_write = Some(s);
        self
    }

    /// Drive the PE's column bus with `s`.
    pub fn col_write(mut self, s: Source) -> Self {
        self.col_write = Some(s);
        self
    }

    /// Issue `acc += a * b`.
    pub fn mac(mut self, a: Source, b: Source) -> Self {
        self.mac = Some((a, b));
        self
    }

    /// Issue a free-standing fused `c + a * b`.
    pub fn fma(mut self, a: Source, b: Source, c: Source) -> Self {
        self.fma = Some((a, b, c));
        self
    }

    /// Mark this cycle's mac/fma as a multiply-*subtract*.
    pub fn negated(mut self) -> Self {
        self.negate_product = true;
        self
    }

    /// Attach a comparator micro-op (LU pivot search).
    pub fn cmp_update(mut self, c: CmpUpdate) -> Self {
        self.cmp_update = Some(c);
        self
    }

    /// Load the accumulator from `s`.
    pub fn acc_load(mut self, s: Source) -> Self {
        self.acc_load = Some(s);
        self
    }

    /// Write `s` into A memory at `addr`.
    pub fn sram_a_write(mut self, addr: usize, s: Source) -> Self {
        self.sram_a_write = Some((addr, s));
        self
    }

    /// Write `s` into B memory at `addr`.
    pub fn sram_b_write(mut self, addr: usize, s: Source) -> Self {
        self.sram_b_write = Some((addr, s));
        self
    }

    /// Write `s` into register `idx`.
    pub fn reg_write(mut self, idx: usize, s: Source) -> Self {
        self.reg_write = Some((idx, s));
        self
    }

    /// Issue special-function op `op` on `a` (and `b` for divides).
    pub fn sfu(mut self, op: DivSqrtOp, a: Source, b: Source) -> Self {
        self.sfu = Some((op, a, b));
        self
    }
}

/// External-memory traffic for one cycle (uses the column buses, §3.2.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExtOp {
    /// Drive column bus `col` with external memory word `addr`.
    Load {
        /// Column bus to drive.
        col: usize,
        /// External word address to read.
        addr: usize,
    },
    /// Capture what a PE drove onto column bus `col` into external `addr`.
    Store {
        /// Column bus to capture.
        col: usize,
        /// External word address to write.
        addr: usize,
    },
}

// ---------------------------------------------------------------------------
// The compact store
// ---------------------------------------------------------------------------

/// Bits of an operand word's payload; the low 4 bits are its tag.
const PAYLOAD_BITS: u32 = 28;

/// Operands at or above this bound, and every constant, live in the pool.
const PAYLOAD_LIMIT: usize = 1 << PAYLOAD_BITS;

/// Operand-word tags of a [`Source`]. The `*_POOLED` tags mark an
/// address or register index too large for the payload, which then holds
/// its pool slot instead; a `CONST` payload is always a pool slot.
mod tag {
    pub const ROW_BUS: u32 = 0;
    pub const COL_BUS: u32 = 1;
    pub const SRAM_A: u32 = 2;
    pub const SRAM_B: u32 = 3;
    pub const REG: u32 = 4;
    pub const ACC: u32 = 5;
    pub const MAC_RESULT: u32 = 6;
    pub const SFU_RESULT: u32 = 7;
    pub const CONST: u32 = 8;
    pub const SRAM_A_POOLED: u32 = 9;
    pub const SRAM_B_POOLED: u32 = 10;
    pub const REG_POOLED: u32 = 11;
    /// A plain index (SRAM address, register number) held inline…
    pub const INDEX: u32 = 0;
    /// …or in the pool.
    pub const INDEX_POOLED: u32 = 1;
}

/// Micro-op kinds, numbered in [`PeInstr`] field order.
mod kind {
    pub const ROW_WRITE: u32 = 0;
    pub const COL_WRITE: u32 = 1;
    pub const MAC: u32 = 2;
    pub const FMA: u32 = 3;
    pub const NEGATE_PRODUCT: u32 = 4;
    pub const CMP_UPDATE: u32 = 5;
    pub const ACC_LOAD: u32 = 6;
    pub const SRAM_A_WRITE: u32 = 7;
    pub const SRAM_B_WRITE: u32 = 8;
    pub const REG_WRITE: u32 = 9;
    pub const SFU: u32 = 10;
    /// Number of kinds: the most micro-ops one PE carries in one cycle.
    pub const COUNT: usize = 11;
}

/// SFU ops by their number in a packed micro-op.
const DIVSQRT_OPS: [DivSqrtOp; 4] = [
    DivSqrtOp::Reciprocal,
    DivSqrtOp::Divide,
    DivSqrtOp::Sqrt,
    DivSqrtOp::InvSqrt,
];

/// An operand word: `payload << 4 | tag`.
fn word(payload: usize, tag: u32) -> u32 {
    debug_assert!(payload < PAYLOAD_LIMIT);
    (payload as u32) << 4 | tag
}

#[inline]
fn payload(w: u32) -> usize {
    (w >> 4) as usize
}

/// One [`MicroOp`] of one PE in 16 bytes: the unit a [`ProgramBuilder`]
/// drafts and a [`Program`] stores.
///
/// `head` is `pe << 4 | kind`. Kinds are numbered in [`PeInstr`] field
/// order, so a step sorted by `head` lists its micro-ops by PE and, within
/// a PE, in field order. `args` are operand words (a [`Source`] or an
/// index, see [`tag`]); which ones a kind uses:
///
/// | kind | `args` |
/// |---|---|
/// | row/col write, acc load | source |
/// | mac, fma | a, b (, c) |
/// | negate product | — |
/// | cmp update | value, index word of the pool slot of `[tag bits, val_reg, tag_reg]` |
/// | SRAM A/B write, reg write | index, source |
/// | sfu | a, b, op number |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PackedOp {
    head: u32,
    args: [u32; 3],
}

impl PackedOp {
    #[inline]
    fn pe(&self) -> u32 {
        self.head >> 4
    }

    #[inline]
    fn kind(&self) -> u32 {
        self.head & 0xf
    }

    fn encode(pe: u32, op: MicroOp, pool: &mut Pool) -> Self {
        let (kind, args) = match op {
            MicroOp::RowWrite(s) => (kind::ROW_WRITE, [pool.source(s), 0, 0]),
            MicroOp::ColWrite(s) => (kind::COL_WRITE, [pool.source(s), 0, 0]),
            MicroOp::Mac(a, b) => (kind::MAC, [pool.source(a), pool.source(b), 0]),
            MicroOp::Fma(a, b, c) => (kind::FMA, [pool.source(a), pool.source(b), pool.source(c)]),
            MicroOp::NegateProduct => (kind::NEGATE_PRODUCT, [0; 3]),
            MicroOp::CmpUpdate(c) => {
                let record = [c.tag.to_bits(), c.val_reg as u64, c.tag_reg as u64];
                let slot = word(pool.intern(&record) as usize, tag::INDEX);
                (kind::CMP_UPDATE, [pool.source(c.value), slot, 0])
            }
            MicroOp::AccLoad(s) => (kind::ACC_LOAD, [pool.source(s), 0, 0]),
            MicroOp::SramAWrite(i, s) => (kind::SRAM_A_WRITE, [pool.index(i), pool.source(s), 0]),
            MicroOp::SramBWrite(i, s) => (kind::SRAM_B_WRITE, [pool.index(i), pool.source(s), 0]),
            MicroOp::RegWrite(i, s) => (kind::REG_WRITE, [pool.index(i), pool.source(s), 0]),
            MicroOp::Sfu(op, a, b) => {
                let code = match op {
                    DivSqrtOp::Reciprocal => 0,
                    DivSqrtOp::Divide => 1,
                    DivSqrtOp::Sqrt => 2,
                    DivSqrtOp::InvSqrt => 3,
                };
                (kind::SFU, [pool.source(a), pool.source(b), code])
            }
        };
        PackedOp {
            head: pe << 4 | kind,
            args,
        }
    }

    /// The exact [`MicroOp`] this encodes (`pool` is its program's).
    #[inline]
    fn decode(&self, pool: &[u64]) -> MicroOp {
        let [x, y, z] = self.args;
        let s = |w| source(w, pool);
        let i = |w| index(w, pool);
        match self.kind() {
            kind::ROW_WRITE => MicroOp::RowWrite(s(x)),
            kind::COL_WRITE => MicroOp::ColWrite(s(x)),
            kind::MAC => MicroOp::Mac(s(x), s(y)),
            kind::FMA => MicroOp::Fma(s(x), s(y), s(z)),
            kind::NEGATE_PRODUCT => MicroOp::NegateProduct,
            kind::CMP_UPDATE => {
                let at = payload(y);
                MicroOp::CmpUpdate(CmpUpdate {
                    value: s(x),
                    tag: f64::from_bits(pool[at]),
                    val_reg: pool[at + 1] as usize,
                    tag_reg: pool[at + 2] as usize,
                })
            }
            kind::ACC_LOAD => MicroOp::AccLoad(s(x)),
            kind::SRAM_A_WRITE => MicroOp::SramAWrite(i(x), s(y)),
            kind::SRAM_B_WRITE => MicroOp::SramBWrite(i(x), s(y)),
            kind::REG_WRITE => MicroOp::RegWrite(i(x), s(y)),
            kind::SFU => MicroOp::Sfu(DIVSQRT_OPS[z as usize], s(x), s(y)),
            k => unreachable!("micro-op kind {k}"),
        }
    }
}

#[inline]
fn source(w: u32, pool: &[u64]) -> Source {
    let p = payload(w);
    match w & 0xf {
        tag::ROW_BUS => Source::RowBus,
        tag::COL_BUS => Source::ColBus,
        tag::SRAM_A => Source::SramA(p),
        tag::SRAM_B => Source::SramB(p),
        tag::REG => Source::Reg(p),
        tag::ACC => Source::Acc,
        tag::MAC_RESULT => Source::MacResult,
        tag::SFU_RESULT => Source::SfuResult,
        tag::CONST => Source::Const(f64::from_bits(pool[p])),
        tag::SRAM_A_POOLED => Source::SramA(pool[p] as usize),
        tag::SRAM_B_POOLED => Source::SramB(pool[p] as usize),
        tag::REG_POOLED => Source::Reg(pool[p] as usize),
        t => unreachable!("source tag {t}"),
    }
}

#[inline]
fn index(w: u32, pool: &[u64]) -> usize {
    match w & 0xf {
        tag::INDEX => payload(w),
        _ => pool[payload(w)] as usize,
    }
}

/// A draft's side pool of 64-bit operands (constants, comparator records,
/// operands too wide for a payload), interned so a value repeated across
/// the program, or re-encoded by a [`PeMut`], is stored once.
#[derive(Debug, Default)]
struct Pool {
    words: Vec<u64>,
    slots: HashMap<([u64; 3], usize), u32>,
}

impl Pool {
    /// The slot of `words` (at most 3), appending them on first sight.
    fn intern(&mut self, words: &[u64]) -> u32 {
        let mut key = [0; 3];
        key[..words.len()].copy_from_slice(words);
        let pool = &mut self.words;
        *self.slots.entry((key, words.len())).or_insert_with(|| {
            let at = pool.len();
            assert!(at < PAYLOAD_LIMIT, "program pool exceeds 2^28 words");
            pool.extend_from_slice(words);
            at as u32
        })
    }

    /// `v` inline under `inline`, or its pool slot under `pooled`.
    fn operand(&mut self, v: usize, inline: u32, pooled: u32) -> u32 {
        if v < PAYLOAD_LIMIT {
            word(v, inline)
        } else {
            word(self.intern(&[v as u64]) as usize, pooled)
        }
    }

    fn index(&mut self, v: usize) -> u32 {
        self.operand(v, tag::INDEX, tag::INDEX_POOLED)
    }

    fn source(&mut self, s: Source) -> u32 {
        match s {
            Source::RowBus => word(0, tag::ROW_BUS),
            Source::ColBus => word(0, tag::COL_BUS),
            Source::SramA(a) => self.operand(a, tag::SRAM_A, tag::SRAM_A_POOLED),
            Source::SramB(a) => self.operand(a, tag::SRAM_B, tag::SRAM_B_POOLED),
            Source::Reg(i) => self.operand(i, tag::REG, tag::REG_POOLED),
            Source::Acc => word(0, tag::ACC),
            Source::MacResult => word(0, tag::MAC_RESULT),
            Source::SfuResult => word(0, tag::SFU_RESULT),
            Source::Const(v) => word(self.intern(&[v.to_bits()]) as usize, tag::CONST),
        }
    }
}

/// One simulated cycle of a [`Program`]: the live PEs' micro-ops and the
/// external transfers, borrowed from the packed store.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    ops: &'a [PackedOp],
    pool: &'a [u64],
    ext: &'a [ExtOp],
}

impl<'a> Step<'a> {
    /// External-memory transfers of this cycle (share the column buses),
    /// in the order they were added.
    pub fn ext(&self) -> &'a [ExtOp] {
        self.ext
    }

    /// Every live (non-idle) PE as `(row-major index, micro-ops)`, in
    /// ascending index order. Idle PEs are not visited.
    #[inline]
    pub fn pes(&self) -> impl Iterator<Item = (usize, PeOps<'a>)> + 'a {
        let pool = self.pool;
        self.ops
            .chunk_by(|a, b| a.pe() == b.pe())
            .map(move |ops| (ops[0].pe() as usize, PeOps { ops, pool }))
    }
}

/// One live PE's micro-ops for one cycle, in [`PeInstr`] field order.
#[derive(Clone, Copy, Debug)]
pub struct PeOps<'a> {
    ops: &'a [PackedOp],
    pool: &'a [u64],
}

impl<'a> PeOps<'a> {
    /// The micro-ops, decoded, in [`PeInstr`] field order (never empty
    /// for a PE [`Step::pes`] visits).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = MicroOp> + 'a {
        let pool = self.pool;
        self.ops.iter().map(move |op| op.decode(pool))
    }

    /// Just the row- and column-bus writes (they lead the field order),
    /// decoded; the cycle's first phase reads nothing else.
    #[inline]
    pub(crate) fn bus_writes(&self) -> impl Iterator<Item = MicroOp> + 'a {
        let pool = self.pool;
        let writes = self
            .ops
            .iter()
            .take_while(|op| op.kind() <= kind::COL_WRITE);
        writes.map(move |op| op.decode(pool))
    }

    /// The dense instruction these micro-ops encode.
    pub fn to_instr(&self) -> PeInstr {
        let mut pi = PeInstr::default();
        for op in self.iter() {
            pi.set(op);
        }
        pi
    }

    /// `(mac, fma, negate)`: which product issues the PE carries.
    #[inline]
    pub(crate) fn product_flags(&self) -> (bool, bool, bool) {
        let kinds = self.ops.iter().fold(0u32, |set, op| set | (1 << op.kind()));
        let has = |k: u32| kinds & (1 << k) != 0;
        (has(kind::MAC), has(kind::FMA), has(kind::NEGATE_PRODUCT))
    }
}

/// A complete microprogram for one LAC, packed and read-only.
///
/// Storage is one flat vector of 16-byte micro-ops (PE-tagged [`MicroOp`]s,
/// decoded on read), the 64-bit operand pool they point into, and one
/// vector of [`ExtOp`]s; each step records where its share of the ops and
/// transfers ends. Read it through [`Program::steps`] / [`Program::step`],
/// which visit live PEs in ascending index order.
#[derive(Debug, Default)]
pub struct Program {
    nr: usize,
    ops: Vec<PackedOp>,
    pool: Vec<u64>,
    ext: Vec<ExtOp>,
    /// Per step: the end offsets of its micro-ops in `ops` and of its
    /// transfers in `ext` (the previous step's ends are its starts).
    ends: Vec<(u32, u32)>,
    /// Structural hash, memoized on first use (see
    /// [`Program::structural_hash`]). Cleared by `clone`.
    hash: std::sync::OnceLock<u128>,
}

impl Clone for Program {
    fn clone(&self) -> Self {
        // The copy re-derives its hash on first use rather than inheriting
        // the memo, so the hash is always a function of the content at
        // hand.
        Program {
            nr: self.nr,
            ops: self.ops.clone(),
            pool: self.pool.clone(),
            ext: self.ext.clone(),
            ends: self.ends.clone(),
            hash: std::sync::OnceLock::new(),
        }
    }
}

impl Program {
    /// Mesh dimension the program was generated for.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Number of cycles (steps) in the program, idle cycles included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Cycle `t`. Panics if `t >= self.len()`.
    pub fn step(&self, t: usize) -> Step<'_> {
        let (op_start, ext_start) = match t {
            0 => (0, 0),
            _ => self.ends[t - 1],
        };
        let (op_end, ext_end) = self.ends[t];
        Step {
            ops: &self.ops[op_start as usize..op_end as usize],
            pool: &self.pool,
            ext: &self.ext[ext_start as usize..ext_end as usize],
        }
    }

    /// Every cycle in order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Step<'_>> + '_ {
        (0..self.len()).map(|t| self.step(t))
    }

    /// Words of external memory the program addresses: its highest
    /// [`ExtOp`] address plus one (0 when it makes no transfer). A bank of
    /// this many words runs it without an out-of-range fault.
    pub fn ext_words(&self) -> usize {
        let addr = |op: &ExtOp| match *op {
            ExtOp::Load { addr, .. } | ExtOp::Store { addr, .. } => addr,
        };
        self.ext.iter().map(|op| addr(op) + 1).max().unwrap_or(0)
    }

    /// Every [`Source::Const`] value the program reads, repeats included,
    /// in the order a walk of its steps, PEs and micro-ops meets them.
    pub(crate) fn consts(&self) -> impl Iterator<Item = f64> + '_ {
        // Only source words carry the `CONST` tag: index words are tagged
        // `INDEX`/`INDEX_POOLED` and an SFU op number is below 4.
        let words = self.ops.iter().flat_map(|op| op.args);
        let consts = words.filter(|&w| w & 0xf == tag::CONST);
        consts.map(|w| f64::from_bits(self.pool[payload(w)]))
    }

    /// Bytes the program holds on the heap (allocated capacity of the
    /// packed store).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<PackedOp>()
            + self.pool.capacity() * size_of::<u64>()
            + self.ext.capacity() * size_of::<ExtOp>()
            + self.ends.capacity() * size_of::<(u32, u32)>()
    }

    /// A 128-bit structural hash of the program: two independent passes
    /// over `nr`, every non-idle [`PeInstr`] (with its step and PE
    /// position) and every [`ExtOp`]. Idle steps and idle PEs contribute
    /// only their count, so pipeline-drain padding hashes in O(1) per
    /// step. This is the [`crate::ProgramCache`] key.
    ///
    /// The value is memoized on first call; `clone()` resets the memo on
    /// the copy.
    pub fn structural_hash(&self) -> u128 {
        *self.hash.get_or_init(|| crate::compile::hash_program(self))
    }
}

/// Convenience builder used by every kernel generator.
///
/// Each step is drafted in the program's own compact form — the touched
/// PEs' micro-ops, sorted by PE — and [`ProgramBuilder::build`]
/// concatenates the steps.
#[derive(Debug)]
pub struct ProgramBuilder {
    nr: usize,
    steps: Vec<DraftStep>,
    pool: Pool,
}

/// True when a PE's micro-ops do nothing ([`PeInstr::is_nop`]): none, or
/// a product negation with no product to negate. Drafts keep such a PE so
/// a later guard can add the product; a built program drops it.
fn idle(ops: &[PackedOp]) -> bool {
    ops.iter().all(|op| op.kind() == kind::NEGATE_PRODUCT)
}

/// A step under construction.
#[derive(Debug, Default)]
struct DraftStep {
    /// Touched PEs' micro-ops, sorted by `head` (PE, then field order).
    ops: Vec<PackedOp>,
    ext: Vec<ExtOp>,
}

impl DraftStep {
    /// Where PE `pe`'s micro-ops sit in `ops` (empty when it idles).
    fn run(&self, pe: u32) -> Range<usize> {
        let lo = self.ops.partition_point(|op| op.pe() < pe);
        lo..lo + self.ops[lo..].partition_point(|op| op.pe() == pe)
    }
}

/// Write access to one PE's instruction in a draft step, returned by
/// [`ProgramBuilder::pe_mut`]. It dereferences to the dense [`PeInstr`];
/// dropping it re-encodes the PE into the draft.
#[derive(Debug)]
pub struct PeMut<'b> {
    builder: &'b mut ProgramBuilder,
    t: usize,
    pe: u32,
    instr: PeInstr,
}

impl Deref for PeMut<'_> {
    type Target = PeInstr;

    fn deref(&self) -> &PeInstr {
        &self.instr
    }
}

impl DerefMut for PeMut<'_> {
    fn deref_mut(&mut self) -> &mut PeInstr {
        &mut self.instr
    }
}

impl Drop for PeMut<'_> {
    fn drop(&mut self) {
        self.builder.write_pe(self.t, self.pe, &self.instr);
    }
}

impl ProgramBuilder {
    /// Start an empty program for an `nr × nr` mesh.
    pub fn new(nr: usize) -> Self {
        assert!(
            nr.checked_mul(nr).is_some_and(|n| n <= PAYLOAD_LIMIT),
            "an {nr} x {nr} mesh exceeds 2^28 PEs"
        );
        Self {
            nr,
            steps: Vec::new(),
            pool: Pool::default(),
        }
    }

    /// Mesh dimension this builder schedules for.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Append a new (initially idle) cycle and return its index.
    pub fn push_step(&mut self) -> usize {
        self.steps.push(DraftStep::default());
        self.steps.len() - 1
    }

    /// Append `n` idle cycles (pipeline drains, dependency stalls).
    pub fn idle(&mut self, n: usize) {
        self.steps
            .resize_with(self.steps.len() + n, DraftStep::default);
    }

    /// Number of steps so far.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no step was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    fn pe_index(&self, r: usize, c: usize) -> u32 {
        assert!(r < self.nr && c < self.nr, "PE ({r},{c}) out of mesh");
        (r * self.nr + c) as u32
    }

    /// Mutable access to PE `(r, c)`'s instruction in step `t`. The
    /// change lands in the draft when the returned guard drops.
    pub fn pe_mut(&mut self, t: usize, r: usize, c: usize) -> PeMut<'_> {
        let pe = self.pe_index(r, c);
        let step = &self.steps[t];
        let ops = &step.ops[step.run(pe)];
        let instr = PeOps {
            ops,
            pool: &self.pool.words,
        }
        .to_instr();
        PeMut {
            builder: self,
            t,
            pe,
            instr,
        }
    }

    /// Overwrite PE `(r, c)`'s instruction in step `t`, asserting that no
    /// instruction was scheduled there yet (catches generator collisions).
    pub fn set_pe(&mut self, t: usize, r: usize, c: usize, instr: PeInstr) {
        let pe = self.pe_index(r, c);
        let step = &self.steps[t];
        assert!(
            idle(&step.ops[step.run(pe)]),
            "PE ({r},{c}) already scheduled in step {t}"
        );
        self.write_pe(t, pe, &instr);
    }

    /// Replace PE `pe`'s micro-ops in step `t` with `instr`'s.
    fn write_pe(&mut self, t: usize, pe: u32, instr: &PeInstr) {
        let mut packed = [PackedOp::default(); kind::COUNT];
        let mut n = 0;
        for op in instr.micro_ops() {
            packed[n] = PackedOp::encode(pe, op, &mut self.pool);
            n += 1;
        }
        let step = &mut self.steps[t];
        let run = step.run(pe);
        step.ops.splice(run, packed[..n].iter().copied());
    }

    /// Add an external-memory transfer to step `t`.
    pub fn ext(&mut self, t: usize, op: ExtOp) {
        self.steps[t].ext.push(op);
    }

    /// Finish: concatenate the drafted steps into a [`Program`]. Idle PEs
    /// (see [`PeInstr::is_nop`]) are dropped.
    pub fn build(self) -> Program {
        let n_ops = self.steps.iter().map(|s| s.ops.len()).sum();
        let n_ext = self.steps.iter().map(|s| s.ext.len()).sum();
        let mut ops = Vec::with_capacity(n_ops);
        let mut ext = Vec::with_capacity(n_ext);
        let mut ends = Vec::with_capacity(self.steps.len());
        let offset = |n: usize| u32::try_from(n).expect("program exceeds 2^32 entries");
        for step in self.steps {
            let live = step.ops.chunk_by(|a, b| a.pe() == b.pe());
            ops.extend(live.filter(|run| !idle(run)).flatten());
            ext.extend_from_slice(&step.ext);
            ends.push((offset(ops.len()), offset(ext.len())));
        }
        // Only a negate-only draft PE leaves slack to give back.
        ops.shrink_to_fit();
        let mut pool = self.pool.words;
        pool.shrink_to_fit();
        Program {
            nr: self.nr,
            ops,
            pool,
            ext,
            ends,
            hash: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Operands at the edges of the inline payload, zero, or a small value.
    fn operand(rng: &mut StdRng) -> usize {
        const EDGES: [usize; 5] = [
            PAYLOAD_LIMIT - 1,
            PAYLOAD_LIMIT,
            PAYLOAD_LIMIT + 1,
            usize::MAX,
            0,
        ];
        match rng.gen_range(0..7usize) {
            k @ 0..=4 => EDGES[k],
            _ => rng.gen_range(0..64usize),
        }
    }

    /// Constants whose bits a lossy store would change: NaNs (quiet and
    /// signaling, with payloads), −0.0, subnormals, infinities.
    fn constant(rng: &mut StdRng) -> f64 {
        let bits = rng.next_u64();
        match rng.gen_range(0..7usize) {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | bits & 0x8007_ffff_ffff_ffff),
            1 => f64::from_bits(0x7ff0_0000_0000_0001 | bits & 0x8003_ffff_ffff_ffff),
            2 => -0.0,
            3 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff | 1),
            4 => f64::NEG_INFINITY,
            5 => 1.0,
            _ => f64::from_bits(bits),
        }
    }

    fn source(rng: &mut StdRng) -> Source {
        match rng.gen_range(0..9usize) {
            0 => Source::RowBus,
            1 => Source::ColBus,
            2 => Source::SramA(operand(rng)),
            3 => Source::SramB(operand(rng)),
            4 => Source::Reg(operand(rng)),
            5 => Source::Acc,
            6 => Source::MacResult,
            7 => Source::SfuResult,
            _ => Source::Const(constant(rng)),
        }
    }

    /// A random draft instruction: each of the 11 fields set with
    /// probability 1/3, operands drawn from the escape edges.
    fn random_instr(rng: &mut StdRng) -> PeInstr {
        let mut pi = PeInstr::default();
        let on = |rng: &mut StdRng| rng.gen_range(0..3usize) == 0;
        if on(rng) {
            pi.row_write = Some(source(rng));
        }
        if on(rng) {
            pi.col_write = Some(source(rng));
        }
        if on(rng) {
            pi.mac = Some((source(rng), source(rng)));
        }
        if on(rng) {
            pi.fma = Some((source(rng), source(rng), source(rng)));
        }
        pi.negate_product = on(rng);
        if on(rng) {
            pi.cmp_update = Some(CmpUpdate {
                value: source(rng),
                tag: constant(rng),
                val_reg: operand(rng),
                tag_reg: operand(rng),
            });
        }
        if on(rng) {
            pi.acc_load = Some(source(rng));
        }
        if on(rng) {
            pi.sram_a_write = Some((operand(rng), source(rng)));
        }
        if on(rng) {
            pi.sram_b_write = Some((operand(rng), source(rng)));
        }
        if on(rng) {
            pi.reg_write = Some((operand(rng), source(rng)));
        }
        if on(rng) {
            pi.sfu = Some((
                DIVSQRT_OPS[rng.gen_range(0..4usize)],
                source(rng),
                source(rng),
            ));
        }
        pi
    }

    /// Visit every [`Source`] a micro-op reads, in operand order.
    fn for_each_source(op: MicroOp, f: &mut impl FnMut(Source)) {
        match op {
            MicroOp::RowWrite(s)
            | MicroOp::ColWrite(s)
            | MicroOp::AccLoad(s)
            | MicroOp::SramAWrite(_, s)
            | MicroOp::SramBWrite(_, s)
            | MicroOp::RegWrite(_, s) => f(s),
            MicroOp::Mac(a, b) | MicroOp::Sfu(_, a, b) => {
                f(a);
                f(b);
            }
            MicroOp::Fma(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            MicroOp::CmpUpdate(c) => f(c.value),
            MicroOp::NegateProduct => {}
        }
    }

    /// `pi` in a form that compares exactly: its debug text plus the raw
    /// bits of every `f64` it carries (which `==` and `{:?}` blur for
    /// NaNs).
    fn exact(pi: &PeInstr) -> (String, Vec<u64>) {
        let mut bits = Vec::new();
        for op in pi.micro_ops() {
            for_each_source(op, &mut |s| {
                if let Source::Const(v) = s {
                    bits.push(v.to_bits());
                }
            });
            if let MicroOp::CmpUpdate(c) = op {
                bits.push(c.tag.to_bits());
            }
        }
        (format!("{pi:?}"), bits)
    }

    /// Random drafts written through `set_pe`, whole-instruction `pe_mut`
    /// and field-by-field `pe_mut` (several guards on one PE), with their
    /// dense mirror.
    pub(crate) fn random_drafts(
        rng: &mut StdRng,
        nr: usize,
        steps: usize,
    ) -> (ProgramBuilder, Vec<Vec<PeInstr>>) {
        let mut b = ProgramBuilder::new(nr);
        b.idle(steps);
        let mut dense = vec![vec![PeInstr::default(); nr * nr]; steps];
        for _ in 0..steps * nr {
            let (t, idx) = (rng.gen_range(0..steps), rng.gen_range(0..nr * nr));
            let (r, c) = (idx / nr, idx % nr);
            let instr = random_instr(rng);
            match rng.gen_range(0..3usize) {
                0 if dense[t][idx].is_nop() => b.set_pe(t, r, c, instr.clone()),
                1 => *b.pe_mut(t, r, c) = instr.clone(),
                _ => {
                    // One guard per field, over whatever the PE held.
                    for op in instr.micro_ops() {
                        b.pe_mut(t, r, c).set(op);
                        dense[t][idx].set(op);
                    }
                    continue;
                }
            }
            dense[t][idx] = instr;
        }
        (b, dense)
    }

    #[test]
    fn drafts_round_trip_exactly_through_the_compact_store() {
        let mut rng = StdRng::seed_from_u64(0x16b);
        let mut kinds = [0usize; kind::COUNT];
        let mut pooled_tags = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let nr = rng.gen_range(1..5usize);
            let steps = rng.gen_range(1..6usize);
            let (b, dense) = random_drafts(&mut rng, nr, steps);
            let prog = b.build();
            assert_eq!(prog.len(), steps);
            for op in &prog.ops {
                kinds[op.kind() as usize] += 1;
                for w in op.args {
                    pooled_tags.insert(w & 0xf);
                }
            }
            for (t, step) in prog.steps().enumerate() {
                let expect: Vec<_> = (dense[t].iter().enumerate())
                    .filter(|(_, pi)| !pi.is_nop())
                    .map(|(i, pi)| (i, exact(pi)))
                    .collect();
                let got: Vec<_> = step
                    .pes()
                    .map(|(i, ops)| (i, exact(&ops.to_instr())))
                    .collect();
                assert_eq!(got, expect, "step {t}");
            }
            // The constant scan reads the words directly; it must meet
            // exactly the constants a decoding walk meets.
            let mut walked = Vec::new();
            for step in prog.steps() {
                for (_, ops) in step.pes() {
                    for op in ops.iter() {
                        for_each_source(op, &mut |s| {
                            if let Source::Const(v) = s {
                                walked.push(v.to_bits());
                            }
                        });
                    }
                }
            }
            assert_eq!(prog.consts().map(f64::to_bits).collect::<Vec<_>>(), walked);
        }
        assert!(
            kinds.iter().all(|&n| n > 0),
            "every kind drafted: {kinds:?}"
        );
        for t in [
            tag::CONST,
            tag::SRAM_A_POOLED,
            tag::SRAM_B_POOLED,
            tag::REG_POOLED,
        ] {
            assert!(pooled_tags.contains(&t), "tag {t} exercised");
        }
    }

    #[test]
    fn guards_on_one_pe_accumulate_and_intern_the_pool() {
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        let tag = f64::from_bits(0x7ff0_0000_0000_0abc); // a signaling NaN
        b.pe_mut(t, 1, 1).mac = Some((Source::Const(-0.0), Source::SramA(usize::MAX)));
        b.pe_mut(t, 0, 0).row_write = Some(Source::Acc);
        {
            let mut pe = b.pe_mut(t, 1, 1);
            assert_eq!(
                pe.mac,
                Some((Source::Const(-0.0), Source::SramA(usize::MAX)))
            );
            pe.negate_product = true;
            pe.cmp_update = Some(CmpUpdate {
                value: Source::Reg(PAYLOAD_LIMIT),
                tag,
                val_reg: 2,
                tag_reg: usize::MAX,
            });
        }
        b.pe_mut(t, 1, 1).reg_write = Some((PAYLOAD_LIMIT - 1, Source::Const(-0.0)));
        // Re-encoding the same PE again adds nothing to the pool.
        let pool_words = b.pool.words.len();
        b.pe_mut(t, 1, 1).acc_load = Some(Source::Const(-0.0));
        assert_eq!(b.pool.words.len(), pool_words);
        let p = b.build();
        let pes: Vec<_> = p
            .step(0)
            .pes()
            .map(|(i, ops)| (i, ops.to_instr()))
            .collect();
        assert_eq!(pes.len(), 2);
        assert_eq!(pes[0], (0, PeInstr::default().row_write(Source::Acc)));
        let (idx, got) = &pes[1];
        assert_eq!(*idx, 3);
        let cmp = got.cmp_update.expect("comparator kept");
        assert_eq!(cmp.tag.to_bits(), tag.to_bits());
        assert_eq!(
            (cmp.value, cmp.val_reg, cmp.tag_reg),
            (Source::Reg(PAYLOAD_LIMIT), 2, usize::MAX)
        );
        let expect = PeInstr {
            cmp_update: got.cmp_update,
            ..PeInstr::default()
                .mac(Source::Const(-0.0), Source::SramA(usize::MAX))
                .negated()
                .reg_write(PAYLOAD_LIMIT - 1, Source::Const(-0.0))
                .acc_load(Source::Const(-0.0))
        };
        assert_eq!(exact(got), exact(&expect));
        // −0.0, usize::MAX, 2^28 and one comparator record.
        assert_eq!(p.pool.len(), 3 + 3);
    }

    #[test]
    fn nop_detection() {
        assert!(PeInstr::default().is_nop());
        assert!(!PeInstr::default()
            .mac(Source::RowBus, Source::ColBus)
            .is_nop());
    }

    #[test]
    fn builder_layout() {
        let mut b = ProgramBuilder::new(4);
        let t = b.push_step();
        b.set_pe(t, 1, 2, PeInstr::default().row_write(Source::Acc));
        b.idle(2);
        let p = b.build();
        assert_eq!(p.len(), 3);
        let live: Vec<_> = p
            .step(0)
            .pes()
            .map(|(i, ops)| (i, ops.to_instr()))
            .collect();
        assert_eq!(live, [(4 + 2, PeInstr::default().row_write(Source::Acc))]);
        assert_eq!(p.step(2).pes().count(), 0);
    }

    #[test]
    fn clone_keeps_content_and_resets_the_hash_memo() {
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.set_pe(
            t,
            1,
            1,
            PeInstr::default()
                .mac(Source::Acc, Source::Reg(0))
                .negated(),
        );
        b.ext(t, ExtOp::Load { col: 1, addr: 3 });
        b.idle(4);
        let p = b.build();
        let h = p.structural_hash();
        let q = p.clone();
        assert!(q.hash.get().is_none());
        assert_eq!((q.nr(), q.len()), (p.nr(), p.len()));
        assert_eq!(q.ext, p.ext);
        assert_eq!(q.ends, p.ends);
        assert_eq!((&q.ops, &q.pool), (&p.ops, &p.pool));
        assert_eq!(q.structural_hash(), h);
    }

    #[test]
    fn micro_ops_stay_small() {
        assert!(std::mem::size_of::<MicroOp>() <= 56);
        assert!(std::mem::size_of::<PackedOp>() <= 16);
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn double_schedule_panics() {
        let mut b = ProgramBuilder::new(2);
        let t = b.push_step();
        b.set_pe(t, 0, 0, PeInstr::default().row_write(Source::Acc));
        b.set_pe(t, 0, 0, PeInstr::default().col_write(Source::Acc));
    }
}
