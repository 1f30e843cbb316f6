//! The LAC's micro-operation "ISA" and program representation.
//!
//! A [`Program`] is the software image of the paper's microprogrammed state
//! machines: for every cycle (a [`Step`]) it lists, per PE, which datapath
//! actions fire. There is no dynamic control — exactly like the hardware,
//! where "inter- and intra-PE data movement is predetermined" (§3.2.3).
//!
//! Generators schedule dense [`PeInstr`]s through a [`ProgramBuilder`];
//! [`ProgramBuilder::build`] packs them. On most cycles most PEs idle, so
//! a built program stores only the live PEs' set fields, one [`MicroOp`]
//! each, in one flat vector indexed by per-step offsets. An idle PE or an
//! idle cycle costs no micro-op storage.

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
/// This is the form generators write through [`ProgramBuilder`]; a built
/// [`Program`] stores it as [`MicroOp`]s (see [`PeOps::to_instr`] for the
/// way back).
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

/// One set field of a [`PeInstr`]: the unit a packed [`Program`] stores.
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

/// A micro-op tagged with its PE's row-major index.
#[derive(Clone, Copy, Debug)]
struct PackedOp {
    pe: u32,
    op: MicroOp,
}

/// One simulated cycle of a [`Program`]: the live PEs' micro-ops and the
/// external transfers, borrowed from the packed store.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    ops: &'a [PackedOp],
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
    pub fn pes(&self) -> impl Iterator<Item = (usize, PeOps<'a>)> + 'a {
        self.ops
            .chunk_by(|a, b| a.pe == b.pe)
            .map(|run| (run[0].pe as usize, PeOps(run)))
    }
}

/// One live PE's micro-ops for one cycle, in [`PeInstr`] field order.
#[derive(Clone, Copy, Debug)]
pub struct PeOps<'a>(&'a [PackedOp]);

impl<'a> PeOps<'a> {
    /// The micro-ops, in [`PeInstr`] field order (never empty).
    pub fn iter(&self) -> impl Iterator<Item = &'a MicroOp> + 'a {
        self.0.iter().map(|p| &p.op)
    }

    /// The dense instruction these micro-ops encode.
    pub fn to_instr(&self) -> PeInstr {
        let mut pi = PeInstr::default();
        for &op in self.iter() {
            pi.set(op);
        }
        pi
    }

    /// `(mac, fma, negate)`: which product issues the PE carries.
    pub(crate) fn product_flags(&self) -> (bool, bool, bool) {
        self.iter()
            .fold((false, false, false), |(m, f, n), op| match op {
                MicroOp::Mac(..) => (true, f, n),
                MicroOp::Fma(..) => (m, true, n),
                MicroOp::NegateProduct => (m, f, true),
                _ => (m, f, n),
            })
    }
}

/// A complete microprogram for one LAC, packed and read-only.
///
/// Storage is one flat vector of PE-tagged [`MicroOp`]s and one of
/// [`ExtOp`]s; each step records where its share of both ends. Read it
/// through [`Program::steps`] / [`Program::step`], which visit live PEs
/// in ascending index order.
#[derive(Debug, Default)]
pub struct Program {
    nr: usize,
    ops: Vec<PackedOp>,
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
            ext: &self.ext[ext_start as usize..ext_end as usize],
        }
    }

    /// Every cycle in order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Step<'_>> + '_ {
        (0..self.len()).map(|t| self.step(t))
    }

    /// Bytes the program holds on the heap (allocated capacity of the
    /// packed store).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<PackedOp>()
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
/// Steps are drafted sparsely — only PEs a generator touches hold a
/// [`PeInstr`] — and [`ProgramBuilder::build`] packs the drafts.
#[derive(Debug)]
pub struct ProgramBuilder {
    nr: usize,
    steps: Vec<DraftStep>,
}

/// A step under construction.
#[derive(Debug, Default)]
struct DraftStep {
    /// Touched PEs as `(row-major index, instruction)`, ascending index.
    pes: Vec<(usize, PeInstr)>,
    ext: Vec<ExtOp>,
}

impl ProgramBuilder {
    /// Start an empty program for an `nr × nr` mesh.
    pub fn new(nr: usize) -> Self {
        Self {
            nr,
            steps: Vec::new(),
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

    /// Mutable access to PE `(r, c)`'s instruction in step `t`.
    pub fn pe_mut(&mut self, t: usize, r: usize, c: usize) -> &mut PeInstr {
        assert!(r < self.nr && c < self.nr, "PE ({r},{c}) out of mesh");
        let idx = r * self.nr + c;
        let pes = &mut self.steps[t].pes;
        let at = match pes.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => at,
            Err(at) => {
                pes.insert(at, (idx, PeInstr::default()));
                at
            }
        };
        &mut pes[at].1
    }

    /// Overwrite PE `(r, c)`'s instruction in step `t`, asserting that no
    /// instruction was scheduled there yet (catches generator collisions).
    pub fn set_pe(&mut self, t: usize, r: usize, c: usize, instr: PeInstr) {
        let slot = self.pe_mut(t, r, c);
        assert!(slot.is_nop(), "PE ({r},{c}) already scheduled in step {t}");
        *slot = instr;
    }

    /// Add an external-memory transfer to step `t`.
    pub fn ext(&mut self, t: usize, op: ExtOp) {
        self.steps[t].ext.push(op);
    }

    /// Finish: pack the drafted steps into a [`Program`]. Idle PEs (see
    /// [`PeInstr::is_nop`]) are dropped.
    pub fn build(self) -> Program {
        let live = || {
            self.steps
                .iter()
                .flat_map(|s| &s.pes)
                .filter(|(_, pi)| !pi.is_nop())
        };
        let n_ops = live().map(|(_, pi)| pi.micro_ops().count()).sum();
        let n_ext = self.steps.iter().map(|s| s.ext.len()).sum();
        let mut ops = Vec::with_capacity(n_ops);
        let mut ext = Vec::with_capacity(n_ext);
        let mut ends = Vec::with_capacity(self.steps.len());
        let offset = |n: usize| u32::try_from(n).expect("program exceeds 2^32 entries");
        for step in &self.steps {
            for (idx, pi) in step.pes.iter().filter(|(_, pi)| !pi.is_nop()) {
                let pe = offset(*idx);
                ops.extend(pi.micro_ops().map(|op| PackedOp { pe, op }));
            }
            ext.extend_from_slice(&step.ext);
            ends.push((offset(ops.len()), offset(ext.len())));
        }
        Program {
            nr: self.nr,
            ops,
            ext,
            ends,
            hash: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ops = |p: &Program| p.ops.iter().map(|o| (o.pe, o.op)).collect::<Vec<_>>();
        assert_eq!(ops(&q), ops(&p));
        assert_eq!(q.structural_hash(), h);
    }

    #[test]
    fn micro_ops_stay_small() {
        assert!(std::mem::size_of::<MicroOp>() <= 56);
        assert!(std::mem::size_of::<PackedOp>() <= 56);
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
