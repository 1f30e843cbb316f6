//! The unified workload API: every kernel as a [`Workload`] run on a
//! [`Lac`] core, whose counters are the session.
//!
//! The dissertation evaluates one core across a dozen kernels; production
//! use (e.g. the repeated Cholesky factorizations inside an interior-point
//! solver) queues many of them against the same core. This module gives
//! all of them one shape:
//!
//! * [`Workload`] — a problem instance (operands + schedule options) that
//!   knows how to run itself on a [`Lac`] core and report;
//! * [`KernelReport`] — the uniform result: session-mergeable [`ExecStats`],
//!   useful-flop count, utilization, and a [`Details`] variant carrying the
//!   kernel's functional outputs;
//! * [`registry`] — one canonical instance of every workload, so harnesses
//!   (benchmark drivers, integration tests, `run_all`) iterate data-driven
//!   instead of hard-coding kernels.
//!
//! ```no_run
//! use lac_kernels::{registry, Workload};
//! use lac_sim::{Lac, LacConfig};
//!
//! for w in registry() {
//!     let mut lac = Lac::new(w.config(LacConfig::default()));
//!     let report = w.run(&mut lac).expect("hazard-free schedule");
//!     w.check(&report).expect("matches linalg-ref");
//!     println!("{:<14} {:>8} cycles", report.kernel, lac.session_stats().cycles);
//! }
//! ```

use crate::chol::{blocked_cholesky_run, cholesky_tile};
use crate::fft::fft64;
use crate::gemm::{gemm_update, gemm_useful_macs, GemmParams};
use crate::lu::{blocked_lu_run, lu_panel_matrix_run, LuOptions};
use crate::qr::qr_panel_run;
use crate::symm::blocked_symm_run;
use crate::syrk::{syrk_update, syrk_useful_macs, SyrkParams};
use crate::trmm::blocked_trmm_run;
use crate::trsm::{blocked_trsm_run, trsm_stacked, trsm_useful_macs};
use crate::vecnorm::{vecnorm, VnormOptions};
use lac_fpu::FpuConfig;
use lac_sim::{ChipJob, ExecStats, Lac, LacConfig, SimError};
use linalg_ref::householder::HouseholderReflector;
use linalg_ref::{
    cholesky, fft_radix4, gemm, lu_partial_pivot, max_abs_diff, nrm2, qr_householder, symm, trmm,
    trsm, Complex, Matrix, Side, Triangle,
};
use std::mem::size_of;

/// One workload: a problem instance that runs on a core (through its
/// kernels' staging functions) and reports uniformly.
///
/// `Send + Sync` is part of the contract so workloads can be queued onto a
/// multi-core chip through [`lac_sim::LacService`] (every implementor is
/// plain operand data).
///
/// ```
/// use lac_kernels::{Details, GemmWorkload, Workload};
/// use lac_sim::{Lac, LacConfig};
///
/// let w = GemmWorkload::demo(); // 16×16×16, deterministic operands
/// let mut lac = Lac::new(w.config(LacConfig::default()));
/// let report = w.run(&mut lac).expect("hazard-free schedule");
///
/// // Every workload self-verifies against linalg-ref…
/// w.check(&report).expect("matches the reference");
/// // …reports uniformly…
/// assert_eq!(report.kernel, "gemm");
/// assert_eq!(report.useful_flops, 2 * 16 * 16 * 16);
/// let Details::Gemm { c } = &report.details else { panic!() };
/// assert_eq!((c.rows(), c.cols()), (16, 16));
/// // …and meters the core's session: the counters grew by this run.
/// assert!(lac.session_stats().cycles > 0);
/// ```
pub trait Workload: Send + Sync {
    /// Stable kernel name (registry key, display label). A `'static`
    /// string, so every report names its kernel without allocating.
    fn name(&self) -> &'static str;

    /// Adapt a base core configuration to this workload's requirements
    /// (identity for most kernels; e.g. the wide-accumulator vector norm
    /// turns on the exponent extension).
    fn config(&self, base: LacConfig) -> LacConfig {
        base
    }

    /// Estimated useful flops — the scheduler's load unit for least-loaded
    /// placement on a chip. Only relative magnitudes matter; the default
    /// makes all jobs equal.
    fn cost_hint(&self) -> u64 {
        1
    }

    /// Execute on the core. Its counters (the session) meter every cycle;
    /// this run's share is the session's delta
    /// ([`lac_sim::ExecStats::since`]), not part of the report.
    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError>;

    /// Cross-check the report's functional outputs against `linalg-ref`.
    fn check(&self, report: &KernelReport) -> Result<(), String>;
}

/// Workload queues dispatch directly onto a chip ([`lac_sim::LacService`]
/// or [`lac_sim::LacCluster`]): the job's
/// cost is the workload's flop estimate and its output is the uniform
/// [`KernelReport`].
impl ChipJob for Box<dyn Workload> {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        Workload::cost_hint(self.as_ref())
    }

    fn run_on(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        self.run(lac)
    }
}

/// Uniform result of one workload run.
///
/// A graph run holds one report per job, so the report is kept lean:
/// the kernel name is a `'static` label, [`Details`] boxes its
/// multi-field variants, and the run's event counters are not copied in
/// — the core's session already meters them ([`Lac::session_stats`]; a
/// standalone run's share is a delta via [`lac_sim::ExecStats::since`],
/// a graph job's is metered into its shard by the coordinator). The
/// whole report is 80 bytes on 64-bit targets (a unit test guards the
/// bound); [`KernelReport::heap_bytes`] counts it with its payload.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelReport {
    /// Which workload (or graph step) produced this ([`Workload::name`]).
    pub kernel: &'static str,
    /// Mathematically necessary flops (2 per useful MAC); falls back to
    /// the executed-flop count for kernels without a closed-form count.
    pub useful_flops: u64,
    /// Useful-MAC utilization against the core's peak.
    pub utilization: f64,
    /// Per-kernel functional outputs.
    pub details: Details,
}

impl KernelReport {
    /// Bytes this report holds: its own `size_of` plus every buffer its
    /// [`Details`] owns — a boxed variant's box included — each counted
    /// at its length, which is exactly what a clone of the report
    /// allocates. Exact across hosts of one pointer width.
    pub fn heap_bytes(&self) -> usize {
        size_of::<Self>() + self.details.payload_bytes()
    }
}

/// Bytes of a matrix's element buffer.
fn matrix_bytes(m: &Matrix) -> usize {
    m.rows() * m.cols() * size_of::<f64>()
}

impl Details {
    /// Heap bytes the variant owns (see [`KernelReport::heap_bytes`]).
    fn payload_bytes(&self) -> usize {
        match self {
            Details::Gemm { c: m }
            | Details::Syrk { c: m }
            | Details::Trsm { x: m }
            | Details::Cholesky { l: m } => matrix_bytes(m),
            Details::Lu(lu) => {
                size_of::<LuDetails>()
                    + matrix_bytes(&lu.factors)
                    + lu.pivots.len() * size_of::<usize>()
            }
            Details::Qr(qr) => {
                size_of::<QrDetails>()
                    + matrix_bytes(&qr.r)
                    + qr.reflectors.len() * size_of::<HouseholderReflector>()
                    + qr.reflectors
                        .iter()
                        .map(|h| h.u2.len() * size_of::<f64>())
                        .sum::<usize>()
            }
            Details::Vecnorm { .. } => 0,
            Details::Fft { spectrum } => spectrum.len() * size_of::<Complex>(),
            Details::Solver(s) => {
                size_of::<SolverDetails>()
                    + s.factors.len() * size_of::<Matrix>()
                    + s.factors.iter().map(matrix_bytes).sum::<usize>()
                    + matrix_bytes(&s.final_a)
            }
            Details::Ipm(ipm) => {
                size_of::<IpmDetails>()
                    + matrix_bytes(&ipm.x)
                    + matrix_bytes(&ipm.y)
                    + matrix_bytes(&ipm.z)
            }
            Details::Ddp(ddp) => size_of::<DdpDetails>() + matrix_bytes(&ddp.u),
        }
    }
}

/// Per-kernel extras riding on the unified report.
///
/// Single-output variants hold their matrix inline; the multi-field ones
/// are boxed, so the enum is one [`Matrix`] plus a tag (48 bytes on
/// 64-bit targets) however large a kernel's result record grows.
#[derive(Clone, Debug, PartialEq)]
pub enum Details {
    /// Updated `C` of a GEMM-class kernel (also TRMM's product and SYMM's
    /// accumulation).
    Gemm {
        /// The updated output matrix.
        c: Matrix,
    },
    /// Updated lower triangle of SYRK's `C`.
    Syrk {
        /// The updated output (lower triangle significant).
        c: Matrix,
    },
    /// Solution panel `X` of a triangular solve.
    Trsm {
        /// The solution panel.
        x: Matrix,
    },
    /// Cholesky factor `L` (lower).
    Cholesky {
        /// The factor.
        l: Matrix,
    },
    /// LAPACK-packed `L\U` factors plus pivot rows.
    Lu(Box<LuDetails>),
    /// Upper-triangular `R` and the Householder reflectors of a QR panel.
    Qr(Box<QrDetails>),
    /// The computed ‖x‖₂.
    Vecnorm {
        /// The norm.
        norm: f64,
    },
    /// The 64-point spectrum, natural order.
    Fft {
        /// The transform.
        spectrum: Vec<Complex>,
    },
    /// The per-round Cholesky factors and final system matrix of a
    /// [`crate::solver::SolverLoopWorkload`].
    Solver(Box<SolverDetails>),
    /// Post-step iterate and residuals emitted by the closing job of one
    /// IP-PMM interior-point iteration ([`crate::ippmm`]) — what the
    /// iteration's continuation decides convergence from.
    Ipm(Box<IpmDetails>),
    /// Post-sweep summary emitted by the closing job of one IPDDP
    /// backward/forward sweep ([`crate::ipddp`]) — what the fleet
    /// member's continuation decides convergence from.
    Ddp(Box<DdpDetails>),
}

/// [`Details::Lu`]: an LU factorization with partial pivoting.
#[derive(Clone, Debug, PartialEq)]
pub struct LuDetails {
    /// `L\U` packed LAPACK-style.
    pub factors: Matrix,
    /// Pivot row per iteration.
    pub pivots: Vec<usize>,
}

/// [`Details::Qr`]: a Householder QR panel.
#[derive(Clone, Debug, PartialEq)]
pub struct QrDetails {
    /// The triangular factor.
    pub r: Matrix,
    /// One reflector per factored column.
    pub reflectors: Vec<HouseholderReflector>,
}

/// [`Details::Solver`]: a whole solver loop run serially.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverDetails {
    /// `Lₖ` per round.
    pub factors: Vec<Matrix>,
    /// The system matrix after the last update.
    pub final_a: Matrix,
}

/// [`Details::Ipm`]: the iterate after one IP-PMM step.
#[derive(Clone, Debug, PartialEq)]
pub struct IpmDetails {
    /// Primal iterate after the step (`n × 1`).
    pub x: Matrix,
    /// Equality multiplier after the step (`m × 1`).
    pub y: Matrix,
    /// Bound multiplier after the step (`n × 1`).
    pub z: Matrix,
    /// ∞-norm of the primal residual `b − Ax` after the step.
    pub rp: f64,
    /// ∞-norm of the dual residual `c + Qx − Aᵀy − z` after the step.
    pub rd: f64,
    /// Complementarity measure `xᵀz / n` after the step.
    pub mu: f64,
}

/// [`Details::Ddp`]: one fleet member's state after an IPDDP sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct DdpDetails {
    /// The fleet member (its index in [`crate::IpddpFleet`]) that swept.
    pub member: usize,
    /// Control trajectory after the sweep (`nu × T`).
    pub u: Matrix,
    /// Total objective of the new nominal trajectory (stage + terminal
    /// quadratic cost, barrier excluded).
    pub cost: f64,
    /// ∞-norm of the feedforward gains — the sweep's stationarity
    /// measure.
    pub grad: f64,
    /// Barrier weight after the sweep.
    pub mu: f64,
}

/// Assemble the uniform report of one run on `lac` (the core's counters
/// metered its cycles as they ran; `stats` is this run's share, used for
/// the two scalars and not stored). Kernels with a closed-form useful-MAC
/// count rate against it; the rest against their executed flops.
pub(crate) fn report(
    lac: &Lac,
    name: &'static str,
    stats: ExecStats,
    useful_macs: Option<u64>,
    details: Details,
) -> KernelReport {
    let nr = lac.config().nr;
    let (useful_flops, utilization) = match useful_macs {
        Some(m) => (2 * m, m as f64 / (stats.cycles as f64 * (nr * nr) as f64)),
        None => (stats.flops(), stats.utilization(nr)),
    };
    KernelReport {
        kernel: name,
        useful_flops,
        utilization,
        details,
    }
}

pub(crate) fn expect_details(kernel: &str, wanted: &str) -> String {
    format!("{kernel}: report carries foreign details (wanted {wanted})")
}

pub(crate) fn close(kernel: &str, what: &str, err: f64, tol: f64) -> Result<(), String> {
    if err < tol {
        Ok(())
    } else {
        Err(format!(
            "{kernel}: {what} differs from linalg-ref by {err:.3e} (tol {tol:.0e})"
        ))
    }
}

// ---- deterministic demo operands (registry instances) ---------------------

/// SplitMix64-style hash → [-1, 1); keeps demo problems reproducible
/// without a rand dependency in the library.
pub(crate) fn demo_value(i: usize, j: usize, salt: u64) -> f64 {
    let mut z = (i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

pub(crate) fn demo_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| demo_value(i, j, salt))
}

/// SPD: `M·Mᵀ + n·I` over a demo matrix.
pub(crate) fn demo_spd(n: usize, salt: u64) -> Matrix {
    let m = demo_matrix(n, n, salt);
    Matrix::from_fn(n, n, |i, j| {
        let dot: f64 = (0..n).map(|p| m[(i, p)] * m[(j, p)]).sum();
        dot + if i == j { n as f64 } else { 0.0 }
    })
}

/// Lower-triangular with diagonal bounded away from zero.
pub(crate) fn demo_lower(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i > j {
            demo_value(i, j, salt)
        } else if i == j {
            1.5 + 0.4 * demo_value(i, i, salt)
        } else {
            0.0
        }
    })
}

// ---- GEMM -----------------------------------------------------------------

/// `C += A·B` through the rank-1-update schedule of §3.1–3.4.
#[derive(Clone, Debug)]
pub struct GemmWorkload {
    /// Left operand.
    pub a: Matrix,
    /// Right operand.
    pub b: Matrix,
    /// Accumulator / output.
    pub c: Matrix,
    /// Blocking and schedule options.
    pub params: GemmParams,
}

impl GemmWorkload {
    /// Overlapped schedule over the operands' natural dimensions.
    pub fn new(a: Matrix, b: Matrix, c: Matrix) -> Self {
        let params = GemmParams::new(a.rows(), a.cols(), b.cols());
        assert_eq!(b.rows(), a.cols());
        assert_eq!((c.rows(), c.cols()), (a.rows(), b.cols()));
        Self { a, b, c, params }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(
            demo_matrix(16, 16, 1),
            demo_matrix(16, 16, 2),
            demo_matrix(16, 16, 3),
        )
    }
}

impl Workload for GemmWorkload {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.a.rows() * self.a.cols() * self.b.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (c, stats) = gemm_update(lac, &self.a, &self.b, &self.c, &self.params)?;
        let macs = gemm_useful_macs(&self.params);
        Ok(report(
            lac,
            self.name(),
            stats,
            Some(macs),
            Details::Gemm { c },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Gemm { c } = &report.details else {
            return Err(expect_details(self.name(), "Gemm"));
        };
        let mut expect = self.c.clone();
        let a = if self.params.negate {
            Matrix::from_fn(self.a.rows(), self.a.cols(), |i, j| -self.a[(i, j)])
        } else {
            self.a.clone()
        };
        gemm(&a, &self.b, &mut expect);
        close(self.name(), "C", max_abs_diff(c, &expect), 1e-10)
    }
}

// ---- SYRK -----------------------------------------------------------------

/// `C (lower) += A·Aᵀ` with the bus-transpose of §5.2.
#[derive(Clone, Debug)]
pub struct SyrkWorkload {
    /// The rank-`kc` factor.
    pub a: Matrix,
    /// Accumulator / output (lower triangle significant).
    pub c: Matrix,
    /// Shape options.
    pub params: SyrkParams,
}

impl SyrkWorkload {
    /// An accumulating run over the operands' natural dimensions.
    pub fn new(a: Matrix, c: Matrix) -> Self {
        let params = SyrkParams::new(a.rows(), a.cols());
        assert_eq!((c.rows(), c.cols()), (a.rows(), a.rows()));
        Self { a, c, params }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(
            demo_matrix(16, 8, 4),
            demo_matrix(16, 16, 5).symmetrize_from_lower(),
        )
    }
}

impl Workload for SyrkWorkload {
    fn name(&self) -> &'static str {
        "syrk"
    }

    fn cost_hint(&self) -> u64 {
        (self.a.rows() * (self.a.rows() + 1) * self.a.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (c, stats) = syrk_update(lac, &self.a, &self.c, &self.params)?;
        let macs = syrk_useful_macs(lac.config().nr, &self.params);
        Ok(report(
            lac,
            self.name(),
            stats,
            Some(macs),
            Details::Syrk { c },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Syrk { c } = &report.details else {
            return Err(expect_details(self.name(), "Syrk"));
        };
        let mut expect = self.c.clone();
        let at = self.a.transpose();
        let a = if self.params.negate {
            Matrix::from_fn(self.a.rows(), self.a.cols(), |i, j| -self.a[(i, j)])
        } else {
            self.a.clone()
        };
        gemm(&a, &at, &mut expect);
        close(
            self.name(),
            "C (lower)",
            max_abs_diff(&expect.tril(), c),
            1e-10,
        )
    }
}

// ---- TRSM -----------------------------------------------------------------

/// Stacked diagonal solve `L X = B` of Figure 5.5 (`L` is `nr × nr`).
#[derive(Clone, Debug)]
pub struct TrsmStackedWorkload {
    /// The `nr × nr` lower-triangular factor.
    pub l: Matrix,
    /// Right-hand sides.
    pub b: Matrix,
}

impl TrsmStackedWorkload {
    /// Solve `L X = B` for the given operands.
    pub fn new(l: Matrix, b: Matrix) -> Self {
        assert_eq!(l.rows(), l.cols());
        assert_eq!(b.rows(), l.rows());
        Self { l, b }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_lower(4, 6), demo_matrix(4, 16, 7))
    }
}

impl Workload for TrsmStackedWorkload {
    fn name(&self) -> &'static str {
        "trsm-stacked"
    }

    fn cost_hint(&self) -> u64 {
        (self.l.rows() * self.l.rows() * self.b.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (x, stats) = trsm_stacked(lac, &self.l, &self.b)?;
        let macs = trsm_useful_macs(lac.config().nr, self.b.cols());
        Ok(report(
            lac,
            self.name(),
            stats,
            Some(macs),
            Details::Trsm { x },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Trsm { x } = &report.details else {
            return Err(expect_details(self.name(), "Trsm"));
        };
        let mut expect = self.b.clone();
        trsm(Side::Left, Triangle::Lower, &self.l, &mut expect);
        close(self.name(), "X", max_abs_diff(x, &expect), 1e-8)
    }
}

/// Blocked `L X = B` (Figure 5.7): GEMM updates alternating with stacked
/// diagonal solves.
#[derive(Clone, Debug)]
pub struct BlockedTrsmWorkload {
    /// The lower-triangular factor.
    pub l: Matrix,
    /// Right-hand sides.
    pub b: Matrix,
}

impl BlockedTrsmWorkload {
    /// Solve `L X = B` for the given operands.
    pub fn new(l: Matrix, b: Matrix) -> Self {
        assert_eq!(l.rows(), l.cols());
        assert_eq!(b.rows(), l.rows());
        Self { l, b }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_lower(16, 8), demo_matrix(16, 8, 9))
    }
}

impl Workload for BlockedTrsmWorkload {
    fn name(&self) -> &'static str {
        "trsm"
    }

    fn cost_hint(&self) -> u64 {
        (self.l.rows() * self.l.rows() * self.b.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (x, stats) = blocked_trsm_run(lac, &self.l, &self.b)?;
        Ok(report(lac, self.name(), stats, None, Details::Trsm { x }))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Trsm { x } = &report.details else {
            return Err(expect_details(self.name(), "Trsm"));
        };
        let mut expect = self.b.clone();
        trsm(Side::Left, Triangle::Lower, &self.l, &mut expect);
        close(self.name(), "X", max_abs_diff(x, &expect), 1e-8)
    }
}

// ---- TRMM -----------------------------------------------------------------

/// `B := L·B` as growing-panel GEMMs (§5.1).
#[derive(Clone, Debug)]
pub struct TrmmWorkload {
    /// The lower-triangular multiplier.
    pub l: Matrix,
    /// The panel to multiply in place.
    pub b: Matrix,
}

impl TrmmWorkload {
    /// Compute `B := L·B` for the given operands.
    pub fn new(l: Matrix, b: Matrix) -> Self {
        assert_eq!(l.rows(), l.cols());
        assert_eq!(b.rows(), l.rows());
        Self { l, b }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_lower(16, 10), demo_matrix(16, 8, 11))
    }
}

impl Workload for TrmmWorkload {
    fn name(&self) -> &'static str {
        "trmm"
    }

    fn cost_hint(&self) -> u64 {
        (self.l.rows() * self.l.rows() * self.b.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (b, stats) = blocked_trmm_run(lac, &self.l, &self.b)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Gemm { c: b },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Gemm { c } = &report.details else {
            return Err(expect_details(self.name(), "Gemm"));
        };
        let mut expect = self.b.clone();
        trmm(Side::Left, Triangle::Lower, &self.l, &mut expect);
        close(self.name(), "L·B", max_abs_diff(c, &expect), 1e-10)
    }
}

// ---- SYMM -----------------------------------------------------------------

/// `C += A·B` with symmetric `A` stored in its lower triangle (§5.1).
#[derive(Clone, Debug)]
pub struct SymmWorkload {
    /// Symmetric `A`, stored in its lower triangle.
    pub a_lower: Matrix,
    /// Right operand.
    pub b: Matrix,
    /// Accumulator / output.
    pub c: Matrix,
}

impl SymmWorkload {
    /// Compute `C += A·B` for the given operands.
    pub fn new(a_lower: Matrix, b: Matrix, c: Matrix) -> Self {
        assert_eq!(a_lower.rows(), a_lower.cols());
        assert_eq!(b.rows(), a_lower.rows());
        assert_eq!((c.rows(), c.cols()), (b.rows(), b.cols()));
        Self { a_lower, b, c }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(
            demo_matrix(16, 16, 12).tril(),
            demo_matrix(16, 8, 13),
            demo_matrix(16, 8, 14),
        )
    }
}

impl Workload for SymmWorkload {
    fn name(&self) -> &'static str {
        "symm"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.a_lower.rows() * self.a_lower.rows() * self.b.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (c, stats) = blocked_symm_run(lac, &self.a_lower, &self.b, &self.c)?;
        Ok(report(lac, self.name(), stats, None, Details::Gemm { c }))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Gemm { c } = &report.details else {
            return Err(expect_details(self.name(), "Gemm"));
        };
        let mut expect = self.c.clone();
        symm(
            Side::Left,
            Triangle::Lower,
            &self.a_lower,
            &self.b,
            &mut expect,
        );
        close(self.name(), "C", max_abs_diff(c, &expect), 1e-10)
    }
}

// ---- Cholesky -------------------------------------------------------------

/// The `nr × nr` Cholesky tile kernel of §6.1.1.
#[derive(Clone, Debug)]
pub struct CholKernelWorkload {
    /// The SPD tile to factor.
    pub a: Matrix,
}

impl CholKernelWorkload {
    /// Factor the given `nr × nr` SPD tile.
    pub fn new(a: Matrix) -> Self {
        assert_eq!(a.rows(), a.cols());
        Self { a }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_spd(4, 15))
    }
}

impl Workload for CholKernelWorkload {
    fn name(&self) -> &'static str {
        "chol-kernel"
    }

    fn cost_hint(&self) -> u64 {
        (self.a.rows().pow(3) / 3).max(1) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (l, stats) = cholesky_tile(lac, &self.a)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Cholesky { l },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Cholesky { l } = &report.details else {
            return Err(expect_details(self.name(), "Cholesky"));
        };
        let expect = cholesky(&self.a).map_err(|e| format!("{}: reference: {e:?}", self.name()))?;
        close(self.name(), "L", max_abs_diff(l, &expect), 1e-9)
    }
}

/// Blocked right-looking Cholesky (Chol → TRSM → SYRK, Figure 6.1).
#[derive(Clone, Debug)]
pub struct BlockedCholWorkload {
    /// The SPD matrix to factor.
    pub a: Matrix,
}

impl BlockedCholWorkload {
    /// Factor the given SPD matrix.
    pub fn new(a: Matrix) -> Self {
        assert_eq!(a.rows(), a.cols());
        Self { a }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_spd(16, 16))
    }
}

impl Workload for BlockedCholWorkload {
    fn name(&self) -> &'static str {
        "chol"
    }

    fn cost_hint(&self) -> u64 {
        (self.a.rows().pow(3) / 3).max(1) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (l, stats) = blocked_cholesky_run(lac, &self.a)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Cholesky { l },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Cholesky { l } = &report.details else {
            return Err(expect_details(self.name(), "Cholesky"));
        };
        let expect = cholesky(&self.a).map_err(|e| format!("{}: reference: {e:?}", self.name()))?;
        close(self.name(), "L", max_abs_diff(l, &expect), 1e-7)
    }
}

// ---- LU -------------------------------------------------------------------

/// Panel LU with partial pivoting (§6.1.2), `K × nr`.
#[derive(Clone, Debug)]
pub struct LuPanelWorkload {
    /// The `K × nr` panel to factor.
    pub a: Matrix,
    /// Pivot-search implementation options.
    pub opts: LuOptions,
}

impl LuPanelWorkload {
    /// Factor the given panel.
    pub fn new(a: Matrix, opts: LuOptions) -> Self {
        Self { a, opts }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_matrix(16, 4, 17), LuOptions::default())
    }
}

impl Workload for LuPanelWorkload {
    fn name(&self) -> &'static str {
        "lu-panel"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.a.rows() * self.a.cols() * self.a.cols()) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (factors, pivots, stats) = lu_panel_matrix_run(lac, &self.a, &self.opts)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Lu(Box::new(LuDetails { factors, pivots })),
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Lu(lu) = &report.details else {
            return Err(expect_details(self.name(), "Lu"));
        };
        let LuDetails { factors, pivots } = lu.as_ref();
        let expect =
            lu_partial_pivot(&self.a).map_err(|e| format!("{}: reference: {e:?}", self.name()))?;
        if *pivots != expect.pivots {
            return Err(format!(
                "{}: pivots {pivots:?} vs reference {:?}",
                self.name(),
                expect.pivots
            ));
        }
        close(
            self.name(),
            "L\\U",
            max_abs_diff(factors, &expect.factors),
            1e-9,
        )
    }
}

/// Blocked LU with partial pivoting over a square matrix.
#[derive(Clone, Debug)]
pub struct BlockedLuWorkload {
    /// The square matrix to factor.
    pub a: Matrix,
    /// Pivot-search implementation options.
    pub opts: LuOptions,
}

impl BlockedLuWorkload {
    /// Factor the given matrix.
    pub fn new(a: Matrix, opts: LuOptions) -> Self {
        assert_eq!(a.rows(), a.cols());
        Self { a, opts }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(demo_matrix(16, 16, 18), LuOptions::default())
    }
}

impl Workload for BlockedLuWorkload {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.a.rows().pow(3) / 3).max(1) as u64
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (factors, pivots, stats) = blocked_lu_run(lac, &self.a, &self.opts)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Lu(Box::new(LuDetails { factors, pivots })),
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Lu(lu) = &report.details else {
            return Err(expect_details(self.name(), "Lu"));
        };
        let LuDetails { factors, pivots } = lu.as_ref();
        let expect =
            lu_partial_pivot(&self.a).map_err(|e| format!("{}: reference: {e:?}", self.name()))?;
        if *pivots != expect.pivots {
            return Err(format!(
                "{}: pivots {pivots:?} vs reference {:?}",
                self.name(),
                expect.pivots
            ));
        }
        close(
            self.name(),
            "L\\U",
            max_abs_diff(factors, &expect.factors),
            1e-8,
        )
    }
}

// ---- QR -------------------------------------------------------------------

/// Householder QR panel driven by the vector-norm kernel (§6.1.3).
#[derive(Clone, Debug)]
pub struct QrPanelWorkload {
    /// The tall panel to factor (`rows ≥ cols`).
    pub a: Matrix,
    /// Norm-kernel options for the column norms.
    pub opts: VnormOptions,
}

impl QrPanelWorkload {
    /// Factor the given panel.
    pub fn new(a: Matrix, opts: VnormOptions) -> Self {
        assert!(a.rows() >= a.cols());
        Self { a, opts }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        Self::new(
            demo_matrix(16, 4, 19),
            VnormOptions {
                exponent_extension: true,
                comparator: false,
            },
        )
    }
}

impl Workload for QrPanelWorkload {
    fn name(&self) -> &'static str {
        "qr-panel"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.a.rows() * self.a.cols() * self.a.cols()) as u64
    }

    fn config(&self, base: LacConfig) -> LacConfig {
        LacConfig {
            fpu: FpuConfig {
                exponent_extension: self.opts.exponent_extension || base.fpu.exponent_extension,
                ..base.fpu
            },
            ..base
        }
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (qr, stats) = qr_panel_run(lac, &self.a, &self.opts)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Qr(Box::new(qr)),
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Qr(qr) = &report.details else {
            return Err(expect_details(self.name(), "Qr"));
        };
        let reference = qr_householder(&self.a);
        close(self.name(), "R", max_abs_diff(&qr.r, &reference.r), 1e-8)
    }
}

// ---- vector norm ----------------------------------------------------------

/// ‖x‖₂ with the §A.2 extension options (Figure 6.6).
#[derive(Clone, Debug)]
pub struct VecnormWorkload {
    /// The vector (length a positive multiple of 8).
    pub x: Vec<f64>,
    /// Extension options (wide accumulator, SFU form).
    pub opts: VnormOptions,
}

impl VecnormWorkload {
    /// Compute `‖x‖₂` for the given vector.
    pub fn new(x: Vec<f64>, opts: VnormOptions) -> Self {
        assert!(
            x.len().is_multiple_of(8) && !x.is_empty(),
            "length must be a positive multiple of 8"
        );
        Self { x, opts }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        let x = (0..64).map(|i| demo_value(i, 0, 20)).collect();
        Self::new(
            x,
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
        )
    }
}

impl Workload for VecnormWorkload {
    fn name(&self) -> &'static str {
        "vecnorm"
    }

    fn cost_hint(&self) -> u64 {
        (2 * self.x.len()) as u64
    }

    fn config(&self, base: LacConfig) -> LacConfig {
        LacConfig {
            fpu: FpuConfig {
                exponent_extension: self.opts.exponent_extension || base.fpu.exponent_extension,
                ..base.fpu
            },
            ..base
        }
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (norm, stats) = vecnorm(lac, &self.x, &self.opts)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Vecnorm { norm },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Vecnorm { norm } = report.details else {
            return Err(expect_details(self.name(), "Vecnorm"));
        };
        let expect = nrm2(&self.x);
        let err = if expect == 0.0 {
            norm.abs()
        } else {
            (norm / expect - 1.0).abs()
        };
        close(self.name(), "‖x‖₂ (relative)", err, 1e-9)
    }
}

// ---- FFT ------------------------------------------------------------------

/// 64-point radix-4 complex FFT on the hybrid core (§6.2 / Appendix B).
#[derive(Clone, Debug)]
pub struct Fft64Workload {
    /// The 64-point input signal.
    pub signal: Vec<Complex>,
}

impl Fft64Workload {
    /// Transform the given 64-point signal.
    pub fn new(signal: Vec<Complex>) -> Self {
        assert_eq!(signal.len(), 64, "the kernel transforms exactly 64 points");
        Self { signal }
    }

    /// The registry's canonical instance (deterministic demo operands).
    pub fn demo() -> Self {
        let signal = (0..64)
            .map(|i| Complex::new(demo_value(i, 1, 21), demo_value(i, 2, 21)))
            .collect();
        Self::new(signal)
    }
}

impl Workload for Fft64Workload {
    fn name(&self) -> &'static str {
        "fft64"
    }

    fn cost_hint(&self) -> u64 {
        64 * 6 * 3 // n/4·log4(n) radix-4 butterflies, ~complex-mul flops each
    }

    /// Grow the local stores to the kernel's scratch minima if the base
    /// configuration is smaller (the hybrid core's B-memory holds the
    /// butterfly workspace).
    fn config(&self, base: LacConfig) -> LacConfig {
        LacConfig {
            sram_a_words: base.sram_a_words.max(8),
            sram_b_words: base.sram_b_words.max(crate::fft::B_WORDS_NEEDED),
            rf_entries: base.rf_entries.max(4),
            ..base
        }
    }

    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let (spectrum, stats) = fft64(lac, &self.signal)?;
        Ok(report(
            lac,
            self.name(),
            stats,
            None,
            Details::Fft { spectrum },
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Fft { spectrum } = &report.details else {
            return Err(expect_details(self.name(), "Fft"));
        };
        let mut reference = self.signal.clone();
        fft_radix4(&mut reference);
        let err = spectrum
            .iter()
            .zip(&reference)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        close(self.name(), "spectrum", err, 1e-10)
    }
}

// ---- registry -------------------------------------------------------------

/// One canonical instance of every workload, sized to run on the default
/// 4×4 core. Harnesses iterate this instead of hard-coding kernels.
pub fn registry() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(GemmWorkload::demo()),
        Box::new(SyrkWorkload::demo()),
        Box::new(TrsmStackedWorkload::demo()),
        Box::new(BlockedTrsmWorkload::demo()),
        Box::new(TrmmWorkload::demo()),
        Box::new(SymmWorkload::demo()),
        Box::new(CholKernelWorkload::demo()),
        Box::new(BlockedCholWorkload::demo()),
        Box::new(LuPanelWorkload::demo()),
        Box::new(BlockedLuWorkload::demo()),
        Box::new(QrPanelWorkload::demo()),
        Box::new(VecnormWorkload::demo()),
        Box::new(Fft64Workload::demo()),
        Box::new(crate::solver::SolverLoopWorkload::demo()),
    ]
}

/// Problem scale of a [`registry_sized`] instance. Every scale keeps the
/// constraints of the 4×4 core (dimensions multiples of `nr`, QR panels
/// tall, GEMM's overlap needing `kc ≥ 2·nr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProblemSize {
    /// The smallest instances the schedules admit.
    Small,
    /// The demo scale ([`registry`] equivalents, different operands).
    Medium,
    /// Several blocking steps per kernel — exercises the blocked drivers.
    Large,
}

impl ProblemSize {
    /// The three scales, small to large.
    pub const ALL: [ProblemSize; 3] = [ProblemSize::Small, ProblemSize::Medium, ProblemSize::Large];
}

/// Every registry workload at a chosen problem scale, with operands salted
/// by `size` so the three suites factor different matrices. Fixed-size
/// kernels (the `nr×nr` Cholesky tile, the 64-point FFT) vary operands
/// only.
pub fn registry_sized(size: ProblemSize) -> Vec<Box<dyn Workload>> {
    // Per-size dimensions: (square block n, panel width w, vector length).
    let (n, w, len, salt) = match size {
        ProblemSize::Small => (8, 4, 16, 100),
        ProblemSize::Medium => (16, 8, 64, 200),
        ProblemSize::Large => (32, 12, 256, 300),
    };
    let spd = demo_spd(n, salt);
    vec![
        Box::new(GemmWorkload::new(
            demo_matrix(n, n, salt + 1),
            demo_matrix(n, n, salt + 2),
            demo_matrix(n, n, salt + 3),
        )),
        Box::new(SyrkWorkload::new(
            demo_matrix(n, n / 2, salt + 4),
            demo_matrix(n, n, salt + 5).symmetrize_from_lower(),
        )),
        Box::new(TrsmStackedWorkload::new(
            demo_lower(4, salt + 6),
            demo_matrix(4, 4 * w, salt + 7),
        )),
        Box::new(BlockedTrsmWorkload::new(
            demo_lower(n, salt + 8),
            demo_matrix(n, w, salt + 9),
        )),
        Box::new(TrmmWorkload::new(
            demo_lower(n, salt + 10),
            demo_matrix(n, w, salt + 11),
        )),
        Box::new(SymmWorkload::new(
            demo_matrix(n, n, salt + 12).tril(),
            demo_matrix(n, w, salt + 13),
            demo_matrix(n, w, salt + 14),
        )),
        Box::new(CholKernelWorkload::new(demo_spd(4, salt + 15))),
        Box::new(BlockedCholWorkload::new(spd)),
        Box::new(LuPanelWorkload::new(
            demo_matrix(2 * n, 4, salt + 17),
            LuOptions::default(),
        )),
        Box::new(BlockedLuWorkload::new(
            demo_matrix(n, n, salt + 18),
            LuOptions::default(),
        )),
        Box::new(QrPanelWorkload::new(
            demo_matrix(2 * n, 4, salt + 19),
            VnormOptions {
                exponent_extension: true,
                comparator: false,
            },
        )),
        Box::new(VecnormWorkload::new(
            (0..len).map(|i| demo_value(i, 0, salt + 20)).collect(),
            VnormOptions {
                exponent_extension: false,
                comparator: true,
            },
        )),
        Box::new(Fft64Workload::new(
            (0..64)
                .map(|i| Complex::new(demo_value(i, 1, salt + 21), demo_value(i, 2, salt + 21)))
                .collect(),
        )),
        Box::new(crate::solver::SolverLoopWorkload::new(
            crate::solver::SolverLoopParams {
                // The chained rounds already multiply the work, so the
                // solver scales fan-out rather than the system dimension.
                n: if size == ProblemSize::Small { 8 } else { 16 },
                rounds: if size == ProblemSize::Large { 3 } else { 2 },
                panels: if size == ProblemSize::Large { 4 } else { 2 },
                width: if size == ProblemSize::Small { 4 } else { 8 },
                salt: salt + 22,
            },
        )),
    ]
}

/// One core configuration every registry workload can run on: the base
/// config folded through each workload's [`Workload::config`] adaptation.
/// This is the core config of the [`lac_sim::ChipConfig`] to dispatch
/// mixed registry queues across cores with.
pub fn registry_chip_config(base: LacConfig) -> LacConfig {
    registry()
        .iter()
        .chain(&registry_sized(ProblemSize::Large))
        .fold(base, |cfg, w| w.config(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<String> = registry().iter().map(|w| w.name().to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "duplicate workload names: {names:?}"
        );
        assert!(names.iter().any(|n| n == "gemm"));
        assert!(names.iter().any(|n| n == "chol"));
        assert!(names.iter().any(|n| n == "fft64"));
        assert!(names.len() >= 12, "registry should cover every kernel");
    }

    #[test]
    fn session_accumulates_two_workloads() {
        let mut lac = Lac::new(LacConfig::default());
        let g = GemmWorkload::demo();
        let r1 = g.run(&mut lac).unwrap();
        let s1 = *lac.session_stats();
        assert!(s1.cycles > 0);
        let c = BlockedCholWorkload::demo();
        let r2 = c.run(&mut lac).unwrap();
        // The session grew by exactly each run's own counters: the second
        // run's delta equals what it meters alone on a fresh core.
        let mut alone = Lac::new(LacConfig::default());
        c.run(&mut alone).unwrap();
        assert_eq!(lac.session_stats().since(&s1), *alone.session_stats());
        let mut both = s1;
        both.merge(alone.session_stats());
        assert_eq!(*lac.session_stats(), both);
        g.check(&r1).unwrap();
        c.check(&r2).unwrap();
    }

    #[test]
    fn check_rejects_foreign_details() {
        let mut lac = Lac::new(LacConfig::default());
        let g = GemmWorkload::demo();
        let rep = g.run(&mut lac).unwrap();
        assert!(Fft64Workload::demo().check(&rep).is_err());
    }

    // A graph run keeps one report per job, so these sizes multiply.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn reports_stay_lean() {
        assert!(
            size_of::<Details>() <= 48,
            "Details is {} B (bound 48): box any new multi-field variant",
            size_of::<Details>()
        );
        assert!(
            size_of::<KernelReport>() <= 80,
            "KernelReport is {} B (bound 80): box any new multi-field Details variant",
            size_of::<KernelReport>()
        );
    }

    #[test]
    fn demo_values_are_deterministic_and_spread() {
        assert_eq!(demo_value(3, 5, 1), demo_value(3, 5, 1));
        assert_ne!(demo_value(3, 5, 1), demo_value(3, 5, 2));
        let spd = demo_spd(8, 3);
        assert!(cholesky(&spd).is_ok(), "demo SPD must factor");
        let l = demo_lower(8, 4);
        for i in 0..8 {
            assert!(l[(i, i)].abs() > 1.0, "diagonal bounded away from zero");
        }
    }
}
