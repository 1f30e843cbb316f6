#![warn(missing_docs)]
//! Algorithm → architecture mappings for the Linear Algebra Core.
//!
//! Each module turns one of the dissertation's algorithms into LAC
//! microprograms and *drives* the cycle-accurate simulator with them,
//! mirroring the hardware's microprogrammed state machines. Data-dependent
//! control (LU's pivot selection) is resolved the way the hardware does it —
//! the driver inspects the comparator registers between program phases and
//! emits the next phase accordingly, while still paying every bus transfer
//! and compare cycle.
//!
//! Every kernel is exposed through the unified [`Workload`] trait and run
//! on a [`lac_sim::LacEngine`] session (see [`workload`]); [`registry`]
//! enumerates one canonical instance of each for data-driven harnesses.
//! Program generators are pure functions of the job *shape*, so each
//! distinct shape's program is built once and shared process-wide — see
//! `docs/PERFORMANCE.md` for how that feeds the simulator's compile
//! cache.
//!
//! All kernels are functionally verified against `linalg-ref` in their tests,
//! and their measured cycle counts are compared against the dissertation's
//! analytical estimates in `lac-model`'s validation suite.
//!
//! | Module | Dissertation section | Operation | Workloads |
//! |---|---|---|---|
//! | [`gemm`] | §3.1–3.4 | rank-1-update GEMM, C-prefetch overlap | [`GemmWorkload`] |
//! | [`syrk`] | §5.2 | SYRK with bus-transpose | [`SyrkWorkload`] |
//! | [`trsm`] | §5.3 | stacked TRSM + blocked driver | [`TrsmStackedWorkload`], [`BlockedTrsmWorkload`] |
//! | [`trmm`] | §5.1 | TRMM as growing-panel GEMMs | [`TrmmWorkload`] |
//! | [`symm`] | §5.1 | SYMM with transposed-block recovery | [`SymmWorkload`] |
//! | [`chol`] | §6.1.1 | nr×nr Cholesky kernel + blocked driver | [`CholKernelWorkload`], [`BlockedCholWorkload`] |
//! | [`lu`] | §6.1.2 | panel LU with partial pivoting | [`LuPanelWorkload`], [`BlockedLuWorkload`] |
//! | [`qr`] | §6.1.3 | Householder QR panel | [`QrPanelWorkload`] |
//! | [`vecnorm`] | §6.1.3 | vector norm with/without MAC extensions | [`VecnormWorkload`] |
//! | [`fft`] | §6.2 / App. B | 64-point radix-4 FFT on the core | [`Fft64Workload`] |

pub mod chol;
pub mod fft;
pub mod gemm;
pub mod ipddp;
pub mod ippmm;
pub mod layout;
pub mod lu;
mod memo;
pub mod qr;
pub mod solver;
pub mod symm;
pub mod syrk;
pub mod trmm;
pub mod trsm;
pub mod vecnorm;
pub mod workload;

pub use chol::CholReport;
pub use fft::Fft64Report;
pub use gemm::{gemm_program, GemmParams, GemmReport};
pub use ipddp::{DdpJob, DdpReference, IpddpFleet, IpddpParams};
pub use ippmm::{IpmJob, IpmReference, IppmmParams, IppmmWorkload};
pub use layout::{ALayout, GemmDataLayout};
pub use lu::{pack_to_factors, LuOptions, LuReport};
pub use memo::{memo_totals, MemoTotals};
pub use qr::QrPanelReport;
pub use solver::{
    SolverFleet, SolverGraph, SolverJob, SolverLoopParams, SolverLoopWorkload, SolverReference,
    SolverStream,
};
pub use syrk::{SyrkDataLayout, SyrkParams, SyrkReport};
pub use trsm::TrsmReport;
pub use vecnorm::{VnormOptions, VnormReport};
pub use workload::{
    registry, registry_chip_config, registry_sized, BlockedCholWorkload, BlockedLuWorkload,
    BlockedTrsmWorkload, CholKernelWorkload, DdpDetails, Details, Fft64Workload, GemmWorkload,
    IpmDetails, KernelReport, LuDetails, LuPanelWorkload, ProblemSize, QrDetails, QrPanelWorkload,
    SolverDetails, SymmWorkload, SyrkWorkload, TrmmWorkload, TrsmStackedWorkload, VecnormWorkload,
    Workload,
};
