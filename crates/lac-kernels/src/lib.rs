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
//! on a [`lac_sim::Lac`] core (see [`workload`]); [`registry`]
//! enumerates one canonical instance of each for data-driven harnesses.
//! Each kernel module states its external-memory layout once, in one
//! crate-private staging function that takes matrices, packs them into
//! a private bank, runs on the core and returns the output with
//! its [`lac_sim::ExecStats`]. Workloads, the blocked drivers and the
//! solver, IP-PMM and IPDDP graph jobs all go through those functions,
//! and one assembler turns every result into a [`KernelReport`].
//! Program generators are pure functions of the job *shape*, so the
//! shape-pure kernels (GEMM, SYRK, stacked TRSM, the Cholesky tile) run
//! through [`lac_sim::Lac::run_kernel`]: each distinct shape's program is
//! built once per program store, the [`lac_sim::ProgramCache`] a cluster
//! shares across its cores — see `docs/PERFORMANCE.md`.
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
pub mod qr;
pub mod solver;
pub mod symm;
pub mod syrk;
pub mod trmm;
pub mod trsm;
pub mod vecnorm;
pub mod workload;

pub use gemm::{gemm_program, GemmParams};
pub use ipddp::{DdpJob, DdpReference, IpddpFleet, IpddpParams};
pub use ippmm::{IpmJob, IpmReference, IppmmParams, IppmmWorkload};
pub use layout::{ALayout, GemmDataLayout};
pub use lu::{pack_to_factors, LuOptions};
pub use solver::{
    SolverFleet, SolverGraph, SolverJob, SolverLoopParams, SolverLoopWorkload, SolverReference,
    SolverStream,
};
pub use syrk::{SyrkDataLayout, SyrkParams};
pub use vecnorm::VnormOptions;
pub use workload::{
    registry, registry_chip_config, registry_sized, BlockedCholWorkload, BlockedLuWorkload,
    BlockedTrsmWorkload, CholKernelWorkload, DdpDetails, Details, Fft64Workload, GemmWorkload,
    IpmDetails, KernelReport, LuDetails, LuPanelWorkload, ProblemSize, QrDetails, QrPanelWorkload,
    SolverDetails, SymmWorkload, SyrkWorkload, TrmmWorkload, TrsmStackedWorkload, VecnormWorkload,
    Workload,
};

#[cfg(test)]
mod tests {
    use crate::{
        GemmDataLayout, GemmParams, SolverJob, SolverLoopParams, SolverLoopWorkload,
        SyrkDataLayout, SyrkParams,
    };
    use lac_sim::{
        CacheStats, ChipConfig, ClusterConfig, LacCluster, LacConfig, Program, Scheduler,
    };

    /// The solver's SYRK panel update at n = 52, kc = 8 (default `nr = 4`,
    /// `p = 5`): the largest shape the solver workloads build.
    fn syrk_panel_52() -> Program {
        let lay = SyrkDataLayout::new(52, 8);
        crate::syrk::syrk_program(4, 5, &lay, &SyrkParams::new(52, 8))
    }

    #[test]
    fn structural_hashes_are_pinned() {
        // Recorded from the dense (one `PeInstr` per PE per cycle) store;
        // the packed store must hash exactly what it hashed.
        let cases = [
            (
                "chol [4, 5, 13]",
                crate::chol::cholesky_kernel_program(4, 5, 13),
                0x7172366367f08942bc414a8b06b67196,
            ),
            (
                "trsm-stacked m = 12",
                crate::trsm::trsm_stacked_program(4, 5, 13, 12),
                0x3099298b69090d2f586aadaa44c8ebcf,
            ),
            (
                "syrk n = 52, kc = 8",
                syrk_panel_52(),
                0xf8c61d59b6f48753d817ed4e6dc0338a,
            ),
            (
                "gemm 16 x 16 x 16",
                crate::gemm_program(
                    4,
                    5,
                    &GemmDataLayout::new(16, 16, 16),
                    &GemmParams::new(16, 16, 16),
                ),
                0x3d9fc61891b54dd0a549898c45b242ca,
            ),
        ];
        for (name, prog, pin) in cases {
            assert_eq!(prog.structural_hash(), pin, "{name}");
        }
    }

    #[test]
    fn two_clusters_share_no_programs() {
        let w = SolverLoopWorkload::new(SolverLoopParams::default());
        let cfg = ClusterConfig::homogeneous(1, ChipConfig::new(1, LacConfig::default()));
        let mut a: LacCluster<SolverJob> = LacCluster::new(cfg.clone());
        let mut b: LacCluster<SolverJob> = LacCluster::new(cfg);
        a.run_graph(&w.graph().graph, Scheduler::Fifo).unwrap();
        let first = a.program_cache().stats();
        assert!(first.programs > 0 && first.entries > 0);
        assert_eq!(b.program_cache().stats(), CacheStats::default());
        // The second cluster builds and compiles every shape again; the
        // first cluster's store does not move.
        b.run_graph(&w.graph().graph, Scheduler::Fifo).unwrap();
        assert_eq!(a.program_cache().stats(), first);
        assert_eq!(b.program_cache().stats(), first);
    }

    #[test]
    fn compact_syrk_panel_fits_in_0_5_mb() {
        // About 27k live micro-ops at 16 bytes each.
        let prog = syrk_panel_52();
        assert_eq!(prog.len(), 1937);
        assert!(prog.heap_bytes() <= 500_000, "{} bytes", prog.heap_bytes());
    }
}
