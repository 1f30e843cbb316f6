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
//! built and lowered once per program store, the [`lac_sim::ProgramCache`]
//! a cluster shares across its cores — see `docs/PERFORMANCE.md`.
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
        registry, registry_chip_config, Details, GemmDataLayout, GemmParams, IpddpFleet,
        IppmmWorkload, KernelReport, SolverJob, SolverLoopParams, SolverLoopWorkload,
        SyrkDataLayout, SyrkParams,
    };
    use lac_sim::{
        compile, CacheStats, ChipConfig, ChipJob, ClusterConfig, ExecStats, JobGraph, Lac,
        LacCluster, LacConfig, Program, Scheduler,
    };
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, counting each thread's live heap bytes so a
    /// test can read what one call leaves allocated (test threads run
    /// side by side, so the count is per thread).
    struct Counting;

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn count(bytes: isize) {
        let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so the caller's guarantees are the ones `System` needs and its
    // results are returned as they are; the count touches only a
    // thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size() as isize);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            count(-(layout.size() as isize));
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size as isize - layout.size() as isize);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

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
        assert!(first.tape_heap_bytes > 0 && first.entries > 0);
        assert_eq!(b.program_cache().stats(), CacheStats::default());
        // The second cluster builds and compiles every shape again; the
        // first cluster's store does not move.
        b.run_graph(&w.graph().graph, Scheduler::Fifo).unwrap();
        assert_eq!(a.program_cache().stats(), first);
        assert_eq!(b.program_cache().stats(), first);
    }

    #[test]
    fn compiled_tapes_carry_no_slack() {
        // Every table of the tape is exact-fit: what compiling leaves
        // allocated is the tape's `len × size_of` bytes, no more.
        let prog = syrk_panel_52();
        let before = LIVE.with(Cell::get);
        let cp = compile(&LacConfig::default(), &prog).unwrap();
        let held = LIVE.with(Cell::get) - before;
        assert!(cp.heap_bytes() > 100_000, "{} bytes", cp.heap_bytes());
        assert_eq!(held, cp.heap_bytes() as isize);
    }

    /// The outputs of `graph`'s jobs run standalone, in id order, on one
    /// fresh core, each with the session delta it metered.
    fn run_standalone<J: ChipJob<Output = KernelReport>>(
        graph: JobGraph<J>,
    ) -> Vec<(KernelReport, ExecStats)> {
        let mut lac = Lac::new(LacConfig::default());
        let mut g = JobGraph::new();
        g.append(graph)
            .into_iter()
            .map(|id| {
                let before = *lac.session_stats();
                let report = g.job(id).run_on(&mut lac).unwrap();
                (report, lac.session_stats().since(&before))
            })
            .collect()
    }

    #[test]
    fn report_heap_bytes_is_what_a_clone_allocates() {
        let cfg = registry_chip_config(LacConfig::default());
        let mut reports: Vec<KernelReport> = registry()
            .iter()
            .map(|w| w.run(&mut Lac::new(cfg)).unwrap())
            .collect();
        let ipm = run_standalone(IppmmWorkload::demo().dynamic().into_parts().0);
        let ddp = run_standalone(IpddpFleet::demo().dynamic().into_parts().0);
        reports.extend(ipm.into_iter().chain(ddp).map(|(r, _)| r));
        assert!(reports
            .iter()
            .any(|r| r.kernel == "ippmm-step" && matches!(r.details, Details::Ipm(_))));
        assert!(reports
            .iter()
            .any(|r| r.kernel == "ipddp-sweep" && matches!(r.details, Details::Ddp(_))));
        for r in &reports {
            let before = LIVE.with(Cell::get);
            let copy = r.clone();
            let held = LIVE.with(Cell::get) - before;
            drop(copy);
            let payload = r.heap_bytes() - std::mem::size_of::<KernelReport>();
            assert_eq!(held, payload as isize, "{}", r.kernel);
        }
    }

    /// `graph()` on a one-chip and on a two-chip cluster: the run's
    /// aggregate counters are the sum of what each job meters standalone.
    fn assert_metered_once<J: ChipJob<Output = KernelReport>>(graph: impl Fn() -> JobGraph<J>) {
        let mut standalone = ExecStats::default();
        for (_, delta) in run_standalone(graph()) {
            standalone.merge(&delta);
        }
        assert!(standalone.cycles > 0);
        for chips in [1, 2] {
            let cfg = ClusterConfig::homogeneous(chips, ChipConfig::new(2, LacConfig::default()));
            let mut cluster: LacCluster<J> = LacCluster::new(cfg);
            let run = cluster
                .run_graph(&graph(), Scheduler::CriticalPath)
                .unwrap();
            assert_eq!(run.stats.aggregate, standalone, "{chips} chip(s)");
        }
    }

    #[test]
    fn every_job_is_metered_exactly_once() {
        assert_metered_once(|| SolverLoopWorkload::demo().graph().graph);
        assert_metered_once(|| IppmmWorkload::demo().dynamic().into_parts().0);
        assert_metered_once(|| IpddpFleet::demo().dynamic().into_parts().0);
    }

    #[test]
    fn compact_syrk_panel_fits_in_0_5_mb() {
        // About 27k live micro-ops at 16 bytes each.
        let prog = syrk_panel_52();
        assert_eq!(prog.len(), 1937);
        assert!(prog.heap_bytes() <= 500_000, "{} bytes", prog.heap_bytes());
    }
}
