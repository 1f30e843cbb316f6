#![warn(missing_docs)]
//! Cycle-accurate simulator of the Linear Algebra Core (LAC).
//!
//! The LAC (Figure 1.1 / 3.1 of the dissertation) is an `nr × nr` mesh of
//! Processing Elements. Each PE owns
//!
//! * a pipelined FMAC unit with a local accumulator (from [`lac_fpu`]),
//! * a larger **single-ported** SRAM for its share of the resident `A` block,
//! * a smaller **dual-ported** SRAM for the replicated `B` panel,
//! * a tiny register file,
//!
//! and talks to its row and column over **broadcast buses** (one word per bus
//! per cycle). Column buses are multiplexed with external-memory traffic.
//! Control is fully static — "each PE implicitly knows when and where to
//! communicate" (§3.2.3) — which we model by letting the kernel generators in
//! `lac-kernels` emit a [`Program`]: per cycle, the micro-ops of every PE
//! that is not idle. The simulator executes the program, *enforcing* the
//! structural limits of the hardware (bus writers, SRAM ports, MAC issue
//! width, accumulator read-after-write) and producing functional results plus
//! the event counts ([`ExecStats`]) the power model converts to energy.
//!
//! Any violation is a hard [`SimError`] carrying the offending cycle — a
//! mis-scheduled kernel cannot silently produce a wrong cycle count.

pub mod chip;
pub mod cluster;
pub mod compile;
pub mod config;
pub mod coord;
pub mod core;
pub mod dynamic;
pub mod error;
pub mod fault;
pub mod isa;
pub mod service;
pub mod stats;
pub mod trace;

pub use crate::core::{ExternalMem, Lac};
pub use chip::{ChipConfig, ChipJob, ChipStats, LacChip, ProgramJob, Scheduler};
pub use cluster::{
    ClusterConfig, ClusterRound, ClusterRun, ClusterSession, ClusterStats, LacCluster, Partition,
    Partitioner,
};
pub use compile::{compile, CacheStats, CompiledProgram, FallbackReason, ProgramCache};
pub use config::{ExecBackend, LacConfig};
pub use coord::SimMode;
pub use dynamic::{Continuation, Continue, DynamicGraph, DynamicOutcome};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan};
pub use isa::{
    CmpUpdate, ExtOp, MicroOp, PeInstr, PeMut, PeOps, Program, ProgramBuilder, Source, Step,
};
pub use service::{
    plan_wave, plan_wave_tenanted, Adjacency, GraphCompletion, GraphRun, GraphTicket, JobGraph,
    JobId, LacService, Rejected, ServiceRound, TenantConfig, TenantId, TenantSession,
};
pub use stats::ExecStats;
pub use trace::{EventLog, TraceEvent};

/// Former name of [`Lac`], kept only for `perfbench` (a crate outside
/// the workspace that still names it); no workspace code uses it.
pub type LacEngine = Lac;
