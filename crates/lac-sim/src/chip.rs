//! Chip-level simulation: a [`LacChip`] owns `S` [`LacEngine`] shards behind
//! a shared external-memory bandwidth budget (Chapter 4's multi-core LAP,
//! made executable), and [`ChipJob`]s are what runs on them.
//!
//! The analytical chip models in `lac-model` relate core count, on-chip
//! bandwidth and utilization; this module is their simulation counterpart.
//! Production clients of such a chip — e.g. interior-point solvers whose
//! iterations are chained Cholesky/TRSM/GEMM factorizations — submit
//! *dependency graphs* of jobs. A chip runs them only as a one-chip
//! cluster: [`crate::service::LacService::submit`] is the one-chip door
//! (with tenants and admission on top), and
//! [`crate::cluster::LacCluster::run_graph`] the N-chip one. Either way:
//!
//! * every shard is one [`LacEngine`] session (per-core architectural state
//!   and meters persist across graph runs);
//! * the chip's aggregate external bandwidth budget is partitioned across
//!   the shards (the paper's per-core `x = y/S` words/cycle share of the
//!   on-chip memory's `y`, with the division remainder spread over the
//!   first shards so the shares sum exactly to the budget), enforced per
//!   core by the simulator's [`LacConfig::ext_words_per_cycle`] hazard
//!   check;
//! * the coordinator ([`crate::coord`]) picks every job from deterministic
//!   cost hints under the [`Scheduler`] policy, one pick at a time off an
//!   index of the ready set, so a graph run is reproducible bit-for-bit no
//!   matter how the host threads interleave ([`crate::service::plan_wave`]
//!   is the whole-wave oracle those picks are property-tested against);
//! * each dispatch batch runs in parallel — the calling thread runs one
//!   core's share and a scoped worker each of the others, no work
//!   stealing — and the per-core [`ExecStats`] deltas are merged into a
//!   [`ChipStats`] with per-core breakdown, aggregate counters, and the
//!   makespan (dependency stalls included).
//!
//! Simulated time and host time are distinct: the makespan is the
//! simulated clock of the coordinator's event loop, which is independent
//! of host scheduling.

use crate::compile::ProgramCache;
use crate::config::LacConfig;
use crate::coord::SimMode;
use crate::engine::LacEngine;
use crate::error::SimError;
use crate::isa::Program;
use crate::stats::ExecStats;

/// One unit of schedulable work: a job knows how to run itself on a core's
/// engine and how expensive it roughly is (for load-aware placement).
pub trait ChipJob: Send + Sync {
    /// What the job produces (functional outputs plus per-run stats).
    type Output: Send;

    /// Estimated cost in arbitrary-but-consistent units (e.g. flops). Only
    /// the *relative* magnitudes matter, and only to the load-aware
    /// policies ([`Scheduler::LeastLoaded`], [`Scheduler::CriticalPath`]).
    /// Defaults to 1 (all jobs equal).
    fn cost_hint(&self) -> u64 {
        1
    }

    /// Estimated size of this job's output in words — what a dependent
    /// job placed on *another chip* must pull over the inter-chip link
    /// (see [`crate::cluster::LacCluster`]). Like [`ChipJob::cost_hint`]
    /// this is a deterministic modeling hint, not a measurement; it only
    /// prices cross-chip dependency edges. Defaults to 1 (a scalar
    /// handoff).
    fn transfer_words(&self) -> u64 {
        1
    }

    /// Execute on one core's engine. The core's counters meter whatever
    /// the job simulates; the coordinator reads the job's share off them.
    fn run_on(&self, eng: &mut LacEngine) -> Result<Self::Output, SimError>;
}

/// References dispatch like the jobs they point at — this is what lets a
/// borrowed queue run through an owned [`JobGraph`](crate::service::JobGraph).
impl<J: ChipJob + ?Sized> ChipJob for &J {
    type Output = J::Output;

    fn cost_hint(&self) -> u64 {
        (**self).cost_hint()
    }

    fn transfer_words(&self) -> u64 {
        (**self).transfer_words()
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<Self::Output, SimError> {
        (**self).run_on(eng)
    }
}

/// The simplest job: one [`Program`], optionally with a memory image staged
/// into the engine-owned bank first.
#[derive(Clone, Debug, Default)]
pub struct ProgramJob {
    /// The microprogram to execute.
    pub prog: Program,
    /// Replaces the shard's memory bank before the run when present.
    pub image: Option<Vec<f64>>,
    /// Cost reported to the scheduler ([`ChipJob::cost_hint`]).
    pub cost: u64,
}

impl ProgramJob {
    /// A job whose scheduler cost defaults to the program length.
    pub fn new(prog: Program) -> Self {
        let cost = prog.len() as u64;
        Self {
            prog,
            image: None,
            cost,
        }
    }

    /// Stage `image` into the shard's bank before the program runs.
    pub fn with_image(mut self, image: Vec<f64>) -> Self {
        self.image = Some(image);
        self
    }
}

impl ChipJob for ProgramJob {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        self.cost.max(1)
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<ExecStats, SimError> {
        if let Some(image) = &self.image {
            eng.load_image(image.clone());
        }
        eng.run_program(&self.prog)
    }
}

/// Job → core placement policy. Every pick is made from cost hints alone
/// (never host timing), so every policy is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Hand ready jobs to cores round-robin in submission order — the
    /// wave drains first-in-first-out with no load awareness.
    #[default]
    Fifo,
    /// Greedy list scheduling: each ready job (in submission order) goes
    /// to the core with the least accumulated estimated load, ties to the
    /// lowest core index. With accurate hints this approximates
    /// makespan-minimizing placement (LPT without the sort, keeping
    /// submission order).
    LeastLoaded,
    /// Critical-path-first list scheduling: ready jobs are served in
    /// descending order of their longest remaining cost-hint path through
    /// the graph (ties to the lower job id), each placed on the
    /// least-loaded core. Long dependency chains start as early as
    /// possible; on a flat queue the priority degenerates to the job's own
    /// cost, i.e. longest-processing-time-first.
    CriticalPath,
    /// Deficit-weighted fair sharing across tenants, the multi-tenant
    /// service's streaming policy: each wave dispatches at most one job
    /// per core (the streaming quantum), picking jobs whose tenant has the
    /// lowest accumulated cost-hint usage normalized by its weight (ties
    /// broken by critical-path priority, then job id — see
    /// [`crate::service::plan_wave_tenanted`]). Planned purely from cost
    /// hints and tenant deficits, so runs stay bit-deterministic. With a
    /// single tenant every deficit is equal and the pick order degenerates
    /// to [`Scheduler::CriticalPath`]'s, quantum by quantum.
    FairShare,
}

/// Static configuration of a chip: `S` identical cores behind one external
/// bandwidth budget.
#[derive(Clone, Copy, Debug)]
pub struct ChipConfig {
    /// Number of cores `S`.
    pub cores: usize,
    /// Per-core configuration (every shard is identical).
    pub core: LacConfig,
    /// Aggregate external-memory bandwidth budget in words/cycle across the
    /// whole chip, split across the cores (see
    /// [`ChipConfig::shard_bandwidth`]). `None` leaves the cores
    /// unconstrained.
    pub ext_words_per_cycle_total: Option<usize>,
    /// Which time model the coordinator runs graphs under: lock-step
    /// waves (the default, the compatibility mode) or eager event-driven
    /// dispatch (see [`crate::coord`]). Outputs are bit-identical either
    /// way; clocks may differ. Every chip of a cluster runs on one clock,
    /// so the chips of a [`crate::cluster::ClusterConfig`] must agree.
    pub sim_mode: SimMode,
}

impl ChipConfig {
    /// `cores` identical cores, no bandwidth cap, default bank size,
    /// wave coordination.
    pub fn new(cores: usize, core: LacConfig) -> Self {
        Self {
            cores,
            core,
            ext_words_per_cycle_total: None,
            sim_mode: SimMode::Wave,
        }
    }

    /// Set the aggregate bandwidth budget (words/cycle for the whole chip).
    pub fn with_bandwidth_budget(mut self, words_per_cycle: usize) -> Self {
        self.ext_words_per_cycle_total = Some(words_per_cycle);
        self
    }

    /// Select the time model ([`SimMode::Wave`] is the default).
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Shard `core`'s share of the budget, if one is set: `total / cores`
    /// words/cycle, with the division remainder handed out one word to
    /// each of the first `total % cores` shards — so the shares sum
    /// exactly to the budget instead of silently dropping up to
    /// `cores − 1` words/cycle. A budget smaller than the core count
    /// still grants each core one word/cycle (a core that can never talk
    /// to memory cannot run any kernel at all); only in that degenerate
    /// case may the sum exceed the budget.
    pub fn shard_bandwidth(&self, core: usize) -> Option<usize> {
        assert!(
            core < self.cores,
            "shard {core} of a {}-core chip",
            self.cores
        );
        self.ext_words_per_cycle_total.map(|total| {
            let base = total / self.cores;
            let extra = usize::from(core < total % self.cores);
            (base + extra).max(1)
        })
    }

    /// The effective configuration shard `core` is built with: the core
    /// config plus this chip's per-core bandwidth share (the tighter of
    /// the two when the core config already carries a cap).
    pub fn shard_config(&self, core: usize) -> LacConfig {
        let cap = match (self.shard_bandwidth(core), self.core.ext_words_per_cycle) {
            (Some(share), Some(own)) => Some(share.min(own)),
            (Some(share), None) => Some(share),
            (None, own) => own,
        };
        LacConfig {
            ext_words_per_cycle: cap,
            ..self.core
        }
    }

    /// The bandwidth split must conserve the budget: outside the
    /// one-word-minimum degenerate case, the shard shares sum exactly to
    /// the chip total. Checked whenever shards are built.
    pub(crate) fn assert_budget_conserved(&self) {
        if let Some(total) = self.ext_words_per_cycle_total {
            if total >= self.cores {
                let sum: usize = (0..self.cores)
                    .map(|c| self.shard_bandwidth(c).unwrap())
                    .sum();
                assert_eq!(
                    sum, total,
                    "bandwidth split dropped words: shards sum to {sum} of {total}"
                );
            }
        }
    }
}

/// Merged result of one graph run: per-core breakdown plus chip aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct ChipStats {
    /// Stats delta of each core over this run, in core order.
    pub per_core: Vec<ExecStats>,
    /// How many jobs each core ran.
    pub jobs_per_core: Vec<u64>,
    /// Simulated makespan: the sum over dependency waves of each wave's
    /// slowest bucket (for a flat queue: the slowest core's busy cycles).
    pub makespan_cycles: u64,
    /// Sum of every core's counters (cycles summed too — that is aggregate
    /// busy time, not wall time; wall time is the makespan).
    pub aggregate: ExecStats,
}

impl ChipStats {
    /// Total jobs dispatched in this run.
    pub fn jobs(&self) -> u64 {
        self.jobs_per_core.iter().sum()
    }

    /// Floating-point operations across all cores.
    pub fn flops(&self) -> u64 {
        self.aggregate.flops()
    }

    /// Whole-chip MAC-slot utilization: executed MACs against the peak of
    /// `S` cores over the makespan. Idle cores (dependency stalls, and the
    /// slack of cores that finish early) count against the chip, matching
    /// the paper's chip utilization axis.
    pub fn utilization(&self, nr: usize) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        let peak = self.makespan_cycles as f64 * self.per_core.len() as f64 * (nr * nr) as f64;
        (self.aggregate.mac_ops + self.aggregate.fma_ops) as f64 / peak
    }

    /// Aggregate external-memory traffic per makespan cycle (words/cycle
    /// demanded of the shared interface).
    pub fn ext_words_per_cycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        (self.aggregate.ext_reads + self.aggregate.ext_writes) as f64 / self.makespan_cycles as f64
    }

    /// Parallel speedup of this run against the same work on one core:
    /// aggregate busy cycles / makespan.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.aggregate.cycles as f64 / self.makespan_cycles as f64
    }
}

/// A multi-core chip: `S` [`LacEngine`] shards behind one bandwidth
/// budget, as [`crate::cluster::LacCluster::chip`] hands it out. Graphs
/// run on chips only through the cluster (a one-chip cluster is
/// [`crate::service::LacService`]); a chip itself only shows its shards,
/// whose session meters survive every run.
///
/// ```
/// use lac_sim::{ChipConfig, ClusterConfig, JobGraph, LacCluster, LacConfig};
/// use lac_sim::{ProgramBuilder, ProgramJob, Scheduler};
///
/// // One chip of two cores sharing a 8-words/cycle external budget.
/// let cfg = ChipConfig::new(2, LacConfig::default()).with_bandwidth_budget(8);
/// let mut cluster: LacCluster<ProgramJob> =
///     LacCluster::new(ClusterConfig::homogeneous(1, cfg));
///
/// // Four independent idle-loop jobs collect into a flat (edge-free) graph.
/// let graph: JobGraph<ProgramJob> = (1..=4)
///     .map(|i| {
///         let mut b = ProgramBuilder::new(LacConfig::default().nr);
///         b.idle(8 * i);
///         ProgramJob::new(b.build())
///     })
///     .collect();
/// let run = cluster.run_graph(&graph, Scheduler::LeastLoaded).unwrap();
///
/// let chip = cluster.chip(0);
/// assert_eq!(chip.num_cores(), 2);
/// assert_eq!(chip.shard(0).config().ext_words_per_cycle, Some(4));
/// let busy: u64 = (0..2).map(|i| chip.shard(i).cycles()).sum();
/// assert_eq!(busy, run.stats.aggregate.cycles);
/// ```
pub struct LacChip {
    shards: Vec<LacEngine>,
}

impl LacChip {
    /// Build every shard of `cfg` per [`ChipConfig::shard_config`], all
    /// joining the compile cache `cache`.
    pub(crate) fn new(cfg: &ChipConfig, cache: &ProgramCache) -> Self {
        assert!(cfg.cores >= 1, "a chip has at least one core");
        cfg.assert_budget_conserved();
        let shards = (0..cfg.cores)
            .map(|core| {
                LacEngine::builder()
                    .config(cfg.shard_config(core))
                    .program_cache(cache.clone())
                    .build()
            })
            .collect();
        Self { shards }
    }

    /// Number of cores (shards).
    pub fn num_cores(&self) -> usize {
        self.shards.len()
    }

    /// One shard's engine (per-core session meters survive graph runs).
    pub fn shard(&self, i: usize) -> &LacEngine {
        &self.shards[i]
    }

    /// Crate-internal: every shard at once — the cluster lends all of
    /// its chips' shards to one coordinated run.
    pub(crate) fn shards_mut(&mut self) -> &mut [LacEngine] {
        &mut self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, LacCluster};
    use crate::isa::{ExtOp, ProgramBuilder, Source};
    use crate::service::{plan_wave, JobGraph, LacService};

    /// The one-chip door: a service on `cores` default cores.
    fn service<J: ChipJob>(cores: usize) -> LacService<J> {
        LacService::new(ChipConfig::new(cores, LacConfig::default()))
    }

    /// A one-chip cluster, for tests that read the chip's shards.
    fn one_chip(cores: usize) -> LacCluster<ProgramJob> {
        LacCluster::new(ClusterConfig::homogeneous(
            1,
            ChipConfig::new(cores, LacConfig::default()),
        ))
    }

    /// A program that issues one MAC and `extra` idle cycles.
    fn job(extra: usize) -> ProgramJob {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + extra);
        ProgramJob::new(b.build())
    }

    #[test]
    fn fifo_round_robins_in_order() {
        let ready = [0, 1, 2, 3, 4];
        let costs = [1; 5];
        assert_eq!(
            plan_wave(Scheduler::Fifo, &ready, &costs, &costs, 2),
            vec![vec![0, 2, 4], vec![1, 3]]
        );
    }

    #[test]
    fn least_loaded_balances_uneven_costs() {
        let s = Scheduler::LeastLoaded;
        let ready = [0, 1, 2, 3];
        // Core 0 takes the heavy job, core 1 the rest.
        let costs = [10, 1, 1, 1];
        assert_eq!(
            plan_wave(s, &ready, &costs, &costs, 2),
            vec![vec![0], vec![1, 2, 3]]
        );
        // Zero-cost jobs still count as load (no core starves the others).
        let costs = [0; 4];
        assert_eq!(
            plan_wave(s, &ready, &costs, &costs, 2),
            vec![vec![0, 2], vec![1, 3]]
        );
    }

    #[test]
    fn critical_path_on_flat_queue_is_lpt() {
        // Longest job first, then greedy balance: 9→core0, 7→core1,
        // 5→core1 (7 < 9), 3→core0 (9 < 12).
        let costs = [3, 9, 5, 7];
        assert_eq!(
            plan_wave(Scheduler::CriticalPath, &[0, 1, 2, 3], &costs, &costs, 2),
            vec![vec![1, 0], vec![3, 2]]
        );
    }

    #[test]
    fn graph_outputs_in_submission_order_and_stats_merge() {
        let graph: JobGraph<ProgramJob> = (0..5).map(|i| job(4 * i)).collect();
        let mut cluster = one_chip(2);
        let run = cluster.run_graph(&graph, Scheduler::Fifo).unwrap();
        let stats = &run.stats.per_chip[0];
        assert_eq!(run.outputs.len(), 5);
        assert_eq!(stats.jobs(), 5);
        assert_eq!(run.waves, 1, "a flat graph is a single wave");
        // Outputs in submission order: cycle counts grow with the idle tail.
        for w in run.outputs.windows(2) {
            assert!(w[1].cycles > w[0].cycles);
        }
        // Aggregate equals the sum of per-core deltas.
        let mut sum = ExecStats::default();
        for s in &stats.per_core {
            sum.merge(s);
        }
        assert_eq!(sum, stats.aggregate);
        assert_eq!(stats.aggregate.mac_ops, 5);
        assert_eq!(
            stats.makespan_cycles,
            stats.per_core.iter().map(|s| s.cycles).max().unwrap()
        );
        // Shards keep their session meters (they are LacEngine sessions).
        let chip = cluster.chip(0);
        assert_eq!(
            chip.shard(0).cycles() + chip.shard(1).cycles(),
            stats.aggregate.cycles
        );
    }

    #[test]
    fn bandwidth_budget_splits_across_shards_without_remainder_loss() {
        let cfg = ChipConfig::new(4, LacConfig::default()).with_bandwidth_budget(16);
        assert_eq!(cfg.shard_bandwidth(0), Some(4));
        let chip = LacChip::new(&cfg, &ProgramCache::new());
        assert_eq!(chip.shard(0).config().ext_words_per_cycle, Some(4));
        // A non-divisible budget hands the remainder to the first shards
        // and conserves the total.
        let uneven = ChipConfig::new(4, LacConfig::default()).with_bandwidth_budget(18);
        let shares: Vec<usize> = (0..4).map(|c| uneven.shard_bandwidth(c).unwrap()).collect();
        assert_eq!(shares, vec![5, 5, 4, 4]);
        assert_eq!(shares.iter().sum::<usize>(), 18);
        let chip = LacChip::new(&uneven, &ProgramCache::new());
        assert_eq!(chip.shard(0).config().ext_words_per_cycle, Some(5));
        assert_eq!(chip.shard(3).config().ext_words_per_cycle, Some(4));
        // The tighter of chip share and an existing core cap wins.
        let capped = ChipConfig::new(
            2,
            LacConfig {
                ext_words_per_cycle: Some(2),
                ..Default::default()
            },
        )
        .with_bandwidth_budget(16);
        assert_eq!(capped.shard_config(0).ext_words_per_cycle, Some(2));
    }

    #[test]
    fn same_graph_same_results_under_every_policy() {
        let mut outs = Vec::new();
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
        ] {
            let graph: JobGraph<ProgramJob> = (0..6).map(job).collect();
            let run = service(3).submit(&graph, sched).unwrap();
            outs.push(run.outputs);
        }
        assert_eq!(outs[0], outs[1], "placement must not change results");
        assert_eq!(outs[1], outs[2], "placement must not change results");
    }

    /// A job that reads an undriven row bus — a hard SimError at cycle 0.
    fn bad_job() -> ProgramJob {
        let mut b = ProgramBuilder::new(LacConfig::default().nr);
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
        ProgramJob::new(b.build())
    }

    #[test]
    fn failing_job_aborts_graph_but_sessions_keep_metering() {
        // The bad job sits alone in wave 2, so wave 1 completes everywhere
        // before the failure — the partial metering is deterministic.
        let mut graph = JobGraph::new();
        let first = graph.add(job(0));
        graph.add_after(bad_job(), &[first]);
        graph.add(job(0));
        let mut cluster = one_chip(2);
        let err = cluster.run_graph(&graph, Scheduler::Fifo).unwrap_err();
        assert_eq!(err.cycle, 0, "the bad job fails on its first cycle");
        let chip = cluster.chip(0);
        // Partial work stays metered: Err means "graph incomplete", not
        // "nothing ran". Core 0 completed job 0 (the bad job errored out
        // mid-run, so it never counted); core 1 completed job 2.
        assert!(chip.shard(0).cycles() > 0);
        assert_eq!(chip.shard(0).programs_run(), 1);
        assert_eq!(chip.shard(1).programs_run(), 1);
    }

    #[test]
    fn peers_stop_at_the_next_job_boundary_after_a_failure() {
        // Same-wave failure: the bad job leads core 0's bucket, so core 0
        // skips its remaining jobs; core 1 stops wherever the abort flag
        // catches it (host-timing dependent, bounded by its bucket).
        let graph: JobGraph<ProgramJob> = vec![bad_job(), job(0), job(0), job(0), job(0)]
            .into_iter()
            .collect();
        let mut cluster = one_chip(2);
        let err = cluster.run_graph(&graph, Scheduler::Fifo).unwrap_err();
        assert_eq!(err.cycle, 0);
        let chip = cluster.chip(0);
        assert_eq!(
            chip.shard(0).programs_run(),
            0,
            "bucket skipped after the failure"
        );
        assert!(chip.shard(1).programs_run() <= 2);
    }

    #[test]
    fn single_core_chip_serializes() {
        let graph: JobGraph<ProgramJob> = (0..3).map(|_| job(0)).collect();
        let run = service(1).submit(&graph, Scheduler::LeastLoaded).unwrap();
        assert_eq!(run.stats.makespan_cycles, run.stats.aggregate.cycles);
        assert!((run.stats.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn borrowed_queue_collects_into_a_flat_graph() {
        // The `&J` forwarding impl is what lets a borrowed slice of jobs
        // collect into an owned flat graph — the shape the old queue door
        // used to wrap. It must stay bit-identical to the owned graph.
        let jobs: Vec<ProgramJob> = (0..7).map(|i| job(3 * i)).collect();
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
        ] {
            let borrowed: JobGraph<&ProgramJob> = jobs.iter().collect();
            let borrow_run = service(3).submit(&borrowed, sched).unwrap();
            let graph: JobGraph<ProgramJob> = jobs.iter().cloned().collect();
            let graph_run = service(3).submit(&graph, sched).unwrap();
            assert_eq!(borrow_run.outputs, graph_run.outputs);
            assert_eq!(borrow_run.assignment, graph_run.assignment);
            assert_eq!(borrow_run.stats, graph_run.stats);
        }
    }
}
