//! Multi-chip sharded deployment: a [`LacCluster`] shards [`JobGraph`]s
//! across N [`LacChip`]s with explicitly modeled inter-chip transfer
//! costs — the next rung above the single-chip [`crate::service`] layer
//! on the road from one core to a datacenter-scale fleet.
//!
//! The single-chip layers assume every dependency edge is free: a child
//! job reads its parents' outputs out of the same on-chip memory. Once a
//! graph no longer fits one chip, that assumption breaks — a dependency
//! whose endpoints land on *different* chips must move its payload over a
//! chip-to-chip link that is orders of magnitude narrower than the
//! on-chip fabric. This is the same decomposition-with-communication
//! trade-off that drives blocked-panel scheduling inside one core (the
//! source dissertation's Chapter 4) and round-structured interior-point
//! workloads across nodes (PAPERS.md: IP-PMM, interior-point DDP): *where
//! you cut the graph decides how much you pay in transfers.*
//!
//! The module has three pieces:
//!
//! * **[`ClusterConfig`]** — N per-chip [`ChipConfig`]s (chips may differ
//!   in core count and bandwidth budget) plus the inter-chip link model:
//!   a bandwidth in words/cycle and a fixed per-hop latency. A cross-chip
//!   edge carrying `w` words holds its link for `⌈w / link_bandwidth⌉`
//!   simulated cycles and arrives `hop_latency` cycles after that (the
//!   coordinator charges each cut edge once).
//! * **[`Partitioner`]** — the deterministic graph partitioner. The
//!   default [`Partitioner::CostBins`] keeps weakly-connected components
//!   whole (a component's internal edges never pay transfer cost) and
//!   greedily bin-packs components onto chips in descending cost-hint
//!   order; [`Partitioner::Striped`] scatters individual jobs round-robin
//!   and exists to stress the transfer model. Partitioning is a pure
//!   function of the graph's cost hints and edges — never of host timing
//!   — which is what keeps cluster runs reproducible bit-for-bit.
//! * **[`LacCluster`]** — owns the chips and coordinates execution
//!   through the same timing loop as the chip layer (in wave mode each
//!   chip deals its ready set exactly as [`crate::plan_wave`] plans it),
//!   plus transfer-aware readiness: a child whose parent completed on another
//!   chip becomes ready only after the modeled transfer elapses on the
//!   simulated clock. When every core would idle waiting on a link, the
//!   clock jumps to the next transfer arrival and the gap is accounted as
//!   [`ClusterStats::transfer_stall_cycles`].
//!
//! With one chip there are no cross-chip edges and every transfer charge
//! vanishes: an N=1 cluster is the one-chip door, and
//! [`crate::service::LacService::submit`] is its [`LacCluster::run_graph`]
//! projected onto that chip, outputs and stats both (a property-tested
//! invariant, see `tests/cluster_props.rs`).
//!
//! The cluster is also the stack's one multi-tenant front door
//! ([`crate::service::LacService`] is this door on a one-chip cluster):
//! tenants registered with [`LacCluster::add_tenant`] hold *cluster-wide*
//! admission budgets ([`LacCluster::enqueue`] charges the same cost-hint
//! currency whether the graph later lands on one chip or five), and
//! [`LacCluster::run_admitted`] appends every admitted graph into one
//! [`JobGraph`], partitions it, and interleaves it across all chips
//! under the chosen [`Scheduler`] policy.
//!
//! Energy: feed a run's [`ClusterStats`] to
//! `lac_power::ClusterEnergyModel`, which prices each chip with the
//! per-chip model over the shared cluster wall clock and adds the
//! interconnect's per-word and static link energy on top.

use crate::chip::{ChipConfig, ChipJob, ChipStats, LacChip, Scheduler};
use crate::compile::ProgramCache;
use crate::coord::{coordinate, Hints, Plan, SimMode, TenantDelta, Topology};
use crate::error::{HazardKind, SimError};
use crate::fault::FaultPlan;
use crate::service::{
    cap_banked_credit, Adjacency, GraphCompletion, GraphTicket, JobGraph, JobId, PendingGraph,
    Rejected, TenantConfig, TenantId, TenantSession,
};
use crate::stats::ExecStats;
use crate::trace::EventLog;
use std::mem::take;

/// Static configuration of a cluster: N chips plus the inter-chip link
/// model. The time model is the chips' [`ChipConfig::sim_mode`], which
/// every chip must share ([`ClusterConfig::with_sim_mode`] sets them all).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-chip configurations, in chip-id order. Chips may differ in
    /// core count and bandwidth budget, but not in time model.
    pub chips: Vec<ChipConfig>,
    /// Inter-chip link bandwidth in words per simulated cycle. Every
    /// cross-chip dependency edge serializes its payload through this
    /// rate. In [`SimMode::Wave`] links are contention-free (each transfer
    /// sees the full bandwidth); in [`SimMode::Event`] transfers on one
    /// directed link queue behind each other.
    pub link_words_per_cycle: u64,
    /// Fixed latency of one chip-to-chip hop, in simulated cycles, paid
    /// by every cross-chip edge regardless of payload size.
    pub hop_latency_cycles: u64,
}

impl ClusterConfig {
    /// A cluster of `chips` identical chips with the default link model
    /// (4 words/cycle, 200-cycle hop — a PCIe-class link next to an
    /// on-chip fabric). The time model is inherited from the chip
    /// config.
    pub fn homogeneous(chips: usize, chip: ChipConfig) -> Self {
        assert!(chips >= 1, "a cluster has at least one chip");
        Self {
            chips: vec![chip; chips],
            link_words_per_cycle: 4,
            hop_latency_cycles: 200,
        }
    }

    /// Override the inter-chip link model.
    pub fn with_link(mut self, words_per_cycle: u64, hop_latency_cycles: u64) -> Self {
        assert!(words_per_cycle >= 1, "a link moves at least one word/cycle");
        self.link_words_per_cycle = words_per_cycle;
        self.hop_latency_cycles = hop_latency_cycles;
        self
    }

    /// Select every chip's time model ([`SimMode::Wave`] is the
    /// default): lock-step waves or eager event-driven dispatch (see
    /// [`crate::coord`]), which overlaps cut-edge transfers with compute
    /// and models per-link contention. Outputs are bit-identical either
    /// way; clocks may differ.
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        for chip in &mut self.chips {
            chip.sim_mode = mode;
        }
        self
    }

    /// Number of chips in the cluster.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Total cores across every chip.
    pub fn total_cores(&self) -> usize {
        self.chips.iter().map(|c| c.cores).sum()
    }

    /// The cluster as a coordinator topology: its chips' core counts, the
    /// link model and the chips' shared time model.
    pub(crate) fn topology(&self) -> Topology {
        Topology {
            cores_per_chip: self.chips.iter().map(|c| c.cores).collect(),
            link_words_per_cycle: self.link_words_per_cycle,
            hop_latency_cycles: self.hop_latency_cycles,
            mode: self.chips[0].sim_mode,
        }
    }
}

/// Deterministic job → chip placement policies. Like the wave planners,
/// partitioning is a pure function of the graph (cost hints + edges), so
/// reruns shard identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partitioner {
    /// Component-aware cost bins (the default): the graph's
    /// weakly-connected components are kept whole — internal edges never
    /// pay transfer cost — and greedily bin-packed onto the least-loaded
    /// chip in descending total-cost order (ties: lower smallest job id,
    /// then lower chip index). Independent submissions (e.g. a fleet of
    /// solver loops fused by [`JobGraph::append`]) shard with *zero*
    /// cross-chip edges; a single connected graph lands whole on one
    /// chip rather than paying links for nothing.
    #[default]
    CostBins,
    /// Stripe individual jobs round-robin by job id, ignoring edges —
    /// maximal cross-chip traffic. Exists to exercise and stress the
    /// transfer model (every inter-chip edge pays), not for production
    /// placement.
    Striped,
}

/// The partitioner's verdict for one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `chip_of[j]` — the chip that runs job `j` (by submission index).
    pub chip_of: Vec<usize>,
    /// Every dependency edge whose endpoints landed on different chips,
    /// as `(parent, child)` in child-id order (the order the edges were
    /// added for equal children). Each of these is charged exactly one
    /// [`TraceEvent::Transfer`](crate::trace::TraceEvent::Transfer) when
    /// its parent completes.
    pub cut_edges: Vec<(JobId, JobId)>,
    /// Total cost hint placed on each chip (the bin-packing load).
    pub chip_cost: Vec<u64>,
}

impl Partitioner {
    /// Shard `graph` across `chips` chips. Pure and deterministic: the
    /// same graph always produces the same partition.
    pub fn partition<J: ChipJob>(self, graph: &JobGraph<J>, chips: usize) -> Partition {
        let costs: Vec<u64> = graph.jobs.iter().map(|j| j.cost_hint().max(1)).collect();
        partition_costs(self, &costs, &graph.parents, chips)
    }
}

/// The partitioner over raw cost and parent slices (shared by the public
/// [`Partitioner::partition`] door and every cluster run).
pub(crate) fn partition_costs(
    p: Partitioner,
    costs: &[u64],
    parents: &Adjacency,
    chips: usize,
) -> Partition {
    assert!(chips >= 1, "a cluster has at least one chip");
    let n = costs.len();
    if chips == 1 {
        // Every job on chip 0, no edge cut: no components to find.
        return Partition {
            chip_of: vec![0; n],
            cut_edges: Vec::new(),
            chip_cost: vec![costs.iter().sum()],
        };
    }
    let mut chip_of = vec![0usize; n];
    match p {
        Partitioner::Striped => {
            for (j, c) in chip_of.iter_mut().enumerate() {
                *c = j % chips;
            }
        }
        Partitioner::CostBins => {
            // Union-find over the undirected edges: weakly-connected
            // components, root = smallest member id (path compression
            // with union-by-min keeps that invariant).
            let mut root: Vec<usize> = (0..n).collect();
            fn find(root: &mut [usize], mut j: usize) -> usize {
                while root[j] != j {
                    root[j] = root[root[j]];
                    j = root[j];
                }
                j
            }
            for (child, ps) in parents.rows().enumerate() {
                for &parent in ps {
                    let (a, b) = (find(&mut root, parent), find(&mut root, child));
                    let (lo, hi) = (a.min(b), a.max(b));
                    root[hi] = lo;
                }
            }
            // Components in id order: (total cost, members).
            let mut comp_cost = vec![0u64; n];
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, &cost) in costs.iter().enumerate() {
                let r = find(&mut root, j);
                comp_cost[r] += cost;
                members[r].push(j);
            }
            // Greedy bin packing: heaviest component first (ties to the
            // smaller root id), onto the least-loaded chip (ties to the
            // lower chip index).
            let mut comps: Vec<usize> = (0..n).filter(|&r| !members[r].is_empty()).collect();
            comps.sort_by_key(|&r| (std::cmp::Reverse(comp_cost[r]), r));
            let mut load = vec![0u64; chips];
            for r in comps {
                let chip = (0..chips).min_by_key(|&c| (load[c], c)).unwrap();
                load[chip] += comp_cost[r];
                for &j in &members[r] {
                    chip_of[j] = chip;
                }
            }
        }
    }
    let mut chip_cost = vec![0u64; chips];
    for j in 0..n {
        chip_cost[chip_of[j]] += costs[j];
    }
    let cut_edges = parents
        .rows()
        .enumerate()
        .flat_map(|(child, ps)| ps.iter().map(move |&parent| (parent, child)))
        .filter(|&(p, c)| chip_of[p] != chip_of[c])
        .map(|(p, c)| (JobId::from_index(p), JobId::from_index(c)))
        .collect();
    Partition {
        chip_of,
        cut_edges,
        chip_cost,
    }
}

/// Merged result of one cluster run: per-chip [`ChipStats`] plus the
/// interconnect traffic — the shape `lac_power::ClusterEnergyModel`
/// prices.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterStats {
    /// Each chip's stats delta over this run, in chip order. Every chip's
    /// `makespan_cycles` is the *cluster* makespan — chips power through
    /// the whole run whether or not their cores are busy.
    pub per_chip: Vec<ChipStats>,
    /// Simulated cluster makespan: wave spans plus transfer stalls.
    pub makespan_cycles: u64,
    /// Words moved across inter-chip links (sum over the log's
    /// [`EventLog::transfer_events`]).
    pub transferred_words: u64,
    /// Modeled link cycles charged across all transfers (latency-side
    /// total; overlapping transfers each count in full).
    pub transfer_cycles: u64,
    /// Cycles the simulated clock advanced with *every* core idle,
    /// waiting on in-flight transfers — the makespan share the
    /// interconnect alone is responsible for.
    pub transfer_stall_cycles: u64,
    /// Sum of every core's counters on every chip.
    pub aggregate: ExecStats,
}

impl ClusterStats {
    /// Total jobs dispatched in this run.
    pub fn jobs(&self) -> u64 {
        self.per_chip.iter().map(|c| c.jobs()).sum()
    }

    /// Floating-point operations across the whole cluster.
    pub fn flops(&self) -> u64 {
        self.aggregate.flops()
    }

    /// Total cores across every chip.
    pub fn total_cores(&self) -> usize {
        self.per_chip.iter().map(|c| c.per_core.len()).sum()
    }

    /// Cluster-wide MAC-slot utilization: executed MACs against the peak
    /// of every core on every chip over the cluster makespan. Transfer
    /// stalls count against the cluster, exactly as dependency stalls
    /// count against a chip.
    pub fn utilization(&self, nr: usize) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        let peak = self.makespan_cycles as f64 * self.total_cores() as f64 * (nr * nr) as f64;
        (self.aggregate.mac_ops + self.aggregate.fma_ops) as f64 / peak
    }

    /// Parallel speedup of this run against the same work serialized on
    /// one core: aggregate busy cycles / makespan.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.aggregate.cycles as f64 / self.makespan_cycles as f64
    }
}

/// Everything one cluster graph run produces.
#[derive(Clone, Debug)]
pub struct ClusterRun<T> {
    /// One output per job, indexed by [`JobId::index`] (submission
    /// order) — placement never changes outputs.
    pub outputs: Vec<T>,
    /// How the partitioner sharded the graph.
    pub partition: Partition,
    /// Which `(chip, core-within-chip)` ran each job.
    pub assignment: Vec<(usize, usize)>,
    /// Which dependency wave (0-based) dispatched each job.
    pub wave_of: Vec<usize>,
    /// Dependency waves the run took (transfer-stall gaps between waves
    /// are not waves — no job dispatches during a stall).
    pub waves: usize,
    /// Shared simulated clock at the end of each wave, relative to the
    /// start of the run (transfer-stall fast-forwards that precede a wave
    /// are included in its end clock).
    pub wave_end_cycles: Vec<u64>,
    /// Per chip, per core: simulated cycles spent idle (wave imbalance,
    /// dependency stalls, and transfer stalls). `busy + idle = makespan`
    /// for every core.
    pub idle_per_core: Vec<Vec<u64>>,
    /// Per-chip and cluster-wide meters.
    pub stats: ClusterStats,
    /// The run's observability log: job spans, transfers, faults,
    /// requeues and idle fast-forwards, on the run-relative simulated
    /// clock (export with [`EventLog::to_chrome_trace`]). It is the one
    /// record of every cross-chip payload movement
    /// ([`EventLog::transfer_events`]): one per cut edge, exactly, on the
    /// fault-free path; a fault's requeue may re-charge an edge to move a
    /// durable output to a job's new home.
    pub events: EventLog,
    /// Bytes the coordinator's bookkeeping reserved for this run
    /// (`capacity × size_of`): its per-job table, its ready index and
    /// `events`. Exact on every host.
    pub coord_heap_bytes: usize,
}

/// Everything one multi-tenant cluster round produces: per-graph
/// completions in admission order plus the round-wide schedule meters
/// (the cluster counterpart of [`crate::service::ServiceRound`]).
#[derive(Clone, Debug)]
pub struct ClusterRound<T> {
    /// Completed graphs, in admission (ticket) order. Each completion's
    /// `assignment` holds *global* core indices (chips laid end to end in
    /// chip order).
    pub graphs: Vec<GraphCompletion<T>>,
    /// How the partitioner sharded the fused round pool (`chip_of` is
    /// indexed by fused job id, i.e. graphs laid end to end in admission
    /// order).
    pub partition: Partition,
    /// Dependency waves the interleaved round took.
    pub waves: usize,
    /// Shared simulated clock at the end of each wave, relative to the
    /// start of the round: a graph completes at
    /// `wave_end_cycles[max(wave_of)]` past the round's start — the
    /// sojourn-time anchor the open-loop traffic layer reads.
    pub wave_end_cycles: Vec<u64>,
    /// Per chip, per core: simulated cycles spent idle (see
    /// [`ClusterRun::idle_per_core`]).
    pub idle_per_core: Vec<Vec<u64>>,
    /// Per-chip and cluster-wide meters.
    pub stats: ClusterStats,
    /// The round's observability log, on the round-relative simulated
    /// clock (the open-loop driver rebases and merges these — see
    /// [`EventLog::shift`]).
    pub events: EventLog,
    /// Bytes the coordinator's bookkeeping reserved for the round (see
    /// [`ClusterRun::coord_heap_bytes`]).
    pub coord_heap_bytes: usize,
}

/// Lifetime meters of a [`LacCluster`] (and so of a
/// [`crate::service::LacService`], its one-chip front), accumulated
/// across every completed run since construction. A failed run folds
/// nothing in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterSession {
    /// The cluster clock: completed runs' makespans summed, plus explicit
    /// [`LacCluster::advance_idle`] gaps between rounds. Every core is
    /// considered powered for the whole clock, so static/uncore energy
    /// accrues over it.
    pub clock_cycles: u64,
    /// Completed graph submissions (a round counts every admitted graph).
    pub graphs_run: u64,
    /// Inter-chip words moved over the lifetime.
    pub transferred_words: u64,
    /// Modeled link cycles charged over the lifetime.
    pub transfer_cycles: u64,
    /// Busy stats per global core (chips laid end to end in chip order),
    /// summed over completed runs.
    pub per_core: Vec<ExecStats>,
    /// Jobs each global core ran over completed runs.
    pub jobs_per_core: Vec<u64>,
}

impl ClusterSession {
    /// Jobs completed over the lifetime.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_per_core.iter().sum()
    }

    /// The session as one [`ChipStats`] over every global core whose
    /// makespan is the cluster clock — for a one-chip cluster, feed this
    /// to `lac_power::ChipEnergyModel` to price the whole lifetime,
    /// dependency stalls and between-batch idle included.
    pub fn chip_stats(&self) -> ChipStats {
        let mut aggregate = ExecStats::default();
        for s in &self.per_core {
            aggregate.merge(s);
        }
        ChipStats {
            per_core: self.per_core.clone(),
            jobs_per_core: self.jobs_per_core.clone(),
            makespan_cycles: self.clock_cycles,
            aggregate,
        }
    }
}

/// A multi-chip deployment: N [`LacChip`]s behind one deterministic
/// partition-and-coordinate front door, with cluster-wide multi-tenant
/// admission.
///
/// A cluster borrows the calling thread per run, plus a scoped worker for
/// each other core a multi-core dispatch batch needs (a 1-core cluster
/// never leaves the calling thread); every core's
/// [`crate::Lac`] is lent to the run for its duration.
/// Shard state and session meters persist across runs — the chips are
/// owned, not rebuilt.
///
/// ```
/// use lac_sim::{ChipConfig, ClusterConfig, JobGraph, LacCluster, LacConfig, Scheduler};
/// use lac_sim::{ProgramJob, ProgramBuilder};
///
/// // Two 2-core chips joined by a 4-words/cycle, 200-cycle-hop link.
/// let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
/// let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
///
/// // Two independent 1-job graphs fused into one submission: the
/// // CostBins partitioner gives each component its own chip.
/// let mut graph = JobGraph::new();
/// for _ in 0..2 {
///     let mut b = ProgramBuilder::new(LacConfig::default().nr);
///     b.idle(8);
///     graph.add(ProgramJob::new(b.build()));
/// }
/// let run = cluster.run_graph(&graph, Scheduler::CriticalPath).unwrap();
/// assert_eq!(run.outputs.len(), 2);
/// assert_eq!(run.partition.chip_of, vec![0, 1]);
/// assert_eq!(run.events.transfer_events().count(), 0, "no edges were cut");
/// ```
pub struct LacCluster<J: ChipJob> {
    cfg: ClusterConfig,
    partitioner: Partitioner,
    chips: Vec<LacChip>,
    tenants: Vec<(TenantConfig, TenantSession)>,
    pending: Vec<PendingGraph<J>>,
    next_seq: u64,
    session: ClusterSession,
    fault_plan: FaultPlan,
    dead: Vec<bool>,
    program_cache: ProgramCache,
}

impl<J: ChipJob> LacCluster<J> {
    /// Build every chip of `cfg` (each chip's bandwidth budget splits
    /// across its cores per [`ChipConfig::shard_config`]) with the
    /// default [`Partitioner::CostBins`]. Every core of every chip joins
    /// one cluster-wide compile cache, so a program replicated across the
    /// whole fleet compiles once (see [`LacCluster::program_cache`]).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.chips.is_empty(), "a cluster has at least one chip");
        assert!(
            cfg.chips
                .iter()
                .all(|c| c.sim_mode == cfg.chips[0].sim_mode),
            "every chip of a cluster runs one time model"
        );
        let program_cache = ProgramCache::new();
        let chips: Vec<LacChip> = cfg
            .chips
            .iter()
            .map(|c| LacChip::new(c, &program_cache))
            .collect();
        let dead = vec![false; chips.len()];
        let cores = cfg.total_cores();
        Self {
            cfg,
            partitioner: Partitioner::CostBins,
            chips,
            tenants: Vec::new(),
            pending: Vec::new(),
            next_seq: 0,
            session: ClusterSession {
                per_core: vec![ExecStats::default(); cores],
                jobs_per_core: vec![0; cores],
                ..ClusterSession::default()
            },
            fault_plan: FaultPlan::new(),
            dead,
            program_cache,
        }
    }

    /// The compile cache shared by every core of every chip.
    pub fn program_cache(&self) -> &ProgramCache {
        &self.program_cache
    }

    /// Override the placement policy (see [`Partitioner`]).
    pub fn with_partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Install a fault-injection schedule, builder-style (see
    /// [`LacCluster::inject_faults`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inject_faults(plan);
        self
    }

    /// Merge `plan`'s scheduled kills into the cluster's fault plan.
    /// Ticks are on the session clock ([`ClusterSession::clock_cycles`]);
    /// each kill fires at its exact tick in [`SimMode::Event`] and at the
    /// first wave barrier at or after it in [`SimMode::Wave`] (a tick
    /// already past fires when the next run starts), and persists — a
    /// dead chip stays dead across rounds. See [`FaultPlan`] for the full
    /// fault model.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        for k in plan.kills() {
            assert!(
                k.chip < self.chips.len(),
                "fault plan kills chip {} of a {}-chip cluster",
                k.chip,
                self.chips.len()
            );
        }
        self.fault_plan.merge(plan);
    }

    /// The installed fault schedule (applied kills included).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Which chips have died so far, by chip index.
    pub fn dead_chips(&self) -> &[bool] {
        &self.dead
    }

    /// Chips still alive (new rounds are partitioned over these only).
    pub fn alive_chips(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Partition `costs` (cost hints, zero counting as 1) over the *alive*
    /// chips only, then remap onto real chip indices — a dead chip never
    /// receives new work. Errors with [`HazardKind::AllChipsDead`] when no
    /// chip survives to take a job.
    fn partition_alive(&self, costs: &[u64], parents: &Adjacency) -> Result<Partition, SimError> {
        let chips = self.chips.len();
        let alive: Vec<usize> = (0..chips).filter(|&c| !self.dead[c]).collect();
        if alive.is_empty() {
            if costs.is_empty() {
                return Ok(Partition {
                    chip_of: Vec::new(),
                    cut_edges: Vec::new(),
                    chip_cost: vec![0; chips],
                });
            }
            return Err(SimError {
                cycle: self.session.clock_cycles as usize,
                pe: None,
                kind: HazardKind::AllChipsDead { chips },
            });
        }
        if let [chip] = alive[..] {
            // One survivor takes every job and cuts no edge.
            let mut chip_cost = vec![0u64; chips];
            chip_cost[chip] = costs.iter().map(|&c| c.max(1)).sum();
            return Ok(Partition {
                chip_of: vec![chip; costs.len()],
                cut_edges: Vec::new(),
                chip_cost,
            });
        }
        let costs: Vec<u64> = costs.iter().map(|&c| c.max(1)).collect();
        let part = partition_costs(self.partitioner, &costs, parents, alive.len());
        if alive.len() == chips {
            return Ok(part);
        }
        let chip_of: Vec<usize> = part.chip_of.iter().map(|&c| alive[c]).collect();
        let mut chip_cost = vec![0u64; chips];
        for (i, &cost) in part.chip_cost.iter().enumerate() {
            chip_cost[alive[i]] = cost;
        }
        Ok(Partition {
            chip_of,
            cut_edges: part.cut_edges,
            chip_cost,
        })
    }

    /// The cluster's static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The active placement policy.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// One chip (its shards' session meters survive cluster runs).
    pub fn chip(&self, i: usize) -> &LacChip {
        &self.chips[i]
    }

    /// Lifetime meters across every completed run since construction.
    pub fn session(&self) -> &ClusterSession {
        &self.session
    }

    /// Run a dependency graph sharded across the cluster's chips under
    /// `sched`.
    ///
    /// The graph is partitioned first (see [`Partitioner`]), then
    /// executed in deterministic waves: each chip plans its own ready
    /// bucket per wave from cost hints, cross-chip edges delay children
    /// by the modeled transfer, and the shared simulated clock advances
    /// by the slowest bucket anywhere. Outputs come back in submission
    /// order regardless of placement, bit-identical across reruns,
    /// policies and host interleavings.
    ///
    /// On a simulation error the earliest *observed* failure (by global
    /// core index, then bucket position) is returned; peers stop at their
    /// next job boundary and nothing later dispatches. (If several jobs of
    /// one batch would fail, which of them still ran before seeing the
    /// abort flag is host-timing dependent, so the reported error may vary
    /// — determinism covers successful runs, not failure identity.) Work
    /// that already simulated stays metered in the shard sessions —
    /// sessions meter, they do not roll back — but the cluster session
    /// does not advance, so `Err` means "the graph did not complete", not
    /// "nothing ran". Read the shards through [`LacCluster::chip`] (or
    /// `reset_session` them) if a retry must not double-count.
    pub fn run_graph(
        &mut self,
        graph: &JobGraph<J>,
        sched: Scheduler,
    ) -> Result<ClusterRun<J::Output>, SimError> {
        let hints = Hints::of(graph);
        let PoolRun {
            mut run,
            mut outputs,
            ..
        } = self.run_pool(graph, hints.plan(graph, sched), 1)?;
        run.outputs = outputs.pop().expect("one graph, one output vector");
        Ok(run)
    }

    /// Register a tenant on the cluster-wide multi-tenant door. The
    /// tenant's admission budget and fair-share weight span every chip —
    /// one budget, however many chips its graphs land on.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        let id = TenantId::from_index(self.tenants.len());
        self.tenants.push((cfg, TenantSession::default()));
        id
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The policy knobs tenant `t` registered with.
    pub fn tenant_config(&self, t: TenantId) -> &TenantConfig {
        &self.tenants[t.index()].0
    }

    /// The tenant's lifetime meters (updated only by completed rounds).
    pub fn tenant_session(&self, t: TenantId) -> &TenantSession {
        &self.tenants[t.index()].1
    }

    /// Every tenant's busy stats in registration order — the shape
    /// `lac_power::ChipEnergyModel::attribute` prices.
    pub fn tenant_busy_stats(&self) -> Vec<ExecStats> {
        self.tenants.iter().map(|(_, s)| s.busy).collect()
    }

    /// Model a gap between rounds: every chip sits powered but idle for
    /// `cycles`. Only the cluster clock advances — the open-loop door the
    /// traffic layer uses to fast-forward to the next arrival.
    pub fn advance_idle(&mut self, cycles: u64) {
        self.session.clock_cycles += cycles;
    }

    /// Graphs admitted and waiting for the next
    /// [`LacCluster::run_admitted`].
    pub fn pending_graphs(&self) -> usize {
        self.pending.len()
    }

    /// Total admitted-but-unrun cost currently queued, across tenants.
    pub fn pending_cost(&self) -> u64 {
        self.pending.iter().map(|p| p.cost).sum()
    }

    /// Submit a graph through tenant `t`'s cluster-wide admission door,
    /// with one budget covering all chips.
    ///
    /// Admission is *deterministic backpressure*: the graph's total cost
    /// hint is charged against the tenant's in-flight budget
    /// ([`TenantConfig::max_inflight_cost`]); if it does not fit, the
    /// graph is handed back in [`Rejected`] — a pure function of the
    /// enqueue/run history, never of host timing — and the tenant's
    /// rejection counter bumps. Admitted graphs wait (order-tagged by
    /// [`GraphTicket::seq`]) for the next [`LacCluster::run_admitted`]
    /// round; in-flight cost drains when their round completes. An
    /// admitted graph's buffers are trimmed to fit, so the queue holds no
    /// growth slack.
    pub fn enqueue(
        &mut self,
        t: TenantId,
        mut graph: JobGraph<J>,
    ) -> Result<GraphTicket, Rejected<J>> {
        let cost = graph.total_cost();
        let (cfg, session) = &mut self.tenants[t.index()];
        if let Some(budget) = cfg.max_inflight_cost {
            if session.inflight_cost + cost > budget {
                session.graphs_rejected += 1;
                return Err(Rejected {
                    graph,
                    tenant: t,
                    graph_cost: cost,
                    inflight_cost: session.inflight_cost,
                    budget,
                });
            }
        }
        session.inflight_cost += cost;
        session.graphs_admitted += 1;
        let ticket = GraphTicket {
            tenant: t,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        graph.shrink_to_fit();
        self.pending.push(PendingGraph {
            ticket,
            graph,
            cost,
        });
        Ok(ticket)
    }

    /// Run every admitted graph in one interleaved, sharded round: the
    /// graphs are appended into one [`JobGraph`] (edges never cross
    /// graphs), which is partitioned across chips, and execution interleaves
    /// wave-by-wave under `sched`, so one tenant's fan-out fills the
    /// dependency stalls of another's serial spine. Under
    /// [`Scheduler::FairShare`] each wave hands out at most one job per
    /// core, picking by weight-normalized accumulated usage — the
    /// deficits persist in [`TenantSession::cost_completed`], so fairness
    /// holds across rounds, not just within one. Banked credit is capped
    /// at the tenant's own backlog (the deficit-round-robin rule of
    /// resetting an empty queue's counter): a tenant cannot sit idle for
    /// a long time and then starve the others indefinitely.
    ///
    /// On success the round folds into the cluster session (its makespan
    /// advances the clock once — the graphs ran concurrently) and into
    /// each tenant's [`TenantSession`]; admitted cost drains. On a
    /// simulation error the earliest observed failure is returned (see
    /// [`LacCluster::run_graph`]), the round's graphs are dropped, their
    /// in-flight cost drains, and neither the session nor the tenant
    /// meters advance — `Err` means "the round did not complete".
    pub fn run_admitted(&mut self, sched: Scheduler) -> Result<ClusterRound<J::Output>, SimError> {
        let boost = vec![u64::MAX; self.tenants.len()];
        self.run_admitted_boosted(sched, &boost)
    }

    /// [`LacCluster::run_admitted`] with a per-tenant SLO boost:
    /// `boost[t]` is tenant `t`'s current deadline slack in simulated
    /// cycles (`u64::MAX` = unboosted). Under [`Scheduler::FairShare`] the
    /// wave planner ([`crate::plan_wave_tenanted_slo`]) serves boosted
    /// tenants first on every chip, least slack first, without preempting
    /// running jobs; other policies ignore the boost. Because planning is
    /// cost-hint-only and outputs are placement-independent, boosting
    /// changes *when* jobs run — sojourn times, wave shapes — but never
    /// the output bits.
    pub fn run_admitted_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<ClusterRound<J::Output>, SimError> {
        assert_eq!(
            boost.len(),
            self.tenants.len(),
            "one boost slack per registered tenant"
        );
        // Fuse the round into one graph: the admitted graphs laid end to
        // end in admission order (edges never cross graphs), their parent
        // lists moved over and their jobs borrowed where they sit, so no
        // job is copied; one tenant tag per job.
        let mut pending = take(&mut self.pending);
        let edges: Vec<_> = pending
            .iter_mut()
            .map(|p| take(&mut p.graph.parents))
            .collect();
        let jobs = pending.iter().map(|p| p.graph.len()).sum();
        let edge_count = edges.iter().map(Adjacency::edge_count).sum();
        let mut pool = JobGraph::with_capacity(jobs, edge_count);
        let mut tenant_of = Vec::with_capacity(jobs);
        let mut graph_ends = Vec::with_capacity(pending.len());
        let mut backlog = vec![0u64; self.tenants.len()];
        for (p, parents) in pending.iter().zip(edges) {
            let t = p.ticket.tenant.index();
            tenant_of.extend(std::iter::repeat_n(t, p.graph.len()));
            backlog[t] += p.cost;
            pool.append(JobGraph {
                jobs: p.graph.jobs.iter().collect(),
                parents,
            });
            graph_ends.push(pool.len());
        }
        let weights: Vec<u64> = self.tenants.iter().map(|(c, _)| c.weight.max(1)).collect();
        let mut usage: Vec<u64> = self.tenants.iter().map(|(_, s)| s.cost_completed).collect();
        cap_banked_credit(&mut usage, &weights, &backlog);
        let hints = Hints::tenanted(&pool, tenant_of, graph_ends);
        let plan = Plan {
            weights: &weights,
            boost,
            usage,
            ..hints.plan(&pool, sched)
        };
        let done = self.run_pool(&pool, plan, pending.len() as u64);
        // The round's admitted cost drains either way, so a failed round
        // cannot pin its tenants' budgets; only a completed round counts
        // its graphs and folds its tenant meters.
        for p in &pending {
            let session = &mut self.tenants[p.ticket.tenant.index()].1;
            session.inflight_cost -= p.cost;
            session.graphs_completed += u64::from(done.is_ok());
        }
        let PoolRun {
            run,
            outputs,
            per_tenant,
        } = done?;
        for ((_, session), delta) in self.tenants.iter_mut().zip(&per_tenant) {
            session.busy.merge(&delta.busy);
            session.jobs_run += delta.jobs;
            session.wait_cycles += delta.wait_cycles;
            session.cost_completed += delta.cost_dispatched;
        }
        // The round is over: its pool, hints and graphs (whose jobs own
        // their solver slots) go before the per-graph results are built.
        let tickets: Vec<GraphTicket> = pending.iter().map(|p| p.ticket).collect();
        drop(pool);
        drop(hints);
        drop(pending);
        // Each graph takes its own output vector, kept apart since the run
        // began, and its contiguous slice of the pool's placement, with
        // cores numbered globally (chips laid end to end).
        let starts: Vec<usize> = self.cfg.topology().chip_ranges().map(|r| r.start).collect();
        let mut start = 0;
        let graphs = tickets
            .into_iter()
            .zip(outputs)
            .map(|(ticket, outputs)| {
                let jobs = start..start + outputs.len();
                start = jobs.end;
                GraphCompletion {
                    ticket,
                    outputs,
                    assignment: run.assignment[jobs.clone()]
                        .iter()
                        .map(|&(chip, core)| starts[chip] + core)
                        .collect(),
                    wave_of: run.wave_of[jobs].to_vec(),
                }
            })
            .collect();
        Ok(ClusterRound {
            graphs,
            partition: run.partition,
            waves: run.waves,
            wave_end_cycles: run.wave_end_cycles,
            idle_per_core: run.idle_per_core,
            stats: run.stats,
            events: run.events,
            coord_heap_bytes: run.coord_heap_bytes,
        })
    }

    /// The one path [`LacCluster::run_graph`] and every round take:
    /// partition `plan`'s pool over the alive chips, then coordinate
    /// `graph` over every core of every chip (the calling thread plus
    /// scoped workers on demand), honoring the fault plan on the session
    /// clock; chips killed during the run stay dead for every later run.
    /// On success the run of `graphs` graphs folds into the session.
    fn run_pool<K: ChipJob<Output = J::Output>>(
        &mut self,
        graph: &JobGraph<K>,
        plan: Plan<'_>,
        graphs: u64,
    ) -> Result<PoolRun<J::Output>, SimError> {
        let partition = self.partition_alive(plan.costs, plan.parents)?;
        let topo = self.cfg.topology();
        let plan = Plan {
            chip_of: &partition.chip_of,
            faults: self.fault_plan.kills(),
            base: self.session.clock_cycles,
            ..plan
        };
        let shards = self
            .chips
            .iter_mut()
            .flat_map(|chip| chip.shards_mut().iter_mut())
            .collect();
        let run = coordinate(&topo, plan, &mut self.dead, shards, &|job| &graph.jobs[job])?;
        let session = &mut self.session;
        session.clock_cycles += run.makespan;
        session.graphs_run += graphs;
        session.transferred_words += run.transferred_words;
        session.transfer_cycles += run.transfer_cycles;
        for (total, s) in session.per_core.iter_mut().zip(&run.per_core) {
            total.merge(s);
        }
        for (total, n) in session.jobs_per_core.iter_mut().zip(&run.jobs_per_core) {
            *total += n;
        }
        let mut aggregate = ExecStats::default();
        for s in &run.per_core {
            aggregate.merge(s);
        }
        let stats = ClusterStats {
            per_chip: topo.chip_ranges().map(|r| run.chip_stats(r)).collect(),
            makespan_cycles: run.makespan,
            transferred_words: run.transferred_words,
            transfer_cycles: run.transfer_cycles,
            transfer_stall_cycles: run.stall_cycles,
            aggregate,
        };
        let idle_per_core = topo
            .chip_ranges()
            .map(|r| run.idle_per_core[r].to_vec())
            .collect();
        let cluster_run = ClusterRun {
            outputs: Vec::new(),
            partition,
            assignment: run.assignment,
            wave_of: run.wave_of,
            waves: run.wave_ends.len(),
            wave_end_cycles: run.wave_ends,
            idle_per_core,
            stats,
            events: run.events,
            coord_heap_bytes: run.coord_heap_bytes,
        };
        Ok(PoolRun {
            run: cluster_run,
            outputs: run.outputs,
            per_tenant: run.per_tenant,
        })
    }
}

/// What [`LacCluster::run_pool`] hands its door: the cluster-level
/// result, whose `outputs` stay empty for the door to fill, beside the
/// outputs themselves, one vector per graph of the plan, and the
/// per-tenant meter deltas.
struct PoolRun<T> {
    run: ClusterRun<T>,
    outputs: Vec<Vec<T>>,
    per_tenant: Vec<TenantDelta>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ProgramJob;
    use crate::config::LacConfig;
    use crate::isa::{ExtOp, ProgramBuilder, Source};
    use crate::service::LacService;
    use crate::trace::TraceEvent;

    const POLICIES: [Scheduler; 4] = [
        Scheduler::Fifo,
        Scheduler::LeastLoaded,
        Scheduler::CriticalPath,
        Scheduler::FairShare,
    ];

    /// One external load + one MAC + `extra` idle cycles, with a chosen
    /// scheduler cost.
    fn job(extra: usize, cost: u64) -> ProgramJob {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + extra);
        let mut j = ProgramJob::new(b.build());
        j.cost = cost;
        j
    }

    /// `count` independent diamond components (1 → {2} → 1 jobs each).
    fn diamonds(count: usize) -> JobGraph<ProgramJob> {
        let mut g = JobGraph::new();
        for k in 0..count {
            let a = g.add(job(k, 4));
            let b = g.add_after(job(k + 1, 2), &[a]);
            let c = g.add_after(job(k + 2, 2), &[a]);
            g.add_after(job(k, 1), &[b, c]);
        }
        g
    }

    #[test]
    fn cost_bins_keep_components_whole_and_balance_load() {
        let g = diamonds(4);
        let part = Partitioner::CostBins.partition(&g, 2);
        assert_eq!(part.chip_of.len(), 16);
        // Components stay whole: all four jobs of a diamond share a chip.
        for k in 0..4 {
            let chips: Vec<usize> = (4 * k..4 * k + 4).map(|j| part.chip_of[j]).collect();
            assert!(
                chips.windows(2).all(|w| w[0] == w[1]),
                "component {k} split"
            );
        }
        assert!(part.cut_edges.is_empty(), "no component edges were cut");
        // Equal-cost components split two per chip.
        assert_eq!(part.chip_cost, vec![18, 18]);
    }

    #[test]
    fn striped_partition_cuts_edges_and_charges_each_once() {
        let g = diamonds(2);
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()))
            .with_link(2, 50);
        let part = Partitioner::Striped.partition(&g, 2);
        assert!(!part.cut_edges.is_empty());
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_partitioner(Partitioner::Striped);
        let run = cluster.run_graph(&g, Scheduler::CriticalPath).unwrap();
        // Exactly one transfer per cut edge, each edge exactly once.
        // ProgramJob's default transfer hint is 1 word: every charge is
        // hop + ceil(1/2) cycles, and the totals add up.
        let mut charged = Vec::new();
        for t in run.events.transfer_events() {
            let TraceEvent::Transfer {
                parent,
                child,
                from_chip,
                to_chip,
                words,
                start,
                end,
            } = *t
            else {
                unreachable!("the log's transfers are transfer events");
            };
            assert_eq!(words, 1);
            assert_eq!(end - start, 50 + 1);
            assert_ne!(from_chip, to_chip);
            charged.push((JobId::from_index(parent), JobId::from_index(child)));
        }
        charged.sort();
        let mut cut = part.cut_edges.clone();
        cut.sort();
        assert_eq!(charged, cut);
        assert_eq!(run.stats.transferred_words, charged.len() as u64);
        assert_eq!(run.stats.transfer_cycles, 51 * charged.len() as u64);
        // Cross-chip latency showed up on the clock.
        assert!(run.stats.transfer_stall_cycles > 0);
        assert!(run.stats.makespan_cycles > run.stats.aggregate.cycles / 4);
    }

    #[test]
    fn single_chip_cluster_is_bit_identical_to_the_service_door() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let cfg = ChipConfig::new(3, LacConfig::default())
                .with_bandwidth_budget(12)
                .with_sim_mode(mode);
            for sched in POLICIES {
                let mut cluster: LacCluster<ProgramJob> =
                    LacCluster::new(ClusterConfig::homogeneous(1, cfg));
                let via_cluster = cluster.run_graph(&diamonds(3), sched).unwrap();
                let mut svc = LacService::new(cfg);
                let via_service = svc.submit(&diamonds(3), sched).unwrap();
                let ctx = format!("{mode:?} {sched:?}");
                assert_eq!(via_cluster.outputs, via_service.outputs, "{ctx}");
                assert_eq!(via_cluster.stats.per_chip[0], via_service.stats, "{ctx}");
                assert_eq!(via_cluster.waves, via_service.waves, "{ctx}");
                assert_eq!(via_cluster.wave_end_cycles, via_service.wave_end_cycles);
                assert_eq!(via_cluster.idle_per_core[0], via_service.idle_per_core);
                assert_eq!(via_cluster.stats.transferred_words, 0);
                assert_eq!(via_cluster.stats.transfer_stall_cycles, 0);
                // (chip, core) assignment collapses to the chip's core picks.
                let cores: Vec<usize> = via_cluster.assignment.iter().map(|&(_, c)| c).collect();
                assert_eq!(cores, via_service.assignment, "{ctx}");
            }
        }
    }

    #[test]
    fn graph_run_keeps_the_cluster_event_log() {
        // The service door returns the log a one-chip cluster returns:
        // one non-discarded span per job, and on every core the span
        // lengths add up to that core's busy cycles.
        for mode in [SimMode::Wave, SimMode::Event] {
            let cfg = ChipConfig::new(3, LacConfig::default()).with_sim_mode(mode);
            let graph = diamonds(3);
            let mut cluster: LacCluster<ProgramJob> =
                LacCluster::new(ClusterConfig::homogeneous(1, cfg));
            let via_cluster = cluster.run_graph(&graph, Scheduler::CriticalPath).unwrap();
            let via_service = LacService::new(cfg)
                .submit(&graph, Scheduler::CriticalPath)
                .unwrap();
            assert_eq!(via_service.events, via_cluster.events, "{mode:?}");

            let mut spans = vec![0usize; graph.len()];
            let mut busy = vec![0u64; cfg.cores];
            for e in via_service.events.events() {
                if let TraceEvent::Job {
                    job,
                    core,
                    start,
                    end,
                    discarded: false,
                    ..
                } = *e
                {
                    spans[job] += 1;
                    busy[core] += end - start;
                }
            }
            assert!(spans.iter().all(|&n| n == 1), "{mode:?}: one span per job");
            for (c, s) in via_service.stats.per_core.iter().enumerate() {
                assert_eq!(busy[c], s.cycles, "{mode:?} core {c}");
            }
        }
    }

    #[test]
    fn single_chip_cluster_rounds_are_bit_identical_to_service_rounds() {
        // Three weighted tenants, one of them under a deadline boost: the
        // tenanted doors of a service and a one-chip cluster must agree on
        // every clock and every meter, not just on outputs.
        for mode in [SimMode::Wave, SimMode::Event] {
            let cfg = ChipConfig::new(2, LacConfig::default()).with_sim_mode(mode);
            for sched in POLICIES {
                let mut svc: LacService<ProgramJob> = LacService::new(cfg);
                let mut cluster: LacCluster<ProgramJob> =
                    LacCluster::new(ClusterConfig::homogeneous(1, cfg));
                let mut tenants = Vec::new();
                for w in 1..=3 {
                    let t = TenantConfig::new(format!("t{w}")).with_weight(w);
                    tenants.push((svc.add_tenant(t.clone()), cluster.add_tenant(t)));
                }
                for (k, &(ts, tc)) in tenants.iter().enumerate() {
                    svc.enqueue(ts, diamonds(k + 1)).unwrap();
                    cluster.enqueue(tc, diamonds(k + 1)).unwrap();
                }
                let boost = [u64::MAX, 40, u64::MAX];
                let s = svc.run_admitted_boosted(sched, &boost).unwrap();
                let c = cluster.run_admitted_boosted(sched, &boost).unwrap();
                let ctx = format!("{mode:?} {sched:?}");
                assert_eq!(s.graphs.len(), c.graphs.len(), "{ctx}");
                for (gs, gc) in s.graphs.iter().zip(&c.graphs) {
                    assert_eq!(gs.ticket, gc.ticket, "{ctx}");
                    assert_eq!(gs.outputs, gc.outputs, "{ctx}");
                    assert_eq!(gs.assignment, gc.assignment, "{ctx}");
                    assert_eq!(gs.wave_of, gc.wave_of, "{ctx}");
                }
                assert_eq!(s.wave_end_cycles, c.wave_end_cycles, "{ctx}");
                assert_eq!(s.idle_per_core, c.idle_per_core[0], "{ctx}");
                assert_eq!(s.stats, c.stats.per_chip[0], "{ctx}");
                assert_eq!(s.events, c.events, "{ctx}");
                for &(ts, tc) in &tenants {
                    assert_eq!(svc.tenant_session(ts), cluster.tenant_session(tc), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn a_round_splits_into_exact_per_graph_slices() {
        // Three graphs of unequal size from one fresh weight-1 tenant: the
        // round plans what `run_graph` plans for the graphs appended in
        // ticket order, so each completion is exactly its slice of that
        // fused run, owns no slack of the fused buffer, and carries the
        // outputs the graph produces when run alone.
        let sizes = [1, 5, 2];
        for mode in [SimMode::Wave, SimMode::Event] {
            let chip = ChipConfig::new(2, LacConfig::default());
            let cfg = ClusterConfig::homogeneous(2, chip).with_sim_mode(mode);
            let fresh = || -> LacCluster<ProgramJob> { LacCluster::new(cfg.clone()) };
            for sched in POLICIES {
                let ctx = format!("{mode:?} {sched:?}");
                let mut fused = JobGraph::new();
                let mut rounds = fresh();
                let t = rounds.add_tenant(TenantConfig::new("only"));
                let tickets: Vec<_> = sizes
                    .iter()
                    .map(|&n| {
                        fused.append(diamonds(n));
                        rounds.enqueue(t, diamonds(n)).unwrap()
                    })
                    .collect();
                let round = rounds.run_admitted(sched).unwrap();
                let run = fresh().run_graph(&fused, sched).unwrap();

                assert_eq!(round.graphs.len(), sizes.len(), "{ctx}");
                let mut start = 0;
                for ((done, ticket), &n) in round.graphs.iter().zip(&tickets).zip(&sizes) {
                    assert_eq!(done.ticket, *ticket, "{ctx}: ticket order");
                    let jobs = start..start + 4 * n;
                    start = jobs.end;
                    assert_eq!(done.outputs, run.outputs[jobs.clone()], "{ctx}");
                    let global: Vec<usize> = run.assignment[jobs.clone()]
                        .iter()
                        .map(|&(chip, core)| 2 * chip + core)
                        .collect();
                    assert_eq!(done.assignment, global, "{ctx}");
                    assert_eq!(done.wave_of, run.wave_of[jobs], "{ctx}");
                    assert_eq!(done.outputs.capacity(), done.outputs.len(), "{ctx}");
                    let solo = fresh().run_graph(&diamonds(n), sched).unwrap();
                    assert_eq!(done.outputs, solo.outputs, "{ctx}: solo outputs");
                }
                assert_eq!(start, run.outputs.len(), "{ctx}");
            }
        }
    }

    #[test]
    fn reruns_and_policies_are_bit_identical() {
        let cfg = ClusterConfig::homogeneous(3, ChipConfig::new(2, LacConfig::default()));
        let mut baseline: Option<Vec<ExecStats>> = None;
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
        ] {
            let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg.clone());
            let first = cluster.run_graph(&diamonds(5), sched).unwrap();
            let second = cluster.run_graph(&diamonds(5), sched).unwrap();
            assert_eq!(first.outputs, second.outputs, "{sched:?}: rerun diverged");
            assert_eq!(first.stats, second.stats, "{sched:?}: rerun stats diverged");
            assert_eq!(first.events, second.events);
            match &baseline {
                None => baseline = Some(first.outputs),
                Some(b) => assert_eq!(b, &first.outputs, "{sched:?} changed results"),
            }
        }
    }

    #[test]
    fn sharding_independent_work_beats_one_chip() {
        let chip = ChipConfig::new(2, LacConfig::default());
        let mut solo: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(1, chip));
        let solo_run = solo
            .run_graph(&diamonds(8), Scheduler::CriticalPath)
            .unwrap();
        let mut quad: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(4, chip));
        let quad_run = quad
            .run_graph(&diamonds(8), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(solo_run.outputs, quad_run.outputs, "placement-free outputs");
        assert!(
            quad_run.stats.makespan_cycles * 2 < solo_run.stats.makespan_cycles,
            "4 chips must halve the makespan on embarrassingly shardable work \
             ({} vs {})",
            quad_run.stats.makespan_cycles,
            solo_run.stats.makespan_cycles
        );
        assert_eq!(quad_run.events.transfer_events().count(), 0);
    }

    #[test]
    fn cluster_tenants_share_one_budget_across_chips() {
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
        let t = cluster.add_tenant(TenantConfig::new("bounded").with_admission_budget(20));
        let free = cluster.add_tenant(TenantConfig::new("free"));
        let flat = |cost: u64| -> JobGraph<ProgramJob> { (0..4).map(|i| job(i, cost)).collect() };
        cluster.enqueue(t, flat(4)).unwrap(); // 16 in flight
        let rejected = cluster.enqueue(t, flat(2)).unwrap_err();
        assert_eq!(rejected.inflight_cost, 16);
        assert_eq!(rejected.budget, 20);
        cluster.enqueue(free, flat(3)).unwrap();
        assert_eq!(cluster.pending_graphs(), 2);

        let round = cluster.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs.len(), 2);
        assert_eq!(cluster.tenant_session(t).inflight_cost, 0);
        assert_eq!(cluster.tenant_session(t).graphs_completed, 1);
        assert_eq!(cluster.tenant_session(free).jobs_run, 4);
        // The budget drained: the bounced graph now fits.
        cluster.enqueue(t, rejected.graph).unwrap();
        let round2 = cluster.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round2.graphs.len(), 1);
        // Session meters accumulated both rounds.
        assert_eq!(cluster.session().graphs_run, 3);
        assert_eq!(
            cluster.session().clock_cycles,
            round.stats.makespan_cycles + round2.stats.makespan_cycles
        );
    }

    #[test]
    fn with_sim_mode_sets_every_chips_time_model() {
        let wave_chip = ChipConfig::new(2, LacConfig::default());
        let cfg = ClusterConfig::homogeneous(2, wave_chip).with_sim_mode(SimMode::Event);
        assert!(cfg.chips.iter().all(|c| c.sim_mode == SimMode::Event));
        assert_eq!(cfg.topology().mode, SimMode::Event);
    }

    #[test]
    #[should_panic(expected = "every chip of a cluster runs one time model")]
    fn chips_with_mixed_time_models_do_not_build() {
        let wave_chip = ChipConfig::new(2, LacConfig::default());
        let mut cfg = ClusterConfig::homogeneous(2, wave_chip);
        cfg.chips[1] = wave_chip.with_sim_mode(SimMode::Event);
        let _ = LacCluster::<ProgramJob>::new(cfg);
    }

    #[test]
    fn heterogeneous_chips_lay_cores_end_to_end() {
        let cfg = ClusterConfig {
            chips: vec![
                ChipConfig::new(1, LacConfig::default()),
                ChipConfig::new(3, LacConfig::default()),
            ],
            link_words_per_cycle: 4,
            hop_latency_cycles: 10,
        };
        assert_eq!(cfg.total_cores(), 4);
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
        let run = cluster
            .run_graph(&diamonds(4), Scheduler::LeastLoaded)
            .unwrap();
        assert_eq!(run.outputs.len(), 16);
        assert_eq!(run.idle_per_core[0].len(), 1);
        assert_eq!(run.idle_per_core[1].len(), 3);
        for (chip, core) in &run.assignment {
            assert!(*core < cluster.chip(*chip).num_cores());
        }
        // Busy + idle reconstructs the makespan on every core.
        for chip in 0..2 {
            for core in 0..run.idle_per_core[chip].len() {
                assert_eq!(
                    run.stats.per_chip[chip].per_core[core].cycles + run.idle_per_core[chip][core],
                    run.stats.makespan_cycles,
                    "chip {chip} core {core}"
                );
            }
        }
    }

    #[test]
    fn failing_job_aborts_the_cluster_run() {
        let bad = {
            let mut b = ProgramBuilder::new(LacConfig::default().nr);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
            ProgramJob::new(b.build())
        };
        let mut g = JobGraph::new();
        let a = g.add(job(0, 1));
        g.add_after(bad, &[a]);
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(2, LacConfig::default()),
        ));
        let err = cluster.run_graph(&g, Scheduler::Fifo).unwrap_err();
        assert_eq!(err.cycle, 0);
        assert_eq!(cluster.session().graphs_run, 0, "failed runs do not count");
        // The cluster recovers: the next run completes.
        let run = cluster.run_graph(&diamonds(2), Scheduler::Fifo).unwrap();
        assert_eq!(run.outputs.len(), 8);
        assert_eq!(cluster.session().graphs_run, 1);
    }

    #[test]
    fn chip_loss_preserves_output_bits() {
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(3, ChipConfig::new(2, LacConfig::default()));
        let mut healthy: LacCluster<ProgramJob> = LacCluster::new(cfg.clone());
        let baseline = healthy
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();

        let mut faulty: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(1, 1));
        let run = faulty
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(
            run.outputs, baseline.outputs,
            "chip loss must never change output bits"
        );
        assert!(
            run.stats.makespan_cycles >= baseline.stats.makespan_cycles,
            "losing a chip cannot speed the run up"
        );
        assert!(faulty.dead_chips()[1]);
        assert_eq!(faulty.alive_chips(), 2);
        // The log tells the story: exactly one fault, at least one requeue,
        // and no job ever lands on the dead chip after its fault tick.
        let ev = run.events.events();
        let fault_tick = ev
            .iter()
            .find_map(|e| match *e {
                TraceEvent::Fault { chip, tick } => {
                    assert_eq!(chip, 1);
                    Some(tick)
                }
                _ => None,
            })
            .expect("fault recorded");
        assert_eq!(
            run.events.count(|e| matches!(e, TraceEvent::Fault { .. })),
            1
        );
        assert!(
            run.events
                .count(|e| matches!(e, TraceEvent::Requeue { .. }))
                > 0
        );
        for e in ev {
            if let TraceEvent::Job {
                chip,
                start,
                discarded,
                ..
            } = *e
            {
                if chip == 1 && !discarded {
                    assert!(start < fault_tick, "dead chip ran a job after dying");
                }
            }
        }
        // A later run still works, on survivors only.
        let run2 = faulty
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(run2.outputs, baseline.outputs);
        assert!(run2.events.count(|e| matches!(e, TraceEvent::Fault { .. })) == 0);
        for &(chip, _) in &run2.assignment {
            assert_ne!(chip, 1, "dead chip must not receive new work");
        }
    }

    #[test]
    fn exactly_once_and_metering_under_chip_loss() {
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(0, 1));
        let run = cluster
            .run_graph(&diamonds(5), Scheduler::CriticalPath)
            .unwrap();
        // Exactly once: every job has exactly one non-discarded Job event.
        let n = 5 * 4;
        let mut runs = vec![0usize; n];
        let mut discarded = vec![0usize; n];
        for e in run.events.events() {
            if let TraceEvent::Job {
                job, discarded: d, ..
            } = *e
            {
                if d {
                    discarded[job] += 1;
                } else {
                    runs[job] += 1;
                }
            }
        }
        assert!(
            runs.iter().all(|&r| r == 1),
            "each job retires exactly once"
        );
        assert!(
            discarded.iter().sum::<usize>() > 0,
            "the kill at tick 1 lands mid-wave and revokes work"
        );
        // Revoked work stays metered: per-core busy + idle still
        // reconstructs the makespan on every core, dead or alive.
        for chip in 0..2 {
            for core in 0..run.idle_per_core[chip].len() {
                assert_eq!(
                    run.stats.per_chip[chip].per_core[core].cycles + run.idle_per_core[chip][core],
                    run.stats.makespan_cycles,
                    "chip {chip} core {core}"
                );
            }
        }
    }

    #[test]
    fn killing_every_chip_is_a_hard_error() {
        use crate::error::HazardKind;
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(0, 0).kill(1, 0));
        let err = cluster
            .run_graph(&diamonds(2), Scheduler::Fifo)
            .unwrap_err();
        assert_eq!(err.kind, HazardKind::AllChipsDead { chips: 2 });
        // With both chips dead, even a fresh graph cannot be placed.
        let err2 = cluster
            .run_graph(&diamonds(1), Scheduler::Fifo)
            .unwrap_err();
        assert_eq!(err2.kind, HazardKind::AllChipsDead { chips: 2 });
    }
}
