//! The chip's submission-based front-end: [`JobGraph`] expresses DAGs of
//! [`ChipJob`]s with dependencies, and [`LacService`], the one-chip
//! door, serves them on one chip whose shards stay warm across
//! submissions — the production shape
//! of the multi-core LAP, where a solver loop (e.g. the repeated
//! Cholesky/TRSM/GEMM rounds of an interior-point method) submits graph
//! after graph against the same shards.
//!
//! The chip's original flat-queue door (removed once every call site had
//! migrated) could only drain an order-free batch. This module replaces
//! it:
//!
//! * **[`JobGraph`]** — jobs are added in submission order and may depend
//!   on previously added jobs (`add_after`). Because an edge can only
//!   point backwards, the graph is acyclic by construction. A job becomes
//!   *ready* only when all its parents completed. The graph stores each
//!   job's parents once, flat ([`Adjacency`]); a run derives the children
//!   from them.
//! * **Deterministic dispatch** — the coordinator ([`crate::coord`])
//!   hands ready jobs to cores under the [`Scheduler`] policy, picking
//!   each off an index of the ready set: `Fifo` round-robins in job-id
//!   order, `LeastLoaded` greedily balances estimated load, and
//!   [`Scheduler::CriticalPath`] serves the longest remaining cost-hint
//!   path first (classic critical-path list scheduling — on a flat graph
//!   it degenerates to longest-processing-time-first). [`plan_wave`]
//!   plans a whole wave the same way and is the oracle the picks are
//!   checked against in debug builds. Picks never look at host timing,
//!   so a graph run is reproducible bit-for-bit no matter how the OS
//!   schedules the workers.
//! * **Simulated clock with idle accounting** — a wave's simulated span is
//!   its slowest core's bucket; cores with lighter buckets accrue idle
//!   cycles. The makespan is the sum of wave spans, so chip utilization
//!   and the static/uncore terms of `lac-power`'s chip energy model see
//!   dependency stalls, not just busy time.
//! * **[`LacService`]** — the one-chip front of
//!   [`LacCluster`]: every submission and
//!   round runs through the cluster door (and so through the
//!   coordinator's one worker pool), and the cluster's
//!   [`ClusterSession`] is the service session: per-core meters, a clock
//!   summing submission makespans (plus explicit
//!   [`LacService::advance_idle`] gaps between batches), and graph/job
//!   counts.
//!   `session().chip_stats()` prices the whole service lifetime through
//!   `lac_power::ChipEnergyModel`, idle included.
//! * **Multi-tenant streaming admission** — many clients ([`TenantId`]s
//!   registered via [`LacService::add_tenant`]) hold concurrent
//!   [`TenantSession`]s against one service. [`LacService::enqueue`]
//!   charges each graph's total cost hint against the tenant's in-flight
//!   budget and bounces over-budget submissions with *deterministic
//!   backpressure* ([`Rejected`] hands the graph back); admitted graphs
//!   from every tenant then interleave wave-by-wave in one
//!   [`LacService::run_admitted`] round. The
//!   [`Scheduler::FairShare`](crate::chip::Scheduler) policy dispatches
//!   one job per core per wave, picking by weight-normalized accumulated
//!   cost-hint usage ([`plan_wave_tenanted`]) — planned purely from cost
//!   hints and tenant deficits, so rounds stay bit-identical across
//!   reruns and host interleavings. Per-tenant meters (throughput,
//!   wait-vs-run, busy stats for
//!   `lac_power::ChipEnergyModel::attribute`) accumulate in each
//!   [`TenantSession`].
//!
//! Data flows between dependent jobs through whatever shared state the
//! jobs close over (e.g. an `Arc<Mutex<…>>` — see `lac-kernels`'
//! `SolverLoopWorkload`); the graph guarantees every parent's writes
//! happen-before its children run, and the wave planner fixes reduction
//! order, so shared-state workloads stay bit-deterministic. Kept
//! single-assignment — no job updates in place what it, or a rerun of
//! it, reads — that state also keeps a job revoked by a chip kill, and a
//! used graph, re-runnable to the same bits (see [`crate::fault`]).

use crate::chip::{ChipConfig, ChipJob, ChipStats, Scheduler};
use crate::cluster::{ClusterConfig, ClusterSession, LacCluster};
use crate::compile::ProgramCache;
use crate::error::SimError;
use crate::stats::ExecStats;
use crate::trace::EventLog;

/// Handle to a job added to a [`JobGraph`]; ids are dense and ordered by
/// submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(usize);

impl JobId {
    /// Position of the job in submission order (also its index in
    /// [`GraphRun::outputs`]).
    pub fn index(self) -> usize {
        self.0
    }

    /// Crate-internal constructor (the partitioner names cut edges by
    /// job index).
    pub(crate) fn from_index(i: usize) -> Self {
        JobId(i)
    }
}

/// One id list per job, stored flat: row `j` is
/// `ids[ends[j − 1]..ends[j]]` (row 0 starts at 0). A [`JobGraph`] keeps
/// its parents this way, and a run derives the children once in the same
/// form ([`JobGraph::children`]), so a job's edges cost one id each, not a
/// vector each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Adjacency {
    /// `ends[j]` — one past row `j`'s last id.
    ends: Vec<usize>,
    /// Every row's ids, rows laid end to end.
    ids: Vec<usize>,
}

impl Adjacency {
    /// Room for `rows` rows holding `ids` ids in all.
    pub(crate) fn with_capacity(rows: usize, ids: usize) -> Self {
        Self {
            ends: Vec::with_capacity(rows),
            ids: Vec::with_capacity(ids),
        }
    }

    /// Number of rows (one per job).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total ids over all rows (the graph's edge count).
    pub fn edge_count(&self) -> usize {
        self.ids.len()
    }

    /// Row `j`'s ids.
    pub fn row(&self, j: usize) -> &[usize] {
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.ids[start..self.ends[j]]
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.len()).map(|j| self.row(j))
    }

    /// Close the row being built from the ids pushed since the last one.
    fn end_row(&mut self) {
        self.ends.push(self.ids.len());
    }

    /// Lay `other`'s rows after this one's, adding `shift` to every id.
    fn append(&mut self, other: Adjacency, shift: usize) {
        let base = self.ids.len();
        self.ends.extend(other.ends.into_iter().map(|e| e + base));
        self.ids.extend(other.ids.into_iter().map(|id| id + shift));
    }

    /// The inverse: row `p` lists every `c` whose row holds `p`, once per
    /// occurrence, in ascending `c` (a counting sort, two passes).
    pub(crate) fn inverse(&self) -> Adjacency {
        // Row sizes, then each row's start; filling in ascending `c`
        // moves every start to its row's end.
        let mut ends = vec![0usize; self.len()];
        for &p in &self.ids {
            ends[p] += 1;
        }
        let mut start = 0;
        for e in &mut ends {
            (*e, start) = (start, start + *e);
        }
        let mut ids = vec![0usize; self.ids.len()];
        for (c, row) in self.rows().enumerate() {
            for &p in row {
                ids[ends[p]] = c;
                ends[p] += 1;
            }
        }
        Adjacency { ends, ids }
    }

    /// Bytes the two vectors reserve (`capacity × size_of`).
    fn heap_bytes(&self) -> usize {
        (self.ends.capacity() + self.ids.capacity()) * std::mem::size_of::<usize>()
    }
}

/// A DAG of jobs: nodes are [`ChipJob`]s, edges are dependencies. A job
/// may only depend on previously added jobs, so the graph is acyclic by
/// construction.
///
/// ```
/// use lac_sim::JobGraph;
///
/// // A diamond: `a` fans out to `b`, `c`; `d` joins them. (Any payload
/// // type works for building; running needs a `ChipJob`.)
/// let mut g: JobGraph<&str> = JobGraph::new();
/// let a = g.add("factor");
/// let b = g.add_after("solve panel 0", &[a]);
/// let c = g.add_after("solve panel 1", &[a]);
/// let d = g.add_after("update", &[b, c]);
///
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.edges().count(), 4);
/// assert_eq!(g.parents_of(d).collect::<Vec<_>>(), vec![b, c]);
/// assert_eq!(d.index(), 3); // ids are dense, in submission order
/// ```
#[derive(Clone, Debug)]
pub struct JobGraph<J> {
    pub(crate) jobs: Vec<J>,
    /// Row `j` — indices of jobs that must complete before `j` runs, in
    /// the order they were given, each once.
    pub(crate) parents: Adjacency,
}

impl<J> Default for JobGraph<J> {
    fn default() -> Self {
        Self::new()
    }
}

impl<J> JobGraph<J> {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            jobs: Vec::new(),
            parents: Adjacency::default(),
        }
    }

    /// An empty graph with room for `jobs` jobs and `edges` edges (a
    /// round fuses its admitted graphs into one without regrowing).
    pub(crate) fn with_capacity(jobs: usize, edges: usize) -> Self {
        Self {
            jobs: Vec::with_capacity(jobs),
            parents: Adjacency::with_capacity(jobs, edges),
        }
    }

    /// Add an independent job (no parents).
    pub fn add(&mut self, job: J) -> JobId {
        self.add_after(job, &[])
    }

    /// Add a job that becomes ready only after every job in `parents`
    /// completed. Duplicate parents are deduplicated. Panics unless every
    /// parent was added before — the invariant that keeps every graph a
    /// DAG.
    pub fn add_after(&mut self, job: J, parents: &[JobId]) -> JobId {
        let id = JobId(self.jobs.len());
        if let Some(p) = parents.iter().find(|p| p.0 >= id.0) {
            panic!("a job can only depend on earlier-submitted jobs ({p:?} !< {id:?})");
        }
        let start = self.parents.ids.len();
        for p in parents {
            if !self.parents.ids[start..].contains(&p.0) {
                self.parents.ids.push(p.0);
            }
        }
        self.parents.end_row();
        self.jobs.push(job);
        id
    }

    /// Drop the growth slack of the job vector and the parent lists (an
    /// admitted graph waits for its round at its exact size).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.jobs.shrink_to_fit();
        self.parents.ends.shrink_to_fit();
        self.parents.ids.shrink_to_fit();
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job was added yet.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job behind a handle.
    pub fn job(&self, id: JobId) -> &J {
        &self.jobs[id.0]
    }

    /// Parents of `id`, in the order the edges were added.
    pub fn parents_of(&self, id: JobId) -> impl Iterator<Item = JobId> + '_ {
        self.parents.row(id.0).iter().map(|&p| JobId(p))
    }

    /// All edges `(parent, child)` of the graph, in child-id order.
    pub fn edges(&self) -> impl Iterator<Item = (JobId, JobId)> + '_ {
        self.parents
            .rows()
            .enumerate()
            .flat_map(|(c, ps)| ps.iter().map(move |&p| (JobId(p), JobId(c))))
    }

    /// Every job's children, derived from the stored parents: row `p`
    /// holds each child of `p` once, in ascending id order. A run derives
    /// this once; the graph does not store it.
    pub fn children(&self) -> Adjacency {
        self.parents.inverse()
    }

    /// Longest remaining cost path from each job to a sink, inclusive of
    /// the job's own cost (`costs[j]`, zero counting as 1) — the
    /// [`Scheduler::CriticalPath`] priority.
    pub fn critical_paths(&self, costs: &[u64]) -> Vec<u64> {
        critical_paths(costs, &self.parents)
    }

    /// Bytes the graph's own buffers reserve: the job vector and the flat
    /// parent lists, `capacity × size_of` each (what jobs own behind
    /// pointers is theirs). A pure function of the build sequence, so
    /// exact across hosts.
    pub fn heap_bytes(&self) -> usize {
        self.jobs.capacity() * std::mem::size_of::<J>() + self.parents.heap_bytes()
    }

    /// Splice another graph onto the end of this one, keeping `other`'s
    /// internal edges (re-based onto the new ids) and adding **no** edges
    /// between the two parts — the result is the disjoint union. Returns
    /// `other`'s jobs' new ids in their original submission order, so
    /// callers can keep addressing the appended component (e.g. the fleet
    /// builders in `lac-kernels` that fuse many independent solver loops
    /// into one cluster submission).
    pub fn append(&mut self, mut other: JobGraph<J>) -> Vec<JobId> {
        let offset = self.jobs.len();
        self.jobs.append(&mut other.jobs);
        self.parents.append(other.parents, offset);
        (offset..self.jobs.len()).map(JobId).collect()
    }

    /// Map every job through `f`, preserving the dependency structure
    /// (ids and edges) exactly. This is what lets heterogeneous clients
    /// share one serving backend: wrap each workload's job type into a
    /// common enum without touching the graph shape (see
    /// [`crate::dynamic::DynamicGraph::map_job`]).
    pub fn map<K>(self, f: impl FnMut(J) -> K) -> JobGraph<K> {
        JobGraph {
            jobs: self.jobs.into_iter().map(f).collect(),
            parents: self.parents,
        }
    }
}

impl<J: ChipJob> JobGraph<J> {
    /// Total scheduler cost of the graph (zero-cost jobs count as 1, like
    /// everywhere in the planner) — the currency admission control
    /// charges against [`TenantConfig::max_inflight_cost`] and the
    /// fair-share deficits accumulate.
    pub fn total_cost(&self) -> u64 {
        self.jobs.iter().map(|j| j.cost_hint().max(1)).sum()
    }
}

/// Collecting jobs builds the flat (edge-free) graph — an order-free
/// batch that drains in a single dependency wave.
impl<J> FromIterator<J> for JobGraph<J> {
    fn from_iter<T: IntoIterator<Item = J>>(iter: T) -> Self {
        let mut g = Self::new();
        for j in iter {
            g.add(j);
        }
        g
    }
}

/// Longest remaining cost-hint path from each job to a sink (inclusive of
/// the job's own cost) — the [`Scheduler::CriticalPath`] priority. One
/// reverse sweep over the parents: every child has a higher id than its
/// parents, so a job's path is final when the sweep reaches it, and it
/// then raises each parent's longest tail.
pub(crate) fn critical_paths(costs: &[u64], parents: &Adjacency) -> Vec<u64> {
    // `cp[j]` holds job `j`'s longest tail until the sweep reaches it.
    let mut cp = vec![0u64; costs.len()];
    for j in (0..costs.len()).rev() {
        cp[j] += costs[j].max(1);
        for &p in parents.row(j) {
            cp[p] = cp[p].max(cp[j]);
        }
    }
    cp
}

/// Split one wave's ready set into per-core buckets under `sched`.
///
/// `ready` holds job indices in ascending id order; `costs` and
/// `priority` are indexed by job id (for a flat queue the priority *is*
/// the cost). Planning is a pure function of its arguments, which is what
/// makes graph runs deterministic; it is public so invariants (e.g. "no
/// core idles while a ready job exists") can be property-tested directly.
pub fn plan_wave(
    sched: Scheduler,
    ready: &[usize],
    costs: &[u64],
    priority: &[u64],
    cores: usize,
) -> Vec<Vec<usize>> {
    assert!(cores >= 1, "a chip has at least one core");
    let mut buckets = vec![Vec::new(); cores];
    match sched {
        Scheduler::Fifo => {
            for (k, &j) in ready.iter().enumerate() {
                buckets[k % cores].push(j);
            }
        }
        Scheduler::LeastLoaded | Scheduler::CriticalPath => {
            let mut order: Vec<usize> = ready.to_vec();
            if sched == Scheduler::CriticalPath {
                order.sort_by_key(|&j| (std::cmp::Reverse(priority[j]), j));
            }
            let mut load = vec![0u64; cores];
            for &j in &order {
                let core = (0..cores).min_by_key(|&c| (load[c], c)).unwrap();
                load[core] += costs[j].max(1);
                buckets[core].push(j);
            }
        }
        Scheduler::FairShare => {
            // Single-tenant view of the streaming planner: every job
            // belongs to one tenant with zero accumulated usage, so the
            // pick order is critical-path order, one job per core.
            let tenant_of = vec![0usize; costs.len()];
            return plan_wave_tenanted(
                ready,
                costs,
                priority,
                &tenant_of,
                &[0],
                &[1],
                &[u64::MAX],
                cores,
            );
        }
    }
    buckets
}

/// The [`Scheduler::FairShare`] wave planner: dispatch at most one job per
/// core (the streaming quantum), repeatedly picking the ready job whose
/// tenant currently has the lowest accumulated cost-hint usage normalized
/// by its weight (exact cross-multiplied comparison — no floats), breaking
/// ties by critical-path `priority` (descending) and then job id. Each
/// pick charges the tenant's usage locally, so one wave interleaves
/// tenants instead of letting the hungriest tenant take every slot.
///
/// `tenant_of[j]` maps a job to its tenant index; `usage`/`weights`/`boost`
/// are indexed by tenant. `boost[t]` is a preemption-free SLO boost:
/// tenant `t`'s current deadline slack in simulated cycles (`u64::MAX`
/// means unboosted). Boosted tenants outrank every unboosted one, least
/// slack first; ties — and the whole unboosted remainder — fall through to
/// the fair-share deficit comparison. Dispatched boosted jobs still charge
/// their tenant's usage, so fairness re-converges once the deadline
/// pressure clears. Jobs already running are never preempted: the boost
/// only reorders picks at wave boundaries. Like [`plan_wave`] this is a
/// pure function of its arguments — the determinism anchor, so boosted
/// rounds stay bit-identical across reruns and host interleavings — and
/// public so fairness and work-conservation invariants can be
/// property-tested directly.
#[allow(clippy::too_many_arguments)] // the planner's full deterministic context
pub fn plan_wave_tenanted(
    ready: &[usize],
    costs: &[u64],
    priority: &[u64],
    tenant_of: &[usize],
    usage: &[u64],
    weights: &[u64],
    boost: &[u64],
    cores: usize,
) -> Vec<Vec<usize>> {
    assert!(cores >= 1, "a chip has at least one core");
    let mut buckets = vec![Vec::new(); cores];
    let mut local_usage = usage.to_vec();
    let mut remaining: Vec<usize> = ready.to_vec();
    for bucket in buckets.iter_mut().take(cores.min(ready.len())) {
        let (pos, &j) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let (ta, tb) = (tenant_of[a], tenant_of[b]);
                // Deadline slack first (MAX = unboosted), then
                // usage[ta]/weights[ta] vs usage[tb]/weights[tb], exactly.
                let ua = local_usage[ta] as u128 * weights[tb].max(1) as u128;
                let ub = local_usage[tb] as u128 * weights[ta].max(1) as u128;
                boost[ta]
                    .cmp(&boost[tb])
                    .then_with(|| ua.cmp(&ub))
                    .then_with(|| priority[b].cmp(&priority[a]))
                    .then_with(|| a.cmp(&b))
            })
            .expect("remaining is non-empty");
        remaining.swap_remove(pos);
        local_usage[tenant_of[j]] += costs[j].max(1);
        bucket.push(j);
    }
    buckets
}

/// Everything one graph submission produces.
#[derive(Clone, Debug)]
pub struct GraphRun<T> {
    /// One output per job, indexed by [`JobId::index`] (submission order).
    pub outputs: Vec<T>,
    /// Which core ran each job (same order as `outputs`).
    pub assignment: Vec<usize>,
    /// Which dependency wave (0-based) dispatched each job.
    pub wave_of: Vec<usize>,
    /// How many dependency waves the run took (the graph's effective
    /// depth under this policy).
    pub waves: usize,
    /// Simulated clock at the end of each wave, relative to the start of
    /// the run (`wave_end_cycles[wave_of[j]]` is job `j`'s completion
    /// tick — the sojourn-time anchor of the open-loop traffic layer).
    pub wave_end_cycles: Vec<u64>,
    /// Simulated cycles each core spent waiting on dependencies (its
    /// waves' spans minus its own buckets). `busy + idle = makespan` per
    /// core.
    pub idle_per_core: Vec<u64>,
    /// Busy-cycle breakdown and aggregate; `makespan_cycles` is the sum of
    /// wave spans, so it *includes* dependency stalls.
    pub stats: ChipStats,
    /// The run's observability log (job spans per core, idle
    /// fast-forwards) on the run-relative simulated clock — the same log
    /// the cluster doors return.
    pub events: EventLog,
    /// Bytes the coordinator's bookkeeping reserved for the run (see
    /// [`crate::ClusterRun::coord_heap_bytes`]).
    pub coord_heap_bytes: usize,
}

/// A tenant of the multi-tenant service door: a client whose submissions
/// are admitted, scheduled and metered separately. Ids are dense and
/// ordered by [`LacService::add_tenant`] registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// Position of the tenant in registration order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Crate-internal constructor (the cluster front door registers
    /// tenants).
    pub(crate) fn from_index(i: usize) -> Self {
        TenantId(i)
    }
}

/// Static per-tenant policy knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Display name (reports and error messages).
    pub name: String,
    /// Fair-share weight: under [`Scheduler::FairShare`] a tenant is
    /// served in proportion to `weight` (a weight-2 tenant gets twice the
    /// cost-hint share of a weight-1 tenant when both have work ready).
    /// Zero is treated as 1.
    pub weight: u64,
    /// Admission budget: the maximum total cost hint this tenant may have
    /// admitted-but-not-completed. [`LacService::enqueue`] rejects (with
    /// deterministic backpressure) any graph that would exceed it. `None`
    /// admits everything.
    pub max_inflight_cost: Option<u64>,
    /// Latency SLO: the target sojourn (arrival → completion) in simulated
    /// cycles. `None` means best-effort (no deadline). The scheduler never
    /// reads this directly — the open-loop traffic layer (`lac-traffic`)
    /// turns it into per-round deadline slack and feeds
    /// [`plan_wave_tenanted`] through
    /// [`LacService::run_admitted_boosted`].
    pub deadline_cycles: Option<u64>,
}

impl TenantConfig {
    /// A tenant with weight 1, no admission budget and no latency SLO.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
            max_inflight_cost: None,
            deadline_cycles: None,
        }
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Bound the tenant's admitted-but-uncompleted cost.
    pub fn with_admission_budget(mut self, max_inflight_cost: u64) -> Self {
        self.max_inflight_cost = Some(max_inflight_cost);
        self
    }

    /// Set the latency SLO: target sojourn in simulated cycles.
    pub fn with_deadline(mut self, deadline_cycles: u64) -> Self {
        self.deadline_cycles = Some(deadline_cycles);
        self
    }
}

/// Lifetime meters of one tenant, accumulated across every completed
/// round — the per-tenant counterpart of the service-wide
/// [`ClusterSession`]. Feed `busy` per tenant to
/// `lac_power::ChipEnergyModel::attribute` (with the service clock as the
/// wall) for per-tenant energy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantSession {
    /// Busy stats summed over this tenant's completed jobs.
    pub busy: ExecStats,
    /// Jobs completed.
    pub jobs_run: u64,
    /// Graphs admitted through [`LacService::enqueue`].
    pub graphs_admitted: u64,
    /// Admitted graphs that completed a round.
    pub graphs_completed: u64,
    /// Submissions bounced by admission control.
    pub graphs_rejected: u64,
    /// Cost currently admitted but not yet completed (what admission
    /// control bounds).
    pub inflight_cost: u64,
    /// Completed cost hints — the fair-share usage counter the
    /// [`Scheduler::FairShare`] deficit comparison normalizes by weight.
    pub cost_completed: u64,
    /// Simulated cycles this tenant's jobs sat ready-but-undispatched
    /// (the scheduling delay the fair-share policy trades between
    /// tenants).
    pub wait_cycles: u64,
}

impl TenantSession {
    /// Cycles this tenant's jobs actually simulated (the run side of
    /// wait-vs-run).
    pub fn run_cycles(&self) -> u64 {
        self.busy.cycles
    }

    /// Completed cost hints per simulated kilocycle of `clock` — the
    /// tenant's throughput over a service lifetime (use
    /// [`ClusterSession::clock_cycles`]).
    pub fn throughput_per_kcycle(&self, clock_cycles: u64) -> f64 {
        if clock_cycles == 0 {
            return 0.0;
        }
        self.cost_completed as f64 * 1000.0 / clock_cycles as f64
    }
}

/// Receipt for one admitted graph: which tenant, and where in the
/// service-wide admission order it sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphTicket {
    /// The tenant the graph was admitted through.
    pub tenant: TenantId,
    /// Service-wide admission sequence number (dense, starting at 0).
    pub seq: u64,
}

/// Deterministic backpressure: the graph bounced off the tenant's
/// admission budget and is handed back untouched for a later retry
/// (typically after [`LacService::run_admitted`] drains in-flight cost).
pub struct Rejected<J> {
    /// The submission, returned to the caller.
    pub graph: JobGraph<J>,
    /// The tenant whose budget bounced it.
    pub tenant: TenantId,
    /// Total cost hint of the rejected graph.
    pub graph_cost: u64,
    /// The tenant's admitted-but-uncompleted cost at rejection time.
    pub inflight_cost: u64,
    /// The budget that was exceeded.
    pub budget: u64,
}

impl<J> std::fmt::Debug for Rejected<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rejected")
            .field("tenant", &self.tenant)
            .field("graph_cost", &self.graph_cost)
            .field("inflight_cost", &self.inflight_cost)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// One admitted graph waiting for the next round.
pub(crate) struct PendingGraph<J> {
    pub(crate) ticket: GraphTicket,
    pub(crate) graph: JobGraph<J>,
    pub(crate) cost: u64,
}

/// Cap banked fair-share deficit credit at each tenant's own backlog — the
/// deficit-round-robin "reset on an empty queue" rule, adapted to rounds:
/// a tenant that sat idle while others accumulated usage may be served at
/// most its current pending cost before the others resume. Without the
/// floor a long-idle tenant's credit would grant it unbounded priority
/// across rounds. The floor is recomputed per round from the live meters
/// (which stay truthful), so it is still a pure function of the
/// enqueue/run history.
pub(crate) fn cap_banked_credit(usage: &mut [u64], weights: &[u64], backlog: &[u64]) {
    let busiest = (0..usage.len())
        .filter(|&t| backlog[t] > 0)
        .max_by(|&a, &b| {
            (usage[a] as u128 * weights[b] as u128).cmp(&(usage[b] as u128 * weights[a] as u128))
        });
    if let Some(m) = busiest {
        for t in 0..usage.len() {
            if backlog[t] == 0 {
                continue;
            }
            let target = (usage[m] as u128 * weights[t] as u128)
                .div_ceil(weights[m] as u128)
                .min(u64::MAX as u128) as u64;
            usage[t] = usage[t].max(target.saturating_sub(backlog[t]));
        }
    }
}

/// One graph's slice of a completed round.
#[derive(Clone, Debug)]
pub struct GraphCompletion<T> {
    /// Which admitted graph this slice belongs to.
    pub ticket: GraphTicket,
    /// One output per job, indexed by the graph's [`JobId::index`].
    pub outputs: Vec<T>,
    /// Which core ran each job.
    pub assignment: Vec<usize>,
    /// Which round wave (0-based) dispatched each job.
    pub wave_of: Vec<usize>,
}

/// Everything one [`LacService::run_admitted`] round produces: per-graph
/// completions in admission order, plus the round-wide schedule meters.
#[derive(Clone, Debug)]
pub struct ServiceRound<T> {
    /// Completed graphs, in admission (ticket) order.
    pub graphs: Vec<GraphCompletion<T>>,
    /// Dependency waves the interleaved round took.
    pub waves: usize,
    /// Simulated clock at the end of each wave, relative to the start of
    /// the round: a graph completes at
    /// `wave_end_cycles[max(wave_of)]` past the round's start — how the
    /// open-loop traffic layer computes per-graph sojourn times.
    pub wave_end_cycles: Vec<u64>,
    /// Per-core dependency-stall cycles (`busy + idle = makespan`).
    pub idle_per_core: Vec<u64>,
    /// Merged busy breakdown; `makespan_cycles` is the round's simulated
    /// span with every admitted graph interleaved.
    pub stats: ChipStats,
    /// The round's observability log (job spans per core and tenant, idle
    /// fast-forwards) on the round-relative simulated clock — the same
    /// log a cluster round returns (see [`EventLog::shift`] to rebase).
    pub events: EventLog,
    /// Bytes the coordinator's bookkeeping reserved for the round (see
    /// [`crate::ClusterRun::coord_heap_bytes`]).
    pub coord_heap_bytes: usize,
}

/// A multi-core submission service: one chip whose shards stay warm
/// across submissions (architectural state and session meters persist),
/// so a solver loop submits round after round against the same cores.
/// It is the one-chip front of [`LacCluster`]: every door delegates to a
/// `LacCluster` built with [`ClusterConfig::homogeneous`]`(1, cfg)`, whose
/// runs borrow the calling thread plus a scoped worker for each other
/// core a multi-core dispatch batch needs.
///
/// ```
/// use lac_sim::{ChipConfig, JobGraph, LacConfig, LacService, ProgramBuilder, ProgramJob, Scheduler};
///
/// let mut svc: LacService<ProgramJob> =
///     LacService::new(ChipConfig::new(2, LacConfig::default()));
///
/// let graph = || -> JobGraph<ProgramJob> {
///     (1..=4)
///         .map(|i| {
///             let mut b = ProgramBuilder::new(LacConfig::default().nr);
///             b.idle(4 * i);
///             ProgramJob::new(b.build())
///         })
///         .collect()
/// };
///
/// // Two submissions against the same warm shards, plus an idle gap the
/// // energy model will price as static burn.
/// let first = svc.submit(&graph(), Scheduler::CriticalPath).unwrap();
/// svc.advance_idle(1_000);
/// let second = svc.submit(&graph(), Scheduler::CriticalPath).unwrap();
/// assert_eq!(first.outputs, second.outputs); // deterministic
/// assert_eq!(svc.session().graphs_run, 2);
/// assert_eq!(
///     svc.session().clock_cycles,
///     first.stats.makespan_cycles + second.stats.makespan_cycles + 1_000
/// );
/// ```
pub struct LacService<J: ChipJob> {
    cluster: LacCluster<J>,
}

impl<J: ChipJob> LacService<J> {
    /// Build the chip's shards (per-core bandwidth split per
    /// [`ChipConfig::shard_config`]). All cores share one compile cache,
    /// so a program fanned out across cores compiles once (see
    /// [`LacService::program_cache`]).
    pub fn new(cfg: ChipConfig) -> Self {
        Self {
            cluster: LacCluster::new(ClusterConfig::homogeneous(1, cfg)),
        }
    }

    /// The underlying chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cluster.config().chips[0]
    }

    /// The compile cache shared by every core of this service.
    pub fn program_cache(&self) -> &ProgramCache {
        self.cluster.program_cache()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config().cores
    }

    /// Run a job graph to completion under `sched` — the one-chip door:
    /// [`LacCluster::run_graph`] on this service's one chip, projected
    /// onto it. Its meters fold into the session.
    ///
    /// On a simulation error the earliest *observed* failure's error (by
    /// core index, then bucket position; see [`LacCluster::run_graph`]
    /// for the multi-failure caveat) is returned; peers stop at their
    /// next job boundary and no later wave is dispatched. Work that
    /// already simulated stays metered in the shards but a failed
    /// submission does not advance the service session — `Err` means
    /// "the graph did not complete".
    pub fn submit(
        &mut self,
        graph: &JobGraph<J>,
        sched: Scheduler,
    ) -> Result<GraphRun<J::Output>, SimError> {
        let mut run = self.cluster.run_graph(graph, sched)?;
        Ok(GraphRun {
            outputs: run.outputs,
            assignment: run.assignment.into_iter().map(|(_, core)| core).collect(),
            wave_of: run.wave_of,
            waves: run.waves,
            wave_end_cycles: run.wave_end_cycles,
            idle_per_core: run.idle_per_core.swap_remove(0),
            stats: run.stats.per_chip.swap_remove(0),
            events: run.events,
            coord_heap_bytes: run.coord_heap_bytes,
        })
    }

    /// Register a tenant on the multi-tenant submission door. Tenants are
    /// permanent for the service's lifetime; their ids index
    /// [`LacService::tenant_session`] and the fair-share deficit counters.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        self.cluster.add_tenant(cfg)
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.cluster.num_tenants()
    }

    /// The policy knobs tenant `t` registered with.
    pub fn tenant_config(&self, t: TenantId) -> &TenantConfig {
        self.cluster.tenant_config(t)
    }

    /// The tenant's lifetime meters (updated only by completed rounds).
    pub fn tenant_session(&self, t: TenantId) -> &TenantSession {
        self.cluster.tenant_session(t)
    }

    /// Every tenant's busy stats in registration order — the shape
    /// `lac_power::ChipEnergyModel::attribute` prices.
    pub fn tenant_busy_stats(&self) -> Vec<ExecStats> {
        self.cluster.tenant_busy_stats()
    }

    /// Graphs admitted and waiting for the next [`LacService::run_admitted`].
    pub fn pending_graphs(&self) -> usize {
        self.cluster.pending_graphs()
    }

    /// Total admitted-but-unrun cost currently queued, across tenants.
    pub fn pending_cost(&self) -> u64 {
        self.cluster.pending_cost()
    }

    /// Submit a graph through tenant `t`'s admission door: deterministic
    /// backpressure against the tenant's in-flight budget, exactly as
    /// [`LacCluster::enqueue`].
    pub fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>> {
        self.cluster.enqueue(t, graph)
    }

    /// Run every admitted graph to completion in one interleaved round,
    /// with the fair-share, banked-credit and failure semantics of
    /// [`LacCluster::run_admitted`]. On success the round's makespan
    /// advances the service clock once and its per-core meters fold into
    /// the service session; on error neither the session nor the tenant
    /// meters advance. The round takes ownership of the admitted jobs and
    /// drops each one as its output stands, so a round holds its outputs
    /// plus its live frontier, not every job until it returns.
    pub fn run_admitted(&mut self, sched: Scheduler) -> Result<ServiceRound<J::Output>, SimError> {
        let boost = vec![u64::MAX; self.num_tenants()];
        self.run_admitted_boosted(sched, &boost)
    }

    /// [`LacService::run_admitted`] with a per-tenant SLO boost:
    /// `boost[t]` is tenant `t`'s current deadline slack in simulated
    /// cycles (`u64::MAX` = unboosted), served least-slack-first under
    /// [`Scheduler::FairShare`] (see [`LacCluster::run_admitted_boosted`]).
    /// Boosting changes *when* jobs run, never the output bits. Jobs are
    /// owned by the round and dropped at their release, as in
    /// [`LacService::run_admitted`].
    pub fn run_admitted_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<ServiceRound<J::Output>, SimError> {
        let mut round = self.cluster.run_admitted_boosted(sched, boost)?;
        Ok(ServiceRound {
            graphs: round.graphs,
            waves: round.waves,
            wave_end_cycles: round.wave_end_cycles,
            idle_per_core: round.idle_per_core.swap_remove(0),
            stats: round.stats.per_chip.swap_remove(0),
            events: round.events,
            coord_heap_bytes: round.coord_heap_bytes,
        })
    }

    /// Model a gap between batches: the chip sits powered but idle for
    /// `cycles`. Only the service clock advances, so static/uncore energy
    /// accrues while busy counters do not.
    pub fn advance_idle(&mut self, cycles: u64) {
        self.cluster.advance_idle(cycles);
    }

    /// Lifetime meters across every submission since construction: the
    /// one-chip cluster's session (`chip_stats()` prices the service
    /// lifetime, idle included).
    pub fn session(&self) -> &ClusterSession {
        self.cluster.session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{ChipConfig, ProgramJob};
    use crate::config::LacConfig;
    use crate::core::Lac;
    use crate::error::HazardKind;
    use crate::isa::{ExtOp, ProgramBuilder, Source};

    /// The one-chip door on `cores` default cores.
    fn service<J: ChipJob>(cores: usize) -> LacService<J> {
        LacService::new(ChipConfig::new(cores, LacConfig::default()))
    }

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

    #[test]
    fn graph_construction_dedups_edges() {
        let mut g = JobGraph::new();
        let a = g.add(0u8);
        let b = g.add_after(1u8, &[a, a]);
        assert_eq!(g.parents_of(b).collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.edges().count(), 1);
        assert_eq!(a.index(), 0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "earlier-submitted")]
    fn forward_edges_are_rejected() {
        // A handle from a longer graph names a job this one does not have
        // yet: depending on it would point forwards.
        let mut other = JobGraph::new();
        let ahead = (0..3).map(|i| other.add(i as u8)).last().unwrap();
        let mut g = JobGraph::new();
        let a = g.add(0u8);
        g.add_after(1u8, &[a, ahead]);
    }

    #[test]
    fn critical_path_is_longest_cost_chain() {
        // chain 0→1→2 (costs 1,2,3) plus lone 3 (cost 10).
        let mut g = JobGraph::new();
        let a = g.add(());
        let b = g.add_after((), &[a]);
        g.add_after((), &[b]);
        g.add(());
        assert_eq!(g.critical_paths(&[1, 2, 3, 10]), vec![6, 5, 3, 10]);
    }

    #[test]
    fn flat_edges_append_and_invert() {
        let mut g = JobGraph::new();
        let a = g.add('a');
        let b = g.add_after('b', &[a]);
        g.add_after('c', &[b, a, b]);
        let mut fused = g.clone();
        assert_eq!(fused.append(g), (3..6).map(JobId).collect::<Vec<_>>());
        let edges: Vec<(usize, usize)> =
            fused.edges().map(|(p, c)| (p.index(), c.index())).collect();
        assert_eq!(edges, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let children = fused.children();
        let rows: Vec<&[usize]> = children.rows().collect();
        assert_eq!(rows, [&[1, 2][..], &[2], &[], &[4, 5], &[5], &[]]);
        assert_eq!(children.edge_count(), fused.parents.edge_count());
        assert_eq!(JobGraph::<u8>::new().children(), Adjacency::default());
    }

    #[test]
    fn plan_wave_is_work_conserving() {
        let costs = [5u64, 1, 1, 1, 1];
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
            Scheduler::FairShare,
        ] {
            let buckets = plan_wave(sched, &[0, 1, 2, 3, 4], &costs, &costs, 3);
            assert!(
                buckets.iter().all(|b| !b.is_empty()),
                "{sched:?} idled a core with ready jobs on hand"
            );
            // Fewer ready jobs than cores: nobody hoards.
            let buckets = plan_wave(sched, &[0, 1], &costs, &costs, 3);
            assert!(buckets.iter().all(|b| b.len() <= 1), "{sched:?} hoarded");
        }
        // The streaming quantum: FairShare never queues two jobs on one
        // core in a single wave.
        let buckets = plan_wave(Scheduler::FairShare, &[0, 1, 2, 3, 4], &costs, &costs, 3);
        assert!(buckets.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn fair_share_planner_interleaves_tenants_within_a_wave() {
        // Tenant 0 owns jobs {0,1,2}, tenant 1 owns {3,4,5}; equal usage
        // and weights, equal costs. The hungriest tenant must not take
        // every slot: picks alternate as local usage is charged.
        let costs = [1u64; 6];
        let tenant_of = [0, 0, 0, 1, 1, 1];
        let buckets = plan_wave_tenanted(
            &[0, 1, 2, 3, 4, 5],
            &costs,
            &costs,
            &tenant_of,
            &[0, 0],
            &[1, 1],
            &[u64::MAX; 2],
            4,
        );
        let picked: Vec<usize> = buckets.iter().flatten().copied().collect();
        assert_eq!(picked, vec![0, 3, 1, 4], "deficit picks alternate tenants");
        // A tenant with triple weight gets three slots to the other's one.
        let buckets = plan_wave_tenanted(
            &[0, 1, 2, 3, 4, 5],
            &costs,
            &costs,
            &tenant_of,
            &[0, 0],
            &[1, 3],
            &[u64::MAX; 2],
            4,
        );
        let t1_share = buckets
            .iter()
            .flatten()
            .filter(|&&j| tenant_of[j] == 1)
            .count();
        assert_eq!(t1_share, 3, "weight-3 tenant takes 3 of 4 quantum slots");
    }

    #[test]
    fn single_tenant_fair_share_matches_critical_path_outputs() {
        // The degradation guarantee: with one tenant every deficit is
        // equal, so FairShare picks in critical-path order and the
        // outputs (placement-independent by the determinism invariant)
        // are bit-identical to CriticalPath's.
        let build = || -> JobGraph<ProgramJob> {
            let mut g = JobGraph::new();
            let a = g.add(job(0, 9));
            let b = g.add_after(job(3, 2), &[a]);
            let c = g.add_after(job(1, 7), &[a]);
            for i in 0..4 {
                g.add_after(job(i, 1 + i as u64), &[b, c]);
            }
            g
        };
        let fs = service(2).submit(&build(), Scheduler::FairShare).unwrap();
        let cp = service(2)
            .submit(&build(), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(fs.outputs, cp.outputs);
        // And the quantum cap shows in the wave structure: FairShare
        // needs at least as many waves (one job per core per wave).
        assert!(fs.waves >= cp.waves);
    }

    #[test]
    fn multi_tenant_round_interleaves_and_meters() {
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let alice = svc.add_tenant(TenantConfig::new("alice"));
        let bob = svc.add_tenant(TenantConfig::new("bob"));
        let flat = |salt: usize| -> JobGraph<ProgramJob> {
            (0..4).map(|i| job(salt + i, 1 + i as u64)).collect()
        };
        let ta = svc.enqueue(alice, flat(0)).unwrap();
        let tb = svc.enqueue(bob, flat(8)).unwrap();
        assert_eq!((ta.seq, tb.seq), (0, 1));
        assert_eq!(svc.pending_graphs(), 2);

        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(svc.pending_graphs(), 0);
        assert_eq!(round.graphs.len(), 2);
        assert_eq!(round.graphs[0].ticket, ta);
        // Per-graph outputs are bit-identical to a dedicated single-tenant
        // service running the same graph (outputs are placement-free).
        let mut solo: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let solo_run = solo.submit(&flat(8), Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs[1].outputs, solo_run.outputs);

        // Meters: the round advanced the service clock once, and the
        // tenants partition the busy work.
        assert_eq!(svc.session().graphs_run, 2);
        assert_eq!(svc.session().clock_cycles, round.stats.makespan_cycles);
        let (a, b) = (svc.tenant_session(alice), svc.tenant_session(bob));
        assert_eq!(a.jobs_run + b.jobs_run, 8);
        assert_eq!(a.graphs_completed, 1);
        assert_eq!(a.inflight_cost, 0, "completed cost drained");
        assert_eq!(a.cost_completed + b.cost_completed, 2 * (1 + 2 + 3 + 4));
        let mut busy_sum = ExecStats::default();
        busy_sum.merge(&a.busy);
        busy_sum.merge(&b.busy);
        assert_eq!(busy_sum, round.stats.aggregate);
        // Wait-vs-run: on 2 cores with 8 unit-quantum jobs somebody waited.
        assert!(a.wait_cycles + b.wait_cycles > 0);
        assert_eq!(a.run_cycles(), a.busy.cycles);

        // Rerun the identical admission sequence on a fresh service: the
        // round is bit-identical (schedule, stats, outputs).
        let mut svc2: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let a2 = svc2.add_tenant(TenantConfig::new("alice"));
        let b2 = svc2.add_tenant(TenantConfig::new("bob"));
        svc2.enqueue(a2, flat(0)).unwrap();
        svc2.enqueue(b2, flat(8)).unwrap();
        let round2 = svc2.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.stats, round2.stats);
        assert_eq!(round.waves, round2.waves);
        for (g1, g2) in round.graphs.iter().zip(&round2.graphs) {
            assert_eq!(g1.outputs, g2.outputs);
            assert_eq!(g1.assignment, g2.assignment);
            assert_eq!(g1.wave_of, g2.wave_of);
        }
    }

    #[test]
    fn admission_backpressure_is_deterministic_and_hands_the_graph_back() {
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("bounded").with_admission_budget(10));
        let graph =
            |costs: &[u64]| -> JobGraph<ProgramJob> { costs.iter().map(|&c| job(0, c)).collect() };
        assert_eq!(graph(&[4, 3]).total_cost(), 7);
        svc.enqueue(t, graph(&[4, 3])).unwrap();
        // 7 in flight, budget 10: a cost-4 graph must bounce…
        let rejected = svc.enqueue(t, graph(&[2, 2])).unwrap_err();
        assert_eq!(rejected.graph_cost, 4);
        assert_eq!(rejected.inflight_cost, 7);
        assert_eq!(rejected.budget, 10);
        assert_eq!(rejected.graph.len(), 2, "the graph comes back intact");
        // …while a cost-3 one still fits.
        svc.enqueue(t, graph(&[3])).unwrap();
        assert_eq!(svc.tenant_session(t).graphs_rejected, 1);
        assert_eq!(svc.tenant_session(t).inflight_cost, 10);

        // Draining the round frees the budget; the bounced graph retries
        // successfully — backpressure, not denial.
        svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(svc.tenant_session(t).inflight_cost, 0);
        svc.enqueue(t, rejected.graph).unwrap();
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs.len(), 1);
        assert_eq!(svc.tenant_session(t).graphs_completed, 3);
    }

    #[test]
    fn fair_share_deficits_carry_across_rounds() {
        // Round 1: only alice runs, building up usage. Round 2: both
        // tenants submit — bob (zero usage) must be served first.
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(1, LacConfig::default()));
        let alice = svc.add_tenant(TenantConfig::new("alice"));
        let bob = svc.add_tenant(TenantConfig::new("bob"));
        let flat = || -> JobGraph<ProgramJob> { (0..3).map(|i| job(i, 5)).collect() };
        svc.enqueue(alice, flat()).unwrap();
        svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(svc.tenant_session(alice).cost_completed, 15);

        svc.enqueue(alice, flat()).unwrap();
        svc.enqueue(bob, flat()).unwrap();
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        // On one core the wave order is the pick order: bob's three jobs
        // must all dispatch before alice's first (bob trails by 15 cost).
        let alice_first = round.graphs[0].wave_of.iter().min().unwrap();
        let bob_last = round.graphs[1].wave_of.iter().max().unwrap();
        assert!(
            bob_last < alice_first,
            "bob (deficit 15) must be served before alice resumes"
        );
    }

    #[test]
    fn idle_credit_is_capped_at_own_backlog() {
        // alice and carol build up usage (100 and 60) while bob sits
        // idle. When bob finally submits, his banked credit is floored to
        // (busiest normalized usage − his backlog) = 100 − 30 = 70, so
        // carol (60) is served first — bob cannot convert indefinite
        // idleness into front-of-every-queue priority, only into
        // clearing his own backlog early.
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(1, LacConfig::default()));
        let alice = svc.add_tenant(TenantConfig::new("alice"));
        let bob = svc.add_tenant(TenantConfig::new("bob"));
        let carol = svc.add_tenant(TenantConfig::new("carol"));
        let flat = |jobs: usize, cost: u64| -> JobGraph<ProgramJob> {
            (0..jobs).map(|i| job(i, cost)).collect()
        };
        svc.enqueue(alice, flat(4, 25)).unwrap();
        svc.enqueue(carol, flat(2, 30)).unwrap();
        svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(svc.tenant_session(alice).cost_completed, 100);
        assert_eq!(svc.tenant_session(carol).cost_completed, 60);

        svc.enqueue(alice, flat(1, 10)).unwrap();
        svc.enqueue(carol, flat(1, 30)).unwrap();
        svc.enqueue(bob, flat(1, 30)).unwrap();
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        // One core, one job per wave: pick order is wave order. Floored
        // usages are alice 100, carol 60, bob 70 → carol, bob, alice.
        assert_eq!(round.graphs[1].wave_of, vec![0], "carol first (60)");
        assert_eq!(round.graphs[2].wave_of, vec![1], "bob capped to 70");
        assert_eq!(round.graphs[0].wave_of, vec![2], "alice last (100)");
        // The cap never inflates the truthful meter.
        assert_eq!(svc.tenant_session(bob).cost_completed, 30);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        svc.add_tenant(TenantConfig::new("idle"));
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs.len(), 0);
        assert_eq!(round.waves, 0);
        assert_eq!(round.stats.makespan_cycles, 0);
        assert_eq!(svc.session().graphs_run, 0);
    }

    #[test]
    fn failed_round_drains_inflight_but_not_sessions() {
        let bad = {
            let mut b = ProgramBuilder::new(LacConfig::default().nr);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
            ProgramJob::new(b.build())
        };
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("unlucky").with_admission_budget(100));
        let mut g = JobGraph::new();
        let a = g.add(job(0, 1));
        g.add_after(bad, &[a]);
        svc.enqueue(t, g).unwrap();
        svc.run_admitted(Scheduler::FairShare).unwrap_err();
        let s = svc.tenant_session(t);
        assert_eq!(s.inflight_cost, 0, "a failed round frees the budget");
        assert_eq!(s.graphs_completed, 0);
        assert_eq!(s.jobs_run, 0, "tenant meters only advance on success");
        assert_eq!(svc.session().graphs_run, 0);
        // The service recovers.
        let ok: JobGraph<ProgramJob> = (0..4).map(|i| job(i, 1)).collect();
        svc.enqueue(t, ok).unwrap();
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs[0].outputs.len(), 4);
    }

    #[test]
    fn critical_path_wave_order_prefers_long_chains() {
        // Priorities say job 2 unlocks the most downstream work.
        let costs = [1u64, 1, 1];
        let priority = [3u64, 5, 9];
        let buckets = plan_wave(Scheduler::CriticalPath, &[0, 1, 2], &costs, &priority, 1);
        assert_eq!(buckets[0], vec![2, 1, 0]);
    }

    #[test]
    fn diamond_runs_in_three_waves_with_idle_accounting() {
        // 0 → {1, 2} → 3 on two cores: the fan-out wave is parallel, the
        // fan-in waves leave core 1 idle.
        let mut g = JobGraph::new();
        let a = g.add(job(0, 1));
        let b = g.add_after(job(8, 1), &[a]);
        let c = g.add_after(job(4, 1), &[a]);
        let _d = g.add_after(job(0, 1), &[b, c]);
        let run = service(2).submit(&g, Scheduler::Fifo).unwrap();
        assert_eq!(run.waves, 3);
        assert_eq!(run.outputs.len(), 4);
        // Makespan = source + max(fan-out) + sink; per-core busy + idle
        // reconstructs it exactly.
        let fan = run.outputs[b.index()]
            .cycles
            .max(run.outputs[c.index()].cycles);
        assert_eq!(
            run.stats.makespan_cycles,
            run.outputs[0].cycles + fan + run.outputs[3].cycles
        );
        for core in 0..2 {
            assert_eq!(
                run.stats.per_core[core].cycles + run.idle_per_core[core],
                run.stats.makespan_cycles,
                "core {core}: busy + idle must equal the makespan"
            );
        }
        assert!(run.idle_per_core.iter().sum::<u64>() > 0);
    }

    #[test]
    fn chain_serializes_regardless_of_core_count() {
        let mut g = JobGraph::new();
        let mut prev = g.add(job(0, 1));
        for i in 1..5 {
            prev = g.add_after(job(i, 1), &[prev]);
        }
        let run = service(4).submit(&g, Scheduler::CriticalPath).unwrap();
        assert_eq!(run.waves, 5);
        assert_eq!(
            run.stats.makespan_cycles,
            run.outputs.iter().map(|o| o.cycles).sum::<u64>(),
            "a chain cannot overlap"
        );
    }

    #[test]
    fn service_keeps_session_across_submissions_and_idle() {
        let flat = || -> JobGraph<ProgramJob> { (0..6).map(|i| job(i, 1 + i as u64)).collect() };
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let first = svc.submit(&flat(), Scheduler::LeastLoaded).unwrap();
        let second = svc.submit(&flat(), Scheduler::LeastLoaded).unwrap();
        assert_eq!(first.outputs, second.outputs, "warm shards change nothing");
        assert_eq!(svc.session().graphs_run, 2);
        assert_eq!(svc.session().jobs_run(), 12);
        assert_eq!(
            svc.session().clock_cycles,
            first.stats.makespan_cycles + second.stats.makespan_cycles
        );
        svc.advance_idle(1_000);
        let stats = svc.session().chip_stats();
        assert_eq!(
            stats.makespan_cycles,
            first.stats.makespan_cycles + second.stats.makespan_cycles + 1_000
        );
        // Busy counters did not move with the idle clock.
        assert_eq!(
            stats.aggregate.cycles,
            first.stats.aggregate.cycles + second.stats.aggregate.cycles
        );
    }

    /// A job whose `run_on` panics (e.g. an operand assert) — must not
    /// deadlock the coordinator's wave collection, and comes back as a
    /// typed error.
    struct PanickyJob;

    impl ChipJob for PanickyJob {
        type Output = ExecStats;

        fn run_on(&self, _lac: &mut Lac) -> Result<ExecStats, crate::error::SimError> {
            panic!("operand shape rejected");
        }
    }

    #[test]
    fn panicking_job_propagates_instead_of_deadlocking() {
        let mut svc = service(2);
        let graph: JobGraph<PanickyJob> = [PanickyJob, PanickyJob].into_iter().collect();
        let err = svc.submit(&graph, Scheduler::Fifo).unwrap_err();
        // Both jobs panic, but one may be skipped once the other has:
        // either way the error names a job of the batch, on its core.
        match err.kind {
            HazardKind::JobPanicked { job, core, message } => {
                assert_eq!(job, core, "Fifo deals job k to core k");
                assert!(job < 2);
                assert_eq!(message, "operand shape rejected");
            }
            kind => panic!("expected a panicked job, got {kind:?}"),
        }
        assert_eq!((err.cycle, err.pe), (0, None));
    }

    #[test]
    fn service_survives_a_panicking_job() {
        // Mixed graph: the panicking job is caught where it ran and
        // returned as a typed error once the wave drains, so no worker
        // dies and the service keeps serving.
        struct MaybePanic(bool, ProgramJob);
        impl ChipJob for MaybePanic {
            type Output = ExecStats;
            fn run_on(&self, lac: &mut Lac) -> Result<ExecStats, crate::error::SimError> {
                assert!(!self.0, "bad operand");
                self.1.run_on(lac)
            }
        }
        let mut svc: LacService<MaybePanic> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let bad: JobGraph<MaybePanic> = vec![
            MaybePanic(false, job(0, 1)),
            MaybePanic(true, job(0, 1)),
            MaybePanic(false, job(0, 1)),
        ]
        .into_iter()
        .collect();
        let err = svc.submit(&bad, Scheduler::Fifo).unwrap_err();
        assert_eq!(
            err.kind,
            HazardKind::JobPanicked {
                job: 1,
                core: 1,
                message: "bad operand".to_string(),
            },
            "the panic surfaces through submit"
        );
        let ok: JobGraph<MaybePanic> = (0..4).map(|i| MaybePanic(false, job(i, 1))).collect();
        let run = svc.submit(&ok, Scheduler::LeastLoaded).unwrap();
        assert_eq!(run.outputs.len(), 4, "workers outlive a job panic");
    }

    #[test]
    fn service_error_leaves_it_usable() {
        let bad = {
            let mut b = ProgramBuilder::new(LacConfig::default().nr);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
            ProgramJob::new(b.build())
        };
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(2, LacConfig::default()));
        let mut g = JobGraph::new();
        let a = g.add(job(0, 1));
        g.add_after(bad, &[a]);
        let err = svc.submit(&g, Scheduler::Fifo).unwrap_err();
        assert_eq!(err.cycle, 0);
        assert_eq!(svc.session().graphs_run, 0, "failed graphs do not count");
        // The service recovers: the next submission completes.
        let ok: JobGraph<ProgramJob> = (0..4).map(|i| job(i, 1)).collect();
        let run = svc.submit(&ok, Scheduler::CriticalPath).unwrap();
        assert_eq!(run.outputs.len(), 4);
        assert_eq!(svc.session().graphs_run, 1);
    }
}
