//! The coordinator: the one function every door of the stack calls.
//!
//! [`crate::cluster::LacCluster`]'s `run_graph` and rounds (which
//! [`crate::service::LacService`] fronts as a one-chip cluster) describe
//! their shards as one `Topology` — N chips of cores joined by links,
//! where one chip has no cut edge to price — and hand their job pool to
//! `coordinate`.
//! It owns the stack's one worker pool: the calling thread runs one
//! core's share of every dispatch batch itself, and a scoped worker is
//! spawned for another core the first time a batch needs it (joined when
//! the run returns), so a batch on one core never crosses a thread and a
//! run without multi-core batches spawns none. It runs every run through
//! one timing loop, collects every dispatch batch through one
//! failure-slot routine and returns one result type, `CoordRun`. Failure
//! and metering semantics therefore cannot drift between deployment
//! layers or time models.
//!
//! The loop is a classic discrete-event simulator over *components with
//! independent clocks*: cores, directed inter-chip links and chips (which
//! carry their scheduled [`crate::fault::FaultPlan`] kills). Pending
//! events live in one min-heap ordered by `(tick, component, seq)`;
//! component ids order chips before links before cores, so a fault due at
//! tick `t` revokes a job completing at the same tick, and the sequence
//! number (assigned at deterministic push points) breaks every remaining
//! tie. Idle fast-forward falls out of the heap: with no core busy, the
//! loop pops the next event and accounts the gap as one stall. Every pick
//! reads an index of the ready queue (one ordered set per chip and
//! tenant, plus a min-heap of jobs still waiting on a transfer), so it
//! costs O(tenants · log n), never a scan of the pool.
//!
//! The two time models ([`SimMode`]) are two dispatch rules on that loop:
//!
//! * **Events** ([`SimMode::Event`]): every core is busy exactly while a
//!   job runs on it and takes a new job the tick it frees; every link
//!   serializes the transfers it carries (two transfers on one link
//!   queue, transfers on different links and compute on both endpoints
//!   overlap); a kill fires at its exact tick.
//! * **Waves** ([`SimMode::Wave`], the default): a batch dispatches only
//!   when every core is idle. Each chip deals its whole ready set into
//!   per-core buckets under the [`Scheduler`] policy, the shared clock
//!   advances by the slowest bucket anywhere, the kills due by then fire
//!   at that barrier, and only then are children released — a child
//!   whose parent ran on another chip waits for the modeled transfer,
//!   which starts at the barrier.
//!
//! Host interleavings never reach either clock: job reports are
//! buffered per dispatch batch and folded in job-id order, so runs are
//! bit-identical across reruns, core counts and machines.
//!
//! **Equivalence contract** (property-tested in `tests/event_props.rs`):
//! outputs are bit-identical between the two modes on every graph — job
//! outputs are placement-independent and both rules dispatch a child only
//! after all its parents were released. Only *clocks* may differ: event mode
//! overlaps transfers with compute, so on cut-edge graphs its makespan is
//! typically well below wave mode's.

#![warn(clippy::too_many_lines)]

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crate::chip::{ChipJob, ChipStats, Scheduler};
use crate::core::Lac;
use crate::error::{HazardKind, SimError};
use crate::fault::FaultEvent;
use crate::service::{critical_paths, plan_wave, plan_wave_tenanted_slo, Adjacency, JobGraph};
use crate::stats::ExecStats;
use crate::trace::{EventLog, TraceEvent};

/// Which time model a chip, service or cluster drives its graphs with:
/// the dispatch rule of the coordinator's one event loop.
///
/// The knob lives on [`crate::chip::ChipConfig`] (every chip of a
/// cluster must agree; [`crate::cluster::ClusterConfig::with_sim_mode`]
/// sets them all) and defaults to waves, the compatibility mode every
/// committed clock and baseline was recorded under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimMode {
    /// Lock-step waves (the default): dispatch only when every core is
    /// idle, deal each chip's ready set into per-core buckets, advance the
    /// shared clock by the slowest bucket, fire the kills due by that
    /// barrier, then release children.
    #[default]
    Wave,
    /// Eager dispatch: each core takes a job the tick it frees, cut-edge
    /// transfers overlap with compute and queue on their link, kills fire
    /// at their exact tick. Outputs are bit-identical to
    /// [`SimMode::Wave`]; makespans are usually shorter on graphs with
    /// cross-chip edges.
    Event,
}

/// The shards a run coordinates over: chips of cores, the inter-chip link
/// model, and the time model.
#[derive(Clone, Debug)]
pub(crate) struct Topology {
    /// Core count per chip, in chip-id order.
    pub(crate) cores_per_chip: Vec<usize>,
    /// Inter-chip link bandwidth, words per cycle (serialization rate).
    pub(crate) link_words_per_cycle: u64,
    /// Fixed per-hop latency, cycles — pipelined, so it delays the
    /// payload but does not occupy the link.
    pub(crate) hop_latency_cycles: u64,
    /// The time model.
    pub(crate) mode: SimMode,
}

impl Topology {
    /// Every chip's slice of the flat (chips laid end to end) core list.
    pub(crate) fn chip_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.cores_per_chip.iter().scan(0, |start, &cores| {
            let range = *start..*start + cores;
            *start += cores;
            Some(range)
        })
    }
}

/// Everything one run schedules: the fused job pool (per-job hints, edges
/// and tenant tags), the tenancy, the fault schedule and the run state the
/// loop mutates in place.
pub(crate) struct Plan<'a> {
    /// Scheduler cost hint per job.
    pub(crate) costs: &'a [u64],
    /// Output size per job, words (prices cut edges).
    pub(crate) transfer_words: &'a [u64],
    /// Row `j` — jobs that must complete before `j` runs.
    pub(crate) parents: &'a Adjacency,
    /// Row `j` — jobs that wait on `j`: the inverse of `parents`, derived
    /// once per run.
    pub(crate) children: &'a Adjacency,
    /// Tenant index per job.
    pub(crate) tenant_of: &'a [usize],
    /// Fair-share weight per tenant.
    pub(crate) weights: &'a [u64],
    /// SLO deadline slack per tenant (`u64::MAX` = unboosted).
    pub(crate) boost: &'a [u64],
    /// Scheduled chip kills, on the session clock, sorted by tick.
    pub(crate) faults: &'a [FaultEvent],
    /// Session clock at run start (fault ticks are relative to it).
    pub(crate) base: u64,
    /// The dispatch policy.
    pub(crate) sched: Scheduler,
    /// Fair-share usage per tenant, charged as jobs dispatch, so
    /// quantum-capped waves see usage evolve within the run.
    pub(crate) usage: Vec<u64>,
    /// Chip per job at run start (the run keeps the live placement in its
    /// own table).
    pub(crate) chip_of: &'a [usize],
    /// One past each graph's last job, in pool order: the pool is its
    /// graphs laid end to end, and the run keeps one output vector per
    /// graph.
    pub(crate) graph_ends: &'a [usize],
}

/// Per-job hints of one graph plus its tenant tags and the children its
/// run releases (derived from the graph's parents). An untenanted graph
/// (the cluster's `run_graph`, which the service's `submit` fronts) puts
/// every job in one anonymous tenant with fresh usage; a round's fused
/// graph tags each job with its tenant.
pub(crate) struct Hints {
    costs: Vec<u64>,
    transfer_words: Vec<u64>,
    tenant_of: Vec<usize>,
    children: Adjacency,
    graph_ends: Vec<usize>,
}

impl Hints {
    /// Read `graph`'s cost and transfer hints; every job is tenant 0, and
    /// the graph is one.
    pub(crate) fn of<J: ChipJob>(graph: &JobGraph<J>) -> Self {
        Self::tenanted(graph, vec![0; graph.len()], vec![graph.len()])
    }

    /// Read `graph`'s cost and transfer hints, with `tenant_of[j]` job
    /// `j`'s tenant index and `graph_ends` the end of each fused graph's
    /// jobs, and derive its children.
    pub(crate) fn tenanted<J: ChipJob>(
        graph: &JobGraph<J>,
        tenant_of: Vec<usize>,
        graph_ends: Vec<usize>,
    ) -> Self {
        Self {
            costs: graph.jobs.iter().map(|j| j.cost_hint()).collect(),
            transfer_words: graph.jobs.iter().map(|j| j.transfer_words()).collect(),
            tenant_of,
            children: graph.children(),
            graph_ends,
        }
    }

    /// The fault-free, single-tenant plan of `graph` under `sched`, not
    /// yet placed: a round overrides the tenancy, and the cluster sets the
    /// placement and the faults.
    pub(crate) fn plan<'a, J>(&'a self, graph: &'a JobGraph<J>, sched: Scheduler) -> Plan<'a> {
        Plan {
            costs: &self.costs,
            transfer_words: &self.transfer_words,
            parents: &graph.parents,
            children: &self.children,
            tenant_of: &self.tenant_of,
            weights: &[1],
            boost: &[u64::MAX],
            faults: &[],
            base: 0,
            sched,
            usage: vec![0],
            chip_of: &[],
            graph_ends: &self.graph_ends,
        }
    }
}

/// How one dispatched job ended.
enum JobOutcome<T> {
    /// Output plus the job's session-stats delta.
    Completed(T, ExecStats),
    /// Skipped at the job boundary because a peer already failed.
    Skipped,
    /// The simulation rejected the schedule.
    Failed(SimError),
    /// The job itself panicked (caught so the job can still report —
    /// an unreported job would deadlock batch collection). The
    /// coordinator re-raises after the batch drains.
    Panicked(String),
}

/// What the caller or a worker reports back per dispatched job.
struct Done<T> {
    /// Global core index the job ran on.
    core: usize,
    /// Pool index of the job.
    job: usize,
    /// How it ended.
    outcome: JobOutcome<T>,
}

/// Run one job on its core, honoring the shared abort flag and measuring
/// the session delta. Never unwinds: every dispatched job must produce a
/// report, or the coordinator would wait forever.
fn run_one<J: ChipJob>(lac: &mut Lac, job: &J, abort: &AtomicBool) -> JobOutcome<J::Output> {
    if abort.load(Ordering::Relaxed) {
        return JobOutcome::Skipped;
    }
    let before = *lac.session_stats();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_on(lac))) {
        Ok(Ok(out)) => JobOutcome::Completed(out, lac.session_stats().since(&before)),
        Ok(Err(e)) => {
            abort.store(true, Ordering::Relaxed);
            JobOutcome::Failed(e)
        }
        Err(payload) => {
            abort.store(true, Ordering::Relaxed);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            JobOutcome::Panicked(msg)
        }
    }
}

/// Per-tenant meter deltas of one run.
#[derive(Clone, Debug, Default)]
pub(crate) struct TenantDelta {
    /// Busy stats of this tenant's completed jobs.
    pub(crate) busy: ExecStats,
    /// Jobs this tenant completed.
    pub(crate) jobs: u64,
    /// Simulated cycles this tenant's jobs spent ready-but-undispatched
    /// (dispatch clock minus ready clock, summed over jobs).
    pub(crate) wait_cycles: u64,
    /// Cost hints this tenant dispatched — the fair-share usage currency.
    pub(crate) cost_dispatched: u64,
}

/// Everything one coordinated run produces, in flat global-core order
/// (chips laid end to end). The cluster splits it back into chips with
/// [`Topology::chip_ranges`].
#[derive(Debug)]
pub(crate) struct CoordRun<T> {
    /// One output vector per graph of the plan (`Plan::graph_ends`), each
    /// in job order.
    pub(crate) outputs: Vec<Vec<T>>,
    /// `(chip, core-within-chip)` of each job's last, non-revoked
    /// execution.
    pub(crate) assignment: Vec<(usize, usize)>,
    /// Wave (event mode: completion-tick rank) of each job.
    pub(crate) wave_of: Vec<usize>,
    /// Clock at the end of each wave (event mode: the sorted distinct
    /// completion ticks), so `wave_ends[wave_of[j]]` is job `j`'s
    /// completion tick.
    pub(crate) wave_ends: Vec<u64>,
    /// Busy-stats delta per global core (revoked executions included —
    /// the energy was burned).
    pub(crate) per_core: Vec<ExecStats>,
    /// Executions per global core (revoked included).
    pub(crate) jobs_per_core: Vec<u64>,
    /// Idle cycles per global core. Waves: `busy + idle = makespan`
    /// (stalls included); events: `busy + idle + stall = makespan`.
    pub(crate) idle_per_core: Vec<u64>,
    /// Final simulated tick.
    pub(crate) makespan: u64,
    /// Cycles with every core idle, waiting on transfers or faults.
    pub(crate) stall_cycles: u64,
    /// Total words moved across links.
    pub(crate) transferred_words: u64,
    /// Total modeled link cycles charged.
    pub(crate) transfer_cycles: u64,
    /// Per-tenant meter deltas (dispatch-charged).
    pub(crate) per_tenant: Vec<TenantDelta>,
    /// Job spans, transfers (the run's one record of them), faults,
    /// requeues and idle fast-forwards on the run-relative clock.
    pub(crate) events: EventLog,
    /// Bytes the run's bookkeeping reserved (`capacity × size_of`): the
    /// per-job table, the ready index and the log.
    pub(crate) coord_heap_bytes: usize,
}

impl<T> CoordRun<T> {
    /// The meters of the global cores in `cores` (one chip's slice) as
    /// [`ChipStats`]; every chip powers through the whole run, so each
    /// reports the run's makespan.
    pub(crate) fn chip_stats(&self, cores: Range<usize>) -> ChipStats {
        let per_core = self.per_core[cores.clone()].to_vec();
        let mut aggregate = ExecStats::default();
        for s in &per_core {
            aggregate.merge(s);
        }
        ChipStats {
            per_core,
            jobs_per_core: self.jobs_per_core[cores].to_vec(),
            makespan_cycles: self.makespan,
            aggregate,
        }
    }
}

/// Coordinate one run of `plan` on `topo` over `shards` (global core
/// order); `job_of` maps a pool index to its job. Drives the timing loop
/// and runs every dispatch batch: the calling thread runs the share
/// of the batch's first-dispatched core itself, and every other core's
/// jobs go to that core's scoped worker — spawned the first time a batch
/// needs it and joined when the run returns (dropping the submission
/// channels stops it). A shard sits behind its own lock so the caller and
/// a worker can both reach it; the lock is never contended, because a
/// batch gives each core to one thread and drains before the next
/// dispatch. `dead` marks chips killed so far and is updated in place as
/// faults fire (a dead chip stays dead for every later run).
///
/// On a simulation error the earliest *observed* failure by dispatch
/// order (global core, then bucket position within a wave) is returned;
/// peers stop at their next job boundary and nothing later dispatches. A
/// panicking job is re-raised once its batch drains, so no worker dies.
pub(crate) fn coordinate<'j, J: ChipJob + 'j>(
    topo: &Topology,
    plan: Plan<'_>,
    dead: &mut [bool],
    shards: Vec<&mut Lac>,
    job_of: &(dyn Fn(usize) -> &'j J + Sync),
) -> Result<CoordRun<J::Output>, SimError> {
    let abort = AtomicBool::new(false);
    let shards: Vec<Mutex<&mut Lac>> = shards.into_iter().map(Mutex::new).collect();
    let run_on = |core: usize, job: usize| {
        // `run_one` never unwinds, so no guard is dropped mid-panic and
        // the lock cannot be poisoned.
        let mut lac = shards[core].lock().expect("shard lock poisoned");
        Done {
            core,
            job,
            outcome: run_one(&mut lac, job_of(job), &abort),
        }
    };
    let run_on = &run_on;
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel::<Done<J::Output>>();
        // Each core's worker, once a batch has needed it.
        let workers: RefCell<Vec<Option<Sender<usize>>>> =
            RefCell::new((0..shards.len()).map(|_| None).collect());
        // The core whose share of the current batch the caller runs, and
        // that share, in dispatch order.
        let caller_core: Cell<Option<usize>> = Cell::new(None);
        let caller_jobs: RefCell<VecDeque<usize>> = RefCell::new(VecDeque::new());
        Run::new(topo, plan, dead).run(
            &|core, job| {
                if caller_core.get().unwrap_or(core) == core {
                    caller_core.set(Some(core));
                    caller_jobs.borrow_mut().push_back(job);
                    return Ok(());
                }
                let mut workers = workers.borrow_mut();
                let tx = workers[core].get_or_insert_with(|| {
                    let (tx, rx) = channel::<usize>();
                    let done_tx = done_tx.clone();
                    scope.spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if done_tx.send(run_on(core, job)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                });
                tx.send(job).map_err(|_| worker_lost())
            },
            &|| {
                // The caller's own share first (the workers run theirs
                // meanwhile), then the workers' reports as they land.
                let mut own = caller_jobs.borrow_mut();
                match own.pop_front() {
                    Some(job) => {
                        let core = caller_core.get().expect("the caller's core is set");
                        if own.is_empty() {
                            caller_core.set(None); // the next batch picks afresh
                        }
                        drop(own);
                        Ok(run_on(core, job))
                    }
                    None => recv_report(&done_rx),
                }
            },
        )
    })
}

/// The error a run ends with when a worker hung up.
fn worker_lost() -> SimError {
    SimError {
        cycle: 0,
        pe: None,
        kind: HazardKind::WorkerLost,
    }
}

/// The next worker report, or [`HazardKind::WorkerLost`] once every
/// worker has hung up.
fn recv_report<T>(rx: &Receiver<Done<T>>) -> Result<Done<T>, SimError> {
    rx.recv().map_err(|_| worker_lost())
}

/// Collect exactly `dispatched` reports for one dispatch batch and fold
/// the completions into `meters` and `outputs`, in job-id order whatever
/// order the host delivered them in. Returns `(job, global core, busy
/// cycles)` per completion, by job id. Among observed failures the job
/// earliest in dispatch order (`dispatch_seq`) wins; panics are re-raised
/// first (they are harness bugs, not schedule rejections). Once this
/// returns nothing is in flight, so the workers stay usable.
fn collect_batch<T>(
    dispatched: usize,
    collect: &dyn Fn() -> Result<Done<T>, SimError>,
    dispatch_seq: &[u32],
    tenant_of: &[usize],
    meters: &mut Meters,
    outputs: &mut Outputs<'_, T>,
) -> Result<Vec<(usize, usize, u64)>, SimError> {
    let mut done: Vec<(usize, usize, T, ExecStats)> = Vec::with_capacity(dispatched);
    let mut first_err: Option<(u32, SimError)> = None;
    let mut first_panic: Option<(u32, usize, usize, String)> = None;
    for _ in 0..dispatched {
        let report = collect()?;
        let slot = dispatch_seq[report.job];
        match report.outcome {
            JobOutcome::Completed(out, delta) => done.push((report.job, report.core, out, delta)),
            // Skipped at the job boundary after a peer's failure: no
            // simulated work happened.
            JobOutcome::Skipped => {}
            JobOutcome::Failed(e) => {
                if first_err.as_ref().is_none_or(|(s, _)| slot < *s) {
                    first_err = Some((slot, e));
                }
            }
            JobOutcome::Panicked(msg) => {
                if first_panic.as_ref().is_none_or(|(s, ..)| slot < *s) {
                    first_panic = Some((slot, report.job, report.core, msg));
                }
            }
        }
    }
    if let Some((_, job, core, msg)) = first_panic {
        panic!("job {job} panicked on core {core}: {msg}");
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    done.sort_by_key(|&(j, ..)| j);
    Ok(done
        .into_iter()
        .map(|(j, core, out, delta)| {
            meters.per_core[core].merge(&delta);
            meters.jobs_per_core[core] += 1;
            let t = &mut meters.per_tenant[tenant_of[j]];
            t.busy.merge(&delta);
            t.jobs += 1;
            *outputs.slot(j) = Some(out);
            (j, core, delta.cycles)
        })
        .collect())
}

/// One output slot per job, kept as one vector per graph of the pool
/// from the start, so a round hands each graph its own outputs without
/// splitting or copying a fused buffer.
struct Outputs<'a, T> {
    /// One past each graph's last job.
    ends: &'a [usize],
    graphs: Vec<Vec<Option<T>>>,
}

impl<'a, T> Outputs<'a, T> {
    fn new(ends: &'a [usize]) -> Self {
        let mut start = 0;
        let graphs = ends
            .iter()
            .map(|&end| {
                let slots = (start..end).map(|_| None).collect();
                start = end;
                slots
            })
            .collect();
        Self { ends, graphs }
    }

    /// Number of jobs.
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Job `j`'s slot.
    fn slot(&mut self, j: usize) -> &mut Option<T> {
        let g = self.ends.partition_point(|&end| end <= j);
        let start = if g == 0 { 0 } else { self.ends[g - 1] };
        &mut self.graphs[g][j - start]
    }

    /// Unwrap every slot once every job completed. The unwrap reuses each
    /// graph's buffer, which is then trimmed to fit where an output is
    /// smaller than its slot.
    fn finish(self) -> Vec<Vec<T>> {
        let mut start = 0;
        self.graphs
            .into_iter()
            .map(|slots| {
                let base = start;
                start += slots.len();
                let mut outputs: Vec<T> = slots
                    .into_iter()
                    .enumerate()
                    .map(|(j, o)| {
                        let j = base + j;
                        o.unwrap_or_else(|| panic!("job {j} never became ready (dangling parent?)"))
                    })
                    .collect();
                outputs.shrink_to_fit();
                outputs
            })
            .collect()
    }
}

/// A simulated component owning a clock on the event heap. The derived
/// order — chips, then links, then cores — is part of the determinism
/// contract: at equal ticks, faults fire before transfer arrivals fire
/// before job completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ComponentId {
    /// A whole chip; carries that chip's fault ticks.
    Chip(usize),
    /// The directed link `(from, to)`; carries transfer arrivals.
    Link(usize, usize),
    /// A global core index; carries job completions.
    Core(usize),
}

/// What happens when an event fires. The payload never participates in
/// heap ordering.
#[derive(Clone, Copy, Debug)]
enum EventKind {
    /// `faults[idx]` is due: kill its chip.
    Fault(usize),
    /// A cross-chip payload landed; the clock tick is the information
    /// (readiness is tracked in `ready_at`), so no payload is needed.
    TransferArrive,
    /// The job running on a core retired.
    JobDone { core: usize, job: usize },
}

/// One heap entry: `(tick, component, seq)` is the total order.
#[derive(Clone, Copy, Debug)]
struct Event {
    tick: u64,
    comp: ComponentId,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.tick, self.comp, self.seq) == (other.tick, other.comp, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.tick, self.comp, self.seq).cmp(&(other.tick, other.comp, other.seq))
    }
}

/// A pool index as a table entry. Every id column of the per-job table is
/// `u32`; a run's job count, in-degrees, batch positions and log indices
/// all fit.
fn id32(x: usize) -> u32 {
    u32::try_from(x).expect("invariant: a run indexes fewer than 2^32 jobs and events")
}

/// The run's per-job bookkeeping: one struct of arrays, every column
/// allocated once at the job count and never grown. Ids are `u32`, flags
/// one byte each. A column only one time model reads exists only in that
/// mode (empty in the other): event mode keeps each job's dispatch tick,
/// waves keep each job's wave, busy cycles and span index.
struct JobTable {
    /// Chip per job; a fault requeues jobs off a dead chip in place.
    chip: Vec<u32>,
    /// Parents not yet released.
    indegree: Vec<u32>,
    /// Tick the job's last parent payload is available on its chip.
    ready_at: Vec<u64>,
    /// Position in its dispatch batch (the failure tie-break).
    dispatch_seq: Vec<u32>,
    /// In the dispatchable pool: all parents released, not dispatched.
    queued: Vec<bool>,
    /// The job's output stands.
    finished: Vec<bool>,
    /// Its children were freed. Event mode sets `finished` and
    /// `released` at once; a wave's jobs sit between the two until the
    /// kills due at their barrier have fired.
    released: Vec<bool>,
    /// A kill hit the job while it ran (event mode): its completion
    /// requeues it instead of finishing it.
    revoked: Vec<bool>,
    /// Event mode: the tick the job's current execution started.
    dispatch_tick: Vec<u64>,
    /// Waves: the wave that dispatched the job.
    wave_of: Vec<usize>,
    /// Waves: the job's busy cycles in its wave.
    job_cycles: Vec<u64>,
    /// Waves: the log index of the job's span, flipped to discarded if a
    /// kill at its barrier revokes it.
    log_at: Vec<u32>,
}

impl JobTable {
    /// The table of `plan`'s jobs, placed by `plan.chip_of`, for the time
    /// model `wave` selects.
    fn new(plan: &Plan<'_>, wave: bool) -> Self {
        let n = plan.costs.len();
        let indegree: Vec<u32> = plan.parents.rows().map(|r| id32(r.len())).collect();
        let (event_only, wave_only) = if wave { (0, n) } else { (n, 0) };
        Self {
            chip: plan.chip_of.iter().map(|&c| id32(c)).collect(),
            queued: indegree.iter().map(|&d| d == 0).collect(),
            indegree,
            ready_at: vec![0; n],
            dispatch_seq: vec![0; n],
            finished: vec![false; n],
            released: vec![false; n],
            revoked: vec![false; n],
            dispatch_tick: vec![0; event_only],
            wave_of: vec![0; wave_only],
            job_cycles: vec![0; wave_only],
            log_at: vec![0; wave_only],
        }
    }

    /// The waves column, the one column that outlives the run; the
    /// others are freed here.
    fn into_wave_of(self) -> Vec<usize> {
        self.wave_of
    }

    /// Job `j`'s chip.
    fn chip(&self, j: usize) -> usize {
        self.chip[j] as usize
    }

    /// Bytes the columns reserve (`capacity × size_of`).
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.chip)
            + vec_bytes(&self.indegree)
            + vec_bytes(&self.ready_at)
            + vec_bytes(&self.dispatch_seq)
            + vec_bytes(&self.queued)
            + vec_bytes(&self.finished)
            + vec_bytes(&self.released)
            + vec_bytes(&self.revoked)
            + vec_bytes(&self.dispatch_tick)
            + vec_bytes(&self.wave_of)
            + vec_bytes(&self.job_cycles)
            + vec_bytes(&self.log_at)
    }
}

/// `capacity × size_of` of one vector.
fn vec_bytes<X>(v: &Vec<X>) -> usize {
    v.capacity() * std::mem::size_of::<X>()
}

/// Per-core and per-tenant meters and the link and stall clocks of one
/// run.
struct Meters {
    per_core: Vec<ExecStats>,
    jobs_per_core: Vec<u64>,
    per_tenant: Vec<TenantDelta>,
    stall_cycles: u64,
    transferred_words: u64,
    transfer_cycles: u64,
}

impl Meters {
    fn new(cores: usize, tenants: usize) -> Self {
        Self {
            per_core: vec![ExecStats::default(); cores],
            jobs_per_core: vec![0; cores],
            per_tenant: vec![TenantDelta::default(); tenants],
            stall_cycles: 0,
            transferred_words: 0,
            transfer_cycles: 0,
        }
    }
}

/// One coordinated run: the one timing loop and everything it mutates —
/// the plan, the per-job table, the ready index, the event heap, the
/// meters and the log — run against a dispatch/collect pair.
/// `dispatch(core, job)` hands a pool job to a core, `collect()` blocks
/// for the next report; either fails only when a worker hung up
/// ([`HazardKind::WorkerLost`]), which ends the run. Workers report real
/// measured [`ExecStats`] deltas, and every dispatch batch is drained
/// before the simulated clock moves, so job durations are known before
/// the clock passes them.
///
/// Each pass fires the heap's due events, one handler per
/// [`EventKind`], and releases a finished wave ([`Run::fire_due`]);
/// dispatches ([`Run::dispatch_ready`]); drains the batch; and hops to the
/// next event ([`Run::hop`]). The time model is only the dispatch rule:
///
/// * **Events** give every idle core on an alive chip the policy's best
///   ready job; its completion becomes a heap event at its measured tick.
/// * **Waves** dispatch only when every core is idle (which a wave leaves
///   them at its barrier): each alive chip deals its whole ready set into
///   per-core buckets (`FairShare`: one job per core), exactly as
///   [`plan_wave`] and [`plan_wave_tenanted_slo`] plan it. The wave finishes
///   at its barrier — the clock advances by the slowest bucket — but is
///   released only after the kills due by then have fired (revoking the
///   dying chip's share of it).
///
/// Fault model, requeue rules and metering are shared (see
/// [`crate::fault`]); in event mode a kill fires at its exact tick,
/// revoking whatever runs on the dying chip then.
///
/// Nothing is sized by growth: the table is allocated once at the job
/// count, and the log is reserved once for one span per job, one transfer
/// per cut edge and one record per scheduled kill — the exact count of a
/// run without faults or stalls.
struct Run<'a, T> {
    topo: &'a Topology,
    /// Hints, edges, tenancy and faults. `plan.chip_of` is the initial
    /// placement; the table's `chip` column is the live one.
    plan: Plan<'a>,
    /// Chips killed so far, updated in place as faults fire.
    dead: &'a mut [bool],
    wave: bool,
    /// Every chip's slice of the global cores.
    chip_cores: Vec<Range<usize>>,
    /// `(chip, core-within-chip)` per global core.
    core_place: Vec<(usize, usize)>,
    jobs: JobTable,
    /// One output slot per job, filled as jobs complete.
    outputs: Outputs<'a, T>,
    index: ReadyIndex<'a>,
    heap: BinaryHeap<Reverse<Event>>,
    /// The next event's sequence number.
    next_seq: u64,
    meters: Meters,
    events: EventLog,
    /// The job each global core runs (event mode).
    core_job: Vec<Option<usize>>,
    busy_cores: usize,
    /// Tick each directed link `from * chips + to` frees (event mode).
    link_free: Vec<u64>,
    /// The batch being dispatched per global core (a wave's buckets).
    by_core: Vec<Vec<usize>>,
    /// Hint load dealt to each global core in the current wave.
    core_load: Vec<u64>,
    /// A wave's jobs in id order, from its barrier until their release.
    barrier: Vec<usize>,
    /// Waves: the clock at each barrier.
    wave_ends: Vec<u64>,
    now: u64,
    released_count: usize,
}

impl<'a, T> Run<'a, T> {
    /// The run of `plan` on `topo`, before anything dispatches. Faults are
    /// ordinary events from the start; kills already due at run start
    /// fire at tick 0, before anything dispatches. Events order one tick's
    /// kills by chip; waves fire every kill due at a barrier in plan
    /// order, so they file them all under chip 0.
    fn new(topo: &'a Topology, plan: Plan<'a>, dead: &'a mut [bool]) -> Self {
        let n = plan.costs.len();
        assert_eq!(
            plan.chip_of.len(),
            n,
            "invariant: the caller places every job"
        );
        assert_eq!(
            plan.graph_ends.last().copied().unwrap_or(0),
            n,
            "invariant: the graphs cover the pool"
        );
        let wave = topo.mode == SimMode::Wave;
        let chips = topo.cores_per_chip.len();
        let chip_cores: Vec<Range<usize>> = topo.chip_ranges().collect();
        let core_place: Vec<(usize, usize)> = chip_cores
            .iter()
            .enumerate()
            .flat_map(|(chip, cores)| (0..cores.len()).map(move |c| (chip, c)))
            .collect();
        let cores = core_place.len();
        let jobs = JobTable::new(&plan, wave);
        let order = PickOrder {
            sched: plan.sched,
            priority: critical_paths(plan.costs, plan.parents),
            tenant_of: plan.tenant_of,
            weights: plan.weights,
            boost: plan.boost,
        };
        let mut index = ReadyIndex::new(order, chips, n);
        for j in (0..n).filter(|&j| jobs.queued[j]) {
            index.insert(j, jobs.chip(j), 0, 0);
        }
        let faults = if n > 0 { plan.faults } else { &[] };
        let cut_edges: usize = plan
            .parents
            .rows()
            .enumerate()
            .map(|(c, ps)| ps.iter().filter(|&&p| jobs.chip[p] != jobs.chip[c]).count())
            .sum();
        let outputs = Outputs::new(plan.graph_ends);
        let mut run = Self {
            topo,
            meters: Meters::new(cores, plan.weights.len()),
            events: EventLog::with_capacity(n + cut_edges + faults.len()),
            plan,
            dead,
            wave,
            chip_cores,
            core_place,
            jobs,
            outputs,
            index,
            heap: BinaryHeap::new(),
            next_seq: 0,
            core_job: vec![None; cores],
            busy_cores: 0,
            link_free: vec![0; chips * chips],
            by_core: vec![Vec::new(); cores],
            core_load: vec![0; cores],
            barrier: Vec::new(),
            wave_ends: Vec::new(),
            now: 0,
            released_count: 0,
        };
        for (i, f) in faults.iter().enumerate() {
            let chip = if wave { 0 } else { f.chip };
            run.schedule(
                f.tick.saturating_sub(run.plan.base),
                ComponentId::Chip(chip),
                EventKind::Fault(i),
            );
        }
        run
    }

    /// Drive the run to completion: fire the due events (faults first,
    /// then arrivals, then completions), dispatch, drain the batch, hop
    /// to the next event.
    fn run(
        mut self,
        dispatch: &dyn Fn(usize, usize) -> Result<(), SimError>,
        collect: &dyn Fn() -> Result<Done<T>, SimError>,
    ) -> Result<CoordRun<T>, SimError> {
        let n = self.outputs.len();
        while self.released_count < n {
            self.fire_due()?;
            if self.released_count == n {
                break;
            }
            let batch = self.dispatch_ready(dispatch)?;
            // Drain the whole batch before the clock moves.
            let done = collect_batch(
                batch,
                collect,
                &self.jobs.dispatch_seq,
                self.plan.tenant_of,
                &mut self.meters,
                &mut self.outputs,
            )?;
            if self.wave && batch > 0 {
                self.close_wave(done);
                continue;
            }
            // Completion events are pushed in job-id order, so the heap
            // (and the seq counter) stay deterministic.
            for (j, core, cycles) in done {
                self.schedule(
                    self.now + cycles,
                    ComponentId::Core(core),
                    EventKind::JobDone { core, job: j },
                );
            }
            if !self.hop() {
                break; // nothing running, nothing scheduled: dangling parents
            }
        }
        Ok(self.finish())
    }

    /// Schedule an event, stamping the next sequence number — pushes only
    /// happen at deterministic points, so the stamp (the final heap
    /// tie-break) is itself deterministic.
    fn schedule(&mut self, tick: u64, comp: ComponentId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            tick,
            comp,
            seq,
            kind,
        }));
    }

    /// Job `j`'s cost hint, zero counting as 1: the unit of usage, load
    /// and requeue balance.
    fn cost(&self, j: usize) -> u64 {
        self.plan.costs[j].max(1)
    }

    /// Fire every event due by now in `(tick, component, seq)` order, then
    /// release a wave's survivors: its barrier's kills have fired.
    fn fire_due(&mut self) -> Result<(), SimError> {
        while let Some(Reverse(e)) = self.heap.peek().copied() {
            if e.tick > self.now {
                break;
            }
            self.heap.pop();
            match e.kind {
                EventKind::Fault(idx) => self.on_fault(idx)?,
                EventKind::TransferArrive => {} // the tick was the point
                EventKind::JobDone { core, job } => self.on_job_done(core, job),
            }
        }
        let barrier = take(&mut self.barrier);
        for &j in &barrier {
            if self.jobs.finished[j] {
                self.release(j);
            }
        }
        self.barrier = barrier;
        self.barrier.clear();
        Ok(())
    }

    /// A scheduled kill is due: the chip dies. Its unreleased work is
    /// revoked but stays metered (the energy was burned): a job in flight
    /// at its completion tick, a finished wave job now. Everything else
    /// the chip owned requeues now, least-remaining-load-first, jobs in id
    /// order (its revoked in-flight jobs requeue as they complete).
    fn on_fault(&mut self, idx: usize) -> Result<(), SimError> {
        let chip = self.plan.faults[idx].chip;
        if self.dead[chip] {
            return Ok(()); // killing a dead chip is a no-op
        }
        self.dead[chip] = true;
        self.events.push(TraceEvent::Fault {
            chip,
            tick: self.now,
        });
        if self.dead.iter().all(|&d| d) {
            return Err(SimError {
                cycle: (self.plan.base + self.now) as usize,
                pe: None,
                kind: HazardKind::AllChipsDead {
                    chips: self.chip_cores.len(),
                },
            });
        }
        for g in self.chip_cores[chip].clone() {
            if let Some(j) = self.core_job[g] {
                self.jobs.revoked[j] = true;
            }
        }
        // A finished wave job has not moved since its dispatch.
        for &j in &self.barrier {
            if self.jobs.chip(j) == chip && self.jobs.finished[j] {
                self.jobs.finished[j] = false;
                *self.outputs.slot(j) = None;
                self.jobs.queued[j] = true;
                let at = self.jobs.log_at[j] as usize;
                if let TraceEvent::Job { discarded, .. } = &mut self.events.events_mut()[at] {
                    *discarded = true;
                }
            }
        }
        let mut load = self.unfinished_load();
        for j in 0..self.outputs.len() {
            if self.jobs.chip(j) == chip && !self.jobs.finished[j] && !self.jobs.revoked[j] {
                let queued = self.jobs.queued[j];
                if queued {
                    self.index.remove(j, chip);
                }
                self.requeue(j, chip, &mut load);
                if queued {
                    self.index
                        .insert(j, self.jobs.chip(j), self.jobs.ready_at[j], self.now);
                }
            }
        }
        Ok(())
    }

    /// The job on global core `core` retired (event mode): log its span,
    /// then requeue it if a kill revoked it, or finish and release it.
    fn on_job_done(&mut self, core: usize, job: usize) {
        self.core_job[core] = None;
        self.busy_cores -= 1;
        let (chip, c) = self.core_place[core];
        self.events.push(TraceEvent::Job {
            job,
            tenant: self.plan.tenant_of[job],
            chip,
            core: c,
            start: self.jobs.dispatch_tick[job],
            end: self.now,
            discarded: self.jobs.revoked[job],
        });
        if take(&mut self.jobs.revoked[job]) {
            *self.outputs.slot(job) = None;
            let mut load = self.unfinished_load();
            self.requeue(job, chip, &mut load);
            self.jobs.queued[job] = true;
            self.index
                .insert(job, self.jobs.chip(job), self.jobs.ready_at[job], self.now);
        } else {
            self.jobs.finished[job] = true;
            self.release(job);
        }
    }

    /// Remaining (unfinished) cost hint per alive chip: the requeue
    /// balance.
    fn unfinished_load(&self) -> Vec<u64> {
        let mut load = vec![0u64; self.chip_cores.len()];
        for j in 0..self.outputs.len() {
            let chip = self.jobs.chip(j);
            if !self.jobs.finished[j] && !self.dead[chip] {
                load[chip] += self.cost(j);
            }
        }
        load
    }

    /// Move job `j` off the dead chip `from` onto the surviving chip with
    /// the least remaining cost, ties to the lower index. Released parents
    /// on other chips pay one fresh modeled transfer to the job's new home.
    fn requeue(&mut self, j: usize, from: usize, load: &mut [u64]) {
        let target = (0..load.len())
            .filter(|&c| !self.dead[c])
            .min_by_key(|&c| (load[c], c))
            .expect("a survivor exists (checked at the kill)");
        load[target] += self.cost(j);
        self.events.push(TraceEvent::Requeue {
            job: j,
            from_chip: from,
            to_chip: target,
            tick: self.now,
        });
        self.jobs.chip[j] = id32(target);
        // A wave requeue keeps the job's first readiness: its tenant wait
        // runs from there.
        if !self.wave {
            self.jobs.ready_at[j] = self.jobs.ready_at[j].max(self.now);
        }
        let parents = self.plan.parents;
        for &p in parents.row(j) {
            if self.jobs.released[p] && self.jobs.chip(p) != target {
                let arrival = self.charge_transfer(p, j, target);
                self.jobs.ready_at[j] = self.jobs.ready_at[j].max(arrival);
            }
        }
    }

    /// Free a finished job's children; a cross-chip edge delays the child
    /// by the modeled transfer.
    fn release(&mut self, j: usize) {
        self.jobs.released[j] = true;
        self.released_count += 1;
        let children = self.plan.children;
        for &child in children.row(j) {
            self.jobs.indegree[child] -= 1;
            let to = self.jobs.chip(child);
            let arrival = if to != self.jobs.chip(j) {
                self.charge_transfer(j, child, to)
            } else {
                self.now
            };
            self.jobs.ready_at[child] = self.jobs.ready_at[child].max(arrival);
            if self.jobs.indegree[child] == 0 {
                self.jobs.queued[child] = true;
                self.index
                    .insert(child, to, self.jobs.ready_at[child], self.now);
            }
        }
    }

    /// Charge the modeled movement of `parent`'s output to `child` on chip
    /// `to`, logged once as a transfer event, and return its arrival. An
    /// event-mode transfer serializes behind whatever its link already
    /// carries; a wave transfer starts at its barrier. The pipelined hop
    /// latency is added on top without occupying the link.
    fn charge_transfer(&mut self, parent: usize, child: usize, to: usize) -> u64 {
        let from = self.jobs.chip(parent);
        let words = self.plan.transfer_words[parent].max(1);
        let ser = words.div_ceil(self.topo.link_words_per_cycle.max(1));
        let link = from * self.chip_cores.len() + to;
        let start = if self.wave {
            self.now
        } else {
            self.now.max(self.link_free[link])
        };
        self.link_free[link] = start + ser;
        let arrival = start + ser + self.topo.hop_latency_cycles;
        self.meters.transferred_words += words;
        self.meters.transfer_cycles += arrival - self.now;
        self.events.push(TraceEvent::Transfer {
            parent,
            child,
            from_chip: from,
            to_chip: to,
            words,
            start: self.now,
            end: arrival,
        });
        self.schedule(
            arrival,
            ComponentId::Link(from, to),
            EventKind::TransferArrive,
        );
        arrival
    }

    /// Deal and dispatch, chips and cores in index order (the
    /// deterministic tie-break). Returns the batch size.
    fn dispatch_ready(
        &mut self,
        dispatch: &dyn Fn(usize, usize) -> Result<(), SimError>,
    ) -> Result<usize, SimError> {
        self.index.promote(self.now, &self.jobs);
        let mut batch = 0;
        for chip in 0..self.chip_cores.len() {
            if self.dead[chip] {
                continue;
            }
            self.deal(chip);
            // Dispatch in bucket order: core, then position.
            for g in self.chip_cores[chip].clone() {
                for &j in &self.by_core[g] {
                    if self.wave {
                        self.jobs.wave_of[j] = self.wave_ends.len();
                    } else {
                        self.jobs.dispatch_tick[j] = self.now;
                    }
                    self.jobs.dispatch_seq[j] = id32(batch);
                    let cost = self.cost(j);
                    let delta = &mut self.meters.per_tenant[self.plan.tenant_of[j]];
                    delta.wait_cycles += self.now - self.jobs.ready_at[j];
                    delta.cost_dispatched += cost;
                    dispatch(g, j)?;
                    batch += 1;
                }
                if !self.wave {
                    if let Some(j) = self.by_core[g].pop() {
                        self.core_job[g] = Some(j);
                        self.busy_cores += 1;
                    }
                }
            }
        }
        Ok(batch)
    }

    /// Deal `chip`'s ready jobs into its cores' buckets, charging usage as
    /// each is picked. Events give each idle core one job. Waves deal the
    /// whole ready set: `FairShare` one job per core, `Fifo` round-robin,
    /// the others onto the least hint-loaded core. In debug builds every
    /// deal is checked against the wave planners.
    fn deal(&mut self, chip: usize) {
        let cores = self.chip_cores[chip].clone();
        let expected =
            (cfg!(debug_assertions) && self.wave).then(|| self.oracle(chip, cores.len()));
        self.core_load[cores.clone()].fill(0);
        for k in 0.. {
            let Some(g) = self.next_core(k, &cores) else {
                break;
            };
            let pick = self.index.pick(chip, &self.plan.usage);
            if !self.wave {
                debug_assert_eq!(
                    pick,
                    self.oracle(chip, 1)[0].first().copied(),
                    "the ready index and the wave planner disagree at tick {} on chip {chip}",
                    self.now
                );
            }
            let Some(j) = pick else {
                break; // nothing more ready on this chip
            };
            self.jobs.queued[j] = false;
            let cost = self.cost(j);
            self.plan.usage[self.plan.tenant_of[j]] += cost;
            self.core_load[g] += cost;
            self.by_core[g].push(j);
        }
        if let Some(expected) = expected {
            assert_eq!(
                expected.as_slice(),
                &self.by_core[cores],
                "the ready index and the wave planner disagree at tick {} on chip {chip}",
                self.now
            );
        }
    }

    /// The global core that takes the `k`-th pick of a deal over `cores`,
    /// or `None` once the deal is full.
    fn next_core(&self, k: usize, cores: &Range<usize>) -> Option<usize> {
        if !self.wave {
            return cores.clone().filter(|&g| self.core_job[g].is_none()).nth(k);
        }
        match self.plan.sched {
            Scheduler::FairShare if k == cores.len() => None,
            Scheduler::Fifo | Scheduler::FairShare => Some(cores.start + k % cores.len()),
            Scheduler::LeastLoaded | Scheduler::CriticalPath => {
                cores.clone().min_by_key(|&g| (self.core_load[g], g))
            }
        }
    }

    /// The wave planners over `chip`'s ready set and `cores` cores: the
    /// debug-build oracle of every deal. A wave deals exactly their plan,
    /// and an event-mode pick is the first job of a one-core wave.
    fn oracle(&self, chip: usize, cores: usize) -> Vec<Vec<usize>> {
        let jobs = &self.jobs;
        let ready: Vec<usize> = (0..self.outputs.len())
            .filter(|&j| jobs.queued[j] && jobs.chip(j) == chip && jobs.ready_at[j] <= self.now)
            .collect();
        let (plan, priority) = (&self.plan, &self.index.order.priority);
        match plan.sched {
            Scheduler::FairShare => plan_wave_tenanted_slo(
                &ready,
                plan.costs,
                priority,
                plan.tenant_of,
                &plan.usage,
                plan.weights,
                plan.boost,
                cores,
            ),
            _ => plan_wave(plan.sched, &ready, plan.costs, priority, cores),
        }
    }

    /// Close a drained wave at its barrier: a core runs its bucket in
    /// position order, so its spans are prefix sums, and the clock
    /// advances by the slowest bucket. The jobs wait in the barrier for
    /// the kills due by then.
    fn close_wave(&mut self, done: Vec<(usize, usize, u64)>) {
        for (j, _, cycles) in done {
            self.jobs.job_cycles[j] = cycles;
            self.jobs.finished[j] = true;
            self.barrier.push(j);
        }
        let start = self.now;
        for (g, bucket) in self.by_core.iter_mut().enumerate() {
            let (chip, core) = self.core_place[g];
            let mut t = start;
            for j in bucket.drain(..) {
                let cycles = self.jobs.job_cycles[j];
                self.jobs.log_at[j] = id32(self.events.len());
                self.events.push(TraceEvent::Job {
                    job: j,
                    tenant: self.plan.tenant_of[j],
                    chip,
                    core,
                    start: t,
                    end: t + cycles,
                    discarded: false,
                });
                t += cycles;
            }
            self.now = self.now.max(t);
        }
        self.wave_ends.push(self.now);
    }

    /// Hop to the next event; `false` when nothing is scheduled. A gap
    /// with every core idle is a stall (a transfer or fault wait), logged
    /// as one idle fast-forward however many events it crosses.
    fn hop(&mut self) -> bool {
        let Some(&Reverse(Event { tick: next, .. })) = self.heap.peek() else {
            return false;
        };
        if next > self.now {
            if self.busy_cores == 0 {
                match self.events.events_mut().last_mut() {
                    Some(TraceEvent::IdleFastForward { end, .. }) if *end == self.now => {
                        *end = next;
                    }
                    _ => self.events.push(TraceEvent::IdleFastForward {
                        start: self.now,
                        end: next,
                    }),
                }
                self.meters.stall_cycles += next - self.now;
            }
            self.now = next;
        }
        true
    }

    /// The run's result. The bookkeeping is released before the result
    /// columns are built: every completed job has exactly one kept
    /// (undiscarded) span in the log, which holds its placement and, in
    /// event mode, its completion tick.
    fn finish(self) -> CoordRun<T> {
        let coord_heap_bytes =
            self.jobs.heap_bytes() + self.index.heap_bytes() + self.events.heap_bytes();
        let Run {
            jobs,
            index,
            outputs,
            events,
            meters,
            wave,
            wave_ends,
            now: makespan,
            ..
        } = self;
        let waves = jobs.into_wave_of();
        drop(index);
        let n = outputs.len();
        let mut assignment = vec![(0usize, 0usize); n];
        for e in events.events() {
            if let TraceEvent::Job {
                job,
                chip,
                core,
                discarded: false,
                ..
            } = *e
            {
                assignment[job] = (chip, core);
            }
        }
        let (wave_of, wave_ends) = if wave {
            (waves, wave_ends)
        } else {
            completion_waves(&events, n)
        };
        // Event mode: a core's busy intervals never intersect an all-idle
        // stall window, so `busy + idle + stall = makespan` per core. Wave
        // idle includes the stalls: `busy + idle = makespan`.
        let stall = if wave { 0 } else { meters.stall_cycles };
        let idle_per_core = meters
            .per_core
            .iter()
            .map(|s| makespan.saturating_sub(s.cycles + stall))
            .collect();
        CoordRun {
            outputs: outputs.finish(),
            assignment,
            wave_of,
            wave_ends,
            per_core: meters.per_core,
            jobs_per_core: meters.jobs_per_core,
            idle_per_core,
            makespan,
            stall_cycles: meters.stall_cycles,
            transferred_words: meters.transferred_words,
            transfer_cycles: meters.transfer_cycles,
            per_tenant: meters.per_tenant,
            events,
            coord_heap_bytes,
        }
    }
}

/// Event mode's waves: the distinct completion ticks, read off the log's
/// kept job spans (logged as they retire, so already in tick order) into
/// an exact-fit vector, and each job's rank among them.
fn completion_waves(events: &EventLog, n: usize) -> (Vec<usize>, Vec<u64>) {
    let kept = || {
        events.events().iter().filter_map(|e| match *e {
            TraceEvent::Job {
                job,
                end,
                discarded: false,
                ..
            } => Some((job, end)),
            _ => None,
        })
    };
    let mut last = None;
    let distinct = kept()
        .filter(|&(_, end)| last.replace(end) != Some(end))
        .count();
    let mut wave_ends: Vec<u64> = Vec::with_capacity(distinct);
    let mut wave_of = vec![0usize; n];
    for (job, end) in kept() {
        if wave_ends.last() != Some(&end) {
            debug_assert!(
                wave_ends.last().is_none_or(|&t| t < end),
                "spans retire in tick order"
            );
            wave_ends.push(end);
        }
        wave_of[job] = wave_ends.len() - 1;
    }
    (wave_of, wave_ends)
}

/// The pick order: the wave planners' order, one job at a time.
/// `Fifo`/`LeastLoaded` take the lowest ready id (they differ only in
/// which core a wave places the pick on); `CriticalPath` takes the
/// longest remaining path; `FairShare` replays the streaming tenant
/// comparator of [`crate::service::plan_wave_tenanted_slo`] against the
/// live usage counters. Every order ends on the job id, so it is total.
struct PickOrder<'a> {
    sched: Scheduler,
    /// Longest remaining path per job (read by `CriticalPath` and
    /// `FairShare`).
    priority: Vec<u64>,
    tenant_of: &'a [usize],
    weights: &'a [u64],
    boost: &'a [u64],
}

impl PickOrder<'_> {
    /// Whether `a` dispatches before `b` under the live `usage`.
    fn cmp(&self, usage: &[u64], a: usize, b: usize) -> std::cmp::Ordering {
        match self.sched {
            Scheduler::Fifo | Scheduler::LeastLoaded => a.cmp(&b),
            Scheduler::CriticalPath => self.key(a).cmp(&self.key(b)),
            Scheduler::FairShare => {
                let (ta, tb) = (self.tenant_of[a], self.tenant_of[b]);
                let ua = usage[ta] as u128 * self.weights[tb].max(1) as u128;
                let ub = usage[tb] as u128 * self.weights[ta].max(1) as u128;
                self.boost[ta]
                    .cmp(&self.boost[tb])
                    .then_with(|| ua.cmp(&ub))
                    .then_with(|| self.key(a).cmp(&self.key(b)))
            }
        }
    }

    /// The order *within one tenant*, where boost and usage are shared
    /// and drop out: priority (ignored by `Fifo`/`LeastLoaded`), then id.
    fn key(&self, j: usize) -> (Reverse<u64>, usize) {
        match self.sched {
            Scheduler::Fifo | Scheduler::LeastLoaded => (Reverse(0), j),
            Scheduler::CriticalPath | Scheduler::FairShare => (Reverse(self.priority[j]), j),
        }
    }
}

/// The loop's queued jobs, indexed so a pick never scans the pool
/// (the min-heap dispatch of a classic event-driven simulator): per
/// (chip, tenant), the queued jobs whose `ready_at` has passed, ordered
/// by [`PickOrder::key`]; plus a min-heap of queued jobs still waiting on
/// a transfer, promoted as the clock reaches them. A pick compares only
/// the tenants' heads, which yields the wave planners' pick because the
/// tenant-level terms of [`PickOrder::cmp`] are shared within a tenant.
struct ReadyIndex<'a> {
    order: PickOrder<'a>,
    tenants: usize,
    /// `ready[chip * tenants + tenant]`.
    ready: Vec<BTreeSet<(Reverse<u64>, usize)>>,
    /// Whether each job sits in a `ready` set.
    in_ready: Vec<bool>,
    /// `(ready_at, job)` of queued jobs not yet arrived. An entry whose
    /// job has since dispatched, moved or been re-pushed is stale and is
    /// dropped when it surfaces.
    waiting: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> ReadyIndex<'a> {
    fn new(order: PickOrder<'a>, chips: usize, jobs: usize) -> Self {
        let tenants = order.weights.len();
        Self {
            order,
            tenants,
            ready: (0..chips * tenants).map(|_| BTreeSet::new()).collect(),
            in_ready: vec![false; jobs],
            waiting: BinaryHeap::new(),
        }
    }

    fn set(&mut self, chip: usize, j: usize) -> &mut BTreeSet<(Reverse<u64>, usize)> {
        &mut self.ready[chip * self.tenants + self.order.tenant_of[j]]
    }

    /// File a newly queued job under `chip`: ready now, or waiting.
    fn insert(&mut self, j: usize, chip: usize, ready_at: u64, now: u64) {
        if ready_at <= now {
            let key = self.order.key(j);
            self.set(chip, j).insert(key);
            self.in_ready[j] = true;
        } else {
            self.waiting.push(Reverse((ready_at, j)));
        }
    }

    /// Withdraw a queued job filed under `chip` (a fault requeue moves
    /// it); a waiting entry goes stale instead.
    fn remove(&mut self, j: usize, chip: usize) {
        if std::mem::take(&mut self.in_ready[j]) {
            let key = self.order.key(j);
            self.set(chip, j).remove(&key);
        }
    }

    /// Move every queued job whose transfer has landed by `now` into its
    /// chip's ready set.
    fn promote(&mut self, now: u64, jobs: &JobTable) {
        while let Some(&Reverse((tick, j))) = self.waiting.peek() {
            if tick > now {
                break;
            }
            self.waiting.pop();
            if jobs.queued[j] && !self.in_ready[j] && jobs.ready_at[j] <= now {
                self.insert(j, jobs.chip(j), jobs.ready_at[j], now);
            }
        }
    }

    /// Take the best ready job on `chip` under the live `usage`.
    fn pick(&mut self, chip: usize, usage: &[u64]) -> Option<usize> {
        let heads = &self.ready[chip * self.tenants..(chip + 1) * self.tenants];
        let j = heads
            .iter()
            .filter_map(|set| set.first().map(|&(_, j)| j))
            .min_by(|&a, &b| self.order.cmp(usage, a, b))?;
        self.remove(j, chip);
        Some(j)
    }

    /// Bytes the index's vectors reserve (`capacity × size_of`): the
    /// priorities, the flags, the per-(chip, tenant) set headers and the
    /// waiting heap. The sets' nodes are not counted: they hold only the
    /// jobs ready at one time, and `BTreeSet` does not expose their size.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.order.priority)
            + vec_bytes(&self.in_ready)
            + vec_bytes(&self.ready)
            + self.waiting.capacity() * std::mem::size_of::<Reverse<(u64, usize)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::cluster::{ClusterConfig, LacCluster};
    use crate::config::LacConfig;
    use crate::core::ExternalMem;
    use crate::isa::ProgramBuilder;
    use crate::service::JobId;
    use crate::service::{LacService, TenantConfig};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// A payload-free graph of `n` jobs with `edges` as `(parent, child)`.
    fn edge_graph(n: usize, edges: &[(usize, usize)]) -> JobGraph<()> {
        let mut g = JobGraph::new();
        for c in 0..n {
            let parents: Vec<JobId> = edges
                .iter()
                .filter(|&&(_, child)| child == c)
                .map(|&(p, _)| JobId::from_index(p))
                .collect();
            g.add_after((), &parents);
        }
        g
    }

    /// Coordinate against a pure in-memory backend: `dispatch` queues
    /// `(core, job)`, `collect` reports the job's cost hint as its
    /// measured duration (and output). Tests the loop without cores or
    /// threads.
    fn run(
        topo: &Topology,
        costs: &[u64],
        words: &[u64],
        edges: &[(usize, usize)],
        chip_of: Vec<usize>,
        faults: &[FaultEvent],
    ) -> Result<CoordRun<ExecStats>, SimError> {
        run_from(0, topo, costs, words, edges, chip_of, faults)
    }

    /// [`run`] starting at session tick `base`.
    fn run_from(
        base: u64,
        topo: &Topology,
        costs: &[u64],
        words: &[u64],
        edges: &[(usize, usize)],
        chip_of: Vec<usize>,
        faults: &[FaultEvent],
    ) -> Result<CoordRun<ExecStats>, SimError> {
        let n = costs.len();
        let graph = edge_graph(n, edges);
        let children = graph.children();
        let tenant_of = vec![0; n];
        let plan = Plan {
            costs,
            transfer_words: words,
            parents: &graph.parents,
            children: &children,
            tenant_of: &tenant_of,
            weights: &[1],
            boost: &[u64::MAX],
            faults,
            base,
            sched: Scheduler::Fifo,
            usage: vec![0],
            chip_of: &chip_of,
            // One graph, or none in an empty pool.
            graph_ends: &[n][..usize::from(n > 0)],
        };
        let queue = RefCell::new(VecDeque::new());
        let mut dead = vec![false; topo.cores_per_chip.len()];
        Run::new(topo, plan, &mut dead).run(
            &|core, job| {
                queue.borrow_mut().push_back((core, job));
                Ok(())
            },
            &|| {
                let (core, job) = queue.borrow_mut().pop_front().expect("a dispatched job");
                let delta = ExecStats {
                    cycles: costs[job],
                    ..Default::default()
                };
                Ok(Done {
                    core,
                    job,
                    outcome: JobOutcome::Completed(delta, delta),
                })
            },
        )
    }

    #[test]
    fn a_lost_worker_is_a_typed_error() {
        // Every sender of the report channel is gone: the collect side
        // must end the run with an error, not a panic or a hang.
        let (tx, rx) = channel::<Done<ExecStats>>();
        drop(tx);
        let graph = edge_graph(2, &[(0, 1)]);
        let children = graph.children();
        for mode in [SimMode::Event, SimMode::Wave] {
            let plan = Plan {
                costs: &[3, 4],
                transfer_words: &[0, 0],
                parents: &graph.parents,
                children: &children,
                tenant_of: &[0, 0],
                weights: &[1],
                boost: &[u64::MAX],
                faults: &[],
                base: 0,
                sched: Scheduler::Fifo,
                usage: vec![0],
                chip_of: &[0, 0],
                graph_ends: &[2],
            };
            let topo = topo(vec![1], 1, 0, mode);
            let err = Run::new(&topo, plan, &mut [false])
                .run(&|_, _| Ok(()), &|| recv_report(&rx))
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, worker_lost(), "{mode:?}");
            assert_eq!(err.kind, HazardKind::WorkerLost);
        }
    }

    fn topo(cores_per_chip: Vec<usize>, link: u64, hop: u64, mode: SimMode) -> Topology {
        Topology {
            cores_per_chip,
            link_words_per_cycle: link,
            hop_latency_cycles: hop,
            mode,
        }
    }

    #[test]
    fn transfers_overlap_with_compute_on_both_chips() {
        // Chip 0 runs job 0 then feeds job 2 on chip 1 while chip 0's
        // independent job 1 and the transfer overlap: event-mode
        // makespan is compute-bound, not barrier-bound.
        let topo = topo(vec![1, 1], 1, 100, SimMode::Event);
        let r = run(
            &topo,
            &[10, 110, 10],
            &[4, 1, 1],
            &[(0, 2)],
            vec![0, 0, 1],
            &[],
        )
        .unwrap();
        // Job 0 retires at 10; transfer lands at 10 + 4 + 100 = 114;
        // job 2 runs 114..124 on chip 1 while chip 0 still runs job 1
        // (10..120) — the transfer fully overlaps with compute.
        let cycles: Vec<u64> = r.outputs[0].iter().map(|o| o.cycles).collect();
        assert_eq!(cycles, vec![10, 110, 10], "outputs in job order");
        assert_eq!(r.makespan, 124);
        assert_eq!(r.transferred_words, 4);
        assert_eq!(r.transfer_cycles, 104);
        // Nothing ever went fully idle: job 1 covers the transfer window.
        assert_eq!(r.stall_cycles, 0);
        // busy + idle + stall = makespan on every core.
        for (g, s) in r.per_core.iter().enumerate() {
            assert_eq!(s.cycles + r.idle_per_core[g] + r.stall_cycles, r.makespan);
        }
    }

    #[test]
    fn same_link_transfers_queue_behind_each_other() {
        // Two cut edges over the same (0 -> 1) link at the same tick:
        // the second serialization window queues behind the first.
        let topo = topo(vec![2, 1], 1, 10, SimMode::Event);
        let r = run(
            &topo,
            &[5, 5, 1, 1],
            &[8, 8, 1, 1],
            &[(0, 2), (1, 3)],
            vec![0, 0, 1, 1],
            &[],
        )
        .unwrap();
        // Both parents retire at 5. First transfer occupies the link
        // 5..13 (arrives 23); the second queues 13..21 (arrives 31).
        let ends: Vec<u64> = r
            .events
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Transfer { end, .. } => Some(*end),
                _ => None,
            })
            .collect();
        assert_eq!(ends, vec![23, 31]);
        assert_eq!(r.makespan, 32);
        // Two all-idle gaps: 5..23 (waiting on the first arrival) and
        // 24..31 (chip 1 retired job 2, waiting on the queued arrival).
        assert_eq!(r.stall_cycles, 18 + 7);
    }

    #[test]
    fn fault_revokes_in_flight_work_and_requeues_deterministically() {
        // One chain on chip 1; chip 1 dies mid-job. The running job is
        // revoked at its completion, requeued to chip 0, and rerun —
        // metered twice, output delivered once.
        let topo = topo(vec![1, 1], 1, 0, SimMode::Event);
        let r = run(
            &topo,
            &[10, 10],
            &[1, 1],
            &[(0, 1)],
            vec![1, 1],
            &[FaultEvent { tick: 5, chip: 1 }],
        )
        .unwrap();
        assert_eq!(r.assignment, vec![(0, 0), (0, 0)]);
        let discarded = r.events.count(|e| {
            matches!(
                e,
                TraceEvent::Job {
                    discarded: true,
                    ..
                }
            )
        });
        assert_eq!(discarded, 1);
        // Revoked attempt 0..10 on chip 1, rerun 10..20, chain 20..30.
        assert_eq!(r.makespan, 30);
        assert_eq!(r.jobs_per_core.iter().sum::<u64>(), 3);
    }

    #[test]
    fn a_wave_kill_fires_at_its_barrier_and_revokes_the_unreleased_share() {
        // Chip 1 dies at tick 1, inside the first wave (0..30). The kill
        // fires at the barrier: job 1 finished there, but its output is
        // dropped and its span discarded; it reruns on chip 0, the less
        // loaded survivor by *unfinished* cost, and its child follows to
        // chip 2. Only the released edge 1 -> 2 pays a transfer.
        let topo = topo(vec![1, 1, 1], 1, 0, SimMode::Wave);
        let r = run(
            &topo,
            &[30, 10, 10, 5],
            &[1, 1, 1, 1],
            &[(1, 2)],
            vec![0, 1, 1, 2],
            &[FaultEvent { tick: 1, chip: 1 }],
        )
        .unwrap();
        assert_eq!(r.assignment, vec![(0, 0), (0, 0), (2, 0), (2, 0)]);
        assert_eq!(r.makespan, 51);
        assert_eq!(r.wave_ends, vec![30, 40, 51]);
        // A wave requeue keeps its first readiness: job 1 waited 0..30.
        assert_eq!(r.per_tenant[0].wait_cycles, 30);
        // Job 2 waits 40..41 for its parent's payload.
        assert_eq!(r.stall_cycles, 1);
        assert_eq!(r.events.transfer_events().count(), 1);
        let log = r.events.events();
        let fault = log
            .iter()
            .position(|e| *e == TraceEvent::Fault { chip: 1, tick: 30 })
            .expect("the kill fires at the barrier");
        assert!(log.contains(&TraceEvent::Job {
            job: 1,
            tenant: 0,
            chip: 1,
            core: 0,
            start: 0,
            end: 10,
            discarded: true,
        }));
        assert_eq!(
            log[fault + 1..fault + 3],
            [
                TraceEvent::Requeue {
                    job: 1,
                    from_chip: 1,
                    to_chip: 0,
                    tick: 30,
                },
                TraceEvent::Requeue {
                    job: 2,
                    from_chip: 1,
                    to_chip: 2,
                    tick: 30,
                },
            ]
        );
    }

    #[test]
    fn a_wave_requeue_leaves_unreleased_parents_to_their_release() {
        // Job 0 finishes at the first barrier (10), where the kill of
        // chip 1 moves job 0's child 1 to chip 2 (chip 0 still owes job
        // 2's 50 cycles). Job 0 is finished but not yet released, so its
        // edge to job 1 is charged once, by the release, not also by the
        // requeue.
        let topo = topo(vec![1, 1, 1], 1, 0, SimMode::Wave);
        let r = run(
            &topo,
            &[10, 10, 50],
            &[1, 1, 1],
            &[(0, 1), (0, 2)],
            vec![0, 1, 0],
            &[FaultEvent { tick: 5, chip: 1 }],
        )
        .unwrap();
        assert_eq!(r.assignment, vec![(0, 0), (2, 0), (0, 0)]);
        assert_eq!(r.events.transfer_events().count(), 1);
        assert_eq!(r.wave_ends, vec![10, 60, 70]);
    }

    #[test]
    fn one_idle_gap_is_one_log_entry_in_both_modes() {
        // Two parents on chips 0 and 1 feed a child on chip 2. The short
        // payload lands at 6, the long one at 25: the cluster idles
        // 5..25 in one gap, whatever the heap hops through.
        for mode in [SimMode::Wave, SimMode::Event] {
            let topo = topo(vec![1, 1, 1], 1, 0, mode);
            let r = run(
                &topo,
                &[5, 5, 1],
                &[1, 20, 1],
                &[(0, 2), (1, 2)],
                vec![0, 1, 2],
                &[],
            )
            .unwrap();
            let gaps: Vec<&TraceEvent> = r
                .events
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::IdleFastForward { .. }))
                .collect();
            assert_eq!(
                gaps,
                [&TraceEvent::IdleFastForward { start: 5, end: 25 }],
                "{mode:?}"
            );
            assert_eq!(r.stall_cycles, 20, "{mode:?}");
        }
    }

    #[test]
    fn kills_due_before_the_run_fire_at_tick_0_in_each_modes_order() {
        // Both kills fell due before this run started, chip 2's first.
        // Waves fire the kills due at a barrier in plan order; events
        // order one tick's kills by chip.
        let kills = [
            FaultEvent { tick: 10, chip: 2 },
            FaultEvent { tick: 20, chip: 1 },
        ];
        for (mode, order) in [(SimMode::Wave, [2, 1]), (SimMode::Event, [1, 2])] {
            let topo = topo(vec![1, 1, 1], 1, 0, mode);
            let r = run_from(100, &topo, &[4], &[1], &[], vec![0], &kills).unwrap();
            let fired: Vec<usize> = r
                .events
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Fault { chip, tick: 0 } => Some(chip),
                    _ => None,
                })
                .collect();
            assert_eq!(fired, order, "{mode:?}");
        }
    }

    #[test]
    fn all_dead_is_a_hard_error_and_empty_graphs_are_free() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let topo = topo(vec![1], 1, 0, mode);
            let kill = [FaultEvent { tick: 0, chip: 0 }];
            let err = run(&topo, &[4], &[1], &[], vec![0], &kill).unwrap_err();
            assert_eq!(err.kind, HazardKind::AllChipsDead { chips: 1 }, "{mode:?}");

            let empty = run(&topo, &[], &[], &[], vec![], &[]).unwrap();
            assert_eq!(empty.makespan, 0);
            assert!(empty.outputs.is_empty() && empty.wave_ends.is_empty());
        }
    }

    #[test]
    fn coord_heap_bytes_is_the_tables_closed_form_in_both_modes() {
        // Seven jobs (a chain, a fork and a join) on one chip: no
        // transfer, no stall, no fault, so every column is sized once at
        // the job count, the log holds one span per job, and no job ever
        // waits on a payload.
        use std::mem::size_of;
        let n = 7;
        let edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)];
        // Chip, in-degree and batch position; ready tick; four flags.
        let shared = 3 * size_of::<u32>() + size_of::<u64>() + 4 * size_of::<bool>();
        // The index: priority and the in-ready flag per job, plus the one
        // (chip, tenant) set's header.
        let index = size_of::<u64>() + size_of::<bool>();
        let sets = size_of::<BTreeSet<(Reverse<u64>, usize)>>();
        for (mode, own) in [
            // Event mode: the dispatch tick.
            (SimMode::Event, size_of::<u64>()),
            // Waves: the wave, the busy cycles and the span's log index.
            (
                SimMode::Wave,
                size_of::<usize>() + size_of::<u64>() + size_of::<u32>(),
            ),
        ] {
            let topo = topo(vec![2], 1, 0, mode);
            let r = run(&topo, &[3; 7], &[1; 7], &edges, vec![0; n], &[]).unwrap();
            assert_eq!(r.events.len(), n, "{mode:?}: one span per job");
            assert_eq!(
                r.coord_heap_bytes,
                n * (shared + own + index + size_of::<TraceEvent>()) + sets,
                "{mode:?}"
            );
            if mode == SimMode::Event {
                assert_eq!(r.wave_ends.capacity(), r.wave_ends.len(), "exact-fit waves");
            }
        }
    }

    #[test]
    fn a_fault_free_one_chip_event_round_reserves_its_log_once() {
        // Three tenants' graphs in one round on one event-mode chip: the
        // log is reserved once, at one span per job, and filled exactly.
        let probe = Probe::default();
        let mut svc = chip(2, SimMode::Event);
        for (t, jobs) in [4, 7, 9].into_iter().enumerate() {
            let tenant =
                svc.add_tenant(TenantConfig::new(format!("t{t}")).with_weight(t as u64 + 1));
            assert!(svc.enqueue(tenant, probe.dag(jobs)).is_ok());
        }
        let round = svc.run_admitted(Scheduler::FairShare).unwrap();
        let jobs = round.stats.jobs() as usize;
        assert_eq!(jobs, 20);
        assert_eq!(round.events.len(), jobs);
        assert_eq!(
            round.events.heap_bytes(),
            jobs * std::mem::size_of::<TraceEvent>(),
            "capacity == len == jobs"
        );
        assert!(round.coord_heap_bytes > round.events.heap_bytes());
    }

    /// How a [`ThreadJob`] ends.
    #[derive(Clone, Copy)]
    enum End {
        Ok,
        Fail(usize),
        Panic,
    }

    /// A job that records the thread it runs on, optionally meets its
    /// batch peers first (so the jobs of one batch are provably in flight
    /// together), then completes, fails or panics. Completions count in
    /// `finished`.
    struct ThreadJob {
        id: usize,
        end: End,
        meet: Option<Arc<AtomicUsize>>,
        ran: Arc<Mutex<Vec<(usize, ThreadId)>>>,
        finished: Arc<AtomicUsize>,
    }

    impl ChipJob for ThreadJob {
        type Output = ExecStats;

        fn run_on(&self, lac: &mut Lac) -> Result<ExecStats, SimError> {
            let thread = std::thread::current().id();
            self.ran.lock().unwrap().push((self.id, thread));
            if let Some(met) = &self.meet {
                met.fetch_add(1, Ordering::SeqCst);
                let give_up = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while met.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < give_up {
                    std::thread::yield_now();
                }
            }
            match self.end {
                End::Ok => {
                    let mut b = ProgramBuilder::new(lac.config().nr);
                    b.idle(4 + self.id);
                    let out = lac.run(&b.build(), &mut ExternalMem::new(0))?;
                    self.finished.fetch_add(1, Ordering::SeqCst);
                    Ok(out)
                }
                End::Fail(cycle) => Err(SimError {
                    cycle,
                    pe: None,
                    kind: HazardKind::AccHazard,
                }),
                End::Panic => panic!("job {} refuses", self.id),
            }
        }
    }

    /// Builds [`ThreadJob`] graphs that share one thread log.
    #[derive(Default)]
    struct Probe {
        ran: Arc<Mutex<Vec<(usize, ThreadId)>>>,
        finished: Arc<AtomicUsize>,
    }

    impl Probe {
        fn job(&self, id: usize, end: End, meet: Option<&Arc<AtomicUsize>>) -> ThreadJob {
            ThreadJob {
                id,
                end,
                meet: meet.cloned(),
                ran: Arc::clone(&self.ran),
                finished: Arc::clone(&self.finished),
            }
        }

        /// A graph of `n` succeeding jobs: a few roots and joins.
        fn dag(&self, n: usize) -> JobGraph<ThreadJob> {
            let mut g = JobGraph::new();
            let mut ids = Vec::new();
            for j in 0..n {
                // Every third job joins the two before it.
                let parents = if j % 3 == 2 { &ids[j - 2..] } else { &[][..] };
                let id = g.add_after(self.job(j, End::Ok, None), parents);
                ids.push(id);
            }
            g
        }

        fn threads(&self) -> Vec<ThreadId> {
            let mut t: Vec<ThreadId> = self.ran.lock().unwrap().iter().map(|&(_, t)| t).collect();
            t.sort_by_key(|t| format!("{t:?}"));
            t.dedup();
            t
        }

        fn ran(&self, id: usize) -> bool {
            self.ran.lock().unwrap().iter().any(|&(j, _)| j == id)
        }
    }

    fn chip(cores: usize, mode: SimMode) -> LacService<ThreadJob> {
        LacService::new(ChipConfig::new(cores, LacConfig::default()).with_sim_mode(mode))
    }

    #[test]
    fn a_one_core_run_never_leaves_the_calling_thread() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let probe = Probe::default();
            let run = chip(1, mode)
                .submit(&probe.dag(9), Scheduler::CriticalPath)
                .unwrap();
            assert_eq!(run.outputs.len(), 9);
            assert_eq!(
                probe.threads(),
                vec![std::thread::current().id()],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn a_two_chip_wave_cluster_runs_on_the_caller_plus_one_worker() {
        let probe = Probe::default();
        let flat: JobGraph<ThreadJob> = (0..6).map(|j| probe.job(j, End::Ok, None)).collect();
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()));
        let mut cluster: LacCluster<ThreadJob> = LacCluster::new(cfg);
        let run = cluster.run_graph(&flat, Scheduler::Fifo).unwrap();
        assert_eq!(run.outputs.len(), 6);
        let threads = probe.threads();
        assert_eq!(threads.len(), 2, "one thread per core");
        assert!(
            threads.contains(&std::thread::current().id()),
            "the caller runs one core"
        );
    }

    #[test]
    fn the_callers_failure_wins_and_nothing_dispatches_after_it() {
        for mode in [SimMode::Wave, SimMode::Event] {
            // Jobs 0 and 1 share the first batch: job 0 on core 0 (the
            // caller's), job 1 on core 1 (a worker). Both start, then
            // both fail; the earlier one in dispatch order is reported,
            // and their child never dispatches.
            let probe = Probe::default();
            let meet = Arc::new(AtomicUsize::new(0));
            let mut g = JobGraph::new();
            let a = g.add(probe.job(0, End::Fail(100), Some(&meet)));
            let b = g.add(probe.job(1, End::Fail(200), Some(&meet)));
            g.add_after(probe.job(2, End::Ok, None), &[a, b]);
            g.add_after(probe.job(3, End::Ok, None), &[a]);
            let err = chip(2, mode).submit(&g, Scheduler::Fifo).unwrap_err();
            assert_eq!(
                err.cycle, 100,
                "{mode:?}: the caller's failure is first in dispatch order"
            );
            let ran = probe.ran.lock().unwrap().clone();
            assert_eq!(
                ran.len(),
                2,
                "{mode:?}: nothing ran after the failed batch: {ran:?}"
            );
            let caller = std::thread::current().id();
            assert!(
                ran.contains(&(0, caller)),
                "{mode:?}: job 0 ran on the caller"
            );
            assert!(!probe.ran(2) && !probe.ran(3));
        }
    }

    #[test]
    fn a_panic_on_the_callers_core_surfaces_after_its_batch_drains() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let probe = Probe::default();
            let meet = Arc::new(AtomicUsize::new(0));
            let mut g = JobGraph::new();
            g.add(probe.job(0, End::Panic, Some(&meet)));
            g.add(probe.job(1, End::Ok, Some(&meet)));
            let mut chip = chip(2, mode);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chip.submit(&g, Scheduler::Fifo)
            }))
            .expect_err("the job's panic must surface");
            let msg = caught.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("job 0 panicked on core 0"), "{mode:?}: {msg}");
            assert_eq!(
                probe.finished.load(Ordering::SeqCst),
                1,
                "{mode:?}: the worker's peer finished before the panic was re-raised"
            );
            // The chip stays usable: its shards and the next run's
            // workers are intact.
            let run = chip.submit(&probe.dag(5), Scheduler::Fifo).unwrap();
            assert_eq!(run.outputs.len(), 5, "{mode:?}");
        }
    }
}
