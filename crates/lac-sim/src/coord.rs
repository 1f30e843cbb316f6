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

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
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
    /// Chip per job; a fault requeues jobs off a dead chip in place.
    pub(crate) chip_of: Vec<usize>,
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
}

impl Hints {
    /// Read `graph`'s cost and transfer hints; every job is tenant 0.
    pub(crate) fn of<J: ChipJob>(graph: &JobGraph<J>) -> Self {
        Self::tenanted(graph, vec![0; graph.len()])
    }

    /// Read `graph`'s cost and transfer hints, with `tenant_of[j]` job
    /// `j`'s tenant index, and derive its children.
    pub(crate) fn tenanted<J: ChipJob>(graph: &JobGraph<J>, tenant_of: Vec<usize>) -> Self {
        Self {
            costs: graph.jobs.iter().map(|j| j.cost_hint()).collect(),
            transfer_words: graph.jobs.iter().map(|j| j.transfer_words()).collect(),
            tenant_of,
            children: graph.children(),
        }
    }

    /// The fault-free, single-chip, single-tenant plan of `graph` under
    /// `sched` (a round overrides the tenancy, a cluster the placement
    /// and faults).
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
            chip_of: vec![0; self.costs.len()],
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
    /// One output per job, pool order.
    pub(crate) outputs: Vec<T>,
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
        drive(
            topo,
            plan,
            dead,
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

/// Per-core and per-tenant meters of one run.
struct Meters {
    per_core: Vec<ExecStats>,
    jobs_per_core: Vec<u64>,
    per_tenant: Vec<TenantDelta>,
}

impl Meters {
    fn new(cores: usize, tenants: usize) -> Self {
        Self {
            per_core: vec![ExecStats::default(); cores],
            jobs_per_core: vec![0; cores],
            per_tenant: vec![TenantDelta::default(); tenants],
        }
    }
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
    dispatch_seq: &[usize],
    tenant_of: &[usize],
    meters: &mut Meters,
    outputs: &mut [Option<T>],
) -> Result<Vec<(usize, usize, u64)>, SimError> {
    let mut done: Vec<(usize, usize, T, ExecStats)> = Vec::with_capacity(dispatched);
    let mut first_err: Option<(usize, SimError)> = None;
    let mut first_panic: Option<(usize, usize, usize, String)> = None;
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
            outputs[j] = Some(out);
            (j, core, delta.cycles)
        })
        .collect())
}

/// Unwrap the per-job output slots once every job completed.
fn finish_outputs<T>(outputs: Vec<Option<T>>) -> Vec<T> {
    outputs
        .into_iter()
        .enumerate()
        .map(|(j, o)| o.unwrap_or_else(|| panic!("job {j} never became ready (dangling parent?)")))
        .collect()
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

/// Schedule an event, stamping the next sequence number — pushes only
/// happen at deterministic points, so the stamp (the final heap
/// tie-break) is itself deterministic.
fn push_event(
    heap: &mut BinaryHeap<Reverse<Event>>,
    next_seq: &mut u64,
    tick: u64,
    comp: ComponentId,
    kind: EventKind,
) {
    heap.push(Reverse(Event {
        tick,
        comp,
        seq: *next_seq,
        kind,
    }));
    *next_seq += 1;
}

/// The one timing loop, run against a dispatch/collect pair:
/// `dispatch(core, job)` hands a pool job to a core, `collect()` blocks
/// for the next report; either fails only when a worker hung up
/// ([`HazardKind::WorkerLost`]), which ends the run. Workers report real
/// measured [`ExecStats`] deltas, and every dispatch batch is drained
/// before the simulated clock moves, so job durations are known before
/// the clock passes them.
///
/// Each pass fires the heap's due events (phase 1), releases a finished
/// wave, dispatches (phase 2), drains the batch (phase 3) and hops to the
/// next event (phase 4). The time model is only the dispatch rule:
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
fn drive<T>(
    topo: &Topology,
    plan: Plan<'_>,
    dead: &mut [bool],
    dispatch: &dyn Fn(usize, usize) -> Result<(), SimError>,
    collect: &dyn Fn() -> Result<Done<T>, SimError>,
) -> Result<CoordRun<T>, SimError> {
    let Plan {
        costs,
        transfer_words,
        parents,
        children,
        tenant_of,
        weights,
        boost,
        faults,
        base,
        sched,
        mut usage,
        mut chip_of,
    } = plan;
    let wave = topo.mode == SimMode::Wave;
    let n = costs.len();
    let chips = topo.cores_per_chip.len();
    let chip_cores: Vec<Range<usize>> = topo.chip_ranges().collect();
    let total_cores: usize = topo.cores_per_chip.iter().sum();

    let priority = critical_paths(costs, parents);
    let order = PickOrder {
        sched,
        priority: &priority,
        tenant_of,
        weights,
        boost,
    };
    let mut indegree: Vec<usize> = parents.rows().map(<[usize]>::len).collect();
    let mut ready_at = vec![0u64; n];
    // In the dispatchable pool: all parents released, not dispatched.
    let mut queued: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
    let mut index = ReadyIndex::new(&order, chips, n);
    for j in (0..n).filter(|&j| queued[j]) {
        index.insert(j, chip_of[j], 0, 0);
    }
    // `finished`: the job's output stands. `released`: its children were
    // freed. Event mode sets both at once; a wave's jobs sit between the
    // two until the kills due at their barrier have fired.
    let mut finished = vec![false; n];
    let mut released = vec![false; n];
    let mut revoked = vec![false; n];
    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut assignment = vec![(0usize, 0usize); n];
    let mut wave_of = vec![0usize; n];
    let mut wave_ends: Vec<u64> = Vec::new();
    let mut completion_tick = vec![0u64; n];
    let mut dispatch_tick = vec![0u64; n];
    let mut dispatch_seq = vec![0usize; n];
    // Wave mode: each job's busy cycles and the log index of its span.
    let mut job_cycles = vec![0u64; n];
    let mut log_at = vec![0usize; n];
    let mut meters = Meters::new(total_cores, weights.len());
    let mut events = EventLog::new();

    // Core and link occupancy; the batch being dispatched per global core
    // (a wave's buckets); a wave's jobs in id order, from its barrier
    // until their release.
    let mut core_job: Vec<Option<usize>> = vec![None; total_cores];
    let mut link_free = vec![0u64; chips * chips];
    let mut busy_cores = 0usize;
    let mut by_core: Vec<Vec<usize>> = vec![Vec::new(); total_cores];
    let mut core_load = vec![0u64; total_cores];
    let mut barrier: Vec<usize> = Vec::new();

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut next_seq = 0u64;
    // Faults are ordinary events from the start; kills already due at
    // run start fire at tick 0, before anything dispatches. Events order
    // one tick's kills by chip; waves fire every kill due at a barrier in
    // plan order, so they file them all under chip 0.
    if n > 0 {
        for (i, f) in faults.iter().enumerate() {
            push_event(
                &mut heap,
                &mut next_seq,
                f.tick.saturating_sub(base),
                ComponentId::Chip(if wave { 0 } else { f.chip }),
                EventKind::Fault(i),
            );
        }
    }

    let mut now = 0u64;
    let mut released_count = 0usize;
    let mut stall_cycles = 0u64;
    let mut transferred_words = 0u64;
    let mut transfer_cycles = 0u64;

    // Charge the modeled movement of `parent`'s output to `child`'s chip,
    // logged once as a transfer event. An event-mode transfer serializes
    // behind whatever its link already carries; a wave transfer starts at
    // its barrier. The pipelined hop latency is added on top without
    // occupying the link.
    macro_rules! charge_transfer {
        ($parent:expr, $child:expr, $to:expr) => {{
            let p = $parent;
            let from = chip_of[p];
            let to = $to;
            let words = transfer_words[p].max(1);
            let ser = words.div_ceil(topo.link_words_per_cycle.max(1));
            let link = from * chips + to;
            let start = if wave { now } else { now.max(link_free[link]) };
            link_free[link] = start + ser;
            let arrival = start + ser + topo.hop_latency_cycles;
            transferred_words += words;
            transfer_cycles += arrival - now;
            events.push(TraceEvent::Transfer {
                parent: p,
                child: $child,
                from_chip: from,
                to_chip: to,
                words,
                start: now,
                end: arrival,
            });
            push_event(
                &mut heap,
                &mut next_seq,
                arrival,
                ComponentId::Link(from, to),
                EventKind::TransferArrive,
            );
            arrival
        }};
    }

    // Remaining (unfinished) cost hint per alive chip: the requeue
    // balance.
    macro_rules! unfinished_load {
        () => {{
            let mut load = vec![0u64; chips];
            for j in 0..n {
                if !finished[j] && !dead[chip_of[j]] {
                    load[chip_of[j]] += costs[j].max(1);
                }
            }
            load
        }};
    }

    // Move job `j` off the dead chip `from` onto the surviving chip with
    // the least remaining cost, ties to the lower index. Released parents
    // on other chips pay one fresh modeled transfer to the job's new home.
    macro_rules! requeue {
        ($j:expr, $from:expr, $load:expr) => {{
            let j = $j;
            let target = (0..chips)
                .filter(|&c| !dead[c])
                .min_by_key(|&c| ($load[c], c))
                .expect("a survivor exists (checked at the kill)");
            $load[target] += costs[j].max(1);
            events.push(TraceEvent::Requeue {
                job: j,
                from_chip: $from,
                to_chip: target,
                tick: now,
            });
            chip_of[j] = target;
            // A wave requeue keeps the job's first readiness: its tenant
            // wait runs from there.
            if !wave {
                ready_at[j] = ready_at[j].max(now);
            }
            for &p in parents.row(j) {
                if released[p] && chip_of[p] != target {
                    let arrival = charge_transfer!(p, j, target);
                    ready_at[j] = ready_at[j].max(arrival);
                }
            }
        }};
    }

    // Free a finished job's children; a cross-chip edge delays the child
    // by the modeled transfer.
    macro_rules! release {
        ($j:expr) => {{
            let j = $j;
            released[j] = true;
            released_count += 1;
            for &child in children.row(j) {
                indegree[child] -= 1;
                let arrival = if chip_of[child] != chip_of[j] {
                    charge_transfer!(j, child, chip_of[child])
                } else {
                    now
                };
                ready_at[child] = ready_at[child].max(arrival);
                if indegree[child] == 0 {
                    queued[child] = true;
                    index.insert(child, chip_of[child], ready_at[child], now);
                }
            }
        }};
    }

    // The wave planners, over `chip`'s ready set and `cores` cores: the
    // debug-build oracle of every dispatch. A wave deals exactly their
    // plan, and an event-mode pick is the first job of a one-core wave.
    macro_rules! plan {
        ($chip:expr, $cores:expr) => {{
            let chip = $chip;
            let ready: Vec<usize> = (0..n)
                .filter(|&j| queued[j] && chip_of[j] == chip && ready_at[j] <= now)
                .collect();
            match sched {
                Scheduler::FairShare => plan_wave_tenanted_slo(
                    &ready, costs, &priority, tenant_of, &usage, weights, boost, $cores,
                ),
                _ => plan_wave(sched, &ready, costs, &priority, $cores),
            }
        }};
    }

    while released_count < n {
        // Phase 1: fire every event due by now, in (tick, component, seq)
        // order — faults first, then arrivals, then completions.
        while heap.peek().is_some_and(|Reverse(e)| e.tick <= now) {
            let Reverse(e) = heap.pop().expect("peeked");
            match e.kind {
                EventKind::Fault(idx) => {
                    let f = &faults[idx];
                    if dead[f.chip] {
                        continue; // killing a dead chip is a no-op
                    }
                    dead[f.chip] = true;
                    events.push(TraceEvent::Fault {
                        chip: f.chip,
                        tick: now,
                    });
                    if dead.iter().all(|&d| d) {
                        return Err(SimError {
                            cycle: (base + now) as usize,
                            pe: None,
                            kind: HazardKind::AllChipsDead { chips },
                        });
                    }
                    // The dying chip's unreleased work is revoked but stays
                    // metered (the energy was burned): a job in flight at
                    // its completion tick, a finished wave job now.
                    for g in chip_cores[f.chip].clone() {
                        if let Some(j) = core_job[g] {
                            revoked[j] = true;
                        }
                    }
                    for &j in &barrier {
                        if assignment[j].0 == f.chip && finished[j] {
                            finished[j] = false;
                            outputs[j] = None;
                            queued[j] = true;
                            if let TraceEvent::Job { discarded, .. } =
                                &mut events.events_mut()[log_at[j]]
                            {
                                *discarded = true;
                            }
                        }
                    }
                    // Everything else the chip owned requeues now,
                    // least-remaining-load-first, jobs in id order (its
                    // revoked in-flight jobs requeue as they complete).
                    let mut load = unfinished_load!();
                    for j in 0..n {
                        if chip_of[j] == f.chip && !finished[j] && !revoked[j] {
                            if queued[j] {
                                index.remove(j, f.chip);
                            }
                            requeue!(j, f.chip, load);
                            if queued[j] {
                                index.insert(j, chip_of[j], ready_at[j], now);
                            }
                        }
                    }
                }
                EventKind::TransferArrive => {} // the tick was the point
                EventKind::JobDone { core, job } => {
                    core_job[core] = None;
                    busy_cores -= 1;
                    let (chip, c) = assignment[job];
                    events.push(TraceEvent::Job {
                        job,
                        tenant: tenant_of[job],
                        chip,
                        core: c,
                        start: dispatch_tick[job],
                        end: now,
                        discarded: revoked[job],
                    });
                    if std::mem::take(&mut revoked[job]) {
                        outputs[job] = None;
                        let mut load = unfinished_load!();
                        requeue!(job, chip, load);
                        queued[job] = true;
                        index.insert(job, chip_of[job], ready_at[job], now);
                    } else {
                        finished[job] = true;
                        completion_tick[job] = now;
                        release!(job);
                    }
                }
            }
        }
        // A wave's survivors release once its barrier's kills have fired.
        for j in barrier.drain(..) {
            if finished[j] {
                release!(j);
            }
        }
        if released_count == n {
            break;
        }

        // Phase 2: dispatch, chips and cores in index order (the
        // deterministic tie-break).
        index.promote(now, &queued, &chip_of, &ready_at);
        let mut batch = 0usize;
        for chip in 0..chips {
            if dead[chip] {
                continue;
            }
            let cores = chip_cores[chip].clone();
            let expected = (cfg!(debug_assertions) && wave).then(|| plan!(chip, cores.len()));
            core_load[cores.clone()].fill(0);
            let mut idle = cores.clone().filter(|&g| core_job[g].is_none());
            for k in 0.. {
                // Events give each idle core one job. Waves deal the whole
                // ready set: FairShare one job per core, Fifo round-robin,
                // the others onto the least hint-loaded core.
                let g = if !wave {
                    match idle.next() {
                        Some(g) => g,
                        None => break,
                    }
                } else {
                    match sched {
                        Scheduler::FairShare if k == cores.len() => break,
                        Scheduler::Fifo | Scheduler::FairShare => cores.start + k % cores.len(),
                        Scheduler::LeastLoaded | Scheduler::CriticalPath => cores
                            .clone()
                            .min_by_key(|&g| (core_load[g], g))
                            .expect("a chip has at least one core"),
                    }
                };
                let pick = index.pick(chip, &usage);
                if !wave {
                    debug_assert_eq!(
                        pick,
                        plan!(chip, 1)[0].first().copied(),
                        "the ready index and the wave planner disagree at tick {now} on chip {chip}"
                    );
                }
                let Some(j) = pick else {
                    break; // nothing more ready on this chip
                };
                queued[j] = false;
                usage[tenant_of[j]] += costs[j].max(1);
                core_load[g] += costs[j].max(1);
                by_core[g].push(j);
            }
            if let Some(expected) = expected {
                assert_eq!(
                    expected.as_slice(),
                    &by_core[cores.clone()],
                    "the ready index and the wave planner disagree at tick {now} on chip {chip}"
                );
            }
            // Dispatch in bucket order: core, then position.
            for g in cores.clone() {
                for &j in &by_core[g] {
                    assignment[j] = (chip, g - cores.start);
                    wave_of[j] = wave_ends.len();
                    dispatch_tick[j] = now;
                    dispatch_seq[j] = batch;
                    let delta = &mut meters.per_tenant[tenant_of[j]];
                    delta.wait_cycles += now - ready_at[j];
                    delta.cost_dispatched += costs[j].max(1);
                    dispatch(g, j)?;
                    batch += 1;
                }
                if !wave {
                    if let Some(j) = by_core[g].pop() {
                        core_job[g] = Some(j);
                        busy_cores += 1;
                    }
                }
            }
        }

        // Phase 3: drain the whole batch before the clock moves.
        let done = collect_batch(
            batch,
            collect,
            &dispatch_seq,
            tenant_of,
            &mut meters,
            &mut outputs,
        )?;
        if wave && batch > 0 {
            // The wave finishes at its barrier: a core runs its bucket in
            // position order, so its spans are prefix sums, and the clock
            // advances by the slowest bucket.
            for (j, _, cycles) in done {
                job_cycles[j] = cycles;
                finished[j] = true;
                barrier.push(j);
            }
            let start = now;
            for bucket in by_core.iter_mut() {
                let mut t = start;
                for j in bucket.drain(..) {
                    let (chip, core) = assignment[j];
                    log_at[j] = events.len();
                    events.push(TraceEvent::Job {
                        job: j,
                        tenant: tenant_of[j],
                        chip,
                        core,
                        start: t,
                        end: t + job_cycles[j],
                        discarded: false,
                    });
                    t += job_cycles[j];
                }
                now = now.max(t);
            }
            wave_ends.push(now);
            continue;
        }
        // Completion events are pushed in job-id order, so the heap (and
        // the seq counter) stay deterministic.
        for (j, core, cycles) in done {
            push_event(
                &mut heap,
                &mut next_seq,
                now + cycles,
                ComponentId::Core(core),
                EventKind::JobDone { core, job: j },
            );
        }

        // Phase 4: hop to the next event. A gap with every core idle is a
        // stall (a transfer or fault wait), logged as one idle
        // fast-forward however many events it crosses.
        let Some(Reverse(next)) = heap.peek() else {
            break; // nothing running, nothing scheduled: dangling parents
        };
        if next.tick > now {
            if busy_cores == 0 {
                match events.events_mut().last_mut() {
                    Some(TraceEvent::IdleFastForward { end, .. }) if *end == now => {
                        *end = next.tick;
                    }
                    _ => events.push(TraceEvent::IdleFastForward {
                        start: now,
                        end: next.tick,
                    }),
                }
                stall_cycles += next.tick - now;
            }
            now = next.tick;
        }
    }

    let makespan = now;
    // Event mode: a core's busy intervals never intersect an all-idle
    // stall window, so `busy + idle + stall = makespan` per core. Wave
    // idle includes the stalls: `busy + idle = makespan`.
    let idle_per_core: Vec<u64> = meters
        .per_core
        .iter()
        .map(|s| makespan.saturating_sub(s.cycles + if wave { 0 } else { stall_cycles }))
        .collect();
    if !wave {
        // Event mode's waves are the distinct completion ticks.
        wave_ends = completion_tick.clone();
        wave_ends.sort_unstable();
        wave_ends.dedup();
        for (w, t) in wave_of.iter_mut().zip(&completion_tick) {
            *w = wave_ends.binary_search(t).expect("own completion tick");
        }
    }

    Ok(CoordRun {
        outputs: finish_outputs(outputs),
        assignment,
        wave_of,
        wave_ends,
        per_core: meters.per_core,
        jobs_per_core: meters.jobs_per_core,
        idle_per_core,
        makespan,
        stall_cycles,
        transferred_words,
        transfer_cycles,
        per_tenant: meters.per_tenant,
        events,
    })
}

/// The pick order: the wave planners' order, one job at a time.
/// `Fifo`/`LeastLoaded` take the lowest ready id (they differ only in
/// which core a wave places the pick on); `CriticalPath` takes the
/// longest remaining path; `FairShare` replays the streaming tenant
/// comparator of [`crate::service::plan_wave_tenanted_slo`] against the
/// live usage counters. Every order ends on the job id, so it is total.
struct PickOrder<'a> {
    sched: Scheduler,
    priority: &'a [u64],
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
    order: &'a PickOrder<'a>,
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
    fn new(order: &'a PickOrder<'a>, chips: usize, jobs: usize) -> Self {
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
    fn promote(&mut self, now: u64, queued: &[bool], chip_of: &[usize], ready_at: &[u64]) {
        while let Some(&Reverse((tick, j))) = self.waiting.peek() {
            if tick > now {
                break;
            }
            self.waiting.pop();
            if queued[j] && !self.in_ready[j] && ready_at[j] <= now {
                self.insert(j, chip_of[j], ready_at[j], now);
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
    use crate::service::LacService;
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
            chip_of,
        };
        let queue = RefCell::new(VecDeque::new());
        let mut dead = vec![false; topo.cores_per_chip.len()];
        drive(
            topo,
            plan,
            &mut dead,
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
                chip_of: vec![0, 0],
            };
            let err = drive(
                &topo(vec![1], 1, 0, mode),
                plan,
                &mut [false],
                &|_, _| Ok(()),
                &|| recv_report(&rx),
            )
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
        let cycles: Vec<u64> = r.outputs.iter().map(|o| o.cycles).collect();
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
