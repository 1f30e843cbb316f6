//! The coordinator: the one function every door of the stack calls.
//!
//! [`crate::chip::LacChip::run_graph`] and [`crate::cluster::LacCluster`]'s
//! `run_graph` and rounds (which [`crate::service::LacService`] fronts as
//! a one-chip cluster) all describe their shards as one `Topology` — a
//! chip is a one-chip topology with no links and no faults, a cluster is
//! N of them joined by links — and hand their job pool to `coordinate`.
//! It owns the stack's one worker pool: the calling thread runs one
//! core's share of every dispatch batch itself, and a scoped worker is
//! spawned for another core the first time a batch needs it (joined when
//! the run returns), so a batch on one core never crosses a thread and a
//! run without multi-core batches spawns none. It picks the time model
//! once ([`SimMode`]), collects every dispatch batch through one
//! failure-slot routine and returns one result type, `CoordRun`. Failure
//! and metering semantics therefore cannot drift between deployment
//! layers.
//!
//! Two time models share that door:
//!
//! * **Waves** ([`SimMode::Wave`], the default): every chip plans its
//!   ready set with the [`Scheduler`] policy, the shared clock advances by
//!   the slowest bucket anywhere, and only then are children released — a
//!   child whose parent ran on another chip waits for the modeled transfer.
//!   When every core would idle waiting on a link, the clock jumps to the
//!   next arrival and the gap is a transfer stall. Faults fire at wave
//!   boundaries.
//! * **Events** ([`SimMode::Event`]): a classic discrete-event loop over
//!   *components with independent clocks*. Every core is busy exactly
//!   while a job runs on it and takes a new job the tick it frees; every
//!   directed inter-chip link serializes the transfers it carries (two
//!   transfers on one link queue, transfers on different links and compute
//!   on both endpoints overlap); every chip carries its scheduled
//!   [`crate::fault::FaultPlan`] kills. Pending events live in one
//!   min-heap ordered by `(tick, component, seq)`; component ids order
//!   chips before links before cores, so a fault due at tick `t` revokes a
//!   job completing at the same tick, and the sequence number (assigned at
//!   deterministic push points) breaks every remaining tie. Idle
//!   fast-forward falls out of the heap: with no core busy, the loop pops
//!   the next event and accounts the gap as a stall. A free core's pick
//!   reads an index of the ready queue (one ordered set per chip and
//!   tenant, plus a min-heap of jobs still waiting on a transfer), so it
//!   costs O(tenants · log n), never a scan of the pool.
//!
//! Host interleavings never reach either clock: job reports are
//! buffered per dispatch batch and folded in job-id order, so runs are
//! bit-identical across reruns, core counts and machines.
//!
//! **Equivalence contract** (property-tested in `tests/event_props.rs`):
//! outputs are bit-identical between the two modes on every graph — job
//! outputs are placement-independent and both loops dispatch a child only
//! after all its parents completed. Only *clocks* may differ: event mode
//! overlaps transfers with compute, so on cut-edge graphs its makespan is
//! typically well below wave mode's.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;

use crate::chip::{ChipJob, ChipStats, Scheduler};
use crate::cluster::Transfer;
use crate::engine::LacEngine;
use crate::error::{HazardKind, SimError};
use crate::fault::FaultEvent;
use crate::service::{
    critical_paths, plan_wave, plan_wave_tenanted_slo, GraphRun, JobGraph, JobId,
};
use crate::stats::ExecStats;
use crate::trace::{EventLog, TraceEvent};

/// Which time model a chip, service or cluster drives its graphs with.
///
/// The knob lives on [`crate::chip::ChipConfig`] and
/// [`crate::cluster::ClusterConfig`]; both default to waves, the
/// compatibility mode every committed clock and baseline was recorded
/// under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimMode {
    /// Lock-step wave coordination (the default): plan a wave, advance
    /// the shared clock by the slowest bucket, release children.
    #[default]
    Wave,
    /// Discrete-event coordination: per-component clocks, eager dispatch
    /// the tick a core frees, cut-edge transfers overlapping with compute
    /// and queueing on their link. Outputs are bit-identical to
    /// [`SimMode::Wave`]; makespans are usually shorter on graphs with
    /// cross-chip edges.
    Event,
}

/// The shards a run coordinates over: chips of cores, the inter-chip link
/// model, and the time model. A chip is a one-chip topology.
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
    /// One chip of `cores` cores: no links, so no transfer ever prices.
    pub(crate) fn chip(cores: usize, mode: SimMode) -> Self {
        Self {
            cores_per_chip: vec![cores],
            link_words_per_cycle: 1,
            hop_latency_cycles: 0,
            mode,
        }
    }

    /// Every chip's slice of the flat (chips laid end to end) core list.
    pub(crate) fn chip_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.cores_per_chip.iter().scan(0, |start, &cores| {
            let range = *start..*start + cores;
            *start += cores;
            Some(range)
        })
    }

    /// Modeled cost of moving `words` across one hop:
    /// `hop_latency + ⌈words / link_bandwidth⌉` cycles.
    fn transfer_cycles(&self, words: u64) -> u64 {
        self.hop_latency_cycles + words.div_ceil(self.link_words_per_cycle.max(1))
    }
}

/// Everything one run schedules: the fused job pool (per-job hints, edges
/// and tenant tags), the tenancy, the fault schedule and the run state the
/// loops mutate in place.
pub(crate) struct Plan<'a> {
    /// Scheduler cost hint per job.
    pub(crate) costs: &'a [u64],
    /// Output size per job, words (prices cut edges).
    pub(crate) transfer_words: &'a [u64],
    /// `parents[j]` — jobs that must complete before `j` runs.
    pub(crate) parents: &'a [Vec<usize>],
    /// `children[j]` — inverse of `parents`.
    pub(crate) children: &'a [Vec<usize>],
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

/// Per-job hints of one untenanted graph — the shape the `run_graph`
/// doors coordinate: every job belongs to one anonymous tenant with
/// fresh usage.
pub(crate) struct Hints {
    costs: Vec<u64>,
    transfer_words: Vec<u64>,
    tenant_of: Vec<usize>,
}

impl Hints {
    /// Read `graph`'s cost and transfer hints.
    pub(crate) fn of<J: ChipJob>(graph: &JobGraph<J>) -> Self {
        Self {
            costs: graph.jobs.iter().map(|j| j.cost_hint()).collect(),
            transfer_words: graph.jobs.iter().map(|j| j.transfer_words()).collect(),
            tenant_of: vec![0; graph.len()],
        }
    }

    /// The fault-free, single-chip plan of `graph` under `sched`.
    pub(crate) fn plan<'a, J>(&'a self, graph: &'a JobGraph<J>, sched: Scheduler) -> Plan<'a> {
        Plan {
            costs: &self.costs,
            transfer_words: &self.transfer_words,
            parents: &graph.parents,
            children: &graph.children,
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

/// Run one job on its core's engine, honoring the shared abort flag and
/// measuring the session delta. Never unwinds: every dispatched job must
/// produce a report, or the coordinator would wait forever.
fn run_one<J: ChipJob>(eng: &mut LacEngine, job: &J, abort: &AtomicBool) -> JobOutcome<J::Output> {
    if abort.load(Ordering::Relaxed) {
        return JobOutcome::Skipped;
    }
    let before = *eng.session_stats();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_on(eng))) {
        Ok(Ok(out)) => JobOutcome::Completed(out, eng.session_stats().since(&before)),
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
/// (chips laid end to end). Chip doors read it as one chip, cluster doors
/// split it back into chips with [`Topology::chip_ranges`].
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
    /// Every modeled cross-chip payload movement, in charge order.
    pub(crate) transfers: Vec<Transfer>,
    /// Total words moved across links.
    pub(crate) transferred_words: u64,
    /// Total modeled link cycles charged.
    pub(crate) transfer_cycles: u64,
    /// Per-tenant meter deltas (dispatch-charged).
    pub(crate) per_tenant: Vec<TenantDelta>,
    /// Job spans, transfers, faults, requeues and idle fast-forwards on
    /// the run-relative clock.
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

    /// Each job's global core index (chips laid end to end).
    pub(crate) fn global_cores(&self, topo: &Topology) -> Vec<usize> {
        let starts: Vec<usize> = topo.chip_ranges().map(|r| r.start).collect();
        self.assignment
            .iter()
            .map(|&(chip, core)| starts[chip] + core)
            .collect()
    }

    /// A one-chip run as the chip door reports it.
    pub(crate) fn into_graph_run(self) -> GraphRun<T> {
        let stats = self.chip_stats(0..self.per_core.len());
        GraphRun {
            outputs: self.outputs,
            assignment: self.assignment.into_iter().map(|(_, core)| core).collect(),
            wave_of: self.wave_of,
            waves: self.wave_ends.len(),
            wave_end_cycles: self.wave_ends,
            idle_per_core: self.idle_per_core,
            stats,
            events: self.events,
        }
    }
}

/// Coordinate one run of `plan` on `topo` over `shards` (global core
/// order); `job_of` maps a pool index to its job. Drives the time model's
/// loop and runs every dispatch batch: the calling thread runs the share
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
    shards: Vec<&mut LacEngine>,
    job_of: &(dyn Fn(usize) -> &'j J + Sync),
) -> Result<CoordRun<J::Output>, SimError> {
    let abort = AtomicBool::new(false);
    let shards: Vec<Mutex<&mut LacEngine>> = shards.into_iter().map(Mutex::new).collect();
    let run_on = |core: usize, job: usize| {
        // `run_one` never unwinds, so no guard is dropped mid-panic and
        // the lock cannot be poisoned.
        let mut eng = shards[core].lock().expect("shard lock poisoned");
        Done {
            core,
            job,
            outcome: run_one(&mut eng, job_of(job), &abort),
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
                    return;
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
                tx.send(job).expect("worker hung up");
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
                        run_on(core, job)
                    }
                    None => done_rx.recv().expect("worker hung up"),
                }
            },
        )
    })
}

/// Run the time model's loop against a dispatch/collect pair:
/// `dispatch(core, job)` hands a pool job to a core, `collect()` blocks
/// for the next report.
fn drive<T>(
    topo: &Topology,
    plan: Plan<'_>,
    dead: &mut [bool],
    dispatch: &dyn Fn(usize, usize),
    collect: &dyn Fn() -> Done<T>,
) -> Result<CoordRun<T>, SimError> {
    match topo.mode {
        SimMode::Wave => drive_cluster(topo, plan, dead, dispatch, collect),
        SimMode::Event => drive_event(topo, plan, dead, dispatch, collect),
    }
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
    collect: &mut impl FnMut() -> Done<T>,
    dispatch_seq: &[usize],
    tenant_of: &[usize],
    meters: &mut Meters,
    outputs: &mut [Option<T>],
) -> Result<Vec<(usize, usize, u64)>, SimError> {
    let mut done: Vec<(usize, usize, T, ExecStats)> = Vec::with_capacity(dispatched);
    let mut first_err: Option<(usize, SimError)> = None;
    let mut first_panic: Option<(usize, usize, usize, String)> = None;
    for _ in 0..dispatched {
        let report = collect();
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

/// Apply every scheduled fault whose tick is due by `base + clock` (see
/// [`crate::fault::FaultPlan`] for the fault model): mark the chip dead,
/// revoke the jobs it completed in the wave that just retired
/// (`wave_completed`), and requeue every uncompleted job it owned onto the
/// surviving chips — least remaining load first (ties to the lower chip
/// index), jobs in id order. A requeued job whose parent completed *in an
/// earlier wave* on a different chip pays one fresh modeled transfer to
/// move the parent's durable output to its new home; parents completing in
/// the current wave charge their edge through the normal release path
/// afterwards, against the updated placement, so no edge is ever
/// double-charged.
///
/// Called at wave boundaries only (after a wave's collection, at the top
/// of the loop after a fast-forward, and before the first wave), which is
/// what keeps fault handling bit-deterministic. Errors with
/// [`HazardKind::AllChipsDead`] when a kill leaves no survivor.
#[allow(clippy::too_many_arguments)] // the fault's full requeue context
fn apply_due_faults<T>(
    topo: &Topology,
    plan: &mut Plan<'_>,
    applied: &mut [bool],
    dead: &mut [bool],
    clock: u64,
    completed_mask: &[bool],
    assignment: &[(usize, usize)],
    in_wave: &mut [bool],
    outputs: &mut [Option<T>],
    wave_completed: &mut Vec<usize>,
    ready_at: &mut [u64],
    transfers: &mut Vec<Transfer>,
    wave_events_start: usize,
    events: &mut EventLog,
) -> Result<(), SimError> {
    let n = plan.costs.len();
    let chips = dead.len();
    for (i, f) in plan.faults.iter().enumerate() {
        if f.tick > plan.base + clock {
            break; // sorted by tick: nothing further is due
        }
        if applied[i] {
            continue;
        }
        applied[i] = true;
        if dead[f.chip] {
            continue; // killing a dead chip is a no-op
        }
        dead[f.chip] = true;
        events.push(TraceEvent::Fault {
            chip: f.chip,
            tick: clock,
        });
        if dead.iter().all(|&d| d) {
            return Err(SimError {
                cycle: (plan.base + clock) as usize,
                pe: None,
                kind: HazardKind::AllChipsDead { chips },
            });
        }
        // Revoke the dying chip's in-flight wave: the work ran (and
        // stays metered — the energy was burned) but its outputs are
        // discarded and its children are not released.
        wave_completed.retain(|&j| {
            if assignment[j].0 != f.chip {
                return true;
            }
            outputs[j] = None;
            // The planner leaves dispatched jobs pending until the
            // end-of-wave sweep removes the `in_wave` ones — clearing the
            // flag keeps the revoked job queued without duplicating it.
            in_wave[j] = false;
            for ev in events.events_mut()[wave_events_start..].iter_mut() {
                if let TraceEvent::Job { job, discarded, .. } = ev {
                    if *job == j {
                        *discarded = true;
                    }
                }
            }
            false
        });
        // Requeue every uncompleted job off the dead chip, balancing by
        // remaining cost over the survivors.
        let chip_of = &mut plan.chip_of;
        let mut load = vec![0u64; chips];
        for j in 0..n {
            if outputs[j].is_none() && !dead[chip_of[j]] {
                load[chip_of[j]] += plan.costs[j].max(1);
            }
        }
        for j in 0..n {
            if chip_of[j] != f.chip || outputs[j].is_some() {
                continue;
            }
            let target = (0..chips)
                .filter(|&c| !dead[c])
                .min_by_key(|&c| (load[c], c))
                .expect("a survivor exists");
            load[target] += plan.costs[j].max(1);
            chip_of[j] = target;
            events.push(TraceEvent::Requeue {
                job: j,
                from_chip: f.chip,
                to_chip: target,
                tick: clock,
            });
            // Completed parents' outputs are durable (the coordinator's
            // results store); moving one to the job's new home costs one
            // fresh hop when they sit on different chips.
            for &p in &plan.parents[j] {
                if completed_mask[p] && chip_of[p] != target {
                    let words = plan.transfer_words[p].max(1);
                    let cycles = topo.transfer_cycles(words);
                    transfers.push(Transfer {
                        parent: JobId::from_index(p),
                        child: JobId::from_index(j),
                        from_chip: chip_of[p],
                        to_chip: target,
                        words,
                        cycles,
                    });
                    ready_at[j] = ready_at[j].max(clock + cycles);
                    events.push(TraceEvent::Transfer {
                        parent: p,
                        child: j,
                        from_chip: chip_of[p],
                        to_chip: target,
                        words,
                        start: clock,
                        end: clock + cycles,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The wave loop: per wave, plan each chip's ready jobs with the chip's
/// own core count, dispatch, collect, advance the shared clock by the
/// slowest bucket anywhere, then release children — delaying any child
/// whose parent ran on another chip by the modeled transfer. A wave with no
/// ready jobs but pending transfers fast-forwards the clock to the next
/// arrival (a transfer stall). On one chip there are no cut edges and no
/// faults, so this is exactly the classic single-chip wave loop.
fn drive_cluster<T>(
    topo: &Topology,
    mut plan: Plan<'_>,
    dead: &mut [bool],
    mut dispatch: impl FnMut(usize, usize),
    mut collect: impl FnMut() -> Done<T>,
) -> Result<CoordRun<T>, SimError> {
    let n = plan.costs.len();
    let chips = topo.cores_per_chip.len();
    let chip_base: Vec<usize> = topo.chip_ranges().map(|r| r.start).collect();
    let total_cores: usize = topo.cores_per_chip.iter().sum();
    let (costs, tenant_of, sched) = (plan.costs, plan.tenant_of, plan.sched);

    let priority = critical_paths(costs, plan.children);
    let mut indegree: Vec<usize> = plan.parents.iter().map(|p| p.len()).collect();
    // Jobs whose parents all completed, waiting for `ready_at` (transfer
    // arrival) and a planner slot. Kept sorted by job id.
    let mut pending: Vec<usize> = (0..n).filter(|&j| indegree[j] == 0).collect();
    let mut ready_at = vec![0u64; n];

    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut assignment = vec![(0usize, 0usize); n];
    let mut wave_of = vec![0usize; n];
    let mut dispatch_seq = vec![0usize; n];
    let mut meters = Meters::new(total_cores, plan.weights.len());
    let mut idle_per_core = vec![0u64; total_cores];
    let mut in_wave = vec![false; n];
    let mut completed_mask = vec![false; n];
    let mut applied = vec![false; plan.faults.len()];
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut stall_cycles = 0u64;
    let mut clock = 0u64;
    let mut wave_ends: Vec<u64> = Vec::new();
    let mut events = EventLog::new();
    // This wave's buckets per global core, and each job's busy cycles.
    let mut by_core: Vec<Vec<usize>> = vec![Vec::new(); total_cores];
    let mut job_cycles = vec![0u64; n];

    while !pending.is_empty() {
        // Faults due before any wave runs (at run start, or during a
        // fast-forward gap) fire here; nothing is in flight, so there is
        // nothing to revoke.
        apply_due_faults(
            topo,
            &mut plan,
            &mut applied,
            dead,
            clock,
            &completed_mask,
            &assignment,
            &mut in_wave,
            &mut outputs,
            &mut Vec::new(),
            &mut ready_at,
            &mut transfers,
            events.len(),
            &mut events,
        )?;

        let ready: Vec<usize> = pending
            .iter()
            .copied()
            .filter(|&j| ready_at[j] <= clock)
            .collect();
        if ready.is_empty() {
            // Every pending job is waiting on an in-flight transfer:
            // fast-forward to the earliest arrival — clamped to the next
            // scheduled fault, so a kill falling inside the gap still
            // fires at its own tick. The whole cluster idles through.
            let next_ready = pending.iter().map(|&j| ready_at[j]).min().unwrap();
            let next_fault = plan
                .faults
                .iter()
                .zip(applied.iter())
                .filter(|(f, &a)| !a && !dead[f.chip] && f.tick > plan.base + clock)
                .map(|(f, _)| f.tick - plan.base)
                .min();
            let next = next_fault.map_or(next_ready, |ft| next_ready.min(ft));
            let gap = next - clock;
            for idle in idle_per_core.iter_mut() {
                *idle += gap;
            }
            stall_cycles += gap;
            events.push(TraceEvent::IdleFastForward {
                start: clock,
                end: next,
            });
            clock = next;
            continue;
        }

        // Plan chip by chip in chip order; FairShare usage is charged as
        // each chip's buckets are fixed, so later chips see earlier
        // chips' picks — one global deficit account, deterministically.
        for bucket in by_core.iter_mut() {
            for j in bucket.drain(..) {
                in_wave[j] = false;
            }
        }
        let mut dispatched = 0usize;
        for chip in 0..chips {
            if dead[chip] {
                continue; // requeue keeps dead chips out of chip_of too
            }
            let chip_ready: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&j| plan.chip_of[j] == chip)
                .collect();
            if chip_ready.is_empty() {
                continue;
            }
            let cores = topo.cores_per_chip[chip];
            let buckets = match sched {
                Scheduler::FairShare => plan_wave_tenanted_slo(
                    &chip_ready,
                    costs,
                    &priority,
                    tenant_of,
                    &plan.usage,
                    plan.weights,
                    plan.boost,
                    cores,
                ),
                _ => plan_wave(sched, &chip_ready, costs, &priority, cores),
            };
            for (core, bucket) in buckets.iter().enumerate() {
                let g = chip_base[chip] + core;
                for &j in bucket {
                    assignment[j] = (chip, core);
                    wave_of[j] = wave_ends.len();
                    in_wave[j] = true;
                    dispatch_seq[j] = dispatched;
                    by_core[g].push(j);
                    let t = tenant_of[j];
                    let delta = &mut meters.per_tenant[t];
                    delta.wait_cycles += clock - ready_at[j];
                    delta.cost_dispatched += costs[j].max(1);
                    plan.usage[t] += costs[j].max(1);
                    dispatch(g, j);
                    dispatched += 1;
                }
            }
        }
        let wave_start = clock;

        let done = collect_batch(
            dispatched,
            &mut collect,
            &dispatch_seq,
            tenant_of,
            &mut meters,
            &mut outputs,
        )?;
        let mut wave_cycles = vec![0u64; total_cores];
        let mut completed: Vec<usize> = Vec::with_capacity(done.len());
        for (j, core, cycles) in done {
            wave_cycles[core] += cycles;
            job_cycles[j] = cycles;
            completed.push(j);
        }

        let span = wave_cycles.iter().copied().max().unwrap_or(0);
        for c in 0..total_cores {
            idle_per_core[c] += span - wave_cycles[c];
        }
        clock += span;
        wave_ends.push(clock);

        // Log the wave's job spans: a core runs its bucket in position
        // order, so starts are prefix sums of the per-job busy cycles.
        let wave_events_start = events.len();
        for bucket in &by_core {
            let mut t = wave_start;
            for &j in bucket {
                let (chip, core) = assignment[j];
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
        }

        // A kill whose tick fell inside this wave fires now, at the
        // boundary: it discards the dying chip's slice of the wave and
        // requeues its jobs before any child is released.
        apply_due_faults(
            topo,
            &mut plan,
            &mut applied,
            dead,
            clock,
            &completed_mask,
            &assignment,
            &mut in_wave,
            &mut outputs,
            &mut completed,
            &mut ready_at,
            &mut transfers,
            wave_events_start,
            &mut events,
        )?;

        // Release children; a cross-chip edge delays the child by the
        // modeled transfer and records the charge (exactly once per cut
        // edge on the fault-free path — a parent completes exactly once;
        // requeues may re-charge an edge to the child's new home).
        for &j in &completed {
            completed_mask[j] = true;
            for &child in &plan.children[j] {
                let (from, to) = (plan.chip_of[j], plan.chip_of[child]);
                let arrival = if from != to {
                    let words = plan.transfer_words[j].max(1);
                    let cycles = topo.transfer_cycles(words);
                    transfers.push(Transfer {
                        parent: JobId::from_index(j),
                        child: JobId::from_index(child),
                        from_chip: from,
                        to_chip: to,
                        words,
                        cycles,
                    });
                    events.push(TraceEvent::Transfer {
                        parent: j,
                        child,
                        from_chip: from,
                        to_chip: to,
                        words,
                        start: clock,
                        end: clock + cycles,
                    });
                    clock + cycles
                } else {
                    clock
                };
                ready_at[child] = ready_at[child].max(arrival);
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    pending.push(child);
                }
            }
        }
        // Undispatched ready jobs (the quantum-capped policy's backlog)
        // stay pending; newly released children and fault-revoked jobs
        // joined them above (revocation clears `in_wave`).
        pending.retain(|&j| !in_wave[j]);
        pending.sort_unstable();
    }

    Ok(CoordRun {
        outputs: finish_outputs(outputs),
        assignment,
        wave_of,
        wave_ends,
        per_core: meters.per_core,
        jobs_per_core: meters.jobs_per_core,
        idle_per_core,
        makespan: clock,
        stall_cycles,
        transferred_words: transfers.iter().map(|t| t.words).sum(),
        transfer_cycles: transfers.iter().map(|t| t.cycles).sum(),
        transfers,
        per_tenant: meters.per_tenant,
        events,
    })
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

/// The event loop. Workers report real measured [`ExecStats`] deltas,
/// and every dispatch batch is drained before the simulated clock moves,
/// so job durations are known by the time their completion events are
/// scheduled.
///
/// Fault model, requeue rules and metering match the wave loop (see
/// [`crate::fault`]) with one refinement: a kill fires at its exact tick
/// rather than the next wave boundary, revoking whatever runs on the
/// dying chip at that tick.
fn drive_event<T>(
    topo: &Topology,
    plan: Plan<'_>,
    dead: &mut [bool],
    mut dispatch: impl FnMut(usize, usize),
    mut collect: impl FnMut() -> Done<T>,
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
    let n = costs.len();
    let chips = topo.cores_per_chip.len();
    let chip_base: Vec<usize> = topo.chip_ranges().map(|r| r.start).collect();
    let total_cores: usize = topo.cores_per_chip.iter().sum();

    let priority = critical_paths(costs, children);
    let order = PickOrder {
        sched,
        priority: &priority,
        tenant_of,
        weights,
        boost,
    };
    let mut indegree: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    let mut ready_at = vec![0u64; n];
    // In the dispatchable pool: all parents done, not running/completed.
    let mut queued: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
    let mut index = ReadyIndex::new(&order, chips, n);
    for j in (0..n).filter(|&j| queued[j]) {
        index.insert(j, chip_of[j], 0, 0);
    }
    let mut running = vec![false; n];
    let mut completed_mask = vec![false; n];
    let mut revoked = vec![false; n];
    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut assignment = vec![(0usize, 0usize); n];
    let mut completion_tick = vec![0u64; n];
    let mut dispatch_tick = vec![0u64; n];
    let mut dispatch_seq = vec![0usize; n];
    let mut meters = Meters::new(total_cores, weights.len());
    let mut events = EventLog::new();

    // Core and link occupancy.
    let mut core_job: Vec<Option<usize>> = vec![None; total_cores];
    let mut link_free = vec![0u64; chips * chips];
    let mut busy_cores = 0usize;

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut next_seq = 0u64;
    // Faults are ordinary events from the start; kills already due at
    // run start fire at tick 0, before anything dispatches.
    if n > 0 {
        for (i, f) in faults.iter().enumerate() {
            push_event(
                &mut heap,
                &mut next_seq,
                f.tick.saturating_sub(base),
                ComponentId::Chip(f.chip),
                EventKind::Fault(i),
            );
        }
    }

    let mut now = 0u64;
    let mut completed_count = 0usize;
    let mut stall_cycles = 0u64;
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut dispatch_counter = 0usize;

    // Charge the modeled movement of `parent`'s output to `child`'s chip
    // through the link's own clock: serialization queues behind whatever
    // the link already carries; the pipelined hop latency is added on
    // top without occupying the link.
    macro_rules! charge_transfer {
        ($parent:expr, $child:expr, $to:expr) => {{
            let p = $parent;
            let from = chip_of[p];
            let to = $to;
            let words = transfer_words[p].max(1);
            let ser = words.div_ceil(topo.link_words_per_cycle.max(1));
            let link = from * chips + to;
            let start = now.max(link_free[link]);
            link_free[link] = start + ser;
            let arrival = start + ser + topo.hop_latency_cycles;
            transfers.push(Transfer {
                parent: JobId::from_index(p),
                child: JobId::from_index($child),
                from_chip: from,
                to_chip: to,
                words,
                cycles: arrival - now,
            });
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

    // Move job `j` off the dead chip `from` onto the surviving chip with
    // the least remaining (uncompleted) cost, ties to the lower index —
    // the wave loop's requeue rule. Completed parents on other chips pay
    // one fresh modeled transfer to the job's new home.
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
            ready_at[j] = ready_at[j].max(now);
            for &p in &parents[j] {
                if completed_mask[p] && chip_of[p] != target {
                    let arrival = charge_transfer!(p, j, target);
                    ready_at[j] = ready_at[j].max(arrival);
                }
            }
        }};
    }

    while completed_count < n {
        // Phase 1: fire every event due at the current tick, in
        // (component, seq) order — faults first, then arrivals, then
        // completions.
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
                    // Executions in flight on the dying chip are revoked
                    // at their completion tick (the work stays metered).
                    let range = chip_base[f.chip]..chip_base[f.chip] + topo.cores_per_chip[f.chip];
                    for g in range {
                        if let Some(j) = core_job[g] {
                            revoked[j] = true;
                        }
                    }
                    // Everything else the chip owned requeues now,
                    // least-remaining-load-first, jobs in id order.
                    let mut load = vec![0u64; chips];
                    for j in 0..n {
                        if !completed_mask[j] && !dead[chip_of[j]] {
                            load[chip_of[j]] += costs[j].max(1);
                        }
                    }
                    for j in 0..n {
                        if chip_of[j] == f.chip && !completed_mask[j] && !running[j] {
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
                    running[job] = false;
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
                    if revoked[job] {
                        revoked[job] = false;
                        outputs[job] = None;
                        let mut load = vec![0u64; chips];
                        for j in 0..n {
                            if !completed_mask[j] && !dead[chip_of[j]] {
                                load[chip_of[j]] += costs[j].max(1);
                            }
                        }
                        requeue!(job, chip, load);
                        queued[job] = true;
                        index.insert(job, chip_of[job], ready_at[job], now);
                    } else {
                        completed_mask[job] = true;
                        completed_count += 1;
                        completion_tick[job] = now;
                        for &child in &children[job] {
                            indegree[child] -= 1;
                            let arrival = if chip_of[child] != chip_of[job] {
                                charge_transfer!(job, child, chip_of[child])
                            } else {
                                now
                            };
                            ready_at[child] = ready_at[child].max(arrival);
                            if indegree[child] == 0 {
                                queued[child] = true;
                                index.insert(child, chip_of[child], ready_at[child], now);
                            }
                        }
                    }
                }
            }
        }
        if completed_count == n {
            break;
        }

        // Phase 2: eager dispatch — every free core on every alive chip
        // takes the policy's best ready job, chips and cores in index
        // order (the deterministic tie-break).
        index.promote(now, &queued, &chip_of, &ready_at);
        let mut batch = 0usize;
        for chip in 0..chips {
            if dead[chip] {
                continue;
            }
            for core in 0..topo.cores_per_chip[chip] {
                let g = chip_base[chip] + core;
                if core_job[g].is_some() {
                    continue;
                }
                let pick = index.pick(chip, &usage);
                debug_assert_eq!(
                    pick,
                    pick_ready(
                        sched, &queued, &chip_of, &ready_at, now, chip, &priority, tenant_of,
                        &usage, weights, boost,
                    ),
                    "the ready index and the linear scan disagree at tick {now} on chip {chip}"
                );
                let Some(j) = pick else {
                    break; // nothing ready on this chip for any free core
                };
                queued[j] = false;
                running[j] = true;
                core_job[g] = Some(j);
                busy_cores += 1;
                assignment[j] = (chip, core);
                dispatch_tick[j] = now;
                dispatch_seq[j] = dispatch_counter;
                dispatch_counter += 1;
                let t = tenant_of[j];
                let delta = &mut meters.per_tenant[t];
                delta.wait_cycles += now - ready_at[j];
                delta.cost_dispatched += costs[j].max(1);
                usage[t] += costs[j].max(1);
                dispatch(g, j);
                batch += 1;
            }
        }

        // Phase 3: drain the whole batch before the clock moves — the
        // workers' measured durations become completion events, pushed in
        // job-id order so the heap (and the seq counter) stay
        // deterministic.
        let done = collect_batch(
            batch,
            &mut collect,
            &dispatch_seq,
            tenant_of,
            &mut meters,
            &mut outputs,
        )?;
        for (j, core, cycles) in done {
            push_event(
                &mut heap,
                &mut next_seq,
                now + cycles,
                ComponentId::Core(core),
                EventKind::JobDone { core, job: j },
            );
        }

        // Phase 4: hop to the next event horizon. A gap with every core
        // idle is a stall (a transfer or fault wait) — the event-mode
        // reading of the wave loop's idle fast-forward.
        let Some(Reverse(next)) = heap.peek() else {
            break; // nothing running, nothing scheduled: dangling parents
        };
        if next.tick > now {
            if busy_cores == 0 {
                events.push(TraceEvent::IdleFastForward {
                    start: now,
                    end: next.tick,
                });
                stall_cycles += next.tick - now;
            }
            now = next.tick;
        }
    }

    let makespan = now;
    // A core's busy intervals never intersect an all-idle stall window,
    // so `busy + stall <= makespan` holds per core and the remainder is
    // its dependency idle: `busy + idle + stall = makespan`.
    let idle_per_core: Vec<u64> = meters
        .per_core
        .iter()
        .map(|s| makespan.saturating_sub(s.cycles + stall_cycles))
        .collect();
    let mut wave_ends: Vec<u64> = completion_tick.clone();
    wave_ends.sort_unstable();
    wave_ends.dedup();
    let wave_of: Vec<usize> = completion_tick
        .iter()
        .map(|t| wave_ends.binary_search(t).expect("own completion tick"))
        .collect();

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
        transferred_words: transfers.iter().map(|t| t.words).sum(),
        transfer_cycles: transfers.iter().map(|t| t.cycles).sum(),
        transfers,
        per_tenant: meters.per_tenant,
        events,
    })
}

/// The per-core dispatch order: the event-mode reading of the wave
/// planners, one job at a time. `Fifo`/`LeastLoaded` take the lowest
/// ready id (placement, their wave-mode difference, is now the free core
/// itself); `CriticalPath` takes the longest remaining path;
/// `FairShare` replays the streaming tenant comparator of
/// [`crate::service::plan_wave_tenanted_slo`] against the live usage
/// counters. Every order ends on the job id, so it is total.
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

/// The per-core pick by linear scan over the whole pool: the
/// specification [`ReadyIndex::pick`] must reproduce, written
/// independently of [`PickOrder`] and kept as its debug-build oracle.
#[allow(clippy::too_many_arguments)] // the full deterministic pick context
fn pick_ready(
    sched: Scheduler,
    queued: &[bool],
    chip_of: &[usize],
    ready_at: &[u64],
    now: u64,
    chip: usize,
    priority: &[u64],
    tenant_of: &[usize],
    usage: &[u64],
    weights: &[u64],
    boost: &[u64],
) -> Option<usize> {
    let candidates =
        (0..queued.len()).filter(|&j| queued[j] && chip_of[j] == chip && ready_at[j] <= now);
    match sched {
        Scheduler::Fifo | Scheduler::LeastLoaded => candidates.min(),
        Scheduler::CriticalPath => candidates.min_by_key(|&j| (Reverse(priority[j]), j)),
        Scheduler::FairShare => candidates.min_by(|&a, &b| {
            let (ta, tb) = (tenant_of[a], tenant_of[b]);
            let ua = usage[ta] as u128 * weights[tb].max(1) as u128;
            let ub = usage[tb] as u128 * weights[ta].max(1) as u128;
            boost[ta]
                .cmp(&boost[tb])
                .then_with(|| ua.cmp(&ub))
                .then_with(|| priority[b].cmp(&priority[a]))
                .then_with(|| a.cmp(&b))
        }),
    }
}

/// The event loop's queued jobs, indexed so a pick never scans the pool
/// (the min-heap dispatch of a classic event-driven simulator): per
/// (chip, tenant), the queued jobs whose `ready_at` has passed, ordered
/// by [`PickOrder::key`]; plus a min-heap of queued jobs still waiting on
/// a transfer, promoted as the clock reaches them. A pick compares only
/// the tenants' heads, which yields the scan's pick because the
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
    use crate::chip::{ChipConfig, LacChip};
    use crate::cluster::{ClusterConfig, LacCluster};
    use crate::config::LacConfig;
    use crate::isa::ProgramBuilder;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// Coordinate against a pure in-memory backend: `dispatch` queues
    /// `(core, job)`, `collect` reports the job's cost hint as its
    /// measured duration (and output). Tests the loops without engines or
    /// threads.
    fn run(
        topo: &Topology,
        costs: &[u64],
        words: &[u64],
        edges: &[(usize, usize)],
        chip_of: Vec<usize>,
        faults: &[FaultEvent],
    ) -> Result<CoordRun<ExecStats>, SimError> {
        let n = costs.len();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for &(p, c) in edges {
            parents[c].push(p);
            children[p].push(c);
        }
        let tenant_of = vec![0; n];
        let plan = Plan {
            costs,
            transfer_words: words,
            parents: &parents,
            children: &children,
            tenant_of: &tenant_of,
            weights: &[1],
            boost: &[u64::MAX],
            faults,
            base: 0,
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
            &|core, job| queue.borrow_mut().push_back((core, job)),
            &|| {
                let (core, job) = queue.borrow_mut().pop_front().expect("a dispatched job");
                let delta = ExecStats {
                    cycles: costs[job],
                    ..Default::default()
                };
                Done {
                    core,
                    job,
                    outcome: JobOutcome::Completed(delta, delta),
                }
            },
        )
    }

    fn event_topo(cores_per_chip: Vec<usize>, link: u64, hop: u64) -> Topology {
        Topology {
            cores_per_chip,
            link_words_per_cycle: link,
            hop_latency_cycles: hop,
            mode: SimMode::Event,
        }
    }

    #[test]
    fn transfers_overlap_with_compute_on_both_chips() {
        // Chip 0 runs job 0 then feeds job 2 on chip 1 while chip 0's
        // independent job 1 and the transfer overlap: event-mode
        // makespan is compute-bound, not barrier-bound.
        let topo = event_topo(vec![1, 1], 1, 100);
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
        let topo = event_topo(vec![2, 1], 1, 10);
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
        let topo = event_topo(vec![1, 1], 1, 0);
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
    fn all_dead_is_a_hard_error_and_empty_graphs_are_free() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let topo = Topology::chip(1, mode);
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

        fn run_on(&self, eng: &mut LacEngine) -> Result<ExecStats, SimError> {
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
                    let mut b = ProgramBuilder::new(eng.config().nr);
                    b.idle(4 + self.id);
                    let out = eng.run_program(&b.build())?;
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

    fn chip(cores: usize, mode: SimMode) -> LacChip {
        LacChip::new(ChipConfig::new(cores, LacConfig::default()).with_sim_mode(mode))
    }

    #[test]
    fn a_one_core_run_never_leaves_the_calling_thread() {
        for mode in [SimMode::Wave, SimMode::Event] {
            let probe = Probe::default();
            let run = chip(1, mode)
                .run_graph(&probe.dag(9), Scheduler::CriticalPath)
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
            let err = chip(2, mode).run_graph(&g, Scheduler::Fifo).unwrap_err();
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
                chip.run_graph(&g, Scheduler::Fifo)
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
            let run = chip.run_graph(&probe.dag(5), Scheduler::Fifo).unwrap();
            assert_eq!(run.outputs.len(), 5, "{mode:?}");
        }
    }
}
