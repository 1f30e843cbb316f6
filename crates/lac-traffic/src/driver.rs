//! The request driver: replay an [`ArrivalTrace`] of requests against a
//! serving backend and account every request's sojourn time.
//!
//! Closed-loop benchmarking (submit a batch, measure its makespan) hides
//! queueing: the next request conveniently waits for the previous one.
//! Open-loop serving replays arrivals on their *own* clock — if the
//! backend falls behind, the queue grows and sojourn times balloon,
//! exactly like production.
//!
//! [`run_open_loop_dynamic`] is the one driver for every request shape.
//! Each arrival becomes a [`DynamicGraph`]: an initial segment plus a
//! continuation that decides, from each completed segment's outputs,
//! whether the request grows (`lac_sim::dynamic`). A fixed graph is
//! `DynamicGraph::fixed(graph)` — one segment, then done — and a closed
//! batch is a trace whose arrivals are all due at tick 0
//! ([`ArrivalTrace::batch`]), which the driver admits into its first
//! round without inserting an idle cycle. Each pass:
//!
//! 1. **Fast-forward** — with nothing pending or admitted and the next
//!    arrival in the future, advance the backend's simulated clock to it
//!    through the `advance_idle` door (static energy keeps accruing; no
//!    busy work is invented). This is an *event-horizon hop*: the next
//!    arrival is the earliest event the idle backend can observe, so
//!    jumping straight to it is exactly what the discrete-event core
//!    (`lac_sim::SimMode::Event`) does with its heap inside a round — the
//!    driver does the same hop between rounds, one layer up.
//! 2. **Admit** — pending work first (graphs bounced by deterministic
//!    backpressure and freshly appended segments, oldest arrival first),
//!    then every arrival due by now, stamped with its `arrival_tick`. Each
//!    graph is offered to its tenant's admission door and charged against
//!    the tenant's budget, so a request that grows can never sneak past
//!    it; admission stops at the first bounce, so a newer arrival never
//!    overtakes an older one.
//! 3. **Serve** — one `run_admitted` round executes everything admitted.
//!    Tenants with a deadline SLO get a boost equal to their *deadline
//!    slack* (earliest pending arrival's deadline minus now): the
//!    fair-share planner serves boosted tenants least-slack-first,
//!    preemption-free ([`lac_sim::plan_wave_tenanted_slo`]).
//! 4. **Account** — each completed segment goes to its continuation. An
//!    appended segment waits for the next admission pass; a finished
//!    request's sojourn (its *final* segment's completion tick − arrival
//!    tick, via the round's `wave_end_cycles`) lands in its tenant's
//!    [`LatencyHistogram`].
//!
//! Every step is a pure function of the trace, the configs and the cost
//! hints, so a whole replay is bit-identical across reruns — and its
//! *outputs*, segment counts included, are bit-identical across scheduler
//! policies and backends too (scheduling moves latencies, never results).
//!
//! Failures are typed, never panics: a graph that can *never* fit its
//! tenant's admission budget surfaces as
//! [`OpenLoopError::AdmissionDeadlock`], and a backend that hands back a
//! truncated wave clock (violating the [`OpenLoopBackend::run_boosted`]
//! contract) surfaces as [`OpenLoopError::TruncatedWaveClock`] instead of
//! silently mis-accounting sojourns.

use crate::hist::LatencyHistogram;
use crate::trace::{Arrival, ArrivalTrace};
use lac_sim::chip::ChipJob;
use lac_sim::dynamic::{Continuation, Continue, DynamicGraph, DynamicOutcome};
use lac_sim::{
    ClusterRound, EventLog, GraphCompletion, GraphTicket, JobGraph, LacCluster, LacService,
    Rejected, Scheduler, ServiceRound, SimError, TenantId, TraceEvent,
};
use std::collections::BTreeMap;
use std::fmt;

/// Why a replay stopped early.
#[derive(Clone, Debug, PartialEq)]
pub enum OpenLoopError {
    /// The backend failed a serving round (a hard simulation hazard).
    Sim(SimError),
    /// Admission wedged permanently: the oldest pending graph bounced with
    /// nothing in flight, so no budget can ever drain. The classic
    /// trigger is a graph — or an appended segment — whose cost alone
    /// exceeds its tenant's admission budget.
    AdmissionDeadlock {
        /// Graphs stuck waiting for admission.
        bounced: usize,
        /// The tenant whose budget the oldest of them bounced off.
        tenant: TenantId,
        /// The arrival of the starved request.
        arrival: Arrival,
        /// The segment that could not be admitted (0 = the initial one).
        segment: usize,
        /// Total cost hint of that segment.
        graph_cost: u64,
        /// The tenant's admission budget.
        budget: u64,
    },
    /// A round's `wave_end_cycles` was shorter than the waves its
    /// completions reference — the backend broke the
    /// [`OpenLoopBackend::run_boosted`] contract, and sojourns could not
    /// be accounted.
    TruncatedWaveClock {
        /// The wave index a completion pointed at.
        last_wave: usize,
        /// Entries the round's wave clock actually had.
        waves: usize,
    },
}

impl fmt::Display for OpenLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenLoopError::Sim(e) => write!(f, "serving round failed: {e}"),
            OpenLoopError::AdmissionDeadlock {
                bounced,
                arrival,
                segment,
                graph_cost,
                budget,
                ..
            } => write!(
                f,
                "open-loop deadlock: request {}/{} segment {segment} costs {graph_cost} \
                 but its tenant's admission budget is {budget} with nothing in flight \
                 ({bounced} bounced)",
                arrival.tenant, arrival.index
            ),
            OpenLoopError::TruncatedWaveClock { last_wave, waves } => write!(
                f,
                "backend returned a truncated wave clock: completion in wave \
                 {last_wave} but only {waves} wave-end entries"
            ),
        }
    }
}

impl std::error::Error for OpenLoopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenLoopError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for OpenLoopError {
    fn from(e: SimError) -> Self {
        OpenLoopError::Sim(e)
    }
}

/// What one serving round hands back to the driver: per-graph completions
/// plus the wave-end clocks that anchor sojourn accounting. The common
/// projection of [`ServiceRound`] and [`ClusterRound`].
#[derive(Clone, Debug)]
pub struct RoundOutcome<T> {
    /// Completed graphs, in admission (ticket) order.
    pub completions: Vec<GraphCompletion<T>>,
    /// Simulated clock at the end of each wave, relative to the round's
    /// start.
    pub wave_end_cycles: Vec<u64>,
    /// The round's event log, on the round-relative clock. The driver
    /// rebases it onto the session clock and merges it into
    /// [`DynamicOpenLoopReport::events`].
    pub events: EventLog,
}

/// A serving backend the open-loop driver can feed: the multi-tenant
/// admission door, the boosted round door, the session clock and the idle
/// fast-forward door. Implemented for [`LacCluster`] (N chips, modeled
/// transfers) and [`LacService`] (its one-chip front, reporting rounds as
/// one chip) — the driver is backend-agnostic, so the same trace replays
/// identically against either.
pub trait OpenLoopBackend<J: ChipJob> {
    /// Offer a graph through tenant `t`'s admission door.
    fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>>;
    /// Run every admitted graph in one round under `sched` with the
    /// per-tenant SLO boost (indexed by tenant id; `u64::MAX` =
    /// unboosted).
    ///
    /// Contract: on success, `wave_end_cycles` must have one entry per
    /// wave of the round, and every completion's `wave_of` entries must
    /// index into it — the driver anchors sojourn accounting on
    /// `wave_end_cycles[last_wave]` and errors with
    /// [`OpenLoopError::TruncatedWaveClock`] on a violation rather than
    /// fabricating a completion tick.
    fn run_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundOutcome<J::Output>, SimError>;
    /// The backend's session clock in simulated cycles.
    fn clock(&self) -> u64;
    /// Advance the session clock through an idle gap.
    fn advance_idle(&mut self, cycles: u64);
    /// Tenant `t`'s sojourn deadline, if it registered one.
    fn deadline_of(&self, t: TenantId) -> Option<u64>;
    /// Registered tenants (the boost vector's length).
    fn num_tenants(&self) -> usize;
}

impl<J: ChipJob> OpenLoopBackend<J> for LacService<J> {
    fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>> {
        LacService::enqueue(self, t, graph)
    }

    fn run_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundOutcome<J::Output>, SimError> {
        let round: ServiceRound<J::Output> = self.run_admitted_boosted(sched, boost)?;
        Ok(RoundOutcome {
            completions: round.graphs,
            wave_end_cycles: round.wave_end_cycles,
            events: round.events,
        })
    }

    fn clock(&self) -> u64 {
        self.session().clock_cycles
    }

    fn advance_idle(&mut self, cycles: u64) {
        LacService::advance_idle(self, cycles);
    }

    fn deadline_of(&self, t: TenantId) -> Option<u64> {
        self.tenant_config(t).deadline_cycles
    }

    fn num_tenants(&self) -> usize {
        LacService::num_tenants(self)
    }
}

impl<J: ChipJob> OpenLoopBackend<J> for LacCluster<J> {
    fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>> {
        LacCluster::enqueue(self, t, graph)
    }

    fn run_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundOutcome<J::Output>, SimError> {
        let round: ClusterRound<J::Output> = self.run_admitted_boosted(sched, boost)?;
        Ok(RoundOutcome {
            completions: round.graphs,
            wave_end_cycles: round.wave_end_cycles,
            events: round.events,
        })
    }

    fn clock(&self) -> u64 {
        self.session().clock_cycles
    }

    fn advance_idle(&mut self, cycles: u64) {
        LacCluster::advance_idle(self, cycles);
    }

    fn deadline_of(&self, t: TenantId) -> Option<u64> {
        self.tenant_config(t).deadline_cycles
    }

    fn num_tenants(&self) -> usize {
        LacCluster::num_tenants(self)
    }
}

/// Knobs of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// The wave-planning policy of every round. SLO boosting only takes
    /// effect under [`Scheduler::FairShare`] (other policies ignore it).
    pub sched: Scheduler,
    /// Feed deadline slack to the planner ([`lac_sim::plan_wave_tenanted_slo`]).
    /// Off = plain fair share; deadlines still meter misses either way.
    pub slo_boost: bool,
    /// Bound head-of-line blocking: stop admitting into a round once its
    /// admitted cost reaches this quantum (deferred work leads the next
    /// round, still in arrival order). Rounds run to completion, so a
    /// huge backlog admitted at once makes every rider wait for the
    /// slowest; a quantum trades a little throughput for shorter rounds
    /// and a flatter tail. At least one graph is always admitted into an
    /// empty round, so a quantum can never deadlock the replay. `None`
    /// (the default) admits everything due. Output bits never change
    /// either way.
    pub max_round_cost: Option<u64>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            sched: Scheduler::FairShare,
            slo_boost: true,
            max_round_cost: None,
        }
    }
}

/// One tenant's latency accounting over a whole open-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantLatency {
    /// Sojourn-time histogram (count, mean, p50/p99/p999).
    pub hist: LatencyHistogram,
    /// The tenant's SLO deadline, if any.
    pub deadline_cycles: Option<u64>,
    /// Completed requests whose sojourn exceeded the deadline.
    pub deadline_misses: u64,
}

/// One served *dynamic* request: its arrival, when its **final** segment
/// completed, and the full [`DynamicOutcome`] (per-segment outputs plus
/// the appended-cost accounting).
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicCompleted<T> {
    /// The arrival that spawned the request.
    pub arrival: Arrival,
    /// Absolute tick the request's last segment completed at.
    pub completion_tick: u64,
    /// Sojourn of the whole solve: final-segment completion minus
    /// arrival, in simulated cycles — convergence time, not
    /// first-segment time.
    pub sojourn_cycles: u64,
    /// Everything the request ran, segment by segment.
    pub outcome: DynamicOutcome<T>,
}

/// Everything one replay produces.
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicOpenLoopReport<T> {
    /// Every served request, in final-completion order.
    pub completed: Vec<DynamicCompleted<T>>,
    /// Per trace stream (tenant index): whole-solve sojourn histogram
    /// and SLO meters.
    pub per_tenant: Vec<TenantLatency>,
    /// Serving rounds the replay took.
    pub rounds: u64,
    /// Backend clock when the last request completed (absolute).
    pub final_clock: u64,
    /// The replay's merged event log on the backend's session clock:
    /// each round's log rebased by the round's start tick, plus the
    /// driver's own idle fast-forwards. Export with
    /// [`lac_sim::EventLog::to_chrome_trace`].
    pub events: EventLog,
}

/// An in-flight dynamic request's driver-side state.
struct DynReq<J: ChipJob> {
    cont: Box<dyn Continuation<J>>,
    segment: usize,
    outcome: DynamicOutcome<J::Output>,
}

/// Replay `trace` against `backend`: `tenants[s]` is the registered
/// tenant id serving trace stream `s`, and `make_request` turns each
/// arrival into the request to serve — a [`DynamicGraph`] whose
/// continuation decides, from each completed segment's outputs, whether
/// to append a successor segment. Pass `|a| DynamicGraph::fixed(make(a))`
/// for fixed graphs, and an [`ArrivalTrace::batch`] for a closed batch.
///
/// * **Sojourn** is measured to the request's *final* segment — time to
///   convergence, not time to first result.
/// * **Appended segments** re-enter through the same admission door as
///   new arrivals and are charged against the tenant's
///   `max_inflight_cost` budget. One pending-admission queue, keyed by
///   arrival position, merges bounced graphs and appended segments so
///   continuations of older arrivals always go first and new arrivals
///   never overtake them.
/// * **Deadlock**: if the oldest pending graph bounced with nothing in
///   flight, budgets can never drain and the driver returns
///   [`OpenLoopError::AdmissionDeadlock`] rather than spin.
///
/// The replay is a pure function of `(trace, tenant configs, cfg, cost
/// hints)`; outputs — including every request's *segment count* — are
/// bit-identical across policies, backends, reruns and
/// [`OpenLoopConfig::max_round_cost`] settings.
pub fn run_open_loop_dynamic<J: ChipJob, B: OpenLoopBackend<J>>(
    backend: &mut B,
    trace: &ArrivalTrace,
    tenants: &[TenantId],
    mut make_request: impl FnMut(&Arrival) -> DynamicGraph<J>,
    cfg: OpenLoopConfig,
) -> Result<DynamicOpenLoopReport<J::Output>, OpenLoopError> {
    assert_eq!(
        tenants.len(),
        trace.streams(),
        "one registered tenant per trace stream"
    );
    let base = backend.clock();
    let arrivals = trace.arrivals();

    let mut per_tenant: Vec<TenantLatency> = tenants
        .iter()
        .map(|&t| TenantLatency {
            hist: LatencyHistogram::new(),
            deadline_cycles: backend.deadline_of(t),
            deadline_misses: 0,
        })
        .collect();
    let mut completed_reqs: Vec<DynamicCompleted<J::Output>> = Vec::new();
    // Driver state per arrival position, dropped when its request is done.
    let mut reqs: BTreeMap<usize, DynReq<J>> = BTreeMap::new();
    // Admitted-but-unserved: admission seq → arrival position.
    let mut inflight: BTreeMap<u64, usize> = BTreeMap::new();
    // Graphs awaiting admission — bounced retries *and* freshly appended
    // segments — keyed by arrival position so older requests go first.
    let mut pending: BTreeMap<usize, JobGraph<J>> = BTreeMap::new();
    let mut next = 0usize;
    let mut rounds = 0u64;
    let mut events = EventLog::new();

    while next < arrivals.len() || !pending.is_empty() || !inflight.is_empty() {
        let clock = backend.clock();

        // Fast-forward an idle backend to the next arrival.
        if inflight.is_empty() && pending.is_empty() {
            let due = base + arrivals[next].tick;
            if due > clock {
                backend.advance_idle(due - clock);
                events.push(TraceEvent::IdleFastForward {
                    start: clock,
                    end: due,
                });
                continue;
            }
        }

        let mut round_cost = 0u64;
        let quantum_full = |round_cost: u64, inflight: &BTreeMap<u64, usize>| {
            cfg.max_round_cost.is_some_and(|q| round_cost >= q) && !inflight.is_empty()
        };

        // The bounce that stopped admission this pass: (arrival position,
        // graph cost, budget).
        let mut bounce: Option<(usize, u64, u64)> = None;

        // Admit pending work first (bounced graphs whose budgets may have
        // drained, and appended segments), oldest arrival first.
        while let Some((&pos, _)) = pending.iter().next() {
            if quantum_full(round_cost, &inflight) {
                break;
            }
            let graph = pending.remove(&pos).expect("pending key vanished");
            let cost = graph.total_cost();
            match backend.enqueue(tenants[arrivals[pos].tenant], graph) {
                Ok(ticket) => {
                    round_cost += cost;
                    reqs.get_mut(&pos)
                        .expect("pending without state")
                        .outcome
                        .total_cost += cost;
                    inflight.insert(ticket.seq, pos);
                }
                Err(r) => {
                    bounce = Some((pos, r.graph_cost, r.budget));
                    pending.insert(pos, r.graph);
                    break;
                }
            }
        }
        // Admit new arrivals due by now — only once nothing older is
        // still waiting for admission, so arrival order holds.
        while next < arrivals.len()
            && base + arrivals[next].tick <= clock
            && pending.is_empty()
            && !quantum_full(round_cost, &inflight)
        {
            let a = &arrivals[next];
            let (graph, cont) = make_request(a).into_parts();
            let cost = graph.total_cost();
            let mut req = DynReq {
                cont,
                segment: 0,
                outcome: DynamicOutcome {
                    segments: Vec::new(),
                    jobs: 0,
                    total_cost: 0,
                    appended_cost: 0,
                },
            };
            match backend.enqueue(tenants[a.tenant], graph) {
                Ok(ticket) => {
                    round_cost += cost;
                    req.outcome.total_cost = cost;
                    inflight.insert(ticket.seq, next);
                }
                Err(r) => {
                    bounce = Some((next, r.graph_cost, r.budget));
                    pending.insert(next, r.graph);
                }
            }
            reqs.insert(next, req);
            next += 1;
        }

        if inflight.is_empty() {
            if let Some((pos, graph_cost, budget)) = bounce {
                // Nothing in flight and the oldest pending graph bounced:
                // no budget can ever drain, so this is permanent.
                let arrival = arrivals[pos];
                return Err(OpenLoopError::AdmissionDeadlock {
                    bounced: pending.len(),
                    tenant: tenants[arrival.tenant],
                    arrival,
                    segment: reqs[&pos].segment,
                    graph_cost,
                    budget,
                });
            }
            continue; // no arrivals were due yet; fast-forward next pass
        }

        let mut boost = vec![u64::MAX; backend.num_tenants()];
        if cfg.slo_boost {
            for &pos in inflight.values() {
                let a = &arrivals[pos];
                if let Some(d) = per_tenant[a.tenant].deadline_cycles {
                    let slack = (base + a.tick).saturating_add(d).saturating_sub(clock);
                    let slot = &mut boost[tenants[a.tenant].index()];
                    *slot = (*slot).min(slack);
                }
            }
        }

        let outcome = backend.run_boosted(cfg.sched, &boost)?;
        rounds += 1;
        let mut round_events = outcome.events;
        round_events.shift(clock);
        events.extend(round_events);
        for completion in outcome.completions {
            let pos = inflight
                .remove(&completion.ticket.seq)
                .expect("round completed a graph the driver never admitted");
            let req = reqs.get_mut(&pos).expect("completion without state");
            let decision = req.cont.next(req.segment, &completion.outputs);
            req.outcome.jobs += completion.outputs.len();
            req.outcome.segments.push(completion.outputs);
            match decision {
                Continue::Append(g) => {
                    req.segment += 1;
                    req.outcome.appended_cost += g.total_cost();
                    pending.insert(pos, g);
                }
                Continue::Done => {
                    let a = arrivals[pos];
                    // A graph with no jobs completes at the round's start.
                    let done = clock
                        + match completion.wave_of.iter().copied().max() {
                            None => 0,
                            Some(last_wave) => {
                                outcome.wave_end_cycles.get(last_wave).copied().ok_or(
                                    OpenLoopError::TruncatedWaveClock {
                                        last_wave,
                                        waves: outcome.wave_end_cycles.len(),
                                    },
                                )?
                            }
                        };
                    let sojourn = done - (base + a.tick);
                    let meters = &mut per_tenant[a.tenant];
                    meters.hist.record(sojourn);
                    if meters.deadline_cycles.is_some_and(|d| sojourn > d) {
                        meters.deadline_misses += 1;
                    }
                    let req = reqs.remove(&pos).expect("request state vanished");
                    completed_reqs.push(DynamicCompleted {
                        arrival: a,
                        completion_tick: done,
                        sojourn_cycles: sojourn,
                        outcome: req.outcome,
                    });
                }
            }
        }
    }

    Ok(DynamicOpenLoopReport {
        completed: completed_reqs,
        per_tenant,
        rounds,
        final_clock: backend.clock(),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ArrivalProcess;
    use lac_sim::{
        ChipConfig, ClusterConfig, ExecStats, LacConfig, ProgramBuilder, ProgramJob, TenantConfig,
    };

    type Report = DynamicOpenLoopReport<ExecStats>;

    /// A tiny deterministic job: one idle program with a chosen cost.
    fn idle_job(extra: usize, cost: u64) -> ProgramJob {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        b.idle(8 + extra);
        let mut j = ProgramJob::new(b.build());
        j.cost = cost;
        j
    }

    /// Two jobs in a chain per arrival, salted by the arrival identity —
    /// a fixed one-segment request.
    fn request(a: &Arrival) -> DynamicGraph<ProgramJob> {
        let mut g = JobGraph::new();
        let salt = (a.index as usize + a.tenant) % 4;
        let first = g.add(idle_job(salt, 40 + 10 * a.tenant as u64));
        g.add_after(idle_job(salt + 1, 30), &[first]);
        DynamicGraph::fixed(g)
    }

    fn demo_trace() -> ArrivalTrace {
        ArrivalTrace::generate(
            11,
            30_000,
            &[
                ArrivalProcess::Poisson { mean_gap: 400.0 },
                ArrivalProcess::OnOff {
                    mean_gap_on: 30.0,
                    mean_burst: 6.0,
                    mean_gap_off: 2_500.0,
                },
            ],
        )
    }

    /// A service with the demo trace's two tenants.
    fn demo_service(cores: usize) -> (LacService<ProgramJob>, Vec<TenantId>) {
        let mut svc = LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let ids = vec![
            svc.add_tenant(TenantConfig::new("interactive").with_deadline(2_000)),
            svc.add_tenant(TenantConfig::new("batch")),
        ];
        (svc, ids)
    }

    /// Outputs keyed by request identity — latencies legitimately differ
    /// across backends and policies, outputs never do.
    fn outs(r: &Report) -> Vec<(Arrival, Vec<Vec<ExecStats>>)> {
        let mut v: Vec<_> = r
            .completed
            .iter()
            .map(|c| (c.arrival, c.outcome.segments.clone()))
            .collect();
        v.sort_by_key(|(a, _)| (a.tenant, a.index));
        v
    }

    fn jobs_logged(r: &Report) -> usize {
        r.events.count(|e| matches!(e, TraceEvent::Job { .. }))
    }

    #[test]
    fn service_replay_serves_every_arrival_deterministically() {
        let trace = demo_trace();
        let run = || {
            let (mut svc, ids) = demo_service(2);
            run_open_loop_dynamic(&mut svc, &trace, &ids, request, OpenLoopConfig::default())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "open-loop replays must be bit-identical");
        assert_eq!(a.completed.len(), trace.len());
        assert_eq!(a.per_tenant[0].hist.count() as usize, trace.count_for(0));
        assert_eq!(jobs_logged(&a), 2 * trace.len(), "every job logged");
        let last_arrival = trace.arrivals().last().unwrap().tick;
        assert!(
            a.final_clock >= last_arrival,
            "the clock covered every arrival"
        );
        assert!(a.rounds > 0);
    }

    #[test]
    fn cluster_and_service_outputs_agree_bitwise() {
        let trace = demo_trace();
        let (mut svc, svc_ids) = demo_service(2);
        let s = run_open_loop_dynamic(
            &mut svc,
            &trace,
            &svc_ids,
            request,
            OpenLoopConfig::default(),
        )
        .unwrap();

        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(1, LacConfig::default()),
        ));
        let cl_ids = vec![
            cluster.add_tenant(TenantConfig::new("interactive").with_deadline(2_000)),
            cluster.add_tenant(TenantConfig::new("batch")),
        ];
        let c = run_open_loop_dynamic(
            &mut cluster,
            &trace,
            &cl_ids,
            request,
            OpenLoopConfig::default(),
        )
        .unwrap();
        assert_eq!(outs(&s), outs(&c));
    }

    /// A trace of bursts against a budget that fits one request (cost
    /// 40 + 30) but not two, on one core.
    fn tight_replay() -> (Report, LacService<ProgramJob>, TenantId) {
        let trace = ArrivalTrace::generate(
            3,
            8_000,
            &[ArrivalProcess::OnOff {
                mean_gap_on: 10.0,
                mean_burst: 10.0,
                mean_gap_off: 1_000.0,
            }],
        );
        let mut svc = LacService::new(ChipConfig::new(1, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("tight").with_admission_budget(100));
        let report =
            run_open_loop_dynamic(&mut svc, &trace, &[t], request, OpenLoopConfig::default())
                .unwrap();
        assert_eq!(report.completed.len(), trace.len(), "bounced work retried");
        (report, svc, t)
    }

    #[test]
    fn admission_backpressure_retries_in_arrival_order() {
        let (report, svc, t) = tight_replay();
        assert!(
            svc.tenant_session(t).graphs_rejected > 0,
            "backpressure engaged"
        );
        // A newer arrival never overtakes an older bounced one.
        let indices: Vec<u64> = report.completed.iter().map(|c| c.arrival.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "a newer arrival overtook a bounced one");
    }

    #[test]
    fn impossible_graph_is_a_typed_deadlock_not_a_panic() {
        let trace =
            ArrivalTrace::generate(7, 2_000, &[ArrivalProcess::Poisson { mean_gap: 500.0 }]);
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(1, LacConfig::default()));
        // Budget 50 can never admit a cost-70 request, even empty.
        let ids = vec![svc.add_tenant(TenantConfig::new("starved").with_admission_budget(50))];
        let err = run_open_loop_dynamic(&mut svc, &trace, &ids, request, OpenLoopConfig::default())
            .unwrap_err();
        match err {
            OpenLoopError::AdmissionDeadlock {
                bounced,
                tenant,
                arrival,
                segment,
                graph_cost,
                budget,
            } => {
                assert_eq!(bounced, 1);
                assert_eq!(tenant, ids[0]);
                assert_eq!(arrival, trace.arrivals()[0], "the first arrival starves");
                assert_eq!((segment, graph_cost, budget), (0, 70, 50));
            }
            ref other => panic!("expected AdmissionDeadlock, got {other:?}"),
        }
        // The error carries a readable message and chains nothing.
        assert!(err.to_string().contains("deadlock"));
    }

    /// A backend that delegates to [`LacService`] but lets a test tap
    /// every round outcome — to record it, or to break the
    /// [`OpenLoopBackend::run_boosted`] wave-clock contract.
    struct Tap<F>(LacService<ProgramJob>, F);

    impl<F: FnMut(&mut RoundOutcome<ExecStats>)> OpenLoopBackend<ProgramJob> for Tap<F> {
        fn enqueue(
            &mut self,
            t: TenantId,
            graph: JobGraph<ProgramJob>,
        ) -> Result<GraphTicket, Rejected<ProgramJob>> {
            self.0.enqueue(t, graph)
        }
        fn run_boosted(
            &mut self,
            sched: Scheduler,
            boost: &[u64],
        ) -> Result<RoundOutcome<ExecStats>, SimError> {
            let mut out = OpenLoopBackend::run_boosted(&mut self.0, sched, boost)?;
            (self.1)(&mut out);
            Ok(out)
        }
        fn clock(&self) -> u64 {
            OpenLoopBackend::<ProgramJob>::clock(&self.0)
        }
        fn advance_idle(&mut self, cycles: u64) {
            OpenLoopBackend::<ProgramJob>::advance_idle(&mut self.0, cycles);
        }
        fn deadline_of(&self, t: TenantId) -> Option<u64> {
            OpenLoopBackend::<ProgramJob>::deadline_of(&self.0, t)
        }
        fn num_tenants(&self) -> usize {
            OpenLoopBackend::<ProgramJob>::num_tenants(&self.0)
        }
    }

    #[test]
    fn truncated_wave_clock_is_a_typed_error_not_a_zero_sojourn() {
        let trace =
            ArrivalTrace::generate(7, 2_000, &[ArrivalProcess::Poisson { mean_gap: 500.0 }]);
        let mut backend = Tap(
            LacService::new(ChipConfig::new(1, LacConfig::default())),
            |out: &mut RoundOutcome<ExecStats>| out.wave_end_cycles.clear(),
        );
        let ids = vec![backend.0.add_tenant(TenantConfig::new("t"))];
        let err = run_open_loop_dynamic(
            &mut backend,
            &trace,
            &ids,
            request,
            OpenLoopConfig::default(),
        )
        .unwrap_err();
        match err {
            OpenLoopError::TruncatedWaveClock { waves, .. } => assert_eq!(waves, 0),
            other => panic!("expected TruncatedWaveClock, got {other:?}"),
        }
    }

    #[test]
    fn empty_request_completes_at_its_round_start() {
        // Alone in a tick-0 round (no waves at all), and sharing a round
        // with a non-empty request: either way the empty graph completes
        // at the round's start, not at the end of wave 0.
        for requests in [1, 2] {
            let mut svc: LacService<ProgramJob> =
                LacService::new(ChipConfig::new(1, LacConfig::default()));
            let t = svc.add_tenant(TenantConfig::new("t"));
            let report = run_open_loop_dynamic(
                &mut svc,
                &ArrivalTrace::batch(&[requests]),
                &[t],
                |a| match a.index {
                    0 => DynamicGraph::fixed(JobGraph::new()),
                    _ => request(a),
                },
                OpenLoopConfig::default(),
            )
            .unwrap();
            assert_eq!(report.completed.len(), requests);
            let empty = report
                .completed
                .iter()
                .find(|c| c.arrival.index == 0)
                .expect("the empty request completed");
            assert_eq!(empty.arrival.tick, 0);
            assert_eq!(empty.completion_tick, 0, "the round starts at tick 0");
            assert_eq!(empty.sojourn_cycles, 0, "round start minus arrival");
            assert_eq!(empty.outcome.jobs, 0);
            if requests == 2 {
                assert!(report.final_clock > 0, "the other request ran");
            }
        }
    }

    /// A request that appends `extra` one-job segments after its initial
    /// graph — segment count decided from its own outputs (each job's
    /// stats are non-empty, proving the continuation saw them).
    fn dynamic_request(a: &Arrival, extra: usize) -> DynamicGraph<ProgramJob> {
        let mut g = JobGraph::new();
        let salt = (a.index as usize + a.tenant) % 4;
        g.add(idle_job(salt, 40 + 10 * a.tenant as u64));
        let mut left = extra;
        DynamicGraph::new(g, move |_seg, outputs: &[ExecStats]| {
            assert!(!outputs.is_empty());
            if left == 0 {
                return Continue::Done;
            }
            left -= 1;
            let mut g = JobGraph::new();
            g.add(idle_job(1, 30));
            Continue::Append(g)
        })
    }

    #[test]
    fn closed_batch_starts_at_once_and_clocks_its_rounds() {
        // Three growing requests due at tick 0: no idle cycle precedes
        // the first round, appended work is charged, and the clock is
        // exactly the sum of the rounds' makespans.
        let mut spans = Vec::new();
        let mut backend = Tap(
            LacService::new(ChipConfig::new(2, LacConfig::default())),
            |out: &mut RoundOutcome<ExecStats>| {
                spans.push(*out.wave_end_cycles.last().expect("a non-empty round"))
            },
        );
        let t = backend.0.add_tenant(TenantConfig::new("batch"));
        let report = run_open_loop_dynamic(
            &mut backend,
            &ArrivalTrace::batch(&[3]),
            &[t],
            |a| dynamic_request(a, a.index as usize + 1),
            OpenLoopConfig::default(),
        )
        .unwrap();
        assert_eq!(report.completed.len(), 3);
        for c in &report.completed {
            let extra = c.arrival.index as usize + 1;
            assert_eq!(c.outcome.segments.len(), extra + 1);
            assert_eq!(c.outcome.appended_cost, 30 * extra as u64);
            assert_eq!(c.sojourn_cycles, c.completion_tick, "due at tick 0");
        }
        assert_eq!(report.rounds, 4, "the longest request needs four rounds");
        assert_eq!(
            report
                .events
                .count(|e| matches!(e, TraceEvent::IdleFastForward { .. })),
            0,
            "a tick-0 batch inserts no idle cycle"
        );
        let Tap(svc, _) = backend;
        assert_eq!(spans.len() as u64, report.rounds);
        assert_eq!(report.final_clock, spans.iter().sum::<u64>());
        assert_eq!(svc.session().clock_cycles, report.final_clock);
        assert_eq!(svc.tenant_session(t).inflight_cost, 0);
    }

    #[test]
    fn round_quantum_changes_latency_never_bits() {
        let trace = demo_trace();
        let run = |max_round_cost: Option<u64>| {
            let (mut svc, ids) = demo_service(2);
            let cfg = OpenLoopConfig {
                max_round_cost,
                ..OpenLoopConfig::default()
            };
            run_open_loop_dynamic(&mut svc, &trace, &ids, request, cfg).unwrap()
        };
        let unbounded = run(None);
        let quantized = run(Some(100));
        assert_eq!(quantized.completed.len(), trace.len(), "everything served");
        assert!(
            quantized.rounds >= unbounded.rounds,
            "a quantum can only split rounds, never merge them"
        );
        // Output bits are identical; only latencies may move.
        assert_eq!(outs(&unbounded), outs(&quantized));
        // Reruns under a quantum stay bit-identical end to end.
        assert_eq!(run(Some(100)), quantized);
    }

    #[test]
    fn dynamic_replay_serves_every_request_to_convergence() {
        let trace = demo_trace();
        let run = || {
            let mut svc: LacService<ProgramJob> =
                LacService::new(ChipConfig::new(2, LacConfig::default()));
            let ids = vec![
                svc.add_tenant(TenantConfig::new("interactive").with_deadline(4_000)),
                svc.add_tenant(TenantConfig::new("batch")),
            ];
            run_open_loop_dynamic(
                &mut svc,
                &trace,
                &ids,
                |a| dynamic_request(a, (a.index % 3) as usize),
                OpenLoopConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.completed.len(), trace.len(), "every request converged");
        for c in &a.completed {
            let want = (c.arrival.index % 3) as usize + 1;
            assert_eq!(
                c.outcome.segments.len(),
                want,
                "segment counts follow the continuation"
            );
            assert_eq!(c.outcome.jobs, want);
        }
        assert_eq!(a, run(), "dynamic replays must be bit-identical");
    }

    #[test]
    fn dynamic_appended_segments_respect_the_admission_budget() {
        // A budget that fits exactly one graph at a time forces every
        // appended segment through the bounce-retry path; the replay must
        // still finish with every segment served.
        let trace = ArrivalTrace::generate(
            3,
            8_000,
            &[ArrivalProcess::OnOff {
                mean_gap_on: 10.0,
                mean_burst: 6.0,
                mean_gap_off: 1_500.0,
            }],
        );
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(1, LacConfig::default()));
        let ids = vec![svc.add_tenant(TenantConfig::new("tight").with_admission_budget(60))];
        let report = run_open_loop_dynamic(
            &mut svc,
            &trace,
            &ids,
            |a| dynamic_request(a, 2),
            OpenLoopConfig::default(),
        )
        .unwrap();
        assert_eq!(report.completed.len(), trace.len());
        assert!(report
            .completed
            .iter()
            .all(|c| c.outcome.segments.len() == 3));
        assert_eq!(
            svc.tenant_session(ids[0]).inflight_cost,
            0,
            "budget fully drained"
        );
    }

    #[test]
    fn dynamic_unadmittable_segment_is_a_typed_deadlock() {
        let mut svc: LacService<ProgramJob> =
            LacService::new(ChipConfig::new(1, LacConfig::default()));
        // Budget 45 admits the cost-40 initial graph but can never admit
        // the appended cost-70 segment.
        let ids = vec![svc.add_tenant(TenantConfig::new("starved").with_admission_budget(45))];
        let err = run_open_loop_dynamic(
            &mut svc,
            &ArrivalTrace::batch(&[1]),
            &ids,
            |_| {
                let mut g = JobGraph::new();
                g.add(idle_job(0, 40));
                DynamicGraph::new(g, |_seg, _out: &[ExecStats]| {
                    let mut g = JobGraph::new();
                    g.add(idle_job(1, 70));
                    Continue::Append(g)
                })
            },
            OpenLoopConfig::default(),
        )
        .unwrap_err();
        match err {
            OpenLoopError::AdmissionDeadlock {
                segment,
                graph_cost,
                budget,
                ..
            } => assert_eq!((segment, graph_cost, budget), (1, 70, 45)),
            other => panic!("expected AdmissionDeadlock, got {other:?}"),
        }
        assert_eq!(svc.tenant_session(ids[0]).inflight_cost, 0);
    }

    #[test]
    fn cluster_replay_exports_a_merged_event_log() {
        let trace = demo_trace();
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(1, LacConfig::default()),
        ));
        let ids = vec![
            cluster.add_tenant(TenantConfig::new("interactive").with_deadline(2_000)),
            cluster.add_tenant(TenantConfig::new("batch")),
        ];
        let report = run_open_loop_dynamic(
            &mut cluster,
            &trace,
            &ids,
            request,
            OpenLoopConfig::default(),
        )
        .unwrap();
        assert_eq!(
            jobs_logged(&report),
            2 * trace.len(),
            "every job of every request logged"
        );
        assert!(
            report
                .events
                .count(|e| matches!(e, TraceEvent::IdleFastForward { .. }))
                > 0,
            "the driver logs its fast-forwards"
        );
        // Merged timestamps are absolute: the last job end matches the
        // final clock's ballpark and never exceeds it.
        let max_end = report
            .events
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Job { end, .. } => Some(end),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_end <= report.final_clock);
    }
}
