//! The three workloads. Each builds its inputs from the seed, runs one
//! operation per call (timed by the caller) and verifies the outputs
//! against `linalg-ref` afterwards (untimed).
//!
//! Every workload simulates exactly two cores, so the host never runs
//! more than two worker threads.

use crate::stats::Failure;
use crate::trace::{self, traced_dynamic, traced_graph, Recorder, Traced, TracedBackend, NO_REQ};
use lac_kernels::{
    DdpJob, IpddpFleet, IpddpParams, IpmJob, IppmmParams, IppmmWorkload, KernelReport, SolverJob,
    SolverLoopParams, SolverLoopWorkload, SolverStream,
};
use lac_power::ClusterEnergyModel;
use lac_sim::dynamic::DynamicGraph;
use lac_sim::{
    CacheStats, ChipConfig, ChipJob, ChipStats, ClusterConfig, ClusterStats, ExecStats, JobGraph,
    LacCluster, LacConfig, LacEngine, LacService, Scheduler, SimError, SimMode, TenantConfig,
    TenantId,
};
use lac_traffic::{
    run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, DynamicOpenLoopReport,
    OpenLoopConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Simulated cores in every workload (never more host workers than this).
pub const CORES: u64 = 2;

/// The simulated record of one operation. A pure function of the
/// operation's inputs (and, for the tenant doors, of the rounds before
/// it), so two runs with one seed agree bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// Simulated span of the operation, cycles.
    pub makespan: u64,
    /// Busy core-cycles (the `aggregate.cycles` sum).
    pub busy: u64,
    /// Core-cycles with nothing to run.
    pub idle: u64,
    /// Cycles every core waited on an inter-chip transfer.
    pub stall: u64,
    /// Dependency waves (closed loops) or serving-round waves (open loop).
    pub waves: u64,
    /// MAC and FMA issues.
    pub macs: u64,
    pub flops: u64,
    /// Energy from `ClusterEnergyModel::summarize`, nJ.
    pub energy_nj: f64,
    /// Per request: completion minus arrival, cycles.
    pub sojourns: Vec<u64>,
    /// Completed requests of tenants with a deadline, and their misses.
    pub deadline_reqs: u64,
    pub deadline_misses: u64,
    /// `ChipJob` executions.
    pub jobs: u64,
    /// Solver loops (closed loops) or arrivals (open loop).
    pub requests: u64,
}

/// A verified operation.
pub struct Checked {
    pub sim: Sim,
    /// Sub-operations (submissions or requests) that verified.
    pub ok: u64,
    pub failures: Vec<Failure>,
}

impl Checked {
    /// An operation whose `ops` sub-operations all failed with `f`.
    pub fn failed(ops: u64, f: Failure) -> Self {
        Self {
            sim: Sim::default(),
            ok: 0,
            failures: vec![f; ops as usize],
        }
    }
}

/// Input 0 of every workload: the set-up warm-up, a small input that
/// compiles every program shape the pool uses. It is sized to tens of
/// milliseconds so that thread-spawn jitter does not dominate `setup_s`.
pub const WARM_UP: usize = 0;

/// One workload: seeded inputs, run one at a time. Input [`WARM_UP`]
/// comes first; the pool is inputs `1..=pool()`.
pub trait Workload {
    type Out;
    /// Inputs in the pool; a run covers the pool at least once.
    fn pool(&self) -> usize;
    /// Submissions or requests in operation `k` (for failure counting).
    fn ops(&self, k: usize) -> u64;
    /// Build and run input `k`: the timed part.
    fn run(&mut self, k: usize) -> Result<Self::Out, String>;
    /// Verify against `linalg-ref` and summarize: the untimed part.
    fn check(&mut self, k: usize, out: Self::Out) -> Checked;
    /// The backend's compile cache.
    fn compile(&self) -> CacheStats;
}

fn energy_nj(stats: &ClusterStats) -> f64 {
    ClusterEnergyModel::lap_default().summarize(stats).total_nj
}

/// A chip's stats as a one-chip cluster (no link traffic), for pricing.
fn as_cluster(chip: &ChipStats) -> ClusterStats {
    ClusterStats {
        per_chip: vec![chip.clone()],
        makespan_cycles: chip.makespan_cycles,
        transferred_words: 0,
        transfer_cycles: 0,
        transfer_stall_cycles: 0,
        aggregate: chip.aggregate,
    }
}

fn macs(s: &ExecStats) -> u64 {
    s.mac_ops + s.fma_ops
}

/// Solver loops with the job-id range each occupies in a fused graph.
type Loops = Vec<(SolverLoopWorkload, Range<usize>)>;

/// Solver loops fused into one graph, as `SolverFleet::new` fuses them,
/// but with a shape per loop.
fn build_loops(
    params: &[SolverLoopParams],
    rec: &Arc<Recorder>,
    req: u64,
) -> (Loops, JobGraph<Traced<SolverJob>>) {
    let mut graph = JobGraph::new();
    let loops = params
        .iter()
        .map(|&p| {
            let w = SolverLoopWorkload::new(p);
            let ids = graph.append(traced_graph(w.graph().graph, rec, req));
            let start = ids.first().map_or(0, |id| id.index());
            (w, start..start + ids.len())
        })
        .collect();
    (loops, graph)
}

/// Check each loop's slice of `outputs` and find its completion wave.
fn check_loops(
    loops: &[(SolverLoopWorkload, Range<usize>)],
    outputs: &[KernelReport],
    wave_of: &[usize],
    wave_end: &[u64],
) -> (Vec<u64>, Result<(), Failure>) {
    let mut sojourns = Vec::with_capacity(loops.len());
    let mut verdict = Ok(());
    for (m, (w, ids)) in loops.iter().enumerate() {
        let outs = outputs.get(ids.clone()).unwrap_or(&[]);
        if let Err(e) = w.check_graph(outs) {
            verdict = verdict.and(Err(Failure::Check(format!("loop {m}: {e}"))));
        }
        let last = wave_of
            .get(ids.clone())
            .and_then(|w| w.iter().max().copied());
        sojourns.push(last.and_then(|w| wave_end.get(w)).copied().unwrap_or(0));
    }
    (sojourns, verdict)
}

// ---------------------------------------------------------------------------
// fleet_batch: closed loop, one client, fresh solver fleets on 2 chips × 1 core
// ---------------------------------------------------------------------------

const FB_POOL: usize = 16;
const FB_LOOPS: usize = 8;
const FB_SIZES: [usize; 3] = [44, 48, 52];

pub struct FleetBatch {
    cluster: LacCluster<Traced<SolverJob>>,
    rec: Arc<Recorder>,
    specs: Vec<Vec<SolverLoopParams>>,
}

impl FleetBatch {
    pub fn new(seed: u64, rec: &Arc<Recorder>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
        let mut shape = |n: Option<usize>| SolverLoopParams {
            n: n.unwrap_or_else(|| FB_SIZES[rng.gen_range(0..FB_SIZES.len())]),
            rounds: 4,
            panels: 4,
            width: 8,
            salt: rng.gen_range(0..1u64 << 40),
        };
        let warm_up = FB_SIZES.iter().map(|&n| shape(Some(n))).collect();
        let pool: Vec<_> = (0..FB_POOL)
            .map(|_| (0..FB_LOOPS).map(|_| shape(None)).collect())
            .collect();
        let specs = std::iter::once(warm_up).chain(pool).collect();
        let chip = ChipConfig::new(1, LacConfig::default());
        Self {
            cluster: LacCluster::new(ClusterConfig::homogeneous(2, chip)),
            rec: Arc::clone(rec),
            specs,
        }
    }
}

impl Workload for FleetBatch {
    type Out = (Loops, lac_sim::ClusterRun<KernelReport>);

    fn pool(&self) -> usize {
        self.specs.len() - 1
    }

    fn ops(&self, _k: usize) -> u64 {
        1
    }

    fn run(&mut self, k: usize) -> Result<Self::Out, String> {
        let (loops, graph) = {
            let _b = self.rec.enter(trace::BUILD, k as u64);
            build_loops(&self.specs[k], &self.rec, k as u64)
        };
        let _r = self.rec.enter(trace::ROUND, k as u64);
        let run = self
            .cluster
            .run_graph(&graph, Scheduler::CriticalPath)
            .map_err(|e| format!("run_graph: {e}"))?;
        Ok((loops, run))
    }

    fn check(&mut self, _k: usize, (loops, run): Self::Out) -> Checked {
        let (sojourns, verdict) =
            check_loops(&loops, &run.outputs, &run.wave_of, &run.wave_end_cycles);
        let s = &run.stats;
        let sim = Sim {
            makespan: s.makespan_cycles,
            busy: s.aggregate.cycles,
            idle: run.idle_per_core.iter().flatten().sum(),
            stall: s.transfer_stall_cycles,
            waves: run.waves as u64,
            macs: macs(&s.aggregate),
            flops: s.flops(),
            energy_nj: energy_nj(s),
            sojourns,
            jobs: s.jobs(),
            requests: loops.len() as u64,
            ..Sim::default()
        };
        let (ok, failures) = match verdict {
            Ok(()) => (1, Vec::new()),
            Err(f) => (0, vec![f]),
        };
        Checked { sim, ok, failures }
    }

    fn compile(&self) -> CacheStats {
        self.cluster.program_cache().stats()
    }
}

// ---------------------------------------------------------------------------
// tenant_burst: closed loop, 4 weighted tenants × one wide fleet, one
// FairShare round on a 2-core event-mode service
// ---------------------------------------------------------------------------

const TB_POOL: usize = 3;
const TB_TENANTS: usize = 4;
const TB_LOOPS: Range<usize> = 240..273;

pub struct TenantBurst {
    svc: LacService<Traced<SolverJob>>,
    tenants: Vec<TenantId>,
    rec: Arc<Recorder>,
    /// Per pool item, per tenant: the fleet's loop shapes.
    specs: Vec<Vec<Vec<SolverLoopParams>>>,
}

impl TenantBurst {
    pub fn new(seed: u64, rec: &Arc<Recorder>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0257);
        // Per input, per tenant: `loops` loops of one shape.
        let mut input = |loops: Range<usize>| -> Vec<Vec<SolverLoopParams>> {
            (0..TB_TENANTS)
                .map(|_| {
                    let base: u64 = rng.gen_range(0..1u64 << 40);
                    (0..rng.gen_range(loops.clone()))
                        .map(|m| SolverLoopParams {
                            n: 8,
                            rounds: 2,
                            panels: 4,
                            width: 8,
                            salt: base + m as u64,
                        })
                        .collect()
                })
                .collect()
        };
        let warm_up = input(16..17);
        let pool: Vec<_> = (0..TB_POOL).map(|_| input(TB_LOOPS)).collect();
        let specs = std::iter::once(warm_up).chain(pool).collect();
        let cfg =
            ChipConfig::new(CORES as usize, LacConfig::default()).with_sim_mode(SimMode::Event);
        let mut svc = LacService::new(cfg);
        let tenants = (1..=TB_TENANTS as u64)
            .map(|w| svc.add_tenant(TenantConfig::new(format!("tenant{w}")).with_weight(w)))
            .collect();
        Self {
            svc,
            tenants,
            rec: Arc::clone(rec),
            specs,
        }
    }
}

impl Workload for TenantBurst {
    type Out = (Vec<Loops>, lac_sim::ServiceRound<KernelReport>);

    fn pool(&self) -> usize {
        self.specs.len() - 1
    }

    fn ops(&self, _k: usize) -> u64 {
        TB_TENANTS as u64
    }

    fn run(&mut self, k: usize) -> Result<Self::Out, String> {
        let mut fleets = Vec::with_capacity(TB_TENANTS);
        for (t, spec) in self.specs[k].iter().enumerate() {
            let (loops, graph) = {
                let _b = self.rec.enter(trace::BUILD, t as u64);
                build_loops(spec, &self.rec, t as u64)
            };
            let mut span = self.rec.enter(trace::ADMIT, t as u64);
            let admitted = self.svc.enqueue(self.tenants[t], graph);
            span.set_val(admitted.is_err() as u64);
            admitted.map_err(|r| format!("tenant {t} bounced: {r:?}"))?;
            fleets.push(loops);
        }
        let _r = self.rec.enter(trace::ROUND, NO_REQ);
        let round = self
            .svc
            .run_admitted(Scheduler::FairShare)
            .map_err(|e| format!("run_admitted: {e}"))?;
        Ok((fleets, round))
    }

    fn check(&mut self, _k: usize, (fleets, round): Self::Out) -> Checked {
        let mut sojourns = Vec::new();
        let (mut ok, mut failures) = (0, Vec::new());
        for (t, loops) in fleets.iter().enumerate() {
            let Some(g) = round.graphs.get(t) else {
                failures.push(Failure::Check(format!("tenant {t}: no completion")));
                continue;
            };
            let (s, verdict) = check_loops(loops, &g.outputs, &g.wave_of, &round.wave_end_cycles);
            sojourns.extend(s);
            match verdict {
                Ok(()) => ok += 1,
                Err(f) => failures.push(f),
            }
        }
        let s = &round.stats;
        let sim = Sim {
            makespan: s.makespan_cycles,
            busy: s.aggregate.cycles,
            idle: round.idle_per_core.iter().sum(),
            waves: round.waves as u64,
            macs: macs(&s.aggregate),
            flops: s.flops(),
            energy_nj: energy_nj(&as_cluster(s)),
            sojourns,
            jobs: s.jobs(),
            requests: fleets.iter().map(|f| f.len() as u64).sum(),
            ..Sim::default()
        };
        Checked { sim, ok, failures }
    }

    fn compile(&self) -> CacheStats {
        self.svc.program_cache().stats()
    }
}

// ---------------------------------------------------------------------------
// serve_mixed: open loop on the simulated clock, three tenants on
// 2 chips × 1 core in event mode
// ---------------------------------------------------------------------------

/// The one job type the mixed service runs.
pub enum Mixed {
    Loop(SolverJob),
    Qp(IpmJob),
    Ddp(DdpJob),
}

impl ChipJob for Mixed {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        match self {
            Mixed::Loop(j) => j.cost_hint(),
            Mixed::Qp(j) => j.cost_hint(),
            Mixed::Ddp(j) => j.cost_hint(),
        }
    }

    fn transfer_words(&self) -> u64 {
        match self {
            Mixed::Loop(j) => j.transfer_words(),
            Mixed::Qp(j) => j.transfer_words(),
            Mixed::Ddp(j) => j.transfer_words(),
        }
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<KernelReport, SimError> {
        match self {
            Mixed::Loop(j) => j.run_on(eng),
            Mixed::Qp(j) => j.run_on(eng),
            Mixed::Ddp(j) => j.run_on(eng),
        }
    }
}

const SM_POOL: usize = 5;
/// Simulated cycles each trace spans (about 2,200 arrivals).
const SM_HORIZON: u64 = 12_000_000;
const STREAM: usize = 0;
const QP: usize = 1;

/// The three tenants' request shapes, salted from the seed.
#[derive(Clone, Copy)]
struct Requests {
    stream: SolverStream,
    qp_salt: u64,
    ddp_salt: u64,
}

impl Requests {
    fn stream(&self, a: &Arrival) -> SolverLoopWorkload {
        self.stream.request(a.tenant, a.index)
    }

    fn qp(&self, a: &Arrival) -> IppmmWorkload {
        IppmmWorkload::new(IppmmParams {
            n: 8,
            m: 4,
            salt: self.qp_salt + a.index,
            ..IppmmParams::default()
        })
    }

    fn ddp(&self, a: &Arrival) -> IpddpFleet {
        IpddpFleet::new(IpddpParams {
            members: 2,
            horizon: 4,
            tol: 1e-4,
            salt: self.ddp_salt + a.index,
            ..IpddpParams::default()
        })
    }

    fn build(&self, a: &Arrival) -> DynamicGraph<Mixed> {
        match a.tenant {
            STREAM => DynamicGraph::fixed(self.stream(a).graph().graph).map_job(Mixed::Loop),
            QP => self.qp(a).dynamic().map_job(Mixed::Qp),
            _ => self.ddp(a).dynamic().map_job(Mixed::Ddp),
        }
    }

    fn check(
        &self,
        a: &Arrival,
        outcome: &lac_sim::DynamicOutcome<KernelReport>,
    ) -> Result<(), String> {
        match a.tenant {
            STREAM => match outcome.segments.as_slice() {
                [only] => self.stream(a).check_graph(only),
                segs => Err(format!("fixed request ran {} segments", segs.len())),
            },
            QP => self.qp(a).check(outcome),
            _ => self.ddp(a).check(outcome),
        }
    }
}

pub struct ServeMixed {
    backend: TracedBackend<LacCluster<Traced<Mixed>>>,
    tenants: Vec<TenantId>,
    rec: Arc<Recorder>,
    traces: Vec<ArrivalTrace>,
    requests: Requests,
}

/// Per-core session stats of every chip, in cluster order.
fn core_sessions(c: &LacCluster<Traced<Mixed>>) -> Vec<ExecStats> {
    (0..c.num_chips())
        .flat_map(|i| {
            let chip = c.chip(i);
            (0..chip.num_cores()).map(move |j| *chip.shard(j).session_stats())
        })
        .collect()
}

impl ServeMixed {
    pub fn new(seed: u64, rec: &Arc<Recorder>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
        let requests = Requests {
            stream: SolverStream::new(SolverLoopParams {
                n: 8,
                rounds: 2,
                panels: 2,
                width: 4,
                salt: rng.gen_range(0..1u64 << 40),
            }),
            qp_salt: rng.gen_range(0..1u64 << 40),
            ddp_salt: rng.gen_range(0..1u64 << 40),
        };
        let processes = [
            ArrivalProcess::Poisson { mean_gap: 6_000.0 },
            ArrivalProcess::Poisson { mean_gap: 60_000.0 },
            // Short trains: longer ones make the p99 swing with the seed.
            ArrivalProcess::OnOff {
                mean_gap_on: 5_000.0,
                mean_burst: 1.0,
                mean_gap_off: 135_000.0,
            },
        ];
        // The warm-up: 8 requests per tenant, 20k cycles apart.
        let warm_up = (0..8u64)
            .flat_map(|i| {
                (0..processes.len()).map(move |t| Arrival {
                    tick: 1 + 20_000 * i + t as u64,
                    tenant: t,
                    index: i,
                })
            })
            .collect();
        let warm_up = ArrivalTrace::from_parts(warm_up, 160_000, processes.len())
            .expect("the warm-up arrivals form a valid trace");
        let pool = (0..SM_POOL)
            .map(|_| ArrivalTrace::generate(rng.gen_range(0..u64::MAX), SM_HORIZON, &processes));
        let traces = std::iter::once(warm_up).chain(pool).collect();
        // Room for one QP segment and a half: a second concurrent QP bounces.
        let qp = requests.qp(&Arrival {
            tick: 0,
            tenant: QP,
            index: 0,
        });
        let qp_budget = 3 * qp.iteration_cost() / 2;
        let chip = ChipConfig::new(1, LacConfig::default());
        let mut cluster =
            LacCluster::new(ClusterConfig::homogeneous(2, chip).with_sim_mode(SimMode::Event));
        let tenants = vec![
            cluster.add_tenant(TenantConfig::new("stream").with_deadline(10_000)),
            cluster.add_tenant(TenantConfig::new("qp").with_admission_budget(qp_budget)),
            cluster.add_tenant(TenantConfig::new("ddp")),
        ];
        Self {
            backend: TracedBackend::new(cluster, rec),
            tenants,
            rec: Arc::clone(rec),
            traces,
            requests,
        }
    }
}

/// What one replay hands to the check: the report plus meter deltas.
pub struct Replay {
    report: DynamicOpenLoopReport<KernelReport>,
    busy: Vec<ExecStats>,
    clock: u64,
    transfer_cycles: u64,
    transferred_words: u64,
    waves: u64,
}

impl Workload for ServeMixed {
    type Out = Replay;

    fn pool(&self) -> usize {
        self.traces.len() - 1
    }

    fn ops(&self, k: usize) -> u64 {
        self.traces[k].len() as u64
    }

    fn run(&mut self, k: usize) -> Result<Replay, String> {
        let before = core_sessions(&self.backend.inner);
        let session = self.backend.inner.session().clone();
        let waves = self.backend.waves;
        let (rec, requests) = (Arc::clone(&self.rec), self.requests);
        let report = {
            let _d = self.rec.enter(trace::DRIVER, NO_REQ);
            run_open_loop_dynamic(
                &mut self.backend,
                &self.traces[k],
                &self.tenants,
                |a| {
                    let req = (a.tenant as u64) << 48 | a.index;
                    let _b = rec.enter(trace::BUILD, req);
                    traced_dynamic(requests.build(a), &rec, req)
                },
                OpenLoopConfig::default(),
            )
            .map_err(|e| format!("open-loop replay: {e}"))?
        };
        let after = core_sessions(&self.backend.inner);
        let now = self.backend.inner.session();
        Ok(Replay {
            report,
            busy: after.iter().zip(&before).map(|(a, b)| a.since(b)).collect(),
            clock: now.clock_cycles - session.clock_cycles,
            transfer_cycles: now.transfer_cycles - session.transfer_cycles,
            transferred_words: now.transferred_words - session.transferred_words,
            waves: self.backend.waves - waves,
        })
    }

    fn check(&mut self, k: usize, r: Replay) -> Checked {
        let (mut ok, mut failures) = (0, Vec::new());
        let mut jobs = 0u64;
        for c in &r.report.completed {
            jobs += c.outcome.jobs as u64;
            match self.requests.check(&c.arrival, &c.outcome) {
                Ok(()) => ok += 1,
                Err(e) => failures.push(Failure::Check(format!(
                    "tenant {} request {}: {e}",
                    c.arrival.tenant, c.arrival.index
                ))),
            }
        }
        let missing = self.traces[k]
            .len()
            .saturating_sub(r.report.completed.len());
        failures.extend((0..missing).map(|_| Failure::Check("request never completed".into())));
        let mut aggregate = ExecStats::default();
        let per_chip = r
            .busy
            .iter()
            .map(|b| {
                aggregate.merge(b);
                ChipStats {
                    per_core: vec![*b],
                    jobs_per_core: vec![0],
                    makespan_cycles: r.clock,
                    aggregate: *b,
                }
            })
            .collect();
        let stats = ClusterStats {
            per_chip,
            makespan_cycles: r.clock,
            transferred_words: r.transferred_words,
            transfer_cycles: r.transfer_cycles,
            transfer_stall_cycles: 0,
            aggregate,
        };
        let stream = &r.report.per_tenant[STREAM];
        let sim = Sim {
            makespan: r.clock,
            busy: aggregate.cycles,
            idle: (r.clock * r.busy.len() as u64).saturating_sub(aggregate.cycles),
            stall: r.transfer_cycles,
            waves: r.waves,
            macs: macs(&aggregate),
            flops: aggregate.flops(),
            energy_nj: energy_nj(&stats),
            sojourns: r
                .report
                .completed
                .iter()
                .map(|c| c.sojourn_cycles)
                .collect(),
            deadline_reqs: stream.hist.count(),
            deadline_misses: stream.deadline_misses,
            jobs,
            requests: self.traces[k].len() as u64,
        };
        Checked { sim, ok, failures }
    }

    fn compile(&self) -> CacheStats {
        self.backend.inner.program_cache().stats()
    }
}
