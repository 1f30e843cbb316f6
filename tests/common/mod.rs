//! Shared helpers for the integration property suites: the policy
//! tables, the pseudo-random DAG generators, the instrumented job types
//! they hang off, and the linalg-ref-backed QP workload constructor.
//!
//! Each test binary that declares `mod common;` compiles its own copy,
//! so any one suite uses only a subset — hence the file-wide
//! `dead_code` allowance.
#![allow(dead_code)]

use lap::lac_kernels::{IppmmParams, IppmmWorkload};
use lap::lac_sim::{
    ChipJob, EventLog, ExecStats, JobGraph, Lac, LacConfig, ProgramJob, Scheduler, SimError,
    TraceEvent,
};
use lap::lac_sim::{ExtOp, ExternalMem, ProgramBuilder, Source};
use std::sync::{Arc, Mutex};

/// The full-dispatch policies (every wave drains the ready set — what the
/// wave-planning work-conservation shape assumes). The quantum-capped
/// `FairShare` joins [`ALL_POLICIES`] for the policy-independent
/// invariants; its own planner properties live in
/// `tests/service_props.rs`.
pub const POLICIES: [Scheduler; 3] = [
    Scheduler::Fifo,
    Scheduler::LeastLoaded,
    Scheduler::CriticalPath,
];

/// Every scheduling policy, `FairShare` included — the sweep for
/// "outputs are policy-independent" properties.
pub const ALL_POLICIES: [Scheduler; 4] = [
    Scheduler::Fifo,
    Scheduler::LeastLoaded,
    Scheduler::CriticalPath,
    Scheduler::FairShare,
];

/// Pick a full-dispatch policy from an arbitrary byte.
pub fn policy(which: u8) -> Scheduler {
    POLICIES[which as usize % POLICIES.len()]
}

/// Pick any policy (FairShare included) from an arbitrary byte.
pub fn any_policy(which: u8) -> Scheduler {
    ALL_POLICIES[which as usize % ALL_POLICIES.len()]
}

/// A one-MAC program padded with `extra` idle cycles — the minimal real
/// job whose cost scales with its argument.
pub fn mac_job(extra: usize) -> ProgramJob {
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

/// A job that appends its id to a shared log when it runs — the probe for
/// the parents-run-first invariant. (Same-wave log order is host-timing
/// dependent; parent→child pairs never share a wave, so their relative
/// order is not.)
pub struct LogJob {
    pub id: usize,
    pub inner: ProgramJob,
    pub log: Arc<Mutex<Vec<usize>>>,
}

impl ChipJob for LogJob {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        self.inner.cost_hint()
    }

    fn run_on(&self, lac: &mut Lac) -> Result<ExecStats, SimError> {
        let out = self.inner.run_on(lac)?;
        self.log.lock().unwrap().push(self.id);
        Ok(out)
    }
}

/// Build a pseudo-random DAG of [`LogJob`]s: job `j > 0` gets up to two
/// parents drawn from `seeds` (values index earlier jobs; a sentinel
/// leaves some jobs as roots). Returns the graph, its edges, and the
/// shared log.
#[allow(clippy::type_complexity)]
pub fn random_log_dag(
    extras: &[usize],
    seeds: &[u64],
) -> (
    JobGraph<LogJob>,
    Vec<(usize, usize)>,
    Arc<Mutex<Vec<usize>>>,
) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut graph = JobGraph::new();
    let mut edges = Vec::new();
    let mut ids = Vec::new();
    for (j, &extra) in extras.iter().enumerate() {
        let mut parents = Vec::new();
        if j > 0 {
            for take in 0..2usize {
                let seed = seeds[(2 * j + take) % seeds.len()];
                // ~1 in 3 candidate slots stays empty, keeping a mix of
                // roots, chains and joins.
                if !seed.is_multiple_of(3) {
                    let p = (seed as usize) % j;
                    parents.push(ids[p]);
                    edges.push((p, j));
                }
            }
        }
        let id = graph.add_after(
            LogJob {
                id: j,
                inner: mac_job(extra),
                log: Arc::clone(&log),
            },
            &parents,
        );
        assert_eq!(id.index(), j);
        ids.push(id);
    }
    edges.sort_unstable();
    edges.dedup();
    (graph, edges, log)
}

/// A MAC-and-idle program job with an explicit cost hint and transfer
/// size (the shape the cluster and fault property tests use).
#[derive(Clone)]
pub struct SizedJob {
    pub extra: usize,
    pub cost: u64,
    pub words: u64,
}

impl ChipJob for SizedJob {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        self.cost
    }

    fn transfer_words(&self) -> u64 {
        self.words
    }

    fn run_on(&self, lac: &mut Lac) -> Result<ExecStats, SimError> {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + self.extra);
        let prog = b.build();
        lac.run(&prog, &mut ExternalMem::new(prog.ext_words()))
    }
}

/// Build a pseudo-random DAG of [`SizedJob`]s: job `j > 0` gets up to two
/// parents drawn from `seeds` (a sentinel leaves some jobs as roots).
pub fn random_sized_dag(extras: &[usize], seeds: &[u64]) -> JobGraph<SizedJob> {
    let mut graph = JobGraph::new();
    let mut ids = Vec::new();
    for (j, &extra) in extras.iter().enumerate() {
        let mut parents = Vec::new();
        if j > 0 {
            for take in 0..2usize {
                let seed = seeds[(2 * j + take) % seeds.len()];
                if !seed.is_multiple_of(3) {
                    parents.push(ids[(seed as usize) % j]);
                }
            }
        }
        parents.dedup();
        let id = graph.add_after(
            SizedJob {
                extra,
                cost: 1 + (extra as u64) * 7 % 13,
                words: 1 + (extra as u64) * 11 % 29,
            },
            &parents,
        );
        ids.push(id);
    }
    graph
}

/// Exactly-once over an event log: every job has exactly one
/// non-discarded execution; the count of discarded ones comes back.
pub fn check_exactly_once(events: &EventLog, n: usize) -> Result<usize, String> {
    let mut retired = vec![0usize; n];
    let mut discarded = 0usize;
    for e in events.events() {
        if let TraceEvent::Job {
            job, discarded: d, ..
        } = *e
        {
            if d {
                discarded += 1;
            } else {
                retired[job] += 1;
            }
        }
    }
    for (j, &r) in retired.iter().enumerate() {
        if r != 1 {
            return Err(format!("job {j} retired {r} times"));
        }
    }
    Ok(discarded)
}

/// A small-but-real interior-point solve whose correctness is checked
/// against `linalg-ref` residuals: every segment is one IPM iteration
/// (factor → solve → schur → step) on the device.
pub fn qp(salt: u64) -> IppmmWorkload {
    IppmmWorkload::new(IppmmParams {
        n: 8,
        m: 4,
        salt,
        ..IppmmParams::default()
    })
}
