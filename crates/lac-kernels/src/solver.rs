//! The chained-factorization solver loop: an IPM-style composite workload
//! whose rounds feed each other — the headline client of the dependency
//! graph service (`lac_sim::LacService`).
//!
//! Interior-point methods (see PAPERS.md: IP-PMM for convex QP, interior
//! point DDP) spend essentially all their time in a loop of the same three
//! kernels: factor the round's normal-equations matrix (CHOL), solve a
//! block of right-hand sides against the factor (TRSM), and build the next
//! round's matrix from the solutions (SYRK/GEMM rank-k updates). Round
//! `k+1` cannot start before round `k`'s updates land, but *within* a
//! round the per-panel solves and updates are independent — exactly the
//! diamond-per-round DAG the graph scheduler exists for.
//!
//! [`SolverLoopWorkload`] models that loop over deterministic demo
//! operands:
//!
//! ```text
//! A₀ SPD;  for k = 0..rounds:
//!     Lₖ = chol(Aₖ)                       (serial spine)
//!     Xₖ,ₚ = Lₖ⁻¹ Bₚ        p = 0..P      (fan-out: blocked TRSM)
//!     Sₖ,ₚ = Xₖ,ₚ·Xₖ,ₚᵀ     p = 0..P      (fan-out: SYRK)
//!     Aₖ₊₁ = Aₖ + Σₚ Sₖ,ₚ                 (reduction, fixed panel order)
//! ```
//!
//! Every `Sₖ,ₚ` is positive semidefinite, so `Aₖ` stays SPD and the chain
//! factors for any round count. The reduction runs host-side in fixed
//! panel order (the accumulate-at-memory step of a real chip), so the
//! whole loop is bit-deterministic no matter where the graph scheduler
//! places the jobs — and bit-identical to the serial single-core run.
//!
//! Two doors:
//!
//! * [`Workload`] (`run` on one `Lac`) — the graph's jobs serially
//!   on one core, in id order, per-round reports rolled into one
//!   [`KernelReport`] with [`Details::Solver`]. Registered in
//!   [`crate::registry`] like any kernel.
//! * [`SolverLoopWorkload::graph`] — the loop as a [`JobGraph`] of
//!   [`SolverJob`]s for a multi-core chip/service; rounds chain through
//!   single-assignment slots behind the graph's dependency edges, so a
//!   job revoked by a chip kill reruns to the same bits, and so does a
//!   used graph. A slot holds only what a later job reads, and the
//!   graph shares the workload's `A₀` and right-hand sides instead of
//!   copying them.
//!   [`SolverLoopWorkload::check_graph`] verifies every per-round output
//!   against an independent `linalg-ref` chain.

use crate::chol::blocked_cholesky_run;
use crate::syrk::{syrk_update, SyrkParams};
use crate::trsm::blocked_trsm_run;
use crate::workload::{
    close, demo_matrix, demo_spd, expect_details, report, Details, KernelReport, SolverDetails,
    Workload,
};
use lac_sim::{ChipJob, JobGraph, JobId, Lac, SimError};
use linalg_ref::{cholesky, gemm, max_abs_diff, trsm, Matrix, Side, Triangle};
use std::sync::{Arc, Mutex};

/// Shape of one solver loop. All dimensions follow the 4×4 core's blocked
/// kernels: `n` a multiple of `nr`, panels `n × width`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverLoopParams {
    /// System dimension (the SPD matrix is `n × n`).
    pub n: usize,
    /// IPM iterations (CHOL → TRSM → SYRK rounds).
    pub rounds: usize,
    /// Right-hand-side panels per round — the intra-round fan-out.
    pub panels: usize,
    /// Columns per panel.
    pub width: usize,
    /// Seed for the deterministic demo operands.
    pub salt: u64,
}

impl Default for SolverLoopParams {
    /// A 3-round loop on a 16×16 system with two 8-column panels — small
    /// enough for the registry sweeps, structured enough to show the
    /// serial-spine/parallel-round shape.
    fn default() -> Self {
        Self {
            n: 16,
            rounds: 3,
            panels: 2,
            width: 8,
            salt: 40,
        }
    }
}

/// Per-round ground truth computed by `linalg-ref` (see
/// [`SolverLoopWorkload::reference`]).
pub struct SolverReference {
    /// `Lₖ` per round.
    pub factors: Vec<Matrix>,
    /// `Xₖ,ₚ` per round and panel.
    pub x: Vec<Vec<Matrix>>,
    /// `Sₖ,ₚ` (lower triangle) per round and panel.
    pub s: Vec<Vec<Matrix>>,
    /// `A` after the last round's update.
    pub final_a: Matrix,
}

/// The composite IPM-style solver loop workload. See the module docs for
/// the recurrence.
#[derive(Clone, Debug)]
pub struct SolverLoopWorkload {
    /// The loop's shape.
    pub params: SolverLoopParams,
    /// Round 0's SPD system matrix, shared with every graph of the loop.
    pub a0: Arc<Matrix>,
    /// The right-hand-side panels, `n × width` each, shared with every
    /// graph of the loop (every round's solve of panel `p` reads `b[p]`).
    pub b: Arc<[Matrix]>,
}

/// What every job of one loop graph shares: the workload's operands (not
/// copies), the per-step hints and the slots.
struct SolverShared {
    /// The workload's `A₀`, full symmetric: rounds 0 and 1 read it here.
    a0: Arc<Matrix>,
    /// The workload's right-hand-side panels.
    b: Arc<[Matrix]>,
    /// Rounds in the loop (the last round feeds no later CHOL).
    rounds: usize,
    /// `(cost hint, output words)` of a CHOL, a TRSM and a SYRK step.
    hints: [(u64, u64); 3],
    slots: Mutex<SolverSlots>,
}

impl SolverShared {
    fn slots(&self) -> std::sync::MutexGuard<'_, SolverSlots> {
        self.slots.lock().expect("solver slots poisoned")
    }
}

/// Single-assignment slots the graph jobs communicate through. A job
/// reads only slots its ancestors wrote and writes only its own, and a
/// slot is overwritten only after every job that reads it has released
/// its children — and released jobs never rerun. So any job, revoked by a
/// chip kill and rerun, or rerun with the whole graph, reads exactly what
/// its first execution read. Reductions walk panels in fixed order, so
/// the contents are bit-deterministic regardless of placement.
///
/// A slot holds only what a later job reads: slots start empty, `A₀`
/// stays with the workload, `Aₖ` is stored only when round `k + 1`
/// exists to read it (and `k ≥ 1`), and the last round's updates are
/// reported but not stored.
struct SolverSlots {
    /// `Aₖ` in `a[k % 2]` for `1 ≤ k ≤ rounds − 2`: round `k`'s CHOL
    /// builds it from `a[(k+1) % 2]` while round `k−1`'s CHOL, the only
    /// other reader, is released.
    a: [Option<Matrix>; 2],
    /// Current round's factor.
    l: Option<Matrix>,
    /// Current round's per-panel solutions.
    x: Vec<Option<Matrix>>,
    /// Current round's per-panel updates, read by the next CHOL.
    s: Vec<Option<Matrix>>,
}

/// A written slot; reading one before its writer ran breaks the graph's
/// edges.
fn slot(m: &Option<Matrix>) -> &Matrix {
    m.as_ref()
        .expect("solver slot read before the job that writes it ran")
}

/// `A (full symmetric) += S (lower triangle)`, mirroring the update into
/// both triangles.
fn add_sym_update(a: &mut Matrix, s_lower: &Matrix) {
    let n = a.rows();
    for j in 0..n {
        for i in j..n {
            let v = a[(i, j)] + s_lower[(i, j)];
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
}

impl SolverLoopWorkload {
    /// A loop over deterministic demo operands shaped by `params`.
    pub fn new(params: SolverLoopParams) -> Self {
        assert!(params.rounds >= 1 && params.panels >= 1);
        let a0 = Arc::new(demo_spd(params.n, params.salt));
        let (n, w) = (params.n, params.width);
        let stacked = demo_matrix(n, params.panels * w, params.salt + 1);
        let b = (0..params.panels)
            .map(|p| stacked.block(0, p * w, n, w))
            .collect();
        Self { params, a0, b }
    }

    /// The default registry-sized loop.
    pub fn demo() -> Self {
        Self::new(SolverLoopParams::default())
    }

    /// Scheduler cost hint of one CHOL step (flop-count shaped). The step
    /// costs are public so service clients can budget admission control
    /// ([`lac_sim::TenantConfig::max_inflight_cost`]) in the same
    /// tenant-agnostic cost-hint currency the planner schedules by.
    pub fn chol_cost(&self) -> u64 {
        (self.params.n.pow(3) as u64 / 3).max(1)
    }

    /// Scheduler cost hint of one per-panel TRSM step.
    pub fn trsm_cost(&self) -> u64 {
        (self.params.n * self.params.n * self.params.width) as u64
    }

    /// Scheduler cost hint of one per-panel SYRK step.
    pub fn syrk_cost(&self) -> u64 {
        (self.params.n * (self.params.n + 1) * self.params.width) as u64
    }

    /// Total admission cost of one [`SolverLoopWorkload::graph`]
    /// submission — identical to [`Workload::cost_hint`], and to
    /// `JobGraph::total_cost` of the built graph, because the graph door
    /// carries the same per-step hints.
    pub fn graph_cost(&self) -> u64 {
        self.cost_hint()
    }

    /// The loop as ground truth in `linalg-ref`, fully independent of the
    /// simulator.
    pub fn reference(&self) -> Result<SolverReference, String> {
        let p = self.params;
        let mut a = Matrix::clone(&self.a0);
        let mut factors = Vec::with_capacity(p.rounds);
        let mut xs = Vec::with_capacity(p.rounds);
        let mut ss = Vec::with_capacity(p.rounds);
        for k in 0..p.rounds {
            let l = cholesky(&a).map_err(|e| format!("solver-loop: reference round {k}: {e:?}"))?;
            let mut round_x = Vec::with_capacity(p.panels);
            let mut round_s = Vec::with_capacity(p.panels);
            for b in self.b.iter() {
                let mut x = b.clone();
                trsm(Side::Left, Triangle::Lower, &l, &mut x);
                let mut s = Matrix::zeros(p.n, p.n);
                gemm(&x, &x.transpose(), &mut s);
                round_x.push(x);
                round_s.push(s.tril());
            }
            for s in &round_s {
                add_sym_update(&mut a, s);
            }
            factors.push(l);
            xs.push(round_x);
            ss.push(round_s);
        }
        Ok(SolverReference {
            factors,
            x: xs,
            s: ss,
            final_a: a,
        })
    }

    /// The loop as a dependency graph: per round one CHOL job (parented on
    /// the previous round's SYRKs — it also folds their updates into `A`),
    /// `panels` TRSM jobs fanning out of it, and `panels` SYRK jobs
    /// feeding the next round. Job ids follow construction order, so
    /// [`GraphRun::outputs`](lac_sim::GraphRun) line up with
    /// [`SolverLoopWorkload::check_graph`]. The graph shares the loop's
    /// `A₀` and panels, and its slots start empty.
    pub fn graph(&self) -> SolverGraph {
        let p = self.params;
        let (factor_words, panel_words) = ((p.n * (p.n + 1) / 2) as u64, (p.n * p.width) as u64);
        let shared = Arc::new(SolverShared {
            a0: Arc::clone(&self.a0),
            b: Arc::clone(&self.b),
            rounds: p.rounds,
            // Output words: the factor L and the update S are n × n lower
            // triangles, the solved panel X is n × width.
            hints: [
                (self.chol_cost(), factor_words),
                (self.trsm_cost(), panel_words),
                (self.syrk_cost(), factor_words),
            ],
            slots: Mutex::new(SolverSlots {
                a: [None, None],
                l: None,
                x: vec![None; p.panels],
                s: vec![None; p.panels],
            }),
        });
        let job = |step| SolverJob {
            shared: Arc::clone(&shared),
            step,
        };
        let mut graph = JobGraph::new();
        let mut chol_ids = Vec::with_capacity(p.rounds);
        let mut trsm_ids = Vec::with_capacity(p.rounds);
        let mut syrk_ids = Vec::with_capacity(p.rounds);
        let mut prev_syrks: Vec<JobId> = Vec::new();
        for round in 0..p.rounds {
            let chol = graph.add_after(job(SolverStep::Chol { round }), &prev_syrks);
            prev_syrks.clear();
            let mut round_trsm = Vec::with_capacity(p.panels);
            let mut round_syrk = Vec::with_capacity(p.panels);
            for panel in 0..p.panels {
                let t = graph.add_after(job(SolverStep::Trsm { panel }), &[chol]);
                let s = graph.add_after(job(SolverStep::Syrk { round, panel }), &[t]);
                round_trsm.push(t);
                round_syrk.push(s);
                prev_syrks.push(s);
            }
            chol_ids.push(chol);
            trsm_ids.push(round_trsm);
            syrk_ids.push(round_syrk);
        }
        SolverGraph {
            graph,
            chol: chol_ids,
            trsm: trsm_ids,
            syrk: syrk_ids,
        }
    }

    /// Verify a graph run's per-round outputs (in [`SolverGraph`] id
    /// order) against the independent `linalg-ref` chain: factors,
    /// per-panel solutions, and per-panel updates, every round.
    pub fn check_graph(&self, outputs: &[KernelReport]) -> Result<(), String> {
        let p = self.params;
        let expect_len = p.rounds * (1 + 2 * p.panels);
        if outputs.len() != expect_len {
            return Err(format!(
                "solver-loop: graph produced {} outputs, expected {expect_len}",
                outputs.len()
            ));
        }
        let reference = self.reference()?;
        let stride = 1 + 2 * p.panels;
        for k in 0..p.rounds {
            let Details::Cholesky { l } = &outputs[k * stride].details else {
                return Err(expect_details("solver-chol", "Cholesky"));
            };
            rel_close(
                &format!("solver-loop round {k}"),
                "L",
                l,
                &reference.factors[k],
            )?;
            for panel in 0..p.panels {
                // Construction interleaves per panel: chol, then
                // (trsm, syrk) pairs.
                let Details::Trsm { x } = &outputs[k * stride + 1 + 2 * panel].details else {
                    return Err(expect_details("solver-trsm", "Trsm"));
                };
                rel_close(
                    &format!("solver-loop round {k} panel {panel}"),
                    "X",
                    x,
                    &reference.x[k][panel],
                )?;
                let Details::Syrk { c } = &outputs[k * stride + 2 + 2 * panel].details else {
                    return Err(expect_details("solver-syrk", "Syrk"));
                };
                rel_close(
                    &format!("solver-loop round {k} panel {panel}"),
                    "S",
                    c,
                    &reference.s[k][panel],
                )?;
            }
        }
        Ok(())
    }
}

/// Scale-robust comparison: max-abs error relative to the reference's
/// magnitude (the chain's matrices grow with every rank-k update).
fn rel_close(kernel: &str, what: &str, got: &Matrix, reference: &Matrix) -> Result<(), String> {
    let scale = 1.0 + reference.fro_norm();
    close(kernel, what, max_abs_diff(got, reference) / scale, 1e-7)
}

impl Workload for SolverLoopWorkload {
    fn name(&self) -> &'static str {
        "solver-loop"
    }

    fn cost_hint(&self) -> u64 {
        self.params.rounds as u64
            * (self.chol_cost() + self.params.panels as u64 * (self.trsm_cost() + self.syrk_cost()))
    }

    /// The whole loop serially on one core: the jobs of
    /// [`SolverLoopWorkload::graph`] in id order, so the per-round factors
    /// are bit-identical between the two doors. `final_a` is `A₀` plus
    /// every SYRK update, rounds then panels in order.
    fn run(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let sg = self.graph();
        let before = *lac.session_stats();
        let mut factors = Vec::with_capacity(self.params.rounds);
        let mut final_a = Matrix::clone(&self.a0);
        for (k, &chol) in sg.chol.iter().enumerate() {
            let rep = sg.graph.job(chol).run_on(lac)?;
            let Details::Cholesky { l } = rep.details else {
                unreachable!("a solver CHOL reports its factor");
            };
            factors.push(l);
            for (&trsm, &syrk) in sg.trsm[k].iter().zip(&sg.syrk[k]) {
                sg.graph.job(trsm).run_on(lac)?;
                let rep = sg.graph.job(syrk).run_on(lac)?;
                let Details::Syrk { c } = &rep.details else {
                    unreachable!("a solver SYRK reports its update");
                };
                add_sym_update(&mut final_a, c);
            }
        }
        let total = lac.session_stats().since(&before);
        Ok(report(
            lac,
            self.name(),
            total,
            None,
            Details::Solver(Box::new(SolverDetails { factors, final_a })),
        ))
    }

    fn check(&self, report: &KernelReport) -> Result<(), String> {
        let Details::Solver(solved) = &report.details else {
            return Err(expect_details(self.name(), "Solver"));
        };
        let SolverDetails { factors, final_a } = solved.as_ref();
        let reference = self.reference()?;
        if factors.len() != reference.factors.len() {
            return Err(format!(
                "{}: {} rounds reported, expected {}",
                self.name(),
                factors.len(),
                reference.factors.len()
            ));
        }
        for (k, (got, want)) in factors.iter().zip(&reference.factors).enumerate() {
            rel_close(&format!("{} round {k}", self.name()), "L", got, want)?;
        }
        rel_close(self.name(), "final A", final_a, &reference.final_a)
    }
}

/// The graph form of a solver loop: the [`JobGraph`] to submit plus the
/// per-round job ids (`outputs[id.index()]` is that step's report).
pub struct SolverGraph {
    /// The dependency graph to submit.
    pub graph: JobGraph<SolverJob>,
    /// Round `k`'s CHOL job.
    pub chol: Vec<JobId>,
    /// Round `k`, panel `p`'s TRSM job.
    pub trsm: Vec<Vec<JobId>>,
    /// Round `k`, panel `p`'s SYRK job.
    pub syrk: Vec<Vec<JobId>>,
}

/// One step of the solver loop as a chip job. Steps communicate through
/// the loop's single-assignment slots; the graph's edges order every access.
pub struct SolverJob {
    shared: Arc<SolverShared>,
    step: SolverStep,
}

#[derive(Clone, Copy)]
enum SolverStep {
    /// Fold the previous round's updates into `A` (fixed panel order),
    /// then factor.
    Chol { round: usize },
    /// Solve `L·X = Bₚ` against the current factor. Every round's solve
    /// of panel `p` reads the workload's one `Bₚ`.
    Trsm { panel: usize },
    /// `Sₚ = Xₚ·Xₚᵀ` for the next round's matrix.
    Syrk { round: usize, panel: usize },
}

impl SolverJob {
    /// `(cost hint, output words)` of this step.
    fn hints(&self) -> (u64, u64) {
        let kind = match self.step {
            SolverStep::Chol { .. } => 0,
            SolverStep::Trsm { .. } => 1,
            SolverStep::Syrk { .. } => 2,
        };
        self.shared.hints[kind]
    }
}

impl ChipJob for SolverJob {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        self.hints().0.max(1)
    }

    /// Output footprint in words — what a cross-chip dependent would pull
    /// over the link.
    fn transfer_words(&self) -> u64 {
        self.hints().1.max(1)
    }

    fn run_on(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let sh = &*self.shared;
        match self.step {
            SolverStep::Chol { round } => {
                // Round 0 factors the shared `A₀` in place; a later round
                // folds the previous updates into a fresh `A`.
                let folded = (round > 0).then(|| {
                    let slots = sh.slots();
                    let mut a = if round == 1 {
                        Matrix::clone(&sh.a0)
                    } else {
                        slot(&slots.a[(round + 1) % 2]).clone()
                    };
                    for s in &slots.s {
                        add_sym_update(&mut a, slot(s));
                    }
                    a
                });
                let (l, stats) = blocked_cholesky_run(lac, folded.as_ref().unwrap_or(&sh.a0))?;
                let mut slots = sh.slots();
                // Only the next round's CHOL reads this round's `A`.
                if round + 1 < sh.rounds {
                    slots.a[round % 2] = folded;
                }
                slots.l = Some(l.clone());
                drop(slots);
                Ok(report(
                    lac,
                    "solver-chol",
                    stats,
                    None,
                    Details::Cholesky { l },
                ))
            }
            SolverStep::Trsm { panel } => {
                let l = slot(&sh.slots().l).clone();
                let (x, stats) = blocked_trsm_run(lac, &l, &sh.b[panel])?;
                sh.slots().x[panel] = Some(x.clone());
                Ok(report(lac, "solver-trsm", stats, None, Details::Trsm { x }))
            }
            SolverStep::Syrk { round, panel } => {
                let x = slot(&sh.slots().x[panel]).clone();
                // S = X·Xᵀ (lower) from a zeroed accumulator.
                let (n, w) = (x.rows(), x.cols());
                let (s, stats) =
                    syrk_update(lac, &x, &Matrix::zeros(n, n), &SyrkParams::new(n, w))?;
                // The last round's updates feed no later CHOL.
                if round + 1 < sh.rounds {
                    sh.slots().s[panel] = Some(s.clone());
                }
                Ok(report(
                    lac,
                    "solver-syrk",
                    stats,
                    None,
                    Details::Syrk { c: s },
                ))
            }
        }
    }
}

/// A fleet of independent solver loops fused into one [`JobGraph`] — the
/// partition-aware submission shape for a multi-chip
/// [`lac_sim::LacCluster`].
///
/// Each loop is one weakly-connected component of the fused graph, so the
/// cluster's default `CostBins` partitioner keeps every loop whole on one
/// chip (its round-to-round edges never pay inter-chip transfer cost) and
/// bin-packs the loops across chips by total cost hint. The loops get
/// distinct salts, so every member solves a different system.
pub struct SolverFleet {
    /// The member workloads, in fleet order.
    pub loops: Vec<SolverLoopWorkload>,
    /// All members' graphs fused by [`JobGraph::append`] (no cross-member
    /// edges).
    pub graph: JobGraph<SolverJob>,
    /// Member `m`'s job ids within [`SolverFleet::graph`], in the
    /// member's own construction order — its slice of a run's outputs.
    pub members: Vec<Vec<lac_sim::JobId>>,
}

impl SolverFleet {
    /// Build `count` independent loops shaped by `base`, salted
    /// `base.salt + m` for member `m`.
    pub fn new(base: SolverLoopParams, count: usize) -> Self {
        assert!(count >= 1, "a fleet has at least one loop");
        let loops: Vec<SolverLoopWorkload> = (0..count)
            .map(|m| {
                SolverLoopWorkload::new(SolverLoopParams {
                    salt: base.salt + m as u64,
                    ..base
                })
            })
            .collect();
        let mut graph = JobGraph::new();
        let members = loops
            .iter()
            .map(|w| graph.append(w.graph().graph))
            .collect();
        Self {
            loops,
            graph,
            members,
        }
    }

    /// Total admission cost of the fused fleet (the sum of the members'
    /// [`SolverLoopWorkload::graph_cost`]s, and of the fused graph's
    /// `total_cost` — the fusion preserves per-job hints).
    pub fn total_cost(&self) -> u64 {
        self.loops.iter().map(|w| w.graph_cost()).sum()
    }

    /// Verify a fleet run's outputs (indexed like
    /// [`SolverFleet::graph`]'s job ids) against every member's
    /// independent `linalg-ref` chain.
    pub fn check(&self, outputs: &[KernelReport]) -> Result<(), String> {
        if outputs.len() != self.graph.len() {
            return Err(format!(
                "solver-fleet: {} outputs for {} jobs",
                outputs.len(),
                self.graph.len()
            ));
        }
        for (m, (w, ids)) in self.loops.iter().zip(&self.members).enumerate() {
            // `JobGraph::append` hands back contiguous in-order ids, so a
            // member's outputs are a plain slice — no re-collection.
            let start = ids.first().map_or(0, |id| id.index());
            debug_assert!(ids
                .iter()
                .enumerate()
                .all(|(k, id)| id.index() == start + k));
            w.check_graph(&outputs[start..start + ids.len()])
                .map_err(|e| format!("fleet member {m}: {e}"))?;
        }
        Ok(())
    }
}

/// A streaming solver client for the open-loop traffic layer
/// (`lac_traffic::run_open_loop_dynamic`): every arrival becomes one small,
/// independently-salted solver chain.
///
/// Where [`SolverFleet`] fuses many loops into *one* closed-loop
/// submission, a stream mints one [`SolverLoopWorkload`] **per request**
/// — the per-arrival unit of work of an interior-point solver fleet
/// serving online traffic. The salt is a pure function of
/// `(base.salt, tenant, index)`, so request operands are bit-identical
/// across reruns, policies and backends while distinct requests solve
/// distinct systems.
#[derive(Clone, Copy, Debug)]
pub struct SolverStream {
    /// Shape shared by every request; `base.salt` seeds the stream.
    pub base: SolverLoopParams,
}

impl SolverStream {
    /// A stream minting requests shaped by `base`.
    pub fn new(base: SolverLoopParams) -> Self {
        Self { base }
    }

    /// The workload for one arrival, salted by `(tenant, index)`
    /// (SplitMix64-style odd multipliers decorrelate the two axes).
    pub fn request(&self, tenant: usize, index: u64) -> SolverLoopWorkload {
        let salt = self
            .base
            .salt
            .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(index.wrapping_mul(0xd134_2543_de82_ef95));
        SolverLoopWorkload::new(SolverLoopParams { salt, ..self.base })
    }

    /// Admission cost of one request's graph — the same for every
    /// `(tenant, index)` because the shape is fixed, which keeps
    /// open-loop admission budgets easy to reason about.
    pub fn request_cost(&self) -> u64 {
        SolverLoopWorkload::new(self.base).graph_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::{ChipConfig, LacConfig, LacService, Scheduler};

    /// The one-chip door on `cores` default cores.
    fn service(cores: usize) -> LacService<SolverJob> {
        LacService::new(ChipConfig::new(cores, LacConfig::default()))
    }

    fn small() -> SolverLoopWorkload {
        SolverLoopWorkload::new(SolverLoopParams {
            n: 8,
            rounds: 2,
            panels: 2,
            width: 4,
            salt: 99,
        })
    }

    #[test]
    fn serial_run_matches_reference_chain() {
        let w = small();
        let mut lac = Lac::new(LacConfig::default());
        let report = w.run(&mut lac).unwrap();
        w.check(&report).unwrap();
        assert_eq!(report.kernel, "solver-loop");
        assert!(lac.session_stats().cycles > 0);
    }

    /// Payload bytes the graph's slot store holds right now.
    fn slot_bytes(sg: &SolverGraph) -> usize {
        let slots = sg.graph.job(sg.chol[0]).shared.slots();
        slots
            .a
            .iter()
            .chain([&slots.l])
            .chain(&slots.x)
            .chain(&slots.s)
            .flatten()
            .map(|m| m.rows() * m.cols() * 8)
            .sum()
    }

    #[test]
    fn slots_hold_only_what_a_later_job_reads() {
        let (n, panels, width) = (8, 2, 4);
        for rounds in 1..=5 {
            let w = SolverLoopWorkload::new(SolverLoopParams {
                n,
                rounds,
                panels,
                width,
                salt: 31 + rounds as u64,
            });
            let sg = w.graph();
            assert_eq!(slot_bytes(&sg), 0, "rounds {rounds}: slots start empty");
            // Every job shares the workload's operands instead of copying.
            let ids = sg
                .chol
                .iter()
                .chain(sg.trsm.iter().chain(&sg.syrk).flatten());
            for job in ids.map(|&id| sg.graph.job(id)) {
                assert!(Arc::ptr_eq(&job.shared.a0, &w.a0));
                assert!(Arc::ptr_eq(&job.shared.b, &w.b));
            }

            let mut svc = service(2);
            let run = svc.submit(&sg.graph, Scheduler::CriticalPath).unwrap();
            w.check_graph(&run.outputs).unwrap();

            // Bitwise equal to the serial door: every factor, and A₀ plus
            // every update, rounds then panels in order.
            let serial = w.run(&mut Lac::new(LacConfig::default())).unwrap();
            let Details::Solver(solved) = &serial.details else {
                panic!("solver report");
            };
            let mut final_a = Matrix::clone(&w.a0);
            for k in 0..rounds {
                let Details::Cholesky { l } = &run.outputs[sg.chol[k].index()].details else {
                    panic!("chol report");
                };
                assert_eq!(l, &solved.factors[k], "rounds {rounds}: factor {k}");
                for &s in &sg.syrk[k] {
                    let Details::Syrk { c } = &run.outputs[s.index()].details else {
                        panic!("syrk report");
                    };
                    add_sym_update(&mut final_a, c);
                }
            }
            assert_eq!(final_a, solved.final_a, "rounds {rounds}: final A");

            // A used graph reruns to the same bits.
            let again = svc.submit(&sg.graph, Scheduler::CriticalPath).unwrap();
            assert_eq!(run.outputs, again.outputs, "rounds {rounds}: rerun");

            // What stays: the two newest stored `Aₖ` (1 ≤ k ≤ rounds − 2),
            // the last factor and solutions, and the updates of the
            // second-to-last round.
            let stored_a = rounds.saturating_sub(2).min(2);
            let stored_s = if rounds >= 2 { panels } else { 0 };
            let want = 8 * (n * n * (stored_a + 1 + stored_s) + panels * n * width);
            assert_eq!(slot_bytes(&sg), want, "rounds {rounds}: slot store");
        }
    }

    #[test]
    fn rounds_serialize_but_panels_overlap() {
        let w = SolverLoopWorkload::new(SolverLoopParams {
            n: 8,
            rounds: 3,
            panels: 4,
            width: 4,
            salt: 7,
        });
        let sg = w.graph();
        let run = service(4)
            .submit(&sg.graph, Scheduler::CriticalPath)
            .unwrap();
        // Waves: per round CHOL, TRSMs, SYRKs — 3 × 3.
        assert_eq!(run.waves, 9);
        // The chip overlapped the fan-out: strictly faster than serial.
        assert!(run.stats.makespan_cycles < run.stats.aggregate.cycles);
    }

    #[test]
    fn stream_requests_are_salted_and_verifiable() {
        let stream = SolverStream::new(SolverLoopParams {
            n: 8,
            rounds: 1,
            panels: 2,
            width: 4,
            salt: 5,
        });
        // Deterministic: same (tenant, index) → bit-identical operands;
        // different identity → a different system.
        let a = stream.request(0, 3);
        assert_eq!(a.a0, stream.request(0, 3).a0);
        assert_ne!(a.a0, stream.request(1, 3).a0);
        assert_ne!(a.a0, stream.request(0, 4).a0);
        assert_eq!(a.graph_cost(), stream.request_cost());

        // Every minted request passes its own reference check end to end.
        let mut svc = service(2);
        for (tenant, index) in [(0usize, 0u64), (1, 7)] {
            let w = stream.request(tenant, index);
            let run = svc
                .submit(&w.graph().graph, Scheduler::CriticalPath)
                .unwrap();
            w.check_graph(&run.outputs).unwrap();
        }
    }

    #[test]
    fn fleet_shards_cleanly_across_a_cluster() {
        use lac_sim::{ClusterConfig, LacCluster, Partitioner};
        let base = SolverLoopParams {
            n: 8,
            rounds: 2,
            panels: 2,
            width: 4,
            salt: 1000,
        };
        let fleet = SolverFleet::new(base, 4);
        assert_eq!(fleet.graph.len(), 4 * 2 * (1 + 2 * 2));
        assert_eq!(fleet.total_cost(), fleet.graph.total_cost());

        // Each loop is one component: CostBins puts one per chip, zero
        // cut edges.
        let part = Partitioner::CostBins.partition(&fleet.graph, 4);
        assert!(part.cut_edges.is_empty());
        for (m, ids) in fleet.members.iter().enumerate() {
            let chips: Vec<usize> = ids.iter().map(|id| part.chip_of[id.index()]).collect();
            assert!(
                chips.windows(2).all(|w| w[0] == w[1]),
                "member {m} split across chips"
            );
        }

        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
        let mut cluster: LacCluster<SolverJob> = LacCluster::new(cfg);
        let run = cluster
            .run_graph(&fleet.graph, Scheduler::CriticalPath)
            .unwrap();
        fleet.check(&run.outputs).unwrap();
        assert_eq!(
            run.events.transfer_events().count(),
            0,
            "components never pay the link"
        );

        // Rerunning the used graph is bit-identical.
        let run2 = cluster
            .run_graph(&fleet.graph, Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(run.outputs, run2.outputs);
        assert_eq!(run.stats, run2.stats);
    }

    #[test]
    fn service_reruns_are_bit_identical_across_policies() {
        let w = small();
        let mut baseline = None;
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
        ] {
            let mut svc = service(3);
            let graph = w.graph().graph;
            let first = svc.submit(&graph, sched).unwrap();
            let second = svc.submit(&graph, sched).unwrap();
            assert_eq!(first.outputs, second.outputs, "{sched:?}: rerun diverged");
            assert_eq!(first.stats, second.stats, "{sched:?}: rerun stats diverged");
            match &baseline {
                None => baseline = Some(first.outputs),
                Some(b) => assert_eq!(b, &first.outputs, "{sched:?}: policy changed results"),
            }
        }
    }
}
