//! IP-PMM: an interior-point proximal method of multipliers for convex
//! QP — the first *convergence-driven* client of the continuation
//! subsystem ([`lac_sim::dynamic`]).
//!
//! Following Gondzio & Pougkakiotis (see PAPERS.md), the solver iterates
//! a primal-dual interior-point step on
//!
//! ```text
//!     min ½·xᵀQx + cᵀx   s.t.  A·x = b,  x ≥ 0
//! ```
//!
//! with proximal regularization: the Newton system of iteration `k` is
//! damped by `ρ‖x − ξₖ‖²` / `δ‖y − λₖ‖²` terms around the proximal
//! centers `(ξₖ, λₖ)` = the current iterate, with `ρ, δ` tied to the
//! barrier parameter `μ`. Each iteration reduces to **normal equations**
//! solved by Cholesky — exactly the kernel mix the LAC was designed for:
//!
//! ```text
//!     G  = Q + X⁻¹Z + ρI           L  = chol(G)        (n × n, device)
//!     V  = L⁻¹Aᵀ,  w = L⁻¹g                            (blocked TRSM, device)
//!     M  = VᵀV + δI                Lₘ = chol(M)        (SYRK + CHOL, device)
//!     Δy from Lₘ, Δx from L, Δz from complementarity   (device + host)
//! ```
//!
//! The defining property — and the reason this lives behind a
//! [`DynamicGraph`] — is that the **iteration count is unknown at
//! submission time**: the loop runs until the primal/dual residuals and
//! `μ` fall below tolerance (hard-capped at
//! [`IppmmParams::max_iters`]). Each iteration is one four-job graph
//! segment; the closing job emits [`Details::Ipm`] and the continuation
//! appends the next segment only if that output says "not converged".
//! The decision is a pure function of the segment's outputs, so the
//! whole solve — iterates *and* iteration count — is bit-identical
//! across scheduler policies, backends and reruns.
//!
//! [`IppmmWorkload::reference`] runs the same iteration in pure
//! `linalg-ref` arithmetic (its own factorizations, no simulator);
//! [`IppmmWorkload::check`] verifies a dynamic run against it plus an
//! independent KKT-residual recomputation.

use crate::chol::blocked_cholesky_run;
use crate::syrk::{syrk_update, SyrkParams};
use crate::trsm::blocked_trsm_run;
use crate::workload::{
    demo_matrix, demo_spd, demo_value, expect_details, report, Details, IpmDetails, KernelReport,
};
use lac_sim::dynamic::{Continue, DynamicGraph, DynamicOutcome};
use lac_sim::{ChipJob, JobGraph, Lac, SimError};
use linalg_ref::{cholesky, Matrix};
use std::sync::{Arc, Mutex};

/// Shape and stopping rule of one IP-PMM solve. Dimensions follow the
/// 4×4 core's blocked kernels: `n` and `m` multiples of `nr`, `m < n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IppmmParams {
    /// Primal dimension (the Hessian is `n × n`).
    pub n: usize,
    /// Equality-constraint count (the constraint matrix is `m × n`).
    pub m: usize,
    /// Relative convergence tolerance on the primal/dual residuals and
    /// absolute tolerance on `μ`.
    pub tol: f64,
    /// Hard iteration cap — the continuation stops appending segments
    /// here even if unconverged (surfaced by
    /// [`IppmmWorkload::check`] as an error).
    pub max_iters: usize,
    /// Seed for the deterministic demo operands.
    pub salt: u64,
}

impl Default for IppmmParams {
    /// A 16-variable, 8-constraint QP at `1e-7` — converges in ~20
    /// iterations, small enough for tests and bench sweeps.
    fn default() -> Self {
        Self {
            n: 16,
            m: 8,
            tol: 1e-7,
            max_iters: 40,
            salt: 70,
        }
    }
}

/// Fixed centering parameter `σ`: each step targets `σ·μ`.
const SIGMA: f64 = 0.3;
/// Fraction-to-boundary step damping.
const STEP_FRACTION: f64 = 0.995;
/// Proximal-regularization clamp: `ρ = δ = clamp(μ, MIN, MAX)`.
const REG_MIN: f64 = 1e-10;
const REG_MAX: f64 = 1e-3;

/// The problem data plus derived tolerances — immutable across the
/// solve, shared by every job through an `Arc`.
struct IpmProblem {
    n: usize,
    m: usize,
    q: Matrix,
    a: Matrix,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Primal residual threshold: `tol · (1 + ‖b‖∞)`.
    eps_p: f64,
    /// Dual residual threshold: `tol · (1 + ‖c‖∞)`.
    eps_d: f64,
    /// Complementarity threshold (`μ ≤ tol`).
    eps_mu: f64,
}

/// One segment's state: the iterate it steps from, which no job writes,
/// plus one slot per intermediate, each written by exactly one of the
/// segment's four jobs and read only by its descendants. A job rerun
/// after a chip kill therefore reads what its first execution read; the
/// stepped iterate leaves in the closing report, and the continuation
/// builds the next segment's state from it. Graph edges order every
/// access; the contents are a pure function of the problem, so they are
/// placement-independent.
struct IpmIterate {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// `ρ = δ` of the current iteration (from the pre-step `μ`).
    reg: f64,
    /// Newton right-hand side `g = −r_d + X⁻¹(σμe − XZe)`.
    g: Vec<f64>,
    /// `L = chol(G)`.
    l: Matrix,
    /// `V = L⁻¹Aᵀ` (`n × m`).
    v: Matrix,
    /// `w = L⁻¹g`.
    w: Vec<f64>,
    /// `Lₘ = chol(VᵀV + δI)`.
    lm: Matrix,
    /// Schur right-hand side `r_p − Vᵀw`.
    rhs_y: Vec<f64>,
}

/// `‖v‖∞`.
pub(crate) fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, &x| acc.max(x.abs()))
}

/// `A·x` by rows, fixed order.
pub(crate) fn mat_vec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| (0..a.cols()).map(|j| a[(i, j)] * x[j]).sum())
        .collect()
}

/// `Aᵀ·y` by columns, fixed order.
pub(crate) fn mat_tvec(a: &Matrix, y: &[f64]) -> Vec<f64> {
    (0..a.cols())
        .map(|j| (0..a.rows()).map(|i| a[(i, j)] * y[i]).sum())
        .collect()
}

/// Solve `Lᵀ·x = v` for lower-triangular `L` by back-substitution —
/// the host half of every `G⁻¹`/`M⁻¹` application (the device solves the
/// forward half with the blocked TRSM kernel). Shared by the device and
/// reference twins so the transpose solve is the identical arithmetic.
pub(crate) fn backward_solve(l: &Matrix, v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut x = v.to_vec();
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// Solve `L·x = v` by forward substitution (reference twin only; the
/// device twin runs the blocked TRSM kernel instead).
pub(crate) fn forward_solve(l: &Matrix, v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut x = v.to_vec();
    for i in 0..n {
        let mut s = x[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// The residuals of the current iterate: `(r_p, r_d, μ)` with
/// `r_p = b − Ax` and `r_d = c + Qx − Aᵀy − z`, in fixed evaluation
/// order.
fn residuals(p: &IpmProblem, x: &[f64], y: &[f64], z: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
    let ax = mat_vec(&p.a, x);
    let qx = mat_vec(&p.q, x);
    let aty = mat_tvec(&p.a, y);
    let rp: Vec<f64> = (0..p.m).map(|i| p.b[i] - ax[i]).collect();
    let rd: Vec<f64> = (0..p.n).map(|i| p.c[i] + qx[i] - aty[i] - z[i]).collect();
    let mu = x.iter().zip(z).map(|(xi, zi)| xi * zi).sum::<f64>() / p.n as f64;
    (rp, rd, mu)
}

/// Host tail of one Newton step, shared bit-for-bit by the device and
/// reference twins: given the segment's factors/solves, recover
/// `(Δx, Δy, Δz)`, take the damped step, and return the post-step
/// residual norms.
#[allow(clippy::too_many_arguments)]
fn apply_step(
    p: &IpmProblem,
    x: &mut [f64],
    y: &mut [f64],
    z: &mut [f64],
    l: &Matrix,
    v: &Matrix,
    w: &[f64],
    lm: &Matrix,
    u: &[f64],
    mu_pre: f64,
) -> (f64, f64, f64) {
    // Δy = Lₘ⁻ᵀ·u (u = Lₘ⁻¹·rhs_y came from the forward solve).
    let dy = backward_solve(lm, u);
    // L⁻¹(g + AᵀΔy) = w + V·Δy — the V panel saves a second solve.
    let vdy: Vec<f64> = (0..p.n)
        .map(|i| w[i] + (0..p.m).map(|j| v[(i, j)] * dy[j]).sum::<f64>())
        .collect();
    let dx = backward_solve(l, &vdy);
    let target = SIGMA * mu_pre;
    let dz: Vec<f64> = (0..p.n)
        .map(|i| (target - x[i] * z[i] - z[i] * dx[i]) / x[i])
        .collect();
    // Fraction-to-boundary step lengths keep x, z strictly positive.
    let mut alpha_p = 1.0f64;
    let mut alpha_d = 1.0f64;
    for i in 0..p.n {
        if dx[i] < 0.0 {
            alpha_p = alpha_p.min(-STEP_FRACTION * x[i] / dx[i]);
        }
        if dz[i] < 0.0 {
            alpha_d = alpha_d.min(-STEP_FRACTION * z[i] / dz[i]);
        }
    }
    for i in 0..p.n {
        x[i] += alpha_p * dx[i];
        z[i] += alpha_d * dz[i];
    }
    for j in 0..p.m {
        y[j] += alpha_d * dy[j];
    }
    let (rp, rd, mu) = residuals(p, x, y, z);
    (inf_norm(&rp), inf_norm(&rd), mu)
}

/// The IP-PMM convex-QP workload over deterministic demo operands with a
/// known KKT point: `Q` SPD, `A` full-rank, and `(b, c)` constructed
/// from a strictly complementary primal-dual solution.
#[derive(Clone, Debug)]
pub struct IppmmWorkload {
    /// The solve's shape and stopping rule.
    pub params: IppmmParams,
    /// The Hessian (`n × n`, SPD).
    pub q: Matrix,
    /// The constraint matrix (`m × n`).
    pub a: Matrix,
    /// The constraint right-hand side.
    pub b: Vec<f64>,
    /// The linear cost.
    pub c: Vec<f64>,
}

/// Ground truth computed by [`IppmmWorkload::reference`]: the same
/// iteration in pure `linalg-ref` arithmetic.
pub struct IpmReference {
    /// The converged primal iterate.
    pub x: Vec<f64>,
    /// The converged equality multiplier.
    pub y: Vec<f64>,
    /// The converged bound multiplier.
    pub z: Vec<f64>,
    /// Iterations the reference solve took.
    pub iterations: usize,
}

impl IppmmWorkload {
    /// A QP shaped by `params` over deterministic demo operands.
    pub fn new(params: IppmmParams) -> Self {
        let nr = 4; // the blocked kernels' register dimension
        assert!(
            params.n.is_multiple_of(nr) && params.m.is_multiple_of(nr),
            "n, m must be multiples of nr"
        );
        assert!(params.m < params.n, "normal equations need m < n");
        assert!(params.max_iters >= 1);
        let q = demo_spd(params.n, params.salt);
        let a = demo_matrix(params.m, params.n, params.salt + 1);
        // A strictly complementary KKT point: even coordinates inactive
        // (x* > 0, z* = 0), odd coordinates active (x* = 0, z* > 0).
        let xs: Vec<f64> = (0..params.n)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + 0.5 * demo_value(i, 7, params.salt + 2).abs()
                } else {
                    0.0
                }
            })
            .collect();
        let zs: Vec<f64> = (0..params.n)
            .map(|i| {
                if i % 2 == 0 {
                    0.0
                } else {
                    1.0 + 0.5 * demo_value(i, 11, params.salt + 2).abs()
                }
            })
            .collect();
        let ys: Vec<f64> = (0..params.m)
            .map(|j| demo_value(j, 13, params.salt + 3))
            .collect();
        let b = mat_vec(&a, &xs);
        let qx = mat_vec(&q, &xs);
        let aty = mat_tvec(&a, &ys);
        // c = Aᵀy* + z* − Qx*  ⇒  (x*, y*, z*) satisfies the KKT system.
        let c = (0..params.n).map(|i| aty[i] + zs[i] - qx[i]).collect();
        Self { params, q, a, b, c }
    }

    /// The default registry-sized solve.
    pub fn demo() -> Self {
        Self::new(IppmmParams::default())
    }

    fn problem(&self) -> IpmProblem {
        IpmProblem {
            n: self.params.n,
            m: self.params.m,
            q: self.q.clone(),
            a: self.a.clone(),
            b: self.b.clone(),
            c: self.c.clone(),
            eps_p: self.params.tol * (1.0 + inf_norm(&self.b)),
            eps_d: self.params.tol * (1.0 + inf_norm(&self.c)),
            eps_mu: self.params.tol,
        }
    }

    /// Cost hint of one iteration's four-job segment — what one appended
    /// segment charges against the tenant's admission budget.
    pub fn iteration_cost(&self) -> u64 {
        let (n, m) = (self.params.n as u64, self.params.m as u64);
        let solve_w = Self::solve_width(self.params.m) as u64;
        // factor G + panel solve + (SYRK + factor M) + step solve.
        (n * n * n / 3) + (n * n * solve_w) + (m * m * n + m * m * m / 3) + (m * m * 4)
    }

    /// Width of the fused `[Aᵀ | g]` TRSM panel, padded to the blocked
    /// kernels' `nr` granularity.
    fn solve_width(m: usize) -> usize {
        (m + 1).div_ceil(4) * 4
    }

    /// The solve as a dynamic request: the initial iteration's segment
    /// plus the continuation that appends one segment per iteration until
    /// the closing job's [`Details::Ipm`] output says converged (or the
    /// iteration cap is hit). Serve it with `lac_traffic`'s
    /// `run_open_loop_dynamic`.
    pub fn dynamic(&self) -> DynamicGraph<IpmJob> {
        let problem = Arc::new(self.problem());
        let (n, m) = (problem.n, problem.m);
        let initial = segment(&problem, vec![1.0; n], vec![0.0; m], vec![1.0; n]);
        let p = Arc::clone(&problem);
        let max_iters = self.params.max_iters;
        DynamicGraph::new(initial, move |seg: usize, outputs: &[KernelReport]| {
            let Some(last) = outputs.last() else {
                return Continue::Done;
            };
            let Details::Ipm(ipm) = &last.details else {
                return Continue::Done;
            };
            let converged = ipm.rp <= p.eps_p && ipm.rd <= p.eps_d && ipm.mu <= p.eps_mu;
            if converged || seg + 1 >= max_iters {
                Continue::Done
            } else {
                let column = |v: &Matrix| (0..v.rows()).map(|i| v[(i, 0)]).collect();
                Continue::Append(segment(&p, column(&ipm.x), column(&ipm.y), column(&ipm.z)))
            }
        })
    }

    /// The same iteration in pure `linalg-ref` arithmetic — its own
    /// Cholesky factorizations, fully independent of the simulator.
    pub fn reference(&self) -> Result<IpmReference, String> {
        let p = self.problem();
        let mut x = vec![1.0; p.n];
        let mut y = vec![0.0; p.m];
        let mut z = vec![1.0; p.n];
        for iter in 0..self.params.max_iters {
            let (rp, rd, mu) = residuals(&p, &x, &y, &z);
            if inf_norm(&rp) <= p.eps_p && inf_norm(&rd) <= p.eps_d && mu <= p.eps_mu {
                return Ok(IpmReference {
                    x,
                    y,
                    z,
                    iterations: iter,
                });
            }
            let reg = mu.clamp(REG_MIN, REG_MAX);
            let gmat = newton_matrix(&p, &x, &z, reg);
            let l = cholesky(&gmat).map_err(|e| format!("ippmm reference iter {iter}: {e:?}"))?;
            let g = newton_rhs(&p, &x, &z, &rd, mu);
            // V = L⁻¹Aᵀ, w = L⁻¹g, column by column.
            let mut v = Matrix::zeros(p.n, p.m);
            for j in 0..p.m {
                let col: Vec<f64> = (0..p.n).map(|i| p.a[(j, i)]).collect();
                let s = forward_solve(&l, &col);
                for i in 0..p.n {
                    v[(i, j)] = s[i];
                }
            }
            let w = forward_solve(&l, &g);
            let m = schur_matrix(&v, reg);
            let lm =
                cholesky(&m).map_err(|e| format!("ippmm reference iter {iter} (Schur): {e:?}"))?;
            let rhs_y = schur_rhs(&p, &v, &w, &rp);
            let u = forward_solve(&lm, &rhs_y);
            apply_step(&p, &mut x, &mut y, &mut z, &l, &v, &w, &lm, &u, mu);
        }
        Err(format!(
            "ippmm reference: no convergence within {} iterations",
            self.params.max_iters
        ))
    }

    /// Verify a dynamic run against the reference solve: the last
    /// segment's [`Details::Ipm`] output must report convergence, an
    /// independent KKT-residual recomputation from that output must agree,
    /// and the primal iterate must match [`IppmmWorkload::reference`]'s.
    pub fn check(&self, outcome: &DynamicOutcome<KernelReport>) -> Result<(), String> {
        let last = outcome
            .segments
            .last()
            .and_then(|s| s.last())
            .ok_or("ippmm: empty dynamic outcome")?;
        let Details::Ipm(ipm) = &last.details else {
            return Err(expect_details("ippmm", "Ipm"));
        };
        let IpmDetails {
            x,
            y,
            z,
            rp,
            rd,
            mu,
        } = ipm.as_ref();
        let p = self.problem();
        if !(*rp <= p.eps_p && *rd <= p.eps_d && *mu <= p.eps_mu) {
            return Err(format!(
                "ippmm: not converged after {} iterations (rp {rp:.2e}, rd {rd:.2e}, mu {mu:.2e})",
                outcome.segments.len()
            ));
        }
        // Independent recomputation of the KKT residuals from the
        // reported iterate (same operands, separate code path).
        let xv: Vec<f64> = (0..p.n).map(|i| x[(i, 0)]).collect();
        let yv: Vec<f64> = (0..p.m).map(|i| y[(i, 0)]).collect();
        let zv: Vec<f64> = (0..p.n).map(|i| z[(i, 0)]).collect();
        let (rp2, rd2, mu2) = residuals(&p, &xv, &yv, &zv);
        if inf_norm(&rp2) > 10.0 * p.eps_p
            || inf_norm(&rd2) > 10.0 * p.eps_d
            || mu2 > 10.0 * p.eps_mu
        {
            return Err(format!(
                "ippmm: reported convergence but recomputed KKT residuals disagree \
                 (rp {:.2e}, rd {:.2e}, mu {:.2e})",
                inf_norm(&rp2),
                inf_norm(&rd2),
                mu2
            ));
        }
        // The QP is strictly convex, so the primal solution is unique:
        // the device iterate must land where the reference landed.
        let reference = self.reference()?;
        let scale = 1.0 + inf_norm(&reference.x);
        let diff = (0..p.n)
            .map(|i| (xv[i] - reference.x[i]).abs())
            .fold(0.0f64, f64::max);
        if diff / scale > 1e-4 {
            return Err(format!(
                "ippmm: device solution differs from linalg-ref reference by {:.2e}",
                diff / scale
            ));
        }
        Ok(())
    }
}

/// `G = Q + X⁻¹Z + ρI`.
fn newton_matrix(p: &IpmProblem, x: &[f64], z: &[f64], reg: f64) -> Matrix {
    Matrix::from_fn(p.n, p.n, |i, j| {
        p.q[(i, j)] + if i == j { z[i] / x[i] + reg } else { 0.0 }
    })
}

/// `g = −r_d + X⁻¹(σμe − XZe)`.
fn newton_rhs(p: &IpmProblem, x: &[f64], z: &[f64], rd: &[f64], mu: f64) -> Vec<f64> {
    let target = SIGMA * mu;
    (0..p.n)
        .map(|i| -rd[i] + (target - x[i] * z[i]) / x[i])
        .collect()
}

/// `M = VᵀV + δI`, full symmetric.
fn schur_matrix(v: &Matrix, reg: f64) -> Matrix {
    let m = v.cols();
    let n = v.rows();
    Matrix::from_fn(m, m, |i, j| {
        let dot: f64 = (0..n).map(|k| v[(k, i)] * v[(k, j)]).sum();
        dot + if i == j { reg } else { 0.0 }
    })
}

/// `rhs_y = r_p − Vᵀw`.
fn schur_rhs(p: &IpmProblem, v: &Matrix, w: &[f64], rp: &[f64]) -> Vec<f64> {
    (0..p.m)
        .map(|j| rp[j] - (0..p.n).map(|i| v[(i, j)] * w[i]).sum::<f64>())
        .collect()
}

/// Build one iteration's four-job segment stepping from `(x, y, z)`:
/// factor → panel solve → Schur → step, chained, over a fresh
/// per-segment [`IpmIterate`].
fn segment(problem: &Arc<IpmProblem>, x: Vec<f64>, y: Vec<f64>, z: Vec<f64>) -> JobGraph<IpmJob> {
    let iterate = Arc::new(Mutex::new(IpmIterate {
        x,
        y,
        z,
        reg: REG_MAX,
        g: vec![0.0; problem.n],
        l: Matrix::zeros(problem.n, problem.n),
        v: Matrix::zeros(problem.n, problem.m),
        w: vec![0.0; problem.n],
        lm: Matrix::zeros(problem.m, problem.m),
        rhs_y: vec![0.0; problem.m],
    }));
    let (n, m) = (problem.n as u64, problem.m as u64);
    let solve_w = IppmmWorkload::solve_width(problem.m) as u64;
    let job = |step: IpmStep, cost: u64, words: u64| IpmJob {
        problem: Arc::clone(problem),
        iterate: Arc::clone(&iterate),
        cost,
        words,
        step,
    };
    let mut g = JobGraph::new();
    let f = g.add(job(IpmStep::Factor, n * n * n / 3, n * (n + 1) / 2));
    let s = g.add_after(job(IpmStep::Solve, n * n * solve_w, n * solve_w), &[f]);
    let sc = g.add_after(
        job(IpmStep::Schur, m * m * n + m * m * m / 3, m * (m + 1) / 2),
        &[s],
    );
    g.add_after(job(IpmStep::Step, m * m * 4, n + m), &[sc]);
    g
}

/// One step of an IP-PMM iteration as a chip job. Steps communicate
/// through the iterate behind the segment's dependency edges.
pub struct IpmJob {
    problem: Arc<IpmProblem>,
    iterate: Arc<Mutex<IpmIterate>>,
    cost: u64,
    words: u64,
    step: IpmStep,
}

enum IpmStep {
    /// Assemble `G = Q + X⁻¹Z + ρI` and factor it on the device.
    Factor,
    /// Blocked TRSM of the fused `[Aᵀ | g]` panel against `L`.
    Solve,
    /// `M = VᵀV + δI` by device SYRK, then factor `M` on the device.
    Schur,
    /// Solve for `Δy`, recover `(Δx, Δz)`, take the damped step from a
    /// copy of the segment's iterate, emit the post-step iterate and
    /// residuals. The report is labelled `ippmm-step`; its segment index
    /// is the iteration.
    Step,
}

impl ChipJob for IpmJob {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        self.cost.max(1)
    }

    fn transfer_words(&self) -> u64 {
        self.words.max(1)
    }

    fn run_on(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let p = &self.problem;
        match &self.step {
            IpmStep::Factor => {
                let gmat = {
                    let mut st = self.iterate.lock().expect("ipm state poisoned");
                    let mu =
                        st.x.iter().zip(&st.z).map(|(xi, zi)| xi * zi).sum::<f64>() / p.n as f64;
                    st.reg = mu.clamp(REG_MIN, REG_MAX);
                    let (_, rd, _) = residuals(p, &st.x, &st.y, &st.z);
                    st.g = newton_rhs(p, &st.x, &st.z, &rd, mu);
                    newton_matrix(p, &st.x, &st.z, st.reg)
                };
                let (l, stats) = blocked_cholesky_run(lac, &gmat)?;
                self.iterate.lock().expect("ipm state poisoned").l = l.clone();
                Ok(report(
                    lac,
                    "ippmm-factor",
                    stats,
                    None,
                    Details::Cholesky { l },
                ))
            }
            IpmStep::Solve => {
                let (l, panel) = {
                    let st = self.iterate.lock().expect("ipm state poisoned");
                    let w = IppmmWorkload::solve_width(p.m);
                    // Fused right-hand sides: [Aᵀ | g | 0-pad].
                    let panel = Matrix::from_fn(p.n, w, |i, j| {
                        if j < p.m {
                            p.a[(j, i)]
                        } else if j == p.m {
                            st.g[i]
                        } else {
                            0.0
                        }
                    });
                    (st.l.clone(), panel)
                };
                let (x, stats) = blocked_trsm_run(lac, &l, &panel)?;
                {
                    let mut st = self.iterate.lock().expect("ipm state poisoned");
                    st.v = Matrix::from_fn(p.n, p.m, |i, j| x[(i, j)]);
                    st.w = (0..p.n).map(|i| x[(i, p.m)]).collect();
                }
                Ok(report(lac, "ippmm-solve", stats, None, Details::Trsm { x }))
            }
            IpmStep::Schur => {
                let (vt, reg) = {
                    let st = self.iterate.lock().expect("ipm state poisoned");
                    (st.v.transpose(), st.reg)
                };
                // S = Vᵀ·(Vᵀ)ᵀ = VᵀV, lower triangle, on the device.
                let (s, syrk_stats) = syrk_update(
                    lac,
                    &vt,
                    &Matrix::zeros(p.m, p.m),
                    &SyrkParams::new(p.m, p.n),
                )?;
                let m = Matrix::from_fn(p.m, p.m, |i, j| {
                    let v = if i >= j { s[(i, j)] } else { s[(j, i)] };
                    v + if i == j { reg } else { 0.0 }
                });
                let (lm, chol_stats) = blocked_cholesky_run(lac, &m)?;
                {
                    let mut st = self.iterate.lock().expect("ipm state poisoned");
                    let (rp, _, _) = residuals(p, &st.x, &st.y, &st.z);
                    st.rhs_y = schur_rhs(p, &st.v, &st.w, &rp);
                    st.lm = lm.clone();
                }
                let mut stats = syrk_stats;
                stats.merge(&chol_stats);
                Ok(report(
                    lac,
                    "ippmm-schur",
                    stats,
                    None,
                    Details::Cholesky { l: lm },
                ))
            }
            IpmStep::Step => {
                let (lm, rhs_panel) = {
                    let st = self.iterate.lock().expect("ipm state poisoned");
                    let panel =
                        Matrix::from_fn(p.m, 4, |i, j| if j == 0 { st.rhs_y[i] } else { 0.0 });
                    (st.lm.clone(), panel)
                };
                let (sol, stats) = blocked_trsm_run(lac, &lm, &rhs_panel)?;
                let u: Vec<f64> = (0..p.m).map(|i| sol[(i, 0)]).collect();
                let (x, y, z, rp, rd, mu) = {
                    let st = self.iterate.lock().expect("ipm state poisoned");
                    let mu_pre =
                        st.x.iter().zip(&st.z).map(|(xi, zi)| xi * zi).sum::<f64>() / p.n as f64;
                    let (mut x, mut y, mut z) = (st.x.clone(), st.y.clone(), st.z.clone());
                    let (rp, rd, mu) = apply_step(
                        p, &mut x, &mut y, &mut z, &st.l, &st.v, &st.w, &st.lm, &u, mu_pre,
                    );
                    (
                        Matrix::from_fn(p.n, 1, |i, _| x[i]),
                        Matrix::from_fn(p.m, 1, |i, _| y[i]),
                        Matrix::from_fn(p.n, 1, |i, _| z[i]),
                        rp,
                        rd,
                        mu,
                    )
                };
                Ok(report(
                    lac,
                    "ippmm-step",
                    stats,
                    None,
                    Details::Ipm(Box::new(IpmDetails {
                        x,
                        y,
                        z,
                        rp,
                        rd,
                        mu,
                    })),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::{ChipConfig, LacConfig, LacService, Scheduler, TenantConfig};
    use lac_traffic::{run_open_loop_dynamic, ArrivalTrace, OpenLoopConfig};

    /// Serve one solve to convergence on a fresh `cores`-core service, as
    /// a closed batch of one.
    fn solve(w: &IppmmWorkload, cores: usize, sched: Scheduler) -> DynamicOutcome<KernelReport> {
        let mut svc: LacService<IpmJob> =
            LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("qp"));
        let cfg = OpenLoopConfig {
            sched,
            ..OpenLoopConfig::default()
        };
        let mut report = run_open_loop_dynamic(
            &mut svc,
            &ArrivalTrace::batch(&[1]),
            &[t],
            |_| w.dynamic(),
            cfg,
        )
        .unwrap();
        report.completed.remove(0).outcome
    }

    #[test]
    fn reference_converges_to_the_planted_kkt_point() {
        let w = IppmmWorkload::demo();
        let r = w.reference().unwrap();
        assert!(r.iterations >= 5, "an IPM takes real iterations");
        assert!(r.iterations < w.params.max_iters);
        // Even coordinates were planted inactive, odd active.
        for i in 0..w.params.n {
            if i % 2 == 0 {
                assert!(r.x[i] > 0.5, "x[{i}] should be inactive");
                assert!(r.z[i] < 1e-3);
            } else {
                assert!(r.x[i] < 1e-3, "x[{i}] should be active");
                assert!(r.z[i] > 0.5);
            }
        }
    }

    #[test]
    fn dynamic_solve_converges_and_checks_out() {
        let w = IppmmWorkload::demo();
        let out = &solve(&w, 2, Scheduler::FairShare);
        w.check(out).unwrap();
        assert!(out.iterations() >= 5, "convergence took real iterations");
        assert!(out.iterations() < w.params.max_iters);
        assert_eq!(out.jobs, 4 * out.iterations());
        assert!(out.appended_cost > 0, "the graph grew at run time");
    }

    #[test]
    fn iteration_count_is_identical_across_policies() {
        let w = IppmmWorkload::new(IppmmParams {
            n: 8,
            m: 4,
            ..IppmmParams::default()
        });
        let mut counts = Vec::new();
        let mut outputs = Vec::new();
        for sched in [
            Scheduler::Fifo,
            Scheduler::CriticalPath,
            Scheduler::FairShare,
        ] {
            let out = solve(&w, 3, sched);
            w.check(&out).unwrap();
            counts.push(out.iterations());
            outputs.push(out.segments);
        }
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "{counts:?}");
        assert!(
            outputs.windows(2).all(|o| o[0] == o[1]),
            "outputs must be bit-identical across policies"
        );
    }
}
