//! Batched IPDDP: a fleet of interior-point differential dynamic
//! programming solves — the continuation subsystem's scheduler stress
//! test.
//!
//! Following Pavlov, Shames & Manzie (see PAPERS.md), each fleet member
//! solves a box-constrained discrete-time optimal-control problem
//!
//! ```text
//!     min Σₜ ½xₜᵀQxₜ + ½uₜᵀRuₜ + ½x_TᵀQf·x_T
//!     s.t. xₜ₊₁ = A·xₜ + B·uₜ,   |uₜⱼ| < u_max
//! ```
//!
//! by primal log-barrier DDP: the control bound enters the stage cost as
//! `−μ·Σⱼ[log(u_max−uⱼ) + log(u_max+uⱼ)]`, each **backward sweep**
//! factors one tiny `nu × nu` `Q_uu` block per timestep (Riccati chain),
//! and the **forward pass** rolls the gains out through a backtracking
//! line search. The barrier weight `μ` shrinks geometrically once the
//! gain gradient stalls at the current `μ`; a member is converged when
//! both `μ` and the gradient are below tolerance.
//!
//! The LAC-shaped property is the *batch*: one sweep of the fleet is
//! `members × horizon` independent little CHOL+TRSM factorizations
//! (thousands at bench sizes), chained per member but parallel across
//! members — and members converge after *different* sweep counts, so
//! the appended segments shrink as the fleet drains. That non-uniform,
//! convergence-driven completion is exactly what
//! [`lac_sim::dynamic`] exists to schedule; determinism of every
//! trajectory and sweep count across policies/backends/reruns is the
//! subsystem's acceptance test.
//!
//! [`IpddpFleet::reference`] re-runs every member in pure `linalg-ref`
//! arithmetic; [`IpddpFleet::check`] verifies convergence, strict bound
//! feasibility and agreement of the final control trajectories.

use crate::chol::blocked_cholesky_run;
use crate::ippmm::{backward_solve, forward_solve, inf_norm, mat_tvec, mat_vec};
use crate::trsm::blocked_trsm_run;
use crate::workload::{demo_value, report, DdpDetails, Details, KernelReport};
use lac_sim::dynamic::{Continue, DynamicGraph, DynamicOutcome};
use lac_sim::{ChipJob, JobGraph, Lac, SimError};
use linalg_ref::{cholesky, Matrix};
use std::sync::{Arc, Mutex};

/// State dimension of every member (fixed to the core's register size).
const NX: usize = 4;
/// Control dimension of every member.
const NU: usize = 4;
/// Initial barrier weight.
const MU0: f64 = 0.1;
/// Geometric barrier shrink factor.
const MU_SHRINK: f64 = 0.2;
/// Line-search step fractions tried in order (α = 2⁻ᵏ).
const LS_STEPS: usize = 16;

/// Shape and stopping rule of one IPDDP fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IpddpParams {
    /// Fleet size — independent trajectory optimizations batched into
    /// one dynamic request.
    pub members: usize,
    /// Horizon `T`: timesteps per trajectory, factorizations per sweep
    /// per member.
    pub horizon: usize,
    /// Gradient tolerance (max over `t` of `‖kₜ‖∞`) *and* final barrier
    /// floor: a member is converged when `grad ≤ tol` at `μ ≤ tol`.
    pub tol: f64,
    /// Hard cap on sweeps per member; the continuation stops appending
    /// there even if unconverged (flagged by [`IpddpFleet::check`]).
    pub max_sweeps: usize,
    /// Seed for the deterministic demo dynamics and start states.
    pub salt: u64,
}

impl Default for IpddpParams {
    /// Eight members over a 12-step horizon at `1e-6` — big enough for
    /// visibly non-uniform completion, small enough for tests.
    fn default() -> Self {
        Self {
            members: 8,
            horizon: 12,
            tol: 1e-6,
            max_sweeps: 80,
            salt: 80,
        }
    }
}

/// A candidate forward pass: the new state and control trajectories plus
/// the barrier-augmented cost they achieve.
type Trajectory = (Vec<Vec<f64>>, Vec<Vec<f64>>, f64);

/// One member's immutable problem data.
struct DdpProblem {
    /// Member index within the fleet (`DdpDetails::member` of its
    /// closing reports).
    index: usize,
    horizon: usize,
    /// Control box half-width; varies per member so completion is
    /// non-uniform (tighter boxes need more barrier continuation).
    umax: f64,
    /// State transition (`nx × nx`, spectral radius < 1).
    a: Matrix,
    /// Control matrix (`nx × nu`).
    b: Matrix,
    /// Start state.
    x0: Vec<f64>,
    /// Stage state weight (diagonal value).
    qx: f64,
    /// Stage control weight (diagonal value).
    ru: f64,
    /// Terminal state weight (diagonal value).
    qf: f64,
    tol: f64,
}

impl DdpProblem {
    fn new(index: usize, horizon: usize, tol: f64, salt: u64) -> Self {
        let s = salt.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let a = Matrix::from_fn(NX, NX, |i, j| {
            0.1 * demo_value(i, j, s) + if i == j { 0.85 } else { 0.0 }
        });
        let b = Matrix::from_fn(NX, NU, |i, j| demo_value(i, j, s + 1));
        let x0 = (0..NX).map(|i| 2.0 * demo_value(i, 5, s + 2)).collect();
        Self {
            index,
            horizon,
            umax: 0.4 + 0.1 * (index % 5) as f64,
            a,
            b,
            x0,
            qx: 1.0,
            ru: 0.1,
            qf: 10.0,
            tol,
        }
    }

    /// Barrier value at `u` (`∞` if infeasible).
    fn barrier(&self, u: &[f64], mu: f64) -> f64 {
        let mut s = 0.0;
        for &uj in u {
            let (lo, hi) = (self.umax + uj, self.umax - uj);
            if lo <= 0.0 || hi <= 0.0 {
                return f64::INFINITY;
            }
            s -= mu * (lo.ln() + hi.ln());
        }
        s
    }

    /// Total trajectory cost including barrier terms.
    fn cost(&self, xs: &[Vec<f64>], us: &[Vec<f64>], mu: f64) -> f64 {
        let mut j = 0.0;
        for t in 0..self.horizon {
            j += 0.5 * self.qx * xs[t].iter().map(|v| v * v).sum::<f64>();
            j += 0.5 * self.ru * us[t].iter().map(|v| v * v).sum::<f64>();
            j += self.barrier(&us[t], mu);
        }
        j + 0.5 * self.qf * xs[self.horizon].iter().map(|v| v * v).sum::<f64>()
    }

    /// Roll `x0` forward under controls produced by the affine gain
    /// policy `u = ū + α·k + K·(x − x̄)`; `None` if any control leaves
    /// the box.
    #[allow(clippy::too_many_arguments)]
    fn rollout(
        &self,
        alpha: f64,
        xs: &[Vec<f64>],
        us: &[Vec<f64>],
        ks: &[Vec<f64>],
        kks: &[Matrix],
        mu: f64,
    ) -> Option<Trajectory> {
        let mut nx = vec![self.x0.clone()];
        let mut nu_traj = Vec::with_capacity(self.horizon);
        for t in 0..self.horizon {
            let dx: Vec<f64> = (0..NX).map(|i| nx[t][i] - xs[t][i]).collect();
            let u: Vec<f64> = (0..NU)
                .map(|i| {
                    us[t][i]
                        + alpha * ks[t][i]
                        + (0..NX).map(|j| kks[t][(i, j)] * dx[j]).sum::<f64>()
                })
                .collect();
            if u.iter().any(|&uj| uj.abs() >= self.umax) {
                return None;
            }
            let ax = mat_vec(&self.a, &nx[t]);
            let bu = mat_vec(&self.b, &u);
            nx.push((0..NX).map(|i| ax[i] + bu[i]).collect());
            nu_traj.push(u);
        }
        let cost = self.cost(&nx, &nu_traj, mu);
        Some((nx, nu_traj, cost))
    }

    /// One backward step at timestep `t`: the Q-expansion, the `Q_uu`
    /// factor `L` (passed in from whichever twin factored it), the gains
    /// and the value-function recursion. Shared bit-for-bit by the
    /// device and reference twins. Returns the `(Q_u, Q_ux)` panel so
    /// the device twin can charge the TRSM against the real right-hand
    /// sides.
    fn backward_step(&self, st: &mut DdpState, t: usize, l: &Matrix) -> (Vec<f64>, Matrix) {
        let (vx, vxx) = (st.vx[t + 1].clone(), st.vxx[t + 1].clone());
        let at_vx = mat_tvec(&self.a, &vx);
        let bt_vx = mat_tvec(&self.b, &vx);
        let qu: Vec<f64> = (0..NU)
            .map(|i| {
                let uj = st.at.us[t][i];
                self.ru * uj
                    + st.at.mu * (1.0 / (self.umax - uj) - 1.0 / (self.umax + uj))
                    + bt_vx[i]
            })
            .collect();
        let qx: Vec<f64> = (0..NX)
            .map(|i| self.qx * st.at.xs[t][i] + at_vx[i])
            .collect();
        let vxx_a = mul(&vxx, &self.a);
        let vxx_b = mul(&vxx, &self.b);
        let qxx = Matrix::from_fn(NX, NX, |i, j| {
            col_dot(&self.a, i, &vxx_a, j) + if i == j { self.qx } else { 0.0 }
        });
        let qux = Matrix::from_fn(NU, NX, |i, j| col_dot(&self.b, i, &vxx_a, j));
        // k = −Q_uu⁻¹·Q_u and K = −Q_uu⁻¹·Q_ux from the caller's factor.
        let k: Vec<f64> = backward_solve(l, &forward_solve(l, &qu))
            .iter()
            .map(|v| -v)
            .collect();
        let mut kk = Matrix::zeros(NU, NX);
        for j in 0..NX {
            let col: Vec<f64> = (0..NU).map(|i| qux[(i, j)]).collect();
            let s = backward_solve(l, &forward_solve(l, &col));
            for i in 0..NU {
                kk[(i, j)] = -s[i];
            }
        }
        // V recursion with the exact (not Newton-approximate) terms:
        //   Vx  = Qx + Kᵀ(Q_uu·k + Q_u) + Q_uxᵀ·k
        //   Vxx = Qxx + Kᵀ·Q_uu·K + Kᵀ·Q_ux + Q_uxᵀ·K, symmetrized.
        let quu = self.quu(st, t, &vxx_b);
        let quu_k = mat_vec(&quu, &k);
        let new_vx: Vec<f64> = (0..NX)
            .map(|i| {
                qx[i]
                    + (0..NU)
                        .map(|u| kk[(u, i)] * (quu_k[u] + qu[u]) + qux[(u, i)] * k[u])
                        .sum::<f64>()
            })
            .collect();
        let quu_kk = mul(&quu, &kk);
        let raw = Matrix::from_fn(NX, NX, |i, j| {
            qxx[(i, j)]
                + (0..NU)
                    .map(|u| {
                        kk[(u, i)] * quu_kk[(u, j)]
                            + kk[(u, i)] * qux[(u, j)]
                            + qux[(u, i)] * kk[(u, j)]
                    })
                    .sum::<f64>()
        });
        st.vx[t] = new_vx;
        st.vxx[t] = Matrix::from_fn(NX, NX, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));
        st.ks[t] = k;
        st.kks[t] = kk;
        (qu, qux)
    }

    /// `Q_uu = R + diag(barrier″) + Bᵀ·Vxx·B` at timestep `t`.
    fn quu(&self, st: &DdpState, t: usize, vxx_b: &Matrix) -> Matrix {
        Matrix::from_fn(NU, NU, |i, j| {
            let mut v = col_dot(&self.b, i, vxx_b, j);
            if i == j {
                let uj = st.at.us[t][i];
                let (lo, hi) = (self.umax + uj, self.umax - uj);
                v += self.ru + st.at.mu * (1.0 / (hi * hi) + 1.0 / (lo * lo));
            }
            v
        })
    }

    /// The forward pass closing one sweep: line search, gradient
    /// measurement and the barrier schedule, written to `st.next` (the
    /// sweep's own point stays untouched until [`DdpState::commit`]).
    /// Returns `(grad, μ_pre)` — convergence is judged at the
    /// *pre-update* `μ` so the decision matches the sweep that was
    /// actually run.
    fn forward_pass(&self, st: &mut DdpState) -> (f64, f64) {
        let at = &st.at;
        let grad = st.ks.iter().map(|k| inf_norm(k)).fold(0.0, f64::max);
        let cost_old = self.cost(&at.xs, &at.us, at.mu);
        let mut next = at.clone();
        for k in 0..LS_STEPS {
            let alpha = 0.5f64.powi(k as i32);
            if let Some((xs, us, cost)) =
                self.rollout(alpha, &at.xs, &at.us, &st.ks, &st.kks, at.mu)
            {
                if cost < cost_old + 1e-12 {
                    next.xs = xs;
                    next.us = us;
                    next.cost = cost;
                    break;
                }
            }
        }
        // Shrink the barrier once this μ's subproblem has stalled.
        if grad <= self.tol.max(at.mu) && at.mu > self.tol {
            next.mu = (at.mu * MU_SHRINK).max(self.tol);
        }
        let mu_pre = at.mu;
        st.next = next;
        (grad, mu_pre)
    }

    /// Converged at `(grad, μ_pre)`?
    fn converged(&self, grad: f64, mu_pre: f64) -> bool {
        grad <= self.tol && mu_pre <= self.tol
    }
}

/// `M · N`.
fn mul(m: &Matrix, n: &Matrix) -> Matrix {
    Matrix::from_fn(m.rows(), n.cols(), |i, j| {
        (0..m.cols()).map(|k| m[(i, k)] * n[(k, j)]).sum()
    })
}

/// `(column i of M)ᵀ · (column j of N)` — the `MᵀN` entry without
/// forming the transpose.
fn col_dot(m: &Matrix, i: usize, n: &Matrix, j: usize) -> f64 {
    (0..m.rows()).map(|k| m[(k, i)] * n[(k, j)]).sum()
}

/// A sweep's linearization point: the state and control trajectories,
/// their barrier-augmented cost and the barrier weight.
#[derive(Clone)]
struct Point {
    xs: Vec<Vec<f64>>,
    us: Vec<Vec<f64>>,
    cost: f64,
    mu: f64,
}

/// One member's solve state, shared by its chain of jobs. Every slot has
/// one writer per sweep and is read only by that writer's descendants,
/// so a job rerun after a chip kill reads what its first execution read:
/// job `t` reads `vx[t + 1]`/`vxx[t + 1]` and writes `vx[t]`, `vxx[t]`,
/// `ks[t]` and `kks[t]`; the closing `t = 0` job reads the gains and
/// writes `next`. Only [`DdpState::commit`], between sweeps, moves the
/// sweep's point.
struct DdpState {
    /// The point this sweep linearizes around.
    at: Point,
    /// The forward pass's result: the next sweep's point.
    next: Point,
    /// Value-function gradient per timestep; `vx[horizon]` is the
    /// terminal seed.
    vx: Vec<Vec<f64>>,
    /// Value-function Hessian per timestep; `vxx[horizon]` is the
    /// terminal seed.
    vxx: Vec<Matrix>,
    ks: Vec<Vec<f64>>,
    kks: Vec<Matrix>,
}

impl DdpState {
    fn fresh(p: &DdpProblem) -> Self {
        // Zero controls are strictly interior, so the start is feasible.
        let us = vec![vec![0.0; NU]; p.horizon];
        let mut xs = vec![p.x0.clone()];
        for t in 0..p.horizon {
            let ax = mat_vec(&p.a, &xs[t]);
            xs.push(ax);
        }
        let cost = p.cost(&xs, &us, MU0);
        let at = Point {
            xs,
            us,
            cost,
            mu: MU0,
        };
        let mut st = Self {
            next: at.clone(),
            at,
            vx: vec![vec![0.0; NX]; p.horizon + 1],
            vxx: vec![Matrix::zeros(NX, NX); p.horizon + 1],
            ks: vec![vec![0.0; NU]; p.horizon],
            kks: vec![Matrix::zeros(NU, NX); p.horizon],
        };
        st.seed(p);
        st
    }

    /// Seed the value function at the horizon from the terminal cost.
    fn seed(&mut self, p: &DdpProblem) {
        self.vx[p.horizon] = self.at.xs[p.horizon].iter().map(|&x| p.qf * x).collect();
        self.vxx[p.horizon] = Matrix::from_fn(NX, NX, |i, j| if i == j { p.qf } else { 0.0 });
    }

    /// Advance to the next sweep: the forward pass's point becomes the
    /// linearization point, and the terminal seed follows it.
    fn commit(&mut self, p: &DdpProblem) {
        self.at = self.next.clone();
        self.seed(p);
    }
}

/// Ground truth for one member from [`IpddpFleet::reference`].
pub struct DdpReference {
    /// Final control trajectory, one `nu`-vector per timestep.
    pub us: Vec<Vec<f64>>,
    /// Final cost (at the terminal barrier weight).
    pub cost: f64,
    /// Sweeps the member took to converge.
    pub sweeps: usize,
}

/// The batched IPDDP fleet workload.
pub struct IpddpFleet {
    /// The fleet's shape and stopping rule.
    pub params: IpddpParams,
    members: Vec<Arc<DdpProblem>>,
}

impl IpddpFleet {
    /// A fleet shaped by `params` over deterministic demo dynamics.
    pub fn new(params: IpddpParams) -> Self {
        assert!(params.members >= 1 && params.horizon >= 1 && params.max_sweeps >= 1);
        let members = (0..params.members)
            .map(|i| Arc::new(DdpProblem::new(i, params.horizon, params.tol, params.salt)))
            .collect();
        Self { params, members }
    }

    /// The default registry-sized fleet.
    pub fn demo() -> Self {
        Self::new(IpddpParams::default())
    }

    /// Cost hint of one member's sweep chain — what one appended sweep
    /// charges against the tenant's admission budget.
    pub fn sweep_cost(&self) -> u64 {
        self.params.horizon as u64 * per_step_cost()
    }

    /// The fleet as one dynamic request: sweep 0 for every member fused
    /// into the initial graph, then a continuation that re-appends
    /// chains only for members whose closing job reported "not
    /// converged" — so segments shrink as the fleet drains.
    pub fn dynamic(&self) -> DynamicGraph<DdpJob> {
        let states: Vec<Arc<Mutex<DdpState>>> = self
            .members
            .iter()
            .map(|p| Arc::new(Mutex::new(DdpState::fresh(p))))
            .collect();
        let all: Vec<usize> = (0..self.members.len()).collect();
        let initial = self.sweep_graph(&states, &all);
        let members = self.members.clone();
        let horizon = self.params.horizon;
        let max_sweeps = self.params.max_sweeps;
        let mut active = all;
        DynamicGraph::new(initial, move |seg: usize, outputs: &[KernelReport]| {
            // Member active[j]'s closing job is the last of its
            // `horizon`-long chain within this segment's graph.
            let mut still = Vec::new();
            for (j, &m) in active.iter().enumerate() {
                let closing = &outputs[j * horizon + horizon - 1];
                let Details::Ddp(ddp) = &closing.details else {
                    continue;
                };
                if !members[m].converged(ddp.grad, ddp.mu) {
                    still.push(m);
                }
            }
            active = still;
            if active.is_empty() || seg + 1 >= max_sweeps {
                return Continue::Done;
            }
            let mut g = JobGraph::new();
            for &m in &active {
                states[m]
                    .lock()
                    .expect("ddp state poisoned")
                    .commit(&members[m]);
                g.append(sweep_chain(&members[m], &states[m]));
            }
            Continue::Append(g)
        })
    }

    /// One sweep for the given member subset, fused into one graph.
    fn sweep_graph(&self, states: &[Arc<Mutex<DdpState>>], members: &[usize]) -> JobGraph<DdpJob> {
        let mut g = JobGraph::new();
        for &m in members {
            g.append(sweep_chain(&self.members[m], &states[m]));
        }
        g
    }

    /// Every member solved in pure `linalg-ref` arithmetic.
    pub fn reference(&self) -> Result<Vec<DdpReference>, String> {
        self.members
            .iter()
            .map(|p| {
                let mut st = DdpState::fresh(p);
                for sweep in 0..self.params.max_sweeps {
                    for t in (0..p.horizon).rev() {
                        let vxx_b = mul(&st.vxx[t + 1], &p.b);
                        let quu = p.quu(&st, t, &vxx_b);
                        let l = cholesky(&quu).map_err(|e| {
                            format!("ipddp reference m{} sweep {sweep} t{t}: {e:?}", p.index)
                        })?;
                        p.backward_step(&mut st, t, &l);
                    }
                    let (grad, mu_pre) = p.forward_pass(&mut st);
                    if p.converged(grad, mu_pre) {
                        return Ok(DdpReference {
                            us: st.next.us,
                            cost: st.next.cost,
                            sweeps: sweep + 1,
                        });
                    }
                    st.commit(p);
                }
                Err(format!(
                    "ipddp reference m{}: no convergence within {} sweeps",
                    p.index, self.params.max_sweeps
                ))
            })
            .collect()
    }

    /// Verify a dynamic run: every member's last closing report must say
    /// converged, its controls must be strictly inside the box, and its
    /// trajectory and cost must match the `linalg-ref` reference twin.
    pub fn check(&self, outcome: &DynamicOutcome<KernelReport>) -> Result<(), String> {
        let reference = self.reference()?;
        for (m, (p, r)) in self.members.iter().zip(&reference).enumerate() {
            // Every closing report carries its member's index; take the
            // last sweep's report for this member.
            let DdpDetails {
                u, cost, grad, mu, ..
            } = outcome
                .segments
                .iter()
                .flatten()
                .rev()
                .find_map(|rep| match &rep.details {
                    Details::Ddp(ddp) if ddp.member == m => Some(ddp.as_ref()),
                    _ => None,
                })
                .ok_or_else(|| format!("ipddp: no closing report for member {m}"))?;
            if !p.converged(*grad, *mu) {
                return Err(format!(
                    "ipddp m{m}: not converged (grad {grad:.2e}, mu {mu:.2e})"
                ));
            }
            let mut max_diff = 0.0f64;
            for t in 0..p.horizon {
                for i in 0..NU {
                    let uij = u[(i, t)];
                    if uij.abs() >= p.umax {
                        return Err(format!(
                            "ipddp m{m}: u[{i},{t}] = {uij} breaches the |u| < {} box",
                            p.umax
                        ));
                    }
                    max_diff = max_diff.max((uij - r.us[t][i]).abs());
                }
            }
            if max_diff > 1e-4 * (1.0 + p.umax) {
                return Err(format!(
                    "ipddp m{m}: device controls differ from linalg-ref by {max_diff:.2e}"
                ));
            }
            let cost_diff = (cost - r.cost).abs() / (1.0 + r.cost.abs());
            if cost_diff > 1e-6 {
                return Err(format!(
                    "ipddp m{m}: device cost differs from linalg-ref by {cost_diff:.2e}"
                ));
            }
        }
        Ok(())
    }
}

/// Scheduler cost hint of one timestep's job (4×4 CHOL + 4×8 TRSM).
fn per_step_cost() -> u64 {
    let (nu, nx) = (NU as u64, NX as u64);
    nu * nu * nu / 3 + nu * nu * (nx + 4)
}

/// One member's sweep as a chain of `horizon` jobs, `t = T−1` first so
/// job ids ascend as the Riccati recursion descends.
fn sweep_chain(p: &Arc<DdpProblem>, st: &Arc<Mutex<DdpState>>) -> JobGraph<DdpJob> {
    let mut g = JobGraph::new();
    let mut prev = None;
    for t in (0..p.horizon).rev() {
        let job = DdpJob {
            problem: Arc::clone(p),
            state: Arc::clone(st),
            t,
        };
        let id = match prev {
            None => g.add(job),
            Some(prev) => g.add_after(job, &[prev]),
        };
        prev = Some(id);
    }
    g
}

/// One timestep of one member's backward sweep as a chip job; the `t = 0`
/// job additionally folds the forward pass and closes the sweep with a
/// [`Details::Ddp`] report.
pub struct DdpJob {
    problem: Arc<DdpProblem>,
    state: Arc<Mutex<DdpState>>,
    t: usize,
}

impl ChipJob for DdpJob {
    type Output = KernelReport;

    fn cost_hint(&self) -> u64 {
        per_step_cost().max(1)
    }

    fn transfer_words(&self) -> u64 {
        (NU * (NU + 1) / 2 + NU * (1 + NX)) as u64
    }

    fn run_on(&self, lac: &mut Lac) -> Result<KernelReport, SimError> {
        let p = &self.problem;
        let t = self.t;
        // Assemble Q_uu from the incoming value function, factor it on
        // the device, and run the Riccati recursion around the factor.
        let quu = {
            let st = self.state.lock().expect("ddp state poisoned");
            let vxx_b = mul(&st.vxx[t + 1], &p.b);
            p.quu(&st, t, &vxx_b)
        };
        let (l, mut stats) = blocked_cholesky_run(lac, &quu)?;
        let (qu, qux) = {
            let mut st = self.state.lock().expect("ddp state poisoned");
            p.backward_step(&mut st, t, &l)
        };
        // The gains need Q_uu⁻¹·[Q_u | Q_ux]: run the forward half as a
        // blocked TRSM so the device pays for the panel. The recursion
        // itself solved both halves host-side inside `backward_step`,
        // bit-identically to the reference twin.
        let panel = Matrix::from_fn(NU, (1 + NX).div_ceil(4) * 4, |i, j| {
            if j == 0 {
                qu[i]
            } else if j <= NX {
                qux[(i, j - 1)]
            } else {
                0.0
            }
        });
        let (_, trsm_stats) = blocked_trsm_run(lac, &l, &panel)?;
        stats.merge(&trsm_stats);
        if t == 0 {
            let (grad, mu_pre, u, cost) = {
                let mut st = self.state.lock().expect("ddp state poisoned");
                let (grad, mu_pre) = p.forward_pass(&mut st);
                let u = Matrix::from_fn(NU, p.horizon, |i, tt| st.next.us[tt][i]);
                (grad, mu_pre, u, st.next.cost)
            };
            Ok(report(
                lac,
                "ipddp-sweep",
                stats,
                None,
                Details::Ddp(Box::new(DdpDetails {
                    member: p.index,
                    u,
                    cost,
                    grad,
                    mu: mu_pre,
                })),
            ))
        } else {
            Ok(report(
                lac,
                "ipddp-step",
                stats,
                None,
                Details::Cholesky { l },
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::{ChipConfig, LacConfig, LacService, Scheduler, TenantConfig};
    use lac_traffic::{run_open_loop_dynamic, ArrivalTrace, OpenLoopConfig};

    /// Serve the fleet to convergence on a fresh `cores`-core service, as
    /// a closed batch of one.
    fn solve(fleet: &IpddpFleet, cores: usize, sched: Scheduler) -> DynamicOutcome<KernelReport> {
        let mut svc: LacService<DdpJob> =
            LacService::new(ChipConfig::new(cores, LacConfig::default()));
        let t = svc.add_tenant(TenantConfig::new("ddp"));
        let cfg = OpenLoopConfig {
            sched,
            ..OpenLoopConfig::default()
        };
        let batch = ArrivalTrace::batch(&[1]);
        let mut report =
            run_open_loop_dynamic(&mut svc, &batch, &[t], |_| fleet.dynamic(), cfg).unwrap();
        report.completed.remove(0).outcome
    }

    #[test]
    fn reference_members_converge_non_uniformly() {
        let fleet = IpddpFleet::new(IpddpParams {
            members: 5,
            ..IpddpParams::default()
        });
        let refs = fleet.reference().unwrap();
        let sweeps: Vec<usize> = refs.iter().map(|r| r.sweeps).collect();
        assert!(sweeps.iter().all(|&s| s >= 5), "{sweeps:?}");
        assert!(
            sweeps.windows(2).any(|w| w[0] != w[1]),
            "members should converge after different sweep counts: {sweeps:?}"
        );
    }

    #[test]
    fn fleet_converges_and_checks_out() {
        let fleet = IpddpFleet::new(IpddpParams {
            members: 3,
            horizon: 8,
            ..IpddpParams::default()
        });
        let out = &solve(&fleet, 3, Scheduler::FairShare);
        fleet.check(out).unwrap();
        assert!(out.iterations() >= 5);
        // Segments shrink as members converge: the last sweep holds
        // fewer jobs than the first.
        let first = out.segments.first().unwrap().len();
        let last = out.segments.last().unwrap().len();
        assert!(last < first, "fleet should drain ({first} -> {last} jobs)");
    }

    #[test]
    fn closing_reports_carry_their_members_identity() {
        let fleet = IpddpFleet::demo();
        let out = solve(&fleet, 2, Scheduler::FairShare);
        fleet.check(&out).unwrap();
        // Segment by segment, the closing reports name exactly the members
        // still active, in fleet order; every member closes at least once.
        let mut closed = vec![0usize; fleet.params.members];
        for seg in &out.segments {
            let horizon = fleet.params.horizon;
            let members: Vec<usize> = seg
                .iter()
                .filter_map(|r| match &r.details {
                    Details::Ddp(ddp) => Some(ddp.member),
                    _ => None,
                })
                .collect();
            assert_eq!(members.len(), seg.len() / horizon);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
            for m in members {
                closed[m] += 1;
            }
        }
        let refs = fleet.reference().unwrap();
        let sweeps: Vec<usize> = refs.iter().map(|r| r.sweeps).collect();
        assert_eq!(closed, sweeps, "one closing report per member sweep");

        // Relabel member 0's final closing report: the check must notice
        // that member 0's last word is now an unconverged sweep.
        let mut forged = out.clone();
        let last = forged
            .segments
            .iter_mut()
            .flatten()
            .rev()
            .find_map(|r| match &mut r.details {
                Details::Ddp(ddp) if ddp.member == 0 => Some(ddp),
                _ => None,
            })
            .unwrap();
        last.member = 1;
        assert!(
            fleet.check(&forged).is_err(),
            "a relabelled member must fail"
        );
    }

    #[test]
    fn sweep_counts_are_identical_across_policies() {
        let fleet = IpddpFleet::new(IpddpParams {
            members: 2,
            horizon: 8,
            ..IpddpParams::default()
        });
        let mut shapes = Vec::new();
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::FairShare,
        ] {
            let out = solve(&fleet, 2, sched);
            fleet.check(&out).unwrap();
            shapes.push(out.segments.iter().map(|s| s.len()).collect::<Vec<_>>());
        }
        assert!(shapes.windows(2).all(|s| s[0] == s[1]), "{shapes:?}");
    }
}
