//! Convergence-driven dynamic job graphs: the continuation subsystem.
//!
//! Every layer below this module serves graphs whose shape is fixed at
//! submission time. Real interior-point clients are not like that: an
//! IP-PMM QP solve or an IPDDP trajectory optimization iterates *until a
//! residual converges*, so the number of factorization rounds — the graph
//! shape — is unknown when the first segment is submitted. This module
//! describes such requests:
//!
//! * [`Continuation`] — the client's convergence test: after a submitted
//!   segment completes, the continuation inspects that segment's outputs
//!   and deterministically decides to [`Continue::Append`] a successor
//!   segment or declare the request [`Continue::Done`].
//! * [`DynamicGraph`] — an initial [`JobGraph`] paired with its
//!   continuation: a request whose total shape is discovered round by
//!   round. [`DynamicGraph::fixed`] lifts a static graph into the same
//!   shape.
//! * [`DynamicOutcome`] — one request's accounting once it is done.
//!
//! The one driver that serves them is `lac_traffic::run_open_loop_dynamic`:
//! it admits every segment through the tenant admission door
//! ([`crate::LacService::enqueue`] / [`crate::LacCluster::enqueue`]), so a
//! graph that grows can never sneak past its tenant's
//! [`crate::TenantConfig::max_inflight_cost`], runs rounds, and feeds each
//! completed segment to its continuation. A closed batch is a trace whose
//! arrivals are all due at tick 0.
//!
//! **Determinism.** A continuation is required to be a pure function of
//! the outputs it is shown, and rounds are the deterministic rounds of the
//! layers below, so a whole dynamic run — outputs, segment counts,
//! iteration counts — is a pure function of `(requests, tenant configs,
//! cost hints)`: bit-identical across reruns, scheduler policies and
//! backends (policies move *when* jobs run, never what they compute).
//! `tests/dynamic_props.rs` property-tests exactly that.

use crate::chip::ChipJob;
use crate::service::JobGraph;
use std::fmt;

/// A continuation's verdict on its just-completed segment.
pub enum Continue<J: ChipJob> {
    /// Not converged: append this successor segment to the live request.
    /// It re-enters through the tenant's admission door and is charged
    /// against the same `max_inflight_cost` budget as any fresh graph.
    Append(JobGraph<J>),
    /// Converged (or hit the client's iteration cap): the request is
    /// complete.
    Done,
}

/// The convergence test of a dynamic request: shown the outputs of each
/// completed segment, it deterministically decides whether the request
/// grows or finishes.
///
/// Implementations must be pure functions of the outputs they are shown
/// (plus their own captured, deterministic state) — never of host time,
/// scheduling order or placement. That is what lets a dynamic run stay
/// bit-identical across policies and backends. Any `FnMut(usize,
/// &[J::Output]) -> Continue<J> + Send` closure is a continuation.
pub trait Continuation<J: ChipJob>: Send {
    /// Decide after segment `segment` (0 = the initial graph) completed
    /// with `outputs`, one per job in the segment's submission order.
    fn next(&mut self, segment: usize, outputs: &[J::Output]) -> Continue<J>;
}

impl<J: ChipJob, F> Continuation<J> for F
where
    F: FnMut(usize, &[J::Output]) -> Continue<J> + Send,
{
    fn next(&mut self, segment: usize, outputs: &[J::Output]) -> Continue<J> {
        self(segment, outputs)
    }
}

/// A request whose graph shape is discovered at run time: the initial
/// segment plus the continuation that decides how it grows.
pub struct DynamicGraph<J: ChipJob> {
    initial: JobGraph<J>,
    cont: Box<dyn Continuation<J>>,
}

impl<J: ChipJob> DynamicGraph<J> {
    /// Pair an initial segment with its continuation.
    pub fn new(initial: JobGraph<J>, cont: impl Continuation<J> + 'static) -> Self {
        Self {
            initial,
            cont: Box::new(cont),
        }
    }

    /// A static graph lifted into the dynamic API: one segment, then
    /// done. Lets fixed and convergence-driven requests share a driver.
    pub fn fixed(graph: JobGraph<J>) -> Self {
        Self::new(graph, |_: usize, _: &[J::Output]| Continue::<J>::Done)
    }

    /// Re-type every job of the request — initial segment and everything
    /// the continuation will ever append — through `f`, preserving graph
    /// shapes and the continuation's decisions exactly. The target job
    /// type must produce the same output type, so the wrapped
    /// continuation sees the very outputs it would have seen unwrapped.
    ///
    /// This is the heterogeneity adapter: a backend serves exactly one
    /// job type, so to mix clients (say IP-PMM QP solves and IPDDP
    /// fleets from `lac-kernels`) on one service, map each request into
    /// a shared enum that dispatches [`ChipJob::run_on`] per variant.
    pub fn map_job<K, F>(self, mut f: F) -> DynamicGraph<K>
    where
        K: ChipJob<Output = J::Output>,
        F: FnMut(J) -> K + Send + 'static,
        J: 'static,
    {
        let (initial, mut cont) = self.into_parts();
        let initial = initial.map(&mut f);
        DynamicGraph::new(
            initial,
            move |segment: usize, outputs: &[K::Output]| match cont.next(segment, outputs) {
                Continue::Append(g) => Continue::Append(g.map(&mut f)),
                Continue::Done => Continue::Done,
            },
        )
    }

    /// Split the request into its initial segment and continuation — how
    /// the driver (`lac_traffic::run_open_loop_dynamic`) takes it apart.
    pub fn into_parts(self) -> (JobGraph<J>, Box<dyn Continuation<J>>) {
        (self.initial, self.cont)
    }
}

impl<J: ChipJob> fmt::Debug for DynamicGraph<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicGraph")
            .field("initial_jobs", &self.initial.len())
            .field("initial_cost", &self.initial.total_cost())
            .finish_non_exhaustive()
    }
}

/// One dynamic request's final accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicOutcome<T> {
    /// Each completed segment's outputs, in segment order (index 0 = the
    /// initial graph); within a segment, one output per job in submission
    /// order.
    pub segments: Vec<Vec<T>>,
    /// Total jobs the request ran across all segments.
    pub jobs: usize,
    /// Total cost hint admitted across all segments.
    pub total_cost: u64,
    /// Cost admitted *after* the initial segment — the work the request
    /// grew at run time (all of it charged against the tenant budget).
    pub appended_cost: u64,
}

impl<T> DynamicOutcome<T> {
    /// Segments the request took to converge (its iteration count for
    /// one-segment-per-iteration clients like IP-PMM).
    pub fn iterations(&self) -> usize {
        self.segments.len()
    }
}
