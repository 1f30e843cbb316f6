#![warn(missing_docs)]
//! Open-loop traffic layer for the LAC serving stack.
//!
//! The layers below this crate answer "how fast does a batch finish?"
//! (`lac_sim::LacChip`, `LacService`, `LacCluster` — closed-loop
//! makespan). Serving millions of users is a different regime: work
//! arrives on *its own clock*, queues build and drain with the offered
//! load, and the metric that matters is the **sojourn time** — arrival to
//! completion — at the tail (p99/p999), per tenant, against a latency
//! SLO. This crate closes that loop:
//!
//! * [`ArrivalTrace`] — deterministic seeded arrival-trace generation
//!   ([`ArrivalProcess::Poisson`], bursty [`ArrivalProcess::OnOff`],
//!   [`ArrivalProcess::Diurnal`]). A trace is a replayable value type:
//!   the same seed yields bit-identical arrivals, so every latency
//!   number downstream is reproducible.
//! * [`LatencyHistogram`] — fixed log-bucketed sojourn-time accounting
//!   with deterministic [`LatencyHistogram::p50`] /
//!   [`LatencyHistogram::p99`] / [`LatencyHistogram::p999`] in simulated
//!   cycles (≤ 12.5 % bucket granularity), exact merge.
//! * [`run_open_loop_dynamic`] — the one request driver: it walks a
//!   trace against an [`OpenLoopBackend`] (a `LacService` or a
//!   `LacCluster`), fast-forwarding the simulated clock to the next
//!   arrival through the backend's `advance_idle` door, enqueueing each
//!   due request through the tenant admission door, running rounds, and
//!   charging each finished request's sojourn to its tenant's histogram.
//!   Every request is a [`lac_sim::dynamic::DynamicGraph`] whose
//!   continuation may append segments until its residual converges;
//!   continuations of live requests re-admit **before** younger arrivals,
//!   appended segments are charged against the tenant's admission budget
//!   like any fresh graph, and the sojourn clock runs to the *final*
//!   segment. Fixed graphs are `DynamicGraph::fixed`, and a closed batch
//!   is an [`ArrivalTrace::batch`] whose arrivals are all due at tick 0.
//!   Tenants with a [`lac_sim::TenantConfig::with_deadline`] SLO get a
//!   preemption-free priority boost (least deadline slack first) layered
//!   on the fair-share scheduler — which reorders *when* jobs run but,
//!   because outputs are placement-independent, never changes output
//!   bits.
//!
//! Everything here is planned from ticks, cost hints and seeds — never
//! host timing — so open-loop runs are bit-identical across reruns,
//! scheduler policies and backends, the same determinism contract as the
//! rest of the stack.

pub mod driver;
pub mod hist;
pub mod trace;

pub use driver::{
    run_open_loop_dynamic, DynamicCompleted, DynamicOpenLoopReport, OpenLoopBackend,
    OpenLoopConfig, OpenLoopError, RoundOutcome, TenantLatency,
};
pub use hist::LatencyHistogram;
pub use trace::{Arrival, ArrivalProcess, ArrivalTrace};
