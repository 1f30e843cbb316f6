//! # lap — Linear Algebra Processor codesign reproduction
//!
//! Facade crate re-exporting the full reproduction of Pedram's 2013
//! dissertation *"Algorithm/Architecture Codesign of Low Power and High
//! Performance Linear Algebra Compute Fabrics"*:
//!
//! - [`linalg_ref`] — reference BLAS / factorizations / FFT substrate.
//! - [`lac_fpu`] — floating-point unit models (FMAC, reciprocal, rsqrt…).
//! - [`lac_sim`] — cycle-accurate Linear Algebra Core simulator, from one
//!   core (its counters the session) through the multi-core chip and multi-tenant service
//!   to the multi-chip sharded cluster.
//! - [`lac_kernels`] — algorithm→architecture microprogram generators.
//! - [`lac_model`] — analytical performance / memory-hierarchy models.
//! - [`lac_power`] — power & area models and platform comparisons.
//! - [`lac_traffic`] — open-loop traffic layer: seeded arrival traces,
//!   sojourn-time histograms (p50/p99/p999), SLO-aware serving, and the
//!   dynamic replay door for convergence-driven requests.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the experiment map,
//! and `docs/ARCHITECTURE.md` for the layer diagram (core → chip →
//! service → cluster → traffic) and the paper-concept glossary.

pub use lac_fpu;
pub use lac_kernels;
pub use lac_model;
pub use lac_power;
pub use lac_sim;
pub use lac_traffic;
pub use linalg_ref;

// The continuation subsystem, flattened: the dynamic-graph API spans
// three crates (the request types in `lac_sim::dynamic`, convergence-driven
// clients in `lac_kernels`, the one request driver in `lac_traffic`), so
// the pieces a dynamic client touches are re-exported here together.
pub use lac_kernels::{IpddpFleet, IpddpParams, IppmmParams, IppmmWorkload};
pub use lac_sim::dynamic::{Continuation, Continue, DynamicGraph, DynamicOutcome};
pub use lac_traffic::{
    run_open_loop_dynamic, ArrivalTrace, DynamicCompleted, DynamicOpenLoopReport, OpenLoopConfig,
};
