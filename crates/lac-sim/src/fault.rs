//! Deterministic fault injection for the cluster layer: scheduled chip
//! kills, applied by the cluster coordinator like any other event.
//!
//! A [`FaultPlan`] is a set of "kill chip *k* at tick *t*" events on the
//! cluster's **session clock** (the same absolute clock
//! [`crate::cluster::ClusterSession::clock_cycles`] meters and the
//! open-loop traffic layer schedules arrivals on). Both time models put
//! every kill on the coordinator's one event heap (faults order before
//! transfer arrivals and job completions on the same tick, so the
//! revocation set stays conservative). Under
//! [`crate::coord::SimMode::Event`] a kill fires at its **exact** tick.
//! Under the default wave mode the clock only moves at wave barriers and
//! idle fast-forwards, so a kill due inside a wave fires at that wave's
//! barrier, before the wave is released, and a kill inside an idle gap
//! fires at its own tick. Either way fault handling is exactly as
//! deterministic as the rest of the stack: the same plan against the
//! same workload produces bit-identical runs, requeues and event logs.
//!
//! What a kill means (the fault model, property-tested in
//! `tests/fault_props.rs`):
//!
//! * the chip is marked dead for the rest of the cluster's life — no
//!   future wave plans on it, across rounds;
//! * the dying chip's **unreleased work** — jobs in flight on it (event
//!   mode), or its share of the wave the kill tick fell into (wave mode)
//!   — is *discarded*: outputs are revoked and children are not
//!   released, but the simulated work stays metered in the
//!   per-core and per-tenant busy stats (the energy really was burned —
//!   which is what keeps energy attribution conserved under failure);
//! * every uncompleted job placed on the dead chip is **requeued** onto
//!   the surviving chips (least-loaded-first over the cost hints of
//!   unfinished jobs, ties to the lower chip index, jobs in id order);
//! * outputs of jobs *released before the kill* are durable — the
//!   coordinator collects results as jobs retire (a cluster-level
//!   results store), so released work is never re-run. A requeued job
//!   whose released parent sits on a different chip pays one fresh
//!   modeled transfer to move that parent's output to its new home;
//! * the dead chip keeps burning static power for the rest of the run
//!   (its `makespan_cycles` stays the cluster makespan) — the
//!   conservative choice for energy accounting.
//!
//! Jobs must therefore be **re-runnable**: executing a
//! [`crate::chip::ChipJob`] twice (the discarded attempt plus the
//! requeued one) must produce the same output bits as executing it once.
//! Jobs without shared state satisfy that — outputs are
//! placement-independent by the determinism contract — and so do jobs
//! whose shared state is single-assignment: no job updates in place
//! what it, or a rerun of it, reads, and a slot is overwritten only once
//! every job reading it has been released (the `lac-kernels` solver
//! loop, IP-PMM and IPDDP clients). For them the headline property
//! holds: *any single-chip loss changes the makespan but never the
//! output bits.*
//!
//! Killing every chip of a cluster is an error
//! ([`crate::error::HazardKind::AllChipsDead`]): there is no survivor to
//! requeue onto.

/// One scheduled chip kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Session-clock tick (absolute simulated cycles since cluster
    /// construction) at which the chip dies. Wave mode applies the kill at
    /// the first wave barrier at or after this tick, event mode at it.
    pub tick: u64,
    /// The chip to kill.
    pub chip: usize,
}

/// A deterministic fault-injection schedule: chip kills on the cluster
/// session clock, applied by the coordinator as events on its heap.
///
/// Install a plan with [`crate::cluster::LacCluster::inject_faults`] (or
/// the [`crate::cluster::LacCluster::with_fault_plan`] builder). Kills
/// whose tick is already in the past fire when the next run starts; a
/// kill on an already-dead chip is a no-op.
///
/// ```
/// use lac_sim::FaultPlan;
///
/// let plan = FaultPlan::new().kill(1, 5_000).kill(0, 20_000);
/// assert_eq!(plan.kills().len(), 2);
/// assert_eq!(plan.kills()[0].chip, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kills: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule chip `chip` to die at session-clock tick `tick`.
    /// Builder-style; kills are kept sorted by `(tick, chip)` so
    /// application order is deterministic regardless of insertion order.
    pub fn kill(mut self, chip: usize, tick: u64) -> Self {
        self.kills.push(FaultEvent { tick, chip });
        self.kills.sort_unstable();
        self
    }

    /// The scheduled kills, sorted by `(tick, chip)`.
    pub fn kills(&self) -> &[FaultEvent] {
        &self.kills
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// Merge another plan's kills into this one (used by
    /// [`crate::cluster::LacCluster::inject_faults`] so repeated
    /// injections accumulate).
    pub fn merge(&mut self, other: FaultPlan) {
        self.kills.extend(other.kills);
        self.kills.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_sort_by_tick_then_chip() {
        let plan = FaultPlan::new().kill(3, 500).kill(1, 100).kill(0, 500);
        let order: Vec<(u64, usize)> = plan.kills().iter().map(|k| (k.tick, k.chip)).collect();
        assert_eq!(order, vec![(100, 1), (500, 0), (500, 3)]);
    }

    #[test]
    fn merge_accumulates_and_resorts() {
        let mut a = FaultPlan::new().kill(2, 900);
        a.merge(FaultPlan::new().kill(1, 10));
        assert_eq!(a.kills()[0], FaultEvent { tick: 10, chip: 1 });
        assert_eq!(a.kills().len(), 2);
        assert!(!a.is_empty());
    }
}
