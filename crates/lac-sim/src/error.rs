//! Simulator errors: every structural or data hazard is reported with the
//! cycle it occurred in and the PE involved.

use std::fmt;

/// A hard simulation error (mis-scheduled microprogram or bad config).
#[derive(Clone, Debug, PartialEq)]
pub struct SimError {
    /// Simulated cycle (program step index) the violation occurred in.
    pub cycle: usize,
    /// The PE involved, as `(row, col)`, when one can be named.
    pub pe: Option<(usize, usize)>,
    /// What was violated.
    pub kind: HazardKind,
}

/// The kinds of violations the simulator enforces.
#[derive(Clone, Debug, PartialEq)]
pub enum HazardKind {
    /// Two writers drove the same row bus.
    RowBusConflict {
        /// Row index of the contested bus.
        row: usize,
    },
    /// Two writers (PE or external) drove the same column bus.
    ColBusConflict {
        /// Column index of the contested bus.
        col: usize,
    },
    /// A bus was read but nobody drove it this cycle.
    BusUndriven {
        /// True for a row bus, false for a column bus.
        row_bus: bool,
        /// Index of the undriven bus.
        index: usize,
    },
    /// Single-ported A memory saw more than one access.
    SramAPortConflict,
    /// Dual-ported B memory saw more than two accesses.
    SramBPortConflict,
    /// SRAM address out of configured range.
    SramOutOfRange {
        /// Which memory: `'A'` or `'B'`.
        which: char,
        /// The offending address.
        addr: usize,
        /// The configured memory size, words.
        size: usize,
    },
    /// Register index out of range.
    RegOutOfRange {
        /// The offending register index.
        idx: usize,
        /// The configured register-file size.
        size: usize,
    },
    /// Accumulator read or loaded while MACs are still in flight.
    AccHazard,
    /// MAC issued while the software divide/sqrt occupies it.
    MacBusyWithSfu,
    /// MAC double issue (mac + fma in one cycle).
    MacIssueConflict,
    /// MacResult read before any FMA retired.
    MacResultEmpty,
    /// SFU issued while busy.
    SfuBusy,
    /// SfuResult read before any SFU op retired.
    SfuResultEmpty,
    /// SFU used on a PE that has none under this divide/sqrt option.
    SfuNotPresent,
    /// External transfer count exceeded the configured words/cycle.
    ExtBandwidthExceeded {
        /// Words the step tried to move this cycle.
        used: usize,
        /// The configured words/cycle cap.
        limit: usize,
    },
    /// External address out of range.
    ExtOutOfRange {
        /// The offending address.
        addr: usize,
        /// The external memory size, words.
        size: usize,
    },
    /// An external store targeted a column bus nobody drove.
    ExtStoreUndriven {
        /// Column index of the undriven bus.
        col: usize,
    },
    /// Bus-to-bus forwarding in a single cycle is not implementable.
    BusToBusSameCycle,
    /// A fault plan killed every chip in the cluster: no survivor is
    /// left to requeue in-flight work onto (see
    /// `lac_sim::FaultPlan`). `cycle` carries the session-clock tick the
    /// last chip died at.
    AllChipsDead {
        /// Total chips in the cluster — all of them dead.
        chips: usize,
    },
    /// A host worker thread hung up before reporting a dispatched job,
    /// so the run cannot account for it. A host failure, not a schedule
    /// violation: `cycle` is 0 and no PE is named.
    WorkerLost,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.cycle)?;
        if let Some((r, c)) = self.pe {
            write!(f, ", PE ({r},{c})")?;
        }
        write!(f, ": {:?}", self.kind)
    }
}

impl std::error::Error for SimError {}
