//! Per-run event log and Chrome-trace export: the observability door of
//! the cluster layer.
//!
//! Every cluster run (and every open-loop round built on top of one)
//! records what happened on the *simulated* clock as a flat
//! [`EventLog`] of [`TraceEvent`]s: job executions (with core placement
//! and discard marks), inter-chip transfers, fault injections, requeues
//! and idle fast-forwards. The log is part of the deterministic result —
//! it is reconstructed purely from the schedule (the wave plan, or the
//! event core's heap order under [`crate::coord::SimMode::Event`]), the
//! per-job busy cycles and the transfer model, never from host timing,
//! so reruns produce bit-identical logs.
//!
//! Under `SimMode::Event`, spans genuinely **overlap**: a transfer's
//! `[start, end)` interval can interleave with job spans on both
//! endpoint chips, and job spans on different cores no longer align to
//! shared wave boundaries. Consumers must not assume spans on one
//! timeline are disjoint; the Chrome-trace export below handles overlap
//! natively (each span is its own `X` event), and the per-component
//! accounting invariant becomes `busy + idle + stall = makespan` per
//! core (property-tested in `tests/event_props.rs`).
//!
//! [`EventLog::to_chrome_trace`] renders the log in Chrome trace-format
//! JSON (the `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//! "JSON array with metadata" flavor): one process lane per chip, one
//! thread lane per core, `X` complete events for job and transfer spans,
//! `i` instant events for faults and requeues. Timestamps map one
//! simulated cycle to one microsecond, the unit the viewers display.
//!
//! Timestamps are relative to the start of the run that produced the
//! log; `lac-traffic`'s open-loop driver shifts each round's log by the
//! round's start clock ([`EventLog::shift`]) before merging, so a whole
//! open-loop replay exports as one timeline on the backend's session
//! clock.

/// One observable event of a cluster run, on the simulated clock.
///
/// All ticks are in simulated cycles, relative to the start of the run
/// that recorded the event (see [`EventLog::shift`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// One job execution on one core: dispatch to completion.
    Job {
        /// Job index in the run's submission order.
        job: usize,
        /// The tenant the job was admitted through (0 for the
        /// single-tenant doors).
        tenant: usize,
        /// Chip that ran the job.
        chip: usize,
        /// Core within the chip.
        core: usize,
        /// Simulated tick the core started the job.
        start: u64,
        /// Simulated tick the job retired.
        end: u64,
        /// True when a fault revoked this execution: the work really ran
        /// (and stays metered — the energy was burned) but its output
        /// was discarded and the job was requeued onto a surviving chip.
        discarded: bool,
    },
    /// One inter-chip payload movement (a cut dependency edge, or a
    /// re-transfer of a completed parent's output to a requeued child).
    Transfer {
        /// The producing job.
        parent: usize,
        /// The consuming job.
        child: usize,
        /// Chip the payload leaves.
        from_chip: usize,
        /// Chip the payload lands on.
        to_chip: usize,
        /// Payload size, words.
        words: u64,
        /// Simulated tick the transfer started.
        start: u64,
        /// Simulated tick the payload is available on `to_chip`.
        end: u64,
    },
    /// A chip died: a scheduled [`crate::fault::FaultPlan`] kill was
    /// applied.
    Fault {
        /// The chip that died.
        chip: usize,
        /// Simulated tick the fault was applied: the scheduled kill tick
        /// in [`crate::SimMode::Event`], the first wave barrier at or
        /// after it in [`crate::SimMode::Wave`] (or the run's start when
        /// the tick was already past).
        tick: u64,
    },
    /// One job reassigned off a dead chip onto a survivor.
    Requeue {
        /// The reassigned job.
        job: usize,
        /// The chip that died.
        from_chip: usize,
        /// The surviving chip now responsible for the job.
        to_chip: usize,
        /// Simulated tick of the reassignment (the fault's tick).
        tick: u64,
    },
    /// The simulated clock fast-forwarded with every core idle — a
    /// transfer stall inside a run, or the open-loop driver skipping to
    /// the next arrival.
    IdleFastForward {
        /// Tick the idle gap started.
        start: u64,
        /// Tick work resumed.
        end: u64,
    },
}

impl TraceEvent {
    /// Add `base` to every timestamp of the event (see
    /// [`EventLog::shift`]).
    fn shifted(self, base: u64) -> TraceEvent {
        match self {
            TraceEvent::Job {
                job,
                tenant,
                chip,
                core,
                start,
                end,
                discarded,
            } => TraceEvent::Job {
                job,
                tenant,
                chip,
                core,
                start: start + base,
                end: end + base,
                discarded,
            },
            TraceEvent::Transfer {
                parent,
                child,
                from_chip,
                to_chip,
                words,
                start,
                end,
            } => TraceEvent::Transfer {
                parent,
                child,
                from_chip,
                to_chip,
                words,
                start: start + base,
                end: end + base,
            },
            TraceEvent::Fault { chip, tick } => TraceEvent::Fault {
                chip,
                tick: tick + base,
            },
            TraceEvent::Requeue {
                job,
                from_chip,
                to_chip,
                tick,
            } => TraceEvent::Requeue {
                job,
                from_chip,
                to_chip,
                tick: tick + base,
            },
            TraceEvent::IdleFastForward { start, end } => TraceEvent::IdleFastForward {
                start: start + base,
                end: end + base,
            },
        }
    }
}

/// The ordered event log of one cluster run (or one merged open-loop
/// replay). Events are recorded in simulated-clock order as the
/// coordinator emits them; the log is a pure function of the schedule,
/// so reruns are bit-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable view for the cluster coordinator: a fault revoking the
    /// in-flight wave flips the wave's already-recorded job events to
    /// `discarded` in place.
    pub(crate) fn events_mut(&mut self) -> &mut [TraceEvent] {
        &mut self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Shift every timestamp by `base` cycles — how the open-loop driver
    /// rebases a round's run-relative log onto the backend's session
    /// clock before merging.
    pub fn shift(&mut self, base: u64) {
        for e in self.events.iter_mut() {
            *e = e.shifted(base);
        }
    }

    /// Append every event of `other` (already shifted, if needed).
    pub fn extend(&mut self, other: EventLog) {
        self.events.extend(other.events);
    }

    /// The run's inter-chip payload movements, in charge order: every
    /// [`TraceEvent::Transfer`], the one record of each (its modeled
    /// cycles are `end − start`).
    pub fn transfer_events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transfer { .. }))
    }

    /// Events matching a predicate — convenience for tests and tools.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Render the log as Chrome trace-format JSON (the object-with-
    /// `traceEvents` flavor), loadable in `chrome://tracing` and
    /// [Perfetto](https://ui.perfetto.dev).
    ///
    /// Mapping: `pid` = chip, `tid` = core (transfers use a per-link
    /// lane `1000 + to_chip`; faults and requeues land on lane 0), `ts`
    /// / `dur` in simulated cycles (displayed as microseconds). Job and
    /// transfer spans are `"ph":"X"` complete events; faults and
    /// requeues are `"ph":"i"` process-scoped instants; idle
    /// fast-forwards are spans on a dedicated `idle` lane of chip 0.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let emit = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for e in &self.events {
            let json = match *e {
                TraceEvent::Job {
                    job,
                    tenant,
                    chip,
                    core,
                    start,
                    end,
                    discarded,
                } => format!(
                    "{{\"name\":\"job {job}{}\",\"cat\":\"job\",\"ph\":\"X\",\
                     \"ts\":{start},\"dur\":{},\"pid\":{chip},\"tid\":{core},\
                     \"args\":{{\"job\":{job},\"tenant\":{tenant},\"discarded\":{discarded}}}}}",
                    if discarded { " (discarded)" } else { "" },
                    end - start,
                ),
                TraceEvent::Transfer {
                    parent,
                    child,
                    from_chip,
                    to_chip,
                    words,
                    start,
                    end,
                } => format!(
                    "{{\"name\":\"transfer {parent}->{child}\",\"cat\":\"transfer\",\
                     \"ph\":\"X\",\"ts\":{start},\"dur\":{},\"pid\":{from_chip},\
                     \"tid\":{},\"args\":{{\"parent\":{parent},\"child\":{child},\
                     \"to_chip\":{to_chip},\"words\":{words}}}}}",
                    end - start,
                    1000 + to_chip,
                ),
                TraceEvent::Fault { chip, tick } => format!(
                    "{{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{tick},\"pid\":{chip},\"tid\":0,\
                     \"args\":{{\"chip\":{chip}}}}}"
                ),
                TraceEvent::Requeue {
                    job,
                    from_chip,
                    to_chip,
                    tick,
                } => format!(
                    "{{\"name\":\"requeue job {job}\",\"cat\":\"requeue\",\"ph\":\"i\",\
                     \"s\":\"p\",\"ts\":{tick},\"pid\":{to_chip},\"tid\":0,\
                     \"args\":{{\"job\":{job},\"from_chip\":{from_chip}}}}}"
                ),
                TraceEvent::IdleFastForward { start, end } => format!(
                    "{{\"name\":\"idle\",\"cat\":\"idle\",\"ph\":\"X\",\
                     \"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":999}}",
                    end - start,
                ),
            };
            emit(json, &mut out, &mut first);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_moves_every_timestamp() {
        let mut log = EventLog::new();
        log.push(TraceEvent::Job {
            job: 0,
            tenant: 0,
            chip: 1,
            core: 0,
            start: 5,
            end: 9,
            discarded: false,
        });
        log.push(TraceEvent::Fault { chip: 1, tick: 9 });
        log.push(TraceEvent::IdleFastForward { start: 9, end: 20 });
        log.shift(100);
        match log.events()[0] {
            TraceEvent::Job { start, end, .. } => {
                assert_eq!((start, end), (105, 109));
            }
            _ => panic!("wrong event"),
        }
        match log.events()[1] {
            TraceEvent::Fault { tick, .. } => assert_eq!(tick, 109),
            _ => panic!("wrong event"),
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_enough() {
        let mut log = EventLog::new();
        log.push(TraceEvent::Transfer {
            parent: 1,
            child: 2,
            from_chip: 0,
            to_chip: 1,
            words: 8,
            start: 10,
            end: 212,
        });
        log.push(TraceEvent::Requeue {
            job: 2,
            from_chip: 1,
            to_chip: 0,
            tick: 300,
        });
        let json = log.to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with("]}"));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\":\"transfer\""));
        assert!(json.contains("\"cat\":\"requeue\""));
        // Balanced braces — the cheap structural check; the real parse
        // check runs through lac-bench's Json::parse in tests/fault_props.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
