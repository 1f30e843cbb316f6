//! Host-time tracing from outside the program: spans recorded around the
//! calls the benchmark makes into each layer, kept in memory, attributed
//! to layers after the run, and written out at exit.
//!
//! Spans nest on the benchmark's own thread (op → driver → round → …);
//! job spans come from the worker threads and take as parent whatever
//! round span is open on the benchmark thread when they start. A span's
//! *self* time is its duration minus the union of its children's
//! coverage, so two workers' overlapping jobs are counted once.

use lac_sim::dynamic::{Continuation, Continue, DynamicGraph};
use lac_sim::{ChipJob, GraphTicket, JobGraph, LacEngine, Rejected, Scheduler, SimError, TenantId};
use lac_traffic::{OpenLoopBackend, RoundOutcome};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed operation of the benchmark loop (the root of every tree).
pub const OP: &str = "op";
/// Building a request or fleet (`lac-kernels` builders).
pub const BUILD: &str = "kernels.build";
/// One `ChipJob::run_on` on a worker thread.
pub const JOB: &str = "kernels.job";
/// One coordinator call: `run_graph`, `run_admitted`, `run_boosted`.
pub const ROUND: &str = "sim.coord";
/// `advance_idle`: the open-loop driver's clock hop.
pub const IDLE: &str = "sim.coord.idle";
/// One `enqueue` through a tenant's admission door.
pub const ADMIT: &str = "sim.admission";
/// One `Continuation::next` call.
pub const CONT: &str = "sim.dynamic";
/// One `run_open_loop_dynamic` call.
pub const DRIVER: &str = "traffic.driver";

/// No request: spans of the backend itself.
pub const NO_REQ: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Request the span served ([`NO_REQ`] when none).
    pub req: u64,
    /// Small dense id of the recording thread.
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    /// Span-specific payload: engine cycles for a job, 1 for a rejected
    /// enqueue, 1 for a continuation that appended a segment.
    pub val: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span store shared by the benchmark thread and the workers.
/// While off, every hook is one relaxed load.
pub struct Recorder {
    base: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    /// The innermost span open on the benchmark thread (job parent).
    top: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            base: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            top: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Open a span on the benchmark thread; it closes when the guard
    /// drops. Spans opened this way must nest (they do: one thread).
    pub fn enter(self: &Arc<Self>, name: &'static str, req: u64) -> Guard {
        if !self.is_on() {
            return Guard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.top.swap(id, Ordering::Relaxed);
        Guard(Some(Open {
            rec: Arc::clone(self),
            span: Span {
                id,
                parent,
                name,
                req,
                thread: THREAD.with(|t| *t),
                start: self.now(),
                end: 0,
                val: 0,
            },
        }))
    }

    /// Every span recorded so far, in close order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Write spans as tab-separated lines (with a header).
    pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tthread\tstart_ns\tend_ns\tval")?;
        for s in spans {
            let req = if s.req == NO_REQ { -1 } else { s.req as i64 };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, req, s.thread, s.start, s.end, s.val
            )?;
        }
        out.flush()
    }
}

struct Open {
    rec: Arc<Recorder>,
    span: Span,
}

/// An open benchmark-thread span (a no-op while recording is off).
pub struct Guard(Option<Open>);

impl Guard {
    /// Attach the span's payload (see [`Span::val`]).
    pub fn set_val(&mut self, val: u64) {
        if let Some(open) = &mut self.0 {
            open.span.val = val;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut open) = self.0.take() {
            open.span.end = open.rec.now();
            open.rec.top.store(open.span.parent, Ordering::Relaxed);
            open.rec.push(open.span);
        }
    }
}

/// A `ChipJob` that records one span per `run_on`, with the worker's
/// thread id and the engine's session-cycle delta.
pub struct Traced<J> {
    job: J,
    rec: Arc<Recorder>,
    req: u64,
}

impl<J> Traced<J> {
    pub fn new(job: J, rec: &Arc<Recorder>, req: u64) -> Self {
        Self {
            job,
            rec: Arc::clone(rec),
            req,
        }
    }
}

impl<J: ChipJob> ChipJob for Traced<J> {
    type Output = J::Output;

    fn cost_hint(&self) -> u64 {
        self.job.cost_hint()
    }

    fn transfer_words(&self) -> u64 {
        self.job.transfer_words()
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<J::Output, SimError> {
        if !self.rec.is_on() {
            return self.job.run_on(eng);
        }
        let parent = self.rec.top.load(Ordering::Relaxed);
        let cycles = eng.session_stats().cycles;
        let start = self.rec.now();
        let out = self.job.run_on(eng);
        let end = self.rec.now();
        self.rec.push(Span {
            id: self.rec.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: JOB,
            req: self.req,
            thread: THREAD.with(|t| *t),
            start,
            end,
            val: eng.session_stats().cycles - cycles,
        });
        out
    }
}

/// Wrap every job of a graph.
pub fn traced_graph<J: ChipJob>(
    g: JobGraph<J>,
    rec: &Arc<Recorder>,
    req: u64,
) -> JobGraph<Traced<J>> {
    g.map(|j| Traced::new(j, rec, req))
}

/// A continuation that records one span per `next` call.
struct TimedCont<J: ChipJob> {
    inner: Box<dyn Continuation<J>>,
    rec: Arc<Recorder>,
    req: u64,
}

impl<J: ChipJob> Continuation<J> for TimedCont<J> {
    fn next(&mut self, segment: usize, outputs: &[J::Output]) -> Continue<J> {
        let mut span = self.rec.enter(CONT, self.req);
        let decision = self.inner.next(segment, outputs);
        span.set_val(matches!(decision, Continue::Append(_)) as u64);
        decision
    }
}

/// Re-type a dynamic request onto traced jobs and time its continuation:
/// taken apart with `into_parts`, rebuilt with `DynamicGraph::new`.
pub fn traced_dynamic<J: ChipJob + 'static>(
    g: DynamicGraph<J>,
    rec: &Arc<Recorder>,
    req: u64,
) -> DynamicGraph<Traced<J>> {
    let jobs_rec = Arc::clone(rec);
    let (initial, inner) = g
        .map_job(move |j| Traced::new(j, &jobs_rec, req))
        .into_parts();
    DynamicGraph::new(
        initial,
        TimedCont {
            inner,
            rec: Arc::clone(rec),
            req,
        },
    )
}

/// An `OpenLoopBackend` with spans around `enqueue`, `run_boosted` and
/// `advance_idle`. It also counts the waves of every round it serves.
pub struct TracedBackend<B> {
    pub inner: B,
    rec: Arc<Recorder>,
    pub waves: u64,
}

impl<B> TracedBackend<B> {
    pub fn new(inner: B, rec: &Arc<Recorder>) -> Self {
        Self {
            inner,
            rec: Arc::clone(rec),
            waves: 0,
        }
    }
}

impl<J: ChipJob, B: OpenLoopBackend<J>> OpenLoopBackend<J> for TracedBackend<B> {
    fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>> {
        let mut span = self.rec.enter(ADMIT, NO_REQ);
        let r = self.inner.enqueue(t, graph);
        span.set_val(r.is_err() as u64);
        r
    }

    fn run_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundOutcome<J::Output>, SimError> {
        let _span = self.rec.enter(ROUND, NO_REQ);
        let out = self.inner.run_boosted(sched, boost)?;
        self.waves += out.wave_end_cycles.len() as u64;
        Ok(out)
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }

    fn advance_idle(&mut self, cycles: u64) {
        let _span = self.rec.enter(IDLE, NO_REQ);
        self.inner.advance_idle(cycles);
    }

    fn deadline_of(&self, t: TenantId) -> Option<u64> {
        self.inner.deadline_of(t)
    }

    fn num_tenants(&self) -> usize {
        self.inner.num_tenants()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Host time attributed to layers. Every instant of a root span goes to
/// exactly one place: the root itself (benchmark glue) or the layer of
/// the deepest span covering it, where overlapping siblings of one layer
/// (two workers' jobs) count once.
#[derive(Debug, Default, PartialEq)]
pub struct Attribution {
    /// Summed root-span duration, ns.
    pub host_ns: u64,
    /// Root-span time no child covers, ns.
    pub root_self_ns: u64,
    /// Wall share per span name, ns.
    pub share_ns: BTreeMap<&'static str, u64>,
    /// Self time (duration minus children's union) per span id, ns.
    pub self_ns: HashMap<u64, u64>,
}

impl Attribution {
    pub fn share_s(&self, name: &str) -> f64 {
        self.share_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let covered = |s: &Span| -> u64 {
        let mut iv: Vec<(u64, u64)> = children.get(&s.id).map_or(Vec::new(), |cs| {
            cs.iter().map(|c| (c.start, c.end)).collect()
        });
        union_len(&mut iv, s.start, s.end)
    };
    let mut a = Attribution::default();
    for s in spans {
        let c = covered(s);
        a.self_ns.insert(s.id, s.dur() - c.min(s.dur()));
    }
    for s in spans {
        let is_root = s.parent == 0 || !by_id.contains_key(&s.parent);
        if is_root {
            a.host_ns += s.dur();
            a.root_self_ns += a.self_ns[&s.id];
        }
        let Some(cs) = children.get(&s.id) else {
            continue;
        };
        let mut groups: BTreeMap<&'static str, Vec<&Span>> = BTreeMap::new();
        for c in cs {
            groups.entry(c.name).or_default().push(c);
        }
        for (name, group) in groups {
            let mut iv: Vec<(u64, u64)> = group.iter().map(|c| (c.start, c.end)).collect();
            let union = union_len(&mut iv, s.start, s.end);
            let below: u64 = group.iter().map(|c| c.dur() - a.self_ns[&c.id]).sum();
            *a.share_ns.entry(name).or_default() += union.saturating_sub(below);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, thread: u32) -> Span {
        Span {
            id,
            parent,
            name,
            req: NO_REQ,
            thread,
            start,
            end,
            val: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(30, 70), (10, 50), (80, 90), (95, 200)];
        assert_eq!(union_len(&mut iv, 0, 100), 60 + 10 + 5);
        assert_eq!(union_len(&mut [], 0, 100), 0);
    }

    #[test]
    fn overlapping_jobs_from_two_workers_count_once() {
        // A 100 ns round; worker 1 runs [10, 50), worker 2 runs [30, 70)
        // and [60, 65). Jobs cover 60 ns of the round, the coordinator
        // the other 40.
        let spans = [
            span(2, 1, JOB, 10, 50, 1),
            span(3, 1, JOB, 30, 70, 2),
            span(4, 1, JOB, 60, 65, 2),
            span(1, 9, ROUND, 0, 100, 0),
            span(9, 0, OP, 0, 110, 0),
        ];
        let a = attribute(&spans);
        assert_eq!(a.self_ns[&1], 40, "round minus the jobs' union");
        assert_eq!(a.share_ns[JOB], 60);
        assert_eq!(a.share_ns[ROUND], 40);
        assert_eq!(a.host_ns, 110);
        assert_eq!(a.root_self_ns, 10);
        // The shares and the root's own time add up to the host time.
        let total: u64 = a.share_ns.values().sum::<u64>() + a.root_self_ns;
        assert_eq!(total, a.host_ns);
    }

    #[test]
    fn nested_self_times_partition_the_root() {
        // op [0,1000): build [0,100), driver [100,900) holding an enqueue
        // [100,150), a round [150,800) with one job [200,700), and a
        // continuation [800,850).
        let spans = [
            span(1, 0, OP, 0, 1000, 0),
            span(2, 1, BUILD, 0, 100, 0),
            span(3, 1, DRIVER, 100, 900, 0),
            span(4, 3, ADMIT, 100, 150, 0),
            span(5, 3, ROUND, 150, 800, 0),
            span(6, 5, JOB, 200, 700, 1),
            span(7, 3, CONT, 800, 850, 0),
        ];
        let a = attribute(&spans);
        assert_eq!(a.share_ns[DRIVER], 50);
        assert_eq!(a.share_ns[ROUND], 150);
        assert_eq!(a.share_ns[JOB], 500);
        assert_eq!(a.share_ns[BUILD], 100);
        assert_eq!(a.root_self_ns, 100);
        let total: u64 = a.share_ns.values().sum::<u64>() + a.root_self_ns;
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_nests_guards_and_parents_jobs_on_the_open_round() {
        let rec = Recorder::new();
        rec.set_on(true);
        {
            let _op = rec.enter(OP, 0);
            let _round = rec.enter(ROUND, 0);
        }
        {
            let _off = {
                rec.set_on(false);
                rec.enter(OP, 1)
            };
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 2, "nothing recorded while off");
        let (round, op) = (spans[0], spans[1]);
        assert_eq!((round.name, op.name), (ROUND, OP));
        assert_eq!(round.parent, op.id);
        assert_eq!(op.parent, 0);
        assert_eq!(rec.top.load(Ordering::Relaxed), 0, "stack unwound");
    }
}
