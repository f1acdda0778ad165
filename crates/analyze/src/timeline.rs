//! Per-rank timelines: the one span model blame and the critical path
//! share.
//!
//! A rank's event stream becomes categorized virtual-time spans once
//! ([`spans_for_rank`]):
//! * `TaskExecBegin`/`TaskExecEnd` pairs → [`Category::Exec`] spans;
//! * `StealAttempt { dur_ns }` → [`Category::Steal`] spans ending at the
//!   event stamp (events are stamped at completion);
//! * `LockWait { dur_ns }` → [`Category::Lock`];
//! * `BarrierWait { dur_ns }` → [`Category::Barrier`];
//! * `TdProgress { dur_ns }` → [`Category::Td`].
//!
//! Each span remembers the event that closed it ([`Span::event`]), so the
//! critical-path walk reads its steal, lock or barrier edge from there.
//!
//! Spans on one rank nest like the call stack that emitted them (a lock
//! wait inside a steal sits inside the steal's span). Every instant is
//! charged to the *innermost* span covering it, by one rule: the
//! covering span with the latest start wins; on equal starts the shorter
//! span wins (a lock wait that starts with its steal attempt is inside
//! it); after that, the span emitted last wins. `SpanIndex` applies the
//! rule once per rank, to every elementary interval between consecutive
//! distinct span boundaries: [`crate::blame`] sums those intervals by
//! category, and [`crate::critpath`] looks its steps up in them. Time
//! covered by no span is idle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scioto_sim::{StampedEvent, TraceEvent};

use crate::blame::{self, Blame};

/// Blame category of a span (or of uncovered time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Task callback execution.
    Exec,
    /// Steal attempts (successful or not): victim lock, index read,
    /// transfer, unlock.
    Steal,
    /// Mutex queue wait plus acquire round trip.
    Lock,
    /// Termination-detection polling.
    Td,
    /// Barrier arrival-to-release.
    Barrier,
    /// Time covered by no span.
    Idle,
}

/// All categories in reporting order.
pub const CATEGORIES: [Category; 6] = [
    Category::Exec,
    Category::Steal,
    Category::Lock,
    Category::Td,
    Category::Barrier,
    Category::Idle,
];

impl Category {
    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Category::Exec => "exec",
            Category::Steal => "steal",
            Category::Lock => "lock",
            Category::Td => "td",
            Category::Barrier => "barrier",
            Category::Idle => "idle",
        }
    }

    /// Index into [`CATEGORIES`]-ordered arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One categorized virtual-time span on a single rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Blame category.
    pub cat: Category,
    /// Index, in the rank's event stream, of the event that closed the
    /// span: its `TaskExecEnd` or its duration-stamped event. An exec
    /// still open at stream end keeps its `TaskExecBegin`.
    pub event: u32,
    /// Span start, virtual ns.
    pub start: u64,
    /// Span end (exclusive), virtual ns; `end >= start`.
    pub end: u64,
}

impl Span {
    /// Span length in virtual ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the span covers no time.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Extract the categorized spans of one rank's event stream, in event
/// order. Unmatched `TaskExecBegin`s (a truncated ring, or a trace cut
/// mid-task) are closed at the rank's last event stamp; unmatched
/// `TaskExecEnd`s are ignored. Duration-stamped spans whose length
/// exceeds their completion stamp are clipped at 0.
pub fn spans_for_rank(events: &[StampedEvent]) -> Vec<Span> {
    extract(events).0
}

/// The spans of [`spans_for_rank`], and the time covered by at least one
/// exec span. Exec spans pair last-in first-out, so they nest, and each
/// outermost one adds its length as it closes.
fn extract(events: &[StampedEvent]) -> (Vec<Span>, u64) {
    let last_t = events.last().map_or(0, |e| e.t_ns);
    let mut spans = Vec::new();
    let mut open_execs: Vec<(u64, u32)> = Vec::new();
    let mut exec_ns = 0;
    for (i, e) in events.iter().enumerate() {
        let event = i as u32;
        let (cat, dur_ns) = match e.event {
            TraceEvent::TaskExecBegin { .. } => {
                open_execs.push((e.t_ns, event));
                continue;
            }
            TraceEvent::TaskExecEnd { .. } => {
                if let Some((start, _)) = open_execs.pop() {
                    let span = Span { cat: Category::Exec, event, start, end: e.t_ns.max(start) };
                    if open_execs.is_empty() {
                        exec_ns += span.len();
                    }
                    spans.push(span);
                }
                continue;
            }
            TraceEvent::StealAttempt { dur_ns, .. } => (Category::Steal, dur_ns),
            TraceEvent::LockWait { dur_ns, .. } => (Category::Lock, dur_ns),
            TraceEvent::BarrierWait { dur_ns, .. } => (Category::Barrier, dur_ns),
            TraceEvent::TdProgress { dur_ns } => (Category::Td, dur_ns),
            _ => continue,
        };
        spans.push(Span { cat, event, start: e.t_ns.saturating_sub(dur_ns), end: e.t_ns });
    }
    if let Some(&(start, _)) = open_execs.first() {
        exec_ns += last_t.max(start) - start;
    }
    for (start, event) in open_execs {
        spans.push(Span { cat: Category::Exec, event, start, end: last_t.max(start) });
    }
    (spans, exec_ns)
}

/// How one rank's spans answer the walk's two questions about an
/// instant `t`.
pub(crate) trait Lookup {
    fn build(spans: &[Span]) -> Self;
    /// Index into `spans` of the innermost span covering the instant just
    /// before `t` (`start < t <= end`), by the module's rule.
    fn covering(&self, spans: &[Span], t: u64) -> Option<usize>;
    /// The latest span end strictly before `t`, or 0.
    fn prev_end(&self, spans: &[Span], t: u64) -> u64;
}

/// One rank's spans indexed once: each step of the walk is a binary
/// search, and blame is one pass over the elementary intervals.
pub(crate) struct SpanIndex {
    /// Every span end, ascending.
    ends: Vec<u64>,
    /// Every distinct span start and end, ascending. Across an
    /// elementary interval `bounds[i] < t <= bounds[i + 1]` the set of
    /// spans covering the instant before `t` does not change.
    bounds: Vec<u64>,
    /// Per elementary interval, the innermost covering span, or
    /// [`SpanIndex::NONE`].
    innermost: Vec<u32>,
}

impl SpanIndex {
    const NONE: u32 = u32::MAX;

    /// Every elementary interval `(lo, hi]` with its innermost span.
    pub(crate) fn intervals(&self) -> impl Iterator<Item = (u64, u64, Option<usize>)> + '_ {
        self.bounds
            .windows(2)
            .zip(&self.innermost)
            .map(|(b, &i)| (b[0], b[1], (i != Self::NONE).then_some(i as usize)))
    }
}

impl Lookup for SpanIndex {
    /// One sweep over the elementary intervals with a max-heap of the
    /// spans opened so far, keyed on the rule: (start, shorter, emitted
    /// later). A span that ended is dropped when it reaches the top.
    /// O(spans · log spans).
    fn build(spans: &[Span]) -> Self {
        // Spans are pushed at their end event, so every key below is
        // nearly sorted already: the run-adaptive stable sort is linear
        // on most of it.
        let mut ends: Vec<u64> = spans.iter().map(|s| s.end).collect();
        ends.sort();
        let mut bounds: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
        bounds.sort();
        bounds.dedup();
        let mut by_start: Vec<(u64, u32)> =
            spans.iter().enumerate().map(|(i, s)| (s.start, i as u32)).collect();
        by_start.sort();
        let mut by_start = by_start.into_iter().peekable();
        let mut open: BinaryHeap<(u64, Reverse<u64>, u32)> = BinaryHeap::new();
        let innermost = bounds
            .windows(2)
            .map(|b| {
                while let Some((start, i)) = by_start.next_if(|&(start, _)| start <= b[0]) {
                    open.push((start, Reverse(spans[i as usize].end), i));
                }
                while open.peek().is_some_and(|&(_, Reverse(end), _)| end < b[1]) {
                    open.pop();
                }
                open.peek().map_or(Self::NONE, |&(.., i)| i)
            })
            .collect();
        SpanIndex { ends, bounds, innermost }
    }

    fn covering(&self, _: &[Span], t: u64) -> Option<usize> {
        // `bounds[i - 1] < t <= bounds[i]` names elementary interval i - 1.
        let i = self.bounds.partition_point(|&b| b < t);
        let span = *self.innermost.get(i.checked_sub(1)?)?;
        (span != Self::NONE).then_some(span as usize)
    }

    fn prev_end(&self, _: &[Span], t: u64) -> u64 {
        let i = self.ends.partition_point(|&e| e < t);
        i.checked_sub(1).map_or(0, |i| self.ends[i])
    }
}

/// One rank's spans, extracted and indexed once: what blame and the
/// critical-path walk both read.
pub(crate) struct Timeline<L = SpanIndex> {
    pub(crate) spans: Vec<Span>,
    /// Time covered by at least one exec span: the rank's share of the
    /// critical path's T1.
    pub(crate) exec_ns: u64,
    index: L,
}

impl<L: Lookup> Timeline<L> {
    pub(crate) fn new(events: &[StampedEvent]) -> Self {
        let (spans, exec_ns) = extract(events);
        let index = L::build(&spans);
        Timeline { spans, exec_ns, index }
    }

    /// See [`Lookup::covering`].
    pub(crate) fn covering(&self, t: u64) -> Option<usize> {
        self.index.covering(&self.spans, t)
    }

    /// See [`Lookup::prev_end`].
    pub(crate) fn prev_end(&self, t: u64) -> u64 {
        self.index.prev_end(&self.spans, t)
    }
}

impl Timeline {
    /// The rank's blame over `elapsed` virtual ns.
    pub(crate) fn blame(&self, elapsed: u64) -> Blame {
        blame::sum_intervals(&self.spans, &self.index, elapsed)
    }
}

/// The module's rule as a scan of every span at every query: the oracle
/// the index is compared against.
#[cfg(test)]
pub(crate) struct LinearScan;

#[cfg(test)]
impl Lookup for LinearScan {
    fn build(_: &[Span]) -> Self {
        LinearScan
    }

    fn covering(&self, spans: &[Span], t: u64) -> Option<usize> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start < t && s.end >= t)
            .max_by_key(|&(i, s)| (s.start, Reverse(s.end), i))
            .map(|(i, _)| i)
    }

    fn prev_end(&self, spans: &[Span], t: u64) -> u64 {
        spans.iter().map(|s| s.end.min(t)).filter(|&e| e < t).max().unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use scioto::VictimPolicy;
    use scioto_sim::{Machine, MachineConfig, Trace, TraceConfig};
    use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
    use scioto_uts::TreeParams;

    /// A traced Scioto UTS run of `tree` on `cfg`, stealing by `victim`.
    pub(crate) fn uts_recording(cfg: MachineConfig, tree: TreeParams, victim: VictimPolicy) -> Trace {
        let mut uts = SciotoUtsConfig::new(tree);
        uts.tc = uts.tc.with_victim(victim);
        let cfg = cfg.with_trace(TraceConfig::enabled().with_capacity(1 << 22));
        let run = Machine::run(cfg, move |ctx| run_scioto_uts(ctx, &uts).0);
        run.report.trace.expect("tracing was enabled")
    }

    fn ev(t_ns: u64, event: TraceEvent) -> StampedEvent {
        StampedEvent { t_ns, event }
    }

    #[test]
    fn spans_cover_all_duration_sources() {
        let events = vec![
            ev(10, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
            ev(40, TraceEvent::TaskExecEnd { callback: 0 }),
            ev(70, TraceEvent::StealAttempt { victim: 1, got: 0, dur_ns: 20 }),
            ev(90, TraceEvent::LockWait { target: 1, dur_ns: 5 }),
            ev(100, TraceEvent::BarrierWait { dur_ns: 3, epoch: 0 }),
            ev(120, TraceEvent::TdProgress { dur_ns: 8 }),
            ev(120, TraceEvent::Block),
        ];
        let spans = spans_for_rank(&events);
        assert_eq!(
            spans,
            vec![
                Span { cat: Category::Exec, event: 1, start: 10, end: 40 },
                Span { cat: Category::Steal, event: 2, start: 50, end: 70 },
                Span { cat: Category::Lock, event: 3, start: 85, end: 90 },
                Span { cat: Category::Barrier, event: 4, start: 97, end: 100 },
                Span { cat: Category::Td, event: 5, start: 112, end: 120 },
            ]
        );
    }

    #[test]
    fn unmatched_begin_closes_at_last_event() {
        let events = vec![
            ev(10, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
            ev(30, TraceEvent::QueueDepth { local: 1, shared: 0 }),
        ];
        let spans = spans_for_rank(&events);
        assert_eq!(spans, vec![Span { cat: Category::Exec, event: 0, start: 10, end: 30 }]);
    }

    #[test]
    fn unmatched_end_is_ignored_and_oversized_dur_clips_at_zero() {
        let events = vec![
            ev(5, TraceEvent::TaskExecEnd { callback: 0 }),
            ev(7, TraceEvent::TdProgress { dur_ns: 100 }),
        ];
        let spans = spans_for_rank(&events);
        assert_eq!(spans, vec![Span { cat: Category::Td, event: 1, start: 0, end: 7 }]);
    }

    #[test]
    fn nested_execs_pair_innermost_first() {
        let events = vec![
            ev(0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
            ev(10, TraceEvent::TaskExecBegin { callback: 1, creator: 0 }),
            ev(20, TraceEvent::TaskExecEnd { callback: 1 }),
            ev(30, TraceEvent::TaskExecEnd { callback: 0 }),
        ];
        let spans = spans_for_rank(&events);
        assert_eq!(
            spans,
            vec![
                Span { cat: Category::Exec, event: 2, start: 10, end: 20 },
                Span { cat: Category::Exec, event: 3, start: 0, end: 30 },
            ]
        );
    }
}
