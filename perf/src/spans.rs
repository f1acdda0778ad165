//! Bench-side spans: name, start, end, parent, rep. Recorded from this
//! package's own code around calls into each layer's public functions —
//! the program under test is not instrumented. Kept in memory and written
//! out once at exit.

use std::fmt::Write as _;

use scioto_det::sync::Mutex;
use scioto_det::MonoClock;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval of host time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns at return; equals `start_ns` until [`Spans::end`] runs.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which rep of the workload this belongs to.
    pub rep: u32,
}

/// In-memory span recorder, shareable across the rank closures of a
/// `Machine::run` (ranks are fibers on one thread in virtual time and
/// real threads in concurrent mode; one lock per begin/end is far below
/// what a rank does between the two).
#[derive(Debug, Default)]
pub struct Spans {
    clock: MonoClock,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// Open a span now.
    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>, rep: u32) -> SpanId {
        let now = self.clock.now_ns();
        let mut spans = self.spans.lock();
        spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            rep,
        });
        spans.len() - 1
    }

    /// Close span `id` now and return its duration in ns.
    pub fn end(&self, id: SpanId) -> u64 {
        let now = self.clock.now_ns();
        let mut spans = self.spans.lock();
        spans[id].end_ns = now;
        now - spans[id].start_ns
    }

    /// Record `f` as a span.
    pub fn within<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        rep: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, rep);
        let out = f(id);
        self.end(id);
        out
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (the
/// ranks of one machine run interleave), so the covered part is the union
/// of their intervals clipped to the parent, not the sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One JSON object per line: the span plus its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.rep, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),  // covers 10..40
            span(30, 60, Some(0)),  // overlaps the previous: union 10..60
            span(70, 80, Some(0)),  // disjoint: +10
            span(35, 38, Some(2)),  // grandchild: only affects span 2
            span(90, 120, Some(0)), // sticks out: clipped to 90..100
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 50 - 10 - 10, 30, 27, 10, 3, 30]
        );
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let rec = Spans::default();
        let inner = rec.within("outer", None, 7, |outer| rec.begin("inner", Some(outer), 7));
        rec.end(inner);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        let body = to_jsonl(&spans);
        assert_eq!(body.lines().count(), 2);
        for line in body.lines() {
            scioto_sim::validate_json(line).expect("span line is JSON");
        }
        assert!(body.contains("\"name\":\"inner\",\"rep\":7,\"parent\":0,"));
    }
}
