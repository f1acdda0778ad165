//! Blame decomposition: attribute every virtual nanosecond of a rank's
//! elapsed time to exactly one [`Category`].
//!
//! The rank's `SpanIndex` already names the innermost span of every
//! elementary interval (the rule is in [`crate::timeline`]), so blame is
//! one pass over those intervals: each is clipped to `[0, elapsed]` and
//! charged to its innermost span's category. A lock wait nested in a
//! steal attempt counts as lock time, and the steal only gets the
//! remainder. Idle is whatever is left of `elapsed`, so the six category
//! totals sum **exactly** to the rank's elapsed time (the invariant
//! pinned by `tests/cross_crate.rs`).

use crate::timeline::{Category, Lookup, Span, SpanIndex, CATEGORIES};

/// Per-category virtual-ns totals for one rank (or aggregated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Blame {
    ns: [u64; CATEGORIES.len()],
}

impl Blame {
    /// Nanoseconds attributed to `cat`.
    pub fn get(&self, cat: Category) -> u64 {
        self.ns[cat.index()]
    }

    /// Sum over all categories — equals the elapsed time passed to
    /// [`decompose`].
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Directly charge `ns` to `cat`.
    pub(crate) fn charge(&mut self, cat: Category, ns: u64) {
        self.ns[cat.index()] += ns;
    }

    /// Fold another rank's blame into this one.
    pub fn merge(&mut self, other: &Blame) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a += b;
        }
    }
}

/// Decompose `elapsed` virtual ns of one rank into category totals given
/// its spans. Time past `elapsed` is not counted. Spans that overlap
/// without nesting (which recorded traces do not produce) still follow
/// the innermost-span rule, so the sum stays exact.
pub fn decompose(spans: &[Span], elapsed: u64) -> Blame {
    sum_intervals(spans, &SpanIndex::build(spans), elapsed)
}

/// Sum `index`'s elementary intervals, clipped to `[0, elapsed]`, by the
/// category of their innermost span; idle is the remainder.
pub(crate) fn sum_intervals(spans: &[Span], index: &SpanIndex, elapsed: u64) -> Blame {
    let mut blame = Blame::default();
    for (lo, hi, innermost) in index.intervals() {
        if let Some(i) = innermost {
            blame.charge(spans[i].cat, hi.min(elapsed) - lo.min(elapsed));
        }
    }
    blame.charge(Category::Idle, elapsed - blame.total());
    blame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::LinearScan;

    fn span(cat: Category, start: u64, end: u64) -> Span {
        Span { cat, event: 0, start, end }
    }

    #[test]
    fn empty_spans_are_all_idle() {
        let b = decompose(&[], 100);
        assert_eq!(b.get(Category::Idle), 100);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn nested_spans_charge_innermost() {
        // Steal [10,50] with a lock wait [20,40] inside: steal self-time is
        // 20, lock 20, idle 60.
        let spans = [
            span(Category::Steal, 10, 50),
            span(Category::Lock, 20, 40),
        ];
        let b = decompose(&spans, 100);
        assert_eq!(b.get(Category::Steal), 20);
        assert_eq!(b.get(Category::Lock), 20);
        assert_eq!(b.get(Category::Idle), 60);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn triple_nesting_and_adjacency() {
        // Exec [0,100] containing td [10,30] containing lock [15,25], then
        // an adjacent barrier [100,120].
        let spans = [
            span(Category::Exec, 0, 100),
            span(Category::Td, 10, 30),
            span(Category::Lock, 15, 25),
            span(Category::Barrier, 100, 120),
        ];
        let b = decompose(&spans, 120);
        assert_eq!(b.get(Category::Exec), 80);
        assert_eq!(b.get(Category::Td), 10);
        assert_eq!(b.get(Category::Lock), 10);
        assert_eq!(b.get(Category::Barrier), 20);
        assert_eq!(b.get(Category::Idle), 0);
        assert_eq!(b.total(), 120);
    }

    #[test]
    fn spans_beyond_elapsed_are_clipped() {
        let spans = [span(Category::Exec, 50, 200)];
        let b = decompose(&spans, 100);
        assert_eq!(b.get(Category::Exec), 50);
        assert_eq!(b.get(Category::Idle), 50);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn overlap_without_nesting_charges_the_later_start_and_keeps_sum_exact() {
        // [0,10] and [5,15] do not nest; the later start covers (5,15].
        let spans = [
            span(Category::Exec, 0, 10),
            span(Category::Steal, 5, 15),
        ];
        let b = decompose(&spans, 20);
        assert_eq!(b.total(), 20);
        assert_eq!(b.get(Category::Exec), 5);
        assert_eq!(b.get(Category::Steal), 10);
        assert_eq!(b.get(Category::Idle), 5);
    }

    #[test]
    fn equal_starts_charge_the_shorter_span() {
        // A lock wait that starts with its steal attempt is inside it,
        // whichever of the two was emitted first.
        for spans in [
            [span(Category::Lock, 10, 20), span(Category::Steal, 10, 50)],
            [span(Category::Steal, 10, 50), span(Category::Lock, 10, 20)],
        ] {
            let b = decompose(&spans, 50);
            assert_eq!(b.get(Category::Lock), 10);
            assert_eq!(b.get(Category::Steal), 30);
            assert_eq!(b.get(Category::Idle), 10);
        }
    }

    #[test]
    fn identical_spans_nest_without_loss() {
        let spans = [
            span(Category::Exec, 10, 30),
            span(Category::Exec, 10, 30),
        ];
        let b = decompose(&spans, 40);
        assert_eq!(b.get(Category::Exec), 20);
        assert_eq!(b.total(), 40);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = decompose(&[span(Category::Exec, 0, 10)], 10);
        let b = decompose(&[span(Category::Steal, 0, 4)], 10);
        a.merge(&b);
        assert_eq!(a.get(Category::Exec), 10);
        assert_eq!(a.get(Category::Steal), 4);
        assert_eq!(a.get(Category::Idle), 6);
        assert_eq!(a.total(), 20);
    }

    /// Blame by the oracle: every elementary interval, clipped to
    /// `elapsed`, charged to the span [`LinearScan`] finds covering it.
    fn oracle_blame(spans: &[Span], elapsed: u64) -> Blame {
        let mut bounds: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
        bounds.sort();
        bounds.dedup();
        let mut blame = Blame::default();
        for b in bounds.windows(2) {
            if let Some(i) = LinearScan.covering(spans, b[1]) {
                blame.charge(spans[i].cat, b[1].min(elapsed) - b[0].min(elapsed));
            }
        }
        blame.charge(Category::Idle, elapsed - blame.total());
        blame
    }

    #[test]
    fn decompose_matches_the_oracle_on_seeded_span_soups() {
        for seed in 0..500 {
            let mut r = crate::jsonl::tests::Mix(seed);
            // Spans that nest, overlap, share starts and ends and have
            // zero length; `elapsed` sometimes cuts them.
            let spans: Vec<Span> = (0..1 + r.below(40))
                .map(|_| {
                    let start = r.below(60) as u64;
                    let cat = CATEGORIES[r.below(CATEGORIES.len() - 1)];
                    span(cat, start, start + [0, 1, 5, 20, 50][r.below(5)])
                })
                .collect();
            let elapsed = r.below(120) as u64;
            assert_eq!(decompose(&spans, elapsed), oracle_blame(&spans, elapsed), "seed {seed}");
        }
    }

    #[test]
    fn decompose_matches_the_oracle_on_recorded_uts_runs() {
        use crate::timeline::tests::uts_recording;
        use scioto::VictimPolicy;
        use scioto_sim::{LatencyModel, MachineConfig};
        for victim in [VictimPolicy::Uniform, VictimPolicy::Locality] {
            let cfg = MachineConfig::virtual_time(16).with_latency(LatencyModel::cluster());
            let t = uts_recording(cfg, scioto_uts::presets::tiny(), victim);
            for r in 0..t.nranks() {
                let spans = crate::spans_for_rank(t.events_for(r));
                let elapsed = t.elapsed_ns(r);
                assert_eq!(decompose(&spans, elapsed), oracle_blame(&spans, elapsed), "{victim:?}, rank {r}");
            }
        }
    }
}
