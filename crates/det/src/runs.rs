//! Sorted, disjoint runs of 8-byte words, each holding a value: the one
//! word-range structure of the race checkers (frontier, site-pair word
//! sets, critical-section footprints, lock conflict state, protocol
//! words), with [`word_range`], the one rule from a byte access to its
//! words, which the trace recorder and reader use too.

use std::ops::RangeInclusive;

/// The 8-byte words an access of `bytes` bytes at byte `offset` touches (a
/// zero-byte access touches the word at `offset`), or `None` when its last
/// byte lies past `u64::MAX`.
pub fn word_range(offset: u64, bytes: u32) -> Option<RangeInclusive<u64>> {
    let last = offset.checked_add(u64::from(bytes.max(1)) - 1)?;
    Some(offset / 8..=last / 8)
}

/// Words `lo..=hi`, all holding `val`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run<V> {
    pub lo: u64,
    pub hi: u64,
    pub val: V,
}

/// Sorted, disjoint runs of words, where no two runs that touch hold equal
/// values. The runs sit in one `Vec`, which [`RunMap::clear`] keeps for
/// reuse.
#[derive(Clone, Debug)]
pub struct RunMap<V> {
    runs: Vec<Run<V>>,
    /// Words the runs hold.
    words: u64,
}

/// A set of words: runs that touch are one.
pub type RunSet = RunMap<()>;

impl<V> Default for RunMap<V> {
    fn default() -> Self {
        RunMap { runs: Vec::new(), words: 0 }
    }
}

impl<V> RunMap<V> {
    /// The runs, in word order.
    pub fn runs(&self) -> &[Run<V>] {
        &self.runs
    }

    /// How many words the runs hold.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Empty the map, keeping its buffer.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.words = 0;
    }

    /// The runs that hold a word of `words`, in word order.
    pub fn overlapping(&self, words: RangeInclusive<u64>) -> &[Run<V>] {
        let from = self.runs.partition_point(|r| r.hi < *words.start());
        let to = from + self.runs[from..].partition_point(|r| r.lo <= *words.end());
        &self.runs[from..to]
    }
}

impl<V: Clone + Eq> RunMap<V> {
    /// Hand `visit` each stretch of the non-empty range `words` once, in
    /// word order, with the value it holds: its run's, or where no run was
    /// a copy of `gap`, which the stretch then joins the map with. A run is
    /// split only at the two ends of `words`, and only when the visit
    /// changed its value; a run whose value now equals a touching
    /// neighbour's merges with it.
    pub fn update(&mut self, words: RangeInclusive<u64>, gap: V, mut visit: impl FnMut(u64, u64, &mut V)) {
        let (lo, hi) = words.into_inner();
        assert!(lo <= hi, "an update covers at least one word");
        let runs = &mut self.runs;
        let mut i = runs.partition_point(|r| r.hi < lo);
        let mut word = lo;
        loop {
            // Visit `word..=end`: held by run `i` (which may reach past
            // it), or a gap before run `i`.
            let end = match runs.get(i) {
                Some(r) if r.lo <= word => {
                    let (run_lo, run_hi, end) = (r.lo, r.hi, r.hi.min(hi));
                    if run_lo == word && run_hi == end {
                        visit(word, end, &mut runs[i].val);
                    } else {
                        let mut val = r.val.clone();
                        visit(word, end, &mut val);
                        if val != runs[i].val {
                            if end < run_hi {
                                runs.insert(i + 1, Run { lo: end + 1, ..runs[i].clone() });
                            }
                            if run_lo < word {
                                runs[i].hi = word - 1;
                                i += 1;
                                runs.insert(i, Run { lo: word, hi: end, val });
                            } else {
                                runs[i] = Run { lo: word, hi: end, val };
                            }
                        }
                    }
                    end
                }
                next => {
                    let end = next.map_or(hi, |r| hi.min(r.lo - 1));
                    let mut val = gap.clone();
                    visit(word, end, &mut val);
                    self.words += end - word + 1;
                    runs.insert(i, Run { lo: word, hi: end, val });
                    end
                }
            };
            if i > 0 && touch_equal(&runs[i - 1], &runs[i]) {
                runs[i - 1].hi = runs.remove(i).hi;
                i -= 1;
            }
            if end == hi {
                if i + 1 < runs.len() && touch_equal(&runs[i], &runs[i + 1]) {
                    runs[i].hi = runs.remove(i + 1).hi;
                }
                return;
            }
            word = end + 1;
            i += 1;
        }
    }
}

impl RunSet {
    /// Add `words`, a non-empty range.
    pub fn insert(&mut self, words: RangeInclusive<u64>) {
        self.update(words, (), |_, _, ()| {});
    }
}

/// Does `right` start where `left` ends, holding the same value?
fn touch_equal<V: Eq>(left: &Run<V>, right: &Run<V>) -> bool {
    left.hi + 1 == right.lo && left.val == right.val
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::Rng;

    #[test]
    fn word_range_rounds_out_to_whole_words_and_refuses_an_overflow() {
        assert_eq!(word_range(0, 8), Some(0..=0));
        assert_eq!(word_range(4, 8), Some(0..=1));
        assert_eq!(word_range(17, 0), Some(2..=2));
        assert_eq!(word_range(u64::MAX - 7, 8), Some(u64::MAX / 8..=u64::MAX / 8));
        assert_eq!(word_range(u64::MAX, 1), Some(u64::MAX / 8..=u64::MAX / 8));
        assert_eq!(word_range(u64::MAX, 2), None);
        assert_eq!(word_range(u64::MAX - 7, 16), None);
    }

    #[test]
    fn an_update_splits_fills_and_merges_only_what_it_must() {
        let mut map: RunMap<u8> = RunMap::default();
        map.update(0..=7, 0, |_, _, v| *v = 1);
        // Inside one run: split at both ends.
        map.update(2..=4, 0, |_, _, v| *v = 2);
        let spans = |m: &RunMap<u8>| m.runs().iter().map(|r| (r.lo, r.hi, r.val)).collect::<Vec<_>>();
        assert_eq!(spans(&map), [(0, 1, 1), (2, 4, 2), (5, 7, 1)]);
        // A visit that changes nothing splits nothing.
        map.update(1..=5, 0, |_, _, _| {});
        assert_eq!(spans(&map), [(0, 1, 1), (2, 4, 2), (5, 7, 1)]);
        // Values equal again merge, across the range's ends too.
        map.update(3..=4, 0, |_, _, v| *v = 1);
        assert_eq!(spans(&map), [(0, 1, 1), (2, 2, 2), (3, 7, 1)]);
        // Gaps fill, each visited once with its own copy of the gap value.
        let mut seen = Vec::new();
        map.update(6..=12, 5, |lo, hi, v| {
            seen.push((lo, hi, *v));
            *v += 1;
        });
        assert_eq!(seen, [(6, 7, 1), (8, 12, 5)]);
        assert_eq!(spans(&map), [(0, 1, 1), (2, 2, 2), (3, 5, 1), (6, 7, 2), (8, 12, 6)]);
        assert_eq!(map.words(), 13);
        assert_eq!(map.overlapping(2..=6).len(), 3);
        assert!(map.overlapping(13..=20).is_empty());
    }

    #[test]
    fn a_set_keeps_touching_ranges_as_one() {
        let mut set = RunSet::default();
        for (lo, hi) in [(10, 12), (14, 15), (13, 13), (0, 0), (2, 3), (1, 1)] {
            set.insert(lo..=hi);
        }
        let runs: Vec<_> = set.runs().iter().map(|r| (r.lo, r.hi)).collect();
        assert_eq!(runs, [(0, 3), (10, 15)]);
        assert_eq!(set.words(), 10);
        set.clear();
        assert!(set.runs().is_empty() && set.words() == 0);
    }

    /// `updates` random updates of a map of small values over 64 words at
    /// the bottom of the word space or at its top (2⁶¹ words), each checked
    /// against a map of single words: every update visits the stretches of
    /// its range once, in order, each holding one value; and after it the
    /// runs are sorted, disjoint and maximal and hold exactly the words
    /// and values of the per-word map.
    fn matches_the_per_word_map(seed: u64, updates: usize) {
        let mut rng = Rng::seed_from_u64(seed);
        let base = if rng.gen_bool(0.5) { 0 } else { u64::MAX / 8 - 63 };
        let mut map: RunMap<u8> = RunMap::default();
        let mut words: BTreeMap<u64, u8> = BTreeMap::new();
        for step in 0..updates {
            let lo = base + rng.gen_below(64);
            let hi = lo + rng.gen_below(64 - (lo - base)).min(rng.gen_below(20));
            let gap = rng.gen_below(3) as u8;
            // Few values, so that runs often become equal again.
            let (op, k) = (rng.gen_below(3), rng.gen_below(3) as u8);
            let apply = |v: &mut u8| match op {
                0 => *v = k,
                1 => *v = (*v + k) % 3,
                _ => *v = (*v).max(k),
            };
            let what = format!("seed {seed} step {step}: {lo}..={hi} gap {gap} op {op} {k}");
            let mut next = lo;
            map.update(lo..=hi, gap, |from, to, v| {
                assert_eq!(from, next, "{what}: stretches out of order");
                assert!(from <= to && to <= hi, "{what}");
                for w in from..=to {
                    assert_eq!(words.get(&w).copied().unwrap_or(gap), *v, "{what}: word {w}");
                }
                apply(v);
                next = to + 1;
            });
            assert_eq!(next, hi + 1, "{what}: not every word visited");
            for w in lo..=hi {
                apply(words.entry(w).or_insert(gap));
            }
            let runs = map.runs();
            for pair in runs.windows(2) {
                assert!(pair[0].hi < pair[1].lo, "{what}: runs out of order");
                assert!(!touch_equal(&pair[0], &pair[1]), "{what}: touching runs hold one value");
            }
            let flat: BTreeMap<u64, u8> =
                runs.iter().flat_map(|r| (r.lo..=r.hi).map(|w| (w, r.val))).collect();
            assert_eq!(flat, words, "{what}");
            assert_eq!(map.words(), words.len() as u64, "{what}");
            let (qlo, qhi) = (base + rng.gen_below(64), base + rng.gen_below(64));
            let (qlo, qhi) = (qlo.min(qhi), qlo.max(qhi));
            let hit: Vec<_> = map.overlapping(qlo..=qhi).iter().map(|r| (r.lo, r.hi)).collect();
            let want: Vec<_> =
                runs.iter().filter(|r| r.hi >= qlo && r.lo <= qhi).map(|r| (r.lo, r.hi)).collect();
            assert_eq!(hit, want, "{what}: overlapping {qlo}..={qhi}");
        }
    }

    #[test]
    fn runs_match_a_per_word_map_on_seeded_updates() {
        for seed in 0..200 {
            matches_the_per_word_map(seed, 60);
        }
    }

    /// [`runs_match_a_per_word_map_on_seeded_updates`] on fifteen times the
    /// seeds; `scripts/verify.sh` runs it in release.
    #[test]
    #[ignore = "15x the seeds; scripts/verify.sh runs it in release"]
    fn stress_runs_match_a_per_word_map_on_seeded_updates() {
        for seed in 0..3_000 {
            matches_the_per_word_map(seed, 60);
        }
    }
}
