//! What the folds over [`scioto_analyze::sync::walk`] share: the vector
//! clocks (one relation for [`crate::hb`], two in lockstep for
//! [`crate::predict`]), the access frontier of word runs, the site-pair
//! dedup of findings, their attribution and text form — and, for the
//! clock-free passes, the held-lock scan over one rank's stream.

use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::RangeInclusive;

pub(crate) use scioto_analyze::sync::FastMap;
use scioto_analyze::sync::{LockKey, Pos, Step, SyncWith};
use scioto_det::runs::{word_range, RunMap, RunSet};
use scioto_sim::{StampedEvent, Trace, TraceEvent};

use crate::hb::{AccessInfo, Race};

/// One 8-byte word of simulated global memory: `(owner rank, seg, word)`.
pub(crate) type WordKey = (u32, u32, u64);

/// Component-wise maximum of two vector clocks, into `into`.
pub(crate) fn join(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// The race folds' vector clocks: `relations` happens-before relations over
/// the same `n` ranks, stored side by side (`relations × n` wide) so one
/// [`join`] advances them all. Relation 0 is the observed (strong) order;
/// own components tick in lockstep, so a rank's position is comparable
/// across relations.
pub(crate) struct ClockSet {
    n: usize,
    /// A clock's length, `relations × n`.
    width: usize,
    cur: Vec<Vec<u64>>,
    /// Producer clocks, taken *before* the producer's own tick: an access
    /// after a release stays unordered with the next acquirer. Each is
    /// the slot of [`ClockSet::arena`] that holds it.
    snap: FastMap<Pos, usize>,
    /// The join each barrier episode's participants leave with, by slot.
    barrier: FastMap<u64, usize>,
    /// Every published clock, `relations × n` wide, back to back: one
    /// buffer that doubles, not one allocation per producer.
    arena: Vec<u64>,
    /// Events that joined at least one incoming clock.
    pub(crate) sync_edges: u64,
}

impl ClockSet {
    pub(crate) fn new(n: usize, relations: usize) -> Self {
        let cur = (0..n)
            .map(|r| {
                let mut c = vec![0u64; relations * n];
                c.iter_mut().skip(r).step_by(n.max(1)).for_each(|own| *own = 1);
                c
            })
            .collect();
        ClockSet {
            n,
            width: relations * n,
            cur,
            snap: FastMap::default(),
            barrier: FastMap::default(),
            arena: Vec::new(),
            sync_edges: 0,
        }
    }

    /// `rank`'s current clock in `relation`.
    pub(crate) fn rel(&self, rank: u32, relation: usize) -> &[u64] {
        &self.cur[rank as usize][relation * self.n..(relation + 1) * self.n]
    }

    /// `rank`'s own component (the same in every relation).
    pub(crate) fn own(&self, rank: u32) -> u64 {
        self.cur[rank as usize][rank as usize]
    }

    /// The strong clock `producer` published.
    pub(crate) fn published(&self, producer: Pos) -> &[u64] {
        let at = self.snap[&producer];
        &self.arena[at..at + self.n]
    }

    /// Join what `step` synchronises-with into its rank's clocks. The one
    /// hook: on a lock edge `weak_lock`, when given, replaces the release's
    /// published clock in every relation but the strong one.
    pub(crate) fn enter(&mut self, step: &Step<'_>, weak_lock: Option<&[u64]>) {
        let (n, width) = (self.n, self.width);
        let cur = &mut self.cur[step.pos.rank as usize];
        match step.sync {
            SyncWith::None => return,
            SyncWith::After(producers) => {
                for p in producers {
                    let at = self.snap[p];
                    let published = &self.arena[at..at + width];
                    match weak_lock {
                        None => join(cur, published),
                        Some(weak) => {
                            join(&mut cur[..n], &published[..n]);
                            join(&mut cur[n..], weak);
                        }
                    }
                }
            }
            SyncWith::Barrier { epoch, participants, first } => {
                if first {
                    // Every participant is parked at its arrival: these
                    // are the pre-tick clocks they arrived with.
                    let at = self.arena.len();
                    self.arena.resize(at + width, 0);
                    for p in participants {
                        join(&mut self.arena[at..], &self.cur[p.rank as usize]);
                    }
                    self.barrier.insert(epoch, at);
                }
                let at = self.barrier[&epoch];
                join(&mut self.cur[step.pos.rank as usize], &self.arena[at..at + width]);
            }
        }
        self.sync_edges += 1;
    }

    /// Publish `step`'s clock if it is a producer, then tick its rank if
    /// it is a sync event at all.
    pub(crate) fn leave(&mut self, step: &Step<'_>) {
        let r = step.pos.rank as usize;
        match step.ev.event {
            TraceEvent::LockRel { .. } | TraceEvent::MsgSend { .. } | TraceEvent::TdWave { .. } => {
                self.snap.insert(step.pos, self.arena.len());
                self.arena.extend_from_slice(&self.cur[r]);
            }
            TraceEvent::BarrierWait { .. } | TraceEvent::LockAcq { .. } => {}
            _ => return,
        }
        self.cur[r].iter_mut().skip(r).step_by(self.n).for_each(|own| *own += 1);
    }
}

/// The memory access one trace event performs.
pub(crate) struct Access {
    pub(crate) owner: u32,
    pub(crate) seg: u32,
    offset: u64,
    bytes: u32,
    pub(crate) write: bool,
    /// Carries the runtime's atomic mark, or is atomic by nature.
    pub(crate) atomic: bool,
    /// Inherently atomic fetch-and-op (`acc`/`rmw`).
    pub(crate) rmw: bool,
}

impl Access {
    pub(crate) fn of(rank: u32, event: &TraceEvent) -> Option<Access> {
        match *event {
            TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic } => Some(Access {
                owner: target,
                seg,
                offset,
                bytes,
                write: kind.is_write(),
                atomic: atomic || kind.is_atomic(),
                rmw: kind.is_atomic(),
            }),
            TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                Some(Access { owner: rank, seg, offset, bytes, write, atomic, rmw: false })
            }
            _ => None,
        }
    }

    /// The record of this access performed by the event at `at`, where
    /// the rank's own clock component reads `clock`.
    pub(crate) fn rec(&self, at: Pos, clock: u64) -> AccessRec {
        // A rank's clock ticks at most once per event, and event indices
        // are `u32` too.
        let clock = u32::try_from(clock).expect("a rank's clock counts its events");
        AccessRec { rank: at.rank, ev_idx: at.idx, clock, write: self.write, atomic: self.atomic }
    }

    /// The 8-byte words touched.
    pub(crate) fn range(&self) -> RangeInclusive<u64> {
        word_range(self.offset, self.bytes).expect("no access reaches past the last byte")
    }
}

/// Where and when an access ran (one event may touch several words; the
/// record identifies the event, not the word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessRec {
    pub(crate) rank: u32,
    /// Index of the access event in that rank's stream.
    pub(crate) ev_idx: u32,
    /// The rank's own clock component at the access (16 bytes a record,
    /// so a run's usual classes fit one cache line).
    pub(crate) clock: u32,
    pub(crate) write: bool,
    pub(crate) atomic: bool,
}

/// Classes a run holds inline; a run touched by more spills to the heap.
const INLINE_CLASSES: usize = 3;

/// A class's kind, `2 × write + atomic`; a set of kinds is a 4-bit mask.
fn kind(write: bool, atomic: bool) -> usize {
    2 * usize::from(write) + usize::from(atomic)
}

const READS: u8 = 0b0011;
const WRITES: u8 = 0b1100;
const PLAIN: u8 = 0b0101;

/// For 64 consecutive classes of a list, one mask per kind: bit `i` of
/// mask `k` is set when the block's class `i` is of kind `k`.
type KindMasks = [u64; 4];

/// The latest access of each `(rank, write, atomic)` class of one run of
/// words, in the order the classes first touched it: inline while there
/// are at most [`INLINE_CLASSES`], beyond that in a `Vec` with a mask per
/// kind, so a visit reads only the classes of the kinds it can race with
/// or belongs to. A word that every thief reads and publishes holds
/// dozens of classes, and an atomic access races none of the atomic ones.
/// Two lists are equal when they hold the same classes in the same order:
/// slots past an inline list's length stay empty, a spilled list's masks
/// follow from its classes, and a list spills only past
/// [`INLINE_CLASSES`].
#[derive(Clone, PartialEq, Eq)]
enum ClassList {
    Inline { len: u8, recs: [AccessRec; INLINE_CLASSES] },
    Spilled { recs: Vec<AccessRec>, kinds: Vec<KindMasks> },
}

impl ClassList {
    const EMPTY: ClassList = {
        let none = AccessRec { rank: 0, ev_idx: 0, clock: 0, write: false, atomic: false };
        ClassList::Inline { len: 0, recs: [none; INLINE_CLASSES] }
    };

    fn classes(&self) -> &[AccessRec] {
        match self {
            ClassList::Inline { len, recs } => &recs[..*len as usize],
            ClassList::Spilled { recs, .. } => recs,
        }
    }

    /// Hand `f` each class of a kind in `kinds`, in first-touch order,
    /// until it answers `true`; the index of that class. An inline list
    /// is scanned whole; a spilled one reads only the classes its masks
    /// select.
    fn find_of(&self, kinds: u8, mut f: impl FnMut(&AccessRec) -> bool) -> Option<usize> {
        if kinds == 0 {
            return None;
        }
        let of_kind = |r: &AccessRec| kinds >> kind(r.write, r.atomic) & 1 == 1;
        let (recs, masks) = match self {
            ClassList::Inline { .. } => {
                return self.classes().iter().position(|r| of_kind(r) && f(r));
            }
            ClassList::Spilled { recs, kinds } => (recs, kinds),
        };
        let select = |k: usize| 0u64.wrapping_sub(u64::from(kinds >> k & 1));
        for (block, m) in masks.iter().enumerate() {
            let mut bits = m[0] & select(0) | m[1] & select(1) | m[2] & select(2) | m[3] & select(3);
            while bits != 0 {
                let i = 64 * block + bits.trailing_zeros() as usize;
                if f(&recs[i]) {
                    return Some(i);
                }
                bits &= bits - 1;
            }
        }
        None
    }

    /// Every prior that could race with `rec` — another rank, a write on
    /// either side, not both atomic — goes to `hit`: writes first, then
    /// reads, each kind in the order its classes first touched the run.
    /// Then `rec` becomes its class's latest access.
    fn visit(&mut self, rec: AccessRec, mut hit: impl FnMut(&AccessRec)) {
        let racing = if rec.atomic { PLAIN } else { READS | WRITES };
        let reads = if rec.write { READS } else { 0 };
        for kinds in [racing & WRITES, racing & reads] {
            self.find_of(kinds, |p| {
                if p.rank != rec.rank {
                    hit(p);
                }
                false
            });
        }
        let at = self.find_of(1 << kind(rec.write, rec.atomic), |p| p.rank == rec.rank);
        self.put(at, rec);
    }

    /// `rec` becomes its class's latest access: the class at index `at`
    /// of [`ClassList::classes`], or a new one.
    fn put(&mut self, at: Option<usize>, rec: AccessRec) {
        if let Some(at) = at {
            match self {
                ClassList::Inline { recs, .. } => recs[at] = rec,
                ClassList::Spilled { recs, .. } => recs[at] = rec,
            }
            return;
        }
        let k = kind(rec.write, rec.atomic);
        if let ClassList::Inline { len, recs } = self {
            let n = usize::from(*len);
            if n < INLINE_CLASSES {
                recs[n] = rec;
                *len += 1;
                return;
            }
            let mut masks = [0; 4];
            for (i, r) in recs.iter().enumerate() {
                masks[kind(r.write, r.atomic)] |= 1 << i;
            }
            let mut spilled = Vec::with_capacity(2 * INLINE_CLASSES);
            spilled.extend_from_slice(recs);
            *self = ClassList::Spilled { recs: spilled, kinds: vec![masks] };
        }
        if let ClassList::Spilled { recs, kinds } = self {
            let n = recs.len();
            if n % 64 == 0 {
                kinds.push([0; 4]);
            }
            kinds[n / 64][k] |= 1 << (n % 64);
            recs.push(rec);
        }
    }
}

/// Per word, the most recent write and read of each `(rank, atomic)`
/// class. Keeping the per-class latest access is sound: a new access
/// ordered after a rank's latest plain (resp. atomic) access is ordered
/// after all earlier ones of that class. Words that hold one class list
/// share it as a run (adaptive granularity, as in RaceTrack): each
/// `(owner, seg)` is a [`RunMap`] of class lists, so an access visits each
/// run it covers once, and neither a run nor a word allocates on its own —
/// only a run of more than [`INLINE_CLASSES`] classes.
#[derive(Default)]
pub(crate) struct Frontier {
    /// The runs of each `(owner, seg)`.
    segs: FastMap<(u32, u32), RunMap<ClassList>>,
}

/// What a race fold needs of its frontier: the run frontier here, or the
/// per-word oracle the tests hold it to.
pub(crate) trait AccessFrontier: Default {
    /// Record access `a` performed at `rec`. Every frontier access it
    /// could race with — same word, another rank, a write on either side,
    /// not both atomic — goes to `hit` with the word range `lo..=hi` it
    /// holds for, to be judged once against the caller's clocks. Ranges
    /// ascend; within one, writes come first, then reads.
    fn access(&mut self, a: &Access, rec: AccessRec, hit: impl FnMut(u64, u64, &AccessRec));

    /// Distinct words that saw at least one access.
    fn words(&self) -> usize;
}

impl AccessFrontier for Frontier {
    fn access(&mut self, a: &Access, rec: AccessRec, mut hit: impl FnMut(u64, u64, &AccessRec)) {
        let runs = self.segs.entry((a.owner, a.seg)).or_default();
        runs.update(a.range(), ClassList::EMPTY, |lo, hi, list| {
            list.visit(rec, |prior| hit(lo, hi, prior));
        });
    }

    fn words(&self) -> usize {
        self.segs.values().map(|runs| runs.words() as usize).sum()
    }
}

/// An access site: `(rank, operation, write, atomic)`.
type Site = (u32, &'static str, bool, bool);

/// Findings deduplicated by *access-site pair*: all hits between the
/// same pair of sites on the same `(owner, seg)` collapse into one
/// [`Race`] that keeps the earliest event pair (and the `extra` computed
/// for it) and counts the distinct words exactly. Order is first-hit
/// order, i.e. walk order.
pub(crate) struct SitePairs<X> {
    found: Vec<(Race, X, RunSet)>,
    index: FastMap<(u32, u32, Site, Site), usize>,
}

impl<X> SitePairs<X> {
    pub(crate) fn new() -> Self {
        SitePairs { found: Vec::new(), index: FastMap::default() }
    }

    /// `prior` and `rec` race on `words` of `(owner, seg)`.
    pub(crate) fn add(
        &mut self,
        trace: &Trace,
        (owner, seg): (u32, u32),
        words: RangeInclusive<u64>,
        prior: AccessRec,
        rec: AccessRec,
        extra: impl FnOnce() -> X,
    ) {
        let site = |r: AccessRec| (r.rank, op_name(trace, r), r.write, r.atomic);
        let at = match self.index.entry((owner, seg, site(prior), site(rec))) {
            Entry::Occupied(at) => *at.get(),
            Entry::Vacant(slot) => {
                slot.insert(self.found.len());
                let (first, second) = (access_info(trace, prior), access_info(trace, rec));
                // `finish` fills in the words from the set.
                let race = Race { owner, seg, word: 0, word_hi: 0, word_count: 0, first, second };
                self.found.push((race, extra(), RunSet::default()));
                self.found.len() - 1
            }
        };
        self.found[at].2.insert(words);
    }

    pub(crate) fn finish(self) -> impl Iterator<Item = (Race, X)> {
        self.found.into_iter().map(|(mut race, extra, words)| {
            let runs = words.runs();
            race.word = runs.first().expect("non-empty word set").lo;
            race.word_hi = runs.last().expect("non-empty word set").hi;
            race.word_count = words.words();
            (race, extra)
        })
    }
}

/// The operation of an access record's event, as reports name it.
fn op_name(trace: &Trace, rec: AccessRec) -> &'static str {
    match trace.events[rec.rank as usize][rec.ev_idx as usize].event {
        TraceEvent::RemoteOp { kind, .. } => kind.name(),
        TraceEvent::LocalAccess { write: true, .. } => "local write",
        TraceEvent::LocalAccess { write: false, .. } => "local read",
        _ => unreachable!("access records are made from memory access events only"),
    }
}

/// Build the report-side attribution for one access record.
fn access_info(trace: &Trace, rec: AccessRec) -> AccessInfo {
    let stream = &trace.events[rec.rank as usize];
    let ev = &stream[rec.ev_idx as usize];
    let op = op_name(trace, rec).to_string();
    let nearest_sync = stream[..rec.ev_idx as usize].iter().rev().find_map(|e| {
        let desc = match &e.event {
            TraceEvent::LockAcq { target, set, idx, seq } => {
                format!("lock acquire #{seq} (target {target}, set {set}, idx {idx})")
            }
            TraceEvent::LockRel { target, set, idx, seq } => {
                format!("lock release #{seq} (target {target}, set {set}, idx {idx})")
            }
            TraceEvent::BarrierWait { epoch, .. } => format!("barrier epoch {epoch}"),
            TraceEvent::MsgSend { dst, seq, .. } => format!("msg send #{seq} to rank {dst}"),
            TraceEvent::MsgRecv { src, seq } => format!("msg recv #{seq} from rank {src}"),
            TraceEvent::TdWave { wave, dir, .. } => format!("td {dir:?}-wave {wave}"),
            _ => return None,
        };
        Some((e.t_ns, desc))
    });
    AccessInfo {
        rank: rec.rank,
        t_ns: ev.t_ns,
        clock: rec.clock.into(),
        op,
        write: rec.write,
        atomic: rec.atomic,
        nearest_sync,
    }
}

/// The two attribution lines every finding's text form carries.
pub(crate) fn fmt_access_pair(
    f: &mut fmt::Formatter<'_>,
    first: &AccessInfo,
    second: &AccessInfo,
) -> fmt::Result {
    for (tag, a) in [("first", first), ("second", second)] {
        write!(
            f,
            "  {tag}: rank {} t={}ns clock={} {} ({}{});",
            a.rank,
            a.t_ns,
            a.clock,
            a.op,
            if a.write { "write" } else { "read" },
            if a.atomic { ", atomic" } else { "" },
        )?;
        match &a.nearest_sync {
            Some((t, s)) => writeln!(f, " last sync: {s} at t={t}ns")?,
            None => writeln!(f, " no prior sync on this rank")?,
        }
    }
    Ok(())
}

/// A lock held while some event ran: which, which ownership generation,
/// and the acquire that took it.
pub(crate) struct Held {
    pub(crate) key: LockKey,
    pub(crate) seq: u64,
    pub(crate) ev: u32,
    pub(crate) t_ns: u64,
}

/// Scan one rank's stream in program order, passing every event to
/// `visit` with the locks held when it ran (an acquire does not hold
/// itself yet; a release still does). Lock nesting is a per-rank fact —
/// no clocks, no cross-rank scheduling.
pub(crate) fn scan_held(events: &[StampedEvent], mut visit: impl FnMut(usize, &StampedEvent, &[Held])) {
    let mut held: Vec<Held> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        visit(i, ev, &held);
        match ev.event {
            TraceEvent::LockAcq { target, set, idx, seq } => {
                held.push(Held { key: (target, set, idx), seq, ev: i as u32, t_ns: ev.t_ns });
            }
            TraceEvent::LockRel { target, set, idx, .. } => {
                if let Some(p) = held.iter().rposition(|h| h.key == (target, set, idx)) {
                    held.remove(p);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) type WordSet =
    std::collections::HashSet<WordKey, std::hash::BuildHasherDefault<scioto_analyze::sync::FxHasher>>;

#[cfg(test)]
impl Access {
    /// The 8-byte words touched, one at a time.
    pub(crate) fn words(&self) -> impl Iterator<Item = WordKey> + '_ {
        self.range().map(|w| (self.owner, self.seg, w))
    }
}

/// The per-word frontier the run frontier replaced, kept as its oracle:
/// every word its own class list, in first-touch order, its priors met
/// writes first, then reads.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct WordFrontier {
    words: FastMap<WordKey, Vec<AccessRec>>,
}

#[cfg(test)]
impl AccessFrontier for WordFrontier {
    fn access(&mut self, a: &Access, rec: AccessRec, mut hit: impl FnMut(u64, u64, &AccessRec)) {
        let races =
            |p: &AccessRec| (p.write || rec.write) && p.rank != rec.rank && !(p.atomic && rec.atomic);
        for key in a.words() {
            let classes = self.words.entry(key).or_default();
            let writes = classes.iter().filter(|p| p.write);
            let reads = classes.iter().filter(|p| !p.write);
            for prior in writes.chain(reads).filter(|p| races(p)) {
                hit(key.2, key.2, prior);
            }
            let class = |p: &AccessRec| (p.rank, p.write, p.atomic) == (rec.rank, rec.write, rec.atomic);
            match classes.iter_mut().find(|p| class(p)) {
                Some(p) => *p = rec,
                None => classes.push(rec),
            }
        }
    }

    fn words(&self) -> usize {
        self.words.len()
    }
}

/// The run frontier and the per-word oracle fed in lockstep: every access
/// must give both the same hits, word by word in the oracle's order (a
/// run's hit standing for each of its words), and the same word count,
/// and leave its segment's runs sorted, disjoint and, where two touch,
/// with different lists. It hands no hit on, so a checker driving it
/// reports no race.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Lockstep {
    runs: Frontier,
    words: WordFrontier,
}

#[cfg(test)]
impl AccessFrontier for Lockstep {
    fn access(&mut self, a: &Access, rec: AccessRec, _: impl FnMut(u64, u64, &AccessRec)) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        self.runs.access(a, rec, |lo, hi, p| got.extend((lo..=hi).map(|w| (w, *p))));
        self.words.access(a, rec, |w, _, p| want.push((w, *p)));
        got.sort_by_key(|&(w, _)| w);
        assert_eq!(got, want, "{rec:?}");
        assert_eq!(self.runs.words(), self.words.words(), "{rec:?}");
        for pair in self.runs.segs[&(a.owner, a.seg)].runs().windows(2) {
            let (left, right) = (&pair[0], &pair[1]);
            assert!(left.hi < right.lo, "{rec:?}: runs out of order");
            let equal = left.val.classes() == right.val.classes();
            assert!(left.hi + 1 < right.lo || !equal, "{rec:?}: touching runs hold one list");
        }
    }

    fn words(&self) -> usize {
        self.runs.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rank`'s access to words `lo..=hi` of owner 0's segment 0, as event
    /// `ev` (its clock too).
    fn access(rank: u32, ev: u32, words: (u64, u64), write: bool, atomic: bool) -> (Access, AccessRec) {
        let (lo, hi) = words;
        let bytes = u32::try_from(8 * (hi - lo + 1)).unwrap();
        let a = Access { owner: 0, seg: 0, offset: 8 * lo, bytes, write, atomic, rmw: false };
        (a, AccessRec { rank, ev_idx: ev, clock: ev, write, atomic })
    }

    /// Feed `accesses` to the run frontier and the per-word oracle in
    /// lockstep; the runs left.
    fn replay(accesses: &[(Access, AccessRec)]) -> Vec<(u64, u64)> {
        let mut both = Lockstep::default();
        for (a, rec) in accesses {
            both.access(a, *rec, |_, _, _| {});
        }
        both.runs.segs[&(0, 0)].runs().iter().map(|r| (r.lo, r.hi)).collect()
    }

    #[test]
    fn an_access_inside_one_run_splits_it_at_its_two_ends() {
        let runs = replay(&[access(0, 1, (0, 7), true, false), access(1, 1, (2, 4), false, false)]);
        assert_eq!(runs, [(0, 1), (2, 4), (5, 7)]);
    }

    #[test]
    fn an_access_straddling_two_runs_splits_each_once() {
        let runs = replay(&[
            access(0, 1, (0, 7), true, false),
            access(1, 1, (2, 4), false, false),
            access(2, 1, (4, 6), true, false),
        ]);
        assert_eq!(runs, [(0, 1), (2, 3), (4, 4), (5, 6), (7, 7)]);
    }

    #[test]
    fn an_access_spanning_a_gap_fills_it_with_new_runs() {
        let runs = replay(&[access(0, 1, (10, 11), false, false), access(1, 1, (8, 12), true, false)]);
        assert_eq!(runs, [(8, 9), (10, 11), (12, 12)]);
    }

    #[test]
    fn runs_whose_lists_become_equal_merge_again() {
        let mut again = vec![access(0, 1, (0, 3), true, false), access(0, 2, (2, 3), true, false)];
        assert_eq!(replay(&again), [(0, 1), (2, 3)]);
        again.push(access(0, 3, (0, 5), true, false));
        assert_eq!(replay(&again), [(0, 5)]);
        // A neighbour the access did not visit keeps its own run.
        again.push(access(1, 1, (6, 6), false, true));
        again.push(access(2, 1, (5, 6), false, true));
        assert_eq!(replay(&again), [(0, 4), (5, 5), (6, 6)]);
    }

    #[test]
    fn a_run_past_64_classes_meets_every_prior_in_order() {
        // 40 ranks read and write words 0..=1, plain and marked: 160
        // classes, three blocks of kind masks. Then rank 0's accesses of
        // every kind reach from word 1 into a word no one touched.
        let kinds = [(false, false), (true, true), (false, true), (true, false)];
        let mut accesses = Vec::new();
        for rank in (1..=40).chain([0]) {
            let words = if rank == 0 { (1, 2) } else { (0, 1) };
            for (ev, (write, atomic)) in (1..).zip(kinds) {
                accesses.push(access(rank, ev, words, write, atomic));
            }
        }
        assert_eq!(replay(&accesses), [(0, 0), (1, 1), (2, 2)]);
    }
}
