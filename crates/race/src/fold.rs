//! What the folds over [`scioto_analyze::sync::walk`] share: the vector
//! clocks (one relation for [`crate::hb`], two in lockstep for
//! [`crate::predict`]), the per-word access frontier, the site-pair
//! dedup of findings, their attribution and text form — and, for the
//! clock-free passes, the held-lock scan over one rank's stream.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

pub(crate) use scioto_analyze::sync::FastMap;
use scioto_analyze::sync::{word_range, FxHasher, LockKey, Pos, Step, SyncWith};
use scioto_sim::{RemoteOpKind, StampedEvent, Trace, TraceEvent};

use crate::hb::{AccessInfo, Race};

/// One 8-byte word of simulated global memory: `(owner rank, seg, word)`.
pub(crate) type WordKey = (u32, u32, u64);

pub(crate) type WordSet = HashSet<WordKey, BuildHasherDefault<FxHasher>>;

/// Component-wise maximum of two vector clocks, into `into`.
pub(crate) fn join(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// The replay's vector clocks: `relations` happens-before relations over
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
    pub(crate) fn words(&self) -> impl Iterator<Item = WordKey> + '_ {
        word_range(self.offset, self.bytes).map(|w| (self.owner, self.seg, w))
    }

    /// The first and last word touched.
    pub(crate) fn word_span(&self) -> (u64, u64) {
        let words = word_range(self.offset, self.bytes);
        (*words.start(), *words.end())
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
    /// so a word's usual classes fit one cache line).
    pub(crate) clock: u32,
    pub(crate) write: bool,
    pub(crate) atomic: bool,
}

/// Classes a word holds inline; a word touched by more spills to the heap.
const INLINE_CLASSES: usize = 3;

/// The latest access of each `(rank, write, atomic)` class of one word, in
/// the order the classes first touched it: inline while there are at most
/// [`INLINE_CLASSES`], in a `Vec` beyond. A word's writes (and its reads)
/// keep their relative order, so the frontier meets its priors in the
/// order of one list per kind.
enum WordState {
    Inline { len: u8, recs: [AccessRec; INLINE_CLASSES] },
    Spilled(Vec<AccessRec>),
}

impl WordState {
    const EMPTY: WordState = {
        let none = AccessRec { rank: 0, ev_idx: 0, clock: 0, write: false, atomic: false };
        WordState::Inline { len: 0, recs: [none; INLINE_CLASSES] }
    };

    fn classes(&self) -> &[AccessRec] {
        match self {
            WordState::Inline { len, recs } => &recs[..*len as usize],
            WordState::Spilled(recs) => recs,
        }
    }

    /// `rec` becomes its class's latest access: the class at index `at`
    /// of [`WordState::classes`], or a new one.
    fn put(&mut self, at: Option<usize>, rec: AccessRec) {
        match (self, at) {
            (WordState::Inline { recs, .. }, Some(at)) => recs[at] = rec,
            (WordState::Spilled(recs), Some(at)) => recs[at] = rec,
            (WordState::Inline { len, recs }, None) if (*len as usize) < INLINE_CLASSES => {
                recs[*len as usize] = rec;
                *len += 1;
            }
            (state @ WordState::Inline { .. }, None) => {
                let mut spilled = Vec::with_capacity(2 * INLINE_CLASSES);
                spilled.extend_from_slice(state.classes());
                spilled.push(rec);
                *state = WordState::Spilled(spilled);
            }
            (WordState::Spilled(recs), None) => recs.push(rec),
        }
    }
}

/// Words per frontier page.
const PAGE_WORDS: u64 = 64;

/// The frontier of 64 consecutive words of one `(owner, seg)`.
struct Page {
    /// Bit `i` is set once word `i` of the page saw an access.
    touched: u64,
    words: [WordState; PAGE_WORDS as usize],
}

/// Per word, the most recent write and read of each `(rank, atomic)`
/// class. Keeping the per-class latest access is sound: a new access
/// ordered after a rank's latest plain (resp. atomic) access is ordered
/// after all earlier ones of that class. Words live in 64-word pages
/// keyed `(owner, seg, word / 64)`: an access pays one map lookup per page
/// it touches, and memory grows with the pages touched, however sparse.
/// The pages sit in one `Vec`, so neither a page nor a word allocates
/// on its own — only a word of more than [`INLINE_CLASSES`] classes.
#[derive(Default)]
pub(crate) struct Frontier {
    /// Page key → index into `pages`.
    index: FastMap<WordKey, u32>,
    pages: Vec<Page>,
    /// Distinct words touched.
    words: usize,
}

impl Frontier {
    /// Record access `a` performed at `rec`. Every frontier access it
    /// could race with — same word, another rank, a write on either side,
    /// not both atomic — goes to `hit` with the word, to be judged against
    /// the caller's clocks.
    pub(crate) fn access(&mut self, a: &Access, rec: AccessRec, mut hit: impl FnMut(u64, &AccessRec)) {
        let (mut word, hi) = a.word_span();
        loop {
            let page_no = word / PAGE_WORDS;
            let last = hi.min(page_no * PAGE_WORDS + (PAGE_WORDS - 1));
            let pages = &mut self.pages;
            let at = *self.index.entry((a.owner, a.seg, page_no)).or_insert_with(|| {
                let words = [const { WordState::EMPTY }; PAGE_WORDS as usize];
                pages.push(Page { touched: 0, words });
                (pages.len() - 1) as u32
            });
            let page = &mut pages[at as usize];
            for w in word..=last {
                let bit = 1u64 << (w % PAGE_WORDS);
                self.words += usize::from(page.touched & bit == 0);
                page.touched |= bit;
                let st = &mut page.words[(w % PAGE_WORDS) as usize];
                let races = |p: &AccessRec| {
                    (p.write || rec.write) && p.rank != rec.rank && !(p.atomic && rec.atomic)
                };
                // One pass finds `rec`'s class and whether any prior races.
                let classes = st.classes();
                let (mut at, mut any) = (None, false);
                for (i, p) in classes.iter().enumerate() {
                    any |= races(p);
                    if p.rank == rec.rank && p.write == rec.write && p.atomic == rec.atomic {
                        at = Some(i);
                    }
                }
                if any {
                    // Writes first, then reads: each kind in the order its
                    // classes first touched the word.
                    let writes = classes.iter().filter(|p| p.write);
                    let reads = classes.iter().filter(|p| !p.write);
                    for prior in writes.chain(reads).filter(|p| races(p)) {
                        hit(w, prior);
                    }
                }
                st.put(at, rec);
            }
            if last == hi {
                return;
            }
            word = last + 1;
        }
    }

    /// Distinct words that saw at least one access.
    pub(crate) fn words(&self) -> usize {
        self.words
    }
}

/// An access site: `(rank, operation, write, atomic)`.
type Site = (u32, String, bool, bool);

/// Findings deduplicated by *access-site pair*: all hits between the
/// same pair of sites on the same `(owner, seg)` collapse into one
/// [`Race`] that keeps the earliest event pair (and the `extra` computed
/// for it) and counts the distinct words exactly. Order is first-hit
/// order, i.e. walk order.
pub(crate) struct SitePairs<X> {
    found: Vec<(Race, X, BTreeSet<u64>)>,
    index: HashMap<(u32, u32, Site, Site), usize>,
}

impl<X> SitePairs<X> {
    pub(crate) fn new() -> Self {
        SitePairs { found: Vec::new(), index: HashMap::new() }
    }

    pub(crate) fn add(
        &mut self,
        trace: &Trace,
        (owner, seg, word): WordKey,
        prior: AccessRec,
        rec: AccessRec,
        extra: impl FnOnce() -> X,
    ) {
        let first = access_info(trace, prior);
        let second = access_info(trace, rec);
        let site = |a: &AccessInfo| (a.rank, a.op.clone(), a.write, a.atomic);
        match self.index.entry((owner, seg, site(&first), site(&second))) {
            Entry::Occupied(at) => {
                self.found[*at.get()].2.insert(word);
            }
            Entry::Vacant(slot) => {
                slot.insert(self.found.len());
                let race = Race { owner, seg, word, word_hi: word, word_count: 1, first, second };
                self.found.push((race, extra(), BTreeSet::from([word])));
            }
        }
    }

    pub(crate) fn finish(self) -> impl Iterator<Item = (Race, X)> {
        self.found.into_iter().map(|(mut race, extra, words)| {
            race.word = *words.first().expect("non-empty word set");
            race.word_hi = *words.last().expect("non-empty word set");
            race.word_count = words.len() as u64;
            (race, extra)
        })
    }
}

/// Build the report-side attribution for one access record.
fn access_info(trace: &Trace, rec: AccessRec) -> AccessInfo {
    let stream = &trace.events[rec.rank as usize];
    let ev = &stream[rec.ev_idx as usize];
    let op = match &ev.event {
        TraceEvent::RemoteOp { kind, .. } => match kind {
            RemoteOpKind::Put => "put",
            RemoteOpKind::Get => "get",
            RemoteOpKind::Acc => "acc",
            RemoteOpKind::Rmw => "rmw",
        }
        .to_string(),
        TraceEvent::LocalAccess { write, .. } => {
            format!("local {}", if *write { "write" } else { "read" })
        }
        other => format!("{other:?}"),
    };
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
