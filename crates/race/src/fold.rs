//! What the folds over [`scioto_analyze::sync::walk`] share: the vector
//! clocks (one relation for [`crate::hb`], two in lockstep for
//! [`crate::predict`]), the per-word access frontier, the site-pair
//! dedup of findings, their attribution and text form — and, for the
//! clock-free passes, the held-lock scan over one rank's stream.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use scioto_analyze::sync::{word_range, LockKey, Pos, Step, SyncWith};
use scioto_sim::{RemoteOpKind, StampedEvent, Trace, TraceEvent};

use crate::hb::{AccessInfo, Race};

/// One 8-byte word of simulated global memory: `(owner rank, seg, word)`.
pub(crate) type WordKey = (u32, u32, u64);

/// A map keyed by small integers from our own traces: words, lock
/// generations, stream positions, barrier epochs. One lookup per word
/// per access is the replay's hot path, so the default SipHash's flood
/// resistance buys nothing and costs a third of a pass: these maps mix
/// with the Fx multiply instead (and, unseeded, iterate in the same
/// order every run).
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
pub(crate) type WordMap<V> = FastMap<WordKey, V>;
pub(crate) type WordSet = HashSet<WordKey, BuildHasherDefault<WordHasher>>;

#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

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
    cur: Vec<Vec<u64>>,
    /// Producer clocks, taken *before* the producer's own tick: an access
    /// after a release stays unordered with the next acquirer.
    snap: FastMap<Pos, Vec<u64>>,
    /// The join each barrier episode's participants leave with.
    barrier: FastMap<u64, Vec<u64>>,
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
        ClockSet { n, cur, snap: FastMap::default(), barrier: FastMap::default(), sync_edges: 0 }
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
        &self.snap[&producer][..self.n]
    }

    /// Join what `step` synchronises-with into its rank's clocks. The one
    /// hook: on a lock edge `weak_lock`, when given, replaces the release's
    /// published clock in every relation but the strong one.
    pub(crate) fn enter(&mut self, step: &Step<'_>, weak_lock: Option<&[u64]>) {
        let n = self.n;
        let cur = &mut self.cur[step.pos.rank as usize];
        match step.sync {
            SyncWith::None => return,
            SyncWith::After(producers) => {
                for p in producers {
                    let published = &self.snap[p];
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
                    let mut all = vec![0u64; cur.len()];
                    for p in participants {
                        join(&mut all, &self.cur[p.rank as usize]);
                    }
                    self.barrier.insert(epoch, all);
                }
                join(&mut self.cur[step.pos.rank as usize], &self.barrier[&epoch]);
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
                self.snap.insert(step.pos, self.cur[r].clone());
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
    /// The rank's own clock component at the access.
    pub(crate) clock: u64,
    pub(crate) write: bool,
    pub(crate) atomic: bool,
}

#[derive(Default)]
struct WordState {
    writes: Vec<AccessRec>,
    reads: Vec<AccessRec>,
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
#[derive(Default)]
pub(crate) struct Frontier {
    pages: FastMap<WordKey, Box<Page>>,
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
            let page = self.pages.entry((a.owner, a.seg, page_no)).or_insert_with(|| {
                Box::new(Page { touched: 0, words: std::array::from_fn(|_| WordState::default()) })
            });
            for w in word..=last {
                let bit = 1u64 << (w % PAGE_WORDS);
                self.words += usize::from(page.touched & bit == 0);
                page.touched |= bit;
                let st = &mut page.words[(w % PAGE_WORDS) as usize];
                let reads = if rec.write { &st.reads[..] } else { &[] };
                for prior in st.writes.iter().chain(reads) {
                    if prior.rank != rec.rank && !(prior.atomic && rec.atomic) {
                        hit(w, prior);
                    }
                }
                let list = if rec.write { &mut st.writes } else { &mut st.reads };
                match list.iter_mut().find(|p| p.rank == rec.rank && p.atomic == rec.atomic) {
                    Some(slot) => *slot = rec,
                    None => list.push(rec),
                }
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
        clock: rec.clock,
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
