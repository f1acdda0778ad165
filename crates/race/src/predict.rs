//! `scioto-predict`: sync-preserving predictive race detection and
//! protocol-atomicity sanity over deterministic traces.
//!
//! # Why prediction
//!
//! The happens-before engine ([`crate::hb`]) certifies the one schedule
//! that actually ran: every release→acquire edge it consumes is an
//! ordering the OS (or the virtual-time kernel) happened to pick, not
//! one the program demanded. Two critical sections on the same lock are
//! mutually exclusive, but if their bodies touch *disjoint* data the
//! lock imposes no ordering on the surrounding accesses — another
//! schedule could run them in the opposite order, and any access pair
//! that was ordered only through that accidental edge becomes a real
//! race. This module re-replays the trace with a *weak* (WCP-style
//! sync-preserving) relation that drops release→acquire edges between
//! non-conflicting critical sections, and reports every conflicting
//! access pair that is weak-unordered but strong-ordered: a race the
//! observed run masked, attributed to the masking lock and a concrete
//! witness reordering (swap the two non-conflicting sections).
//!
//! Soundness shape: the weak relation keeps program order, all
//! message/barrier/TD edges, and release→acquire edges between
//! critical sections whose footprints conflict (at 8-byte word
//! granularity, write against read-or-write) — exactly the edges any
//! schedule of the same trace must respect. Dropping the rest
//! under-approximates ordering, so predictions are candidate races
//! with a syntactic witness, while an empty prediction on top of a
//! clean HB check certifies every schedule that differs only by
//! commuting non-conflicting critical sections. The full soundness
//! argument lives in DESIGN.md ("Predictive analysis").
//!
//! # Protocol atomicity
//!
//! The runtime's `put_atomic`/`get_atomic` markers exempt single-word
//! protocol accesses from race checking; a docs-truth test of
//! `scioto-bench` forces every call site to *name* its ordering protocol
//! in a comment. This module adds the semantic half, folded into
//! [`predict`]'s walk: every word that ever sees an atomic-marked access
//! must match one of the declared protocol shapes across the whole
//! trace —
//!
//! * **single-writer** — all writes to the word come from one rank;
//! * **CAS-chain** — every write is an inherently-atomic `acc`/`rmw`;
//! * **owner-locked** — a common lock is held across every write, and
//!   every plain (non-atomic) read holds it too (atomic reads ride the
//!   protocol and are exempt);
//! * **marked-flag** — every access to the word, read or write from
//!   every rank, carries the atomic mark: the fully-declared
//!   single-word discipline (e.g. the TD dirty flag's idempotent blind
//!   stores, read-and-cleared by the owner).
//!
//! A word matching none of the four is an unexplained suppression:
//! the atomic marker is hiding accesses the race checker should see.

use std::fmt;

use scioto_analyze::sync::{walk, LockKey, Pos, SyncWith};
use scioto_det::runs::{Run, RunMap, RunSet};
use scioto_sim::{Trace, TraceEvent};

use crate::fold::{
    fmt_access_pair, join, scan_held, Access, AccessFrontier, ClockSet, FastMap, Frontier, Held,
    SitePairs, WordKey,
};
use crate::hb::{Race, RaceReport};
use crate::{check_deadlocks, DeadlockReport};

/// One predicted (schedule-masked) race: conflicting accesses that are
/// unordered under the sync-preserving weak relation but were ordered in
/// the observed run only through a release→acquire edge between two
/// non-conflicting critical sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictedRace {
    /// The conflicting words and the unordered access pair, attributed
    /// as the happens-before checker attributes a race.
    pub race: Race,
    /// The masking lock `(target, set, idx)` whose accidental ordering
    /// hid the race in the observed schedule.
    pub lock: LockKey,
    /// Acquire generation of the dropped edge on the masking lock: the
    /// observed run ordered critical section `gen - 1` before `gen`.
    pub gen: u64,
    /// Human-readable witness reordering that exposes the race.
    pub witness: String,
}

impl fmt::Display for PredictedRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.race;
        writeln!(
            f,
            "predicted race on rank {} seg {} word{} {} (bytes {}..{}), masked by lock \
             (target {}, set {}, idx {}):",
            r.owner,
            r.seg,
            if r.word_count > 1 { "s" } else { "" },
            if r.word_count > 1 {
                format!("{}..={} ({} words)", r.word, r.word_hi, r.word_count)
            } else {
                format!("{}", r.word)
            },
            r.word * 8,
            r.word_hi * 8 + 8,
            self.lock.0,
            self.lock.1,
            self.lock.2,
        )?;
        fmt_access_pair(f, &r.first, &r.second)?;
        writeln!(f, "  witness: {}", self.witness)
    }
}

/// One word whose atomic-marked access pattern matches no declared
/// ordering protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicityViolation {
    pub owner: u32,
    pub seg: u32,
    pub word: u64,
    /// Distinct ranks that wrote the word.
    pub writers: Vec<u32>,
    /// Why each protocol shape failed, in order
    /// single-writer / CAS-chain / owner-locked / marked-flag.
    pub detail: String,
}

impl fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "atomicity violation on rank {} seg {} word {}: protocol word matches no \
             declared ordering protocol ({})",
            self.owner, self.seg, self.word, self.detail
        )
    }
}

/// Outcome of a predictive check.
#[derive(Debug)]
pub struct PredictReport {
    /// Predicted schedule-masked races, deduped by access-site pair.
    pub predicted: Vec<PredictedRace>,
    /// Protocol words whose access pattern matches no declared protocol.
    pub atomicity: Vec<AtomicityViolation>,
    /// Events replayed.
    pub events: u64,
    /// Total release→acquire lock edges in the trace.
    pub lock_edges: u64,
    /// Lock edges dropped by the weak relation (non-conflicting
    /// adjacent critical sections).
    pub dropped_edges: u64,
    /// Distinct words carrying at least one atomic-marked access.
    pub protocol_words: usize,
}

impl PredictReport {
    /// True when prediction found nothing beyond the observed-schedule
    /// check.
    pub fn is_clean(&self) -> bool {
        self.predicted.is_empty() && self.atomicity.is_empty()
    }
}

impl fmt::Display for PredictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predict: {} event(s), {}/{} lock edge(s) dropped as non-conflicting, \
             {} protocol word(s), {} predicted race(s), {} atomicity violation(s)",
            self.events,
            self.dropped_edges,
            self.lock_edges,
            self.protocol_words,
            self.predicted.len(),
            self.atomicity.len()
        )?;
        for r in &self.predicted {
            write!(f, "{r}")?;
        }
        for v in &self.atomicity {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// A critical section's footprint: the words accessed while it is held,
/// as the runs of each `(owner, seg)` with a write flag, in `(owner, seg,
/// word)` order.
type Footprint = [((u32, u32), Run<bool>)];

/// Every critical section's footprint, in one buffer: section `s` is
/// `runs[starts[s]..starts[s + 1]]`.
#[derive(Default)]
struct Footprints {
    /// `(lock, generation)` → section number.
    sections: FastMap<(LockKey, u64), usize>,
    starts: Vec<usize>,
    runs: Vec<((u32, u32), Run<bool>)>,
}

impl Footprints {
    /// Compute the footprint of every critical section `(lock,
    /// generation)`. The same scan feeds every access to `protocols`.
    fn new(trace: &Trace, protocols: &mut Protocols) -> Self {
        let mut sections: FastMap<(LockKey, u64), usize> = FastMap::default();
        // Each access made in a section: `(section, (owner, seg), words, write)`.
        let mut touched = Vec::new();
        for (rank, events) in trace.events.iter().enumerate() {
            scan_held(events, |ev_idx, ev, held| {
                let Some(a) = Access::of(rank as u32, &ev.event) else { return };
                protocols.add(rank as u32, &a, held, ev_idx as u32);
                for cs in held {
                    let next = sections.len();
                    let s = *sections.entry((cs.key, cs.seq)).or_insert(next);
                    touched.push((s, (a.owner, a.seg), a.range().into_inner(), a.write));
                }
            });
        }
        // Group the accesses by section and segment, and fold each group
        // into runs. Sections are numbered densely and each made an access.
        touched.sort_unstable_by_key(|&(s, seg, words, _)| (s, seg, words));
        let (mut starts, mut runs) = (Vec::with_capacity(sections.len() + 1), Vec::new());
        let mut seg_runs: RunMap<bool> = RunMap::default();
        for same_seg in touched.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if starts.len() == same_seg[0].0 {
                starts.push(runs.len());
            }
            seg_runs.clear();
            for &(.., (lo, hi), write) in same_seg {
                seg_runs.update(lo..=hi, false, |_, _, wrote| *wrote |= write);
            }
            runs.extend(seg_runs.runs().iter().map(|&run| (same_seg[0].1, run)));
        }
        starts.push(runs.len());
        Footprints { sections, starts, runs }
    }

    /// The footprint of section `gen` of `key` (empty if it touched
    /// nothing, or never ran).
    fn section(&self, key: LockKey, gen: u64) -> &Footprint {
        match self.sections.get(&(key, gen)) {
            Some(&s) => &self.runs[self.starts[s]..self.starts[s + 1]],
            None => &[],
        }
    }
}

/// Do two critical-section footprints conflict (a common word, at least
/// one side writing it)? Both are in `(owner, seg, word)` order: one merge
/// pass over their runs.
fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while let (Some(&&(sa, ra)), Some(&&(sb, rb))) = (a.peek(), b.peek()) {
        if (sa, ra.hi) < (sb, rb.lo) {
            _ = a.next();
        } else if (sb, rb.hi) < (sa, ra.lo) {
            _ = b.next();
        } else if ra.val || rb.val {
            return true;
        } else if ra.hi < rb.hi {
            _ = a.next();
        } else {
            _ = b.next();
        }
    }
    false
}

/// A release→acquire edge the weak relation dropped: critical sections
/// `gen - 1` (released at `release`) and `gen` (on `consumer`) of `lock`
/// do not conflict, so another schedule may run them in the opposite
/// order.
struct SkippedEdge {
    lock: LockKey,
    gen: u64,
    release: Pos,
    consumer: u32,
    /// Consumer's own clock component just after the acquire — anything
    /// with `strong[consumer] >= cons_own` is downstream of the edge.
    cons_own: u64,
}

/// Run the sync-preserving predictive analysis: weak-relation replay
/// plus protocol-atomicity sanity. Fails on the same unanalyzable
/// traces as [`crate::hb::check_trace`] (dropped events, missing
/// producers, a malformed trace).
pub fn predict(trace: &Trace) -> Result<PredictReport, String> {
    predict_with::<Frontier>(trace, true).map(|(_, predicted)| predicted)
}

/// The whole verdict on `trace` from one walk: the happens-before races,
/// the predicted races and atomicity violations, and the lock-order
/// cycles — what [`crate::hb::check_trace`], [`predict`] and
/// [`crate::check_deadlocks`] report one by one.
pub fn check_all(trace: &Trace) -> Result<(RaceReport, PredictReport, DeadlockReport), String> {
    let (hb, predicted) = predict_with::<Frontier>(trace, true)?;
    Ok((hb, predicted, check_deadlocks(trace)?))
}

/// The one fold over [`walk`], keeping the access frontier in an `F`: an
/// access unordered in the strong (observed) relation is a happens-before
/// race; with `weak`, one ordered there only through a dropped lock edge
/// is a predicted race (without, the [`PredictReport`] is empty).
pub(crate) fn predict_with<F: AccessFrontier>(
    trace: &Trace,
    weak: bool,
) -> Result<(RaceReport, PredictReport), String> {
    let n = trace.nranks();
    let mut protocols = if weak { Protocols::new(trace) } else { Protocols::default() };
    let fp = if weak { Footprints::new(trace, &mut protocols) } else { Footprints::default() };
    let section = |key: LockKey, gen: u64| fp.section(key, gen);

    // Relation 0 is the observed happens-before, relation 1 (with `weak`)
    // the sync-preserving weak order.
    let mut clocks = ClockSet::new(n, 1 + usize::from(weak));
    // Weak conflict state per lock, `(owner, seg)` and run of words: the
    // release of the last critical section that wrote the run, and the
    // releases of the sections that read it since (the FastTrack read-set
    // scheme lifted to critical-section granularity). Joining their clocks
    // at acquire time gives the rel→acq edges from every *conflicting*
    // earlier section without an O(generations²) pairwise scan. A release
    // is its weak clock's slot in `released`, counted from 1; the readers
    // are a list through `readers`, whose tails runs share, its nodes
    // `(release, next)` counted from 1 too; 0 is none.
    type WriterReaders = RunMap<(u32, u32)>;
    let mut conflict: FastMap<(LockKey, (u32, u32)), WriterReaders> = FastMap::default();
    let mut released: Vec<u64> = Vec::new();
    let mut readers: Vec<(u32, u32)> = Vec::new();
    let mut weak_lock = vec![0u64; n];

    let mut skipped: Vec<SkippedEdge> = Vec::new();
    let mut frontier = F::default();
    let mut races = SitePairs::new();
    let mut found: SitePairs<(LockKey, u64, String)> = SitePairs::new();
    let mut events = 0u64;
    let mut lock_edges = 0u64;
    let mut dropped_edges = 0u64;

    walk(trace, |step| {
        events += 1;
        let rank = step.pos.rank;
        // The hook: a lock edge's weak side joins only the *conflicting*
        // earlier sections, found through this section's own footprint.
        let lock_edge = match (step.ev.event, step.sync) {
            (TraceEvent::LockAcq { target, set, idx, seq }, SyncWith::After(release)) if weak => {
                Some(((target, set, idx), seq, release[0]))
            }
            _ => None,
        };
        if let Some((key, gen, _)) = lock_edge {
            weak_lock.fill(0);
            let release = |at: u32| &released[(at as usize - 1) * n..at as usize * n];
            for &(seg, run) in section(key, gen) {
                let Some(runs) = conflict.get(&(key, seg)) else { continue };
                for &Run { val: (writer, mut reader), .. } in runs.overlapping(run.lo..=run.hi) {
                    if writer > 0 {
                        join(&mut weak_lock, release(writer));
                    }
                    while run.val && reader > 0 {
                        let (at, next) = readers[reader as usize - 1];
                        join(&mut weak_lock, release(at));
                        reader = next;
                    }
                }
            }
        }
        clocks.enter(&step, lock_edge.map(|_| &weak_lock[..]));

        if let Some(a) = Access::of(rank, &step.ev.event) {
            let rec = a.rec(step.pos, clocks.own(rank));
            let strong = clocks.rel(rank, 0);
            frontier.access(&a, rec, |lo, hi, prior| {
                let ordered = |vc: &[u64]| u64::from(prior.clock) <= vc[prior.rank as usize];
                if !ordered(strong) {
                    races.add(trace, (a.owner, a.seg), lo..=hi, *prior, rec, || ());
                    return;
                }
                if !weak || ordered(clocks.rel(rank, 1)) {
                    // Ordered in every schedule we model.
                    return;
                }
                // Attribute the masking edge: a dropped release→acquire
                // whose release is strong-downstream of `prior` and whose
                // acquire is strong-upstream of the current access. At least
                // one exists on any strong path between the two; if the
                // ordering came through a chain the footprint state
                // collapsed, skip rather than misattribute.
                let Some(edge) = skipped.iter().find(|e| {
                    strong[e.consumer as usize] >= e.cons_own
                        && clocks.published(e.release)[prior.rank as usize] >= u64::from(prior.clock)
                }) else {
                    return;
                };
                found.add(trace, (a.owner, a.seg), lo..=hi, *prior, rec, || {
                    let (target, set, idx) = edge.lock;
                    let witness = format!(
                        "swap the non-conflicting critical sections on lock (target {target}, \
                         set {set}, idx {idx}): run rank {}'s section #{} before rank {}'s \
                         section #{}; the sections touch no common word, so the accesses \
                         become unordered",
                        edge.consumer,
                        edge.gen,
                        edge.release.rank,
                        edge.gen - 1,
                    );
                    (edge.lock, edge.gen, witness)
                });
            });
        }
        if let TraceEvent::LockRel { target, set, idx, seq } = step.ev.event {
            // Publish the weak conflict state for this section's
            // footprint, from the pre-tick clock.
            let key = (target, set, idx);
            let footprint = section(key, seq);
            if !footprint.is_empty() {
                released.extend_from_slice(clocks.rel(rank, 1));
                let at = u32::try_from(released.len() / n).expect("releases are counted in `u32`");
                for &(seg, run) in footprint {
                    let runs = conflict.entry((key, seg)).or_default();
                    runs.update(run.lo..=run.hi, (0, 0), |_, _, (writer, reader)| {
                        if run.val {
                            (*writer, *reader) = (at, 0);
                        } else {
                            readers.push((at, *reader));
                            *reader = u32::try_from(readers.len()).expect("readers are counted in `u32`");
                        }
                    });
                }
            }
        }
        if let Some((key, gen, release)) = lock_edge {
            lock_edges += 1;
            if !conflicts(section(key, gen - 1), section(key, gen)) {
                dropped_edges += 1;
                let cons_own = clocks.own(rank) + 1;
                skipped.push(SkippedEdge { lock: key, gen, release, consumer: rank, cons_own });
            }
        }
        clocks.leave(&step);
    })
    .map_err(|e| e.to_string())?;

    let races = races.finish().map(|(race, ())| race).collect();
    let hb = RaceReport { races, events, sync_edges: clocks.sync_edges, words: frontier.words() };
    let predicted = found
        .finish()
        .map(|(race, (lock, gen, witness))| PredictedRace { race, lock, gen, witness })
        .collect();
    let (atomicity, protocol_words) = protocols.judge();
    let predicted = PredictReport { predicted, atomicity, events, lock_edges, dropped_edges, protocol_words };
    Ok((hb, predicted))
}

/// One protocol word's accesses, folded in stream order (rank by rank,
/// each rank in program order) into what the four protocol shapes and
/// the violation text read. Its size does not grow with the access
/// count: a few lock keys and the distinct lock sets of plain reads.
#[derive(Default)]
struct WordFold {
    /// Distinct ranks that wrote the word, ascending.
    writers: Vec<u32>,
    /// First write that is not an inherently atomic fetch-and-op, as
    /// `(rank, event index)`; none means every write is one (CAS-chain).
    first_plain_write: Option<(u32, u32)>,
    /// Locks held across every write so far (`None` before the first).
    common: Option<Vec<LockKey>>,
    /// Distinct held-lock sets of the unmarked plain reads.
    read_locks: Vec<Vec<LockKey>>,
    /// First access without the atomic mark, as `(rank, write, event
    /// index)`; none means the word is fully marked.
    first_unmarked: Option<(u32, bool, u32)>,
}

impl WordFold {
    fn add(&mut self, rank: u32, a: &Access, held: &[Held], ev_idx: u32) {
        if a.write {
            if let Err(at) = self.writers.binary_search(&rank) {
                self.writers.insert(at, rank);
            }
            if !a.rmw {
                self.first_plain_write.get_or_insert((rank, ev_idx));
            }
            match &mut self.common {
                None => self.common = Some(held.iter().map(|h| h.key).collect()),
                Some(common) => common.retain(|k| held.iter().any(|h| h.key == *k)),
            }
        } else if !a.atomic
            && !self.read_locks.iter().any(|set| set.iter().copied().eq(held.iter().map(|h| h.key)))
        {
            self.read_locks.push(held.iter().map(|h| h.key).collect());
        }
        if !a.atomic {
            self.first_unmarked.get_or_insert((rank, a.write, ev_idx));
        }
    }

    /// The word's violation, if it matches none of the four shapes.
    fn judge(&self, (owner, seg, word): WordKey) -> Option<AtomicityViolation> {
        // single-writer: all writes from one rank.
        if self.writers.len() <= 1 {
            return None;
        }
        // CAS-chain: every write is an inherently atomic fetch-and-op.
        let plain = self.first_plain_write?;
        // owner-locked: a common lock across all writes, with every plain
        // (unmarked) read also holding one of the common locks.
        let common = self.common.as_deref().unwrap_or_default();
        if !common.is_empty()
            && self.read_locks.iter().all(|set| common.iter().any(|k| set.contains(k)))
        {
            return None;
        }
        // marked-flag: every access to the word — read or write, every
        // rank — carries the atomic mark, i.e. all participants declared
        // the single-word discipline (e.g. the TD dirty flag: idempotent
        // blind stores by thieves, read-and-cleared by the owner).
        let (unmarked_rank, unmarked_write, unmarked_idx) = self.first_unmarked?;
        Some(AtomicityViolation {
            owner,
            seg,
            word,
            writers: self.writers.clone(),
            detail: format!(
                "writers from ranks {:?} (not single-writer); plain write by rank {} at \
                 event #{} (not CAS-chain); {} (not owner-locked); unmarked {} by rank {} \
                 at event #{} (not marked-flag)",
                self.writers,
                plain.0,
                plain.1,
                if common.is_empty() {
                    "no lock held across all writes"
                } else {
                    "an unlocked plain read bypasses the common lock"
                },
                if unmarked_write { "write" } else { "read" },
                unmarked_rank,
                unmarked_idx,
            ),
        })
    }
}

/// The atomicity check's state: every protocol word, grouped by
/// segment and sorted, with its [`WordFold`].
#[derive(Default)]
struct Protocols {
    segs: FastMap<(u32, u32), Vec<(u64, WordFold)>>,
}

impl Protocols {
    /// Pass 1: which words are protocol words (any atomic-marked
    /// access)? A segment holds few: an access finds those it touches
    /// with one binary search however many words it spans.
    fn new(trace: &Trace) -> Self {
        let mut words: FastMap<(u32, u32), RunSet> = FastMap::default();
        for (rank, events) in trace.events.iter().enumerate() {
            for a in events.iter().filter_map(|ev| Access::of(rank as u32, &ev.event)) {
                if a.atomic {
                    words.entry((a.owner, a.seg)).or_default().insert(a.range());
                }
            }
        }
        let segs = words.into_iter().map(|(seg, words)| {
            let folds = words.runs().iter().flat_map(|r| r.lo..=r.hi).map(|w| (w, WordFold::default()));
            (seg, folds.collect())
        });
        Protocols { segs: segs.collect() }
    }

    /// Pass 2, one access at a time in stream order: fold access `a`,
    /// event `ev_idx` of `rank` run with `held`, into the protocol words
    /// it touches.
    fn add(&mut self, rank: u32, a: &Access, held: &[Held], ev_idx: u32) {
        // A marked read meets every protocol shape: it changes no fold.
        if a.atomic && !a.write {
            return;
        }
        let Some(words) = self.segs.get_mut(&(a.owner, a.seg)) else { return };
        let (lo, hi) = a.range().into_inner();
        let from = words.partition_point(|(w, _)| *w < lo);
        for (_, fold) in words[from..].iter_mut().take_while(|(w, _)| *w <= hi) {
            fold.add(rank, a, held, ev_idx);
        }
    }

    /// The violations, in word order, and the number of protocol words.
    fn judge(self) -> (Vec<AtomicityViolation>, usize) {
        let mut segs: Vec<_> = self.segs.into_iter().collect();
        segs.sort_unstable_by_key(|(seg, _)| *seg);
        let words = segs.iter().map(|(_, words)| words.len()).sum();
        let violations = segs
            .iter()
            .flat_map(|((owner, seg), words)| {
                words.iter().filter_map(move |(word, fold)| fold.judge((*owner, *seg, *word)))
            })
            .collect();
        (violations, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use crate::fold::WordSet;
    use scioto_sim::RemoteOpKind;

    /// The atomicity check alone, as [`predict`] folds it into its walk:
    /// the violations, in word order, and the number of protocol words.
    /// Two linear passes over each rank's stream, no clocks: the
    /// protocols constrain the access *pattern*, not its order.
    fn check_protocols(trace: &Trace) -> (Vec<AtomicityViolation>, usize) {
        let mut protocols = Protocols::new(trace);
        for (rank, events) in trace.events.iter().enumerate() {
            scan_held(events, |ev_idx, ev, held| {
                if let Some(a) = Access::of(rank as u32, &ev.event) {
                    protocols.add(rank as u32, &a, held, ev_idx as u32);
                }
            });
        }
        protocols.judge()
    }

    /// The canonical masked race: rank 0 writes word 0 before its
    /// critical section (touching word 8), rank 1 writes word 0 after
    /// its critical section (touching word 16). The sections share no
    /// data, so the observed rel→acq edge is accidental.
    fn masked_trace() -> Trace {
        trace_of(vec![
            vec![
                (1, local(0, 8, true, false)),
                (2, acq(1)),
                (3, local(64, 8, true, false)),
                (4, rel(1)),
            ],
            vec![
                (5, acq(2)),
                (6, local(128, 8, true, false)),
                (7, rel(2)),
                (8, put(0, 0, 8)),
            ],
        ])
    }

    #[test]
    fn masked_race_is_predicted_with_lock_and_witness() {
        let t = masked_trace();
        // The observed schedule is HB-clean…
        assert!(crate::hb::check_trace(&t).unwrap().is_clean());
        // …but prediction exposes the masked pair.
        let r = predict(&t).unwrap();
        assert_eq!(r.predicted.len(), 1, "{r}");
        let p = &r.predicted[0];
        let race = &p.race;
        assert_eq!((race.owner, race.seg, race.word, race.word_count), (0, 0, 0, 1));
        assert_eq!(race.first.rank, 0);
        assert_eq!(race.second.rank, 1);
        assert_eq!(p.lock, (0, 0, 0));
        assert_eq!(p.gen, 2);
        assert!(p.witness.contains("swap"), "{}", p.witness);
        assert_eq!(r.lock_edges, 1);
        assert_eq!(r.dropped_edges, 1);
    }

    #[test]
    fn conflicting_sections_keep_their_edge() {
        // Same shape, but both sections write the same word: the lock
        // ordering is semantic, not accidental — nothing is predicted.
        let t = trace_of(vec![
            vec![
                (1, local(0, 8, true, false)),
                (2, acq(1)),
                (3, local(64, 8, true, false)),
                (4, rel(1)),
            ],
            vec![
                (5, acq(2)),
                (6, put(0, 64, 8)),
                (7, rel(2)),
                (8, put(0, 0, 8)),
            ],
        ]);
        let r = predict(&t).unwrap();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.lock_edges, 1);
        assert_eq!(r.dropped_edges, 0);
    }

    #[test]
    fn read_read_sections_do_not_conflict() {
        // Both sections only *read* the same shared word — reads
        // commute, so the edge still drops and the outside race is
        // predicted.
        let t = trace_of(vec![
            vec![
                (1, local(0, 8, true, false)),
                (2, acq(1)),
                (3, local(64, 8, false, false)),
                (4, rel(1)),
            ],
            vec![
                (5, acq(2)),
                (6, TraceEvent::RemoteOp {
                    kind: RemoteOpKind::Get,
                    target: 0,
                    seg: 0,
                    offset: 64,
                    bytes: 8,
                    atomic: false,
                }),
                (7, rel(2)),
                (8, put(0, 0, 8)),
            ],
        ]);
        let r = predict(&t).unwrap();
        assert_eq!(r.dropped_edges, 1, "{r}");
        assert_eq!(r.predicted.len(), 1, "{r}");
    }

    #[test]
    fn plain_hb_races_are_not_re_reported() {
        let t = trace_of(vec![
            vec![(1, local(0, 8, true, false))],
            vec![(2, put(0, 0, 8))],
        ]);
        assert_eq!(crate::hb::check_trace(&t).unwrap().races.len(), 1);
        let r = predict(&t).unwrap();
        assert!(r.predicted.is_empty(), "{r}");
    }

    #[test]
    fn barrier_still_orders_across_dropped_lock_edges() {
        // The masked shape, but a barrier between the two outside writes:
        // the weak relation keeps barrier edges, so nothing is predicted.
        let t = trace_of(vec![
            vec![
                (1, local(0, 8, true, false)),
                (2, acq(1)),
                (3, local(64, 8, true, false)),
                (4, rel(1)),
                (5, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
            ],
            vec![
                (5, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
                (6, acq(2)),
                (7, local(128, 8, true, false)),
                (8, rel(2)),
                (9, put(0, 0, 8)),
            ],
        ]);
        let r = predict(&t).unwrap();
        assert_eq!(r.dropped_edges, 1, "{r}");
        assert!(r.predicted.is_empty(), "{r}");
    }

    #[test]
    fn transitive_conflict_chain_is_kept() {
        // CS1 (rank 0) writes word 8; CS2 (rank 1) reads word 8 — the
        // sections conflict through the lock-protected data, so the
        // surrounding accesses stay ordered.
        let t = trace_of(vec![
            vec![
                (1, local(0, 8, true, false)),
                (2, acq(1)),
                (3, local(64, 8, true, false)),
                (4, rel(1)),
            ],
            vec![
                (5, acq(2)),
                (6, TraceEvent::RemoteOp {
                    kind: RemoteOpKind::Get,
                    target: 0,
                    seg: 0,
                    offset: 64,
                    bytes: 8,
                    atomic: false,
                }),
                (7, rel(2)),
                (8, put(0, 0, 8)),
            ],
        ]);
        let r = predict(&t).unwrap();
        assert_eq!(r.dropped_edges, 0, "{r}");
        assert!(r.predicted.is_empty(), "{r}");
    }

    #[test]
    fn dropped_events_are_an_error() {
        let mut t = trace_of(vec![vec![(5, put(0, 0, 8))]]);
        t.dropped[0] = 3;
        assert!(predict(&t).unwrap_err().contains("dropped 3 event(s)"));
    }

    fn atomic_local(offset: u64, write: bool) -> TraceEvent {
        TraceEvent::LocalAccess { seg: 0, offset, bytes: 8, write, atomic: true }
    }

    fn atomic_put(target: u32, offset: u64) -> TraceEvent {
        TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target,
            seg: 0,
            offset,
            bytes: 8,
            atomic: true,
        }
    }

    fn rmw(target: u32, offset: u64) -> TraceEvent {
        TraceEvent::RemoteOp {
            kind: RemoteOpKind::Rmw,
            target,
            seg: 0,
            offset,
            bytes: 8,
            atomic: false,
        }
    }

    #[test]
    fn single_writer_protocol_is_clean() {
        // Owner publishes, thieves read atomically: the HEAD pattern.
        let t = trace_of(vec![
            vec![(1, atomic_local(0, true)), (2, atomic_local(0, true))],
            vec![(3, TraceEvent::RemoteOp {
                kind: RemoteOpKind::Get,
                target: 0,
                seg: 0,
                offset: 0,
                bytes: 8,
                atomic: true,
            })],
        ]);
        let (v, words) = check_protocols(&t);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(words, 1);
    }

    #[test]
    fn cas_chain_protocol_is_clean() {
        let t = trace_of(vec![
            vec![(1, rmw(0, 0))],
            vec![(2, rmw(0, 0))],
        ]);
        let (v, _) = check_protocols(&t);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn owner_locked_protocol_is_clean() {
        // Two ranks write the word, each under the same lock; a plain
        // read under the lock is fine, and an atomic read outside it is
        // exempt.
        let t = trace_of(vec![
            vec![(1, acq(1)), (2, atomic_local(0, true)), (3, rel(1))],
            vec![
                (4, TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: 2 }),
                (5, atomic_put(0, 0)),
                (6, TraceEvent::LockRel { target: 0, set: 0, idx: 0, seq: 2 }),
                (7, TraceEvent::RemoteOp {
                    kind: RemoteOpKind::Get,
                    target: 0,
                    seg: 0,
                    offset: 0,
                    bytes: 8,
                    atomic: true,
                }),
            ],
        ]);
        let (v, _) = check_protocols(&t);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fully_marked_multi_writer_flag_is_clean() {
        // The TD dirty-flag shape: several ranks blind-store the word,
        // the owner reads it back — every access atomic-marked, no lock.
        let t = trace_of(vec![
            vec![(1, atomic_local(0, true)), (2, atomic_local(0, false))],
            vec![(3, atomic_put(0, 0))],
        ]);
        let (v, words) = check_protocols(&t);
        assert_eq!(words, 1);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unmarked_write_to_protocol_word_violates() {
        // Mixed marking is the hazard the checker exists for: rank 0
        // writes the word plain while rank 1 writes it atomic-marked.
        let t = trace_of(vec![
            vec![(1, local(0, 8, true, false))],
            vec![(2, atomic_put(0, 0))],
        ]);
        let (v, words) = check_protocols(&t);
        assert_eq!(words, 1);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].owner, v[0].seg, v[0].word), (0, 0, 0));
        assert_eq!(v[0].writers, vec![0, 1]);
        assert!(v[0].detail.contains("not single-writer"), "{}", v[0].detail);
        assert!(v[0].detail.contains("no lock held"), "{}", v[0].detail);
        assert!(
            v[0].detail.contains("unmarked write by rank 0"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn unlocked_plain_read_breaks_owner_locked() {
        let t = trace_of(vec![
            vec![(1, acq(1)), (2, atomic_local(0, true)), (3, rel(1))],
            vec![
                (4, TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: 2 }),
                (5, atomic_put(0, 0)),
                (6, TraceEvent::LockRel { target: 0, set: 0, idx: 0, seq: 2 }),
            ],
            vec![(7, TraceEvent::RemoteOp {
                kind: RemoteOpKind::Get,
                target: 0,
                seg: 0,
                offset: 0,
                bytes: 8,
                atomic: false,
            })],
        ]);
        let (v, _) = check_protocols(&t);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("unlocked plain read"), "{}", v[0].detail);
    }

    /// One access to a protocol word, with the locks held when it ran.
    struct ProtoAccess {
        rank: u32,
        write: bool,
        rmw: bool,
        marked: bool,
        held: Vec<LockKey>,
        ev_idx: u32,
    }

    /// The collect-all check the per-word fold replaced, kept as its
    /// oracle: every access to every protocol word is stored, then judged.
    fn check_protocols_oracle(trace: &Trace) -> (Vec<AtomicityViolation>, usize) {
        let mut proto = WordSet::default();
        for (rank, events) in trace.events.iter().enumerate() {
            for a in events.iter().filter_map(|ev| Access::of(rank as u32, &ev.event)) {
                if a.atomic {
                    proto.extend(a.words());
                }
            }
        }
        let mut accesses: FastMap<WordKey, Vec<ProtoAccess>> = FastMap::default();
        for (rank, events) in trace.events.iter().enumerate() {
            scan_held(events, |ev_idx, ev, held| {
                let Some(a) = Access::of(rank as u32, &ev.event) else { return };
                for key in a.words().filter(|key| proto.contains(key)) {
                    accesses.entry(key).or_default().push(ProtoAccess {
                        rank: rank as u32,
                        write: a.write,
                        rmw: a.rmw,
                        marked: a.atomic,
                        held: held.iter().map(|h| h.key).collect(),
                        ev_idx: ev_idx as u32,
                    });
                }
            });
        }
        let mut violations = Vec::new();
        let mut words: Vec<(&WordKey, &Vec<ProtoAccess>)> = accesses.iter().collect();
        words.sort_unstable_by_key(|(key, _)| **key);
        for (key, accs) in words {
            let writes: Vec<&ProtoAccess> = accs.iter().filter(|a| a.write).collect();
            let mut writers: Vec<u32> = writes.iter().map(|a| a.rank).collect();
            writers.sort_unstable();
            writers.dedup();
            if writers.len() <= 1 || writes.iter().all(|a| a.rmw) {
                continue;
            }
            let mut common: Vec<LockKey> = writes.first().map(|a| a.held.clone()).unwrap_or_default();
            for a in &writes {
                common.retain(|k| a.held.contains(k));
            }
            if !common.is_empty()
                && accs
                    .iter()
                    .filter(|a| !a.write && !a.marked)
                    .all(|a| common.iter().any(|k| a.held.contains(k)))
            {
                continue;
            }
            if accs.iter().all(|a| a.marked) {
                continue;
            }
            let sample = writes.iter().find(|a| !a.rmw).or(writes.first()).expect("two writers");
            let unmarked = accs.iter().find(|a| !a.marked).expect("not fully marked");
            violations.push(AtomicityViolation {
                owner: key.0,
                seg: key.1,
                word: key.2,
                writers: writers.clone(),
                detail: format!(
                    "writers from ranks {:?} (not single-writer); plain write by rank {} at \
                     event #{} (not CAS-chain); {} (not owner-locked); unmarked {} by rank {} \
                     at event #{} (not marked-flag)",
                    writers,
                    sample.rank,
                    sample.ev_idx,
                    if common.is_empty() {
                        "no lock held across all writes"
                    } else {
                        "an unlocked plain read bypasses the common lock"
                    },
                    if unmarked.write { "write" } else { "read" },
                    unmarked.rank,
                    unmarked.ev_idx,
                ),
            });
        }
        (violations, proto.len())
    }

    fn assert_matches_oracle(t: &Trace, what: &str) -> Vec<AtomicityViolation> {
        let got = check_protocols(t);
        assert_eq!(got, check_protocols_oracle(t), "{what}");
        got.0
    }

    fn get_atomic(target: u32, offset: u64) -> TraceEvent {
        TraceEvent::RemoteOp { kind: RemoteOpKind::Get, target, seg: 0, offset, bytes: 8, atomic: true }
    }

    #[test]
    fn each_protocol_rule_can_tip_a_word_into_a_violation() {
        let locked = |ev: TraceEvent, seq: u64| {
            vec![(seq * 10, acq(seq)), (seq * 10 + 1, ev), (seq * 10 + 2, rel(seq))]
        };
        // (rule, violating trace, the same trace with that one rule met)
        let cases = [
            (
                "single-writer",
                trace_of(vec![
                    vec![(1, local(0, 8, true, false))],
                    vec![(2, put(0, 0, 8)), (3, get_atomic(0, 0))],
                ]),
                trace_of(vec![vec![(1, local(0, 8, true, false))], vec![(3, get_atomic(0, 0))]]),
            ),
            (
                "CAS-chain",
                trace_of(vec![vec![(1, rmw(0, 0))], vec![(2, rmw(0, 0))], vec![(3, put(0, 0, 8))]]),
                trace_of(vec![vec![(1, rmw(0, 0))], vec![(2, rmw(0, 0))], vec![(3, rmw(0, 0))]]),
            ),
            (
                "owner-locked",
                trace_of(vec![
                    locked(atomic_local(0, true), 1),
                    locked(atomic_put(0, 0), 2),
                    vec![(40, get(0, 0, 8))],
                ]),
                trace_of(vec![
                    locked(atomic_local(0, true), 1),
                    locked(atomic_put(0, 0), 2),
                    locked(get(0, 0, 8), 3),
                ]),
            ),
            (
                "marked-flag",
                trace_of(vec![
                    vec![(1, atomic_local(0, true)), (3, local(0, 8, false, false))],
                    vec![(2, atomic_put(0, 0))],
                ]),
                trace_of(vec![
                    vec![(1, atomic_local(0, true)), (3, atomic_local(0, false))],
                    vec![(2, atomic_put(0, 0))],
                ]),
            ),
        ];
        for (rule, bad, good) in cases {
            let v = assert_matches_oracle(&bad, rule);
            assert_eq!(v.len(), 1, "{rule}: {v:?}");
            assert!(assert_matches_oracle(&good, rule).is_empty(), "{rule}");
        }
    }

    #[test]
    fn protocol_fold_matches_oracle_on_seeded_random_traces() {
        let mut violations = 0;
        for seed in 0..2_000 {
            violations += assert_matches_oracle(&random_trace(seed), &format!("seed {seed}")).len();
        }
        // The corpus exercises the violation text, not only clean words.
        assert!(violations > 100, "{violations}");
    }

    #[test]
    fn protocol_fold_matches_oracle_on_recorded_uts_runs() {
        use scioto_sim::{Machine, MachineConfig, TraceConfig};
        use scioto_uts::presets::{small, tiny};
        use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
        let runs = [
            ("tiny, 1 virtual-time rank", MachineConfig::virtual_time(1), tiny()),
            ("tiny, 4 virtual-time ranks", MachineConfig::virtual_time(4), tiny()),
            ("tiny, 16 virtual-time ranks", MachineConfig::virtual_time(16), tiny()),
            ("small, 16 virtual-time ranks", MachineConfig::virtual_time(16), small()),
            ("tiny, 2 concurrent ranks", MachineConfig::concurrent(2), tiny()),
        ];
        for (seed, (what, cfg, tree)) in runs.into_iter().enumerate() {
            let cfg = cfg
                .with_seed(0xC0FFEE + seed as u64)
                .with_trace(TraceConfig::enabled().with_capacity(1 << 22));
            let run = Machine::run(cfg, move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(tree)).0);
            let t = run.report.trace.expect("tracing was enabled");
            assert_eq!(t.dropped.iter().sum::<u64>(), 0, "{what}");
            assert_matches_oracle(&t, what);
            assert!(check_protocols(&t).1 > 0, "{what}: no protocol words");
        }
    }
}
