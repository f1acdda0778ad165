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
//! argument lives in DESIGN.md ("Predictive analysis & lint v2").
//!
//! # Protocol atomicity
//!
//! The runtime's `put_atomic`/`get_atomic` markers exempt single-word
//! protocol accesses from race checking; `scioto-lint` forces every
//! call site to *name* its ordering protocol in a comment. This module
//! adds the semantic half ([`check_protocols`]): every word that ever
//! sees an atomic-marked access must match one of the declared
//! protocol shapes across the whole trace —
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

use std::collections::HashMap;
use std::fmt;

use scioto_analyze::sync::{walk, LockKey, Pos, SyncWith};
use scioto_sim::{Trace, TraceEvent};

use crate::fold::{
    fmt_access_pair, join, scan_held, Access, ClockSet, Frontier, SitePairs, WordKey, WordMap,
    WordSet,
};
use crate::hb::AccessInfo;

/// One predicted (schedule-masked) race: conflicting accesses that are
/// unordered under the sync-preserving weak relation but were ordered in
/// the observed run only through a release→acquire edge between two
/// non-conflicting critical sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictedRace {
    /// Rank whose segment slice holds the word(s).
    pub owner: u32,
    /// Segment id.
    pub seg: u32,
    /// Lowest conflicting 8-byte word index.
    pub word: u64,
    /// Highest conflicting 8-byte word index.
    pub word_hi: u64,
    /// Exact number of distinct conflicting words collapsed into this
    /// report.
    pub word_count: u64,
    /// The earlier-replayed access of the unordered pair.
    pub first: AccessInfo,
    /// The later-replayed access of the unordered pair.
    pub second: AccessInfo,
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
        writeln!(
            f,
            "predicted race on rank {} seg {} word{} {} (bytes {}..{}), masked by lock \
             (target {}, set {}, idx {}):",
            self.owner,
            self.seg,
            if self.word_count > 1 { "s" } else { "" },
            if self.word_count > 1 {
                format!("{}..={} ({} words)", self.word, self.word_hi, self.word_count)
            } else {
                format!("{}", self.word)
            },
            self.word * 8,
            self.word_hi * 8 + 8,
            self.lock.0,
            self.lock.1,
            self.lock.2,
        )?;
        fmt_access_pair(f, &self.first, &self.second)?;
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

/// Per-critical-section footprint: word → wrote?
type Footprint = WordMap<bool>;

/// Compute the footprint of every critical section `(lock, generation)`:
/// the words accessed while the section is held, with a write flag.
fn footprints(trace: &Trace) -> HashMap<(LockKey, u64), Footprint> {
    let mut fp: HashMap<(LockKey, u64), Footprint> = HashMap::new();
    for (rank, events) in trace.events.iter().enumerate() {
        scan_held(events, |_, ev, held| {
            let Some(a) = Access::of(rank as u32, &ev.event) else { return };
            for word in a.words() {
                for cs in held {
                    *fp.entry((cs.key, cs.seq)).or_default().entry(word).or_insert(false) |= a.write;
                }
            }
        });
    }
    fp
}

/// Do two critical-section footprints conflict (common word, at least
/// one side writing it)?
fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .any(|(w, wr_s)| big.get(w).is_some_and(|wr_b| *wr_s || *wr_b))
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
/// producers).
pub fn predict(trace: &Trace) -> Result<PredictReport, String> {
    let n = trace.nranks();
    let fp = footprints(trace);
    let empty = Footprint::default();
    let section = |key: LockKey, gen: u64| fp.get(&(key, gen)).unwrap_or(&empty);

    // Relation 0 is the observed happens-before (exactly the HB engine's
    // clock), relation 1 the sync-preserving weak order.
    let mut clocks = ClockSet::new(n, 2);
    // Weak conflict state per (lock, word): release clock of the last
    // critical section that wrote the word, and the release clocks of
    // reading sections since (the FastTrack read-set scheme lifted to
    // critical-section granularity). Joining these at acquire time gives
    // the rel→acq edges from every *conflicting* earlier section without
    // an O(generations²) pairwise scan.
    let mut last_writer: HashMap<(LockKey, WordKey), Vec<u64>> = HashMap::new();
    let mut readers_since: HashMap<(LockKey, WordKey), Vec<Vec<u64>>> = HashMap::new();

    let mut skipped: Vec<SkippedEdge> = Vec::new();
    let mut frontier = Frontier::default();
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
            (TraceEvent::LockAcq { target, set, idx, seq }, SyncWith::After(release)) => {
                Some(((target, set, idx), seq, release[0]))
            }
            _ => None,
        };
        let weak_lock = lock_edge.map(|(key, gen, _)| {
            let mut vc = vec![0u64; n];
            for (word, wrote) in section(key, gen) {
                if let Some(writer) = last_writer.get(&(key, *word)) {
                    join(&mut vc, writer);
                }
                if *wrote {
                    for reader in readers_since.get(&(key, *word)).into_iter().flatten() {
                        join(&mut vc, reader);
                    }
                }
            }
            vc
        });
        clocks.enter(&step, weak_lock.as_deref());

        if let Some(a) = Access::of(rank, &step.ev.event) {
            let rec = a.rec(step.pos, clocks.own(rank));
            let (strong, weak) = (clocks.rel(rank, 0), clocks.rel(rank, 1));
            frontier.access(&a, rec, |word, prior| {
                let ordered = |vc: &[u64]| prior.clock <= vc[prior.rank as usize];
                if ordered(weak) || !ordered(strong) {
                    // Ordered in every schedule we model, or already a plain
                    // HB race the observed-schedule checker reports.
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
                        && clocks.published(e.release)[prior.rank as usize] >= prior.clock
                }) else {
                    return;
                };
                found.add(trace, (a.owner, a.seg, word), *prior, rec, || {
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
            let weak = clocks.rel(rank, 1);
            for (word, wrote) in section(key, seq) {
                if *wrote {
                    last_writer.insert((key, *word), weak.to_vec());
                    readers_since.remove(&(key, *word));
                } else {
                    readers_since.entry((key, *word)).or_default().push(weak.to_vec());
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

    let predicted = found
        .finish()
        .map(|(race, (lock, gen, witness))| PredictedRace {
            owner: race.owner,
            seg: race.seg,
            word: race.word,
            word_hi: race.word_hi,
            word_count: race.word_count,
            first: race.first,
            second: race.second,
            lock,
            gen,
            witness,
        })
        .collect();
    let (atomicity, protocol_words) = check_protocols(trace);

    Ok(PredictReport {
        predicted,
        atomicity,
        events,
        lock_edges,
        dropped_edges,
        protocol_words,
    })
}

/// One access to a protocol word, with the locks held when it ran.
struct ProtoAccess {
    rank: u32,
    write: bool,
    /// Inherently atomic fetch-and-op (`acc`/`rmw`).
    rmw: bool,
    /// Carried the runtime's atomic marker.
    marked: bool,
    held: Vec<LockKey>,
    ev_idx: u32,
}

/// Verify every atomic-marked protocol word against the declared
/// ordering protocols. Returns the violations and the number of
/// protocol words examined. Linear per-rank scan — no clocks needed,
/// the protocols constrain the access *pattern*, not its order.
pub fn check_protocols(trace: &Trace) -> (Vec<AtomicityViolation>, usize) {
    // Pass 1: which words are protocol words (any atomic-marked access)?
    let mut proto = WordSet::default();
    for (rank, events) in trace.events.iter().enumerate() {
        for a in events.iter().filter_map(|ev| Access::of(rank as u32, &ev.event)) {
            if a.atomic {
                proto.extend(a.words());
            }
        }
    }
    // Pass 2: collect every access (atomic or plain) to protocol words,
    // with the lock context it ran under.
    let mut accesses: WordMap<Vec<ProtoAccess>> = WordMap::default();
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
    // Every protocol word has at least its marking access; report in
    // word order.
    let mut words: Vec<(&WordKey, &Vec<ProtoAccess>)> = accesses.iter().collect();
    words.sort_unstable_by_key(|(key, _)| **key);
    for (key, accs) in words {
        let writes: Vec<&ProtoAccess> = accs.iter().filter(|a| a.write).collect();
        let mut writers: Vec<u32> = writes.iter().map(|a| a.rank).collect();
        writers.sort_unstable();
        writers.dedup();
        // single-writer: all writes from one rank.
        if writers.len() <= 1 {
            continue;
        }
        // CAS-chain: every write is an inherently atomic fetch-and-op.
        if writes.iter().all(|a| a.rmw) {
            continue;
        }
        // owner-locked: a common lock across all writes, with every
        // plain (unmarked) read also holding one of the common locks.
        let mut common: Vec<LockKey> = writes.first().map(|a| a.held.clone()).unwrap_or_default();
        for a in &writes {
            common.retain(|k| a.held.contains(k));
        }
        if !common.is_empty() {
            let plain_reads_locked = accs
                .iter()
                .filter(|a| !a.write && !a.marked)
                .all(|a| common.iter().any(|k| a.held.contains(k)));
            if plain_reads_locked {
                continue;
            }
        }
        // marked-flag: every access to the word — read or write, every
        // rank — carries the atomic mark, i.e. all participants declared
        // the single-word discipline (e.g. the TD dirty flag: idempotent
        // blind stores by thieves, read-and-cleared by the owner).
        if accs.iter().all(|a| a.marked) {
            continue;
        }
        let sample = writes
            .iter()
            .find(|a| !a.rmw)
            .or(writes.first())
            .expect("at least two writers");
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
                    "no lock held across all writes".to_string()
                } else {
                    "an unlocked plain read bypasses the common lock".to_string()
                },
                if unmarked.write { "write" } else { "read" },
                unmarked.rank,
                unmarked.ev_idx,
            ),
        });
    }
    (violations, proto.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use scioto_sim::RemoteOpKind;

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
        assert_eq!((p.owner, p.seg, p.word, p.word_count), (0, 0, 0, 1));
        assert_eq!(p.first.rank, 0);
        assert_eq!(p.second.rank, 1);
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
}
