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

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use scioto_sim::{RemoteOpKind, Trace, TraceEvent, WaveDir};

use crate::hb::{attribute, AccessInfo};
use crate::sync::{
    join, refuse_dropped, refuse_stuck, td_children, td_parent, word_range, LockKey,
    ProducerTotals, WaveKey,
};

type WordKey = (u32, u32, u64);

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
        for (tag, a) in [("first", &self.first), ("second", &self.second)] {
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
type Footprint = HashMap<WordKey, bool>;

/// Compute the footprint of every critical section `(lock, generation)`:
/// the words accessed while the section is held, with a write flag.
/// Purely per-rank program order — no cross-rank scheduling needed.
fn footprints(trace: &Trace) -> HashMap<(LockKey, u64), Footprint> {
    let mut fp: HashMap<(LockKey, u64), Footprint> = HashMap::new();
    for (rank, events) in trace.events.iter().enumerate() {
        let mut held: Vec<(LockKey, u64)> = Vec::new();
        for ev in events {
            match &ev.event {
                TraceEvent::LockAcq { target, set, idx, seq } => {
                    held.push(((*target, *set, *idx), *seq));
                }
                TraceEvent::LockRel { target, set, idx, seq } => {
                    held.retain(|(k, s)| *k != (*target, *set, *idx) || *s != *seq);
                }
                TraceEvent::RemoteOp { kind, target, seg, offset, bytes, .. } => {
                    for w in word_range(*offset, *bytes) {
                        for cs in &held {
                            let e = fp.entry(*cs).or_default().entry((*target, *seg, w));
                            *e.or_insert(false) |= kind.is_write();
                        }
                    }
                }
                TraceEvent::LocalAccess { seg, offset, bytes, write, .. } => {
                    for w in word_range(*offset, *bytes) {
                        for cs in &held {
                            let e = fp.entry(*cs).or_default().entry((rank as u32, *seg, w));
                            *e.or_insert(false) |= *write;
                        }
                    }
                }
                _ => {}
            }
        }
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
/// `gen - 1` (on `producer`) and `gen` (on `consumer`) of `lock` do not
/// conflict, so another schedule may run them in the opposite order.
struct SkippedEdge {
    lock: LockKey,
    gen: u64,
    producer: u32,
    consumer: u32,
    /// Consumer's own clock component just after the acquire — anything
    /// with `strong[consumer] >= cons_own` is downstream of the edge.
    cons_own: u64,
}

/// Frontier record of one access (most recent per `(rank, atomic)`
/// class and word, as in the HB engine).
#[derive(Clone, Copy)]
struct Rec {
    rank: u32,
    ev_idx: u32,
    clock: u64,
    write: bool,
    atomic: bool,
}

#[derive(Default)]
struct WordFrontier {
    writes: Vec<Rec>,
    reads: Vec<Rec>,
}

/// Run the sync-preserving predictive analysis: weak-relation replay
/// plus protocol-atomicity sanity. Fails on the same unanalyzable
/// traces as [`crate::hb::check_trace`] (dropped events, missing
/// producers).
pub fn predict(trace: &Trace) -> Result<PredictReport, String> {
    refuse_dropped(trace)?;
    let n = trace.nranks();
    let n32 = n as u32;
    let fp = footprints(trace);
    let empty: Footprint = HashMap::new();
    let empty = &empty;

    let totals = ProducerTotals::count(trace);

    let mut cursors = vec![0usize; n];
    let init_clocks = || -> Vec<Vec<u64>> {
        (0..n)
            .map(|r| {
                let mut c = vec![0u64; n];
                c[r] = 1;
                c
            })
            .collect()
    };
    // Strong = observed happens-before (identical to the HB engine);
    // weak = sync-preserving. Own components tick in lockstep so a
    // rank's position is directly comparable across the two.
    let mut strong: Vec<Vec<u64>> = init_clocks();
    let mut weak: Vec<Vec<u64>> = init_clocks();

    // Producer snapshots, each kept in both relations.
    let mut lock_rel: HashMap<(LockKey, u64), (Vec<u64>, Vec<u64>, u32)> = HashMap::new();
    let mut msg_send: HashMap<(u32, u64), (Vec<u64>, Vec<u64>)> = HashMap::new();
    let mut waves: HashMap<(WaveKey, u64), (Vec<u64>, Vec<u64>)> = HashMap::new();
    let mut wave_emitted: HashMap<WaveKey, u64> = HashMap::new();
    let mut wave_consumed: HashMap<(u32, WaveKey), u64> = HashMap::new();
    let mut barrier_arrived: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut barrier_join: HashMap<u64, (Vec<u64>, Vec<u64>)> = HashMap::new();

    // Weak conflict state per (lock, word): release snapshot of the last
    // critical section that wrote the word, and the release snapshots of
    // reading sections since (the FastTrack read-set scheme lifted to
    // critical-section granularity). Joining these at acquire time gives
    // the rel→acq edges from every *conflicting* earlier section without
    // an O(generations²) pairwise scan.
    let mut last_writer: HashMap<(LockKey, WordKey), Vec<u64>> = HashMap::new();
    let mut readers_since: HashMap<(LockKey, WordKey), Vec<Vec<u64>>> = HashMap::new();

    let mut skipped: Vec<SkippedEdge> = Vec::new();
    let mut frontier: HashMap<WordKey, WordFrontier> = HashMap::new();
    // Raw predictions with their distinct-word sets, keyed by event pair
    // for exact word counting; site-pair dedup happens at the end.
    let mut raw: Vec<(PredictedRace, BTreeSet<u64>)> = Vec::new();
    let mut pair_idx: HashMap<((u32, u32), (u32, u32)), usize> = HashMap::new();

    let mut events_replayed = 0u64;
    let mut lock_edges = 0u64;
    let mut dropped_edges = 0u64;

    loop {
        let mut progressed = false;
        for r in 0..n {
            'stream: while cursors[r] < trace.events[r].len() {
                let ev = &trace.events[r][cursors[r]];
                // Phase 1: readiness on the strong relation (identical
                // scheduling to the HB engine), collecting the incoming
                // strong/weak joins without mutating consume state.
                let mut incoming: Option<(Vec<u64>, Vec<u64>)> = None;
                let mut wave_consumes: Vec<(u32, WaveKey)> = Vec::new();
                match &ev.event {
                    TraceEvent::LockAcq { target, set, idx, seq } => {
                        if *seq > 1 {
                            let key = (*target, *set, *idx);
                            match lock_rel.get(&(key, seq - 1)) {
                                Some((s_vc, _, _)) => {
                                    // Weak side: join every conflicting
                                    // earlier section via the per-word
                                    // conflict state, using this
                                    // section's own footprint.
                                    let mine = fp.get(&(key, *seq)).unwrap_or(empty);
                                    let mut w_vc = vec![0u64; n];
                                    for (word, wrote) in mine {
                                        if let Some(lw) = last_writer.get(&(key, *word)) {
                                            join(&mut w_vc, lw);
                                        }
                                        if *wrote {
                                            if let Some(rs) = readers_since.get(&(key, *word)) {
                                                for rv in rs {
                                                    join(&mut w_vc, rv);
                                                }
                                            }
                                        }
                                    }
                                    incoming = Some((s_vc.clone(), w_vc));
                                }
                                None => break 'stream,
                            }
                        }
                    }
                    TraceEvent::MsgRecv { seq, .. } => {
                        let key = (r as u32, *seq);
                        match msg_send.get(&key) {
                            Some((s_vc, w_vc)) => {
                                incoming = Some((s_vc.clone(), w_vc.clone()))
                            }
                            None => {
                                if totals.msg_send.get(&key).copied().unwrap_or(0) == 0 {
                                    return Err(format!(
                                        "rank {r}: MsgRecv seq {seq} has no matching MsgSend \
                                         in the trace"
                                    ));
                                }
                                break 'stream;
                            }
                        }
                    }
                    TraceEvent::BarrierWait { epoch, .. } => {
                        if let Some((s_j, w_j)) = barrier_join.get(epoch) {
                            incoming = Some((s_j.clone(), w_j.clone()));
                        } else {
                            let arrived = barrier_arrived.entry(*epoch).or_default();
                            if !arrived.contains(&r) {
                                arrived.push(r);
                            }
                            let expect = totals.barrier_expect.get(epoch).copied().unwrap_or(0);
                            if (arrived.len() as u32) < expect {
                                break 'stream;
                            }
                            let mut s_j = vec![0u64; n];
                            let mut w_j = vec![0u64; n];
                            for &p in arrived.iter() {
                                join(&mut s_j, &strong[p]);
                                join(&mut w_j, &weak[p]);
                            }
                            barrier_join.insert(*epoch, (s_j.clone(), w_j.clone()));
                            incoming = Some((s_j, w_j));
                        }
                    }
                    TraceEvent::TdWave { wave, dir, .. } => {
                        let mut s_j = vec![0u64; n];
                        let mut w_j = vec![0u64; n];
                        let mut have_any = false;
                        let mut blocked = false;
                        let producers: Vec<u32> = match dir {
                            WaveDir::Down | WaveDir::Term => {
                                td_parent(r as u32).into_iter().collect()
                            }
                            WaveDir::Up => td_children(r as u32, n32).collect(),
                        };
                        for p in producers {
                            let pkey = (p, *dir, *wave);
                            let total = totals.wave.get(&pkey).copied().unwrap_or(0);
                            if total == 0 {
                                continue;
                            }
                            let ckey = (r as u32, pkey);
                            let k = wave_consumed.get(&ckey).copied().unwrap_or(0) + 1;
                            let want = k.min(total);
                            match waves.get(&(pkey, want)) {
                                Some((s_vc, w_vc)) => {
                                    join(&mut s_j, s_vc);
                                    join(&mut w_j, w_vc);
                                    have_any = true;
                                    wave_consumes.push(ckey);
                                }
                                None => {
                                    blocked = true;
                                    break;
                                }
                            }
                        }
                        if blocked {
                            break 'stream;
                        }
                        if have_any {
                            incoming = Some((s_j, w_j));
                        }
                    }
                    _ => {}
                }

                // Phase 2: commit.
                for ckey in wave_consumes {
                    *wave_consumed.entry(ckey).or_default() += 1;
                }
                if let Some((s_vc, w_vc)) = incoming {
                    join(&mut strong[r], &s_vc);
                    join(&mut weak[r], &w_vc);
                }
                match &ev.event {
                    TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic } => {
                        record(
                            &mut frontier,
                            &mut raw,
                            &mut pair_idx,
                            trace,
                            &strong[r],
                            &weak[r],
                            &skipped,
                            &lock_rel,
                            Rec {
                                rank: r as u32,
                                ev_idx: cursors[r] as u32,
                                clock: strong[r][r],
                                write: kind.is_write(),
                                atomic: *atomic || kind.is_atomic(),
                            },
                            *target,
                            *seg,
                            *offset,
                            *bytes,
                        );
                    }
                    TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                        record(
                            &mut frontier,
                            &mut raw,
                            &mut pair_idx,
                            trace,
                            &strong[r],
                            &weak[r],
                            &skipped,
                            &lock_rel,
                            Rec {
                                rank: r as u32,
                                ev_idx: cursors[r] as u32,
                                clock: strong[r][r],
                                write: *write,
                                atomic: *atomic,
                            },
                            r as u32,
                            *seg,
                            *offset,
                            *bytes,
                        );
                    }
                    TraceEvent::LockRel { target, set, idx, seq } => {
                        let key = (*target, *set, *idx);
                        // Publish the weak conflict state for this
                        // section's footprint before the clock tick.
                        if let Some(mine) = fp.get(&(key, *seq)) {
                            for (word, wrote) in mine {
                                if *wrote {
                                    last_writer.insert((key, *word), weak[r].clone());
                                    readers_since.remove(&(key, *word));
                                } else {
                                    readers_since
                                        .entry((key, *word))
                                        .or_default()
                                        .push(weak[r].clone());
                                }
                            }
                        }
                        lock_rel
                            .insert((key, *seq), (strong[r].clone(), weak[r].clone(), r as u32));
                        strong[r][r] += 1;
                        weak[r][r] += 1;
                    }
                    TraceEvent::MsgSend { dst, seq, .. } => {
                        msg_send.insert((*dst, *seq), (strong[r].clone(), weak[r].clone()));
                        strong[r][r] += 1;
                        weak[r][r] += 1;
                    }
                    TraceEvent::TdWave { wave, dir, .. } => {
                        let key = (r as u32, *dir, *wave);
                        let occ = wave_emitted.entry(key).or_default();
                        *occ += 1;
                        waves.insert((key, *occ), (strong[r].clone(), weak[r].clone()));
                        strong[r][r] += 1;
                        weak[r][r] += 1;
                    }
                    TraceEvent::BarrierWait { .. } => {
                        strong[r][r] += 1;
                        weak[r][r] += 1;
                    }
                    TraceEvent::LockAcq { target, set, idx, seq } => {
                        strong[r][r] += 1;
                        weak[r][r] += 1;
                        if *seq > 1 {
                            let key = (*target, *set, *idx);
                            lock_edges += 1;
                            let prev = fp.get(&(key, seq - 1)).unwrap_or(empty);
                            let mine = fp.get(&(key, *seq)).unwrap_or(empty);
                            if !conflicts(prev, mine) {
                                dropped_edges += 1;
                                let producer =
                                    lock_rel.get(&(key, seq - 1)).map(|(_, _, p)| *p).unwrap_or(0);
                                skipped.push(SkippedEdge {
                                    lock: key,
                                    gen: *seq,
                                    producer,
                                    consumer: r as u32,
                                    cons_own: strong[r][r],
                                });
                            }
                        }
                    }
                    _ => {}
                }
                cursors[r] += 1;
                events_replayed += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    refuse_stuck(trace, &cursors)?;

    // Site-pair dedup: collapse reports sharing (owner, seg) and both
    // access shapes (rank/op/write/atomic each side) into one, with an
    // exact distinct-word count and collapsed offset range.
    let mut grouped: Vec<(PredictedRace, BTreeSet<u64>)> = Vec::new();
    let mut site_idx: HashMap<SiteKey, usize> = HashMap::new();
    for (p, word_set) in raw {
        let key = site_key(&p);
        match site_idx.get(&key) {
            Some(&i) => grouped[i].1.extend(word_set),
            None => {
                site_idx.insert(key, grouped.len());
                grouped.push((p, word_set));
            }
        }
    }
    let predicted: Vec<PredictedRace> = grouped
        .into_iter()
        .map(|(mut p, words)| {
            p.word = *words.iter().next().expect("non-empty word set");
            p.word_hi = *words.iter().next_back().expect("non-empty word set");
            p.word_count = words.len() as u64;
            p
        })
        .collect();

    let (atomicity, protocol_words) = check_protocols(trace);

    Ok(PredictReport {
        predicted,
        atomicity,
        events: events_replayed,
        lock_edges,
        dropped_edges,
        protocol_words,
    })
}

/// Access-site pair identity for dedup: where the word lives plus the
/// shape of both accesses (rank, op string, write/atomic class).
type SiteKey = (u32, u32, (u32, String, bool, bool), (u32, String, bool, bool));

fn site_key(p: &PredictedRace) -> SiteKey {
    (
        p.owner,
        p.seg,
        (p.first.rank, p.first.op.clone(), p.first.write, p.first.atomic),
        (p.second.rank, p.second.op.clone(), p.second.write, p.second.atomic),
    )
}

#[allow(clippy::too_many_arguments)]
fn record(
    frontier: &mut HashMap<WordKey, WordFrontier>,
    raw: &mut Vec<(PredictedRace, BTreeSet<u64>)>,
    pair_idx: &mut HashMap<((u32, u32), (u32, u32)), usize>,
    trace: &Trace,
    strong_cur: &[u64],
    weak_cur: &[u64],
    skipped: &[SkippedEdge],
    lock_rel: &HashMap<(LockKey, u64), (Vec<u64>, Vec<u64>, u32)>,
    rec: Rec,
    owner: u32,
    seg: u32,
    offset: u64,
    bytes: u32,
) {
    for w in word_range(offset, bytes) {
        let st = frontier.entry((owner, seg, w)).or_default();
        let mut consider = |prior: &Rec| {
            if prior.rank == rec.rank || (prior.atomic && rec.atomic) {
                return;
            }
            let weak_ordered = prior.clock <= weak_cur[prior.rank as usize];
            let strong_ordered = prior.clock <= strong_cur[prior.rank as usize];
            if weak_ordered || !strong_ordered {
                // Ordered in every schedule we model, or already a plain
                // HB race the observed-schedule checker reports.
                return;
            }
            let pair = ((prior.rank, prior.ev_idx), (rec.rank, rec.ev_idx));
            if let Some(&i) = pair_idx.get(&pair) {
                raw[i].1.insert(w);
                return;
            }
            // Attribute the masking edge: a dropped release→acquire
            // whose release is strong-downstream of `prior` and whose
            // acquire is strong-upstream of the current access. At least
            // one exists on any strong path between the two.
            let edge = skipped.iter().find(|e| {
                strong_cur[e.consumer as usize] >= e.cons_own
                    && lock_rel
                        .get(&(e.lock, e.gen - 1))
                        .is_some_and(|(s_vc, _, _)| s_vc[prior.rank as usize] >= prior.clock)
            });
            let Some(edge) = edge else {
                // No single dropped edge explains the ordering (it came
                // through a chain the footprint state collapsed); skip
                // rather than misattribute.
                return;
            };
            let witness = format!(
                "swap the non-conflicting critical sections on lock (target {}, set {}, \
                 idx {}): run rank {}'s section #{} before rank {}'s section #{}; the \
                 sections touch no common word, so the accesses become unordered",
                edge.lock.0,
                edge.lock.1,
                edge.lock.2,
                edge.consumer,
                edge.gen,
                edge.producer,
                edge.gen - 1,
            );
            pair_idx.insert(pair, raw.len());
            let mut words = BTreeSet::new();
            words.insert(w);
            raw.push((
                PredictedRace {
                    owner,
                    seg,
                    word: w,
                    word_hi: w,
                    word_count: 0,
                    first: attribute(
                        trace,
                        prior.rank,
                        prior.ev_idx,
                        prior.clock,
                        prior.write,
                        prior.atomic,
                    ),
                    second: attribute(trace, rec.rank, rec.ev_idx, rec.clock, rec.write, rec.atomic),
                    lock: edge.lock,
                    gen: edge.gen,
                    witness,
                },
                words,
            ));
        };
        for prior in &st.writes {
            consider(prior);
        }
        if rec.write {
            for prior in &st.reads {
                consider(prior);
            }
        }
        let list = if rec.write { &mut st.writes } else { &mut st.reads };
        match list
            .iter_mut()
            .find(|a| a.rank == rec.rank && a.atomic == rec.atomic)
        {
            Some(slot) => *slot = rec,
            None => list.push(rec),
        }
    }
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
    let mut proto: BTreeSet<WordKey> = BTreeSet::new();
    for (rank, events) in trace.events.iter().enumerate() {
        for ev in events {
            match &ev.event {
                TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic } => {
                    if *atomic || kind.is_atomic() {
                        for w in word_range(*offset, *bytes) {
                            proto.insert((*target, *seg, w));
                        }
                    }
                }
                TraceEvent::LocalAccess { seg, offset, bytes, atomic, .. } => {
                    if *atomic {
                        for w in word_range(*offset, *bytes) {
                            proto.insert((rank as u32, *seg, w));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Pass 2: collect every access (atomic or plain) to protocol words,
    // with the lock context it ran under.
    let mut accesses: HashMap<WordKey, Vec<ProtoAccess>> = HashMap::new();
    for (rank, events) in trace.events.iter().enumerate() {
        let mut held: Vec<LockKey> = Vec::new();
        for (ev_idx, ev) in events.iter().enumerate() {
            match &ev.event {
                TraceEvent::LockAcq { target, set, idx, .. } => {
                    held.push((*target, *set, *idx));
                }
                TraceEvent::LockRel { target, set, idx, .. } => {
                    if let Some(p) = held.iter().rposition(|k| *k == (*target, *set, *idx)) {
                        held.remove(p);
                    }
                }
                TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic } => {
                    for w in word_range(*offset, *bytes) {
                        let key = (*target, *seg, w);
                        if proto.contains(&key) {
                            accesses.entry(key).or_default().push(ProtoAccess {
                                rank: rank as u32,
                                write: kind.is_write(),
                                rmw: matches!(kind, RemoteOpKind::Acc | RemoteOpKind::Rmw),
                                marked: *atomic || kind.is_atomic(),
                                held: held.clone(),
                                ev_idx: ev_idx as u32,
                            });
                        }
                    }
                }
                TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                    for w in word_range(*offset, *bytes) {
                        let key = (rank as u32, *seg, w);
                        if proto.contains(&key) {
                            accesses.entry(key).or_default().push(ProtoAccess {
                                rank: rank as u32,
                                write: *write,
                                rmw: false,
                                marked: *atomic,
                                held: held.clone(),
                                ev_idx: ev_idx as u32,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut violations = Vec::new();
    for key in &proto {
        let accs = match accesses.get(key) {
            Some(a) => a,
            None => continue,
        };
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
    use scioto_sim::StampedEvent;

    fn trace_of(ranks: Vec<Vec<(u64, TraceEvent)>>) -> Trace {
        let n = ranks.len();
        Trace {
            events: ranks
                .into_iter()
                .map(|evs| {
                    evs.into_iter()
                        .map(|(t_ns, event)| StampedEvent { t_ns, event })
                        .collect()
                })
                .collect(),
            dropped: vec![0; n],
            final_clock_ns: Vec::new(),
            wall_clock: false,
            hists: (0..n).map(|_| Default::default()).collect(),
            gauges: (0..n).map(|_| Default::default()).collect(),
        }
    }

    fn put(target: u32, offset: u64, bytes: u32) -> TraceEvent {
        TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target,
            seg: 0,
            offset,
            bytes,
            atomic: false,
        }
    }

    fn local(offset: u64, bytes: u32, write: bool, atomic: bool) -> TraceEvent {
        TraceEvent::LocalAccess { seg: 0, offset, bytes, write, atomic }
    }

    fn acq(seq: u64) -> TraceEvent {
        TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq }
    }

    fn rel(seq: u64) -> TraceEvent {
        TraceEvent::LockRel { target: 0, set: 0, idx: 0, seq }
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
