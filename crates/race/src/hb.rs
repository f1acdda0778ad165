//! The happens-before engine: an offline vector-clock replay of a
//! deterministic virtual-time [`Trace`].
//!
//! # How the replay works
//!
//! Virtual timestamps alone cannot order a trace — unrelated events on
//! different ranks routinely carry the *same* virtual time, and a
//! synchronization producer can even be stamped later than its consumer
//! (events are stamped at operation completion). The engine therefore
//! ignores timestamps entirely and replays the per-rank event streams
//! with a worklist scheduler driven by *explicit* pairing data carried in
//! the events themselves:
//!
//! * [`TraceEvent::LockAcq`] with ownership generation `s` blocks until
//!   the [`TraceEvent::LockRel`] with generation `s - 1` of the same
//!   `(target, set, idx)` mutex has been replayed (release → acquire
//!   edge);
//! * [`TraceEvent::MsgRecv`] blocks until the [`TraceEvent::MsgSend`]
//!   with the same destination and per-destination sequence number has
//!   been replayed (send → receive edge);
//! * [`TraceEvent::BarrierWait`] carries the barrier epoch; an episode
//!   releases only once every participating rank has arrived, and every
//!   participant leaves with the join of all arrival clocks;
//! * [`TraceEvent::TdWave`] events order the termination-detection tree:
//!   a down-wave at a rank is ordered after the same wave at its parent,
//!   an up-vote after the same wave's votes at its children, and a
//!   termination announcement after the parent's announcement.
//!
//! Wave numbers restart when a task collection is reset between
//! episodes, so wave edges are matched by per-key *occurrence* index,
//! clamped to the number of occurrences the producer ever emits. A
//! clamped (stale) match joins with an older clock of the same producer
//! rank — an under-approximation of happens-before, which can only
//! produce extra race reports, never hide one.
//!
//! Producer snapshots are taken *before* the producer's own clock tick,
//! so an access performed after a release is correctly unordered with
//! the acquirer even though both sit on the same rank clock history.
//!
//! # What is a race
//!
//! Memory accesses are [`TraceEvent::RemoteOp`] (one-sided put/get/
//! acc/rmw against `(target, seg, offset)`) and [`TraceEvent::LocalAccess`]
//! (the owner touching its own segment). Two accesses race iff they
//! touch the same 8-byte word of the same rank's segment, neither
//! happens-before the other, at least one is a write, they come from
//! different ranks, and they are not both atomic. `acc`/`rmw` are
//! inherently atomic; `atomic` puts/gets/local accesses are the
//! single-word protocol accesses the runtime declares safe (lock-free
//! index publishes of the split queue, termination-detection token
//! slots).

use std::collections::HashMap;
use std::fmt;

use scioto_sim::{RemoteOpKind, Trace, TraceEvent, WaveDir};

use crate::sync::{
    join, refuse_dropped, refuse_stuck, td_children, td_parent, word_range, LockKey,
    ProducerTotals, WaveKey,
};

/// A memory access extracted from one trace event (one event may touch
/// several words; the record identifies the event, not the word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AccessRec {
    /// Rank that performed the access.
    rank: u32,
    /// Index of the access event in that rank's event stream.
    ev_idx: u32,
    /// The rank's replay clock (own vector-clock component) at the access.
    clock: u64,
    write: bool,
    atomic: bool,
}

/// Frontier of accesses to one 8-byte word: the most recent write and
/// read per `(rank, atomic)` class. Keeping the per-class latest access
/// is sound: a new access ordered after a rank's latest plain (resp.
/// atomic) access is ordered after all earlier ones of that class.
#[derive(Default)]
struct WordState {
    writes: Vec<AccessRec>,
    reads: Vec<AccessRec>,
}

/// One detected race: two conflicting accesses to the word range
/// `word..=word_hi` (8-byte indices within segment `seg` owned by rank
/// `owner`) with no happens-before order between them.
///
/// Reports are deduplicated by *access-site pair*: all raced words
/// between the same pair of sites (same ranks, operation kinds, and
/// write/atomic classes on the same segment) collapse into one report
/// whose `word_count` counts the distinct 8-byte words exactly. The
/// attributed `first`/`second` events are the earliest raced pair of
/// the site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// Rank whose segment slice holds the words.
    pub owner: u32,
    /// Segment id (`Gmem` creation order).
    pub seg: u32,
    /// Lowest raced 8-byte word index within the owner's slice.
    pub word: u64,
    /// Highest raced word index (equals `word` for single-word races).
    pub word_hi: u64,
    /// Exact number of distinct raced words collapsed into this report.
    pub word_count: u64,
    /// The earlier-replayed access of the unordered pair.
    pub first: AccessInfo,
    /// The later-replayed access of the unordered pair.
    pub second: AccessInfo,
}

/// Attribution of one side of a race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// Rank that performed the access.
    pub rank: u32,
    /// Virtual time stamped on the access event.
    pub t_ns: u64,
    /// The rank's replay (vector-clock) position at the access.
    pub clock: u64,
    /// Operation kind, e.g. `put`, `get`, `local write`, `local read`.
    pub op: String,
    pub write: bool,
    pub atomic: bool,
    /// The nearest synchronization event replayed before this access on
    /// the same rank, as `(virtual time, description)` — the last point
    /// at which this rank synchronized before racing.
    pub nearest_sync: Option<(u64, String)>,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race on rank {} seg {} words {}..={} ({} word(s), bytes {}..{}):",
            self.owner,
            self.seg,
            self.word,
            self.word_hi,
            self.word_count,
            self.word * 8,
            self.word_hi * 8 + 8
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
        Ok(())
    }
}

/// Outcome of a full-trace check.
#[derive(Debug)]
pub struct RaceReport {
    /// Detected races, in deterministic replay order.
    pub races: Vec<Race>,
    /// Events replayed.
    pub events: u64,
    /// Synchronization edges applied (joins).
    pub sync_edges: u64,
    /// Distinct 8-byte words that saw at least one access.
    pub words: usize,
}

impl RaceReport {
    /// True when the trace is race-free.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race check: {} event(s), {} sync edge(s), {} word(s) tracked, {} race(s)",
            self.events,
            self.sync_edges,
            self.words,
            self.races.len()
        )?;
        for r in &self.races {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Check a trace for happens-before races on simulated global memory.
///
/// Fails (with a diagnostic) when the trace dropped events — a truncated
/// stream cannot be replayed faithfully — or when the replay deadlocks
/// because a synchronization producer is missing.
pub fn check_trace(trace: &Trace) -> Result<RaceReport, String> {
    refuse_dropped(trace)?;
    let n = trace.nranks();
    let n32 = n as u32;
    let totals = ProducerTotals::count(trace);

    let mut cursors = vec![0usize; n];
    let mut clocks: Vec<Vec<u64>> = (0..n)
        .map(|r| {
            let mut c = vec![0u64; n];
            c[r] = 1;
            c
        })
        .collect();

    // Producer snapshots (taken before the producer's clock tick).
    let mut lock_rel: HashMap<(LockKey, u64), Vec<u64>> = HashMap::new();
    let mut msg_send: HashMap<(u32, u64), Vec<u64>> = HashMap::new();
    let mut waves: HashMap<(WaveKey, u64), Vec<u64>> = HashMap::new();
    let mut wave_emitted: HashMap<WaveKey, u64> = HashMap::new();
    let mut wave_consumed: HashMap<(u32, WaveKey), u64> = HashMap::new();
    let mut barrier_arrived: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut barrier_join: HashMap<u64, Vec<u64>> = HashMap::new();

    let mut words: HashMap<(u32, u32, u64), WordState> = HashMap::new();
    let mut raws: Vec<RawRace> = Vec::new();
    let mut events_replayed = 0u64;
    let mut sync_edges = 0u64;

    loop {
        let mut progressed = false;
        for r in 0..n {
            'stream: while cursors[r] < trace.events[r].len() {
                let ev = &trace.events[r][cursors[r]];
                // Phase 1: readiness. Collect the incoming join without
                // mutating any consume-tracking state, so a blocked retry
                // starts from scratch.
                let mut incoming: Option<Vec<u64>> = None;
                let mut wave_consumes: Vec<(u32, WaveKey)> = Vec::new();
                match &ev.event {
                    TraceEvent::LockAcq { target, set, idx, seq } => {
                        if *seq > 1 {
                            let key = (*target, *set, *idx);
                            match lock_rel.get(&(key, seq - 1)) {
                                Some(vc) => incoming = Some(vc.clone()),
                                None => break 'stream,
                            }
                        }
                    }
                    TraceEvent::MsgRecv { seq, .. } => {
                        let key = (r as u32, *seq);
                        match msg_send.get(&key) {
                            Some(vc) => incoming = Some(vc.clone()),
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
                        if let Some(j) = barrier_join.get(epoch) {
                            incoming = Some(j.clone());
                        } else {
                            let arrived = barrier_arrived.entry(*epoch).or_default();
                            if !arrived.contains(&r) {
                                arrived.push(r);
                            }
                            let expect = totals.barrier_expect.get(epoch).copied().unwrap_or(0);
                            if (arrived.len() as u32) < expect {
                                break 'stream;
                            }
                            // Last arriver: release the episode with the
                            // join of every participant's arrival clock.
                            let mut j = vec![0u64; n];
                            for &p in arrived.iter() {
                                join(&mut j, &clocks[p]);
                            }
                            barrier_join.insert(*epoch, j.clone());
                            incoming = Some(j);
                        }
                    }
                    TraceEvent::TdWave { wave, dir, .. } => {
                        let mut joined = vec![0u64; n];
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
                                // The producer never saw this wave (skipped
                                // episode); no edge to take.
                                continue;
                            }
                            let ckey = (r as u32, pkey);
                            let k = wave_consumed.get(&ckey).copied().unwrap_or(0) + 1;
                            // Clamp to what the producer ever emits: wave
                            // numbers restart across episodes, so a skipped
                            // wave on one side yields a stale (older, still
                            // happens-before-sound) match.
                            let want = k.min(total);
                            match waves.get(&(pkey, want)) {
                                Some(vc) => {
                                    join(&mut joined, vc);
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
                            incoming = Some(joined);
                        }
                    }
                    _ => {}
                }

                // Phase 2: commit. Apply the join, record accesses, and
                // publish producer snapshots.
                for ckey in wave_consumes {
                    *wave_consumed.entry(ckey).or_default() += 1;
                }
                if let Some(vc) = incoming {
                    join(&mut clocks[r], &vc);
                    sync_edges += 1;
                }
                match &ev.event {
                    TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic } => {
                        record_access(
                            &mut words,
                            &mut raws,
                            &clocks[r],
                            AccessRec {
                                rank: r as u32,
                                ev_idx: cursors[r] as u32,
                                clock: clocks[r][r],
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
                        record_access(
                            &mut words,
                            &mut raws,
                            &clocks[r],
                            AccessRec {
                                rank: r as u32,
                                ev_idx: cursors[r] as u32,
                                clock: clocks[r][r],
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
                        lock_rel.insert(((*target, *set, *idx), *seq), clocks[r].clone());
                        clocks[r][r] += 1;
                    }
                    TraceEvent::MsgSend { dst, seq, .. } => {
                        msg_send.insert((*dst, *seq), clocks[r].clone());
                        clocks[r][r] += 1;
                    }
                    TraceEvent::TdWave { wave, dir, .. } => {
                        let key = (r as u32, *dir, *wave);
                        let occ = wave_emitted.entry(key).or_default();
                        *occ += 1;
                        waves.insert((key, *occ), clocks[r].clone());
                        clocks[r][r] += 1;
                    }
                    TraceEvent::BarrierWait { .. } | TraceEvent::LockAcq { .. } => {
                        clocks[r][r] += 1;
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

    Ok(RaceReport {
        races: dedupe_races(trace, raws),
        events: events_replayed,
        sync_edges,
        words: words.len(),
    })
}

/// One raw (word, unordered-pair) hit recorded during replay, before
/// site-pair deduplication.
struct RawRace {
    owner: u32,
    seg: u32,
    word: u64,
    prior: AccessRec,
    rec: AccessRec,
}

/// Collapse raw hits into site-pair-deduplicated [`Race`] reports: one
/// report per (owner, seg, first-site class, second-site class), where a
/// site class is the access's (rank, operation, write, atomic) tuple.
/// The report keeps the earliest raced event pair and counts the exact
/// set of distinct raced words.
fn dedupe_races(trace: &Trace, raws: Vec<RawRace>) -> Vec<Race> {
    type SiteClass = (u32, String, bool, bool);
    let mut grouped: Vec<(Race, std::collections::BTreeSet<u64>)> = Vec::new();
    let mut index: HashMap<(u32, u32, SiteClass, SiteClass), usize> = HashMap::new();
    for raw in raws {
        let first = access_info(trace, raw.prior);
        let second = access_info(trace, raw.rec);
        let key = (
            raw.owner,
            raw.seg,
            (first.rank, first.op.clone(), first.write, first.atomic),
            (second.rank, second.op.clone(), second.write, second.atomic),
        );
        match index.get(&key) {
            Some(&i) => {
                grouped[i].1.insert(raw.word);
            }
            None => {
                index.insert(key, grouped.len());
                let mut set = std::collections::BTreeSet::new();
                set.insert(raw.word);
                grouped.push((
                    Race {
                        owner: raw.owner,
                        seg: raw.seg,
                        word: raw.word,
                        word_hi: raw.word,
                        word_count: 1,
                        first,
                        second,
                    },
                    set,
                ));
            }
        }
    }
    grouped
        .into_iter()
        .map(|(mut race, set)| {
            race.word = *set.iter().next().expect("non-empty word set");
            race.word_hi = *set.iter().next_back().expect("non-empty word set");
            race.word_count = set.len() as u64;
            race
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn record_access(
    words: &mut HashMap<(u32, u32, u64), WordState>,
    raws: &mut Vec<RawRace>,
    clock: &[u64],
    rec: AccessRec,
    owner: u32,
    seg: u32,
    offset: u64,
    bytes: u32,
) {
    let report = |prior: &AccessRec, w: u64| {
        if prior.rank == rec.rank
            || (prior.atomic && rec.atomic)
            || prior.clock <= clock[prior.rank as usize]
        {
            return None;
        }
        Some(RawRace { owner, seg, word: w, prior: *prior, rec })
    };
    for w in word_range(offset, bytes) {
        let st = words.entry((owner, seg, w)).or_default();
        // A write conflicts with prior writes and reads; a read only with
        // prior writes.
        for prior in &st.writes {
            if let Some(raw) = report(prior, w) {
                raws.push(raw);
            }
        }
        if rec.write {
            for prior in &st.reads {
                if let Some(raw) = report(prior, w) {
                    raws.push(raw);
                }
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

/// Build the report-side attribution for one access on `rank` at event
/// index `ev_idx` with replay clock `clock` (shared with the predictive
/// engine, which reuses the same attribution format).
pub(crate) fn attribute(
    trace: &Trace,
    rank: u32,
    ev_idx: u32,
    clock: u64,
    write: bool,
    atomic: bool,
) -> AccessInfo {
    access_info(trace, AccessRec { rank, ev_idx, clock, write, atomic })
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
    let nearest_sync = stream[..rec.ev_idx as usize]
        .iter()
        .rev()
        .find_map(|e| match &e.event {
            TraceEvent::LockAcq { target, set, idx, seq } => Some((
                e.t_ns,
                format!("lock acquire #{seq} (target {target}, set {set}, idx {idx})"),
            )),
            TraceEvent::LockRel { target, set, idx, seq } => Some((
                e.t_ns,
                format!("lock release #{seq} (target {target}, set {set}, idx {idx})"),
            )),
            TraceEvent::BarrierWait { epoch, .. } => {
                Some((e.t_ns, format!("barrier epoch {epoch}")))
            }
            TraceEvent::MsgSend { dst, seq, .. } => {
                Some((e.t_ns, format!("msg send #{seq} to rank {dst}")))
            }
            TraceEvent::MsgRecv { src, seq } => {
                Some((e.t_ns, format!("msg recv #{seq} from rank {src}")))
            }
            TraceEvent::TdWave { wave, dir, .. } => {
                Some((e.t_ns, format!("td {dir:?}-wave {wave}")))
            }
            _ => None,
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

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::StampedEvent;

    /// Build a trace from per-rank `(t_ns, event)` lists.
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

    fn get(target: u32, offset: u64, bytes: u32) -> TraceEvent {
        TraceEvent::RemoteOp {
            kind: RemoteOpKind::Get,
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

    fn barrier(epoch: u64) -> TraceEvent {
        TraceEvent::BarrierWait { dur_ns: 0, epoch }
    }

    #[test]
    fn unordered_conflicting_writes_race() {
        let t = trace_of(vec![
            vec![(10, local(0, 8, true, false))],
            vec![(20, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert_eq!(r.races.len(), 1);
        let race = &r.races[0];
        assert_eq!((race.owner, race.seg, race.word), (0, 0, 0));
        assert_eq!(race.first.rank, 0);
        assert_eq!(race.first.op, "local write");
        assert_eq!(race.first.clock, 1);
        assert!(race.first.nearest_sync.is_none());
        assert_eq!(race.second.rank, 1);
        assert_eq!(race.second.op, "put");
        assert_eq!(race.second.clock, 1);
        assert_eq!(race.second.t_ns, 20);
    }

    #[test]
    fn lock_ordering_suppresses_race() {
        let t = trace_of(vec![
            vec![(5, acq(1)), (6, local(0, 8, true, false)), (7, rel(1))],
            vec![(1, acq(2)), (2, put(0, 0, 8)), (3, rel(2))],
        ]);
        let r = check_trace(&t).unwrap();
        assert!(r.is_clean(), "{r}");
        assert!(r.sync_edges >= 1);
        assert_eq!(r.events, 6);
    }

    #[test]
    fn access_after_release_races_with_next_critical_section() {
        // Rank 0 writes *after* releasing the lock; rank 1's critical
        // section is ordered after the release but not after the write.
        let t = trace_of(vec![
            vec![(5, acq(1)), (6, rel(1)), (7, local(0, 8, true, false))],
            vec![(8, acq(2)), (9, put(0, 0, 8)), (10, rel(2))],
        ]);
        let r = check_trace(&t).unwrap();
        assert_eq!(r.races.len(), 1, "{r}");
        assert_eq!(r.races[0].first.rank, 0);
        assert_eq!(
            r.races[0].first.nearest_sync.as_ref().unwrap().1,
            "lock release #1 (target 0, set 0, idx 0)"
        );
    }

    #[test]
    fn barrier_orders_accesses() {
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, false)), (9, barrier(0))],
            vec![(9, barrier(0)), (12, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn message_edge_orders_accesses() {
        let t = trace_of(vec![
            vec![
                (5, local(0, 8, true, false)),
                (6, TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 }),
            ],
            vec![(7, TraceEvent::MsgRecv { src: 0, seq: 1 }), (8, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert!(r.is_clean(), "{r}");
        // Without the receive, the same accesses race.
        let t = trace_of(vec![
            vec![
                (5, local(0, 8, true, false)),
                (6, TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 }),
            ],
            vec![(8, put(0, 0, 8))],
        ]);
        assert_eq!(check_trace(&t).unwrap().races.len(), 1);
    }

    #[test]
    fn td_wave_orders_parent_and_child() {
        let down = |wave| TraceEvent::TdWave { wave, dir: WaveDir::Down, black: false };
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, false)), (6, down(1))],
            vec![(7, down(1)), (8, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn both_atomic_accesses_are_exempt() {
        let atomic_put = TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target: 0,
            seg: 0,
            offset: 0,
            bytes: 8,
            atomic: true,
        };
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, true))],
            vec![(6, atomic_put)],
        ]);
        assert!(check_trace(&t).unwrap().is_clean());
        // Atomic vs plain still races.
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, false))],
            vec![(6, atomic_put)],
        ]);
        assert_eq!(check_trace(&t).unwrap().races.len(), 1);
    }

    #[test]
    fn reads_do_not_race_with_reads() {
        let t = trace_of(vec![
            vec![(5, local(0, 8, false, false))],
            vec![(6, get(0, 0, 8))],
        ]);
        assert!(check_trace(&t).unwrap().is_clean());
        // But a read does race with an unordered write.
        let t = trace_of(vec![
            vec![(5, local(0, 8, false, false))],
            vec![(6, put(0, 0, 8))],
        ]);
        assert_eq!(check_trace(&t).unwrap().races.len(), 1);
    }

    #[test]
    fn word_granularity_separates_disjoint_words() {
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, false))],
            vec![(6, put(0, 8, 8))],
        ]);
        assert!(check_trace(&t).unwrap().is_clean());
        // A 16-byte put overlaps both locally written words. Both hits
        // share the same access-site pair (rank 0 local write vs rank 1
        // put), so they collapse into one report counting both words.
        let t = trace_of(vec![
            vec![(5, local(0, 8, true, false)), (6, local(8, 8, true, false))],
            vec![(7, put(0, 0, 16))],
        ]);
        let r = check_trace(&t).unwrap();
        assert_eq!(r.races.len(), 1, "{r}");
        let race = &r.races[0];
        assert_eq!((race.word, race.word_hi, race.word_count), (0, 1, 2));
        // The attributed pair is the earliest raced one.
        assert_eq!(race.first.op, "local write");
        assert_eq!(race.second.op, "put");
    }

    #[test]
    fn dropped_events_are_an_error() {
        let mut t = trace_of(vec![vec![(5, put(0, 0, 8))]]);
        t.dropped[0] = 3;
        let err = check_trace(&t).unwrap_err();
        assert!(err.contains("dropped 3 event(s)"), "{err}");
    }

    #[test]
    fn missing_message_producer_is_an_error() {
        let t = trace_of(vec![
            vec![],
            vec![(7, TraceEvent::MsgRecv { src: 0, seq: 1 })],
        ]);
        let err = check_trace(&t).unwrap_err();
        assert!(err.contains("no matching MsgSend"), "{err}");
    }

    #[test]
    fn missing_lock_release_deadlocks_with_diagnostic() {
        let t = trace_of(vec![vec![(5, acq(2))]]);
        let err = check_trace(&t).unwrap_err();
        assert!(err.contains("replay deadlocked"), "{err}");
        assert!(err.contains("rank 0"), "{err}");
    }

    #[test]
    fn same_rank_accesses_never_race() {
        let t = trace_of(vec![vec![
            (5, local(0, 8, true, false)),
            (6, local(0, 8, true, false)),
        ]]);
        assert!(check_trace(&t).unwrap().is_clean());
    }

    /// Wall-stamped trace with the same per-rank event lists.
    fn wall_trace_of(ranks: Vec<Vec<(u64, TraceEvent)>>) -> Trace {
        let mut t = trace_of(ranks);
        t.wall_clock = true;
        t
    }

    #[test]
    fn wall_clock_traces_check_identically() {
        // The checker pairs by lock generations / message seqs / barrier
        // epochs, never by timestamp, so a wall-clock (concurrent-mode)
        // trace with large non-reproducible stamps yields the same verdict
        // as its virtual-time twin.
        let clean = |mk: fn(Vec<Vec<(u64, TraceEvent)>>) -> Trace| {
            mk(vec![
                vec![
                    (1_234_567, acq(1)),
                    (1_234_900, local(0, 8, true, false)),
                    (1_235_001, rel(1)),
                ],
                vec![
                    (2_987_654, acq(2)),
                    (2_988_000, put(0, 0, 8)),
                    (2_990_000, rel(2)),
                ],
            ])
        };
        let wall = check_trace(&clean(wall_trace_of)).unwrap();
        let virt = check_trace(&clean(trace_of)).unwrap();
        assert!(wall.is_clean(), "{wall}");
        assert_eq!(wall.races.len(), virt.races.len());
        assert_eq!(wall.sync_edges, virt.sync_edges);
        assert_eq!(wall.events, virt.events);
    }

    #[test]
    fn wall_clock_races_are_still_detected() {
        // Wall stamps that *happen* to order the accesses carry no
        // happens-before: without a sync edge the conflict must still be
        // reported, stamps and all.
        let t = wall_trace_of(vec![
            vec![(100_000, local(0, 8, true, false))],
            vec![(900_000, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert_eq!(r.races.len(), 1, "{r}");
        assert_eq!(r.races[0].second.t_ns, 900_000);
    }

    #[test]
    fn wall_clock_barrier_pairing_survives_skewed_stamps() {
        // Concurrent threads reach the same barrier episode at different
        // wall times; epoch pairing must still create the ordering edge.
        let t = wall_trace_of(vec![
            vec![(5_000, local(0, 8, true, false)), (9_000, barrier(0))],
            vec![(42_000, barrier(0)), (50_000, put(0, 0, 8))],
        ]);
        let r = check_trace(&t).unwrap();
        assert!(r.is_clean(), "{r}");
    }
}
