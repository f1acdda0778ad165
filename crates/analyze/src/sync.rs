//! The one definition of "what synchronises with what" in a trace.
//!
//! Virtual timestamps cannot order a trace — unrelated events tie, and a
//! producer can be stamped after its consumer (events are stamped at
//! completion) — so sync edges are paired by the *explicit* data the
//! events carry, once, here:
//!
//! * [`SyncIndex`] — where every producer sits, as `(rank, event idx)`:
//!   each `LockRel` ownership generation, each `MsgSend` per-destination
//!   sequence number, each occurrence of a TD-wave key, each participant
//!   of a barrier epoch. [`crate::replay::lower`] reads its lock and
//!   message producers straight from it.
//! * [`walk`] — the one legal-order replay over the index. The race
//!   checker's happens-before and predictive passes are folds over it
//!   and hold no scheduling logic of their own.
//!
//! # The walk's contract
//!
//! **Order.** Ranks are visited round-robin from rank 0 and each stream
//! runs until its next event is blocked; rounds repeat until none makes
//! progress. Every event is yielded exactly once, after everything it
//! synchronises-with. The order is deterministic and reports follow it.
//!
//! **Readiness** is "the producer has been yielded": a `LockAcq` of
//! generation `s > 1` waits for the `LockRel` of `s − 1` on its mutex; a
//! `MsgRecv` for the `MsgSend` with its destination and sequence number;
//! a `TdWave` for the same `(dir, wave)` at its tree parent (down, term)
//! or at each child (up), matched by per-consumer *occurrence* clamped
//! to what the producer ever emits — wave numbers restart across
//! episodes, so a clamped match is stale: an older event of the same
//! producer rank, an under-approximation of happens-before that can add
//! race reports but never hide one. A producer that never emits the key
//! gives no edge. A `BarrierWait` waits until every participant of its
//! epoch has been *visited* at its arrival; the visitor completing the
//! episode leaves first, the rest as the rounds reach them.
//!
//! **Refusals**, one [`SyncError`]: a trace that dropped events, a
//! `MsgRecv` whose send is nowhere in the trace, and a walk that stops
//! with a stream unfinished (any other missing producer).

use std::collections::HashMap;
use std::fmt;

use scioto_sim::{StampedEvent, Trace, TraceEvent, WaveDir};

/// A mutex: `(target rank, mutex set, index)`.
pub type LockKey = (u32, u32, u32);
/// A termination-detection wave event: `(emitting rank, direction, wave)`.
pub type WaveKey = (u32, WaveDir, u32);

/// Where an event sits: its rank and its index in that rank's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pos {
    pub rank: u32,
    pub idx: u32,
}

/// Parent of `rank` in the termination-detection spanning tree.
pub fn td_parent(rank: u32) -> Option<u32> {
    (rank > 0).then(|| (rank - 1) / 2)
}

/// Children of `rank` in the termination-detection tree of `n` ranks.
pub fn td_children(rank: u32, n: u32) -> impl Iterator<Item = u32> {
    [2 * rank + 1, 2 * rank + 2].into_iter().filter(move |c| *c < n)
}

/// Words overlapped by a byte range (8-byte granularity).
pub fn word_range(offset: u64, bytes: u32) -> std::ops::RangeInclusive<u64> {
    let last = offset + u64::from(bytes.max(1)) - 1;
    (offset / 8)..=(last / 8)
}

/// The first rank whose trace ring overflowed, with its drop count.
pub fn first_dropped(trace: &Trace) -> Option<(usize, u64)> {
    let mut ranks = trace.dropped.iter().enumerate();
    ranks.find_map(|(rank, &d)| (d > 0).then_some((rank, d)))
}

/// Refuse a trace that dropped events: a truncated stream cannot give
/// `goal` ("an exact replay", "a complete lock-order graph").
pub fn refuse_dropped(trace: &Trace, goal: &'static str) -> Result<(), SyncError> {
    match first_dropped(trace) {
        Some((rank, count)) => Err(SyncError::Dropped { rank, count, goal }),
        None => Ok(()),
    }
}

/// Why a trace's sync structure cannot be replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// `rank`'s ring overflowed and dropped `count` events.
    Dropped { rank: usize, count: u64, goal: &'static str },
    /// `rank` receives message `seq`, which no rank sends.
    MissingSend { rank: usize, seq: u64 },
    /// The walk stopped with `rank` blocked at event `idx`: a lock
    /// release, wave or barrier arrival it waits for never comes.
    Stuck { rank: usize, idx: usize, event: StampedEvent },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Dropped { rank, count, goal } => write!(
                f,
                "rank {rank} dropped {count} event(s); rerun with a larger trace ring \
                 (--trace-ring) for {goal}"
            ),
            SyncError::MissingSend { rank, seq } => write!(
                f,
                "rank {rank}: MsgRecv seq {seq} has no matching MsgSend in the trace"
            ),
            SyncError::Stuck { rank, idx, event } => write!(
                f,
                "replay deadlocked: rank {rank} blocked at event {idx} ({:?} at t={}ns); \
                 a synchronization producer is missing from the trace",
                event.event, event.t_ns
            ),
        }
    }
}

impl std::error::Error for SyncError {}

/// Where every sync producer of a trace sits. Keys are unique in a
/// well-formed trace; on a duplicate the later event (rank-major) wins.
#[derive(Debug, Default)]
pub struct SyncIndex {
    /// The `LockRel` of each `(mutex, ownership generation)`.
    pub lock_rel: HashMap<(LockKey, u64), Pos>,
    /// The `MsgSend` of each `(destination, per-destination seq)`.
    pub msg_send: HashMap<(u32, u64), Pos>,
    /// Every emission of each wave key, in stream order.
    pub waves: HashMap<WaveKey, Vec<Pos>>,
    /// The `BarrierWait`s of each epoch, rank-major.
    pub barriers: HashMap<u64, Vec<Pos>>,
}

impl SyncIndex {
    pub fn build(trace: &Trace) -> Self {
        let mut ix = SyncIndex::default();
        for (rank, events) in trace.events.iter().enumerate() {
            for (idx, e) in events.iter().enumerate() {
                ix.record(Pos { rank: rank as u32, idx: idx as u32 }, &e.event);
            }
        }
        ix
    }

    /// Index the event at `pos`; true when it repeats an earlier lock
    /// release's or send's key. Callers feed every event, rank-major and
    /// in stream order ([`crate::replay::lower`] does so from a pass it
    /// makes anyway).
    pub fn record(&mut self, pos: Pos, event: &TraceEvent) -> bool {
        match *event {
            TraceEvent::LockRel { target, set, idx, seq } => {
                return self.lock_rel.insert(((target, set, idx), seq), pos).is_some();
            }
            TraceEvent::MsgSend { dst, seq, .. } => {
                return self.msg_send.insert((dst, seq), pos).is_some();
            }
            TraceEvent::TdWave { wave, dir, .. } => {
                self.waves.entry((pos.rank, dir, wave)).or_default().push(pos);
            }
            TraceEvent::BarrierWait { epoch, .. } => {
                self.barriers.entry(epoch).or_default().push(pos);
            }
            _ => {}
        }
        false
    }
}

/// What a yielded event synchronises-with.
#[derive(Clone, Copy, Debug)]
pub enum SyncWith<'a> {
    /// Nothing: the event is ordered by its own stream only.
    None,
    /// These already-yielded producers: the release before an acquire,
    /// the send of a receive, the (possibly stale) wave occurrences at
    /// the TD parent or children. Never empty.
    After(&'a [Pos]),
    /// Every arrival of barrier episode `epoch`. All participants are
    /// parked at their `BarrierWait` when the `first` one leaves — a fold
    /// must take the episode's join then, from the clocks they arrived
    /// with; by the time the others leave, the early leavers have moved on.
    Barrier { epoch: u64, participants: &'a [Pos], first: bool },
}

/// One yielded event.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    pub pos: Pos,
    pub ev: &'a StampedEvent,
    pub sync: SyncWith<'a>,
}

/// Replay `trace` in the legal order the module docs define, passing
/// every event to `fold` exactly once.
pub fn walk(trace: &Trace, mut fold: impl FnMut(Step<'_>)) -> Result<(), SyncError> {
    refuse_dropped(trace, "an exact replay")?;
    let index = SyncIndex::build(trace);
    let n = trace.nranks();
    let mut cursors = vec![0usize; n];
    // Wave occurrences each consumer rank has matched, per producer key.
    let mut wave_consumed: HashMap<(u32, WaveKey), usize> = HashMap::new();
    // Barrier arrivals: which ranks are parked at one, how many per epoch.
    let mut parked = vec![false; n];
    let mut arrived: HashMap<u64, usize> = HashMap::new();
    let mut after: Vec<Pos> = Vec::new();

    loop {
        let mut progressed = false;
        for r in 0..n {
            'stream: while let Some(ev) = trace.events[r].get(cursors[r]) {
                let yielded = |p: Pos| cursors[p.rank as usize] > p.idx as usize;
                after.clear();
                let mut sync = SyncWith::None;
                // Readiness. Nothing is recorded until the event is known
                // to be ready, so a blocked retry starts from scratch.
                match ev.event {
                    TraceEvent::LockAcq { target, set, idx, seq } if seq > 1 => {
                        match index.lock_rel.get(&((target, set, idx), seq - 1)) {
                            Some(&p) if yielded(p) => after.push(p),
                            _ => break 'stream,
                        }
                    }
                    TraceEvent::MsgRecv { seq, .. } => match index.msg_send.get(&(r as u32, seq)) {
                        None => return Err(SyncError::MissingSend { rank: r, seq }),
                        Some(&p) if yielded(p) => after.push(p),
                        Some(_) => break 'stream,
                    },
                    TraceEvent::TdWave { wave, dir, .. } => {
                        let producers = match dir {
                            WaveDir::Down | WaveDir::Term => [td_parent(r as u32), None],
                            WaveDir::Up => {
                                let mut c = td_children(r as u32, n as u32);
                                [c.next(), c.next()]
                            }
                        };
                        let mut matched = [None; 2];
                        for (slot, p) in matched.iter_mut().zip(producers.into_iter().flatten()) {
                            let key = (r as u32, (p, dir, wave));
                            // A producer that never saw this wave (skipped
                            // episode) gives no edge.
                            let Some(emitted) = index.waves.get(&key.1) else {
                                continue;
                            };
                            let k = wave_consumed.get(&key).copied().unwrap_or(0);
                            let pos = emitted[k.min(emitted.len() - 1)];
                            if !yielded(pos) {
                                break 'stream;
                            }
                            after.push(pos);
                            *slot = Some(key);
                        }
                        for key in matched.into_iter().flatten() {
                            *wave_consumed.entry(key).or_default() += 1;
                        }
                    }
                    TraceEvent::BarrierWait { epoch, .. } => {
                        let participants = &index.barriers[&epoch][..];
                        // An episode is released once its count is full.
                        let count = arrived.entry(epoch).or_default();
                        let first = *count < participants.len();
                        if first && !parked[r] {
                            parked[r] = true;
                            *count += 1;
                        }
                        if *count < participants.len() {
                            break 'stream;
                        }
                        parked[r] = false;
                        sync = SyncWith::Barrier { epoch, participants, first };
                    }
                    _ => {}
                }
                if !after.is_empty() {
                    sync = SyncWith::After(&after);
                }
                let pos = Pos { rank: r as u32, idx: cursors[r] as u32 };
                fold(Step { pos, ev, sync });
                cursors[r] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    match (0..n).find(|&r| cursors[r] < trace.events[r].len()) {
        Some(rank) => {
            let idx = cursors[rank];
            Err(SyncError::Stuck { rank, idx, event: trace.events[rank][idx] })
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(ranks: Vec<Vec<TraceEvent>>) -> Trace {
        let n = ranks.len();
        Trace {
            events: ranks
                .into_iter()
                .map(|evs| evs.into_iter().map(|event| StampedEvent { t_ns: 0, event }).collect())
                .collect(),
            dropped: vec![0; n],
            final_clock_ns: Vec::new(),
            wall_clock: false,
            hists: (0..n).map(|_| Default::default()).collect(),
            gauges: (0..n).map(|_| Default::default()).collect(),
        }
    }

    /// The walk's yields as `(rank, idx, producers)`.
    fn yields(trace: &Trace) -> Result<Vec<(u32, u32, Vec<(u32, u32)>)>, SyncError> {
        let mut out = Vec::new();
        walk(trace, |s| {
            let after = match s.sync {
                SyncWith::None => Vec::new(),
                SyncWith::After(ps) => ps.iter().map(|p| (p.rank, p.idx)).collect(),
                SyncWith::Barrier { participants, first, .. } => {
                    assert_eq!(first, !out.iter().any(|(r, i, _)| participants.contains(&Pos { rank: *r, idx: *i })));
                    participants.iter().map(|p| (p.rank, p.idx)).collect()
                }
            };
            out.push((s.pos.rank, s.pos.idx, after));
        })?;
        Ok(out)
    }

    const TICK: TraceEvent = TraceEvent::QueueDepth { local: 0, shared: 0 };

    fn acq(seq: u64) -> TraceEvent {
        TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq }
    }

    fn rel(seq: u64) -> TraceEvent {
        TraceEvent::LockRel { target: 0, set: 0, idx: 0, seq }
    }

    #[test]
    fn streams_run_until_blocked_and_resume_in_rank_order() {
        // Rank 0 holds generation 2, which rank 1 releases generation 1 for.
        let t = trace_of(vec![vec![TICK, acq(2), rel(2)], vec![acq(1), rel(1), TICK]]);
        let order: Vec<(u32, u32)> = yields(&t).unwrap().into_iter().map(|(r, i, _)| (r, i)).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (1, 1), (1, 2), (0, 1), (0, 2)]);
        assert_eq!(yields(&t).unwrap()[4].2, vec![(1, 1)], "the acquire follows its release");
    }

    #[test]
    fn the_visitor_completing_a_barrier_leaves_first() {
        let b = TraceEvent::BarrierWait { dur_ns: 0, epoch: 7 };
        let t = trace_of(vec![vec![b, TICK], vec![TICK, b], vec![b]]);
        let order: Vec<(u32, u32)> = yields(&t).unwrap().into_iter().map(|(r, i, _)| (r, i)).collect();
        // Ranks 0 and 1 park; rank 2 completes the episode and leaves,
        // then the next round releases the others in rank order.
        assert_eq!(order, vec![(1, 0), (2, 0), (0, 0), (0, 1), (1, 1)]);
        assert_eq!(yields(&t).unwrap()[1].2, vec![(0, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn wave_occurrences_clamp_to_what_the_producer_emits() {
        let down = TraceEvent::TdWave { wave: 1, dir: WaveDir::Down, black: false };
        let up = TraceEvent::TdWave { wave: 1, dir: WaveDir::Up, black: false };
        // Rank 1 sees wave 1 go down twice, its parent only once; rank 0's
        // up-vote waits for both children, rank 2 never votes.
        let t = trace_of(vec![vec![down, up], vec![down, up, down], vec![down]]);
        let y = yields(&t).unwrap();
        let after = |r, i| y.iter().find(|(yr, yi, _)| (*yr, *yi) == (r, i)).unwrap().2.clone();
        assert_eq!(after(1, 0), vec![(0, 0)]);
        assert_eq!(after(1, 2), vec![(0, 0)], "second occurrence is a stale match");
        assert_eq!(after(0, 1), vec![(1, 1)], "rank 2 emits no up-vote: no edge");
        assert_eq!(after(0, 0), vec![], "the root has no parent");
    }

    #[test]
    fn the_three_refusals() {
        let mut t = trace_of(vec![vec![TICK]]);
        t.dropped[0] = 3;
        let e = walk(&t, |_| {}).unwrap_err();
        assert_eq!(e, SyncError::Dropped { rank: 0, count: 3, goal: "an exact replay" });
        assert!(e.to_string().contains("dropped 3 event(s)"), "{e}");

        let t = trace_of(vec![vec![], vec![TraceEvent::MsgRecv { src: 0, seq: 1 }]]);
        assert_eq!(walk(&t, |_| {}).unwrap_err(), SyncError::MissingSend { rank: 1, seq: 1 });

        let t = trace_of(vec![vec![TICK, acq(2)]]);
        let e = walk(&t, |_| {}).unwrap_err();
        assert!(matches!(e, SyncError::Stuck { rank: 0, idx: 1, .. }), "{e:?}");
        assert!(e.to_string().starts_with("replay deadlocked: rank 0 blocked at event 1"), "{e}");
    }

    #[test]
    fn the_index_flags_a_repeated_key_and_keeps_the_later_event() {
        let send = TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 };
        let mut ix = SyncIndex::default();
        assert!(!ix.record(Pos { rank: 0, idx: 0 }, &send));
        assert!(!ix.record(Pos { rank: 0, idx: 1 }, &TICK));
        assert!(ix.record(Pos { rank: 1, idx: 0 }, &send));
        assert_eq!(ix.msg_send[&(1, 1)], Pos { rank: 1, idx: 0 });
    }
}
