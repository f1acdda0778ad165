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
//!   message producers straight from it. Building it is the one shape
//!   check a trace gets (below).
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
//! **Refusals**, one [`SyncError`]: a trace that dropped events; a
//! malformed one, which [`SyncIndex::build`] refuses in its rank-major
//! pass — a stamp before its predecessor's on the same rank, a final clock
//! before the rank's last event, a lock-release generation or message key
//! recorded twice, barrier episodes whose count or epochs differ across
//! ranks (every rank joins every episode); a `MsgRecv` whose send is
//! nowhere in the trace; and a walk that stops with a stream unfinished
//! (any other missing producer). Stamps order nothing in the walk, but no
//! recording — virtual-time or wall-clock — breaks these, so a trace that
//! does was edited or truncated.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use scioto_sim::{tree_children, tree_parent, StampedEvent, Trace, TraceEvent, WaveDir};

/// A mutex: `(target rank, mutex set, index)`.
pub type LockKey = (u32, u32, u32);
/// A termination-detection wave event: `(emitting rank, direction, wave)`.
pub type WaveKey = (u32, WaveDir, u32);

/// A map keyed by small integers from our own traces: words, segments,
/// lock generations, stream positions, barrier epochs. The replays look
/// one up per sync event and the race folds one per access, so the
/// default SipHash's flood resistance buys nothing and costs a third of a
/// race pass: these maps mix with the Fx multiply instead (and, unseeded,
/// iterate in the same order every run).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx multiply-rotate hash of [`FastMap`].
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
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

/// Where an event sits: its rank and its index in that rank's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pos {
    pub rank: u32,
    pub idx: u32,
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
    /// `rank`'s stream, at event `idx` when one event is to blame, breaks
    /// a rule every recording keeps ([`SyncIndex::build`]).
    Malformed { rank: usize, idx: Option<usize>, detail: String },
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
            SyncError::Malformed { rank, idx: Some(idx), detail } => {
                write!(f, "malformed trace: rank {rank}, event {idx}: {detail}")
            }
            SyncError::Malformed { rank, idx: None, detail } => {
                write!(f, "malformed trace: rank {rank}: {detail}")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// A key that many events share: the occurrences of one TD wave, the
/// participants of one barrier epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Wave(WaveKey),
    Barrier(u64),
}

/// Where every sync producer of a trace sits; keys are unique.
#[derive(Debug, Default)]
pub struct SyncIndex {
    /// The `LockRel` of each `(mutex, ownership generation)`.
    pub lock_rel: FastMap<(LockKey, u64), Pos>,
    /// The `MsgSend` of each `(destination, per-destination seq)`.
    pub msg_send: FastMap<(u32, u64), Pos>,
    /// Every TD wave emission and barrier arrival, flat: `keys[i]` is the
    /// key of the event at `pos[i]`. In record order (rank-major) until
    /// [`SyncIndex::build`] groups them by key, each group in that order.
    keys: Vec<GroupKey>,
    pos: Vec<Pos>,
}

impl SyncIndex {
    /// Index `trace` in one rank-major pass, refusing it as
    /// [`SyncError::Malformed`] (see the module docs).
    pub fn build(trace: &Trace) -> Result<Self, SyncError> {
        let mut ix = SyncIndex::default();
        // Rank 0's barrier epochs, in episode order.
        let mut epochs: Vec<u64> = Vec::new();
        for (rank, events) in trace.events.iter().enumerate() {
            let refuse = |idx, detail| Err(SyncError::Malformed { rank, idx, detail });
            let (mut prev_t, mut episode) = (0, 0);
            for (idx, e) in events.iter().enumerate() {
                if e.t_ns < prev_t {
                    let detail =
                        format!("stamp {} precedes the previous event at t={prev_t} (out-of-order)", e.t_ns);
                    return refuse(Some(idx), detail);
                }
                prev_t = e.t_ns;
                if ix.record(Pos { rank: rank as u32, idx: idx as u32 }, &e.event) {
                    let detail = format!("{:?} repeats an earlier {}'s key", e.event, e.event.name());
                    return refuse(Some(idx), detail);
                }
                if let TraceEvent::BarrierWait { epoch, .. } = e.event {
                    match epochs.get(episode) {
                        _ if rank == 0 => epochs.push(epoch),
                        Some(&first) if first != epoch => {
                            let detail = format!(
                                "barrier episode {episode} has epoch {epoch} here but epoch {first} on \
                                 rank 0 (interleaved barrier streams?)"
                            );
                            return refuse(Some(idx), detail);
                        }
                        _ => {}
                    }
                    episode += 1;
                }
            }
            if episode != epochs.len() {
                let detail = format!(
                    "barrier episode count differs across ranks: {episode} here, {} on rank 0 \
                     (truncated trace?)",
                    epochs.len()
                );
                return refuse(None, detail);
            }
            if let Some(&end) = trace.final_clock_ns.get(rank).filter(|&&end| end < prev_t) {
                let detail = format!("final clock {end} precedes the rank's last event at t={prev_t}");
                return refuse(Some(events.len() - 1), detail);
            }
        }
        let mut grouped: Vec<(GroupKey, Pos)> = ix.keys.drain(..).zip(ix.pos.drain(..)).collect();
        grouped.sort_by_key(|&(key, _)| key);
        (ix.keys, ix.pos) = grouped.into_iter().unzip();
        Ok(ix)
    }

    /// Index the event at `pos`; true when it repeats an earlier lock
    /// release's or send's key. [`SyncIndex::build`] feeds every event,
    /// rank-major and in stream order.
    fn record(&mut self, pos: Pos, event: &TraceEvent) -> bool {
        match *event {
            TraceEvent::LockRel { target, set, idx, seq } => {
                return self.lock_rel.insert(((target, set, idx), seq), pos).is_some();
            }
            TraceEvent::MsgSend { dst, seq, .. } => {
                return self.msg_send.insert((dst, seq), pos).is_some();
            }
            TraceEvent::TdWave { wave, dir, .. } => {
                self.keys.push(GroupKey::Wave((pos.rank, dir, wave)));
                self.pos.push(pos);
            }
            TraceEvent::BarrierWait { epoch, .. } => {
                self.keys.push(GroupKey::Barrier(epoch));
                self.pos.push(pos);
            }
            _ => {}
        }
        false
    }

    /// The events of `key`, in stream order, rank-major (of an index
    /// [`SyncIndex::build`] made).
    fn group(&self, key: GroupKey) -> &[Pos] {
        let from = self.keys.partition_point(|&k| k < key);
        let len = self.keys[from..].partition_point(|&k| k == key);
        &self.pos[from..from + len]
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
    let index = SyncIndex::build(trace)?;
    let n = trace.nranks();
    let mut cursors = vec![0usize; n];
    // Wave occurrences each consumer rank has matched, per producer key.
    let mut wave_consumed: FastMap<(u32, WaveKey), usize> = FastMap::default();
    // Barrier arrivals: which ranks are parked at one, how many per epoch.
    let mut parked = vec![false; n];
    let mut arrived: FastMap<u64, usize> = FastMap::default();
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
                        // Waves travel the runtime's binary spanning tree.
                        let producers = match dir {
                            WaveDir::Down | WaveDir::Term => [tree_parent(r), None],
                            WaveDir::Up => {
                                let mut c = tree_children(r, n);
                                [c.next(), c.next()]
                            }
                        };
                        let mut matched = [None; 2];
                        for (slot, p) in matched.iter_mut().zip(producers.into_iter().flatten()) {
                            let key = (r as u32, (p as u32, dir, wave));
                            // A producer that never saw this wave (skipped
                            // episode) gives no edge.
                            let emitted = index.group(GroupKey::Wave(key.1));
                            if emitted.is_empty() {
                                continue;
                            }
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
                        let participants = index.group(GroupKey::Barrier(epoch));
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
                gauges: (0..n).map(|_| Default::default()).collect(),
        }
    }

    /// One walk yield: `(rank, idx, producers)`.
    type Yield = (u32, u32, Vec<(u32, u32)>);

    /// The walk's yields.
    fn yields(trace: &Trace) -> Result<Vec<Yield>, SyncError> {
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
    fn malformed_shapes_are_refused_naming_their_rank_and_event() {
        let refusal = |t: &Trace| walk(t, |_| {}).unwrap_err().to_string();
        let barrier = |epoch| TraceEvent::BarrierWait { dur_ns: 0, epoch };

        let mut t = trace_of(vec![vec![TICK], vec![TICK, TICK]]);
        t.events[1][0].t_ns = 9;
        assert_eq!(
            refusal(&t),
            "malformed trace: rank 1, event 1: stamp 0 precedes the previous event at t=9 (out-of-order)"
        );
        t.events[1][1].t_ns = 9;
        t.final_clock_ns = vec![0, 8];
        assert_eq!(
            refusal(&t),
            "malformed trace: rank 1, event 1: final clock 8 precedes the rank's last event at t=9"
        );

        let t = trace_of(vec![vec![acq(1), rel(1)], vec![acq(2), rel(1)]]);
        assert!(refusal(&t).starts_with("malformed trace: rank 1, event 1: LockRel"), "{}", refusal(&t));
        let send = TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 };
        let t = trace_of(vec![vec![send, TICK, send], vec![]]);
        assert!(refusal(&t).starts_with("malformed trace: rank 0, event 2: MsgSend"), "{}", refusal(&t));

        let t = trace_of(vec![vec![barrier(1), barrier(2)], vec![barrier(1)]]);
        assert_eq!(
            refusal(&t),
            "malformed trace: rank 1: barrier episode count differs across ranks: 1 here, 2 on rank 0 \
             (truncated trace?)"
        );
        let t = trace_of(vec![vec![barrier(1), barrier(2)], vec![barrier(2), barrier(1)]]);
        assert_eq!(
            refusal(&t),
            "malformed trace: rank 1, event 0: barrier episode 0 has epoch 2 here but epoch 1 on rank 0 \
             (interleaved barrier streams?)"
        );
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
