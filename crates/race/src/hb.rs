//! The happens-before engine: an offline vector-clock replay of a
//! deterministic virtual-time [`Trace`].
//!
//! # How the replay works
//!
//! Virtual timestamps cannot order a trace, so the engine ignores them:
//! it is a fold over [`scioto_analyze::sync::walk`], which yields every
//! event after the producers it synchronises-with — release → acquire by
//! lock generation, send → receive by sequence number, every arrival of
//! a barrier epoch, parent/children occurrences of a TD wave (see that
//! module for the order, the clamped wave matching and the refusals).
//! The fold keeps one vector clock per rank and, at each event, joins
//! the clocks those producers published; a barrier's participants all
//! leave with the join of their arrival clocks.
//!
//! Producer snapshots are taken *before* the producer's own clock tick,
//! so an access performed after a release is correctly unordered with
//! the acquirer even though both sit on the same rank clock history.
//!
//! # What is a race
//!
//! Memory accesses are `RemoteOp` (one-sided put/get/
//! acc/rmw against `(target, seg, offset)`) and `LocalAccess`
//! (the owner touching its own segment). Two accesses race iff they
//! touch the same 8-byte word of the same rank's segment, neither
//! happens-before the other, at least one is a write, they come from
//! different ranks, and they are not both atomic. `acc`/`rmw` are
//! inherently atomic; `atomic` puts/gets/local accesses are the
//! single-word protocol accesses the runtime declares safe (lock-free
//! index publishes of the split queue, termination-detection token
//! slots).

use std::fmt;

use scioto_analyze::sync::walk;
use scioto_sim::Trace;

use crate::fold::{fmt_access_pair, Access, ClockSet, Frontier, SitePairs};

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
        fmt_access_pair(f, &self.first, &self.second)
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
    let mut clocks = ClockSet::new(trace.nranks(), 1);
    let mut frontier = Frontier::default();
    let mut found = SitePairs::new();
    let mut events = 0u64;
    walk(trace, |step| {
        events += 1;
        clocks.enter(&step, None);
        let rank = step.pos.rank;
        if let Some(a) = Access::of(rank, &step.ev.event) {
            let rec = a.rec(step.pos, clocks.own(rank));
            let now = clocks.rel(rank, 0);
            frontier.access(&a, rec, |word, prior| {
                if prior.clock > now[prior.rank as usize] {
                    found.add(trace, (a.owner, a.seg, word), *prior, rec, || ());
                }
            });
        }
        clocks.leave(&step);
    })
    .map_err(|e| e.to_string())?;
    Ok(RaceReport {
        races: found.finish().map(|(race, ())| race).collect(),
        events,
        sync_edges: clocks.sync_edges,
        words: frontier.words(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use scioto_sim::{RemoteOpKind, TraceEvent, WaveDir};

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
