//! Trace → replay-input lowering: convert a recorded JSONL/in-memory
//! [`Trace`] into a [`scioto_sim::ReplayProgram`] whose timing recurrences
//! the sim's replay engine evaluates without the original workload closure.
//!
//! The lowering derives one [`ReplayOp`] per recorded event and extracts
//! the cross-rank sync structure the tracing layer already records:
//!
//! * `MsgSend{dst, seq}` → `MsgRecv{seq}` on rank `dst` (per-destination
//!   sequence numbers, the same pairing the race checker replays);
//! * `LockRel{…, seq−1}` → `LockAcq{…, seq}` for `seq > 1` (ownership
//!   generations; generation 1 is the initial acquisition);
//! * the k-th `BarrierWait` on every rank forms barrier episode k
//!   (`BarrierWait` is emitted on every rank for every episode);
//! * `Unblock{target}` → the target's first event after its `Block`
//!   (park/wake pairs from mailboxes and termination detection).
//!
//! Edges are added only when the producer's recorded stamp strictly
//! precedes the consumer's. Ties carry no ordering information, and for
//! identity replay edges are redundant anyway — the per-rank completion
//! deltas alone reproduce every recorded stamp; edges exist so a program
//! whose ops are reordered or re-timed (a race or deadlock witness, say)
//! still waits on what each op waited on in the recording.
//!
//! Validation is graceful by construction: a trace that cannot be
//! replayed — ring overflow, missing final clocks (older schema),
//! non-monotone stamps, unmatched sync edges, inconsistent barrier
//! episodes — produces a [`ReplayError`] naming the first offending rank
//! and event, never a panic.

use scioto_sim::{ReplayOp, ReplayProgram, ReplaySync, Trace, TraceEvent};

use crate::sync::{first_dropped, Pos, SyncError, SyncIndex};

/// Why a trace cannot be lowered for replay. `Display` renders the first
/// offending rank/event when one is known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Rank carrying the offending event, when the fault is rank-local.
    pub rank: Option<usize>,
    /// Index of the offending event within the rank's stream.
    pub index: Option<usize>,
    /// Event name and stamp, pre-rendered for the message.
    pub event: Option<String>,
    /// What is wrong.
    pub detail: String,
}

impl ReplayError {
    fn global(detail: String) -> Self {
        ReplayError {
            rank: None,
            index: None,
            event: None,
            detail,
        }
    }

    fn at(trace: &Trace, rank: usize, index: usize, detail: String) -> Self {
        let event = trace.events[rank].get(index).map(|e| {
            format!("{} at t={}", e.event.name(), e.t_ns)
        });
        ReplayError {
            rank: Some(rank),
            index: Some(index),
            event,
            detail,
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace is not replayable: ")?;
        if let (Some(r), Some(i)) = (self.rank, self.index) {
            write!(f, "rank {r}, event {i}")?;
            if let Some(ev) = &self.event {
                write!(f, " ({ev})")?;
            }
            write!(f, ": ")?;
        }
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for ReplayError {}

/// Location of a producing event: (rank, event index, recorded stamp).
type Producer = (u32, u32, u64);

/// Lower `trace` into a replay program, validating replayability.
///
/// Identity guarantee: `run_replay(&lower(t)?)` reproduces `t` byte for
/// byte (events, final clocks, gauge registries) — the property
/// `scioto check` and the figures' `--check` enforce.
pub fn lower(trace: &Trace) -> Result<ReplayProgram, ReplayError> {
    let n = trace.nranks();
    if n == 0 {
        return Err(ReplayError::global("trace covers zero ranks".into()));
    }
    if trace.wall_clock {
        return Err(ReplayError::global(
            "wall-clock (concurrent-mode) trace; replay requires a virtual-time recording \
             — re-record under --mode sim (wall timestamps are not reproducible, so there \
             is no byte-exact schedule to replay)"
                .into(),
        ));
    }
    if let Some((r, d)) = first_dropped(trace) {
        return Err(ReplayError::global(format!(
            "rank {r}: ring overflow dropped {d} event(s); re-record with a larger \
             --trace-ring"
        )));
    }
    if trace.final_clock_ns.len() != n {
        return Err(ReplayError::global(format!(
            "trace carries {} final clock(s) for {n} rank(s) (recorded with an older \
             schema?); per-rank final clocks are required for replay",
            trace.final_clock_ns.len()
        )));
    }

    // The shape the walk also demands (monotone stamps, final clocks at
    // or after the last event, unique producer keys, one barrier episode
    // list), and the producer index lock and message edges come from.
    let index = SyncIndex::build(trace).map_err(|e| match e {
        SyncError::Malformed { rank, idx: Some(i), detail } => ReplayError::at(trace, rank, i, detail),
        e => ReplayError::global(e.to_string()),
    })?;
    let producer = |p: Pos| -> Producer {
        (p.rank, p.idx, trace.events[p.rank as usize][p.idx as usize].t_ns)
    };
    // Per target rank: Unblock events aimed at it, sorted by (stamp, rank,
    // index): blocks consume wakes in stamp order.
    let mut unblocks: Vec<Vec<Producer>> = vec![Vec::new(); n];
    for (r, events) in trace.events.iter().enumerate() {
        for (i, e) in events.iter().enumerate() {
            if let TraceEvent::Unblock { target } = e.event {
                if let Some(list) = unblocks.get_mut(target as usize) {
                    list.push((r as u32, i as u32, e.t_ns));
                }
            }
        }
    }
    for list in &mut unblocks {
        list.sort_by_key(|&(r, i, t)| (t, r, i));
    }

    // Build the per-rank ops.
    let mut ops: Vec<Vec<ReplayOp>> = Vec::with_capacity(n);
    let mut episodes = 0;
    // An edge from a producer stamped strictly before `t_ns` (a tie
    // carries no ordering information).
    let edge = |(pr, pi, pt): Producer, t_ns: u64| {
        if pt >= t_ns {
            return ReplaySync::None;
        }
        ReplaySync::Edge {
            pred_rank: pr,
            pred_idx: pi,
            lag_ns: t_ns - pt,
        }
    };
    for (r, events) in trace.events.iter().enumerate() {
        let mut rank_ops = Vec::with_capacity(events.len());
        let mut prev_t = 0u64;
        let mut episode = 0u32;
        let mut unblock_ptr = 0usize;
        // A pending wake edge: the producer of the Unblock matched to the
        // most recent Block, to be attached to the next event.
        let mut pending_wake: Option<Producer> = None;
        for (i, e) in events.iter().enumerate() {
            let fail = |detail: String| Err(ReplayError::at(trace, r, i, detail));
            let mut sync = ReplaySync::None;
            match e.event {
                TraceEvent::BarrierWait { dur_ns: dur, .. } => {
                    let Some(arrival) = e.t_ns.checked_sub(dur) else {
                        return fail(format!(
                            "barrier wait span starts before t=0 (dur {dur} exceeds the stamp; \
                             corrupt duration span)"
                        ));
                    };
                    if arrival < prev_t {
                        return fail(format!(
                            "barrier wait span starts at t={arrival}, before the previous \
                             event at t={prev_t} (missing or corrupt duration span)"
                        ));
                    }
                    sync = ReplaySync::Barrier {
                        episode,
                        arr_delta_ns: arrival - prev_t,
                        rec_arrival_ns: arrival,
                    };
                    episode += 1;
                    pending_wake = None;
                }
                TraceEvent::MsgRecv { src, seq } => {
                    let Some(&send) = index.msg_send.get(&(r as u32, seq)) else {
                        return fail(format!(
                            "MsgRecv seq {seq} from rank {src} has no matching MsgSend \
                             (missing sync-edge data?)"
                        ));
                    };
                    let send = producer(send);
                    if send.2 > e.t_ns {
                        return fail(format!(
                            "MsgRecv seq {seq} at t={} precedes its MsgSend at t={} (causal \
                             inversion)",
                            e.t_ns, send.2
                        ));
                    }
                    sync = edge(send, e.t_ns);
                    pending_wake = None;
                }
                TraceEvent::LockAcq {
                    target,
                    set,
                    idx,
                    seq,
                } if seq > 1 => {
                    let Some(&release) = index.lock_rel.get(&((target, set, idx), seq - 1)) else {
                        return fail(format!(
                            "lock acquire #{seq} (target {target}, set {set}, idx {idx}) has no \
                             matching release #{} (missing sync-edge data?)",
                            seq - 1
                        ));
                    };
                    let release = producer(release);
                    if release.2 > e.t_ns {
                        return fail(format!(
                            "lock acquire #{seq} at t={} precedes release #{} at t={} (causal \
                             inversion)",
                            e.t_ns,
                            seq - 1,
                            release.2
                        ));
                    }
                    if release.0 as usize != r {
                        sync = edge(release, e.t_ns);
                    }
                    pending_wake = None;
                }
                TraceEvent::Block => {
                    // Match the earliest unconsumed wake aimed at this rank
                    // stamped at or after the park; the *next* event gets
                    // the edge (the park itself is the recorded sleep
                    // start).
                    while unblock_ptr < unblocks[r].len() && unblocks[r][unblock_ptr].2 < e.t_ns {
                        unblock_ptr += 1;
                    }
                    pending_wake = unblocks[r].get(unblock_ptr).copied();
                    unblock_ptr += usize::from(pending_wake.is_some());
                }
                _ => {
                    if let Some(wake) = pending_wake.take().filter(|w| w.0 as usize != r) {
                        sync = edge(wake, e.t_ns);
                    }
                }
            }
            rank_ops.push(ReplayOp {
                ev: e.event,
                delta_ns: e.t_ns - prev_t,
                rec_t_ns: e.t_ns,
                sync,
            });
            prev_t = e.t_ns;
        }
        ops.push(rank_ops);
        episodes = episode as usize;
    }

    let final_gap_ns: Vec<u64> = (0..n)
        .map(|r| {
            let last = trace.events[r].last().map_or(0, |e| e.t_ns);
            trace.final_clock_ns[r] - last
        })
        .collect();

    Ok(ReplayProgram {
        nranks: n,
        ops,
        final_gap_ns,
        rec_final_clock_ns: trace.final_clock_ns.clone(),
        episodes,
        gauges: trace.gauges.clone(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use scioto_sim::{run_replay, StampedEvent, TraceConfig, TraceSink};

    fn trace_of(per_rank: Vec<Vec<StampedEvent>>, final_clocks: Vec<u64>) -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled(), per_rank.len());
        for (rank, events) in per_rank.iter().enumerate() {
            for e in events {
                sink.emit(rank, e.t_ns, || e.event);
            }
        }
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = final_clocks;
        t
    }

    fn ev(t_ns: u64, event: TraceEvent) -> StampedEvent {
        StampedEvent { t_ns, event }
    }

    /// A consistent two-rank trace exercising every sync kind: a message,
    /// a lock hand-off, a barrier, and a park/wake pair.
    pub(crate) fn rich_trace() -> Trace {
        let r0 = vec![
            ev(50, TraceEvent::LockAcq { target: 1, set: 0, idx: 0, seq: 1 }),
            ev(80, TraceEvent::LockRel { target: 1, set: 0, idx: 0, seq: 1 }),
            ev(100, TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 }),
            ev(150, TraceEvent::Unblock { target: 1 }),
            ev(200, TraceEvent::BarrierWait { dur_ns: 40, epoch: 1 }),
        ];
        let r1 = vec![
            ev(90, TraceEvent::Block),
            ev(130, TraceEvent::MsgRecv { src: 0, seq: 1 }),
            ev(
                170,
                TraceEvent::LockAcq { target: 1, set: 0, idx: 0, seq: 2 },
            ),
            ev(
                175,
                TraceEvent::LockRel { target: 1, set: 0, idx: 0, seq: 2 },
            ),
            ev(200, TraceEvent::BarrierWait { dur_ns: 10, epoch: 1 }),
        ];
        trace_of(vec![r0, r1], vec![210, 205])
    }

    #[test]
    fn identity_replay_is_byte_exact() {
        let t = rich_trace();
        let prog = lower(&t).expect("rich trace lowers");
        let replayed = run_replay(&prog);
        assert_eq!(t.to_jsonl(), replayed.to_jsonl());
        assert_eq!(
            crate::analyze(&t).to_json(),
            crate::analyze(&replayed).to_json()
        );
    }

    #[test]
    fn sync_edges_are_derived() {
        let prog = lower(&rich_trace()).unwrap();
        // MsgRecv edge from rank 0's send.
        assert_eq!(
            prog.ops[1][1].sync,
            ReplaySync::Edge { pred_rank: 0, pred_idx: 2, lag_ns: 30 }
        );
        // Lock generation 2 hands off from rank 0's release of gen 1.
        assert_eq!(
            prog.ops[1][2].sync,
            ReplaySync::Edge { pred_rank: 0, pred_idx: 1, lag_ns: 90 }
        );
        // The wake edge landed on the event after the Block — here the
        // MsgRecv already carries a message edge, so the Block's wake
        // matched the same event index but message pairing wins (Block
        // matching only applies to plain successors).
        assert_eq!(prog.episodes, 1);
    }

    #[test]
    fn wall_clock_traces_are_rejected_descriptively() {
        let mut t = rich_trace();
        t.wall_clock = true;
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("wall-clock"), "{e}");
        assert!(e.to_string().contains("virtual-time recording"), "{e}");
        // The message must lead with the standard prefix so callers can
        // classify without a second code path.
        assert!(e.to_string().starts_with("trace is not replayable"), "{e}");
    }

    #[test]
    fn dropped_rings_are_rejected() {
        let mut t = rich_trace();
        t.dropped[1] = 5;
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("ring overflow dropped 5"), "{e}");
    }

    #[test]
    fn missing_final_clocks_are_rejected() {
        let mut t = rich_trace();
        t.final_clock_ns.clear();
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("older schema"), "{e}");
    }

    #[test]
    fn out_of_order_stamps_name_the_event() {
        let t = trace_of(
            vec![vec![
                ev(100, TraceEvent::QueueDepth { local: 1, shared: 0 }),
                ev(50, TraceEvent::QueueDepth { local: 2, shared: 0 }),
            ]],
            vec![100],
        );
        let e = lower(&t).unwrap_err();
        assert_eq!((e.rank, e.index), (Some(0), Some(1)));
        assert!(e.to_string().contains("rank 0, event 1"), "{e}");
        assert!(e.to_string().contains("out-of-order"), "{e}");
    }

    #[test]
    fn unmatched_lock_generation_is_rejected() {
        let t = trace_of(
            vec![vec![ev(
                10,
                TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: 3 },
            )]],
            vec![10],
        );
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("no matching release #2"), "{e}");
        assert!(e.to_string().contains("rank 0, event 0"), "{e}");
    }

    #[test]
    fn unmatched_msg_recv_is_rejected() {
        let t = trace_of(
            vec![vec![ev(10, TraceEvent::MsgRecv { src: 3, seq: 7 })]],
            vec![10],
        );
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("no matching MsgSend"), "{e}");
    }

    #[test]
    fn barrier_count_mismatch_is_rejected() {
        let t = trace_of(
            vec![
                vec![ev(10, TraceEvent::BarrierWait { dur_ns: 5, epoch: 1 })],
                vec![],
            ],
            vec![10, 10],
        );
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("episode count differs"), "{e}");
    }

    #[test]
    fn overlapping_barrier_span_is_rejected() {
        let t = trace_of(
            vec![vec![
                ev(100, TraceEvent::QueueDepth { local: 1, shared: 0 }),
                ev(110, TraceEvent::BarrierWait { dur_ns: 50, epoch: 1 }),
            ]],
            vec![110],
        );
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("before the previous event"), "{e}");
    }

    #[test]
    fn barrier_span_longer_than_its_stamp_is_rejected_not_wrapped() {
        // The parser accepts any `dur`; one exceeding the stamp used to
        // panic in debug and wrap into a bogus arrival delta in release.
        let body = rich_trace().to_jsonl();
        let line = "\"ev\":\"BarrierWait\",\"dur\":40,";
        assert!(body.contains(line));
        let parsed = crate::jsonl::parse(&body.replace(line, "\"ev\":\"BarrierWait\",\"dur\":201,"))
            .expect("a long duration still parses");
        let e = lower(&parsed).unwrap_err();
        assert_eq!((e.rank, e.index), (Some(0), Some(4)));
        assert!(e.to_string().contains("starts before t=0"), "{e}");
    }

    #[test]
    fn final_clock_before_last_event_is_rejected() {
        let t = trace_of(
            vec![vec![ev(100, TraceEvent::QueueDepth { local: 1, shared: 0 })]],
            vec![50],
        );
        let e = lower(&t).unwrap_err();
        assert!(e.to_string().contains("final clock 50 precedes"), "{e}");
    }

    #[test]
    fn truncated_jsonl_feeding_replay_errors_descriptively() {
        let body = rich_trace().to_jsonl();
        // Chop mid-line: the parser, not the lowering, must reject it with
        // a line-numbered message.
        let cut = &body[..body.len() - 15];
        let err = crate::jsonl::parse(cut).unwrap_err();
        assert!(err.contains("line"), "{err}");
    }

    #[test]
    fn dropped_ring_meta_in_jsonl_is_rejected_by_lowering() {
        let mut t = rich_trace();
        t.dropped[0] = 2;
        let parsed = crate::jsonl::parse(&t.to_jsonl()).expect("parses");
        assert_eq!(parsed.dropped, vec![2, 0]);
        let e = lower(&parsed).unwrap_err();
        assert!(e.to_string().contains("ring overflow"), "{e}");
    }
}
