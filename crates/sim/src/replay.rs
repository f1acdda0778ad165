//! Trace-driven replay: re-time a recorded schedule without the original
//! workload closure.
//!
//! A [`ReplayProgram`] is a lowered form of a recorded trace: one
//! [`ReplayOp`] per recorded event, carrying the event template, its
//! completion delta from the previous event on the same rank, and (where
//! the trace records one) a cross-rank sync dependency. [`run_replay`]
//! evaluates the program's timing recurrences directly and rebuilds the
//! replayed trace from each rank's computed event stream.
//!
//! ## Timing model
//!
//! Per rank, events replay in recorded order. For an op with recorded
//! completion `t_i` and predecessor completion `t_{i-1}`:
//!
//! * **Plain op** — completes at `cursor + (t_i − t_{i-1})`: the recorded
//!   inter-completion delta is preserved verbatim.
//! * **Sync edge** (lock hand-off, message receive, unblock wake) —
//!   completes at `max(cursor + delta, T_pred + lag)` where `T_pred` is
//!   the *replayed* completion of the producing op and
//!   `lag = t_i − t_pred` is the recorded slack on the edge. The extra
//!   wait, if any, stretches the event's recorded duration.
//! * **Barrier** — all ranks rendezvous per recorded episode. The episode
//!   shifts by `Δ = max(0, max_r(arrival_new_r − arrival_rec_r))` and every
//!   rank releases at its recorded release time plus `Δ`.
//!
//! When nothing is substituted (identity replay) every derived completion
//! equals its recorded stamp, so the replayed trace — events, final
//! clocks, and the pass-through gauge registries — is byte-identical to
//! the input.
//!
//! ## Evaluation
//!
//! Completion times are `max` recurrences over per-op values, so any
//! order that places each op after its inputs computes the same stamps.
//! [`run_replay`] visits the ranks round-robin and runs each one until its
//! next op waits on a producer op not yet placed, or on a barrier episode
//! some rank has not reached; rounds repeat until every op is placed.
//! Sync edges always point from a strictly earlier recorded stamp to a
//! strictly later one, and intra-rank order is monotone, so a program
//! lowered from a recording always completes. A program that cannot (a
//! dependency cycle, an edge to an op that does not exist) panics naming
//! the first stuck rank, op and sync.

use std::collections::BTreeMap;

use crate::trace::{Gauge, StampedEvent, Trace, TraceEvent};

/// Cross-rank synchronization recorded for one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplaySync {
    /// No recorded dependency: the op replays on the rank's own timeline.
    None,
    /// The op may not complete before op `pred_idx` of `pred_rank` plus
    /// the recorded edge slack.
    Edge {
        /// Producing rank.
        pred_rank: u32,
        /// Index of the producing op in `pred_rank`'s op list.
        pred_idx: u32,
        /// Recorded completion slack `t_consumer − t_producer` (> 0).
        lag_ns: u64,
    },
    /// A barrier episode: all ranks rendezvous on episode `episode`.
    Barrier {
        /// Episode index (the k-th BarrierWait on every rank).
        episode: u32,
        /// Recorded arrival delta from the previous op's completion.
        arr_delta_ns: u64,
        /// Recorded arrival stamp (release − recorded wait duration).
        rec_arrival_ns: u64,
    },
}

/// One recorded event, lowered for replay.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOp {
    /// Event template; its duration ([`TraceEvent::dur_ns`]) is rewritten
    /// on emit when the replay stretches or shifts the op.
    pub ev: TraceEvent,
    /// Recorded completion delta from the previous op on this rank.
    pub delta_ns: u64,
    /// Recorded completion stamp (barrier re-release shifts it by the
    /// episode's delay; identity replay reproduces it exactly).
    pub rec_t_ns: u64,
    /// Cross-rank dependency, if the trace records one.
    pub sync: ReplaySync,
}

/// A fully lowered replay input: per-rank op streams plus the trailing
/// idle gaps and pass-through gauge registries needed to rebuild a
/// byte-identical [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct ReplayProgram {
    /// Rank count of the recorded machine.
    pub nranks: usize,
    /// Per-rank ops in recorded order.
    pub ops: Vec<Vec<ReplayOp>>,
    /// Recorded gap between each rank's last event and its final clock.
    pub final_gap_ns: Vec<u64>,
    /// Recorded final clocks (used verbatim for ranks with no events).
    pub rec_final_clock_ns: Vec<u64>,
    /// Number of barrier episodes (identical on every rank).
    pub episodes: usize,
    /// Gauge registries carried through from the recorded trace.
    pub gauges: Vec<BTreeMap<String, Gauge>>,
}

/// Evaluate `prog`'s timing recurrences and rebuild the replayed trace.
/// Identity replay (a program lowered from a trace, unmodified)
/// reproduces the recorded trace byte for byte.
///
/// # Panics
///
/// If some op can never be placed: the message names its rank, op index
/// and [`ReplaySync`].
pub fn run_replay(prog: &ReplayProgram) -> Trace {
    let n = prog.nranks;
    assert!(n >= 1, "a replay program needs at least one rank");
    assert_eq!(prog.ops.len(), n);
    let mut events: Vec<Vec<StampedEvent>> =
        prog.ops.iter().map(|ops| Vec::with_capacity(ops.len())).collect();
    // Per episode: ranks arrived so far, and the shift (floored at 0).
    let mut episodes = vec![(0usize, 0u64); prog.episodes];
    // Whether each rank has counted its arrival at the barrier it waits on.
    let mut arrived = vec![false; n];

    loop {
        let mut progressed = false;
        for r in 0..n {
            while let Some(op) = prog.ops[r].get(events[r].len()) {
                let cursor = events[r].last().map_or(0, |e| e.t_ns);
                let mut event = op.ev;
                let t_ns = match op.sync {
                    ReplaySync::None => cursor + op.delta_ns,
                    ReplaySync::Edge { pred_rank, pred_idx, lag_ns } => {
                        let pred = events.get(pred_rank as usize);
                        let Some(pred) = pred.and_then(|p| p.get(pred_idx as usize)) else {
                            break;
                        };
                        let base = cursor + op.delta_ns;
                        let t_ns = base.max(pred.t_ns + lag_ns);
                        // The wait the replay introduced stretches the span.
                        if let Some(dur) = event.dur_mut() {
                            *dur += t_ns - base;
                        }
                        t_ns
                    }
                    ReplaySync::Barrier { episode, arr_delta_ns, rec_arrival_ns } => {
                        let Some((count, shift)) = episodes.get_mut(episode as usize) else {
                            break;
                        };
                        let arrival = cursor + arr_delta_ns;
                        if !arrived[r] {
                            arrived[r] = true;
                            *count += 1;
                            *shift = (*shift).max(arrival.saturating_sub(rec_arrival_ns));
                        }
                        if *count < n {
                            break;
                        }
                        arrived[r] = false;
                        // The shift is at least this rank's own, so the
                        // release never precedes the replayed arrival; the
                        // span is the new arrival→release.
                        let t_ns = op.rec_t_ns + *shift;
                        if let Some(dur) = event.dur_mut() {
                            *dur = t_ns - arrival;
                        }
                        t_ns
                    }
                };
                events[r].push(StampedEvent { t_ns, event });
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    if let Some(r) = (0..n).find(|&r| events[r].len() < prog.ops[r].len()) {
        let idx = events[r].len();
        panic!(
            "replay is stuck: rank {r}, op {idx} waits on {:?}, which can never complete",
            prog.ops[r][idx].sync
        );
    }
    let final_clock_ns = (0..n)
        .map(|r| match events[r].last() {
            None => prog.rec_final_clock_ns[r],
            Some(last) => last.t_ns + prog.final_gap_ns[r],
        })
        .collect();
    Trace {
        events,
        dropped: vec![0; n],
        final_clock_ns,
        wall_clock: false,
        gauges: prog.gauges.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_dur(ev: &TraceEvent) -> u64 {
        ev.dur_ns().unwrap_or(0)
    }

    fn plain(ev: TraceEvent, delta: u64, rec_t: u64) -> ReplayOp {
        ReplayOp {
            ev,
            delta_ns: delta,
            rec_t_ns: rec_t,
            sync: ReplaySync::None,
        }
    }

    fn qd(depth: u32) -> TraceEvent {
        TraceEvent::QueueDepth {
            local: depth,
            shared: 0,
        }
    }

    /// Two ranks, a message edge, a barrier, and trailing idle gaps:
    /// identity replay must reproduce the recorded stamps exactly.
    fn two_rank_program() -> ReplayProgram {
        // Rank 0: send at 100, barrier arrive 150 release 200.
        // Rank 1: recv at 130 (edge from r0 op0, lag 30), barrier arrive
        //         160 release 200.
        let r0 = vec![
            ReplayOp {
                ev: TraceEvent::MsgSend {
                    dst: 1,
                    bytes: 8,
                    seq: 1,
                },
                delta_ns: 100,
                rec_t_ns: 100,
                sync: ReplaySync::None,
            },
            ReplayOp {
                ev: TraceEvent::BarrierWait {
                    dur_ns: 50,
                    epoch: 1,
                },
                delta_ns: 100,
                rec_t_ns: 200,
                sync: ReplaySync::Barrier {
                    episode: 0,
                    arr_delta_ns: 50,
                    rec_arrival_ns: 150,
                },
            },
        ];
        let r1 = vec![
            ReplayOp {
                ev: TraceEvent::MsgRecv { src: 0, seq: 1 },
                delta_ns: 130,
                rec_t_ns: 130,
                sync: ReplaySync::Edge {
                    pred_rank: 0,
                    pred_idx: 0,
                    lag_ns: 30,
                },
            },
            ReplayOp {
                ev: TraceEvent::BarrierWait {
                    dur_ns: 40,
                    epoch: 1,
                },
                delta_ns: 70,
                rec_t_ns: 200,
                sync: ReplaySync::Barrier {
                    episode: 0,
                    arr_delta_ns: 30,
                    rec_arrival_ns: 160,
                },
            },
        ];
        ReplayProgram {
            nranks: 2,
            ops: vec![r0, r1],
            final_gap_ns: vec![10, 0],
            rec_final_clock_ns: vec![210, 200],
            episodes: 1,
            gauges: vec![BTreeMap::new(); 2],
        }
    }

    #[test]
    fn identity_replay_reproduces_recorded_stamps() {
        let t = run_replay(&two_rank_program());
        let stamps: Vec<Vec<u64>> = t
            .events
            .iter()
            .map(|evs| evs.iter().map(|e| e.t_ns).collect())
            .collect();
        assert_eq!(stamps, vec![vec![100, 200], vec![130, 200]]);
        assert_eq!(t.final_clock_ns, vec![210, 200]);
        assert_eq!(t.dropped, vec![0, 0]);
        // Durations survive unchanged.
        assert_eq!(event_dur(&t.events[0][1].event), 50);
        assert_eq!(event_dur(&t.events[1][1].event), 40);
    }

    #[test]
    fn late_producer_stretches_edge_wait() {
        let mut prog = two_rank_program();
        // Slow rank 0's send by 200 ns: the recv must wait, its stamp
        // moving with the producer while keeping the recorded 30 ns lag.
        prog.ops[0][0].delta_ns += 200;
        let t = run_replay(&prog);
        assert_eq!(t.events[0][0].t_ns, 300);
        assert_eq!(t.events[1][0].t_ns, 330);
        // The shared barrier shifts by rank 0's lateness (arrives at 350,
        // recorded 150 → shift 200): both ranks release at 400.
        assert_eq!(t.events[0][1].t_ns, 400);
        assert_eq!(t.events[1][1].t_ns, 400);
        // Rank 1's barrier wait grew: arrival 360, release 400.
        assert_eq!(event_dur(&t.events[1][1].event), 40);
        assert_eq!(t.final_clock_ns, vec![410, 400]);
    }

    #[test]
    fn faster_rank_shortens_nothing_but_waits_longer() {
        let mut prog = two_rank_program();
        // Rank 1 reaches the barrier immediately after its recv; rank 0
        // still gates the episode, so the release stays put and rank 1's
        // recorded 40 ns wait grows to cover the earlier arrival.
        prog.ops[1][1].sync = ReplaySync::Barrier {
            episode: 0,
            arr_delta_ns: 0,
            rec_arrival_ns: 160,
        };
        let t = run_replay(&prog);
        assert_eq!(t.events[1][0].t_ns, 130);
        assert_eq!(t.events[1][1].t_ns, 200);
        assert_eq!(event_dur(&t.events[1][1].event), 70);
    }

    #[test]
    fn plain_ops_follow_their_deltas() {
        let prog = ReplayProgram {
            nranks: 1,
            ops: vec![vec![plain(qd(1), 10, 10), plain(qd(2), 5, 15)]],
            final_gap_ns: vec![3],
            rec_final_clock_ns: vec![18],
            episodes: 0,
            gauges: vec![BTreeMap::new()],
        };
        let t = run_replay(&prog);
        assert_eq!(t.events[0][0].t_ns, 10);
        assert_eq!(t.events[0][1].t_ns, 15);
        assert_eq!(t.final_clock_ns, vec![18]);
    }

    #[test]
    fn empty_rank_keeps_recorded_final_clock() {
        let prog = ReplayProgram {
            nranks: 2,
            ops: vec![vec![plain(qd(1), 40, 40)], vec![]],
            final_gap_ns: vec![0, 0],
            rec_final_clock_ns: vec![40, 25],
            episodes: 0,
            gauges: vec![BTreeMap::new(); 2],
        };
        let t = run_replay(&prog);
        assert_eq!(t.final_clock_ns, vec![40, 25]);
        assert!(t.events[1].is_empty());
    }

    fn waiting_on(pred_rank: u32, pred_idx: u32) -> ReplayOp {
        ReplayOp {
            sync: ReplaySync::Edge { pred_rank, pred_idx, lag_ns: 5 },
            ..plain(TraceEvent::MsgRecv { src: pred_rank, seq: 1 }, 10, 10)
        }
    }

    fn two_ranks(r0: Vec<ReplayOp>, r1: Vec<ReplayOp>) -> ReplayProgram {
        ReplayProgram {
            nranks: 2,
            ops: vec![r0, r1],
            final_gap_ns: vec![0, 0],
            rec_final_clock_ns: vec![10, 10],
            episodes: 0,
            gauges: vec![BTreeMap::new(); 2],
        }
    }

    #[test]
    #[should_panic(
        expected = "rank 0, op 0 waits on Edge { pred_rank: 1, pred_idx: 0, lag_ns: 5 }"
    )]
    fn mutually_waiting_ranks_report_the_stuck_op() {
        run_replay(&two_ranks(vec![waiting_on(1, 0)], vec![waiting_on(0, 0)]));
    }

    #[test]
    #[should_panic(
        expected = "rank 1, op 1 waits on Edge { pred_rank: 0, pred_idx: 7, lag_ns: 5 }"
    )]
    fn edge_to_a_missing_op_reports_the_stuck_op() {
        let r1 = vec![plain(qd(1), 10, 10), waiting_on(0, 7)];
        run_replay(&two_ranks(vec![plain(qd(1), 10, 10)], r1));
    }
}
