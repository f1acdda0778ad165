//! Trace-driven replay: re-execute a recorded schedule on the virtual-time
//! kernel without the original workload closure.
//!
//! A [`ReplayProgram`] is a lowered form of a recorded trace: one
//! [`ReplayOp`] per recorded event, carrying the event template, its
//! intrinsic duration, its completion delta from the previous event on the
//! same rank, and (where the trace records one) a cross-rank sync
//! dependency. [`run_replay`] executes the program as an SPMD rank program
//! under [`crate::Machine::run`] with tracing *disabled* — the replayed
//! trace is assembled by hand from each rank's computed event stream, so
//! the kernel's own block/unblock bookkeeping never pollutes the output.
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
//!   shifts by `Δ = max_r(arrival_new_r − arrival_rec_r)` and every rank
//!   releases at its recorded release time plus `Δ`.
//!
//! When nothing is substituted (identity replay) every derived completion
//! equals its recorded stamp, so the replayed trace — events, final
//! clocks, and the pass-through gauge registries — is byte-identical to
//! the input. Completion times are defined by `max` recurrences over
//! per-op values, independent of dispatch interleaving.
//!
//! Sync edges always point from a strictly earlier recorded stamp to a
//! strictly later one, and intra-rank order is monotone; any dependency
//! cycle would need a strictly positive time increase around the loop,
//! so a well-formed program cannot deadlock.

use std::collections::{BTreeMap, HashMap};

use scioto_det::sync::Mutex;

use crate::config::MachineConfig;
use crate::ctx::Ctx;
use crate::machine::Machine;
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
    /// Event template; duration-carrying fields are rewritten on emit.
    pub ev: TraceEvent,
    /// Recorded completion delta from the previous op on this rank.
    pub delta_ns: u64,
    /// Intrinsic duration embedded in `ev` (0 for instant events).
    pub dur_ns: u64,
    /// Recorded completion stamp (barrier re-release shifts it by the
    /// episode's delay; identity replay reproduces it exactly).
    pub rec_t_ns: u64,
    /// Cross-rank dependency, if the trace records one.
    pub sync: ReplaySync,
    /// True when some other rank's op waits on this one: its replayed
    /// completion is published to the shared completion map.
    pub watched: bool,
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

/// Shared replay state: completion times of watched ops and the barrier
/// rendezvous ledger. Guarded by one mutex — ranks only touch it at sync
/// points, which are rare relative to plain ops.
struct ReplayState {
    completed: HashMap<(u32, u32), u64>,
    edge_waiters: HashMap<(u32, u32), Vec<usize>>,
    barriers: Vec<EpisodeState>,
}

#[derive(Default)]
struct EpisodeState {
    arrived: usize,
    shift: i64,
    done: bool,
    waiters: Vec<usize>,
}

/// Block until `(pred_rank, pred_idx)` publishes its replayed completion.
fn wait_for_edge(ctx: &Ctx, state: &Mutex<ReplayState>, key: (u32, u32), me: usize) -> u64 {
    loop {
        ctx.yield_point();
        {
            let mut g = state.lock();
            if let Some(&t) = g.completed.get(&key) {
                return t;
            }
            g.edge_waiters.entry(key).or_default().push(me);
        }
        ctx.block_at("replay: waiting on a recorded sync edge");
    }
}

/// Publish a watched op's replayed completion and wake its waiters.
fn publish(ctx: &Ctx, state: &Mutex<ReplayState>, me: usize, idx: usize, t: u64) {
    let waiters = {
        let mut g = state.lock();
        g.completed.insert((me as u32, idx as u32), t);
        g.edge_waiters
            .remove(&(me as u32, idx as u32))
            .unwrap_or_default()
    };
    for w in waiters {
        ctx.unblock(w, 0);
    }
}

/// Rendezvous on barrier `episode`, contributing this rank's arrival
/// shift; returns the episode's final shift once every rank has arrived.
fn barrier_sync(
    ctx: &Ctx,
    state: &Mutex<ReplayState>,
    episode: usize,
    my_shift: i64,
    me: usize,
    nranks: usize,
) -> i64 {
    ctx.yield_point();
    let mut g = state.lock();
    {
        let ep = &mut g.barriers[episode];
        ep.arrived += 1;
        if my_shift > ep.shift {
            ep.shift = my_shift;
        }
        if ep.arrived == nranks {
            ep.done = true;
            let shift = ep.shift;
            let waiters = std::mem::take(&mut ep.waiters);
            drop(g);
            for w in waiters {
                ctx.unblock(w, 0);
            }
            return shift;
        }
    }
    loop {
        if g.barriers[episode].done {
            return g.barriers[episode].shift;
        }
        g.barriers[episode].waiters.push(me);
        drop(g);
        ctx.block_at("replay: waiting at a recorded barrier");
        g = state.lock();
    }
}

/// Rewrite the duration field of a duration-carrying event template.
fn with_dur(ev: TraceEvent, dur: u64) -> TraceEvent {
    match ev {
        TraceEvent::StealAttempt { victim, got, .. } => TraceEvent::StealAttempt {
            victim,
            got,
            dur_ns: dur,
        },
        TraceEvent::LockWait { target, .. } => TraceEvent::LockWait {
            target,
            dur_ns: dur,
        },
        TraceEvent::BarrierWait { epoch, .. } => TraceEvent::BarrierWait { dur_ns: dur, epoch },
        TraceEvent::TdProgress { .. } => TraceEvent::TdProgress { dur_ns: dur },
        other => other,
    }
}

/// Intrinsic duration carried by an event (0 for instant events).
pub fn event_dur(ev: &TraceEvent) -> u64 {
    match *ev {
        TraceEvent::StealAttempt { dur_ns, .. }
        | TraceEvent::LockWait { dur_ns, .. }
        | TraceEvent::BarrierWait { dur_ns, .. }
        | TraceEvent::TdProgress { dur_ns } => dur_ns,
        _ => 0,
    }
}

/// Execute `prog` on the virtual-time kernel and rebuild the replayed
/// trace. Identity replay (a program lowered from a trace, unmodified)
/// reproduces the recorded trace byte for byte.
pub fn run_replay(prog: &ReplayProgram) -> Trace {
    let n = prog.nranks;
    assert!(n >= 1, "a replay program needs at least one rank");
    assert_eq!(prog.ops.len(), n);
    let state = Mutex::new(ReplayState {
        completed: HashMap::new(),
        edge_waiters: HashMap::new(),
        barriers: (0..prog.episodes).map(|_| EpisodeState::default()).collect(),
    });

    let out = Machine::run(
        MachineConfig::virtual_time(n),
        |ctx: &Ctx| {
            let me = ctx.rank();
            let ops = &prog.ops[me];
            let mut events: Vec<StampedEvent> = Vec::with_capacity(ops.len());
            let mut cursor: u64 = 0;
            for (idx, op) in ops.iter().enumerate() {
                // `dur` is the replayed duration: the op's intrinsic cost
                // stretched by any wait the replay introduced. A barrier's
                // recorded duration already spans arrival→release, so its
                // replayed duration is simply the new span.
                let (completion, dur) = match op.sync {
                    ReplaySync::None => (cursor + op.delta_ns, op.dur_ns),
                    ReplaySync::Edge {
                        pred_rank,
                        pred_idx,
                        lag_ns,
                    } => {
                        let base = cursor + op.delta_ns;
                        let t_pred = wait_for_edge(ctx, &state, (pred_rank, pred_idx), me);
                        let completion = base.max(t_pred + lag_ns);
                        (completion, op.dur_ns + (completion - base))
                    }
                    ReplaySync::Barrier {
                        episode,
                        arr_delta_ns,
                        rec_arrival_ns,
                    } => {
                        let arrival = cursor + arr_delta_ns;
                        let shift = barrier_sync(
                            ctx,
                            &state,
                            episode as usize,
                            arrival as i64 - rec_arrival_ns as i64,
                            me,
                            n,
                        );
                        // Δ ≥ this rank's own shift, so the shifted release
                        // never precedes the replayed arrival.
                        let completion = (op.rec_t_ns as i64 + shift) as u64;
                        (completion, completion - arrival)
                    }
                };
                let event = with_dur(op.ev, dur);
                events.push(StampedEvent {
                    t_ns: completion,
                    event,
                });
                if op.watched {
                    publish(ctx, &state, me, idx, completion);
                }
                cursor = completion;
            }
            let final_clock = if ops.is_empty() {
                prog.rec_final_clock_ns[me]
            } else {
                cursor + prog.final_gap_ns[me]
            };
            (events, final_clock)
        },
    );

    let mut events = Vec::with_capacity(n);
    let mut final_clock_ns = Vec::with_capacity(n);
    for (evs, clock) in out.results {
        events.push(evs);
        final_clock_ns.push(clock);
    }
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

    fn plain(ev: TraceEvent, delta: u64, rec_t: u64) -> ReplayOp {
        ReplayOp {
            ev,
            delta_ns: delta,
            dur_ns: event_dur(&ev),
            rec_t_ns: rec_t,
            sync: ReplaySync::None,
            watched: false,
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
        // Rank 0: send at 100 (watched), barrier arrive 150 release 200.
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
                dur_ns: 0,
                rec_t_ns: 100,
                sync: ReplaySync::None,
                watched: true,
            },
            ReplayOp {
                ev: TraceEvent::BarrierWait {
                    dur_ns: 50,
                    epoch: 1,
                },
                delta_ns: 100,
                dur_ns: 50,
                rec_t_ns: 200,
                sync: ReplaySync::Barrier {
                    episode: 0,
                    arr_delta_ns: 50,
                    rec_arrival_ns: 150,
                },
                watched: false,
            },
        ];
        let r1 = vec![
            ReplayOp {
                ev: TraceEvent::MsgRecv { src: 0, seq: 1 },
                delta_ns: 130,
                dur_ns: 0,
                rec_t_ns: 130,
                sync: ReplaySync::Edge {
                    pred_rank: 0,
                    pred_idx: 0,
                    lag_ns: 30,
                },
                watched: false,
            },
            ReplayOp {
                ev: TraceEvent::BarrierWait {
                    dur_ns: 40,
                    epoch: 1,
                },
                delta_ns: 70,
                dur_ns: 40,
                rec_t_ns: 200,
                sync: ReplaySync::Barrier {
                    episode: 0,
                    arr_delta_ns: 30,
                    rec_arrival_ns: 160,
                },
                watched: false,
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
}
