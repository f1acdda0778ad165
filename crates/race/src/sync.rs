//! What the two vector-clock replays ([`crate::hb`], [`crate::predict`])
//! share: the keys sync edges are paired by, the termination-detection
//! tree, the producer pre-count that lets a consumer tell "not replayed
//! yet" from "never emitted", and the two refusals (a truncated trace, a
//! replay that cannot finish). The per-event walk itself still lives in
//! each replay.

use std::collections::HashMap;

use scioto_sim::{Trace, TraceEvent, WaveDir};

/// A mutex: `(target rank, mutex set, index)`.
pub(crate) type LockKey = (u32, u32, u32);
/// A termination-detection wave event: `(emitting rank, direction, wave)`.
pub(crate) type WaveKey = (u32, WaveDir, u32);

/// Component-wise maximum of two vector clocks, into `into`.
pub(crate) fn join(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// Parent of `rank` in the termination-detection spanning tree.
pub(crate) fn td_parent(rank: u32) -> Option<u32> {
    (rank > 0).then(|| (rank - 1) / 2)
}

/// Children of `rank` in the termination-detection tree of `n` ranks.
pub(crate) fn td_children(rank: u32, n: u32) -> impl Iterator<Item = u32> {
    [2 * rank + 1, 2 * rank + 2]
        .into_iter()
        .filter(move |c| *c < n)
}

/// Words overlapped by a byte range (8-byte granularity).
pub(crate) fn word_range(offset: u64, bytes: u32) -> std::ops::RangeInclusive<u64> {
    let last = offset + u64::from(bytes.max(1)) - 1;
    (offset / 8)..=(last / 8)
}

/// Refuse a trace that dropped events: a truncated stream cannot be
/// replayed faithfully.
pub(crate) fn refuse_dropped(trace: &Trace) -> Result<(), String> {
    match trace.dropped.iter().enumerate().find(|(_, &d)| d > 0) {
        Some((rank, d)) => Err(format!(
            "rank {rank} dropped {d} event(s); rerun with a larger trace ring \
             (--trace-ring) for an exact replay"
        )),
        None => Ok(()),
    }
}

/// How many of each sync producer the whole trace holds, counted before
/// the replay starts so consumers can (a) report a missing producer as a
/// hard error instead of deadlocking silently, and (b) clamp td-wave
/// occurrence matching when episodes reset wave numbers.
pub(crate) struct ProducerTotals {
    /// Sends per `(destination, per-destination sequence number)`.
    pub(crate) msg_send: HashMap<(u32, u64), u32>,
    /// Emissions per wave key.
    pub(crate) wave: HashMap<WaveKey, u64>,
    /// Participants per barrier epoch.
    pub(crate) barrier_expect: HashMap<u64, u32>,
}

impl ProducerTotals {
    pub(crate) fn count(trace: &Trace) -> Self {
        let mut t = ProducerTotals {
            msg_send: HashMap::new(),
            wave: HashMap::new(),
            barrier_expect: HashMap::new(),
        };
        for (rank, events) in trace.events.iter().enumerate() {
            for e in events {
                match e.event {
                    TraceEvent::MsgSend { dst, seq, .. } => {
                        *t.msg_send.entry((dst, seq)).or_default() += 1;
                    }
                    TraceEvent::TdWave { wave, dir, .. } => {
                        *t.wave.entry((rank as u32, dir, wave)).or_default() += 1;
                    }
                    TraceEvent::BarrierWait { epoch, .. } => {
                        *t.barrier_expect.entry(epoch).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        t
    }
}

/// After the worklist stops making progress: an error naming the first
/// rank whose stream was not replayed to its end, if there is one.
pub(crate) fn refuse_stuck(trace: &Trace, cursors: &[usize]) -> Result<(), String> {
    match (0..cursors.len()).find(|&r| cursors[r] < trace.events[r].len()) {
        Some(r) => {
            let ev = &trace.events[r][cursors[r]];
            Err(format!(
                "replay deadlocked: rank {r} blocked at event {} ({:?} at t={}ns); \
                 a synchronization producer is missing from the trace",
                cursors[r], ev.event, ev.t_ns
            ))
        }
        None => Ok(()),
    }
}
