//! Hand-built traces for the unit tests: per-rank `(t_ns, event)` lists
//! and the event shapes the tests keep reaching for (segment 0; locks on
//! target 0, set 0).

use scioto_sim::{RemoteOpKind, StampedEvent, Trace, TraceEvent};

/// Build a trace from per-rank `(t_ns, event)` lists.
pub(crate) fn trace_of(ranks: Vec<Vec<(u64, TraceEvent)>>) -> Trace {
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
        gauges: (0..n).map(|_| Default::default()).collect(),
    }
}

fn remote(kind: RemoteOpKind, target: u32, offset: u64, bytes: u32) -> TraceEvent {
    TraceEvent::RemoteOp { kind, target, seg: 0, offset, bytes, atomic: false }
}

pub(crate) fn put(target: u32, offset: u64, bytes: u32) -> TraceEvent {
    remote(RemoteOpKind::Put, target, offset, bytes)
}

pub(crate) fn get(target: u32, offset: u64, bytes: u32) -> TraceEvent {
    remote(RemoteOpKind::Get, target, offset, bytes)
}

pub(crate) fn local(offset: u64, bytes: u32, write: bool, atomic: bool) -> TraceEvent {
    TraceEvent::LocalAccess { seg: 0, offset, bytes, write, atomic }
}

/// Acquire / release generation `seq` of mutex `idx` (mutex 0 when unnamed).
pub(crate) fn acq_on(idx: u32, seq: u64) -> TraceEvent {
    TraceEvent::LockAcq { target: 0, set: 0, idx, seq }
}

pub(crate) fn rel_on(idx: u32, seq: u64) -> TraceEvent {
    TraceEvent::LockRel { target: 0, set: 0, idx, seq }
}

pub(crate) fn acq(seq: u64) -> TraceEvent {
    acq_on(0, seq)
}

pub(crate) fn rel(seq: u64) -> TraceEvent {
    rel_on(0, seq)
}

pub(crate) fn barrier(epoch: u64) -> TraceEvent {
    TraceEvent::BarrierWait { dur_ns: 0, epoch }
}

/// A seeded random trace: a few ranks reading and writing a few
/// words, plain, marked or read-modify-write, under nested locks.
pub(crate) fn random_trace(seed: u64) -> Trace {
    let mut state = seed;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let ranks = 1 + below(4) as u32;
    trace_of(
        (0..ranks)
            .map(|_| {
                (0..below(40))
                    .map(|t| {
                        let (target, offset) = (below(ranks as u64) as u32, 8 * below(3));
                        let atomic = below(2) == 0;
                        let event = match below(8) {
                            0 => acq_on(below(3) as u32, t),
                            1 => rel_on(below(3) as u32, t),
                            2 => TraceEvent::LocalAccess {
                                seg: 0,
                                offset,
                                bytes: [8, 16][below(2) as usize],
                                write: below(2) == 0,
                                atomic,
                            },
                            _ => TraceEvent::RemoteOp {
                                kind: [RemoteOpKind::Put, RemoteOpKind::Get, RemoteOpKind::Rmw]
                                    [below(3) as usize],
                                target,
                                seg: 0,
                                offset,
                                bytes: 8,
                                atomic,
                            },
                        };
                        (t, event)
                    })
                    .collect()
            })
            .collect(),
    )
}
