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
        hists: (0..n).map(|_| Default::default()).collect(),
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
