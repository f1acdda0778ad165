//! Tagged point-to-point mailboxes with virtual arrival times.
//!
//! This is the substrate for the two-sided (`scioto-mpi`) layer. A message
//! sent at virtual time `t` becomes *visible* to the destination at
//! `t + net_cost` — so a polling receiver (the MPI work-stealing baseline of
//! the paper, §6.2) genuinely cannot observe a steal request before it has
//! "crossed the network".

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use scioto_det::sync::Mutex;

use crate::ctx::Ctx;

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Virtual time at which the message became visible at the destination.
    pub arrival: u64,
    /// Per-destination delivery sequence number (assigned at send time);
    /// pairs the trace's `MsgSend` and `MsgRecv` events exactly.
    pub seq: u64,
}

/// Source/tag matching for receives, mirroring MPI's
/// `MPI_ANY_SOURCE`/`MPI_ANY_TAG`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgFilter {
    /// Match only messages from this rank (any source if `None`).
    pub src: Option<usize>,
    /// Match only messages with this tag (any tag if `None`).
    pub tag: Option<u64>,
}

impl MsgFilter {
    /// Match any message.
    pub fn any() -> Self {
        MsgFilter::default()
    }

    /// Match messages with `tag` from any source.
    pub fn tag(tag: u64) -> Self {
        MsgFilter {
            src: None,
            tag: Some(tag),
        }
    }

    /// Match messages from `src` with `tag`.
    pub fn src_tag(src: usize, tag: u64) -> Self {
        MsgFilter {
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn matches(&self, m: &Msg) -> bool {
        self.src.is_none_or(|s| s == m.src) && self.tag.is_none_or(|t| t == m.tag)
    }
}

/// One destination rank's mailbox: the queued messages plus the
/// sequence counter stamped onto each delivery.
#[derive(Default)]
struct MailboxState {
    queue: VecDeque<Msg>,
    next_seq: u64,
}

/// One mailbox per destination rank. Created collectively (one router per
/// communicator). Delivery sequence numbers are per destination and per
/// router, so `MsgSend`/`MsgRecv` trace pairing assumes one router per
/// machine (which `Comm::world` guarantees).
pub struct MailboxRouter {
    boxes: Vec<Mutex<MailboxState>>,
}

impl MailboxRouter {
    /// Create a router for `n` ranks.
    pub fn new(n: usize) -> Self {
        MailboxRouter {
            boxes: (0..n).map(|_| Mutex::new(MailboxState::default())).collect(),
        }
    }

    /// Send `data` to `dst` with `tag`. The message becomes visible at the
    /// destination `net_cost` ns after the sender's current time; the sender
    /// is charged `send_overhead` ns of CPU (injection) time.
    pub fn send(
        &self,
        ctx: &Ctx,
        dst: usize,
        tag: u64,
        data: Vec<u8>,
        send_overhead: u64,
        net_cost: u64,
    ) {
        ctx.yield_point();
        ctx.compute(send_overhead);
        let arrival = ctx.now() + net_cost;
        ctx.kernel()
            .events
            .messages
            .fetch_add(1, Ordering::Relaxed);
        let bytes = data.len() as u32;
        let seq = {
            let mut b = self.boxes[dst].lock();
            let seq = b.next_seq;
            b.next_seq += 1;
            b.queue.push_back(Msg {
                src: ctx.rank(),
                tag,
                data,
                arrival,
                seq,
            });
            seq
        };
        ctx.trace(|| crate::trace::TraceEvent::MsgSend {
            dst: dst as u32,
            bytes,
            seq,
        });
        ctx.unblock(dst, arrival);
    }

    /// Non-blocking probe: is a matching message *visible* (arrival time has
    /// passed) at this rank right now?
    pub fn iprobe(&self, ctx: &Ctx, filter: MsgFilter) -> bool {
        ctx.yield_point();
        let now = ctx.now();
        self.boxes[ctx.rank()]
            .lock()
            .queue
            .iter()
            .any(|m| filter.matches(m) && m.arrival <= now)
    }

    /// Non-blocking receive of a visible matching message.
    pub fn try_recv(&self, ctx: &Ctx, filter: MsgFilter) -> Option<Msg> {
        ctx.yield_point();
        let now = ctx.now();
        let mut b = self.boxes[ctx.rank()].lock();
        let idx = b
            .queue
            .iter()
            .position(|m| filter.matches(m) && m.arrival <= now)?;
        let m = b.queue.remove(idx)?;
        drop(b);
        ctx.trace(|| crate::trace::TraceEvent::MsgRecv {
            src: m.src as u32,
            seq: m.seq,
        });
        Some(m)
    }

    /// Blocking receive: waits for a matching message (visible or still in
    /// flight) and advances the receiver's clock to its arrival time.
    pub fn recv(&self, ctx: &Ctx, filter: MsgFilter) -> Msg {
        ctx.yield_point();
        let rank = ctx.rank();
        loop {
            {
                let mut b = self.boxes[rank].lock();
                // Earliest-arrival matching message, FIFO within ties.
                let best = b
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| filter.matches(m))
                    .min_by_key(|(i, m)| (m.arrival, *i))
                    .map(|(i, _)| i);
                if let Some(i) = best {
                    let m = b.queue.remove(i).expect("index valid");
                    drop(b);
                    ctx.advance_to(m.arrival);
                    ctx.trace(|| crate::trace::TraceEvent::MsgRecv {
                        src: m.src as u32,
                        seq: m.seq,
                    });
                    return m;
                }
            }
            ctx.block_at("mailbox.recv");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    #[test]
    fn message_latency_advances_receiver_clock() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let router = ctx.collective(|| MailboxRouter::new(ctx.nranks()));
            if ctx.rank() == 0 {
                ctx.compute(100);
                router.send(ctx, 1, 7, vec![1, 2, 3], 10, 1_000);
                ctx.now()
            } else {
                let m = router.recv(ctx, MsgFilter::tag(7));
                assert_eq!(m.data, vec![1, 2, 3]);
                assert_eq!(m.src, 0);
                ctx.now()
            }
        });
        // Sender: 100 compute + 10 injection = 110. Receiver: arrival 1110.
        assert_eq!(out.results, vec![110, 1_110]);
    }

    #[test]
    fn iprobe_does_not_see_in_flight_messages() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let router = ctx.collective(|| MailboxRouter::new(ctx.nranks()));
            if ctx.rank() == 0 {
                router.send(ctx, 1, 1, vec![], 0, 1_000);
                ctx.barrier_with_cost(0);
                true
            } else {
                ctx.barrier_with_cost(0);
                // At the barrier release the receiver's clock is still 0;
                // the message arrives at t=1000 and must be invisible.
                let early = router.iprobe(ctx, MsgFilter::any());
                ctx.compute(2_000);
                let late = router.iprobe(ctx, MsgFilter::any());
                !early && late
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn filters_select_src_and_tag() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let router = ctx.collective(|| MailboxRouter::new(ctx.nranks()));
            match ctx.rank() {
                0 => {
                    router.send(ctx, 2, 10, vec![0], 0, 0);
                    0
                }
                1 => {
                    router.send(ctx, 2, 20, vec![1], 0, 0);
                    0
                }
                _ => {
                    // Receive tag 20 first even if tag 10 arrived earlier.
                    let m20 = router.recv(ctx, MsgFilter::tag(20));
                    let m10 = router.recv(ctx, MsgFilter::src_tag(0, 10));
                    assert_eq!(m20.data, vec![1]);
                    assert_eq!(m10.data, vec![0]);
                    (m20.src + 10 * m10.src) as i32
                }
            }
        });
        assert_eq!(out.results[2], 1);
    }

    #[test]
    fn try_recv_returns_none_without_message() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let router = MailboxRouter::new(1);
            router.try_recv(ctx, MsgFilter::any()).is_none()
        });
        assert!(out.results[0]);
    }

    #[test]
    fn many_messages_fifo_per_source() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let router = ctx.collective(|| MailboxRouter::new(ctx.nranks()));
            if ctx.rank() == 0 {
                for i in 0..50u8 {
                    router.send(ctx, 1, 0, vec![i], 1, 100);
                }
                Vec::new()
            } else {
                (0..50)
                    .map(|_| router.recv(ctx, MsgFilter::any()).data[0])
                    .collect::<Vec<u8>>()
            }
        });
        let expect: Vec<u8> = (0..50).collect();
        assert_eq!(out.results[1], expect);
    }
}
