//! Point-to-point messaging: send, recv, iprobe.

use std::sync::Arc;

use scioto_sim::{Ctx, MailboxRouter, Msg, MsgFilter};

/// Per-message sender-side injection overhead in nanoseconds (matching
/// buffer + envelope handling of a tuned MPI implementation).
pub(crate) const SEND_OVERHEAD_NS: u64 = 300;

/// The world communicator.
///
/// Created collectively by [`Comm::world`]; tags are arbitrary `u64`
/// values, with the top bit reserved for this crate's collectives.
pub struct Comm {
    pub(crate) router: Arc<MailboxRouter>,
    pub(crate) nranks: usize,
}

impl Comm {
    /// Reserved tag bit used by the tree collectives.
    pub(crate) const INTERNAL_TAG: u64 = 1 << 63;

    /// Collectively create the world communicator.
    pub fn world(ctx: &Ctx) -> Arc<Comm> {
        let n = ctx.nranks();
        ctx.collective(|| Comm {
            router: Arc::new(MailboxRouter::new(n)),
            nranks: n,
        })
    }

    /// Number of ranks in the communicator.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    fn check_tag(tag: u64) {
        assert!(
            tag & Comm::INTERNAL_TAG == 0,
            "user tags must not set the reserved top bit"
        );
    }

    /// Send `data` to `dst` with `tag`. Returns when the message is
    /// injected (buffered eager send); delivery takes network latency.
    pub fn send(&self, ctx: &Ctx, dst: usize, tag: u64, data: &[u8]) {
        Comm::check_tag(tag);
        self.send_raw(ctx, dst, tag, data);
    }

    pub(crate) fn send_raw(&self, ctx: &Ctx, dst: usize, tag: u64, data: &[u8]) {
        assert!(dst < self.nranks, "destination rank {dst} out of range");
        let l = ctx.latency();
        let net = l.msg_to(ctx.rank(), dst, self.nranks, data.len());
        self.router
            .send(ctx, dst, tag, data.to_vec(), SEND_OVERHEAD_NS, net);
    }

    /// Blocking receive matching `src` (any if `None`) and `tag` (any if
    /// `None`).
    pub fn recv(&self, ctx: &Ctx, src: Option<usize>, tag: Option<u64>) -> Msg {
        self.router.recv(ctx, MsgFilter { src, tag })
    }

    /// Software cost of one MPI_Iprobe/MPI_Test-style progress call on a
    /// 2008-era InfiniBand MPI (message-queue traversal in the library).
    pub const PROBE_NS: u64 = 800;

    /// Non-blocking receive of a message that has already arrived.
    /// Charges a probe's worth of library overhead.
    pub fn try_recv(&self, ctx: &Ctx, src: Option<usize>, tag: Option<u64>) -> Option<Msg> {
        ctx.compute(Comm::PROBE_NS);
        self.router.try_recv(ctx, MsgFilter { src, tag })
    }

    /// Non-blocking probe: has a matching message already arrived? Charges
    /// the library's message-queue traversal cost.
    pub fn iprobe(&self, ctx: &Ctx, src: Option<usize>, tag: Option<u64>) -> bool {
        ctx.compute(Comm::PROBE_NS);
        self.router.iprobe(ctx, MsgFilter { src, tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    #[test]
    fn ping_pong() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let comm = Comm::world(ctx);
            if ctx.rank() == 0 {
                comm.send(ctx, 1, 5, b"ping");
                let m = comm.recv(ctx, Some(1), Some(6));
                m.data
            } else {
                let m = comm.recv(ctx, Some(0), Some(5));
                assert_eq!(m.data, b"ping");
                comm.send(ctx, 0, 6, b"pong");
                m.data
            }
        });
        assert_eq!(out.results[0], b"pong");
    }

    #[test]
    fn latency_delays_visibility_for_iprobe() {
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_latency(LatencyModel::cluster()),
            |ctx| {
                let comm = Comm::world(ctx);
                if ctx.rank() == 0 {
                    comm.send(ctx, 1, 1, &[9]);
                    0
                } else {
                    // Poll until the message becomes visible; count polls.
                    let mut polls = 0u64;
                    while !comm.iprobe(ctx, None, None) {
                        polls += 1;
                        ctx.compute(200);
                    }
                    polls
                }
            },
        );
        assert!(
            out.results[1] > 3,
            "message should take several polls to arrive, got {}",
            out.results[1]
        );
    }

    #[test]
    #[should_panic(expected = "reserved top bit")]
    fn reserved_tag_rejected() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let comm = Comm::world(ctx);
            if ctx.rank() == 0 {
                comm.send(ctx, 1, Comm::INTERNAL_TAG | 1, &[]);
            } else {
                comm.recv(ctx, None, None);
            }
        });
    }

    #[test]
    fn any_source_receive() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let comm = Comm::world(ctx);
            if ctx.rank() == 0 {
                let mut sum = 0usize;
                for _ in 0..3 {
                    let m = comm.recv(ctx, None, Some(2));
                    sum += m.src;
                }
                sum
            } else {
                comm.send(ctx, 0, 2, &[]);
                0
            }
        });
        assert_eq!(out.results[0], 1 + 2 + 3);
    }
}
