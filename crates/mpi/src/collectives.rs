//! Tree-based collectives: barrier and `f64` allreduce.
//!
//! All collectives run over real point-to-point messages on a binary
//! spanning tree rooted at rank 0 (parent `(r-1)/2`, children `2r+1`,
//! `2r+2`), so their virtual-time cost grows with `log2(n)` message
//! latencies — the behaviour Figure 4 of the paper compares against.

use scioto_sim::{tree_children, tree_parent, Ctx};

use crate::comm::Comm;

/// Element-wise reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    fn f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl Comm {
    /// Barrier: an up-wave (reduce) followed by a down-wave (broadcast) of
    /// empty messages over the binary tree.
    pub fn barrier(&self, ctx: &Ctx) {
        self.up_wave(ctx, &[]);
        self.down_wave(ctx, Vec::new());
    }

    /// Element-wise allreduce over `f64` vectors (all ranks must pass the
    /// same length).
    pub fn allreduce_f64(&self, ctx: &Ctx, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let mut acc = vals.to_vec();
        let rank = ctx.rank();
        for c in tree_children(rank, self.nranks) {
            let m = self.recv(ctx, Some(c), Some(Comm::INTERNAL_TAG));
            let theirs = decode_f64(&m.data);
            assert_eq!(theirs.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = op.f64(*a, b);
            }
        }
        if let Some(p) = tree_parent(rank) {
            self.send_raw(ctx, p, Comm::INTERNAL_TAG, &encode_f64(&acc));
        }
        decode_f64(&self.down_wave(ctx, encode_f64(&acc)))
    }

    /// Up-wave: receive one message from each child, then send `payload`
    /// to the parent.
    fn up_wave(&self, ctx: &Ctx, payload: &[u8]) {
        let rank = ctx.rank();
        for c in tree_children(rank, self.nranks) {
            self.recv(ctx, Some(c), Some(Comm::INTERNAL_TAG));
        }
        if let Some(p) = tree_parent(rank) {
            self.send_raw(ctx, p, Comm::INTERNAL_TAG, payload);
        }
    }

    /// Down-wave: receive the payload from the parent (rank 0 uses its
    /// own), forward to children, return it.
    fn down_wave(&self, ctx: &Ctx, root_payload: Vec<u8>) -> Vec<u8> {
        let rank = ctx.rank();
        let payload = match tree_parent(rank) {
            None => root_payload,
            Some(p) => self.recv(ctx, Some(p), Some(Comm::INTERNAL_TAG)).data,
        };
        for c in tree_children(rank, self.nranks) {
            self.send_raw(ctx, c, Comm::INTERNAL_TAG, &payload);
        }
        payload
    }
}

fn encode_f64(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_f64(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = Machine::run(
            MachineConfig::virtual_time(8).with_latency(LatencyModel::cluster()),
            |ctx| {
                let comm = Comm::world(ctx);
                ctx.compute(ctx.rank() as u64 * 1_000);
                comm.barrier(ctx);
                ctx.now()
            },
        );
        let release = out.results[0];
        // Everybody leaves no earlier than the slowest arrival (7 µs).
        for t in &out.results {
            assert!(*t >= 7_000);
        }
        // Leaf release times differ only by the down-wave path; all must be
        // at least the root's release.
        for t in &out.results {
            assert!(*t >= release || *t + 100_000 > release);
        }
    }

    #[test]
    fn barrier_cost_grows_with_ranks() {
        let time = |n| {
            Machine::run(
                MachineConfig::virtual_time(n).with_latency(LatencyModel::cluster()),
                |ctx| {
                    let comm = Comm::world(ctx);
                    let t0 = ctx.now();
                    comm.barrier(ctx);
                    ctx.now() - t0
                },
            )
            .report
            .makespan_ns
        };
        let t2 = time(2);
        let t64 = time(64);
        assert!(
            t64 > 2 * t2,
            "64-rank barrier ({t64} ns) should cost much more than 2-rank ({t2} ns)"
        );
    }

    #[test]
    fn allreduce_f64_sum_and_max() {
        let out = Machine::run(MachineConfig::virtual_time(5), |ctx| {
            let comm = Comm::world(ctx);
            let r = ctx.rank() as f64;
            let sum = comm.allreduce_f64(ctx, &[r, 1.0], ReduceOp::Sum);
            let max = comm.allreduce_f64(ctx, &[r], ReduceOp::Max);
            (sum, max)
        });
        for (sum, max) in out.results {
            assert_eq!(sum, vec![10.0, 5.0]);
            assert_eq!(max, vec![4.0]);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let comm = Comm::world(ctx);
            // P2P traffic before and after a barrier must not be consumed
            // by the collective machinery.
            if ctx.rank() == 0 {
                comm.send(ctx, 1, 42, &[7]);
            }
            comm.barrier(ctx);
            let got = if ctx.rank() == 1 {
                comm.recv(ctx, Some(0), Some(42)).data[0]
            } else {
                0
            };
            comm.barrier(ctx);
            got
        });
        assert_eq!(out.results[1], 7);
    }
}
