//! Tree-based collectives: barrier, allreduce, gather, scatter.
//!
//! All collectives run over real point-to-point messages on a binary
//! spanning tree rooted at rank 0 (parent `(r-1)/2`, children `2r+1`,
//! `2r+2`), so their virtual-time cost grows with `log2(n)` message
//! latencies — the behaviour Figure 4 of the paper compares against.

use scioto_sim::Ctx;

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

    fn u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

fn parent(rank: usize) -> Option<usize> {
    (rank > 0).then(|| (rank - 1) / 2)
}

fn children(rank: usize, n: usize) -> impl Iterator<Item = usize> {
    [2 * rank + 1, 2 * rank + 2]
        .into_iter()
        .filter(move |c| *c < n)
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
        for c in children(rank, self.nranks) {
            let m = self.recv(ctx, Some(c), Some(Comm::INTERNAL_TAG));
            let theirs = decode_f64(&m.data);
            assert_eq!(theirs.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = op.f64(*a, b);
            }
        }
        if let Some(p) = parent(rank) {
            self.send_raw(ctx, p, Comm::INTERNAL_TAG, &encode_f64(&acc));
        }
        decode_f64(&self.down_wave(ctx, encode_f64(&acc)))
    }

    /// Element-wise allreduce over `u64` vectors.
    pub fn allreduce_u64(&self, ctx: &Ctx, vals: &[u64], op: ReduceOp) -> Vec<u64> {
        let mut acc = vals.to_vec();
        let rank = ctx.rank();
        for c in children(rank, self.nranks) {
            let m = self.recv(ctx, Some(c), Some(Comm::INTERNAL_TAG));
            let theirs = decode_u64(&m.data);
            assert_eq!(theirs.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = op.u64(*a, b);
            }
        }
        if let Some(p) = parent(rank) {
            self.send_raw(ctx, p, Comm::INTERNAL_TAG, &encode_u64(&acc));
        }
        decode_u64(&self.down_wave(ctx, encode_u64(&acc)))
    }

    /// Up-wave: receive one message from each child, then send `payload`
    /// to the parent.
    fn up_wave(&self, ctx: &Ctx, payload: &[u8]) {
        let rank = ctx.rank();
        for c in children(rank, self.nranks) {
            self.recv(ctx, Some(c), Some(Comm::INTERNAL_TAG));
        }
        if let Some(p) = parent(rank) {
            self.send_raw(ctx, p, Comm::INTERNAL_TAG, payload);
        }
    }

    /// Down-wave: receive the payload from the parent (rank 0 uses its
    /// own), forward to children, return it.
    fn down_wave(&self, ctx: &Ctx, root_payload: Vec<u8>) -> Vec<u8> {
        let rank = ctx.rank();
        let payload = match parent(rank) {
            None => root_payload,
            Some(p) => self.recv(ctx, Some(p), Some(Comm::INTERNAL_TAG)).data,
        };
        for c in children(rank, self.nranks) {
            self.send_raw(ctx, c, Comm::INTERNAL_TAG, &payload);
        }
        payload
    }
}

impl Comm {
    /// Gather every rank's byte payload at rank 0 (returned in rank order
    /// there; other ranks receive an empty vec). Implemented as direct
    /// sends — the paper-era MPI gather for modest payloads.
    pub fn gather(&self, ctx: &Ctx, payload: &[u8]) -> Vec<Vec<u8>> {
        let rank = ctx.rank();
        if rank == 0 {
            let mut out = vec![Vec::new(); self.nranks];
            out[0] = payload.to_vec();
            for _ in 1..self.nranks {
                let m = self.recv(ctx, None, Some(Comm::INTERNAL_TAG | 1));
                out[m.src] = m.data;
            }
            out
        } else {
            self.send_raw(ctx, 0, Comm::INTERNAL_TAG | 1, payload);
            Vec::new()
        }
    }

    /// Scatter per-rank payloads from rank 0: rank `r` receives
    /// `payloads[r]`. Non-root ranks pass an empty slice.
    pub fn scatter(&self, ctx: &Ctx, payloads: &[Vec<u8>]) -> Vec<u8> {
        let rank = ctx.rank();
        if rank == 0 {
            assert_eq!(
                payloads.len(),
                self.nranks,
                "scatter needs one payload per rank"
            );
            for (r, p) in payloads.iter().enumerate().skip(1) {
                self.send_raw(ctx, r, Comm::INTERNAL_TAG | 2, p);
            }
            payloads[0].clone()
        } else {
            self.recv(ctx, Some(0), Some(Comm::INTERNAL_TAG | 2)).data
        }
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

fn encode_u64(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_u64(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
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
    fn allreduce_u64_min() {
        let out = Machine::run(MachineConfig::virtual_time(6), |ctx| {
            let comm = Comm::world(ctx);
            comm.allreduce_u64(ctx, &[ctx.rank() as u64 + 10], ReduceOp::Min)
        });
        for v in out.results {
            assert_eq!(v, vec![10]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Machine::run(MachineConfig::virtual_time(5), |ctx| {
            let comm = Comm::world(ctx);
            let payload = vec![ctx.rank() as u8; ctx.rank() + 1];
            comm.gather(ctx, &payload)
        });
        let root = &out.results[0];
        assert_eq!(root.len(), 5);
        for (r, p) in root.iter().enumerate() {
            assert_eq!(p, &vec![r as u8; r + 1]);
        }
        assert!(out.results[1..].iter().all(|v| v.is_empty()));
    }

    #[test]
    fn scatter_delivers_per_rank_payloads() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let comm = Comm::world(ctx);
            let payloads = if ctx.rank() == 0 {
                (0..4u8).map(|r| vec![r * 10]).collect()
            } else {
                Vec::new()
            };
            comm.scatter(ctx, &payloads)
        });
        for (r, p) in out.results.iter().enumerate() {
            assert_eq!(p, &vec![r as u8 * 10]);
        }
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let comm = Comm::world(ctx);
            let gathered = comm.gather(ctx, &[ctx.rank() as u8 + 1]);
            comm.scatter(ctx, &gathered)
        });
        for (r, p) in out.results.iter().enumerate() {
            assert_eq!(p, &vec![r as u8 + 1]);
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
