//! Remote read-modify-write operations (ARMCI_Rmw): fetch-and-add, swap,
//! compare-and-swap on 8-byte little-endian integers in global memory.
//! Each costs its wait in the target word's service queue, `rmw_service`,
//! then one `LatencyModel::remote_op_to` (`local_get` on the caller's own
//! memory).

use std::sync::atomic::Ordering;

use scioto_sim::{Ctx, RemoteOpKind};

use crate::gmem::{record_remote, Gmem};
use crate::world::Armci;

impl Armci {
    fn rmw<R>(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        f: impl FnOnce(i64) -> (i64, R),
    ) -> R {
        self.check_bounds(g, rank, offset, 8);
        assert!(
            offset.is_multiple_of(8),
            "rmw offset {offset} must be 8-byte aligned"
        );
        let seg = self.segment(g);
        // Target-side serialization: the adapter services RMWs on one word
        // one at a time. Waiting in the service queue spans virtual time,
        // which is what bounds a hot counter's throughput.
        let service = ctx.latency().rmw_service;
        record_remote(ctx, RemoteOpKind::Rmw, g, rank, offset, 8, true);
        let hot = seg.hot_word(rank, offset);
        let _ = hot.acquire(ctx, 0);
        ctx.charge_net(service);
        let ret = {
            // Atomic against accumulates into the same store, which load
            // and store under this lock too.
            let _rmw = seg.store.rmw_lock(rank);
            let (w, row) = (offset / 8, seg.store.row(rank));
            // Acquire / Release: the lock already puts every RMW and
            // accumulate on this store in one order, and the one protocol
            // built on RMWs — GA's `read_inc` counters handing out task
            // indices — reads nothing else against the value it gets
            // (DESIGN.md "Host access path"). An RMW that leaves the word
            // as it is (a read) stores nothing, so it allocates nothing.
            let cur = row.word(w, false).map_or(0, |a| a.load(Ordering::Acquire));
            let (new, ret) = f(cur as i64);
            if new as u64 != cur {
                let word = row.word(w, true).expect("allocated");
                word.store(new as u64, Ordering::Release);
            }
            ret
        };
        let _ = hot.release(ctx, 0);
        ctx.charge_net(ctx.latency().remote_op_to(ctx.rank(), rank, self.nranks));
        ret
    }

    /// Atomically add `val` to the i64 at `(rank, offset)`, returning the
    /// previous value.
    pub fn fetch_add_i64(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, val: i64) -> i64 {
        self.rmw(ctx, g, rank, offset, |cur| (cur.wrapping_add(val), cur))
    }

    /// Atomically replace the i64 at `(rank, offset)` with `val`, returning
    /// the previous value.
    pub fn swap_i64(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, val: i64) -> i64 {
        self.rmw(ctx, g, rank, offset, |cur| (val, cur))
    }

    /// Atomic compare-and-swap: if the i64 at `(rank, offset)` equals
    /// `expect`, store `new`. Returns the previous value either way.
    pub fn cas_i64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        expect: i64,
        new: i64,
    ) -> i64 {
        self.rmw(ctx, g, rank, offset, |cur| {
            (if cur == expect { new } else { cur }, cur)
        })
    }

    /// Atomic read of the i64 at `(rank, offset)`.
    pub fn read_i64(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize) -> i64 {
        self.rmw(ctx, g, rank, offset, |cur| (cur, cur))
    }

    /// Atomic write of the i64 at `(rank, offset)`.
    pub fn write_i64(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, val: i64) {
        self.rmw(ctx, g, rank, offset, |_| (val, ()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{ExecMode, Machine, MachineConfig};

    #[test]
    fn fetch_add_produces_unique_tickets() {
        let out = Machine::run(MachineConfig::virtual_time(8), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let mut tickets = Vec::new();
            for _ in 0..10 {
                tickets.push(armci.fetch_add_i64(ctx, g, 0, 0, 1));
            }
            tickets
        });
        let mut all: Vec<i64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..80).collect::<Vec<i64>>());
    }

    #[test]
    fn fetch_add_unique_under_real_concurrency() {
        let cfg = MachineConfig {
            mode: ExecMode::Concurrent,
            ..MachineConfig::virtual_time(8)
        };
        let out = Machine::run(cfg, |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            (0..100)
                .map(|_| armci.fetch_add_i64(ctx, g, 0, 0, 1))
                .collect::<Vec<i64>>()
        });
        let mut all: Vec<i64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..800).collect::<Vec<i64>>());
    }

    #[test]
    fn swap_returns_previous() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            armci.write_i64(ctx, g, 0, 8, 5);
            let old = armci.swap_i64(ctx, g, 0, 8, 9);
            (old, armci.read_i64(ctx, g, 0, 8))
        });
        assert_eq!(out.results, vec![(5, 9)]);
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.write_i64(ctx, g, 0, 0, 10);
            let a = armci.cas_i64(ctx, g, 0, 0, 99, 1); // fails
            let b = armci.cas_i64(ctx, g, 0, 0, 10, 1); // succeeds
            (a, b, armci.read_i64(ctx, g, 0, 0))
        });
        assert_eq!(out.results, vec![(10, 10, 1)]);
    }

    #[test]
    #[should_panic(expected = "rmw offset")]
    fn unaligned_rmw_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            armci.read_i64(ctx, g, 0, 3);
        });
    }

    #[test]
    #[should_panic(expected = "rank 3 out of range (nranks = 1)")]
    fn rmw_on_bad_rank_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            armci.fetch_add_i64(ctx, g, 3, 0, 1);
        });
    }

    #[test]
    #[should_panic(
        expected = "access [18446744073709551608, 18446744073709551608+8) out of bounds for segment of 16 bytes"
    )]
    fn rmw_with_overflowing_offset_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            // 8-aligned, and `offset + 8` wraps to 0.
            armci.read_i64(ctx, g, 0, usize::MAX - 7);
        });
    }
}
