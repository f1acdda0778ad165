//! Collectively created mutex sets (ARMCI_Create_mutexes).
//!
//! A set of `count` mutexes exists on *every* rank; `lock(idx, rank)`
//! acquires mutex `idx` on `rank`. Hold times span virtual time, so remote
//! critical sections genuinely delay concurrent accessors — the contention
//! effect the Scioto split queues are designed to minimize. Each acquire,
//! try or release costs one `LatencyModel::lock_to` (`local_get` on the
//! caller's own mutex).

use scioto_sim::{Ctx, TraceEvent, VLock};

use crate::world::Armci;

pub(crate) struct MutexStorage {
    /// `locks[rank][idx]`.
    locks: Vec<Vec<VLock>>,
}

/// Handle to a collectively created set of per-rank mutexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutexSet {
    id: usize,
    count: usize,
}

impl MutexSet {
    /// Number of mutexes per rank in this set.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Armci {
    /// Collectively create `count` mutexes on every rank. Barrier-free;
    /// batch with other collective creations under one [`Ctx::collective_epoch`].
    pub fn create_mutexes(&self, ctx: &Ctx, count: usize) -> MutexSet {
        let n = self.nranks;
        let handle = ctx.collective(|| {
            let id = self.mutex_sets.push(MutexStorage {
                locks: (0..n)
                    .map(|_| (0..count).map(|_| VLock::new()).collect())
                    .collect(),
            });
            MutexSet { id, count }
        });
        *handle
    }

    fn mutex(&self, set: MutexSet, idx: usize, rank: usize) -> &VLock {
        assert!(idx < set.count, "mutex index {idx} out of range");
        assert!(rank < self.nranks, "rank {rank} out of range");
        let storage = self
            .mutex_sets
            .get(set.id)
            .unwrap_or_else(|| panic!("invalid MutexSet handle {}", set.id));
        &storage.locks[rank][idx]
    }

    /// Acquire mutex `idx` on `rank`, blocking in virtual time while held.
    pub fn lock(&self, ctx: &Ctx, set: MutexSet, idx: usize, rank: usize) {
        let traced = ctx.trace_enabled();
        let t0 = if traced { ctx.now() } else { 0 };
        let seq = self
            .mutex(set, idx, rank)
            .acquire(ctx, ctx.latency().lock_to(ctx.rank(), rank, self.nranks));
        if traced {
            // One completion-time clock read stamps both events. LockAcq
            // is emitted at completion so acquisition events appear in
            // lock order: the n-th LockAcq of a mutex carries seq n and is
            // ordered after the LockRel with seq n - 1.
            let t1 = ctx.now();
            ctx.trace_at(t1, || TraceEvent::LockAcq {
                target: rank as u32,
                set: set.id as u32,
                idx: idx as u32,
                seq,
            });
            // The span covers the queue wait plus the acquire round trip.
            // Zero-length waits are elided.
            let dur_ns = t1.saturating_sub(t0);
            if dur_ns > 0 {
                ctx.trace_at(t1, || TraceEvent::LockWait {
                    target: rank as u32,
                    dur_ns,
                });
            }
        }
    }

    /// Try to acquire mutex `idx` on `rank` without blocking.
    pub fn try_lock(&self, ctx: &Ctx, set: MutexSet, idx: usize, rank: usize) -> bool {
        match self
            .mutex(set, idx, rank)
            .try_acquire(ctx, ctx.latency().lock_to(ctx.rank(), rank, self.nranks))
        {
            Some(seq) => {
                ctx.trace(|| TraceEvent::LockAcq {
                    target: rank as u32,
                    set: set.id as u32,
                    idx: idx as u32,
                    seq,
                });
                true
            }
            None => false,
        }
    }

    /// Release mutex `idx` on `rank`.
    pub fn unlock(&self, ctx: &Ctx, set: MutexSet, idx: usize, rank: usize) {
        let seq = self
            .mutex(set, idx, rank)
            .release(ctx, ctx.latency().lock_to(ctx.rank(), rank, self.nranks));
        ctx.trace(|| TraceEvent::LockRel {
            target: rank as u32,
            set: set.id as u32,
            idx: idx as u32,
            seq,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn mutexes_serialize_remote_critical_sections() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let m = armci.create_mutexes(ctx, 1);
            // All ranks increment a non-atomic counter on rank 0 under the
            // same mutex: read, compute, write — racy without the lock.
            for _ in 0..5 {
                armci.lock(ctx, m, 0, 0);
                let mut buf = [0u8; 8];
                armci.get(ctx, g, 0, 0, &mut buf);
                let v = i64::from_le_bytes(buf);
                ctx.compute(50);
                armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
            }
            armci.barrier(ctx);
            armci.read_i64(ctx, g, 0, 0)
        });
        for v in out.results {
            assert_eq!(v, 20);
        }
    }

    #[test]
    #[should_panic(expected = "invalid MutexSet handle 3")]
    fn unknown_mutex_set_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            armci.lock(ctx, MutexSet { id: 3, count: 1 }, 0, 0);
        });
    }

    #[test]
    fn distinct_mutexes_do_not_interfere() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 2);
            // Rank 0 takes mutex 0, rank 1 takes mutex 1 on the same target;
            // no deadlock, no blocking.
            armci.lock(ctx, m, ctx.rank(), 0);
            ctx.compute(100);
            armci.unlock(ctx, m, ctx.rank(), 0);
            ctx.now()
        });
        // Both finish around 100 ns — neither waited for the other.
        for t in out.results {
            assert!(t < 250, "unexpected blocking: {t} ns");
        }
    }

    #[test]
    fn try_lock_reports_contention() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 1);
            if ctx.rank() == 0 {
                armci.lock(ctx, m, 0, 0);
                ctx.barrier_with_cost(0);
                ctx.barrier_with_cost(0);
                armci.unlock(ctx, m, 0, 0);
                true
            } else {
                ctx.barrier_with_cost(0);
                let got = armci.try_lock(ctx, m, 0, 0);
                ctx.barrier_with_cost(0);
                got
            }
        });
        assert_eq!(out.results, vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "does not hold it")]
    fn unlock_without_lock_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 1);
            armci.unlock(ctx, m, 0, 0);
        });
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_lock_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let m = armci.create_mutexes(ctx, 1);
            armci.lock(ctx, m, 0, 0);
            armci.lock(ctx, m, 0, 0);
        });
    }

    #[test]
    fn lock_unlock_seqs_pair_in_trace_order() {
        use scioto_sim::TraceConfig;
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
            |ctx| {
                let armci = Armci::init(ctx);
                let m = armci.create_mutexes(ctx, 1);
                armci.lock(ctx, m, 0, 0);
                ctx.compute(50);
                armci.unlock(ctx, m, 0, 0);
                armci.barrier(ctx);
            },
        );
        let trace = out.report.trace.expect("tracing enabled");
        let mut all_seqs = Vec::new();
        for events in &trace.events {
            // Each rank's stream must show its acquisition before its
            // release, with the same ownership generation on both.
            let acq: Vec<(usize, u64)> = events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e.event {
                    TraceEvent::LockAcq { seq, .. } => Some((i, seq)),
                    _ => None,
                })
                .collect();
            let rel: Vec<(usize, u64)> = events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e.event {
                    TraceEvent::LockRel { seq, .. } => Some((i, seq)),
                    _ => None,
                })
                .collect();
            assert_eq!(acq.len(), 1);
            assert_eq!(rel.len(), 1);
            assert!(acq[0].0 < rel[0].0, "acquire must precede release");
            assert_eq!(acq[0].1, rel[0].1, "acquire/release generations pair");
            all_seqs.push(acq[0].1);
        }
        // Ownership generations are globally sequential across ranks.
        all_seqs.sort_unstable();
        assert_eq!(all_seqs, vec![1, 2]);
    }

    #[test]
    fn multiple_sets_coexist() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let a = armci.create_mutexes(ctx, 1);
            let b = armci.create_mutexes(ctx, 3);
            armci.lock(ctx, a, 0, 0);
            armci.lock(ctx, b, 2, 1);
            armci.unlock(ctx, b, 2, 1);
            armci.unlock(ctx, a, 0, 0);
            (a.count(), b.count())
        });
        assert!(out.results.iter().all(|&(x, y)| x == 1 && y == 3));
    }
}
