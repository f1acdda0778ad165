//! `VLock` — a mutex whose hold time spans *virtual* time.
//!
//! This is the primitive that makes lock contention visible in the model:
//! when a thief holds a victim's queue lock for the duration of a steal
//! (tens of microseconds of virtual time), the victim's own accesses to the
//! shared queue portion are delayed by exactly that interval — the effect
//! the Scioto paper's split queues exist to avoid (§5, Figure 7).

use std::collections::VecDeque;

use scioto_det::sync::Mutex;

use crate::ctx::Ctx;

struct LState {
    holder: Option<usize>,
    /// True between a releaser handing the lock to a waiter and that
    /// waiter waking to claim it — distinguishes the hand-off path from a
    /// re-entrant acquire by the current holder (which is an error).
    handed: bool,
    /// Ownership generation of the current/most recent holder. The n-th
    /// successful acquire of this lock observes `gen == n` (1-based), so
    /// acquire `n` is ordered after release `n - 1` in a trace.
    gen: u64,
    waiters: VecDeque<usize>,
    /// Virtual time of the last release (lower bound for the next acquire).
    free_at: u64,
}

/// A virtual-time-aware FIFO mutex identified by the creating collective;
/// all ranks may acquire/release it through their own [`Ctx`].
pub struct VLock {
    state: Mutex<LState>,
}

impl Default for VLock {
    fn default() -> Self {
        Self::new()
    }
}

impl VLock {
    /// Create an unlocked lock.
    pub fn new() -> Self {
        VLock {
            state: Mutex::new(LState {
                holder: None,
                handed: false,
                gen: 0,
                waiters: VecDeque::new(),
                free_at: 0,
            }),
        }
    }

    /// Acquire the lock, charging `cost` ns (one remote RMW) on success.
    /// Blocks (in virtual time) while another rank holds the lock.
    /// Returns the ownership generation (1-based): acquire `n` is ordered
    /// after release `n - 1` of the same lock.
    ///
    /// # Panics
    /// Panics if the calling rank already holds the lock (`VLock` is not
    /// re-entrant; a real ARMCI mutex would deadlock here).
    pub fn acquire(&self, ctx: &Ctx, cost: u64) -> u64 {
        ctx.yield_point();
        let rank = ctx.rank();
        let mut enqueued = false;
        let seq = loop {
            let mut st = self.state.lock();
            match st.holder {
                Some(h) if h == rank => {
                    assert!(
                        st.handed,
                        "VLock acquired re-entrantly by rank {rank} which already holds it"
                    );
                    // Hand-off from a releaser already made us the holder.
                    st.handed = false;
                    let seq = st.gen;
                    drop(st);
                    break seq;
                }
                None => {
                    st.holder = Some(rank);
                    st.gen += 1;
                    let seq = st.gen;
                    let free_at = st.free_at;
                    drop(st);
                    ctx.advance_to(free_at);
                    break seq;
                }
                Some(_) => {
                    if !enqueued {
                        st.waiters.push_back(rank);
                        enqueued = true;
                    }
                    drop(st);
                    ctx.block_at("vlock.acquire");
                }
            }
        };
        ctx.charge_net(cost);
        seq
    }

    /// Try to acquire without blocking. Charges `cost` ns whether or not
    /// the attempt succeeds (the RMW round-trip happens either way).
    /// Returns the ownership generation on success, `None` when another
    /// rank holds the lock.
    ///
    /// # Panics
    /// Panics if the calling rank already holds the lock.
    pub fn try_acquire(&self, ctx: &Ctx, cost: u64) -> Option<u64> {
        ctx.yield_point();
        let rank = ctx.rank();
        let mut st = self.state.lock();
        let got = match st.holder {
            None => {
                st.holder = Some(rank);
                st.gen += 1;
                Some(st.gen)
            }
            Some(h) => {
                assert!(
                    h != rank,
                    "VLock try-acquired re-entrantly by rank {rank} which already holds it"
                );
                None
            }
        };
        drop(st);
        ctx.charge_net(cost);
        got
    }

    /// Release the lock, charging `cost` ns, and hand it to the first
    /// waiter (FIFO) if any. Returns the ownership generation being ended
    /// (the value the matching acquire returned).
    ///
    /// # Panics
    /// Panics if the calling rank does not hold the lock.
    pub fn release(&self, ctx: &Ctx, cost: u64) -> u64 {
        ctx.charge_net(cost);
        let rank = ctx.rank();
        let now = ctx.now();
        let mut st = self.state.lock();
        assert_eq!(
            st.holder,
            Some(rank),
            "VLock released by rank {} which does not hold it",
            rank
        );
        let seq = st.gen;
        st.free_at = now;
        if let Some(next) = st.waiters.pop_front() {
            st.holder = Some(next);
            st.handed = true;
            st.gen += 1;
            drop(st);
            ctx.unblock(next, now);
        } else {
            st.holder = None;
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, Machine, MachineConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_serializes_critical_sections_in_virtual_time() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let lock = ctx.collective(VLock::new);
            ctx.barrier_with_cost(0);
            lock.acquire(ctx, 10);
            let entry = ctx.now();
            ctx.compute(100); // critical section of 100 ns
            lock.release(ctx, 10);
            entry
        });
        let mut entries = out.results.clone();
        entries.sort_unstable();
        // Each successive entry is at least one critical section later.
        for w in entries.windows(2) {
            assert!(
                w[1] >= w[0] + 100,
                "critical sections overlapped: {entries:?}"
            );
        }
    }

    #[test]
    fn lock_mutual_exclusion_under_concurrency() {
        // Concurrent mode with a shared non-atomic counter protected by the
        // lock; mutual exclusion must make the total exact.
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        let out = Machine::run(MachineConfig::concurrent(8), move |ctx| {
            let lock = ctx.collective(VLock::new);
            for _ in 0..100 {
                lock.acquire(ctx, 0);
                // Non-atomic read-modify-write would race without the lock.
                let v = c2.load(Ordering::Relaxed);
                std::hint::black_box(v);
                c2.store(v + 1, Ordering::Relaxed);
                lock.release(ctx, 0);
            }
        });
        drop(out);
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let lock = ctx.collective(VLock::new);
            if ctx.rank() == 0 {
                lock.acquire(ctx, 0);
                ctx.barrier_with_cost(0); // rank 1 probes while we hold it
                ctx.barrier_with_cost(0);
                lock.release(ctx, 0);
                true
            } else {
                ctx.barrier_with_cost(0);
                let got = lock.try_acquire(ctx, 0).is_some();
                ctx.barrier_with_cost(0);
                got
            }
        });
        assert_eq!(out.results, vec![true, false]);
    }

    #[test]
    fn acquire_returns_monotonic_generations() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let lock = ctx.collective(VLock::new);
            ctx.compute(ctx.rank() as u64 * 10);
            let acq = lock.acquire(ctx, 0);
            ctx.compute(100);
            let rel = lock.release(ctx, 0);
            (acq, rel)
        });
        // The n-th ownership (FIFO by arrival = rank order here) is
        // generation n, and release reports the same generation.
        assert_eq!(out.results, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn try_acquire_generation_continues_the_sequence() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let lock = ctx.collective(VLock::new);
            let a = lock.acquire(ctx, 0);
            let ra = lock.release(ctx, 0);
            let b = lock.try_acquire(ctx, 0).expect("free lock");
            let rb = lock.release(ctx, 0);
            (a, ra, b, rb)
        });
        assert_eq!(out.results, vec![(1, 1, 2, 2)]);
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_acquire_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let lock = ctx.collective(VLock::new);
            lock.acquire(ctx, 0);
            lock.acquire(ctx, 0);
        });
    }

    #[test]
    #[should_panic(expected = "try-acquired re-entrantly")]
    fn reentrant_try_acquire_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let lock = ctx.collective(VLock::new);
            lock.acquire(ctx, 0);
            lock.try_acquire(ctx, 0);
        });
    }

    #[test]
    fn release_hands_off_fifo() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let lock = ctx.collective(VLock::new);
            // Stagger arrival: rank r arrives at r*10 ns.
            ctx.compute(ctx.rank() as u64 * 10);
            lock.acquire(ctx, 0);
            let t = ctx.now();
            ctx.compute(100);
            lock.release(ctx, 0);
            t
        });
        // Rank 0 enters at 0, rank 1 at 100, rank 2 at 200 (FIFO by arrival).
        assert_eq!(out.results, vec![0, 100, 200]);
    }

    #[test]
    #[should_panic(expected = "does not hold it")]
    fn release_without_hold_panics() {
        Machine::run(
            MachineConfig {
                mode: ExecMode::VirtualTime,
                ..MachineConfig::virtual_time(1)
            },
            |ctx| {
                let lock = ctx.collective(VLock::new);
                lock.release(ctx, 0);
            },
        );
    }
}
