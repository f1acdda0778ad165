//! The per-process patch of a task collection: a circular queue of
//! fixed-size task slots in ARMCI shared space (§5 of the paper).
//!
//! Ring positions are monotonically increasing virtual indices
//! (`tail <= split <= head`, slot = `index mod capacity`):
//!
//! ```text
//!     tail ──────────── split ─────────── head
//!       [ shared portion )[ private portion )
//!        stolen from here   owner pops here
//! ```
//!
//! * the **owner** pushes and pops at `head` without any lock — only the
//!   owner ever writes `head` or `split`, and thieves never read `head`;
//! * **thieves** lock the queue, read `(split, tail)`, transfer up to
//!   `chunk` tasks from the tail (the low-affinity end) with one one-sided
//!   get per contiguous run, advance `tail`, and unlock;
//! * the owner moves the **split pointer** under the lock to release
//!   private work for stealing or to reclaim shared work for local
//!   execution — no task is ever copied by these operations (§5);
//! * with [`QueueKind::Locked`] every operation takes the lock and
//!   `split == head` is maintained, which is the paper's original
//!   implementation kept as the "No Split" ablation of Figure 7.
//!
//! Low-affinity local adds and all remote adds insert at the tail
//! (decrementing it), making them the first candidates for stealing and the
//! last for local execution — the priority order of §5.1.

use scioto_armci::{Armci, Gmem, MutexSet};
use scioto_sim::{Ctx, TraceEvent};

use crate::config::{QueueKind, TcConfig};
use crate::stats::RankCounters;
use crate::task::{decode_slot, encode_slot, TaskHeader, TaskRecord, HEADER_BYTES};

const HEAD: usize = 0;
const SPLIT: usize = 8;
const TAIL: usize = 16;
const META_BYTES: usize = 24;

fn word(meta: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(meta[off..off + 8].try_into().expect("8 bytes"))
}

/// `(head, split, tail)` out of a queue's metadata block.
fn decode_indices(meta: &[u8]) -> (i64, i64, i64) {
    (word(meta, HEAD), word(meta, SPLIT), word(meta, TAIL))
}

pub(crate) struct PatchQueue {
    kind: QueueKind,
    cap: i64,
    slot_sz: usize,
    chunk: usize,
    release_threshold: i64,
    release_fraction: f64,
    meta: Gmem,
    slots: Gmem,
    locks: MutexSet,
}

impl PatchQueue {
    pub(crate) fn new(ctx: &Ctx, armci: &Armci, cfg: &TcConfig) -> Self {
        let slot_sz = (HEADER_BYTES + cfg.max_body).div_ceil(8) * 8;
        let meta = armci.malloc(ctx, META_BYTES);
        let slots = armci.malloc(ctx, cfg.max_tasks * slot_sz);
        let locks = armci.create_mutexes(ctx, 1);
        PatchQueue {
            kind: cfg.queue,
            cap: cfg.max_tasks as i64,
            slot_sz,
            chunk: cfg.chunk,
            release_threshold: cfg.release_threshold as i64,
            release_fraction: cfg.release_fraction,
            meta,
            slots,
            locks,
        }
    }

    pub(crate) fn slot_sz(&self) -> usize {
        self.slot_sz
    }

    // ---- owner-private metadata access (no scheduling point) ----
    //
    // Access-record atomicity follows the split-queue protocol (§5):
    // * `HEAD` is written lock-free by the owner while thieves read it in
    //   `insert_tail`'s composite index get — both sides are marked atomic
    //   (single-word discipline the protocol declares safe);
    // * `SPLIT` is written only under the queue lock, but `steal_peek`
    //   reads it lock-free, so the owner's single-word stores are marked
    //   atomic as well (a stale peek only mis-predicts availability);
    // * `TAIL` is written by thieves under the lock but read lock-free by
    //   the owner's reclaim/release pre-checks and by `steal_peek`, so
    //   those reads and the thieves' puts are marked atomic.

    fn write_meta_local(&self, ctx: &Ctx, armci: &Armci, off: usize, v: i64) {
        armci.with_local_range_mut(ctx, self.meta, off, 8, off == HEAD || off == SPLIT, |b| {
            b.copy_from_slice(&v.to_le_bytes())
        });
    }

    fn slot_pos(&self, index: i64) -> usize {
        (index.rem_euclid(self.cap)) as usize * self.slot_sz
    }

    fn write_slot_local(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        index: i64,
        header: &TaskHeader,
        body: &[u8],
    ) {
        let pos = self.slot_pos(index);
        armci.with_local_range_mut(ctx, self.slots, pos, self.slot_sz, false, |b| {
            encode_slot(b, header, body);
        });
    }

    /// Hand slot `index`'s header and body to `take` where they lie.
    fn read_slot_local<R>(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        index: i64,
        take: impl FnOnce(TaskHeader, &[u8]) -> R,
    ) -> R {
        let pos = self.slot_pos(index);
        armci.with_local_range(ctx, self.slots, pos, self.slot_sz, false, |b| {
            let (header, body) = decode_slot(b);
            take(header, body)
        })
    }

    /// Zero the owner's metadata (collective reset; caller barriers, so
    /// this pre-concurrency fill stays un-recorded).
    pub(crate) fn reset_local(&self, ctx: &Ctx, armci: &Armci) {
        armci.with_local_mut(ctx, self.meta, |b| b.fill(0));
    }

    /// Record the owner's read of its three index words — exactly the two
    /// accesses the protocol declares: `(head, split)` as one plain read
    /// and `tail`, which thieves publish lock-free, as an atomic one.
    fn record_indices_read(&self, ctx: &Ctx, armci: &Armci) {
        armci.record_local_access(ctx, self.meta, HEAD, 16, false, false);
        armci.record_local_access(ctx, self.meta, TAIL, 8, false, true);
    }

    /// `(head, split, tail)` of the owner's queue.
    pub(crate) fn indices_local(&self, ctx: &Ctx, armci: &Armci) -> (i64, i64, i64) {
        self.record_indices_read(ctx, armci);
        armci.with_local(ctx, self.meta, decode_indices)
    }

    /// One split-queue owner operation in a single lock scope on the
    /// owner's metadata block: read `(head, split, tail)`, let `op` move a
    /// slot and say where `head` goes (`None`: nothing to do), publish
    /// it. Returns the indices as they stand afterwards — `split` and
    /// `tail` as read, which is all the release pre-check needs: only the
    /// owner writes `split`, and a stale `tail` is what that check is
    /// specified against. No queue lock is involved (§5: "the owner pushes
    /// and pops at `head` without any lock"); the scope is the host mutex
    /// that makes a rank's bytes safe to share between real threads.
    fn owner_op(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        op: impl FnOnce(i64, i64, i64) -> Option<i64>,
    ) -> (i64, i64, i64) {
        armci.with_local_mut(ctx, self.meta, |meta| {
            self.record_indices_read(ctx, armci);
            let (head, split, tail) = decode_indices(meta);
            let Some(new_head) = op(head, split, tail) else {
                return (head, split, tail);
            };
            // protocol: single-word `head` publish (see the atomicity
            // notes above); thieves read it in `insert_tail`'s composite get.
            armci.record_local_access(ctx, self.meta, HEAD, 8, true, true);
            meta[HEAD..HEAD + 8].copy_from_slice(&new_head.to_le_bytes());
            (new_head, split, tail)
        })
    }

    /// True when the owner's queue holds no tasks.
    pub(crate) fn is_empty_local(&self, ctx: &Ctx, armci: &Armci) -> bool {
        let (head, _, tail) = self.indices_local(ctx, armci);
        head == tail
    }

    // ---- owner operations ----

    /// Owner push. High-affinity tasks go to the head (private end);
    /// low-affinity tasks (`affinity < 0`) are inserted at the tail, the
    /// first position to be stolen. `body` is copied once, from the
    /// caller's buffer straight into the slot.
    pub(crate) fn push_local(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        header: &TaskHeader,
        body: &[u8],
        counters: &RankCounters,
    ) {
        if header.affinity < 0 && self.kind == QueueKind::Split {
            self.insert_tail(ctx, armci, ctx.rank(), header, body);
            return;
        }
        match self.kind {
            QueueKind::Split => {
                let (head, split, tail) = self.owner_op(ctx, armci, |head, _, tail| {
                    self.check_capacity(head, tail);
                    self.write_slot_local(ctx, armci, head, header, body);
                    Some(head + 1)
                });
                ctx.charge_cpu(ctx.latency().local_insert);
                self.maybe_release(ctx, armci, counters, head, split, tail);
            }
            QueueKind::Locked => {
                armci.lock(ctx, self.locks, 0, ctx.rank());
                let (head, _, tail) = self.indices_local(ctx, armci);
                self.check_capacity(head, tail);
                self.write_slot_local(ctx, armci, head, header, body);
                self.write_meta_local(ctx, armci, HEAD, head + 1);
                self.write_meta_local(ctx, armci, SPLIT, head + 1);
                ctx.charge_cpu(ctx.latency().local_insert);
                armci.unlock(ctx, self.locks, 0, ctx.rank());
            }
        }
    }

    /// Owner pop from the head. For the split queue this touches only the
    /// private portion; returns `None` when the private portion is empty
    /// (callers should then try [`PatchQueue::reclaim`]). `take` sees the
    /// popped task's header and body in the slot, before `head` is
    /// published: it copies out what the caller needs — into a buffer the
    /// caller reuses — and must not touch the queue.
    pub(crate) fn pop_local<R>(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        counters: &RankCounters,
        take: impl FnOnce(TaskHeader, &[u8]) -> R,
    ) -> Option<R> {
        match self.kind {
            QueueKind::Split => {
                let mut popped = None;
                let (head, split, tail) = self.owner_op(ctx, armci, |head, split, _| {
                    if head <= split {
                        return None;
                    }
                    popped = Some(self.read_slot_local(ctx, armci, head - 1, take));
                    Some(head - 1)
                });
                let taken = popped?;
                ctx.charge_cpu(ctx.latency().local_get);
                // Keep work available for thieves while draining a deep
                // private portion (the owner "moves tasks between the shared
                // and local portions as the computation progresses", §5).
                self.maybe_release(ctx, armci, counters, head, split, tail);
                Some(taken)
            }
            QueueKind::Locked => {
                armci.lock(ctx, self.locks, 0, ctx.rank());
                let (head, _, tail) = self.indices_local(ctx, armci);
                if head <= tail {
                    armci.unlock(ctx, self.locks, 0, ctx.rank());
                    return None;
                }
                let h = head - 1;
                let taken = self.read_slot_local(ctx, armci, h, take);
                self.write_meta_local(ctx, armci, HEAD, h);
                self.write_meta_local(ctx, armci, SPLIT, h);
                ctx.charge_cpu(ctx.latency().local_get);
                armci.unlock(ctx, self.locks, 0, ctx.rank());
                Some(taken)
            }
        }
    }

    /// Owner reclaims shared work for local execution by moving the split
    /// pointer toward the tail (split queue only). Returns whether any
    /// tasks became private.
    pub(crate) fn reclaim(&self, ctx: &Ctx, armci: &Armci, counters: &RankCounters) -> bool {
        if self.kind != QueueKind::Split {
            return false;
        }
        // Cheap unsynchronized pre-check: `tail` may be stale (thieves only
        // advance it), so a nonzero result here may still vanish under the
        // lock — but zero means definitely nothing to reclaim.
        let (_, split, tail) = self.indices_local(ctx, armci);
        if split - tail <= 0 {
            return false;
        }
        armci.lock(ctx, self.locks, 0, ctx.rank());
        let (_, split, tail) = self.indices_local(ctx, armci);
        let avail = split - tail;
        if avail <= 0 {
            armci.unlock(ctx, self.locks, 0, ctx.rank());
            return false;
        }
        // Reclaim half (at least one); no task is copied, only the split
        // pointer moves.
        let take = (avail + 1) / 2;
        self.write_meta_local(ctx, armci, SPLIT, split - take);
        ctx.charge_cpu(ctx.latency().local_get);
        armci.unlock(ctx, self.locks, 0, ctx.rank());
        counters
            .splits_reclaimed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ctx.trace(|| TraceEvent::SplitReclaim {
            moved: take as u32,
        });
        true
    }

    /// After a push or pop, release private work to the shared portion
    /// when thieves have drained it below the threshold. `(head, split,
    /// tail)` are the indices the operation's own scope just read and
    /// published; the lock-free pre-check is still an access of the
    /// protocol's and is recorded as one.
    fn maybe_release(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        counters: &RankCounters,
        head: i64,
        split: i64,
        tail: i64,
    ) {
        self.record_indices_read(ctx, armci);
        let shared = split - tail;
        let private = head - split;
        if shared >= self.release_threshold || private < 2 {
            return;
        }
        armci.lock(ctx, self.locks, 0, ctx.rank());
        let (head, split, _) = self.indices_local(ctx, armci);
        let private = head - split;
        if private >= 2 {
            let give = ((private as f64 * self.release_fraction) as i64).clamp(1, private - 1);
            self.write_meta_local(ctx, armci, SPLIT, split + give);
            counters
                .splits_released
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ctx.trace(|| TraceEvent::SplitRelease {
                moved: give as u32,
            });
        }
        ctx.charge_cpu(ctx.latency().local_get);
        armci.unlock(ctx, self.locks, 0, ctx.rank());
    }

    fn check_capacity(&self, head: i64, tail: i64) {
        assert!(
            head - tail < self.cap,
            "task collection overflow: queue holds {} tasks (max_tasks = {})",
            head - tail,
            self.cap
        );
    }

    // ---- remote / shared-portion operations ----

    /// Insert a task at the tail of `target`'s queue (used for remote adds
    /// and low-affinity local adds): lock, read indices, write the slot and
    /// the decremented tail one-sided, unlock.
    pub(crate) fn insert_tail(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        target: usize,
        header: &TaskHeader,
        body: &[u8],
    ) {
        armci.lock(ctx, self.locks, 0, target);
        // Atomic composite get: this one transfer also covers `head`, which
        // the owner updates lock-free (single-word protocol discipline).
        let idx = armci.get_i64s_atomic(ctx, self.meta, target, HEAD, 3);
        let (head, _split, tail) = (idx[0], idx[1], idx[2]);
        self.check_capacity(head, tail);
        let t = tail - 1;
        let pos = self.slot_pos(t);
        let mut buf = vec![0u8; self.slot_sz];
        encode_slot(&mut buf, header, body);
        armci.put(ctx, self.slots, target, pos, &buf);
        // protocol: single-word tail store under the queue lock; the
        // owner's reclaim/release pre-checks read `tail` lock-free.
        armci.put_i64s_atomic(ctx, self.meta, target, TAIL, &[t]);
        armci.unlock(ctx, self.locks, 0, target);
    }

    /// Lock-free availability probe of `victim`'s shared portion: one
    /// composite atomic read of `(split, tail)`, no lock traffic. The
    /// locality steal path probes before locking so the common case — an
    /// empty victim — costs one one-sided get instead of two lock
    /// round-trips plus a get. Staleness is benign in both directions: a
    /// stale "empty" just retries on the next hunt iteration, a stale
    /// "available" falls through to the locked steal, which re-reads the
    /// indices under the lock.
    pub(crate) fn steal_peek(&self, ctx: &Ctx, armci: &Armci, victim: usize) -> bool {
        // Split queues only: the locked-queue ablation exists to measure
        // the cost of taking the lock for every operation, and a
        // lock-free probe would sidestep exactly the cost it measures.
        if self.kind != QueueKind::Split {
            return true;
        }
        // protocol: heuristic lock-free read of the lock-guarded
        // `split`/`tail` words; a stale view only mis-predicts
        // availability, it never derives state that is written back.
        let idx = armci.get_i64s_atomic(ctx, self.meta, victim, SPLIT, 2);
        idx[0] - idx[1] > 0
    }

    /// Steal up to `chunk` tasks from the tail of `victim`'s shared
    /// portion. Returns the transferred tasks (oldest first).
    pub(crate) fn steal(&self, ctx: &Ctx, armci: &Armci, victim: usize) -> Vec<TaskRecord> {
        debug_assert_ne!(victim, ctx.rank(), "cannot steal from self");
        armci.lock(ctx, self.locks, 0, victim);
        // One one-sided get covers both `split` and `tail`.
        let idx = armci.get_i64s(ctx, self.meta, victim, SPLIT, 2);
        let (split, tail) = (idx[0], idx[1]);
        let avail = split - tail;
        if avail <= 0 {
            armci.unlock(ctx, self.locks, 0, victim);
            return Vec::new();
        }
        let k = (self.chunk as i64).min(avail);
        let mut buf = vec![0u8; (k as usize) * self.slot_sz];
        // The ring window [tail, tail+k) is at most two contiguous runs.
        let start = tail.rem_euclid(self.cap);
        let run1 = k.min(self.cap - start);
        armci.get(
            ctx,
            self.slots,
            victim,
            start as usize * self.slot_sz,
            &mut buf[..run1 as usize * self.slot_sz],
        );
        if run1 < k {
            armci.get(
                ctx,
                self.slots,
                victim,
                0,
                &mut buf[run1 as usize * self.slot_sz..],
            );
        }
        // protocol: single-word tail store under the victim's queue lock;
        // the owner reads `tail` lock-free in its release pre-check.
        armci.put_i64s_atomic(ctx, self.meta, victim, TAIL, &[tail + k]);
        armci.unlock(ctx, self.locks, 0, victim);
        buf.chunks_exact(self.slot_sz)
            .map(TaskRecord::decode)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcConfig;
        use scioto_sim::{Machine, MachineConfig};
    use std::sync::Arc;

    /// Task `id`: the id is both the callback field and the 4-byte body.
    fn header(id: u32, affinity: i32) -> TaskHeader {
        TaskHeader {
            callback: id,
            affinity,
            creator: 0,
            body_len: 4,
        }
    }

    fn push(q: &PatchQueue, ctx: &Ctx, armci: &Armci, id: u32, affinity: i32, c: &RankCounters) {
        q.push_local(ctx, armci, &header(id, affinity), &id.to_le_bytes(), c);
    }

    /// Pop one task and return its id, checking the body came with it.
    fn pop_id(q: &PatchQueue, ctx: &Ctx, armci: &Armci, c: &RankCounters) -> Option<u32> {
        q.pop_local(ctx, armci, c, |h, body| {
            assert_eq!(body, h.callback.to_le_bytes());
            h.callback
        })
    }

    fn setup(ctx: &Ctx, cfg: TcConfig) -> (Arc<Armci>, PatchQueue) {
        let armci = Armci::init(ctx);
        let q = PatchQueue::new(ctx, &armci, &cfg);
        (armci, q)
    }

    #[test]
    fn lifo_pop_order_for_local_work() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(16, 2, 32));
            let c = RankCounters::default();
            for i in 0..5 {
                push(&q, ctx, &armci, i, 1, &c);
            }
            let mut got = Vec::new();
            loop {
                match pop_id(&q, ctx, &armci, &c) {
                    Some(id) => got.push(id),
                    None => {
                        if !q.reclaim(ctx, &armci, &c) {
                            break;
                        }
                    }
                }
            }
            let s = c.snapshot();
            (got, s.splits_released, s.splits_reclaimed)
        });
        // The split-pointer traffic is part of the fixture: the second
        // push releases task 0, which keeps the shared portion at the
        // threshold from then on, and one reclaim brings it back last.
        assert_eq!(out.results[0], (vec![4, 3, 2, 1, 0], 1, 1));
    }

    #[test]
    fn release_makes_work_stealable_and_steal_takes_from_tail() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(16, 2, 64));
            let c = RankCounters::default();
            if ctx.rank() == 0 {
                for i in 0..8 {
                    push(&q, ctx, &armci, i, 1, &c);
                }
                armci.barrier(ctx);
                armci.barrier(ctx);
                Vec::new()
            } else {
                armci.barrier(ctx);
                let stolen = q.steal(ctx, &armci, 0);
                armci.barrier(ctx);
                stolen.iter().map(|r| r.header.callback).collect()
            }
        });
        // With release threshold 1, one task (the oldest, task 0 at the
        // tail = lowest local priority) is shared when the thief arrives.
        assert_eq!(out.results[1], vec![0]);
    }

    #[test]
    fn owner_and_thief_never_lose_or_duplicate_tasks() {
        for kind in [QueueKind::Split, QueueKind::Locked] {
            let out = Machine::run(MachineConfig::virtual_time(4), move |ctx| {
                let cfg = TcConfig::new(16, 3, 256).with_queue(kind);
                let (armci, q) = setup(ctx, cfg);
                let c = RankCounters::default();
                // Rank 0 pushes 60 tasks, interleaving with thieves.
                let mut seen = Vec::new();
                if ctx.rank() == 0 {
                    for i in 0..60 {
                        push(&q, ctx, &armci, i, 1, &c);
                        ctx.compute(100);
                    }
                    armci.barrier(ctx);
                    loop {
                        match pop_id(&q, ctx, &armci, &c) {
                            Some(id) => seen.push(id),
                            None => {
                                if !q.reclaim(ctx, &armci, &c) {
                                    break;
                                }
                            }
                        }
                    }
                } else {
                    armci.barrier(ctx);
                    for _ in 0..4 {
                        for r in q.steal(ctx, &armci, 0) {
                            seen.push(r.header.callback);
                        }
                        ctx.compute(500);
                    }
                }
                armci.barrier(ctx);
                seen
            });
            let mut all: Vec<u32> = out.results.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..60).collect::<Vec<u32>>(), "kind={kind:?}");
        }
    }

    /// The same never-lose-never-duplicate property on eight real
    /// threads: seven thieves steal *while* the owner pushes and pops, so
    /// head publication, release, reclaim and steal genuinely interleave.
    /// The seed varies the owner's push/pop bursts.
    #[test]
    fn owner_and_thieves_never_lose_or_duplicate_tasks_on_real_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const TASKS: u32 = 2000;
        for kind in [QueueKind::Split, QueueKind::Locked] {
            for seed in 0..6 {
                let drained = Arc::new(AtomicBool::new(false));
                let out = Machine::run(MachineConfig::concurrent(8).with_seed(seed), {
                    let drained = Arc::clone(&drained);
                    move |ctx| {
                        // A deep shared portion keeps the thieves fed.
                        let cfg = TcConfig {
                            release_threshold: 8,
                            ..TcConfig::new(16, 3, TASKS as usize)
                        };
                        let (armci, q) = setup(ctx, cfg.with_queue(kind));
                        let c = RankCounters::default();
                        let mut seen = Vec::new();
                        // Every thread leaves this barrier together.
                        armci.barrier(ctx);
                        if ctx.rank() == 0 {
                            let mut next = 0;
                            while next < TASKS {
                                let burst = ctx.rng().gen_range(1..8u32).min(TASKS - next);
                                for _ in 0..burst {
                                    push(&q, ctx, &armci, next, 1, &c);
                                    next += 1;
                                }
                                let pops = ctx.rng().gen_range(0..burst + 1);
                                for _ in 0..pops {
                                    if let Some(id) = pop_id(&q, ctx, &armci, &c) {
                                        seen.push(id);
                                    }
                                }
                            }
                            loop {
                                match pop_id(&q, ctx, &armci, &c) {
                                    Some(id) => seen.push(id),
                                    None => {
                                        if !q.reclaim(ctx, &armci, &c) {
                                            break;
                                        }
                                    }
                                }
                            }
                            assert!(q.is_empty_local(ctx, &armci));
                            // Release: pairs with the thieves' Acquire load.
                            drained.store(true, Ordering::Release);
                        } else {
                            loop {
                                // Read the flag first: a steal that starts
                                // after the queue was drained finds nothing.
                                let last = drained.load(Ordering::Acquire);
                                for r in q.steal(ctx, &armci, 0) {
                                    seen.push(r.header.callback);
                                }
                                if last {
                                    break;
                                }
                            }
                        }
                        armci.barrier(ctx);
                        seen
                    }
                });
                let stolen: usize = out.results[1..].iter().map(Vec::len).sum();
                let mut all: Vec<u32> = out.results.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..TASKS).collect::<Vec<u32>>(),
                    "kind={kind:?} seed={seed} ({stolen} stolen)"
                );
            }
        }
    }

    /// Host bytes backing this rank's slot store. `armci` owns the store
    /// and says how much of each segment is materialised only in its
    /// `Debug` output; the slot segment is the one of the queue's length.
    fn slot_store_bytes(ctx: &Ctx, armci: &Armci, q: &PatchQueue) -> usize {
        let dump = format!("{armci:?}");
        let key = format!("Segment {{ len: {}, materialised: [", q.slots.len());
        let list = dump.split(&key).nth(1).expect("slot segment in Armci's Debug output");
        let mine = list.split(", ").nth(ctx.rank()).expect("one entry per rank");
        let digits = mine.trim_start_matches("Some(");
        digits[..digits.find(')').expect("an unlocked store")]
            .parse()
            .expect("a byte count")
    }

    /// The owner path touches the slots between the lowest and highest
    /// index the queue reached, so what the host commits follows the
    /// queue's depth, not its capacity: N pushes materialise O(N) slots of
    /// UTS's 2^17-slot ring, and push/pop pairs on top add nothing.
    #[test]
    fn slot_store_follows_queue_depth_not_capacity() {
        const DEPTH: usize = 300;
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            // UTS: 24-byte nodes (40-byte slots), chunk 10, 2^17 slots.
            let (armci, q) = setup(ctx, TcConfig::new(24, 10, 1 << 17));
            let c = RankCounters::default();
            let fresh = slot_store_bytes(ctx, &armci, &q);
            for i in 0..DEPTH as u32 {
                push(&q, ctx, &armci, i, 1, &c);
            }
            let deep = slot_store_bytes(ctx, &armci, &q);
            for i in 0..10 * DEPTH as u32 {
                assert!(pop_id(&q, ctx, &armci, &c).is_some());
                push(&q, ctx, &armci, i, 1, &c);
            }
            armci.barrier(ctx);
            (fresh, deep, slot_store_bytes(ctx, &armci, &q), q.slot_sz())
        });
        for (fresh, deep, churned, slot) in out.results {
            assert_eq!(slot, 40);
            assert_eq!(fresh, 0, "create materialises no slot");
            assert!(
                (DEPTH * slot..2 * DEPTH * slot).contains(&deep),
                "{DEPTH} tasks deep backed by {deep} bytes"
            );
            assert_eq!(churned, deep, "pairs at a fixed depth touch no new slot");
        }
    }

    /// Pins the access records of the split queue's owner path: the race
    /// and atomicity checkers pair thieves' one-sided operations against
    /// exactly these `LocalAccess` events, so an edit that drops, reorders
    /// or re-flags one must fail here, not silently blind a checker.
    #[test]
    fn split_owner_path_emits_the_pinned_access_records() {
        use scioto_sim::TraceConfig;
        let cfg = MachineConfig::virtual_time(1).with_trace(TraceConfig::enabled());
        let out = Machine::run(cfg, |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(16, 2, 32));
            let c = RankCounters::default();
            push(&q, ctx, &armci, 0, 1, &c);
            // Second push: two private tasks and an empty shared portion,
            // so the release path runs as well.
            push(&q, ctx, &armci, 1, 1, &c);
            assert_eq!(c.snapshot().splits_released, 1);
            assert_eq!(pop_id(&q, ctx, &armci, &c), Some(1));
            q.slot_sz() as u32
        });
        let slot = out.results[0];
        let trace = out.report.trace.expect("traced run");
        let got: Vec<(u32, u64, u32, bool, bool)> = trace
            .events_for(0)
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                    Some((seg, offset, bytes, write, atomic))
                }
                _ => None,
            })
            .collect();
        // Segment 0 is the metadata block (first malloc), 1 the slots.
        // (seg, offset, bytes, write, atomic)
        let head_split = (0, HEAD as u64, 16, false, false);
        let tail = (0, TAIL as u64, 8, false, true);
        let publish_head = (0, HEAD as u64, 8, true, true);
        let publish_split = (0, SPLIT as u64, 8, true, true);
        let want = vec![
            // push 0: indices, slot 0, head; release pre-check.
            head_split, tail, (1, 0, slot, true, false), publish_head, head_split, tail,
            // push 1: the same on slot 1, then the release under the queue
            // lock: indices again, split.
            head_split, tail, (1, slot as u64, slot, true, false), publish_head, head_split, tail,
            head_split, tail, publish_split,
            // pop of slot 1: indices, slot, head; release pre-check.
            head_split, tail, (1, slot as u64, slot, false, false), publish_head, head_split, tail,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn tail_insert_is_stolen_first() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(16, 1, 32));
            let c = RankCounters::default();
            if ctx.rank() == 0 {
                push(&q, ctx, &armci, 100, 1, &c);
                push(&q, ctx, &armci, 101, 1, &c);
                // Low-affinity task: tail insert, first steal candidate.
                push(&q, ctx, &armci, 7, -1, &c);
                armci.barrier(ctx);
                armci.barrier(ctx);
                0
            } else {
                armci.barrier(ctx);
                let stolen = q.steal(ctx, &armci, 0);
                armci.barrier(ctx);
                stolen[0].header.callback
            }
        });
        assert_eq!(out.results[1], 7);
    }

    #[test]
    fn remote_insert_lands_on_target_queue() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(16, 4, 32));
            let c = RankCounters::default();
            if ctx.rank() != 1 {
                let id = ctx.rank() as u32;
                q.insert_tail(ctx, &armci, 1, &header(id, 0), &id.to_le_bytes());
            }
            armci.barrier(ctx);
            if ctx.rank() == 1 {
                let mut got = Vec::new();
                while q.reclaim(ctx, &armci, &c) {
                    while let Some(id) = pop_id(&q, ctx, &armci, &c) {
                        got.push(id);
                    }
                }
                got.sort_unstable();
                got
            } else {
                Vec::new()
            }
        });
        assert_eq!(out.results[1], vec![0, 2]);
    }

    #[test]
    fn ring_wraparound_preserves_tasks() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            // Capacity 4: repeatedly push/pop to force index wraparound.
            let (armci, q) = setup(ctx, TcConfig::new(8, 2, 4));
            let c = RankCounters::default();
            let mut popped = Vec::new();
            for round in 0..10u32 {
                push(&q, ctx, &armci, round * 2, 1, &c);
                push(&q, ctx, &armci, round * 2 + 1, 1, &c);
                for _ in 0..2 {
                    loop {
                        if let Some(id) = pop_id(&q, ctx, &armci, &c) {
                            popped.push(id);
                            break;
                        }
                        assert!(q.reclaim(ctx, &armci, &c));
                    }
                }
            }
            let s = c.snapshot();
            (popped, s.splits_released, s.splits_reclaimed)
        });
        // Each round releases task 2r to the shared portion, pops 2r+1
        // from the private one and reclaims 2r.
        let order: Vec<u32> = (0..10).flat_map(|r| [2 * r + 1, 2 * r]).collect();
        assert_eq!(out.results[0], (order, 10, 10));
    }

    #[test]
    #[should_panic(expected = "task collection overflow")]
    fn overflow_detected() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(8, 2, 4));
            let c = RankCounters::default();
            for i in 0..5 {
                push(&q, ctx, &armci, i, 1, &c);
            }
        });
    }

    #[test]
    fn steal_from_empty_returns_nothing() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(8, 2, 8));
            if ctx.rank() == 1 {
                q.steal(ctx, &armci, 0).len()
            } else {
                0
            }
        });
        assert_eq!(out.results[1], 0);
    }

    #[test]
    fn locked_queue_keeps_split_equal_to_head() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let cfg = TcConfig::new(8, 2, 16).with_queue(QueueKind::Locked);
            let (armci, q) = setup(ctx, cfg);
            let c = RankCounters::default();
            push(&q, ctx, &armci, 0, 1, &c);
            push(&q, ctx, &armci, 1, 1, &c);
            let (h1, s1, _) = q.indices_local(ctx, &armci);
            pop_id(&q, ctx, &armci, &c);
            let (h2, s2, _) = q.indices_local(ctx, &armci);
            (h1 == s1, h2 == s2)
        });
        assert_eq!(out.results[0], (true, true));
    }
}
