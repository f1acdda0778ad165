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

use std::sync::atomic::Ordering::Release;

use scioto_armci::{Armci, Local, MutexSet, SegmentRef, Strided};
use scioto_sim::{Ctx, LocalRecord, RemoteOpKind, TraceEvent};

use crate::config::{QueueKind, TcConfig};
use crate::stats::RankCounters;
use crate::task::{slot_word, TaskHeader, TaskRecord, HEADER_BYTES, HEADER_WORDS};

const HEAD: usize = 0;
const SPLIT: usize = 8;
const TAIL: usize = 16;
const META_BYTES: usize = 24;

/// The owner's `(head, split)` read: one plain 2-word access.
const HEAD_SPLIT_READ: LocalRecord =
    LocalRecord { offset: HEAD as u64, bytes: 16, write: false, atomic: false };
/// The owner's `tail` read, atomic: thieves publish `tail` lock-free.
const TAIL_READ: LocalRecord =
    LocalRecord { offset: TAIL as u64, bytes: 8, write: false, atomic: true };
/// The owner's single-word `head` publish.
const HEAD_PUBLISH: LocalRecord =
    LocalRecord { offset: HEAD as u64, bytes: 8, write: true, atomic: true };
/// The owner's single-word `split` store.
const SPLIT_PUBLISH: LocalRecord =
    LocalRecord { offset: SPLIT as u64, bytes: 8, write: true, atomic: true };

/// The owner's read of its three index words: exactly the two accesses
/// the protocol declares.
static INDEX_READ: [LocalRecord; 2] = [HEAD_SPLIT_READ, TAIL_READ];
/// The metadata accesses of a split-queue push or pop that moves `head`:
/// the index read, the `head` publish and the release pre-check's re-read.
static SPLIT_OWNER_OP: [LocalRecord; 5] =
    [HEAD_SPLIT_READ, TAIL_READ, HEAD_PUBLISH, HEAD_SPLIT_READ, TAIL_READ];
/// The metadata accesses of a locked-queue push or pop that moves `head`:
/// the index read and both publishes.
static LOCKED_OWNER_OP: [LocalRecord; 4] =
    [HEAD_SPLIT_READ, TAIL_READ, HEAD_PUBLISH, SPLIT_PUBLISH];

/// The `i64` words of a remote index read, little-endian.
fn decode<const N: usize>(bytes: &[u8]) -> [i64; N] {
    std::array::from_fn(|i| i64::from_le_bytes(bytes[8 * i..][..8].try_into().expect("8 bytes")))
}

/// A popped task's body where it lies in the owner's slot: what
/// [`PatchQueue::pop_local`]'s `take` may copy out.
pub(crate) struct SlotBody<'a> {
    slots: &'a Local<'a>,
    offset: usize,
    len: usize,
}

impl SlotBody<'_> {
    /// Replace `out`'s contents with the body's bytes: whole words, eight
    /// bytes each, and the ragged end cut off after the last.
    pub(crate) fn copy_into(self, out: &mut Vec<u8>) {
        let words = self.len.div_ceil(8);
        out.clear();
        out.reserve(8 * words);
        self.slots.read(self.offset, words, |_, w| out.extend_from_slice(&w.to_le_bytes()));
        out.truncate(self.len);
    }
}

pub(crate) struct PatchQueue {
    kind: QueueKind,
    cap: i64,
    /// `cap - 1` when `cap` is a power of two: the slot of an index is then
    /// its low bits, which in two's complement is `rem_euclid` for negative
    /// indices too.
    cap_mask: Option<i64>,
    slot_sz: usize,
    chunk: usize,
    release_threshold: i64,
    release_fraction: f64,
    // The queue's two segments — `(head, split, tail)` and the ring of
    // slots — resolved once: the owner's operations build their `Local`
    // views from these without a segment-table lookup.
    meta: SegmentRef,
    slots: SegmentRef,
    locks: MutexSet,
}

impl PatchQueue {
    pub(crate) fn new(ctx: &Ctx, armci: &Armci, cfg: &TcConfig) -> Self {
        let slot_sz = (HEADER_BYTES + cfg.max_body).div_ceil(8) * 8;
        let meta = armci.resolve(armci.malloc(ctx, META_BYTES));
        let slots = armci.resolve(armci.malloc(ctx, cfg.max_tasks * slot_sz));
        let locks = armci.create_mutexes(ctx, 1);
        PatchQueue {
            kind: cfg.queue,
            cap: cfg.max_tasks as i64,
            cap_mask: cfg
                .max_tasks
                .is_power_of_two()
                .then_some(cfg.max_tasks as i64 - 1),
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
    // No host lock either, and no handle lookup: the queue holds its two
    // segments resolved (`SegmentRef`), and each owner operation builds
    // one `Local` view of each it touches, handed to the helpers below as
    // `meta` / `slots`. Orderings (DESIGN.md "Host access path"): the
    // owner reads its three indices as Relaxed loads closed by one
    // Acquire fence — Acquire loads, as far as any pairing can tell — and
    // publishes `head` Release, pairing with the SeqCst (hence Acquire)
    // index read of `insert_tail`, so a thief that sees a popped `head`
    // also sees the pop's slot read finished before it reuses the slot;
    // slot words are Release/Acquire, though a thief only ever reads a
    // slot after the queue lock's hand-off has ordered it after the
    // owner's write anyway. `split` is stored Release under the queue
    // lock, which orders it for every locked reader; `steal_peek`'s
    // lock-free read is a heuristic.
    //
    // An owner operation records its accesses in one step
    // (`Local::record_set`): the fixed set of metadata accesses it makes,
    // with the slot it moved, offered at the point of its last access.
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

    /// Store `split` (under the queue lock), recorded.
    fn publish_split(&self, meta: &Local<'_>, v: i64) {
        meta.record(SPLIT, 8, true, true);
        meta.store(SPLIT, v as u64, Release);
    }

    /// The ring slot of virtual index `index`.
    fn slot_of(&self, index: i64) -> i64 {
        match self.cap_mask {
            Some(mask) => index & mask,
            None => index.rem_euclid(self.cap),
        }
    }

    fn slot_pos(&self, index: i64) -> usize {
        self.slot_of(index) as usize * self.slot_sz
    }

    /// The access record of slot `index`: the whole slot.
    fn slot_record(&self, index: i64, write: bool) -> LocalRecord {
        let (offset, bytes) = (self.slot_pos(index) as u64, self.slot_sz as u32);
        LocalRecord { offset, bytes, write, atomic: false }
    }

    /// Write a task into slot `index`: its header and body words. Not
    /// recorded: the caller offers [`PatchQueue::slot_record`] with its
    /// operation's set.
    fn write_slot(&self, slots: &Local<'_>, index: i64, header: &TaskHeader, body: &[u8]) {
        let pos = self.slot_pos(index);
        let words = HEADER_WORDS + body.len().div_ceil(8);
        slots.write(pos, words, |j| slot_word(header, body, j));
    }

    /// Hand slot `index`'s header and body to `take` where they lie (not
    /// recorded, like [`PatchQueue::write_slot`]).
    fn read_slot<R>(
        &self,
        slots: &Local<'_>,
        index: i64,
        take: impl FnOnce(TaskHeader, SlotBody<'_>) -> R,
    ) -> R {
        let pos = self.slot_pos(index);
        let header = TaskHeader::from_words(slots.load_words(pos));
        let offset = pos + HEADER_BYTES;
        take(header, SlotBody { slots, offset, len: header.body_len as usize })
    }

    /// Zero the owner's metadata (collective reset; caller barriers, so
    /// this pre-concurrency fill stays un-recorded).
    pub(crate) fn reset_local(&self, ctx: &Ctx) {
        self.meta.local(ctx).fill(0, META_BYTES / 8, 0);
    }

    /// Load `(head, split, tail)`: one 3-word read, one chunk lookup and
    /// one Acquire fence. Not recorded: the caller offers the set of
    /// accesses its operation made.
    #[inline]
    fn load_indices(&self, meta: &Local<'_>) -> (i64, i64, i64) {
        let [head, split, tail] = meta.load_words::<3>(HEAD).map(|w| w as i64);
        (head, split, tail)
    }

    /// Record and load `(head, split, tail)` (see [`INDEX_READ`]).
    #[inline]
    fn read_indices(&self, meta: &Local<'_>) -> (i64, i64, i64) {
        meta.record_set(&INDEX_READ, None);
        self.load_indices(meta)
    }

    /// `(head, split, tail)` of the owner's queue.
    pub(crate) fn indices_local(&self, ctx: &Ctx) -> (i64, i64, i64) {
        self.read_indices(&self.meta.local(ctx))
    }

    /// One split-queue owner operation: read `(head, split, tail)`, let
    /// `op` move a slot and say where `head` goes (`None`: nothing to do,
    /// and the index read is recorded), publish it. Returns the indices as
    /// they stand afterwards — `split` and `tail` as read, which is all the
    /// release pre-check needs: only the owner writes `split`, and a stale
    /// `tail` is what that check is specified against. The metadata
    /// accesses of an operation that moved `head` are recorded by that
    /// pre-check ([`SPLIT_OWNER_OP`], with the slot). No lock of any kind
    /// is involved (§5: "the owner pushes and pops at `head` without any
    /// lock"): one 3-word read, the slot's words, one Release store.
    fn owner_op(
        &self,
        meta: &Local<'_>,
        op: impl FnOnce(i64, i64, i64) -> Option<i64>,
    ) -> Option<(i64, i64, i64)> {
        let (head, split, tail) = self.load_indices(meta);
        let Some(new_head) = op(head, split, tail) else {
            meta.record_set(&INDEX_READ, None);
            return None;
        };
        // protocol: single-word `head` publish (see the atomicity notes
        // above); thieves read it in `insert_tail`'s composite get.
        meta.store(HEAD, new_head as u64, Release);
        Some((new_head, split, tail))
    }

    /// True when the owner's queue holds no tasks.
    pub(crate) fn is_empty_local(&self, ctx: &Ctx) -> bool {
        let (head, _, tail) = self.indices_local(ctx);
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
        let meta = self.meta.local(ctx);
        let slots = self.slots.local(ctx);
        match self.kind {
            QueueKind::Split => {
                let indices = self.owner_op(&meta, |head, _, tail| {
                    self.check_capacity(head, tail);
                    self.write_slot(&slots, head, header, body);
                    Some(head + 1)
                });
                ctx.charge(ctx.local_insert_cost());
                let indices = indices.expect("a push moves head");
                let slot = self.slot_record(indices.0 - 1, true);
                self.maybe_release(ctx, armci, (&meta, &slots, slot), counters, indices);
            }
            QueueKind::Locked => {
                armci.lock(ctx, self.locks, 0, ctx.rank());
                let (head, _, tail) = self.load_indices(&meta);
                self.check_capacity(head, tail);
                self.write_slot(&slots, head, header, body);
                self.publish_locked((&meta, &slots, self.slot_record(head, true)), head + 1);
                ctx.charge(ctx.local_insert_cost());
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
        take: impl FnOnce(TaskHeader, SlotBody<'_>) -> R,
    ) -> Option<R> {
        let meta = self.meta.local(ctx);
        let slots = self.slots.local(ctx);
        match self.kind {
            QueueKind::Split => {
                let mut popped = None;
                let indices = self.owner_op(&meta, |head, split, _| {
                    if head <= split {
                        return None;
                    }
                    popped = Some(self.read_slot(&slots, head - 1, take));
                    Some(head - 1)
                })?;
                let taken = popped.expect("a pop that moves head took its task");
                ctx.charge(ctx.local_get_cost());
                // Keep work available for thieves while draining a deep
                // private portion (the owner "moves tasks between the shared
                // and local portions as the computation progresses", §5).
                let slot = self.slot_record(indices.0, false);
                self.maybe_release(ctx, armci, (&meta, &slots, slot), counters, indices);
                Some(taken)
            }
            QueueKind::Locked => {
                armci.lock(ctx, self.locks, 0, ctx.rank());
                let (head, _, tail) = self.load_indices(&meta);
                if head <= tail {
                    meta.record_set(&INDEX_READ, None);
                    armci.unlock(ctx, self.locks, 0, ctx.rank());
                    return None;
                }
                let h = head - 1;
                let taken = self.read_slot(&slots, h, take);
                self.publish_locked((&meta, &slots, self.slot_record(h, false)), h);
                ctx.charge(ctx.local_get_cost());
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
        let meta = self.meta.local(ctx);
        let (_, split, tail) = self.read_indices(&meta);
        if split - tail <= 0 {
            return false;
        }
        armci.lock(ctx, self.locks, 0, ctx.rank());
        let (_, split, tail) = self.read_indices(&meta);
        let avail = split - tail;
        if avail <= 0 {
            armci.unlock(ctx, self.locks, 0, ctx.rank());
            return false;
        }
        // Reclaim half (at least one); no task is copied, only the split
        // pointer moves.
        let take = (avail + 1) / 2;
        self.publish_split(&meta, split - take);
        ctx.charge(ctx.local_get_cost());
        armci.unlock(ctx, self.locks, 0, ctx.rank());
        counters.splits_reclaimed.add(1);
        ctx.trace(|| TraceEvent::SplitReclaim {
            moved: take as u32,
        });
        true
    }

    /// After a push or pop, release private work to the shared portion
    /// when thieves have drained it below the threshold. `(head, split,
    /// tail)` are the indices the operation's own scope just read and
    /// published; the lock-free pre-check is still an access of the
    /// protocol's and is recorded as one, with the operation's own
    /// metadata accesses ([`SPLIT_OWNER_OP`]) and `slot`, the slot it
    /// moved, before the release can take the lock. The pre-check is
    /// inlined into the push or pop; the release itself, a scheduling point
    /// under the queue lock, is a call.
    #[inline]
    fn maybe_release(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        (meta, slots, slot): (&Local<'_>, &Local<'_>, LocalRecord),
        counters: &RankCounters,
        (head, split, tail): (i64, i64, i64),
    ) {
        meta.record_set(&SPLIT_OWNER_OP, Some((slots, slot)));
        let shared = split - tail;
        let private = head - split;
        if shared < self.release_threshold && private >= 2 {
            self.release(ctx, armci, meta, counters);
        }
    }

    /// Move the split pointer toward the head under the queue lock.
    #[inline(never)]
    fn release(&self, ctx: &Ctx, armci: &Armci, meta: &Local<'_>, counters: &RankCounters) {
        armci.lock(ctx, self.locks, 0, ctx.rank());
        let (head, split, _) = self.read_indices(meta);
        let private = head - split;
        if private >= 2 {
            let give = ((private as f64 * self.release_fraction) as i64).clamp(1, private - 1);
            self.publish_split(meta, split + give);
            counters.splits_released.add(1);
            ctx.trace(|| TraceEvent::SplitRelease {
                moved: give as u32,
            });
        }
        ctx.charge(ctx.local_get_cost());
        armci.unlock(ctx, self.locks, 0, ctx.rank());
    }

    /// The locked queue's `head` and `split` stores after a push or pop
    /// (`split == head`), recorded with the index read before them and
    /// `slot`, the slot the operation moved.
    fn publish_locked(&self, (meta, slots, slot): (&Local<'_>, &Local<'_>, LocalRecord), head: i64) {
        meta.record_set(&LOCKED_OWNER_OP, Some((slots, slot)));
        meta.store(HEAD, head as u64, Release);
        meta.store(SPLIT, head as u64, Release);
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
    /// the decremented tail one-sided, unlock. Nothing is staged on the
    /// heap: the indices land in a stack buffer and the slot is encoded
    /// word by word into the target's store.
    pub(crate) fn insert_tail(
        &self,
        ctx: &Ctx,
        armci: &Armci,
        target: usize,
        header: &TaskHeader,
        body: &[u8],
    ) {
        armci.lock(ctx, self.locks, 0, target);
        let mut idx = [0u8; 24];
        // Atomic composite get: this one transfer also covers `head`, which
        // the owner updates lock-free (single-word protocol discipline).
        armci.get_atomic(ctx, self.meta.gmem(), target, HEAD, &mut idx);
        let [head, _split, tail] = decode(&idx);
        self.check_capacity(head, tail);
        let t = tail - 1;
        let slot = Strided::contiguous(self.slot_pos(t), self.slot_sz);
        armci.access_strided(ctx, self.slots.gmem(), target, slot, RemoteOpKind::Put, |_, j, w| {
            *w = slot_word(header, body, j);
        });
        // protocol: single-word tail store under the queue lock; the
        // owner's reclaim/release pre-checks read `tail` lock-free.
        armci.put_atomic(ctx, self.meta.gmem(), target, TAIL, &t.to_le_bytes());
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
        let mut idx = [0u8; 16];
        // protocol: heuristic lock-free read of the lock-guarded
        // `split`/`tail` words; a stale view only mis-predicts
        // availability, it never derives state that is written back.
        armci.get_atomic(ctx, self.meta.gmem(), victim, SPLIT, &mut idx);
        let [split, tail] = decode(&idx);
        split - tail > 0
    }

    /// Steal up to `chunk` tasks from the tail of `victim`'s shared
    /// portion. Returns the transferred tasks (oldest first).
    pub(crate) fn steal(&self, ctx: &Ctx, armci: &Armci, victim: usize) -> Vec<TaskRecord> {
        debug_assert_ne!(victim, ctx.rank(), "cannot steal from self");
        armci.lock(ctx, self.locks, 0, victim);
        // One one-sided get covers both `split` and `tail`.
        let mut idx = [0u8; 16];
        armci.get(ctx, self.meta.gmem(), victim, SPLIT, &mut idx);
        let [split, tail] = decode(&idx);
        let avail = split - tail;
        if avail <= 0 {
            armci.unlock(ctx, self.locks, 0, victim);
            return Vec::new();
        }
        let k = (self.chunk as i64).min(avail);
        let mut buf = vec![0u8; (k as usize) * self.slot_sz];
        // The ring window [tail, tail+k) is at most two contiguous runs.
        let start = self.slot_of(tail);
        let run1 = k.min(self.cap - start);
        armci.get(
            ctx,
            self.slots.gmem(),
            victim,
            start as usize * self.slot_sz,
            &mut buf[..run1 as usize * self.slot_sz],
        );
        if run1 < k {
            armci.get(
                ctx,
                self.slots.gmem(),
                victim,
                0,
                &mut buf[run1 as usize * self.slot_sz..],
            );
        }
        // protocol: single-word tail store under the victim's queue lock;
        // the owner reads `tail` lock-free in its release pre-check.
        armci.put_atomic(ctx, self.meta.gmem(), victim, TAIL, &(tail + k).to_le_bytes());
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
            let mut bytes = Vec::new();
            body.copy_into(&mut bytes);
            assert_eq!(bytes, h.callback.to_le_bytes());
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
        owner_and_thieves(0..6);
    }

    #[test]
    #[ignore = "64-seed real-thread stress; scripts/verify.sh runs it in release"]
    fn stress_owner_and_thieves() {
        owner_and_thieves(0..64);
    }

    fn owner_and_thieves(seeds: std::ops::Range<u64>) {
        use std::sync::atomic::{AtomicBool, Ordering};
        const TASKS: u32 = 2000;
        for kind in [QueueKind::Split, QueueKind::Locked] {
            for seed in seeds.clone() {
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
                            assert!(q.is_empty_local(ctx));
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
        let key = format!("Segment {{ len: {}, materialised: [", q.slots.gmem().len());
        let list = dump.split(&key).nth(1).expect("slot segment in Armci's Debug output");
        let list = &list[..list.find(']').expect("a closed list")];
        let mine = list.split(", ").nth(ctx.rank()).expect("one entry per rank");
        mine.parse().expect("a byte count")
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

    /// A tail insert into a fresh queue writes slot `cap - 1`: it
    /// materialises the one store chunk that slot lies in, not the ring
    /// below it (PR 13's prefix store committed all 5 MiB of UTS's ring).
    #[test]
    fn tail_insert_into_a_fresh_queue_materialises_one_chunk() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let (armci, q) = setup(ctx, TcConfig::new(24, 10, 1 << 17));
            if ctx.rank() == 0 {
                q.insert_tail(ctx, &armci, 1, &header(7, 0), &7u32.to_le_bytes());
            }
            armci.barrier(ctx);
            (slot_store_bytes(ctx, &armci, &q), q.slots.gmem().len())
        });
        // 2^17 slots of 5 words: slot 2^17 - 1 is words [655 355, 655 360),
        // in chunk 15, which starts at word 524 272 and is cut at the end.
        let (target, ring) = out.results[1];
        assert_eq!(target, (655_360 - 524_272) * 8);
        assert!(4 * target < ring, "{target} of {ring} ring bytes");
        assert_eq!(out.results[0].0, 0, "the inserting rank's own store is untouched");
    }

    /// Pins the access records of the split queue's owner path: the race
    /// and atomicity checkers pair thieves' one-sided operations against
    /// exactly these `LocalAccess` summaries, so an edit that drops, moves
    /// or re-flags an access must fail here, not silently blind a checker.
    /// The recorder keeps one summary per `(seg, write, atomic)` word range
    /// and window between flushing events; the merge gauge counts the
    /// records each window's summaries absorbed.
    #[test]
    fn split_owner_path_emits_the_pinned_access_records() {
        use scioto_sim::{Gauge, TraceConfig, MERGED_GAUGE};
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
            q.slot_sz() as u64
        });
        let slot = out.results[0];
        let trace = out.report.trace.expect("traced run");
        let got: Vec<(u32, u64, u64, bool, bool)> = trace
            .events_for(0)
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                    Some((seg, offset, bytes.into(), write, atomic))
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
            // Both pushes up to the release's lock: twice the indices, a
            // slot, head and the release pre-check (12 records), slots 0
            // and 1 as one range.
            head_split, tail, publish_head, (1, 0, 2 * slot, true, false),
            // The release under the queue lock: indices, split (3 records).
            head_split, tail, publish_split,
            // Pop of slot 1: indices, slot, head, release pre-check (6).
            head_split, tail, publish_head, (1, slot, slot, false, false),
        ];
        assert_eq!(got, want);
        let merged = Gauge { samples: 3, sum: 8 + 2, max: 8, last: 2 };
        assert_eq!(trace.gauges[0].get(MERGED_GAUGE), Some(&merged));
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

    /// The owner keeps its queue at `max_tasks` while three thieves steal
    /// from it, for a power-of-two capacity (the masked slot) and another
    /// (`rem_euclid`): the ring wraps dozens of times under the thieves,
    /// and every task comes out exactly once.
    #[test]
    fn full_queue_under_steal_pressure_loses_and_duplicates_nothing() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        for cap in [8usize, 12] {
            let done = Arc::new(AtomicBool::new(false));
            let out = Machine::run(MachineConfig::virtual_time(4), move |ctx| {
                let (armci, q) = setup(ctx, TcConfig::new(16, 3, cap));
                let c = RankCounters::default();
                let total = 40 * cap as u32;
                let mut seen = Vec::new();
                let mut full = 0;
                if ctx.rank() == 0 {
                    let mut next = 0;
                    while next < total {
                        let (head, _, tail) = q.indices_local(ctx);
                        if head - tail < cap as i64 {
                            push(&q, ctx, &armci, next, 1, &c);
                            next += 1;
                        } else {
                            // At capacity: let the thieves at it, then make
                            // room by running one task.
                            full += 1;
                            ctx.compute(300);
                            ctx.yield_point();
                            match pop_id(&q, ctx, &armci, &c) {
                                Some(id) => seen.push(id),
                                None => {
                                    q.reclaim(ctx, &armci, &c);
                                }
                            }
                        }
                    }
                    loop {
                        match pop_id(&q, ctx, &armci, &c) {
                            Some(id) => seen.push(id),
                            None if q.reclaim(ctx, &armci, &c) => {}
                            None => break,
                        }
                    }
                    done.store(true, Relaxed);
                } else {
                    loop {
                        let stolen = q.steal(ctx, &armci, 0);
                        if stolen.is_empty() && done.load(Relaxed) {
                            break;
                        }
                        seen.extend(stolen.iter().map(|r| r.header.callback));
                        ctx.compute(200);
                    }
                }
                (seen, full)
            });
            let full: u32 = out.results.iter().map(|r| r.1).sum();
            assert!(full > 0, "cap={cap}: the queue never reached max_tasks");
            let stolen: usize = out.results[1..].iter().map(|r| r.0.len()).sum();
            assert!(stolen > 4 * cap, "cap={cap}: thieves took only {stolen} tasks");
            let mut all: Vec<u32> = out.results.into_iter().flat_map(|r| r.0).collect();
            all.sort_unstable();
            assert_eq!(all, (0..40 * cap as u32).collect::<Vec<_>>(), "cap={cap}");
        }
    }

    /// One push past `max_tasks` fails with the capacity in the message,
    /// whichever way the slot is computed.
    #[test]
    fn overflow_names_the_capacity_for_either_slot_path() {
        for cap in [8usize, 12] {
            let err = std::panic::catch_unwind(|| {
                Machine::run(MachineConfig::virtual_time(1), move |ctx| {
                    let (armci, q) = setup(ctx, TcConfig::new(8, 2, cap));
                    let c = RankCounters::default();
                    for i in 0..=cap as u32 {
                        push(&q, ctx, &armci, i, 1, &c);
                    }
                })
            })
            .expect_err("the push past max_tasks must panic");
            let text = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            let want = format!("task collection overflow: queue holds {cap} tasks (max_tasks = {cap})");
            assert!(text.contains(&want), "cap={cap}: {text}");
        }
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
            let (h1, s1, _) = q.indices_local(ctx);
            pop_id(&q, ctx, &armci, &c);
            let (h2, s2, _) = q.indices_local(ctx);
            (h1 == s1, h2 == s2)
        });
        assert_eq!(out.results[0], (true, true));
    }
}
