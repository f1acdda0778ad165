//! Remotely accessible memory segments, the transfer engine every one-sided
//! data operation runs through, contiguous put/get/acc on top of it, and
//! the owner's lock-free word view of its own portion.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use scioto_det::sync::Mutex;

use scioto_sim::{Ctx, LocalRecord, RemoteOpKind, TraceEvent, VLock};

use crate::store::{Access, Row, Store};
use crate::strided::Strided;
use crate::world::Armci;

/// One collectively allocated region: `len` bytes on *every* rank.
pub(crate) struct Segment {
    /// Logical bytes per rank (the `Gmem::len` handed out by `malloc`).
    len: usize,
    /// Every rank's words (`store.rs`): allocated chunk by chunk on first
    /// write, never moved, reached by any thread without a lock.
    pub(crate) store: Store,
    /// Per-word RMW service queues: the target adapter processes atomic
    /// RMWs on one location serially (`LatencyModel::rmw_service` each),
    /// so a hot word — a shared counter — has bounded throughput.
    hot_words: Mutex<HashMap<(usize, usize), Arc<VLock>>>,
}

impl Segment {
    fn new(nranks: usize, len: usize) -> Segment {
        Segment {
            len,
            store: Store::new(nranks, len),
            hot_words: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn hot_word(&self, rank: usize, offset: usize) -> Arc<VLock> {
        self.hot_words
            .lock()
            .entry((rank, offset))
            .or_insert_with(|| Arc::new(VLock::new()))
            .clone()
    }
}

/// What a segment costs the host, not what it holds: the logical length
/// and how many bytes of each rank's store are materialised.
impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("len", &self.len)
            .field("materialised", &self.store.materialised())
            .finish()
    }
}

/// Portable handle to a collectively allocated memory region.
///
/// A `Gmem` names `len()` bytes of remotely accessible memory on *each*
/// rank; locations are addressed as `(rank, byte offset)`. Handles are plain
/// `Copy` values (like ARMCI pointers exchanged at allocation time) and can
/// be stored inside task bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gmem {
    pub(crate) id: usize,
    pub(crate) len: usize,
}

impl Gmem {
    /// Bytes allocated per rank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the per-rank region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Record one one-sided access to `[offset, offset + bytes)` of `rank`'s
/// portion of `g`: all the race checker ever sees of a remote operation.
pub(crate) fn record_remote(
    ctx: &Ctx,
    kind: RemoteOpKind,
    g: Gmem,
    rank: usize,
    offset: usize,
    bytes: usize,
    atomic: bool,
) {
    ctx.trace(|| TraceEvent::RemoteOp {
        kind,
        target: rank as u32,
        seg: g.id as u32,
        offset: offset as u64,
        bytes: bytes as u32,
        atomic,
    });
}

/// A segment resolved once ([`Armci::resolve`]): its handle and the
/// segment itself. [`Armci::local`] looks the segment up in the table on
/// every call; [`SegmentRef::local`] already holds it, which is what an
/// owner path reaching the same segment on every operation — the task
/// queue's push and pop — keeps instead of the bare [`Gmem`].
#[derive(Clone)]
pub struct SegmentRef {
    g: Gmem,
    seg: Arc<Segment>,
}

impl SegmentRef {
    /// The handle, for the one-sided operations that take one.
    pub fn gmem(&self) -> Gmem {
        self.g
    }

    /// The calling rank's own portion, word by word (see [`Local`]).
    #[inline]
    pub fn local<'a>(&'a self, ctx: &'a Ctx) -> Local<'a> {
        Local::new(ctx, self.g, &self.seg)
    }
}

/// The calling rank's own portion of a segment as 64-bit words
/// ([`Armci::local`], [`SegmentRef::local`]). Offsets are bytes and must be
/// 8-byte aligned; every access is bounds-checked, takes no lock and names
/// its own memory ordering. Accesses are not recorded: an owner access to a
/// word other ranks also reach pairs itself with a [`Local::record`], or a
/// fixed set of them with one [`Local::record_set`], each of which costs
/// one branch when tracing is off.
pub struct Local<'a> {
    ctx: &'a Ctx,
    row: Row<'a>,
    seg: u32,
    /// Whether the run records: what [`Local::record`] branches on.
    traced: bool,
}

/// Word index of an 8-byte aligned byte offset.
#[inline]
fn word_at(offset: usize) -> usize {
    assert!(offset.is_multiple_of(8), "word offset {offset} must be 8-byte aligned");
    offset / 8
}

impl<'a> Local<'a> {
    #[inline]
    fn new(ctx: &'a Ctx, g: Gmem, seg: &'a Segment) -> Local<'a> {
        Local {
            ctx,
            row: seg.store.row(ctx.rank()),
            seg: g.id as u32,
            traced: ctx.trace_enabled(),
        }
    }

    /// Record an owner-side access to `[offset, offset + len)` as a
    /// `LocalAccess`, so the race checker can pair it against remote
    /// operations — without touching memory. `atomic` marks single-word
    /// protocol accesses (lock-free index reads and publishes) the caller's
    /// discipline declares safe against concurrent atomic accessors.
    #[inline]
    pub fn record(&self, offset: usize, len: usize, write: bool, atomic: bool) {
        if !self.traced {
            return;
        }
        // Order-only instant: the race checker needs the access's position
        // in the rank's timeline, never a duration from its stamp — so the
        // hot per-word protocol path skips the wall-clock query.
        self.ctx.trace_instant(|| TraceEvent::LocalAccess {
            seg: self.seg,
            offset: offset as u64,
            bytes: len as u32,
            write,
            atomic,
        });
    }

    /// Record the owner-side accesses of the fixed set `set`, and `one`
    /// access of another view if given, in one step, as if each went
    /// through [`Local::record`] at this point: for an owner path that
    /// makes the same accesses on every operation, and one that moves. The
    /// recorder knows a set by its address, so `set` is a `static`.
    #[inline]
    pub fn record_set(
        &self,
        set: &'static [LocalRecord],
        one: Option<(&Local<'_>, LocalRecord)>,
    ) {
        if self.traced {
            self.offer_set(set, one);
        }
    }

    /// [`Local::record_set`] once tracing is known to be on. Out of line,
    /// so an untraced owner op pays the `traced` test alone, not a call
    /// that saves registers before making it.
    #[inline(never)]
    fn offer_set(&self, set: &'static [LocalRecord], one: Option<(&Local<'_>, LocalRecord)>) {
        self.ctx.trace_local_set(self.seg, set, one.map(|(view, r)| (view.seg, r)));
    }

    /// Load the word at `offset`.
    #[inline]
    pub fn load(&self, offset: usize, order: Ordering) -> u64 {
        self.row.word(word_at(offset), false).map_or(0, |w| w.load(order))
    }

    /// Store `v` at `offset`.
    #[inline]
    pub fn store(&self, offset: usize, v: u64, order: Ordering) {
        self.row.word(word_at(offset), true).expect("allocated").store(v, order);
    }

    /// Replace the word at `offset` with `v`, returning what it held.
    #[inline]
    pub fn swap(&self, offset: usize, v: u64, order: Ordering) -> u64 {
        // A zero into a chunk nobody has written changes nothing: the word
        // already reads as zero, and any write that lands after this check
        // is simply ordered after the swap.
        match self.row.word(word_at(offset), v != 0) {
            Some(word) => word.swap(v, order),
            None => 0,
        }
    }

    /// Hand `f(j, word)` the `words` words from `offset` on, in order
    /// (Acquire loads).
    #[inline]
    pub fn read(&self, offset: usize, words: usize, mut f: impl FnMut(usize, u64)) {
        self.row.update(word_at(offset), words, Access::Read, |j, w| f(j, *w));
    }

    /// The `N` words from `offset` on, as [`Local::read`] loads them: one
    /// chunk lookup and one Acquire fence for all of them.
    #[inline]
    pub fn load_words<const N: usize>(&self, offset: usize) -> [u64; N] {
        let mut out = [0; N];
        self.read(offset, N, |j, w| out[j] = w);
        out
    }

    /// Store `f(j)` into word `j` of the `words` from `offset` on
    /// (Release stores).
    #[inline]
    pub fn write(&self, offset: usize, words: usize, mut f: impl FnMut(usize) -> u64) {
        self.row.update(word_at(offset), words, Access::Write, |j, w| *w = f(j));
    }

    /// Set the `words` words from `offset` on to `v` (Release stores); a
    /// zero fill allocates nothing. For owner-private setup that a barrier
    /// separates from every other rank's access.
    pub fn fill(&self, offset: usize, words: usize, v: u64) {
        self.row.fill(word_at(offset), words, v);
    }
}

impl Armci {
    /// Collectively allocate `bytes` bytes of remotely accessible,
    /// zero-initialized memory on every rank.
    ///
    /// Barrier-free: rank 0 publishes the segment through the collective
    /// log and the handle is valid the moment a rank receives it (the
    /// backing store is built before publication). Batch several
    /// allocations under one [`Ctx::collective_epoch`] to pay a single
    /// commit barrier.
    ///
    /// Host memory is committed on first write, one chunk at a time
    /// (chunk `k` holds `16 << k` words); a chunk nobody has written reads
    /// as the zeros it would hold anyway.
    pub fn malloc(&self, ctx: &Ctx, bytes: usize) -> Gmem {
        let handle = ctx.collective(|| {
            let id = self.segments.push(Arc::new(Segment::new(self.nranks, bytes)));
            Gmem { id, len: bytes }
        });
        *handle
    }

    fn segment_arc(&self, g: Gmem) -> &Arc<Segment> {
        self.segments
            .get(g.id)
            .unwrap_or_else(|| panic!("invalid Gmem handle {}", g.id))
    }

    pub(crate) fn segment(&self, g: Gmem) -> &Segment {
        self.segment_arc(g)
    }

    /// `g` resolved once, for an owner path that reaches it on every
    /// operation (see [`SegmentRef`]).
    pub fn resolve(&self, g: Gmem) -> SegmentRef {
        SegmentRef { g, seg: Arc::clone(self.segment_arc(g)) }
    }

    /// The calling rank's own portion of `g`, word by word (see [`Local`]).
    /// Charges nothing and emits nothing: the queue and the termination
    /// detector build their lock-free owner paths on it.
    #[inline]
    pub fn local<'a>(&'a self, ctx: &'a Ctx, g: Gmem) -> Local<'a> {
        Local::new(ctx, g, self.segment(g))
    }

    /// The one validation every one-sided entry point runs before it
    /// touches a store: rank in range, `offset + len` neither overflowing
    /// nor past the segment.
    pub(crate) fn check_bounds(&self, g: Gmem, rank: usize, offset: usize, len: usize) {
        assert!(
            rank < self.nranks,
            "rank {rank} out of range (nranks = {})",
            self.nranks
        );
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= g.len),
            "access [{offset}, {offset}+{len}) out of bounds for segment of {} bytes",
            g.len
        );
    }

    /// The one engine under every one-sided data operation. In this order:
    /// bounds check, scheduling point, one access record per segment of
    /// `s`, `body` on the target rank's words — under its
    /// read-modify-write lock for an accumulate, so it is atomic against
    /// other accumulates and RMWs, and under no lock otherwise — then the
    /// network charge for the total payload: a strided operation is one
    /// pipelined transfer, and a contiguous one is the `count = 1` case.
    /// `kind` and `atomic` label the records and pick the lock; what the
    /// words of `s` become is up to `body`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        kind: RemoteOpKind,
        atomic: bool,
        body: impl FnOnce(Row<'_>),
    ) {
        let extent = s.extent();
        self.check_bounds(g, rank, s.offset, extent);
        ctx.yield_point();
        let at = |i: usize| s.offset + i * s.stride;
        for i in 0..s.count {
            record_remote(ctx, kind, g, rank, at(i), s.seg_len, atomic);
        }
        let store = &self.segment(g).store;
        let rmw = (kind == RemoteOpKind::Acc).then(|| store.rmw_lock(rank));
        body(store.row(rank));
        drop(rmw);
        ctx.charge_net(
            ctx.latency()
                .xfer_to(ctx.rank(), rank, self.nranks, s.total_bytes()),
        );
    }

    /// [`Armci::transfer`] over whole words: `each(i, j, word)` sees word
    /// `j` of segment `i` — loaded for `Get` and `Acc`, zero for `Put` —
    /// and for `Put` and `Acc` its edit is stored back.
    pub(crate) fn transfer_words(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        kind: RemoteOpKind,
        each: impl FnMut(usize, usize, &mut u64),
    ) {
        assert!(
            (s.offset | s.stride | s.seg_len).is_multiple_of(8),
            "a word access needs 8-byte aligned offset, stride and seg_len: {s:?}"
        );
        let access = match kind {
            RemoteOpKind::Get => Access::Read,
            RemoteOpKind::Put => Access::Write,
            RemoteOpKind::Acc => Access::Modify,
            RemoteOpKind::Rmw => panic!("an RMW is not a data transfer"),
        };
        let words = (s.offset / 8, s.stride / 8, s.seg_len / 8, s.count);
        self.transfer(ctx, g, rank, s, kind, kind.is_atomic(), |row| {
            row.update_strided(words, access, each);
        });
    }

    /// The one accumulate under `acc_f64` / `acc_i64`:
    /// element `k` of the region becomes `add(k, element)`. `elems` is the
    /// length of the caller's source.
    pub(crate) fn accumulate(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        elems: usize,
        add: impl Fn(usize, u64) -> u64,
    ) {
        assert_eq!(elems * 8, s.total_bytes(), "src length mismatch");
        let per_seg = s.seg_len / 8;
        self.transfer_words(ctx, g, rank, s, RemoteOpKind::Acc, |i, j, w| {
            *w = add(i * per_seg + j, *w);
        });
    }

    /// One-sided contiguous put: copy `src` into `(rank, offset)`.
    pub fn put(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        let s = Strided::contiguous(offset, src.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Put, false, |row| {
            row.put_bytes(offset, src, Ordering::Release);
        });
    }

    /// A put the split-queue protocol declares *atomic*: same cost and
    /// semantics as [`Armci::put`], but the trace marks the written words
    /// as protocol-atomic so the race checker pairs them with the
    /// target's own lock-free index publishes instead of flagging them.
    /// The words are stored SeqCst, the ordering every protocol that has
    /// not written down a weaker pairing gets.
    pub fn put_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        let s = Strided::contiguous(offset, src.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Put, true, |row| {
            row.put_bytes(offset, src, Ordering::SeqCst);
        });
    }

    /// One-sided contiguous get: copy `(rank, offset)` into `dst`.
    pub fn get(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        let s = Strided::contiguous(offset, dst.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Get, false, |row| {
            row.get_bytes(offset, dst, Ordering::Acquire);
        });
    }

    /// A get the split-queue protocol declares *atomic* (see
    /// [`Armci::put_atomic`]): reads words that a lock-free writer may be
    /// publishing concurrently, which the protocol tolerates by design.
    /// Each word is one SeqCst load; the words are not one snapshot.
    pub fn get_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        let s = Strided::contiguous(offset, dst.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Get, true, |row| {
            row.get_bytes(offset, dst, Ordering::SeqCst);
        });
    }

    /// Atomic accumulate of f64 values: `dest[i] += scale * src[i]`.
    /// `offset` is in bytes and must be 8-byte aligned.
    pub fn acc_f64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        scale: f64,
        src: &[f64],
    ) {
        let s = Strided::contiguous(offset, src.len() * 8);
        self.accumulate(ctx, g, rank, s, src.len(), |k, cur| {
            (f64::from_bits(cur) + scale * src[k]).to_bits()
        });
    }

    /// Atomic accumulate of i64 values: `dest[i] += scale * src[i]`.
    pub fn acc_i64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        scale: i64,
        src: &[i64],
    ) {
        let s = Strided::contiguous(offset, src.len() * 8);
        self.accumulate(ctx, g, rank, s, src.len(), |k, cur| {
            (cur as i64).wrapping_add(scale.wrapping_mul(src[k])) as u64
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig, TraceConfig};

    /// Rank 0's `RemoteOp` records as `(kind, target, offset, bytes,
    /// atomic)`, all of which must name segment `seg`.
    fn remote_ops(
        report: &scioto_sim::Report,
        seg: usize,
    ) -> Vec<(RemoteOpKind, u32, u64, u32, bool)> {
        let trace = report.trace.as_ref().expect("tracing was enabled");
        let ops = trace.events_for(0).iter().filter_map(|e| match e.event {
            TraceEvent::RemoteOp { kind, target, seg: s, offset, bytes, atomic } => {
                assert_eq!(s as usize, seg);
                Some((kind, target, offset, bytes, atomic))
            }
            _ => None,
        });
        ops.collect()
    }

    #[test]
    fn every_data_op_records_one_exact_access_per_segment() {
        use RemoteOpKind::{Acc, Get, Put};
        let cfg = MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled());
        let out = Machine::run(cfg, |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 256);
            if ctx.rank() == 0 {
                armci.put(ctx, g, 1, 8, &[1; 16]);
                armci.get(ctx, g, 1, 8, &mut [0; 16]);
                // protocol: none to name — only this rank touches the
                // segment; the atomic mark on the two records is the test.
                armci.put_atomic(ctx, g, 1, 24, &[2; 8]);
                armci.get_atomic(ctx, g, 1, 24, &mut [0; 8]);
                armci.acc_f64(ctx, g, 1, 32, 1.0, &[1.0, 2.0]);
                armci.acc_i64(ctx, g, 1, 48, 1, &[3]);
                let s = Strided { offset: 64, stride: 32, seg_len: 16, count: 3 };
                for kind in [Put, Get, Acc] {
                    armci.access_strided(ctx, g, 1, s, kind, |_, _, w| *w += 1);
                }
                // A region of no bytes is no access, wherever it points.
                let none = Strided { offset: 1 << 40, stride: 8, seg_len: 8, count: 0 };
                armci.access_strided(ctx, g, 1, none, Get, |_, _, _| {});
            }
            g.id
        });
        let strided = |kind, atomic| [64, 96, 128].map(|off| (kind, 1, off, 16, atomic));
        let mut expect = vec![
            (Put, 1, 8, 16, false),
            (Get, 1, 8, 16, false),
            (Put, 1, 24, 8, true),
            (Get, 1, 24, 8, true),
            (Acc, 1, 32, 16, true),
            (Acc, 1, 48, 8, true),
        ];
        expect.extend(strided(Put, false));
        expect.extend(strided(Get, false));
        expect.extend(strided(Acc, true));
        assert_eq!(remote_ops(&out.report, out.results[0]), expect);
    }

    #[test]
    fn contiguous_put_is_the_one_segment_strided_put() {
        let cfg = MachineConfig::virtual_time(2)
            .with_latency(LatencyModel::cluster())
            .with_trace(TraceConfig::enabled());
        let out = Machine::run(cfg, |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let mut took = (0, 0);
            if ctx.rank() == 0 {
                let t0 = ctx.now();
                armci.put(ctx, g, 1, 16, &[7; 24]);
                let t1 = ctx.now();
                let s = Strided { offset: 16, stride: 0, seg_len: 24, count: 1 };
                armci.access_strided(ctx, g, 1, s, RemoteOpKind::Put, |_, _, w| {
                    *w = u64::from_le_bytes([7; 8]);
                });
                took = (t1 - t0, ctx.now() - t1);
            }
            (g.id, took)
        });
        let (seg, (contiguous, strided)) = out.results[0];
        let ops = remote_ops(&out.report, seg);
        assert_eq!(ops, [(RemoteOpKind::Put, 1, 16, 24, false); 2]);
        assert!(contiguous > 0 && contiguous == strided, "{contiguous} ns vs {strided} ns");
    }

    #[test]
    #[should_panic(expected = "access [40, 40+40) out of bounds for segment of 64 bytes")]
    fn oob_strided_access_names_its_own_offset_and_extent() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let s = Strided { offset: 40, stride: 16, seg_len: 8, count: 3 };
            armci.access_strided(ctx, g, 0, s, RemoteOpKind::Get, |_, _, _| {});
        });
    }

    #[test]
    fn zero_length_ops_at_the_segment_end_are_accepted() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.put(ctx, g, 0, 8, &[]);
            armci.get(ctx, g, 0, 8, &mut []);
            armci.acc_f64(ctx, g, 0, 8, 1.0, &[]);
            // Segments of no bytes: accepted wherever they point.
            let s = Strided { offset: 1000, stride: 8, seg_len: 0, count: 2 };
            armci.access_strided(ctx, g, 0, s, RemoteOpKind::Put, |_, _, _| {});
        });
    }

    #[test]
    #[should_panic(expected = "access [9, 9+0) out of bounds for segment of 8 bytes")]
    fn zero_length_contiguous_op_past_the_segment_end_is_rejected() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.put(ctx, g, 0, 9, &[]);
        });
    }

    #[test]
    fn put_get_roundtrip_across_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let me = ctx.rank();
            let next = (me + 1) % ctx.nranks();
            // Write my rank into my right neighbour's memory.
            armci.put(ctx, g, next, 0, &[me as u8; 8]);
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            armci.get(ctx, g, me, 0, &mut buf);
            buf[0] as usize
        });
        // Rank r holds the id of its left neighbour.
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn acc_f64_accumulates_from_all_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(8), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            armci.acc_f64(ctx, g, 0, 8, 2.0, &[1.0]);
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            armci.get(ctx, g, 0, 8, &mut buf);
            f64::from_le_bytes(buf)
        });
        for v in out.results {
            assert_eq!(v, 16.0); // 8 ranks × scale 2.0 × 1.0
        }
    }

    #[test]
    fn acc_i64_accumulates() {
        let out = Machine::run(MachineConfig::virtual_time(5), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.acc_i64(ctx, g, 0, 0, 1, &[ctx.rank() as i64]);
            armci.barrier(ctx);
            armci.read_i64(ctx, g, 0, 0)
        });
        for v in out.results {
            assert_eq!(v, 1 + 2 + 3 + 4);
        }
    }

    #[test]
    fn remote_ops_cost_more_than_local() {
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 1024);
                let t0 = ctx.now();
                let buf = [0u8; 1024];
                armci.put(ctx, g, ctx.rank(), 0, &buf);
                let local = ctx.now() - t0;
                let t1 = ctx.now();
                armci.put(ctx, g, (ctx.rank() + 1) % 2, 0, &buf);
                let remote = ctx.now() - t1;
                (local, remote)
            },
        );
        for (local, remote) in out.results {
            assert!(
                remote > 4 * local,
                "remote put ({remote} ns) should dwarf local put ({local} ns)"
            );
        }
    }

    #[test]
    fn separate_segments_are_independent() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let a = armci.malloc(ctx, 8);
            let b = armci.malloc(ctx, 8);
            if ctx.rank() == 0 {
                armci.put(ctx, a, 0, 0, &1i64.to_le_bytes());
                armci.put(ctx, b, 0, 0, &2i64.to_le_bytes());
            }
            armci.barrier(ctx);
            (armci.read_i64(ctx, a, 0, 0), armci.read_i64(ctx, b, 0, 0))
        });
        assert!(out.results.iter().all(|&(x, y)| x == 1 && y == 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_put_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.put(ctx, g, 0, 4, &[0u8; 8]);
        });
    }

    #[test]
    #[should_panic(expected = "invalid Gmem handle 7")]
    fn unknown_gmem_handle_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            armci.malloc(ctx, 8);
            armci.put(ctx, Gmem { id: 7, len: 8 }, 0, 0, &[0u8; 8]);
        });
    }

    /// Bytes of `g` backed by host memory on each rank.
    fn materialised(armci: &Armci, g: Gmem) -> Vec<usize> {
        armci.segment(g).store.materialised()
    }

    #[test]
    fn malloc_materialises_nothing() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1 << 20);
            armci.barrier(ctx);
            (g.len(), materialised(&armci, g))
        });
        for (len, mat) in out.results {
            assert_eq!(len, 1 << 20);
            assert_eq!(mat, vec![0; 4]);
        }
    }

    #[test]
    fn never_written_ranges_read_as_zeros_and_allocate_nothing() {
        use crate::Strided;
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1 << 20);
            let other = 1 - ctx.rank();
            // Poisoned buffers: every byte must be overwritten with a zero.
            let mut a = [0xAAu8; 64];
            armci.get(ctx, g, other, 4096, &mut a);
            let mut b = [0xBBu8; 64];
            armci.get(ctx, g, other, 70_001, &mut b);
            let mut c = [0xCCu8; 32];
            let s = Strided { offset: 200_000, stride: 1024, seg_len: 8, count: 4 };
            armci.access_strided(ctx, g, other, s, RemoteOpKind::Get, |i, _, w| {
                c[i * 8..][..8].copy_from_slice(&w.to_le_bytes());
            });
            let word = armci.read_i64(ctx, g, other, (1 << 20) - 8);
            armci.barrier(ctx);
            let zeros = a.iter().chain(&b).chain(&c).all(|&x| x == 0) && word == 0;
            zeros && materialised(&armci, g) == [0, 0]
        });
        assert_eq!(out.results, vec![true, true]);
    }

    /// Chunk `k` holds `16 << k` words: a put high in a fresh segment
    /// materialises the one chunk it lands in, and the words written
    /// earlier, in another chunk, are where they were.
    #[test]
    fn a_high_put_materialises_its_own_chunk_only() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1 << 20);
            armci.put(ctx, g, 0, 16, &[7u8; 16]);
            let small = materialised(&armci, g)[0];
            // Word 62 500 lies in chunk 11: words [32 752, 65 520).
            armci.put(ctx, g, 0, 500_000, &[9u8; 8]);
            let mut gap = [1u8; 256];
            armci.get(ctx, g, 0, 250_000, &mut gap);
            let mut low = [0u8; 48];
            armci.get(ctx, g, 0, 0, &mut low);
            let mut high = [0u8; 8];
            armci.get(ctx, g, 0, 500_000, &mut high);
            (small, materialised(&armci, g)[0], gap == [0u8; 256], low, high)
        });
        let (small, grown, gap_zero, low, high) = out.results[0];
        assert_eq!(small, 16 * 8, "first touch materialises chunk 0");
        assert_eq!(grown, (16 + (16 << 11)) * 8, "and the high put chunk 11");
        assert!(gap_zero);
        assert_eq!(low[..16], [0u8; 16]);
        assert_eq!(low[16..32], [7u8; 16]);
        assert_eq!(low[32..], [0u8; 16]);
        assert_eq!(high, [9u8; 8]);
    }

    #[test]
    fn chunks_double_and_the_last_stops_at_the_segment_end() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1000);
            let mut sizes = Vec::new();
            // One more byte each time: 125 words are chunks of 16, 32, 64
            // and the 13 left, so 1000 single-byte puts allocate 4 times.
            for off in 0..1000 {
                armci.put(ctx, g, 0, off, &[off as u8]);
                let m = materialised(&armci, g)[0];
                if sizes.last() != Some(&m) {
                    sizes.push(m);
                }
            }
            let mut all = vec![0u8; 1000];
            armci.get(ctx, g, 0, 0, &mut all);
            (sizes, all)
        });
        let (sizes, all) = &out.results[0];
        assert_eq!(sizes, &[128, 384, 896, 1000]);
        assert!(all.iter().enumerate().all(|(i, &b)| b == i as u8));
    }

    #[test]
    fn local_view_sees_remote_puts_and_touches_only_its_chunks() {
        use std::sync::atomic::Ordering::{Acquire, Release};
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 5000);
            armci.put(ctx, g, ctx.rank(), 10, &[3u8; 4]);
            let local = armci.local(ctx, g);
            let seen = (local.load(8, Acquire), local.load(4992, Acquire));
            // Owner writes on a fresh segment touch their chunk only.
            let h = armci.malloc(ctx, 5000);
            let local = armci.local(ctx, h);
            local.write(104, 2, |j| j as u64 + 1);
            local.store(96, 5, Release);
            let mut words = Vec::new();
            local.read(96, 4, |_, w| words.push(w));
            let swapped = (local.swap(96, 0, Acquire), local.swap(4000, 0, Acquire));
            local.fill(0, 625, 0);
            let cleared = local.load(104, Acquire);
            (seen, words, swapped, cleared, materialised(&armci, h)[ctx.rank()])
        });
        for (seen, words, swapped, cleared, mat) in out.results {
            assert_eq!(seen, (u64::from_le_bytes([0, 0, 3, 3, 3, 3, 0, 0]), 0));
            assert_eq!(words, [5, 1, 2, 0]);
            assert_eq!(swapped, (5, 0));
            assert_eq!(cleared, 0);
            assert_eq!(mat, 128, "words 12..15 live in chunk 0");
        }
    }

    #[test]
    fn concurrent_writers_see_exact_values_while_the_store_grows() {
        const ROUNDS: usize = 400;
        const STRIDE: usize = 1024;
        let out = Machine::run(MachineConfig::concurrent(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, (ROUNDS + 1) * STRIDE);
            armci.barrier(ctx);
            let me = ctx.rank();
            if me > 0 {
                for i in 0..ROUNDS {
                    // Each writer walks upward, so every few operations one
                    // of the three is the first into a chunk of rank 0's
                    // store while the other two are mid-flight on it.
                    let base = i * STRIDE;
                    // Disjoint: 8 private bytes per writer per round.
                    armci.put(ctx, g, 0, base + me * 8, &[(i as u8) ^ (me as u8); 8]);
                    // Overlapping: all three accumulate into the same words.
                    armci.acc_i64(ctx, g, 0, base + 64, 1, &[me as i64, 1]);
                    armci.acc_f64(ctx, g, 0, base + 128, 0.5, &[2.0]);
                }
            }
            armci.barrier(ctx);
            if me != 0 {
                return true;
            }
            (0..ROUNDS).all(|i| {
                let base = i * STRIDE;
                let mut b = [0u8; 32];
                armci.get(ctx, g, 0, base, &mut b);
                let disjoint = b[..8] == [0u8; 8]
                    && (1..4).all(|w| b[w * 8..w * 8 + 8] == [(i as u8) ^ (w as u8); 8]);
                let words = |off: usize, n: usize| {
                    let mut b = vec![0u8; n * 8];
                    armci.get(ctx, g, 0, off, &mut b);
                    let decode = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
                    b.chunks_exact(8).map(decode).collect::<Vec<_>>()
                };
                let (sums, f) = (words(base + 64, 2), words(base + 128, 1));
                disjoint && sums == [6, 3] && f == [3.0f64.to_bits()]
            })
        });
        assert_eq!(out.results, vec![true; 4]);
    }

    #[test]
    #[should_panic(expected = "rank 5 out of range (nranks = 2)")]
    fn bad_rank_panics_before_touching_a_store() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.get(ctx, g, 5, 0, &mut [0u8; 8]);
        });
    }

    #[test]
    #[should_panic(expected = "word 1 out of bounds for a segment of 1 words")]
    fn local_access_past_the_segment_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.local(ctx, g).store(8, 1, std::sync::atomic::Ordering::Release);
        });
    }

    #[test]
    fn local_store_is_what_remote_gets_read() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 4);
            let local = armci.local(ctx, g);
            local.store(0, ctx.rank() as u64, std::sync::atomic::Ordering::Release);
            armci.barrier(ctx);
            // Everyone reads rank 2's first byte.
            let mut b = [0u8; 1];
            armci.get(ctx, g, 2, 0, &mut b);
            b[0]
        });
        assert_eq!(out.results, vec![2, 2, 2]);
    }

    // ---- real threads against one store ----
    //
    // Each property runs on a few seeds here and on 64 under the
    // `#[ignore]`d `stress_*` variants (`scripts/verify.sh`, release).

    /// Eight threads each own one byte lane of the same 64 words and put
    /// their byte into every word, in a seeded order, over and over: a
    /// ragged put is a CAS merge, so no thread's last byte is lost to a
    /// neighbour's write of the same word.
    fn byte_lanes_lose_nothing(seed: u64) {
        const WORDS: usize = 64;
        const ROUNDS: u8 = 24;
        let out = Machine::run(MachineConfig::concurrent(8).with_seed(seed), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, WORDS * 8);
            armci.barrier(ctx);
            let me = ctx.rank();
            let mut order: Vec<usize> = (0..WORDS).collect();
            for round in 0..ROUNDS {
                ctx.rng().shuffle(&mut order);
                for &w in &order {
                    armci.put(ctx, g, 0, w * 8 + me, &[round ^ (w as u8) ^ (me as u8).wrapping_mul(37)]);
                }
            }
            armci.barrier(ctx);
            let mut all = [0u8; WORDS * 8];
            armci.get(ctx, g, 0, 0, &mut all);
            all
        });
        let want: Vec<u8> = (0..WORDS * 8)
            .map(|b| (ROUNDS - 1) ^ (b / 8) as u8 ^ ((b % 8) as u8).wrapping_mul(37))
            .collect();
        assert_eq!(out.results[0].to_vec(), want, "seed {seed}");
    }

    /// Four threads accumulate and fetch-and-add into one word: both take
    /// the store's read-modify-write lock, so the sum is exact.
    fn acc_and_fetch_add_sum_exactly(seed: u64) {
        const OPS: i64 = 500;
        let out = Machine::run(MachineConfig::concurrent(4).with_seed(seed), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.barrier(ctx);
            let mut fetched = 0;
            for i in 0..OPS {
                if (i + ctx.rank() as i64) % 2 == 0 {
                    armci.acc_i64(ctx, g, 0, 0, 1, &[3]);
                } else {
                    fetched += armci.fetch_add_i64(ctx, g, 0, 0, 3) % 3;
                }
            }
            armci.barrier(ctx);
            (armci.read_i64(ctx, g, 0, 0), fetched)
        });
        for (sum, fetched) in out.results {
            assert_eq!((sum, fetched), (4 * OPS * 3, 0), "seed {seed}");
        }
    }

    /// The termination detector's dirty flag under real thieves: each of
    /// three thieves marks its own byte of rank 0's `DIRTY` word with an
    /// atomic put and waits until the owner's swap has cleared it before
    /// marking again; the owner counts, per byte, the marks its swaps took.
    /// A clear that erased a mark without returning it would leave a count
    /// short.
    fn dirty_marks_racing_take_dirty_are_never_lost(seed: u64) {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        const MARKS: usize = 200;
        let done = AtomicUsize::new(0);
        let out = Machine::run(MachineConfig::concurrent(4).with_seed(seed), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.barrier(ctx);
            let me = ctx.rank();
            let mut taken = [0usize; 4];
            if me == 0 {
                let local = armci.local(ctx, g);
                loop {
                    let last = done.load(SeqCst) == 3;
                    let marks = local.swap(0, 0, SeqCst).to_le_bytes();
                    for (t, &b) in marks.iter().enumerate().take(4) {
                        taken[t] += usize::from(b);
                    }
                    if last {
                        break;
                    }
                }
            } else {
                for _ in 0..MARKS {
                    // protocol: the thief's dirty mark, cleared by the owner's swap.
                    armci.put_atomic(ctx, g, 0, me, &[1]);
                    let mut b = [1u8];
                    while b[0] != 0 {
                        for _ in 0..ctx.rng().gen_range(0..4u32) {
                            std::hint::spin_loop();
                        }
                        // protocol: the thief polls its own byte until cleared.
                        armci.get_atomic(ctx, g, 0, me, &mut b);
                    }
                }
                done.fetch_add(1, SeqCst);
            }
            armci.barrier(ctx);
            taken
        });
        assert_eq!(out.results[0], [0, MARKS, MARKS, MARKS], "seed {seed}");
    }

    #[test]
    fn byte_lanes_from_eight_threads_lose_nothing() {
        (0..2).for_each(byte_lanes_lose_nothing);
    }

    #[test]
    fn acc_and_fetch_add_on_one_word_sum_exactly_on_real_threads() {
        (0..2).for_each(acc_and_fetch_add_sum_exactly);
    }

    #[test]
    fn dirty_marks_wait_for_their_clear_and_none_is_lost() {
        (0..2).for_each(dirty_marks_racing_take_dirty_are_never_lost);
    }

    #[test]
    #[ignore = "64-seed real-thread stress; scripts/verify.sh runs it in release"]
    fn stress_byte_lanes() {
        (0..64).for_each(byte_lanes_lose_nothing);
    }

    #[test]
    #[ignore = "64-seed real-thread stress; scripts/verify.sh runs it in release"]
    fn stress_acc_and_fetch_add() {
        (0..64).for_each(acc_and_fetch_add_sum_exactly);
    }

    #[test]
    #[ignore = "64-seed real-thread stress; scripts/verify.sh runs it in release"]
    fn stress_dirty_marks() {
        (0..64).for_each(dirty_marks_racing_take_dirty_are_never_lost);
    }
}
