//! Remotely accessible memory segments, the transfer engine every one-sided
//! data operation runs through, and contiguous put/get/acc on top of it.

use std::collections::HashMap;
use std::sync::Arc;

use scioto_det::sync::{CachePadded, Mutex, MutexGuard};

use scioto_sim::{Ctx, RemoteOpKind, TraceEvent, VLock};

use crate::strided::Strided;
use crate::world::Armci;

/// One collectively allocated region: `len` bytes on *every* rank.
pub(crate) struct Segment {
    /// Logical bytes per rank (the `Gmem::len` handed out by `malloc`).
    len: usize,
    /// Per-rank backing store: a zero-extended prefix of the rank's `len`
    /// logical bytes. Bytes at or beyond `Vec::len` have never been
    /// touched and read as zero; [`Segment::lock`] is the only code that
    /// reaches a store, and it materialises what its caller is about to
    /// touch. The mutex serializes raw accesses (an accumulate must be
    /// atomic with respect to other accumulates, as in ARMCI) and growth;
    /// in virtual-time mode it is never contended. Padded so a rank
    /// working on its own store never shares a cache line with the lock
    /// word or buffer header of its neighbour's.
    data: Vec<CachePadded<Mutex<Vec<u8>>>>,
    /// Per-word RMW service queues: the target adapter processes atomic
    /// RMWs on one location serially (`LatencyModel::rmw_service` each),
    /// so a hot word — a shared counter — has bounded throughput.
    hot_words: Mutex<HashMap<(usize, usize), Arc<VLock>>>,
}

impl Segment {
    fn new(nranks: usize, len: usize) -> Segment {
        Segment {
            len,
            data: (0..nranks)
                .map(|_| CachePadded(Mutex::new(Vec::new())))
                .collect(),
            hot_words: Mutex::new(HashMap::new()),
        }
    }

    /// Lock `rank`'s store with `[0, end)` materialised. Growth doubles
    /// the store (capped at the segment length) and zero-fills, under the
    /// same mutex every access takes, so no accessor can observe a store
    /// mid-growth and `malloc`'s "zero-initialized" contract holds for
    /// bytes nobody has written. Callers bounds-check first; the assert
    /// is what keeps a bad `end` from turning into an allocation (an `end`
    /// inside the store is inside the segment, so only growth needs it).
    pub(crate) fn lock(&self, rank: usize, end: usize) -> MutexGuard<'_, Vec<u8>> {
        let mut store = self.data[rank].lock();
        if store.len() < end {
            assert!(
                end <= self.len,
                "materialising {end} bytes of a {}-byte segment",
                self.len
            );
            let grown = end.max(store.len() * 2).min(self.len);
            store.resize(grown, 0);
        }
        store
    }

    /// Bytes of each rank's store that are backed by host memory. `None`
    /// for a store that is locked right now (`Debug` may be called from
    /// inside a `with_local` scope, and must not deadlock on it).
    fn materialised(&self) -> Vec<Option<usize>> {
        self.data
            .iter()
            .map(|store| store.try_lock().map(|bytes| bytes.len()))
            .collect()
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
/// and how much of each rank's store is materialised.
impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("len", &self.len)
            .field("materialised", &self.materialised())
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
    /// Host memory is committed on first touch: each rank's store holds
    /// the prefix up to the highest byte any operation has reached, and
    /// everything beyond it reads as the zeros it would hold anyway.
    pub fn malloc(&self, ctx: &Ctx, bytes: usize) -> Gmem {
        let handle = ctx.collective(|| {
            let id = self.segments.push(Segment::new(self.nranks, bytes));
            Gmem { id, len: bytes }
        });
        *handle
    }

    pub(crate) fn segment(&self, g: Gmem) -> &Segment {
        self.segments
            .get(g.id)
            .unwrap_or_else(|| panic!("invalid Gmem handle {}", g.id))
    }

    /// The one validation every one-sided entry point runs before it
    /// reaches [`Segment::lock`]: rank in range, `offset + len` neither
    /// overflowing nor past the segment.
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

    /// Cost of a one-sided data transfer of `len` bytes to/from `target`.
    pub(crate) fn xfer_cost(&self, ctx: &Ctx, target: usize, len: usize) -> u64 {
        if target == ctx.rank() {
            ctx.latency().local_get + (ctx.latency().per_byte * len as f64 * 0.125) as u64
        } else {
            ctx.latency().xfer_to(ctx.rank(), target, self.nranks, len)
        }
    }

    /// The one engine under every one-sided data operation. In this order:
    /// bounds check, scheduling point, one access record per segment of
    /// `s`, `each(i, bytes)` on the `i`-th segment with the target's store
    /// locked once around all of them (what makes an accumulate atomic
    /// against other accumulates), then the network charge for the total
    /// payload — a strided operation is one pipelined transfer, and a
    /// contiguous one is the `count = 1` case. `kind` and `atomic` only
    /// label the records; what the bytes become is up to `each`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        kind: RemoteOpKind,
        atomic: bool,
        mut each: impl FnMut(usize, &mut [u8]),
    ) {
        let extent = s.extent();
        self.check_bounds(g, rank, s.offset, extent);
        ctx.yield_point();
        let at = |i: usize| s.offset + i * s.stride;
        for i in 0..s.count {
            record_remote(ctx, kind, g, rank, at(i), s.seg_len, atomic);
        }
        let mut data = self.segment(g).lock(rank, s.offset + extent);
        for i in 0..s.count {
            each(i, &mut data[at(i)..at(i) + s.seg_len]);
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, s.total_bytes()));
    }

    /// The one accumulate under `acc_f64` / `acc_i64` / `acc_strided_f64`:
    /// element `k` of the region (8 bytes, little-endian) becomes
    /// `add(k, element)`. `elems` is the length of the caller's source.
    pub(crate) fn accumulate(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        s: Strided,
        elems: usize,
        mut add: impl FnMut(usize, [u8; 8]) -> [u8; 8],
    ) {
        assert_eq!(s.offset % 8, 0, "accumulate offset must be 8-byte aligned");
        assert_eq!(s.seg_len % 8, 0, "accumulate seg_len must be a multiple of 8");
        assert_eq!(elems * 8, s.total_bytes(), "src length mismatch");
        let per_seg = s.seg_len / 8;
        self.transfer(ctx, g, rank, s, RemoteOpKind::Acc, true, |i, seg| {
            for (j, word) in seg.chunks_exact_mut(8).enumerate() {
                let cur = (&*word).try_into().expect("8 bytes");
                word.copy_from_slice(&add(i * per_seg + j, cur));
            }
        });
    }

    /// One-sided contiguous put: copy `src` into `(rank, offset)`.
    pub fn put(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        let s = Strided::contiguous(offset, src.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Put, false, |_, seg| seg.copy_from_slice(src));
    }

    /// A put the split-queue protocol declares *atomic*: same cost and
    /// semantics as [`Armci::put`], but the trace marks the written words
    /// as protocol-atomic so the race checker pairs them with the
    /// target's own lock-free index publishes instead of flagging them.
    pub fn put_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        let s = Strided::contiguous(offset, src.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Put, true, |_, seg| seg.copy_from_slice(src));
    }

    /// One-sided contiguous get: copy `(rank, offset)` into `dst`.
    pub fn get(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        let s = Strided::contiguous(offset, dst.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Get, false, |_, seg| dst.copy_from_slice(seg));
    }

    /// A get the split-queue protocol declares *atomic* (see
    /// [`Armci::put_atomic`]): reads words that a lock-free writer may be
    /// publishing concurrently, which the protocol tolerates by design.
    pub fn get_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        let s = Strided::contiguous(offset, dst.len());
        self.transfer(ctx, g, rank, s, RemoteOpKind::Get, true, |_, seg| dst.copy_from_slice(seg));
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
            (f64::from_le_bytes(cur) + scale * src[k]).to_le_bytes()
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
            i64::from_le_bytes(cur).wrapping_add(scale.wrapping_mul(src[k])).to_le_bytes()
        });
    }

    /// Run `f` with mutable access to this rank's own portion of the
    /// segment, in one lock scope. Charges only local software overhead
    /// and emits no access record: fine for owner-private initialization
    /// (setup that happens before any concurrency); a shared-protocol
    /// access must be recorded, either by going through
    /// [`Armci::with_local_range_mut`] or by pairing each access made
    /// inside `f` with [`Armci::record_local_access`].
    pub fn with_local_mut<R>(&self, ctx: &Ctx, g: Gmem, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.segment(g).lock(ctx.rank(), g.len))
    }

    /// Run `f` with read access to this rank's own portion of the segment.
    pub fn with_local<R>(&self, ctx: &Ctx, g: Gmem, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.segment(g).lock(ctx.rank(), g.len))
    }

    /// Bounds-check and record one owner-side access to
    /// `[offset, offset + len)` of this rank's own portion as a
    /// `LocalAccess`, so the race checker can pair owner accesses against
    /// remote thieves — without touching the memory. `atomic` marks
    /// single-word protocol accesses (lock-free index reads and publishes)
    /// the queue discipline declares safe against concurrent atomic
    /// accessors. [`Armci::with_local_range`] and
    /// [`Armci::with_local_range_mut`] record and access in one call; an
    /// owner that performs several protocol accesses inside one
    /// [`Armci::with_local_mut`] scope records each of them through this.
    pub fn record_local_access(
        &self,
        ctx: &Ctx,
        g: Gmem,
        offset: usize,
        len: usize,
        write: bool,
        atomic: bool,
    ) {
        self.check_bounds(g, ctx.rank(), offset, len);
        // Order-only instant: the race checker needs the access's position
        // in the rank's timeline, never a duration from its stamp — so the
        // hot per-word protocol path skips the wall-clock query.
        ctx.trace_instant(|| TraceEvent::LocalAccess {
            seg: g.id as u32,
            offset: offset as u64,
            bytes: len as u32,
            write,
            atomic,
        });
    }

    /// Owner-side read of `[offset, offset + len)` of this rank's own
    /// portion, recorded in the trace (see
    /// [`Armci::record_local_access`]).
    pub fn with_local_range<R>(
        &self,
        ctx: &Ctx,
        g: Gmem,
        offset: usize,
        len: usize,
        atomic: bool,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.record_local_access(ctx, g, offset, len, false, atomic);
        let end = offset + len;
        f(&self.segment(g).lock(ctx.rank(), end)[offset..end])
    }

    /// Owner-side write access to `[offset, offset + len)` of this rank's
    /// own portion, recorded in the trace (see
    /// [`Armci::record_local_access`]).
    pub fn with_local_range_mut<R>(
        &self,
        ctx: &Ctx,
        g: Gmem,
        offset: usize,
        len: usize,
        atomic: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        self.record_local_access(ctx, g, offset, len, true, atomic);
        let end = offset + len;
        f(&mut self.segment(g).lock(ctx.rank(), end)[offset..end])
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
                armci.put_strided(ctx, g, 1, s, &[4; 48]);
                armci.get_strided(ctx, g, 1, s, &mut [0; 48]);
                armci.acc_strided_f64(ctx, g, 1, s, 1.0, &[0.5; 6]);
                // A region of no bytes is no access, wherever it points.
                let none = Strided { offset: 1 << 40, stride: 8, seg_len: 8, count: 0 };
                armci.get_strided(ctx, g, 1, none, &mut []);
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
                armci.put_strided(ctx, g, 1, s, &[7; 24]);
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
            armci.get_strided(ctx, g, 0, s, &mut [0u8; 24]);
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
            armci.put_strided(ctx, g, 0, s, &[]);
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
        let per_rank = armci.segment(g).materialised();
        per_rank.into_iter().map(|m| m.expect("unlocked")).collect()
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
    fn never_written_ranges_read_as_zeros() {
        use crate::Strided;
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1 << 20);
            let other = 1 - ctx.rank();
            // Poisoned buffers: every byte must be overwritten with a zero.
            let mut a = [0xAAu8; 64];
            armci.get(ctx, g, other, 4096, &mut a);
            let mut b = [0xBBu8; 64];
            armci.get(ctx, g, other, 70_000, &mut b);
            let mut c = [0xCCu8; 32];
            let s = Strided { offset: 200_000, stride: 1024, seg_len: 8, count: 4 };
            armci.get_strided(ctx, g, other, s, &mut c);
            let word = armci.read_i64(ctx, g, other, (1 << 20) - 8);
            a.iter().chain(&b).chain(&c).all(|&x| x == 0) && word == 0
        });
        assert_eq!(out.results, vec![true, true]);
    }

    #[test]
    fn high_put_leaves_zeros_below_and_growth_keeps_values() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1 << 20);
            armci.put(ctx, g, 0, 16, &[7u8; 16]);
            let small = materialised(&armci, g)[0];
            // A put far above the materialised prefix: the gap reads zero
            // and the low bytes written before the growth are intact.
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
        assert_eq!(small, 32, "first touch materialises exactly what it reached");
        assert!((500_008..=1 << 20).contains(&grown), "grown to {grown}");
        assert!(gap_zero);
        assert_eq!(low[..16], [0u8; 16]);
        assert_eq!(low[16..32], [7u8; 16]);
        assert_eq!(low[32..], [0u8; 16]);
        assert_eq!(high, [9u8; 8]);
    }

    #[test]
    fn growth_is_geometric_and_capped_at_the_segment_length() {
        let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 1000);
            let mut sizes = Vec::new();
            // One more byte each time: the store at least doubles, so 1000
            // single-byte extensions grow it O(log n) times, never past 1000.
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
        assert_eq!(sizes, &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]);
        assert!(all.iter().enumerate().all(|(i, &b)| b == i as u8));
    }

    #[test]
    fn whole_segment_with_local_sees_exactly_len_bytes() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 5000);
            armci.put(ctx, g, ctx.rank(), 10, &[3u8; 4]);
            let seen = armci.with_local(ctx, g, |b| (b.len(), b[10], b[4999]));
            let seen_mut = armci.with_local_mut(ctx, g, |b| b.len());
            // A ranged owner access on a fresh segment touches its range only.
            let h = armci.malloc(ctx, 5000);
            armci.with_local_range_mut(ctx, h, 100, 8, false, |b| b.fill(1));
            let ranged = armci.with_local_range(ctx, h, 96, 16, false, |b| b.to_vec());
            (seen, seen_mut, materialised(&armci, h)[ctx.rank()], ranged)
        });
        for (seen, seen_mut, ranged_mat, ranged) in out.results {
            assert_eq!(seen, (5000, 3, 0));
            assert_eq!(seen_mut, 5000);
            assert!((112..5000).contains(&ranged_mat), "materialised {ranged_mat}");
            assert_eq!(ranged, [[0u8; 4], [1u8; 4], [1u8; 4], [0u8; 4]].concat());
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
                    // of the three is the one that grows rank 0's store
                    // while the other two are mid-flight on it.
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
                let sums = armci.get_i64s(ctx, g, 0, base + 64, 2);
                let f = armci.get_f64s(ctx, g, 0, base + 128, 1);
                disjoint && sums == [6, 3] && f == [3.0]
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
    fn with_local_mut_gives_owner_access() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 4);
            armci.with_local_mut(ctx, g, |bytes| bytes[0] = ctx.rank() as u8);
            armci.barrier(ctx);
            // Everyone reads rank 2's first byte.
            let mut b = [0u8; 1];
            armci.get(ctx, g, 2, 0, &mut b);
            b[0]
        });
        assert_eq!(out.results, vec![2, 2, 2]);
    }
}
